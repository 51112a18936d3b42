"""Relation-aware multi-instance attention in a miniature diffusion pipeline."""

from .attention import AttnProjection, FeatureGrid, RadlAttnParams
from .fusion import FusionBranch
from .layout import (
    BBox,
    InstanceSpec,
    LayoutSpec,
    MaskGrid,
    Relation,
    parse_layout,
    rasterize_mask,
    serialize_layout,
    total_mask,
)
from .pipeline import (
    DenoiserParams,
    NoiseSchedule,
    forward_diffuse,
    gradcheck,
    init_denoiser,
    sample,
    train,
)
from .scenes import SceneConfig, SyntheticScene, make_scene
from .text import (
    EmbedderConfig,
    EmbeddingSeq,
    PositionMLPParams,
    embed_tokens,
    extract_verbs,
    tokenize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
