"""Miniature pixel-space diffusion harness with the attention stack
injected at the two lowest feature resolutions.

The denoiser is deliberately tiny: two strided linear patch stages down
(image -> S/2 -> S/4 grids at width d), the attention stack replacing the
plain pass at both feature resolutions when active, and two linear patch
stages back up with a skip connection.  The network predicts the clean
image as a correction to a fixed posterior-mean anchor on x_t; the noise
estimate then follows from schedule arithmetic, which keeps every learned
quantity O(1) regardless of timestep.  All gradients are hand-derived and
checked against central finite differences.

Every forward takes a stack of K images (K, 3, S, S) with K steps, one per
image, or one step the stack shares; with the attention stack on it also
takes the K images' layout encodings.  A lone image is a stack of one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Sequence

import numpy as np

from .attention import (
    AttnProjection,
    FeatureGrid,
    KeyValues,
    KVProjection,
    RowSet,
    as_rows,
    flip_stack,
    attribute_enhancement_forward,
    attribute_enhancement_backward,
    instance_attention_forward,
    instance_attention_backward,
    masked_text_attention_forward,
    masked_text_attention_backward,
    relation_attention_forward,
    relation_attention_backward,
)
from .errors import NonFiniteLoss, ShapeMismatch, StepOutOfRange
from .fusion import FusionBranch, fuse_backward, fuse_forward, fusion_weights
from .layout import LayoutSpec, rasterize_mask, total_mask
from .oracles import central_diff, rel_err
from .scenes import SyntheticScene
from .text import (
    EmbedderConfig,
    EmbeddingSeq,
    PositionMLPParams,
    build_instance_embedding_forward,
    build_instance_embedding_backward,
    embed_tokens,
    extract_verbs,
    position_embed_forward,
    position_embed_backward,
    tokenize,
)

VARIANTS = ("full", "text_attn_only", "no_relation")
TRAIN_MODES = ("mirror", "always_on")

# assumed second moment of clean-image pixels; fixes the posterior-mean
# anchor kappa_t = sqrt(ab) q / (ab q + 1 - ab) used by the denoiser
PRIOR_MOMENT = 0.3

# residual second moment assumed for the network's clean-image correction;
# sets how strongly the correction is trusted against the anchor.  Small
# values keep the correction near full strength at the noise levels where
# the attention stack runs while still bounding the chain factor at low
# noise (max amplification ~ 1 / (2 sqrt(NET_TRUST)))
NET_TRUST = 0.05


# ---------------------------------------------------------------------------
# noise schedule

@dataclass(frozen=True)
class NoiseSchedule:
    """Linear-beta schedule; betas run from 1e-4 to 0.02 over `steps`."""

    steps: int
    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray

    @staticmethod
    def make(steps: int) -> "NoiseSchedule":
        if steps < 2:
            raise ValueError("schedule needs at least 2 steps")
        betas = np.linspace(1e-4, 0.02, steps)
        alphas = 1.0 - betas
        return NoiseSchedule(
            steps=steps, betas=betas, alphas=alphas, alpha_bars=np.cumprod(alphas)
        )

    def _check(self, t: int):
        if not 1 <= t <= self.steps:
            raise StepOutOfRange(f"step {t} outside 1..{self.steps}")

    def beta(self, t: int) -> float:
        self._check(t)
        return float(self.betas[t - 1])

    def alpha(self, t: int) -> float:
        self._check(t)
        return float(self.alphas[t - 1])

    def alpha_bar(self, t: int) -> float:
        self._check(t)
        return float(self.alpha_bars[t - 1])

    def posterior_variance(self, t: int) -> float:
        self._check(t)
        prev = self.alpha_bars[t - 2] if t >= 2 else 1.0
        return float(self.betas[t - 1] * (1.0 - prev) / (1.0 - self.alpha_bars[t - 1]))


def forward_diffuse(x0: np.ndarray, t: int, sched: NoiseSchedule, noise: np.ndarray) -> np.ndarray:
    """x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) noise."""
    if x0.shape != noise.shape:
        raise ShapeMismatch(f"noise shape {noise.shape} != x0 shape {x0.shape}")
    ab = sched.alpha_bar(t)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * noise


@lru_cache(maxsize=8)
def training_schedule(steps: int) -> NoiseSchedule:
    return NoiseSchedule.make(steps)


@lru_cache(maxsize=8)
def _noise_terms(steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The noise estimate's s0, net scale and gain basis at each training
    step, read-only; each term is elementwise, so a row equals that step's."""
    ab = training_schedule(steps).alpha_bars
    u = 1.0 - ab
    s0 = np.sqrt(u) / (ab * PRIOR_MOMENT + u)
    net_scale = (np.sqrt(ab * u) / (u + ab * NET_TRUST))[:, None, None, None]
    # gain correction on a dense noise-level basis: every sample updates all
    # four coefficients, unlike a per-step table that would starve at the
    # fixed learning rate.  The second feature is the gap to the exact
    # noise gain, reachable as the content correction becomes trustworthy.
    basis = np.stack([np.ones_like(u), 1.0 / np.sqrt(u) - s0, np.sqrt(u), u], axis=-1)
    for a in (s0, net_scale, basis):
        a.flags.writeable = False
    return s0, net_scale, basis


# ---------------------------------------------------------------------------
# denoiser parameters

@dataclass
class DenoiserParams:
    """All learnable state of the toy denoiser.  Every tensor is a view into
    one vector, `flat`, so an optimizer step is one pass over it."""

    d: int
    image_size: int
    t_train: int
    enc1_w: np.ndarray  # (12, d)
    enc1_b: np.ndarray  # (d,)
    enc2_w: np.ndarray  # (4d, d)
    enc2_b: np.ndarray  # (d,)
    dec1_w: np.ndarray  # (d, 4d)
    dec1_b: np.ndarray  # (4d,)
    dec2_w: np.ndarray  # (d, 12)
    dec2_b: np.ndarray  # (12,)
    temb: np.ndarray    # (t_train, d)
    anchor_gain: np.ndarray  # (4,) basis coefficients for the x_t gain correction
    # the attention stack's projections, learnable queries and embedding reprojection
    proj_text: AttnProjection
    proj_ae: KVProjection  # attribute enhancement uses its queries raw
    proj_inst: AttnProjection
    proj_rel: AttnProjection
    qlp_fine: np.ndarray    # (fine_side**2, d)
    qlp_coarse: np.ndarray  # (coarse_side**2, d)
    e_proj: np.ndarray      # (d + d_pos, d)
    posmlp: PositionMLPParams
    logit_bg: np.ndarray    # ()
    logit_inst: np.ndarray  # ()
    logit_rel: np.ndarray   # ()
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _flatten(self)

    def __setstate__(self, state):
        # pickling copies each view on its own: lay them out in one vector again
        self.__dict__.update(state)
        _flatten(self)

    @property
    def fine_side(self) -> int:
        return self.image_size // 2

    @property
    def coarse_side(self) -> int:
        return self.image_size // 4


def init_denoiser(
    seed: int, d: int = 8, image_size: int = 32, t_train: int = 200
) -> DenoiserParams:
    if image_size % 4 != 0 or image_size < 8:
        raise ValueError("image_size must be a multiple of 4, at least 8")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    fine, coarse = image_size // 2, image_size // 4
    s = 1.0 / np.sqrt(d)
    # keyword arguments evaluate in order: the draws below keep their order
    return DenoiserParams(
        d=d,
        image_size=image_size,
        t_train=t_train,
        enc1_w=rng.standard_normal((12, d)) / np.sqrt(12.0),
        enc1_b=np.zeros(d),
        enc2_w=rng.standard_normal((4 * d, d)) / np.sqrt(4.0 * d),
        enc2_b=np.zeros(d),
        dec1_w=rng.standard_normal((d, 4 * d)) * 0.5 / np.sqrt(d),
        dec1_b=np.zeros(4 * d),
        dec2_w=rng.standard_normal((d, 12)) * 0.5 / np.sqrt(d),
        dec2_b=np.zeros(12),
        temb=np.zeros((t_train, d)),
        anchor_gain=np.zeros(4),
        proj_text=AttnProjection.init(rng, d),
        # drawn as AttnProjection.init draws, its wq dropped: later tensors keep their draws
        proj_ae=KVProjection(*(rng.standard_normal((3, d, d)) * s)[1:]),
        proj_inst=AttnProjection.init(rng, d),
        proj_rel=AttnProjection.init(rng, d),
        qlp_fine=rng.standard_normal((fine * fine, d)) * s,
        qlp_coarse=rng.standard_normal((coarse * coarse, d)) * s,
        # identity on the label block, small noise on the position block:
        # instance embeddings start as label content plus a weak position
        # perturbation
        e_proj=np.vstack([np.eye(d), 0.1 * rng.standard_normal((d, d))]),
        posmlp=PositionMLPParams.init(rng, hidden=16, d_pos=d),
        # instances should dominate their own regions from the start
        logit_bg=np.array(0.0),
        logit_inst=np.array(3.0),
        logit_rel=np.array(0.0),
    )


# every learnable tensor by group: checkpoint name -> attribute path, in the
# order the flat parameter vector lays them out, so each group is a slice of it
PARAM_GROUPS: dict[str, dict[str, str]] = {
    **{g: {f"{g}.w": f"{g}_w", f"{g}.b": f"{g}_b"} for g in ("enc1", "enc2", "dec1", "dec2")},
    "temb": {"temb": "temb"},
    "anchor_gain": {"anchor_gain": "anchor_gain"},
    **{f"attn_{k}": {f"radl.{k}.w{w}": f"proj_{k}.w{w}" for w in ("kv" if k == "ae" else "qkv")}
       for k in ("text", "ae", "inst", "rel")},
    "qlp": {"radl.qlp_fine": "qlp_fine", "radl.qlp_coarse": "qlp_coarse"},
    "e_proj": {"radl.e_proj": "e_proj"},
    "posmlp": {f"posmlp.{w}": f"posmlp.{w}" for w in ("w1", "b1", "w2", "b2")},
    "fusion_logits": {f"fusion.logit_{b}": f"logit_{b}" for b in ("bg", "inst", "rel")},
}
_TENSOR_PATHS = {name: path for paths in PARAM_GROUPS.values() for name, path in paths.items()}
# groups that act as gates/queries rather than weights
NO_DECAY = frozenset(
    name for group in ("anchor_gain", "qlp", "fusion_logits") for name in PARAM_GROUPS[group]
)


def params_to_dict(p: DenoiserParams) -> dict[str, np.ndarray]:
    """Name -> every learnable tensor (shared references: views into
    `p.flat`, laid out in this order)."""
    return {name: attrgetter(path)(p) for name, path in _TENSOR_PATHS.items()}


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views into `flat` shaped as the arrays of `like`, end to end in its order."""
    ends = np.cumsum([a.size for a in like.values()]).tolist()
    return {
        name: flat[end - a.size : end].reshape(a.shape)
        for (name, a), end in zip(like.items(), ends)
    }


def _flatten(p: DenoiserParams) -> None:
    """Copy every tensor into one vector, `p.flat`, and point p at views of it."""
    tensors = params_to_dict(p)
    p.flat = np.concatenate([a.ravel() for a in tensors.values()])
    for name, view in _views(p.flat, tensors).items():
        head, _, attr = _TENSOR_PATHS[name].rpartition(".")
        setattr(attrgetter(head)(p) if head else p, attr, view)


def zero_grads(p: DenoiserParams) -> dict[str, np.ndarray]:
    """Zero gradients named as params_to_dict, views into one vector."""
    return _views(np.zeros_like(p.flat), params_to_dict(p))


# ---------------------------------------------------------------------------
# layout text encoding (frozen embedder outputs, reused across steps)

@dataclass(frozen=True)
class Branch:
    """What one attention branch reads: its key tokens, the query rows it
    computes at each grid side, which are also the rows its fusion mask
    keeps, and an instance's box [x1, y1, x2, y2]."""

    tokens: EmbeddingSeq
    rows: dict[int, RowSet]  # grid side -> rows
    box: np.ndarray | None = None  # (4,), or (K', 4) when packed


@dataclass(frozen=True)
class LayoutEncoding:
    """A layout's embedded text and rasterized masks, as the attention block
    reads them at both grid sides."""

    background: Branch
    instances: tuple[Branch, ...]
    relation: Branch | None  # None without verbs or instances


def encode_layout(layout: LayoutSpec, cfg: EmbedderConfig, image_size: int) -> LayoutEncoding:
    """Embed the layout's text and rasterize its masks at both grid sides
    of an image_size denoiser."""
    verbs = list(layout.verbs) if layout.verbs is not None else extract_verbs(layout.prompt, cfg)
    sides = (image_size // 2, image_size // 4)
    masks = {s: [rasterize_mask(i.bbox, s, s) for i in layout.instances] for s in sides}
    totals = {s: total_mask(m, height=s, width=s) for s, m in masks.items()}

    def branch(tokens, rows_at, box=None) -> Branch:
        return Branch(embed_tokens(tokens, cfg), {s: rows_at(s) for s in sides}, box)

    return LayoutEncoding(
        background=branch(tokenize(layout.prompt), lambda s: RowSet.every(s, s)),
        instances=tuple(
            branch(tokenize(inst.label), lambda s: RowSet.of(masks[s][i]), inst.bbox.as_array())
            for i, inst in enumerate(layout.instances)
        ),
        relation=(
            branch(verbs, lambda s: RowSet.of(totals[s])) if verbs and layout.instances else None
        ),
    )


# ---------------------------------------------------------------------------
# patch reshapes (strided 2x2 linear stages)

# Each reshape also takes leading image axes, (K, 3, S, S) <-> (K, rows, cols),
# by folding them into one axis of the transpose.

def _move_pairs(a: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...]) -> np.ndarray:
    """A copy of a.reshape(shape + (2,)).transpose(axes + (len(shape),)): the
    innermost pair of values stays innermost, so each pair moves as one
    item, where numpy would copy it in a 2-element inner loop."""
    a = np.ascontiguousarray(a)
    pairs = a.view(np.dtype((np.void, 2 * a.itemsize)))
    return pairs.reshape(shape).transpose(axes).copy().view(a.dtype)


def image_to_patches(img: np.ndarray) -> np.ndarray:
    """(3, S, S) -> (S/2 * S/2, 12), one row per 2x2 block."""
    h = img.shape[-1] // 2
    return _move_pairs(img, (-1, 3, h, 2, h), (0, 2, 4, 1, 3)).reshape(img.shape[:-3] + (h * h, 12))


def patches_to_image(p: np.ndarray, s: int) -> np.ndarray:
    h = s // 2
    return _move_pairs(p, (-1, h, h, 3, 2), (0, 3, 1, 4, 2)).reshape(p.shape[:-2] + (3, s, s))


def grid_to_patches(values: np.ndarray, side: int) -> np.ndarray:
    """(side*side, d) -> (side/2 * side/2, 4d)."""
    d = values.shape[-1]
    h = side // 2
    return (
        values.reshape(-1, h, 2, h, 2, d).transpose(0, 1, 3, 2, 4, 5)
        .reshape(values.shape[:-2] + (h * h, 4 * d))
    )


def patches_to_grid(p: np.ndarray, side: int) -> np.ndarray:
    """Inverse of grid_to_patches: (side/2*side/2, 4d) -> (side*side, d)."""
    h = side // 2
    d = p.shape[-1] // 4
    return (
        p.reshape(-1, h, h, 2, 2, d).transpose(0, 1, 3, 2, 4, 5)
        .reshape(p.shape[:-2] + (side * side, d))
    )


# ---------------------------------------------------------------------------
# attention block at one resolution

def _pack(branches: Sequence[Branch | None]) -> Branch | None:
    """One branch over a stack of grids from each grid's own branch (None
    where a grid has none): tokens and, at each side, rows padded to the
    longest; the grids without it keep no row.  At a side where every grid
    keeps every row, the stack shares the first grid's rows."""
    grids = [k for k, b in enumerate(branches) if b is not None]
    if not grids:
        return None
    present = [branches[k] for k in grids]
    rows = {}
    for side, first in present[0].rows.items():
        sets = [b.rows[side] for b in present]
        whole = len(present) == len(branches) and all(r.whole for r in sets)
        rows[side] = first if whole else RowSet.pack(sets, grids, len(branches))
    return Branch(
        tokens=EmbeddingSeq.pack([b.tokens for b in present]),
        rows=rows,
        box=None if present[0].box is None else np.array([b.box for b in present]),
    )


def _block_inputs(encs: Sequence[LayoutEncoding]) -> LayoutEncoding:
    """One encoding over the stack.  Grids that share one encoding share its
    branches unpadded, so each gets the bytes it gets alone.  Distinct
    layouts are packed; instance slot i holds the grids whose layout has an
    i-th instance."""
    if all(e is encs[0] for e in encs):
        return encs[0]
    slots = max(len(e.instances) for e in encs)
    return LayoutEncoding(
        background=_pack([e.background for e in encs]),
        instances=tuple(
            _pack([e.instances[i] if i < len(e.instances) else None for e in encs])
            for i in range(slots)
        ),
        relation=_pack([e.relation for e in encs]),
    )


@dataclass(frozen=True)
class StackInputs:
    """What a stack's stack-on forwards read of its layouts at both grid
    sides, made by `prepare_stack` for one set of parameter values and
    valid only for those.  Its arrays are read-only."""

    inputs: LayoutEncoding  # the stack's branches (see _block_inputs)
    images: int  # K
    background: KeyValues  # the prompt tokens under proj_text
    labels: tuple[KeyValues, ...]  # each instance slot's label tokens under proj_text
    # each slot's instance embedding under proj_inst, and the caches of the
    # embeddings' forwards; None for text_attn_only, which reads none
    embeddings: list[KeyValues] | None
    emb_caches: list[tuple] | None
    relation: KeyValues | None  # the verbs under proj_rel; None without a relation branch
    weights: dict[int, np.ndarray]  # grid side -> fusion weights (see fusion_weights)


def prepare_stack(
    encs: Sequence[LayoutEncoding], params: DenoiserParams, variant: str
) -> StackInputs:
    """The stack inputs of K images with layout encodings encs under the
    current parameter values."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    inputs = _block_inputs(encs)
    embs = caches = None
    if variant != "text_attn_only":
        embs, caches = [], []
        for inst in inputs.instances:
            pos, pos_cache = position_embed_forward(inst.box, params.posmlp)
            e_i, emb_cache = build_instance_embedding_forward(inst.tokens, pos, params.e_proj)
            e_i.values.flags.writeable = False
            embs.append(KeyValues.project(e_i.values, params.proj_inst, e_i.keep))
            caches.append((pos_cache, emb_cache))
    rel = inputs.relation if variant == "full" else None
    # fusion's branches in order: background, each instance slot, relation
    branches = [inputs.background, *inputs.instances] + ([rel] if rel else [])
    logits = [float(params.logit_bg)] + [float(params.logit_inst)] * len(inputs.instances)
    logits += [float(params.logit_rel)] if rel else []

    def keys(b: Branch, proj: AttnProjection) -> KeyValues:
        return KeyValues.project(b.tokens.values, proj, b.tokens.keep)

    return StackInputs(
        inputs=inputs,
        images=len(encs),
        background=keys(inputs.background, params.proj_text),
        labels=tuple(keys(inst, params.proj_text) for inst in inputs.instances),
        embeddings=embs,
        emb_caches=caches,
        relation=None if rel is None else keys(rel, params.proj_rel),
        weights={
            side: fusion_weights([b.rows[side].mask for b in branches], logits)
            for side in (params.fine_side, params.coarse_side)
        },
    )


def _instance_embeddings_backward(
    d_embs: Sequence[np.ndarray], caches: Sequence[tuple], params: DenoiserParams,
    g: dict[str, np.ndarray],
):
    for d_emb, (pos_cache, emb_cache) in zip(d_embs, caches):
        emb_grads = build_instance_embedding_backward(d_emb, emb_cache, params.e_proj)
        g["radl.e_proj"] += emb_grads["proj"]
        pos_grads = position_embed_backward(emb_grads["pos"], pos_cache, params.posmlp)
        for key in ("w1", "b1", "w2", "b2"):
            g[f"posmlp.{key}"] += pos_grads[key]


@dataclass
class InstanceCache:
    r: object
    ae: object | None = None
    ia: object | None = None


@dataclass
class BlockCache:
    qlp_name: str
    bg: object
    instances: list[InstanceCache]
    rel: object | None  # None without a relation branch
    fuse: object


def _radl_block_forward(
    feat: FeatureGrid, stack: StackInputs, params: DenoiserParams
) -> tuple[FeatureGrid, BlockCache]:
    side = feat.h
    if side == params.fine_side:
        qlp, qlp_name = params.qlp_fine, "radl.qlp_fine"
    elif side == params.coarse_side:
        qlp, qlp_name = params.qlp_coarse, "radl.qlp_coarse"
    else:
        raise ShapeMismatch(f"no injection site at resolution {side}x{side}")

    inputs = stack.inputs
    r_bg, bg_cache = masked_text_attention_forward(
        feat, stack.background, params.proj_text, inputs.background.rows[side]
    )
    branches = [FusionBranch(r_bg)]

    inst_caches = []
    for i, inst in enumerate(inputs.instances):
        emb = None if stack.embeddings is None else stack.embeddings[i]
        r_f, ic = _instance_branch(feat, stack.labels[i], inst.rows[side], emb, qlp, params)
        inst_caches.append(ic)
        branches.append(FusionBranch(r_f))

    rel_cache = None
    if stack.relation is not None:
        r_rel, rel_cache = relation_attention_forward(
            feat, stack.relation, params.proj_rel, inputs.relation.rows[side]
        )
        branches.append(FusionBranch(r_rel))

    fused, fuse_cache = fuse_forward(branches, stack.weights[side])
    return fused, BlockCache(qlp_name, bg_cache, inst_caches, rel_cache, fuse_cache)


def _instance_branch(
    feat: FeatureGrid, label: KeyValues, rows: RowSet, emb: KeyValues | None, qlp: np.ndarray,
    params: DenoiserParams,
) -> tuple[FeatureGrid, InstanceCache]:
    """One instance slot's branch and cache, its text attention alone without an
    embedding.  The slot holds only its mask's rows from the text attention
    on; fusion scatters it."""
    r_i, r_cache = masked_text_attention_forward(feat, label, params.proj_text, rows)
    ic = InstanceCache(r=r_cache)
    if emb is None:
        return r_i, ic
    # enhancement keys/values come from the instance's own masked features;
    # only in-box query rows are computed, which is exact because instance
    # attention reads and back-propagates only those
    r_ae, ic.ae = attribute_enhancement_forward(r_i, qlp, params.proj_ae, rows)
    r_ia, ic.ia = instance_attention_forward(r_ae, emb, params.proj_inst, rows)
    return FeatureGrid.unchecked(r_i.values + r_ia.values, rows), ic  # residual fusion


def _accumulate_proj(g: dict, prefix: str, grads: dict):
    """Add each projection gradient an attention backward returned."""
    for w in grads.keys() & {"wq", "wk", "wv"}:
        g[f"{prefix}.{w}"] += grads[w]


def _radl_block_backward(
    d_out: np.ndarray, cache: BlockCache, params: DenoiserParams, g: dict[str, np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Returns the feature gradient and each instance slot's embedding
    gradient (none for text_attn_only).  d_out and the feature gradient are
    (K, n, d); the ops in between take the stack rows-first (see
    attention.flip_stack) and give the feature gradient of the rows they
    kept, which this adds in.  Each part of the cache is released once used."""
    d_feats, d_logits = fuse_backward(flip_stack(d_out), cache.fuse)
    cache.fuse = None
    g["fusion.logit_bg"] += d_logits[0]
    n = len(cache.instances)
    for i in range(n):
        g["fusion.logit_inst"] += d_logits[1 + i]
    if cache.rel is not None:
        g["fusion.logit_rel"] += d_logits[1 + n]

    bg_grads = masked_text_attention_backward(d_feats[0], cache.bg)
    d_feat = cache.bg.rows.put(bg_grads["feat"])  # (K, n, d): the background keeps every row
    cache.bg = None
    _accumulate_proj(g, "radl.text", bg_grads)

    d_embs = []
    for i, ic in enumerate(cache.instances):
        d_r = d_feats[1 + i]  # a fresh array, the residual's gradient
        if ic.ae is not None:  # text_attn_only's slot is its text attention alone
            # the residual passes d_r to both of its terms
            ia_grads = instance_attention_backward(d_r, ic.ia)
            _accumulate_proj(g, "radl.inst", ia_grads)
            d_embs.append(ia_grads["emb"])
            d_ae = flip_stack(ic.ia.rows.put(ia_grads["feat"]))
            ae_grads = attribute_enhancement_backward(d_ae, ic.ae)
            g[cache.qlp_name] += ae_grads["qlp"]
            _accumulate_proj(g, "radl.ae", ae_grads)
            ic.ae.rows.add(flip_stack(d_r), ae_grads["feat"])
        r_grads = masked_text_attention_backward(d_r, ic.r)
        ic.r.rows.add(d_feat, r_grads["feat"])
        _accumulate_proj(g, "radl.text", r_grads)
        cache.instances[i] = None

    if cache.rel is not None:
        rel_grads = relation_attention_backward(d_feats[1 + n], cache.rel)
        cache.rel.rows.add(d_feat, rel_grads["feat"])
        _accumulate_proj(g, "radl.rel", rel_grads)

    return d_feat, d_embs


# ---------------------------------------------------------------------------
# denoiser forward / backward

@dataclass
class DenoiseCache:
    x: np.ndarray
    t: np.ndarray  # (T,): one step per image, or T = 1 shared by the stack
    block_fine: BlockCache | None  # None with the stack off
    p16: np.ndarray
    block_coarse: BlockCache | None
    b8: np.ndarray
    u16c: np.ndarray
    stack: StackInputs | None  # read with the stack on only
    net_scale: np.ndarray          # (T, 1, 1, 1)
    gain_basis: np.ndarray         # (T, 4)


# perfbench's tracer reads radl_on as positional argument 4: keep it there
def denoise_forward_cached(
    params: DenoiserParams,
    x_t: np.ndarray,
    t: Sequence[int],
    stack: StackInputs | None,
    radl_on: bool,
) -> tuple[np.ndarray, DenoiseCache]:
    """x_t is a stack (K, 3, S, S).  t holds K steps, one per image, or one
    step the stack shares; with the attention stack on, `stack` holds the K
    images' inputs under the current parameter values (see prepare_stack).
    Images that share one step and one encoding each get the bytes they
    would get alone: a shared step stays one step, because the gain basis
    product rounds differently over K rows."""
    s = params.image_size
    if x_t.ndim != 4 or x_t.shape[1:] != (3, s, s):
        raise ShapeMismatch(f"x_t shape {x_t.shape} != (K, 3, {s}, {s})")
    k = len(x_t)
    t = np.asarray(t, dtype=int)
    if t.ndim != 1 or len(t) not in (1, k):
        raise ShapeMismatch(f"{k} images need 1 or {k} steps, got t {t.tolist()}")
    if radl_on and (stack is None or stack.images != k):
        raise ShapeMismatch(f"{k} images need stack inputs made for {k} images")
    if np.any(t < 1) or np.any(t > params.t_train):
        raise StepOutOfRange(f"timestep {t.tolist()} outside 1..{params.t_train}")
    fine, coarse = params.fine_side, params.coarse_side

    def attend(h: np.ndarray, side: int) -> tuple[np.ndarray, BlockCache | None]:
        """The attention stack at one grid side; the plain pass when off."""
        if not radl_on:
            return h, None
        grid = FeatureGrid.unchecked(h, RowSet.every(side, side))
        fused, block = _radl_block_forward(grid, stack, params)
        return fused.values, block

    temb_t = params.temb[t - 1][:, None, :]
    b16, block_fine = attend(image_to_patches(x_t) @ params.enc1_w + params.enc1_b + temb_t, fine)
    p16 = grid_to_patches(b16, fine)
    b8, block_coarse = attend(p16 @ params.enc2_w + params.enc2_b + temb_t, coarse)

    # in place: each temporary here is an image-sized stack, and a pack's
    # forward holds its caches on top of them
    u16c = patches_to_grid(b8 @ params.dec1_w + params.dec1_b, fine)
    u16c += b16  # skip: the fine-grid features reach the decoder directly

    correction = u16c @ params.dec2_w
    correction += params.dec2_b
    correction = patches_to_image(correction, s)

    # Wiener-anchored noise estimate.  s0 is the optimal linear gain for
    # predicting the noise from x_t alone under the pixel prior moment; the
    # network supplies the clean-image correction, blended with the weight
    # that parameterization implies (full strength at mid noise levels,
    # muted where x_t already pins the clean image).  Everything the
    # network learns stays O(1) at every timestep.  Each of these holds one
    # value per step of t.
    s0, net_scale, basis = (a[t - 1] for a in _noise_terms(params.t_train))
    gain = s0 + basis @ params.anchor_gain
    eps = correction
    eps *= net_scale
    eps += gain[:, None, None, None] * x_t

    return eps, DenoiseCache(
        x=x_t, t=t, block_fine=block_fine, p16=p16,
        block_coarse=block_coarse, b8=b8, u16c=u16c, stack=stack,
        net_scale=net_scale, gain_basis=basis,
    )


def _add_temb_grad(g: dict[str, np.ndarray], t: np.ndarray, d_h: np.ndarray):
    # one row per image, summed over the stack where it shares one step
    rows = d_h.sum(axis=1)
    np.add.at(g["temb"], t - 1, rows if len(t) == len(rows) else rows.sum(axis=0, keepdims=True))


def denoise_backward(
    d_eps: np.ndarray, cache: DenoiseCache, params: DenoiserParams, g: dict[str, np.ndarray]
) -> None:
    """Accumulate parameter gradients for one forward pass over a stack into
    g, summed over its images.  The attention-block caches are released as
    the backward goes, so a cache takes one backward."""
    fine = params.fine_side
    radl_on = cache.block_fine is not None

    basis = cache.gain_basis
    g["anchor_gain"] += (d_eps * cache.x).reshape(len(basis), -1).sum(axis=1) @ basis

    d_u16c = _linear_backward(
        cache.u16c, image_to_patches(cache.net_scale * d_eps), params.dec2_w, g, "dec2"
    )
    d_b8 = _linear_backward(cache.b8, grid_to_patches(d_u16c, fine), params.dec1_w, g, "dec1")

    if radl_on:
        d_h8, d_embs = _radl_block_backward(d_b8, cache.block_coarse, params, g)
        cache.block_coarse = None
    else:
        d_h8 = d_b8

    _add_temb_grad(g, cache.t, d_h8)
    # b16 feeds both the downsampling stage and the decoder skip
    d_b16 = d_u16c
    d_b16 += patches_to_grid(_linear_backward(cache.p16, d_h8, params.enc2_w, g, "enc2"), fine)

    if radl_on:
        d_h16, d_embs_fine = _radl_block_backward(d_b16, cache.block_fine, params, g)
        if cache.stack.emb_caches is not None:
            _instance_embeddings_backward(
                [a + b for a, b in zip(d_embs, d_embs_fine)], cache.stack.emb_caches, params, g
            )
    else:
        d_h16 = d_b16

    _add_temb_grad(g, cache.t, d_h16)
    g["enc1.w"] += as_rows(image_to_patches(cache.x)).T @ as_rows(d_h16)
    g["enc1.b"] += as_rows(d_h16).sum(axis=0)


def _linear_backward(
    x: np.ndarray, d_y: np.ndarray, w: np.ndarray, g: dict[str, np.ndarray], name: str
) -> np.ndarray:
    """Accumulate the weight and bias gradients of y = x @ w + b over a
    stack into g; returns the input gradient."""
    g[f"{name}.w"] += as_rows(x).T @ as_rows(d_y)
    g[f"{name}.b"] += as_rows(d_y).sum(axis=0)
    return d_y @ w.T


# ---------------------------------------------------------------------------
# sampling

def _temb_index_map(sample_sched: NoiseSchedule, t_train: int) -> np.ndarray:
    """Map each sampling step to the training step with the closest
    cumulative noise level, for the timestep-embedding lookup."""
    train_ab = training_schedule(t_train).alpha_bars
    return np.abs(train_ab[None] - sample_sched.alpha_bars[:, None]).argmin(axis=1) + 1


def sample(
    params: DenoiserParams,
    layout: LayoutSpec,
    total_steps: int = 60,
    radl_steps: int = 30,
    seeds: Sequence[int] = (0,),
    embed_cfg: EmbedderConfig | None = None,
    variant: str = "full",
) -> tuple[np.ndarray, list[bool]]:
    """Ancestral sampling from pure noise, one image per seed.

    The attention stack is active for the first `radl_steps` iterations
    (largest t) and off afterwards; returns the [0,1]-clamped images
    (K, 3, S, S) for K seeds and the per-step activation trace.  The images
    are denoised together, each byte-identical to the one its seed gives
    alone.
    """
    if not 0 <= radl_steps <= total_steps:
        raise ValueError(f"radl_steps {radl_steps} outside 0..total_steps {total_steps}")
    if embed_cfg is None:
        embed_cfg = EmbedderConfig(dim=params.d)

    sched = NoiseSchedule.make(total_steps)
    s = params.image_size
    if not seeds:
        raise ValueError("sampling needs at least one seed")
    # one noise stream per image, drawn in the order a lone run draws it,
    # into one buffer that each draw overwrites
    rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,))) for seed in seeds]
    buf = np.empty((len(rngs), 3, s, s))

    def noise() -> np.ndarray:
        for rng, out in zip(rngs, buf):
            rng.standard_normal(out=out)
        return buf

    # the layout and the parameters hold for the whole call: every stack-on
    # step reads one set of stack inputs
    stack = prepare_stack([encode_layout(layout, embed_cfg, s)] * len(seeds), params, variant)
    temb_map = _temb_index_map(sched, params.t_train)

    x = noise().copy()
    trace: list[bool] = []
    for i, t in enumerate(range(total_steps, 0, -1)):
        radl_on = i < radl_steps
        trace.append(radl_on)
        # the stack shares one step
        e = denoise_forward_cached(params, x, temb_map[t - 1 : t], stack, radl_on)[0]
        # static thresholding: clamp the implied clean image to [0,1] and
        # use the consistent noise estimate in the ancestral update.  In
        # place on the fresh noise estimate e: x0_hat, then eps_used, then
        # the mean in x
        ab = sched.alpha_bar(t)
        e *= np.sqrt(1.0 - ab)
        np.subtract(x, e, out=e)
        e /= np.sqrt(ab)
        np.clip(e, 0.0, 1.0, out=e)  # x0_hat
        e *= np.sqrt(ab)
        np.subtract(x, e, out=e)
        e /= np.sqrt(1.0 - ab)  # eps_used
        e *= sched.beta(t) / np.sqrt(1.0 - ab)
        x -= e
        x /= np.sqrt(sched.alpha(t))  # the mean
        if t > 1:
            x += np.multiply(noise(), np.sqrt(sched.posterior_variance(t)), out=buf)
    return np.clip(x, 0.0, 1.0), trace


# ---------------------------------------------------------------------------
# training

def mse_loss_and_grads(
    params: DenoiserParams,
    scenes: Sequence[SyntheticScene],
    ts: Sequence[int],
    noise: np.ndarray,
    encs: Sequence[LayoutEncoding] | None,
    g: dict[str, np.ndarray],
    variant: str = "full",
    grad_scale: float = 1.0,
) -> float:
    """Summed MSE between predicted and true noise over a pack of K samples
    (noise is (K, 3, S, S)), from one forward and one backward; grads
    accumulate into g.  The stack is on exactly when encs, the scenes'
    encodings, are given.  The per-sample losses are summed in pack order."""
    sched = training_schedule(params.t_train)
    x_t = np.stack([forward_diffuse(sc.image, t, sched, n) for sc, t, n in zip(scenes, ts, noise)])
    stack = None if encs is None else prepare_stack(encs, params, variant)
    resid, cache = denoise_forward_cached(params, x_t, ts, stack, encs is not None)
    # in place, so that one image-stack array lives through the backward
    resid -= noise
    per_sample = (resid * resid).reshape(len(resid), -1).mean(axis=1)
    resid *= 2.0 / noise[0].size
    resid *= grad_scale
    denoise_backward(resid, cache, params, g)
    return sum(per_sample.tolist())


@dataclass
class TrainResult:
    params: DenoiserParams
    losses: list[float]
    lrs: list[float]
    opt_m: dict[str, np.ndarray]
    opt_v: dict[str, np.ndarray]
    step: int


def train(
    params: DenoiserParams,
    dataset: list[SyntheticScene],
    steps: int,
    lr: float = 1e-4,
    warmup_steps: int = 100,
    weight_decay: float = 0.01,
    rng_seed: int = 0,
    batch_size: int = 8,
    embed_cfg: EmbedderConfig | None = None,
    variant: str = "full",
    start_step: int = 0,
    opt_m: dict[str, np.ndarray] | None = None,
    opt_v: dict[str, np.ndarray] | None = None,
    radl_train_mode: str = "mirror",
) -> TrainResult:
    """AdamW noise-prediction training with linear warmup to a fixed lr.

    Per-step randomness is keyed on (seed, global step), so resuming from a
    checkpoint reproduces the unbroken run exactly.  Decoupled weight decay
    skips learnable queries, fusion logits, and the anchor gain.

    radl_train_mode: "mirror" activates the attention stack only on the
    high-noise half of the schedule, matching how sampling splits its
    steps, so the plain pass also trains at the noise levels where
    inference uses it; "always_on" keeps the stack active at every t.
    Each step draws its samples first, then runs those with the stack on
    as one pack and those with it off as another (see mse_loss_and_grads).
    A pack holds its samples' activations until its backward, so
    batch_size bounds a step's memory as well as its work.
    """
    if radl_train_mode not in TRAIN_MODES:
        raise ValueError(f"unknown radl_train_mode {radl_train_mode!r}")
    if not dataset:
        raise ValueError("training dataset is empty")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if embed_cfg is None:
        embed_cfg = EmbedderConfig(dim=params.d)

    pdict = params_to_dict(params)
    # AdamW runs as one pass over flat vectors laid out as params.flat
    m, v = (
        np.zeros_like(params.flat) if state is None
        else np.concatenate([state[name].ravel() for name in pdict])
        for state in (opt_m, opt_v)
    )
    decay = np.concatenate([
        np.full(a.size, 0.0 if name in NO_DECAY else weight_decay) for name, a in pdict.items()
    ])
    grad = np.zeros_like(params.flat)
    g = _views(grad, pdict)
    # beta2 shortened for runs of a few thousand steps
    beta1, beta2, adam_eps = 0.9, 0.99, 1e-8
    # each scene is encoded, masks included, when first drawn with the stack on
    encs: dict[int, LayoutEncoding] = {}

    def stack_on(t: int) -> bool:
        return radl_train_mode == "always_on" or t > params.t_train // 2

    losses: list[float] = []
    lrs: list[float] = []
    for step in range(start_step, start_step + steps):
        rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(2, step)))
        draws = []
        for _ in range(batch_size):
            pick = int(rng.integers(len(dataset)))
            t = int(rng.integers(1, params.t_train + 1))
            draws.append((pick, t, rng.standard_normal(dataset[pick].image.shape)))
        # the samples with the stack on in one pack, then those with it off
        # in another, each run as one forward and one backward
        grad.fill(0.0)
        loss = 0.0
        for radl_on in (True, False):
            pack = [d for d in draws if stack_on(d[1]) == radl_on]
            if not pack:
                continue
            picks, ts, noises = zip(*pack)
            if radl_on:
                for pick in picks:
                    if pick not in encs:
                        layout = dataset[pick].layout
                        encs[pick] = encode_layout(layout, embed_cfg, params.image_size)
            loss += mse_loss_and_grads(
                params, [dataset[p] for p in picks], ts, np.stack(noises),
                [encs[p] for p in picks] if radl_on else None, g,
                variant=variant, grad_scale=1.0 / batch_size,
            )
        loss /= batch_size
        if not np.isfinite(loss):
            raise NonFiniteLoss(step, loss)

        lr_t = lr if warmup_steps <= 0 else lr * min(step / warmup_steps, 1.0)
        count = step + 1
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1**count)
        v_hat = v / (1.0 - beta2**count)
        # decay is 0 on NO_DECAY tensors: adding 0 * p leaves their update as is
        params.flat -= lr_t * (m_hat / (np.sqrt(v_hat) + adam_eps) + decay * params.flat)

        losses.append(loss)
        lrs.append(lr_t)

    return TrainResult(
        params=params, losses=losses, lrs=lrs, opt_m=_views(m, pdict), opt_v=_views(v, pdict),
        step=start_step + steps,
    )


# ---------------------------------------------------------------------------
# gradient checking

GRADCHECK_COORDS = 32  # coordinates probed per parameter group
GRADCHECK_EPS = 1e-5
GRADCHECK_THRESHOLD = 1e-4


@dataclass
class GradCheckReport:
    max_rel_err: dict[str, float]
    threshold: float

    @property
    def failures(self) -> list[str]:
        return [k for k, e in self.max_rel_err.items() if e > self.threshold]

    @property
    def passed(self) -> bool:
        return not self.failures


def gradcheck(
    params: DenoiserParams,
    scene: SyntheticScene,
    t: int,
    rng_seed: int = 0,
    embed_cfg: EmbedderConfig | None = None,
    variant: str = "full",
    grad_fault: bool = False,
) -> GradCheckReport:
    """Compare analytic gradients of the MSE loss against central finite
    differences (step GRADCHECK_EPS) on GRADCHECK_COORDS random coordinates
    of every parameter group, drawn from the group's slice of `params.flat`;
    a group fails above a relative error of GRADCHECK_THRESHOLD.

    `grad_fault` is a negative-control hook: it corrupts one analytic
    gradient so callers can verify that failures are detected.
    """
    if embed_cfg is None:
        embed_cfg = EmbedderConfig(dim=params.d)
    sched = training_schedule(params.t_train)
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(4,)))
    noise = rng.standard_normal((1,) + scene.image.shape)
    x_t = forward_diffuse(scene.image, t, sched, noise[0])[None]
    # independent of parameter values
    encs = [encode_layout(scene.layout, embed_cfg, params.image_size)]

    def loss_fn() -> float:
        # params change between calls: each forward prepares its own inputs
        stack = prepare_stack(encs, params, variant)
        r = denoise_forward_cached(params, x_t, [t], stack, True)[0] - noise
        return float((r * r).mean())

    pdict = params_to_dict(params)
    grad = np.zeros_like(params.flat)
    g = _views(grad, pdict)
    mse_loss_and_grads(params, [scene], [t], noise, encs, g, variant)
    if grad_fault:
        g["enc1.w"] += 1.0

    report: dict[str, float] = {}
    end = 0
    for group, names in PARAM_GROUPS.items():
        size = sum(pdict[name].size for name in names)
        coords = np.arange(end, end + size)
        end += size
        if size > GRADCHECK_COORDS:
            coords = coords[rng.choice(size, size=GRADCHECK_COORDS, replace=False)]
        worst = 0.0
        for i in coords:
            numeric = central_diff(loss_fn, params.flat, 1.0, GRADCHECK_EPS, [i])[i]
            worst = max(worst, rel_err(grad[i], numeric, floor=1e-6))
        report[group] = worst
    return GradCheckReport(max_rel_err=report, threshold=GRADCHECK_THRESHOLD)
