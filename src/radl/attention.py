"""Attention core: masked instance cross-attention, learnable-query
attribute enhancement, instance attention, residual fusion, and
verb-conditioned relation attention, each with an exact analytic backward.

Every forward op has a `*_forward` variant returning (output, cache); the
matching `*_backward` consumes an upstream gradient and the cache and
returns gradients for all inputs and parameters.  Backwards are verified
against central finite differences in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingCache, ShapeMismatch
from .layout import MaskGrid
from .text import EmbeddingSeq


@dataclass(frozen=True)
class FeatureGrid:
    """H x W x d feature map stored row-major as an (H*W, d) matrix, or as a
    stack (..., H*W, d) of such maps sharing one grid."""

    h: int
    w: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim < 2 or v.shape[-2] != self.h * self.w:
            raise ShapeMismatch(
                f"feature values must be (..., {self.h * self.w}, d), got {v.shape}"
            )
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.shape[-1]

    def like(self, values: np.ndarray) -> "FeatureGrid":
        return FeatureGrid(self.h, self.w, values)


@dataclass
class AttnProjection:
    """Learned query/key/value projections for one attention layer."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray

    @staticmethod
    def init(rng: np.random.Generator, d: int) -> "AttnProjection":
        s = 1.0 / np.sqrt(d)
        return AttnProjection(
            wq=rng.standard_normal((d, d)) * s,
            wk=rng.standard_normal((d, d)) * s,
            wv=rng.standard_normal((d, d)) * s,
        )


@dataclass
class RadlAttnParams:
    """All learnable pieces of the attention stack.

    One projection triple per attention kind, one learnable-query bank per
    injection resolution (16x16 and 8x8 grids at the default 32x32 image;
    row count always equals H*W of its resolution), and the shared
    instance-embedding reprojection.
    """

    proj_text: AttnProjection
    proj_ae: AttnProjection
    proj_inst: AttnProjection
    proj_rel: AttnProjection
    qlp_fine: np.ndarray    # (fine_side**2, d)
    qlp_coarse: np.ndarray  # (coarse_side**2, d)
    e_proj: np.ndarray      # (d + d_pos, d)

    @staticmethod
    def init(
        rng: np.random.Generator, d: int, fine_side: int, coarse_side: int
    ) -> "RadlAttnParams":
        s = 1.0 / np.sqrt(d)
        return RadlAttnParams(
            proj_text=AttnProjection.init(rng, d),
            proj_ae=AttnProjection.init(rng, d),
            proj_inst=AttnProjection.init(rng, d),
            proj_rel=AttnProjection.init(rng, d),
            qlp_fine=rng.standard_normal((fine_side * fine_side, d)) * s,
            qlp_coarse=rng.standard_normal((coarse_side * coarse_side, d)) * s,
            # identity on the label block, small noise on the position block:
            # instance embeddings start as label content plus a weak
            # position perturbation
            e_proj=np.vstack([np.eye(d), 0.1 * rng.standard_normal((d, d))]),
        )


# ---------------------------------------------------------------------------
# scaled dot-product attention kernel

@dataclass
class AttnCache:
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    attn: np.ndarray  # rowwise softmax(q k' / sqrt(d))


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Rowwise softmax with per-row max subtraction for overflow safety."""
    # in place on one fresh array: a stacked score block is the largest
    # array of a batched forward
    e = scores - scores.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def scaled_dot_attention_forward(
    q: np.ndarray, k: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, AttnCache]:
    """Leading axes broadcast: each matrix of a stack is attended exactly as
    the 2-d op would attend it alone."""
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeMismatch("q, k, v must be matrices or stacks of matrices")
    if k.shape[-2] < 1:
        raise ShapeMismatch("attention requires at least one key")
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeMismatch(
            f"shapes do not conform: q {q.shape}, k {k.shape}, v {v.shape}"
        )
    scores = q @ np.swapaxes(k, -1, -2)
    scores /= np.sqrt(q.shape[-1])
    attn = softmax_rows(scores)
    return attn @ v, AttnCache(q=q, k=k, v=v, attn=attn)


def scaled_dot_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out = rowwise-softmax(q k' / sqrt(d)) v."""
    return scaled_dot_attention_forward(q, k, v)[0]


def scaled_dot_attention_backward(
    d_out: np.ndarray, cache: AttnCache | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dq, dk, dv) for the attention kernel; 2-d caches only."""
    if cache is None:
        raise MissingCache("scaled_dot_attention backward needs its forward cache")
    a = cache.attn
    d = cache.q.shape[1]
    dv = a.T @ d_out
    d_attn = d_out @ cache.v.T
    # softmax backward: dS = A * (dA - rowsum(dA * A))
    d_scores = a * (d_attn - (d_attn * a).sum(axis=1, keepdims=True))
    d_scores /= np.sqrt(d)
    dq = d_scores @ cache.k
    dk = d_scores.T @ cache.q
    return dq, dk, dv


# ---------------------------------------------------------------------------
# masked cross-attention against a token sequence (shared by the text,
# instance, and relation layers)
#
# Every masked op computes only the query rows its mask keeps and scatters
# them into a zero grid; keys and values are never gathered.  Rows outside
# the mask are exactly +0.0, as the masked dense op would give, and their
# upstream gradient is dropped, as masking it would.  Forwards also take a
# stack (K, h*w, d) of feature grids under one mask; backwards are 2-d only.

def _kept_rows(mask: MaskGrid | None, n: int) -> np.ndarray:
    """Row indices a mask keeps; every row when there is no mask."""
    return np.arange(n) if mask is None else np.flatnonzero(mask.flat())


def _scatter_rows(values: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(..., n, d) zeros with values[..., k, :] placed at row rows[k]."""
    out = np.zeros(values.shape[:-2] + (n, values.shape[-1]))
    out[..., rows, :] = values
    return out


@dataclass
class MaskedAttnCache:
    feat: np.ndarray       # query source (n_q, d), every row
    emb: np.ndarray        # key/value source (L, d)
    rows: np.ndarray       # indices of the query rows the mask keeps
    attn_cache: AttnCache  # over the kept query rows only
    proj: AttnProjection


def _masked_attention_forward(
    feat: np.ndarray, emb: np.ndarray, proj: AttnProjection, mask: MaskGrid
) -> tuple[np.ndarray, MaskedAttnCache]:
    n = feat.shape[-2]
    rows = _kept_rows(mask, n)
    out, ac = scaled_dot_attention_forward(
        feat[..., rows, :] @ proj.wq, emb @ proj.wk, emb @ proj.wv
    )
    return _scatter_rows(out, rows, n), MaskedAttnCache(
        feat=feat, emb=emb, rows=rows, attn_cache=ac, proj=proj
    )


def _masked_attention_backward(
    d_out: np.ndarray, cache: MaskedAttnCache
) -> dict[str, np.ndarray]:
    rows = cache.rows
    dq, dk, dv = scaled_dot_attention_backward(d_out[rows], cache.attn_cache)
    return {
        "feat": _scatter_rows(dq @ cache.proj.wq.T, rows, cache.feat.shape[0]),
        "emb": dk @ cache.proj.wk.T + dv @ cache.proj.wv.T,
        "wq": cache.feat[rows].T @ dq,
        "wk": cache.emb.T @ dk,
        "wv": cache.emb.T @ dv,
    }


def _check_mask(feat: FeatureGrid, mask: MaskGrid):
    if (mask.h, mask.w) != (feat.h, feat.w):
        raise ShapeMismatch(
            f"mask {mask.h}x{mask.w} does not match feature grid {feat.h}x{feat.w}"
        )


def masked_text_attention_forward(
    feat: FeatureGrid, label_emb: EmbeddingSeq, proj: AttnProjection, mask: MaskGrid
) -> tuple[FeatureGrid, MaskedAttnCache]:
    _check_mask(feat, mask)
    if label_emb.dim != feat.d:
        raise ShapeMismatch(f"embedding dim {label_emb.dim} != feature dim {feat.d}")
    out, cache = _masked_attention_forward(feat.values, label_emb.values, proj, mask)
    return feat.like(out), cache


def masked_text_attention(
    feat: FeatureGrid, label_emb: EmbeddingSeq, proj: AttnProjection, mask: MaskGrid
) -> FeatureGrid:
    """Cross-attention from image features to label tokens, zeroed outside
    the instance mask."""
    return masked_text_attention_forward(feat, label_emb, proj, mask)[0]


def masked_text_attention_backward(
    d_out: np.ndarray, cache: MaskedAttnCache | None
) -> dict[str, np.ndarray]:
    if cache is None:
        raise MissingCache("masked_text_attention backward needs its forward cache")
    return _masked_attention_backward(d_out, cache)


# ---------------------------------------------------------------------------
# attribute enhancement: learnable per-location queries over instance
# image features

@dataclass
class AttributeEnhanceCache:
    feat: np.ndarray       # key/value source, every row
    rows: np.ndarray       # indices of the query rows the mask keeps
    attn_cache: AttnCache  # over the kept query rows only
    proj: AttnProjection


def attribute_enhancement_forward(
    feat: FeatureGrid, qlp: np.ndarray, proj: AttnProjection, mask: MaskGrid | None = None
) -> tuple[FeatureGrid, AttributeEnhanceCache]:
    """With a mask, returns mask * AE(feat): only the query rows the mask
    keeps are attended, each over the full key and value set."""
    n = feat.h * feat.w
    if qlp.shape[0] != n:
        raise ShapeMismatch(f"learnable queries have {qlp.shape[0]} rows, grid has {n}")
    if mask is not None:
        _check_mask(feat, mask)
    rows = _kept_rows(mask, n)
    out, ac = scaled_dot_attention_forward(
        qlp[rows], feat.values @ proj.wk, feat.values @ proj.wv
    )
    return feat.like(_scatter_rows(out, rows, n)), AttributeEnhanceCache(
        feat=feat.values, rows=rows, attn_cache=ac, proj=proj
    )


def attribute_enhancement(
    feat: FeatureGrid, qlp: np.ndarray, proj: AttnProjection, mask: MaskGrid | None = None
) -> FeatureGrid:
    """Attention with the learnable queries used raw (no query projection);
    keys/values project from the instance image features.  Output row j is
    spatially aligned with grid location j."""
    return attribute_enhancement_forward(feat, qlp, proj, mask)[0]


def attribute_enhancement_backward(
    d_out: np.ndarray, cache: AttributeEnhanceCache | None
) -> dict[str, np.ndarray]:
    if cache is None:
        raise MissingCache("attribute_enhancement backward needs its forward cache")
    dq, dk, dv = scaled_dot_attention_backward(d_out[cache.rows], cache.attn_cache)
    return {
        "qlp": _scatter_rows(dq, cache.rows, cache.feat.shape[0]),
        "feat": dk @ cache.proj.wk.T + dv @ cache.proj.wv.T,
        "wk": cache.feat.T @ dk,
        "wv": cache.feat.T @ dv,
    }


# ---------------------------------------------------------------------------
# instance attention: enhanced features attend to the position-augmented
# instance embedding, masked to the instance region

def instance_attention_forward(
    r_ae: FeatureGrid, e_i: EmbeddingSeq, proj: AttnProjection, mask: MaskGrid
) -> tuple[FeatureGrid, MaskedAttnCache]:
    _check_mask(r_ae, mask)
    if e_i.dim != r_ae.d:
        raise ShapeMismatch(f"embedding dim {e_i.dim} != feature dim {r_ae.d}")
    out, cache = _masked_attention_forward(r_ae.values, e_i.values, proj, mask)
    return r_ae.like(out), cache


def instance_attention(
    r_ae: FeatureGrid, e_i: EmbeddingSeq, proj: AttnProjection, mask: MaskGrid
) -> FeatureGrid:
    """As masked_text_attention with queries from the enhanced features and
    keys/values from the position-augmented instance embedding."""
    return instance_attention_forward(r_ae, e_i, proj, mask)[0]


def instance_attention_backward(
    d_out: np.ndarray, cache: MaskedAttnCache | None
) -> dict[str, np.ndarray]:
    if cache is None:
        raise MissingCache("instance_attention backward needs its forward cache")
    return _masked_attention_backward(d_out, cache)


# ---------------------------------------------------------------------------
# residual fusion

def fuse_residual(r: FeatureGrid, r_ia: FeatureGrid) -> FeatureGrid:
    """Elementwise r + r_ia."""
    if (r.h, r.w, r.d) != (r_ia.h, r_ia.w, r_ia.d):
        raise ShapeMismatch("fuse_residual requires identical feature shapes")
    return r.like(r.values + r_ia.values)


def fuse_residual_backward(d_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Addition passes the upstream gradient unchanged to both inputs."""
    return d_out, d_out


# ---------------------------------------------------------------------------
# relation attention over verb embeddings, masked to the union of
# instance regions

def relation_attention_forward(
    feat: FeatureGrid,
    verb_emb: EmbeddingSeq | None,
    proj: AttnProjection,
    m_total: MaskGrid,
) -> tuple[FeatureGrid, MaskedAttnCache | None]:
    _check_mask(feat, m_total)
    if verb_emb is None or verb_emb.length == 0:
        # Disabled branch: no verbs means no relation signal.
        return feat.like(np.zeros_like(feat.values)), None
    out, cache = _masked_attention_forward(feat.values, verb_emb.values, proj, m_total)
    return feat.like(out), cache


def relation_attention(
    feat: FeatureGrid,
    verb_emb: EmbeddingSeq | None,
    proj: AttnProjection,
    m_total: MaskGrid,
) -> FeatureGrid:
    """Attention from image features to the verb sequence, masked to the
    total instance mask; the all-zero grid when the verb sequence is empty."""
    return relation_attention_forward(feat, verb_emb, proj, m_total)[0]


def relation_attention_backward(
    d_out: np.ndarray, cache: MaskedAttnCache | None
) -> dict[str, np.ndarray]:
    if cache is None:
        raise MissingCache("relation_attention backward needs its forward cache")
    return _masked_attention_backward(d_out, cache)
