"""Attention core: masked instance cross-attention, learnable-query
attribute enhancement, instance attention, residual fusion, and
verb-conditioned relation attention, each with an exact analytic backward.

Every forward op is a `*_forward` function returning (output, cache); the
matching `*_backward` consumes an upstream gradient and the cache and
returns gradients for all inputs and parameters.  Backwards are verified
against central finite differences in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

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
    q: np.ndarray, k: np.ndarray, v: np.ndarray, key_keep: np.ndarray | None = None
) -> tuple[np.ndarray, AttnCache]:
    """out = rowwise-softmax(q k' / sqrt(d)) v.

    Leading axes broadcast: each matrix of a stack is attended exactly as
    the 2-d op would attend it alone.  `key_keep` (..., L) marks the real
    keys of a padded key stack; padding keys get exactly zero weight."""
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeMismatch("q, k, v must be matrices or stacks of matrices")
    if k.shape[-2] < 1:
        raise ShapeMismatch("attention requires at least one key")
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeMismatch(
            f"shapes do not conform: q {q.shape}, k {k.shape}, v {v.shape}"
        )
    scores = q @ k.swapaxes(-1, -2)
    scores /= np.sqrt(q.shape[-1])
    if key_keep is not None:
        scores += np.where(key_keep, 0.0, -np.inf)[..., None, :]
    attn = softmax_rows(scores)
    return attn @ v, AttnCache(q=q, k=k, v=v, attn=attn)


def _sum_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the leading axes its input was broadcast along."""
    return grad if grad.shape == shape else grad.sum(axis=tuple(range(grad.ndim - len(shape))))


def as_rows(x: np.ndarray) -> np.ndarray:
    """(..., d) -> (rows, d): one matrix for a weight gradient over a stack."""
    return x.reshape(-1, x.shape[-1])


def scaled_dot_attention_backward(
    d_out: np.ndarray, cache: AttnCache | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dq, dk, dv) for the attention kernel, each summed over the
    stack axes its input was broadcast along."""
    if cache is None:
        raise MissingCache("scaled_dot_attention backward needs its forward cache")
    a = cache.attn
    d = cache.q.shape[-1]
    dv = a.swapaxes(-1, -2) @ d_out
    # softmax backward: dS = A * (dA - rowsum(dA * A)), in place on dA, the
    # largest array of a packed backward
    d_scores = d_out @ cache.v.swapaxes(-1, -2)
    d_scores -= np.einsum("...ij,...ij->...i", d_scores, a)[..., None]
    d_scores *= a
    d_scores /= np.sqrt(d)
    dq = d_scores @ cache.k
    dk = d_scores.swapaxes(-1, -2) @ cache.q
    return (
        _sum_to(dq, cache.q.shape), _sum_to(dk, cache.k.shape), _sum_to(dv, cache.v.shape)
    )


# ---------------------------------------------------------------------------
# masked cross-attention against a token sequence (shared by the text,
# instance, and relation layers)
#
# Every masked op computes only the query rows its mask keeps and scatters
# them into a zero grid; keys and values are never gathered.  Rows outside
# the mask are exactly +0.0, as the masked dense op would give, and their
# upstream gradient is dropped, as masking it would.  Forwards take one
# grid (h*w, d) or a stack (K, h*w, d).  A backward's upstream gradient and
# its "feat" gradient keep the grid rows on the leading axis: (h*w, d) for
# one grid, (h*w, K, d) for a stack (see `flip_stack`), so the leading axis
# names the resolution either way.

def flip_stack(x: np.ndarray) -> np.ndarray:
    """(K, h*w, d) <-> (h*w, K, d) as a view; one (h*w, d) grid is unchanged."""
    return x if x.ndim == 2 else x.swapaxes(0, 1)


@dataclass(frozen=True)
class RowSet:
    """The query rows a mask keeps, as indices into a grid's h*w rows.

    `idx` (R,) holds the rows of one grid, or of every grid of a stack
    alike.  A packed set gives some grids of a stack of `stack` grids rows
    of their own: `grids` (K',) names them, `idx` (K', R) lists their rows
    padded to the longest, and `keep` (K', R) is False on the padding.  The
    grids a packed set leaves out keep no row.
    """

    h: int
    w: int
    idx: np.ndarray
    grids: np.ndarray | None = None
    keep: np.ndarray | None = None
    stack: int = 0

    @staticmethod
    def of(mask: MaskGrid) -> "RowSet":
        return RowSet(mask.h, mask.w, np.flatnonzero(mask.flat()))

    @staticmethod
    def every(h: int, w: int) -> "RowSet":
        return RowSet(h, w, np.arange(h * w))

    @staticmethod
    def pack(sets: Sequence["RowSet"], grids: Sequence[int], stack: int) -> "RowSet":
        """Grid grids[j] of a stack of `stack` grids keeps the rows of sets[j]."""
        longest = max(len(s.idx) for s in sets)
        idx = np.zeros((len(sets), longest), dtype=np.intp)
        keep = np.zeros((len(sets), longest), dtype=bool)
        for j, s in enumerate(sets):
            idx[j, : len(s.idx)] = s.idx
            keep[j, : len(s.idx)] = True
        return RowSet(sets[0].h, sets[0].w, idx, np.asarray(grids, dtype=np.intp), keep, stack)

    @cached_property
    def whole(self) -> bool:
        """Keeps every row of every grid, in order (indices are sorted)."""
        return self.grids is None and len(self.idx) == self.h * self.w

    @cached_property
    def _dest(self) -> np.ndarray:
        # a packed set's rows as flat indices into its stack's rows; the
        # padding goes to one extra row past the end
        n = self.h * self.w
        return np.where(self.keep, self.grids[:, None] * n + self.idx, self.stack * n)

    def take(self, x: np.ndarray) -> np.ndarray:
        """The kept rows of x (..., h*w, d): (..., R, d), or (K', R, d) for
        a packed set, whose padding rows repeat row 0 of their grid."""
        if self.whole:
            return x
        if self.grids is None:
            return x[..., self.idx, :]
        return x[self.grids[:, None], self.idx]

    def take_grad(self, d_out: np.ndarray) -> np.ndarray:
        """As `take`, with the padding rows zero."""
        rows = self.take(d_out)
        if self.keep is not None:
            rows[~self.keep] = 0.0
        return rows

    def put(self, values: np.ndarray) -> np.ndarray:
        """Zero grids with the kept rows set to values, the inverse of `take`:
        (..., h*w, d), or (stack, h*w, d) for a packed set."""
        n, d = self.h * self.w, values.shape[-1]
        if self.whole:
            return values
        if self.grids is None:
            out = np.zeros(values.shape[:-2] + (n, d))
            out[..., self.idx, :] = values
            return out
        flat = np.zeros((self.stack * n + 1, d))
        flat[self._dest] = values
        return flat[:-1].reshape(self.stack, n, d)


@dataclass
class MaskedAttnCache:
    q_src: np.ndarray      # the kept query-source rows
    emb: EmbeddingSeq      # key/value source (L, d), or a padded stack
    rows: RowSet
    attn_cache: AttnCache  # over the kept query rows only
    proj: AttnProjection


def _row_set(feat: FeatureGrid, mask: MaskGrid | RowSet) -> RowSet:
    if (mask.h, mask.w) != (feat.h, feat.w):
        raise ShapeMismatch(
            f"mask {mask.h}x{mask.w} does not match feature grid {feat.h}x{feat.w}"
        )
    return mask if isinstance(mask, RowSet) else RowSet.of(mask)


def masked_attention_forward(
    feat: FeatureGrid, emb: EmbeddingSeq, proj: AttnProjection, mask: MaskGrid | RowSet
) -> tuple[FeatureGrid, MaskedAttnCache]:
    """Cross-attention from image features to a token sequence, zeroed
    outside the mask."""
    rows = _row_set(feat, mask)
    if emb.dim != feat.d:
        raise ShapeMismatch(f"embedding dim {emb.dim} != feature dim {feat.d}")
    x = rows.take(feat.values)
    out, ac = scaled_dot_attention_forward(
        x @ proj.wq, emb.values @ proj.wk, emb.values @ proj.wv, emb.keep
    )
    ac.q = None  # as large as the kept rows: the backward projects them again
    return feat.like(rows.put(out)), MaskedAttnCache(
        q_src=x, emb=emb, rows=rows, attn_cache=ac, proj=proj
    )


def masked_attention_backward(
    d_out: np.ndarray, cache: MaskedAttnCache | None
) -> dict[str, np.ndarray]:
    if cache is None:
        raise MissingCache("masked attention backward needs its forward cache")
    rows, proj, emb = cache.rows, cache.proj, cache.emb.values
    ac = replace(cache.attn_cache, q=cache.q_src @ proj.wq)
    dq, dk, dv = scaled_dot_attention_backward(rows.take_grad(flip_stack(d_out)), ac)
    return {
        "feat": flip_stack(rows.put(dq @ proj.wq.T)),
        "emb": dk @ proj.wk.T + dv @ proj.wv.T,
        "wq": as_rows(cache.q_src).T @ as_rows(dq),
        "wk": as_rows(emb).T @ as_rows(dk),
        "wv": as_rows(emb).T @ as_rows(dv),
    }


# masked text attention attends to a label's tokens, instance attention to
# the position-augmented instance embedding from the enhanced features, and
# relation attention to the verb sequence over the total instance mask (a
# layout without verbs has no relation branch)
masked_text_attention_forward = instance_attention_forward = masked_attention_forward
relation_attention_forward = masked_attention_forward
masked_text_attention_backward = instance_attention_backward = masked_attention_backward
relation_attention_backward = masked_attention_backward


# ---------------------------------------------------------------------------
# attribute enhancement: learnable per-location queries over instance
# image features

@dataclass
class AttributeEnhanceCache:
    # keys and values are not kept: over every grid row they are the bulk of
    # a packed forward's cache, and the backward projects them again
    feat: np.ndarray       # key/value source: every row of the grids with rows
    rows: RowSet
    q: np.ndarray          # the kept learnable-query rows
    attn: np.ndarray       # their attention over every row
    proj: AttnProjection


def attribute_enhancement_forward(
    feat: FeatureGrid, qlp: np.ndarray, proj: AttnProjection,
    mask: MaskGrid | RowSet | None = None,
) -> tuple[FeatureGrid, AttributeEnhanceCache]:
    """Attention with the learnable queries used raw (no query projection);
    keys/values project from the instance image features.  Output row j is
    spatially aligned with grid location j.

    With a mask, returns mask * AE(feat): only the query rows the mask
    keeps are attended, each over the full key and value set."""
    n = feat.h * feat.w
    if qlp.shape[0] != n:
        raise ShapeMismatch(f"learnable queries have {qlp.shape[0]} rows, grid has {n}")
    rows = RowSet.every(feat.h, feat.w) if mask is None else _row_set(feat, mask)
    kv = feat.values if rows.grids is None else feat.values[rows.grids]
    out, ac = scaled_dot_attention_forward(qlp[rows.idx], kv @ proj.wk, kv @ proj.wv)
    return feat.like(rows.put(out)), AttributeEnhanceCache(
        feat=kv, rows=rows, q=ac.q, attn=ac.attn, proj=proj
    )


def attribute_enhancement_backward(
    d_out: np.ndarray, cache: AttributeEnhanceCache | None
) -> dict[str, np.ndarray]:
    if cache is None:
        raise MissingCache("attribute_enhancement backward needs its forward cache")
    rows, proj, kv = cache.rows, cache.proj, cache.feat
    ac = AttnCache(q=cache.q, k=kv @ proj.wk, v=kv @ proj.wv, attn=cache.attn)
    dq, dk, dv = scaled_dot_attention_backward(rows.take_grad(flip_stack(d_out)), ac)
    d_kv = dk @ proj.wk.T + dv @ proj.wv.T
    if rows.grids is None:
        d_feat = d_kv
    else:
        d_feat = np.zeros((rows.stack,) + d_kv.shape[1:])
        d_feat[rows.grids] = d_kv
    d_qlp = rows.put(dq)
    return {
        "qlp": _sum_to(d_qlp, d_qlp.shape[-2:]),
        "feat": flip_stack(d_feat),
        "wk": as_rows(kv).T @ as_rows(dk),
        "wv": as_rows(kv).T @ as_rows(dv),
    }


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

