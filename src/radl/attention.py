"""Attention core: masked instance cross-attention, learnable-query
attribute enhancement, instance attention and verb-conditioned relation
attention, each with an exact analytic backward.

Every forward op is a `*_forward` function returning (output, cache); the
matching `*_backward` consumes an upstream gradient and the cache and
returns gradients for all inputs and parameters.  Backwards are verified
against central finite differences in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import MissingCache, ShapeMismatch
from .layout import MaskGrid
from .text import EmbeddingSeq


@dataclass(frozen=True)
class FeatureGrid:
    """A stack of K H x W x d feature maps sharing one grid, each stored
    row-major: values (K, H*W, d)."""

    h: int
    w: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3 or v.shape[1] != self.h * self.w:
            raise ShapeMismatch(
                f"feature values must be (K, {self.h * self.w}, d), got {v.shape}"
            )
        object.__setattr__(self, "values", v)

    @property
    def d(self) -> int:
        return self.values.shape[-1]

    def like(self, values: np.ndarray) -> "FeatureGrid":
        return FeatureGrid(self.h, self.w, values)


@dataclass
class KVProjection:
    """Learned key/value projections, all that attribute enhancement has."""

    wk: np.ndarray
    wv: np.ndarray


@dataclass
class AttnProjection(KVProjection):
    """Learned query/key/value projections for one attention layer."""

    wq: np.ndarray

    @staticmethod
    def init(rng: np.random.Generator, d: int) -> "AttnProjection":
        wq, wk, wv = rng.standard_normal((3, d, d)) * (1.0 / np.sqrt(d))
        return AttnProjection(wq=wq, wk=wk, wv=wv)


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
# masked attention: one core (`_attend_rows`) for the four kinds.  Text,
# instance and relation attention are one op over a token sequence;
# attribute enhancement attends learnable queries over image features.
#
# Every masked op computes only the query rows its mask keeps and scatters
# them into a zero grid; keys and values are never gathered.  Rows outside
# the mask are exactly +0.0, as the masked dense op would give, and their
# upstream gradient is dropped, as masking it would.  Forwards take a stack
# (K, h*w, d) and the `RowSet` of their mask.  A backward's upstream
# gradient and its "feat" gradient are rows-first, (h*w, K, d) (see
# `flip_stack`), so their leading axis names the resolution.

def flip_stack(x: np.ndarray) -> np.ndarray:
    """(K, h*w, d) <-> (h*w, K, d) as a view."""
    return x.swapaxes(0, 1)


@dataclass(frozen=True)
class RowSet:
    """The query rows a mask keeps, as indices into a grid's h*w rows.

    `idx` (R,) holds the rows that every grid of a stack keeps alike.  A
    packed set gives some grids of a stack of `stack` grids rows of their
    own: `grids` (K',) names them, `idx` (K', R) lists their rows padded to
    the longest, and `keep` (K', R) is False on the padding.  The grids a
    packed set leaves out keep no row.
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
        """The kept rows of a stack x (K, h*w, d): (K, R, d), or (K', R, d)
        for a packed set, whose padding rows repeat row 0 of their grid."""
        if self.whole:
            return x
        if self.grids is None:
            return x[:, self.idx]
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
    """What the backward of a masked op or of attribute enhancement reads.
    It keeps sources, not their projections: over every row of a packed
    grid the keys and values are the bulk of a forward's cache, and the
    backward projects them again."""

    q_src: np.ndarray      # the kept rows' queries before `wq`, or AE's raw queries
    kv: np.ndarray         # key/value source (L, d), or a stack of them
    attn: np.ndarray       # the kept rows' attention
    rows: RowSet
    proj: KVProjection  # an AttnProjection for the token-sequence ops


def _check_rows(feat: FeatureGrid, rows: RowSet):
    if (rows.h, rows.w) != (feat.h, feat.w):
        raise ShapeMismatch(
            f"mask {rows.h}x{rows.w} does not match feature grid {feat.h}x{feat.w}"
        )


def _attend_rows(
    feat: FeatureGrid, q_src: np.ndarray, q: np.ndarray, kv: np.ndarray,
    key_keep: np.ndarray | None, proj: KVProjection, rows: RowSet,
) -> tuple[FeatureGrid, MaskedAttnCache]:
    """The kept rows' queries q, made from q_src, attend over the keys and
    values projected from kv (`key_keep` marks the real keys of a padded
    stack); returns feat-shaped zero grids with those rows set."""
    out, ac = scaled_dot_attention_forward(q, kv @ proj.wk, kv @ proj.wv, key_keep)
    return feat.like(rows.put(out)), MaskedAttnCache(q_src, kv, ac.attn, rows, proj)


def _attend_rows_backward(
    d_out: np.ndarray, q: np.ndarray, cache: MaskedAttnCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dq, d_kv, d_wk, d_wv) of `_attend_rows` given its queries
    q again and the grids' rows-first upstream gradient."""
    kv, wk, wv = cache.kv, cache.proj.wk, cache.proj.wv
    ac = AttnCache(q=q, k=kv @ wk, v=kv @ wv, attn=cache.attn)
    dq, dk, dv = scaled_dot_attention_backward(cache.rows.take_grad(flip_stack(d_out)), ac)
    return dq, dk @ wk.T + dv @ wv.T, as_rows(kv).T @ as_rows(dk), as_rows(kv).T @ as_rows(dv)


def masked_attention_forward(
    feat: FeatureGrid, emb: EmbeddingSeq, proj: AttnProjection, rows: RowSet
) -> tuple[FeatureGrid, MaskedAttnCache]:
    """Cross-attention from image features to a token sequence, zeroed
    outside the mask whose rows are `rows`."""
    _check_rows(feat, rows)
    if emb.dim != feat.d:
        raise ShapeMismatch(f"embedding dim {emb.dim} != feature dim {feat.d}")
    x = rows.take(feat.values)
    return _attend_rows(feat, x, x @ proj.wq, emb.values, emb.keep, proj, rows)


def masked_attention_backward(
    d_out: np.ndarray, cache: MaskedAttnCache | None
) -> dict[str, np.ndarray]:
    if cache is None:
        raise MissingCache("masked attention backward needs its forward cache")
    x, wq = cache.q_src, cache.proj.wq
    dq, d_emb, d_wk, d_wv = _attend_rows_backward(d_out, x @ wq, cache)
    d_feat = flip_stack(cache.rows.put(dq @ wq.T))
    return {"feat": d_feat, "emb": d_emb, "wq": as_rows(x).T @ as_rows(dq), "wk": d_wk, "wv": d_wv}


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

def attribute_enhancement_forward(
    feat: FeatureGrid, qlp: np.ndarray, proj: KVProjection, rows: RowSet
) -> tuple[FeatureGrid, MaskedAttnCache]:
    """Attention with the learnable queries used raw (no query projection);
    keys/values project from the instance image features.  Output row j is
    spatially aligned with grid location j.

    Returns mask * AE(feat) for the mask whose rows are `rows`: only those
    query rows are attended, each over the full key and value set."""
    n = feat.h * feat.w
    if qlp.shape[0] != n:
        raise ShapeMismatch(f"learnable queries have {qlp.shape[0]} rows, grid has {n}")
    _check_rows(feat, rows)
    kv = feat.values if rows.grids is None else feat.values[rows.grids]
    q = qlp[rows.idx]
    return _attend_rows(feat, q, q, kv, None, proj, rows)


def attribute_enhancement_backward(
    d_out: np.ndarray, cache: MaskedAttnCache | None
) -> dict[str, np.ndarray]:
    if cache is None:
        raise MissingCache("attribute_enhancement backward needs its forward cache")
    rows = cache.rows
    dq, d_kv, d_wk, d_wv = _attend_rows_backward(d_out, cache.q_src, cache)
    if rows.grids is None:
        d_feat = d_kv
    else:
        d_feat = np.zeros((rows.stack,) + d_kv.shape[1:])
        d_feat[rows.grids] = d_kv
    d_qlp = rows.put(dq)
    return {"qlp": _sum_to(d_qlp, d_qlp.shape[-2:]), "feat": flip_stack(d_feat),
            "wk": d_wk, "wv": d_wv}
