"""Attention core: masked instance cross-attention, learnable-query
attribute enhancement, instance attention and verb-conditioned relation
attention, each with an exact analytic backward.

Every forward op is a `*_forward` function returning (output, cache); the
matching `*_backward` consumes an upstream gradient and the cache and
returns gradients for all inputs and parameters.  Backwards are verified
against central finite differences in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import MissingCache, ShapeMismatch
from .text import pad_stack


@dataclass(frozen=True)
class FeatureGrid:
    """A stack of K H x W x d feature maps sharing one grid, holding the
    rows a `RowSet` keeps, laid out as `RowSet.take` gives them: values
    (K, R, d), or (K', R, d) for a packed set; every other row is zero.  A
    full grid sits at `RowSet.every(h, w)`, its values (K, H*W, d)."""

    values: np.ndarray
    rows: RowSet

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        n = self.rows.idx.shape[-1]
        if v.ndim != 3 or v.shape[1] != n:
            raise ShapeMismatch(f"feature values must be (K, {n}, d), got {v.shape}")
        object.__setattr__(self, "values", v)

    @staticmethod
    def unchecked(values: np.ndarray, rows: RowSet) -> "FeatureGrid":
        """An op's output, whose values the op shaped for `rows`: no check."""
        grid = object.__new__(FeatureGrid)
        grid.__dict__.update(values=values, rows=rows)
        return grid

    @property
    def h(self) -> int:
        return self.rows.h

    @property
    def w(self) -> int:
        return self.rows.w

    @property
    def d(self) -> int:
        return self.values.shape[-1]

    @property
    def stack(self) -> int:
        """K, the grids the values stand for; a packed set holds fewer."""
        return len(self.values) if self.rows.grids is None else self.rows.stack

    def at(self, rows: RowSet) -> np.ndarray:
        """The values at the rows `rows` keeps, as `RowSet.take` gives them;
        gathers only when the grids hold other rows."""
        if self.rows is rows:
            return self.values
        if (rows.h, rows.w) != (self.h, self.w):
            raise ShapeMismatch(
                f"mask {rows.h}x{rows.w} does not match feature grid {self.h}x{self.w}"
            )
        return rows.take(self.rows.put(self.values))


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


def softmax_rows(scores: np.ndarray, zero_keys=None) -> np.ndarray:
    """Rowwise softmax with per-row max subtraction for overflow safety;
    `zero_keys` (counts broadcasting against `scores`) more keys per row
    score exactly 0: they join the row max and the denominator only."""
    return _softmax(scores.copy(), 0 if zero_keys is None else zero_keys)


def _softmax(e: np.ndarray, zero_keys) -> np.ndarray:
    """`softmax_rows` in place on e.  An int count holds for every row, and
    then 0 joins each row max as the reduction's start."""
    if isinstance(zero_keys, int):
        top = e.max(axis=-1, keepdims=True, initial=0.0 if zero_keys > 0 else -np.inf)
        floor = top if zero_keys > 0 else None
    else:
        top = e.max(axis=-1, keepdims=True, initial=-np.inf)
        top = np.maximum(top, np.where(zero_keys > 0, 0.0, -np.inf))
        floor = np.maximum(top, 0.0)
    e -= top
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    if floor is not None:  # floor = top >= 0 where a row has zero keys: exp(-floor) <= 1
        total += zero_keys * np.exp(-floor)
    e /= total
    return e


def _attend(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, key_keep: np.ndarray | None, zero_keys
) -> tuple[np.ndarray, np.ndarray]:
    """The attention kernel without its checks: (output, attention)."""
    # in place on the fresh score block, the largest array of a batched forward
    scores = q @ k.swapaxes(-1, -2)
    scores /= math.sqrt(q.shape[-1])
    if key_keep is not None:
        scores += np.where(key_keep, 0.0, -np.inf)[..., None, :]
    attn = _softmax(scores, zero_keys)
    return attn @ v, attn


def scaled_dot_attention_forward(
    q: np.ndarray, k: np.ndarray, v: np.ndarray, key_keep: np.ndarray | None = None,
    zero_keys=None,
) -> tuple[np.ndarray, AttnCache]:
    """out = rowwise-softmax(q k' / sqrt(d)) v.

    Leading axes broadcast: each matrix of a stack is attended exactly as
    the 2-d op would attend it alone.  `key_keep` (..., L) marks the real
    keys of a padded key stack; padding keys get exactly zero weight.
    `zero_keys` counts keys left out of k and v because they are zero (see
    `softmax_rows`); the backward needs no count, as they add nothing to it."""
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeMismatch("q, k, v must be matrices or stacks of matrices")
    if k.shape[-2] < 1 and zero_keys is None:
        raise ShapeMismatch("attention requires at least one key")
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeMismatch(
            f"shapes do not conform: q {q.shape}, k {k.shape}, v {v.shape}"
        )
    out, attn = _attend(q, k, v, key_keep, 0 if zero_keys is None else zero_keys)
    return out, AttnCache(q=q, k=k, v=v, attn=attn)


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
    d_scores /= math.sqrt(d)
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
# Every masked op computes only the query rows its mask keeps and returns
# them at its mask's `RowSet` (see `FeatureGrid`).  Rows outside the mask
# are exactly +0.0, as the masked dense op would give, and their upstream
# gradient is dropped, as masking it would.  Forwards take a `FeatureGrid`
# and the `RowSet` of their mask.  A backward's upstream gradient is a full
# grid rows-first, (h*w, K, d) (see `flip_stack`), so its leading axis names
# the resolution; its "feat" gradient holds the kept rows, as the forward's
# output does.

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
    def of(mask: np.ndarray) -> "RowSet":
        """The rows an (h, w) bool mask keeps."""
        h, w = mask.shape
        return RowSet(h, w, mask.ravel().nonzero()[0])

    @staticmethod
    @lru_cache(maxsize=None)
    def every(h: int, w: int) -> "RowSet":
        """Every row of an h x w grid: one shared set per grid shape."""
        idx = np.arange(h * w)
        idx.flags.writeable = False
        return RowSet(h, w, idx)

    @staticmethod
    def pack(sets: Sequence["RowSet"], grids: Sequence[int], stack: int) -> "RowSet":
        """Grid grids[j] of a stack of `stack` grids keeps the rows of sets[j]."""
        idx, keep = pad_stack([s.idx for s in sets])
        return RowSet(sets[0].h, sets[0].w, idx, np.asarray(grids, dtype=np.intp), keep, stack)

    @cached_property
    def whole(self) -> bool:
        """Keeps every row of every grid, in order (indices are sorted)."""
        return self.grids is None and len(self.idx) == self.h * self.w

    @cached_property
    def mask(self) -> np.ndarray:
        """True on the kept rows: (h*w,), or (stack, h*w) for a packed set."""
        if self.grids is None:
            mask = np.zeros(self.h * self.w, dtype=bool)
            mask[self.idx] = True
        else:
            mask = np.zeros((self.stack, self.h * self.w), dtype=bool)
            mask[self._kept[0]] = True
        mask.flags.writeable = False  # cached: every reader gets this array
        return mask

    @cached_property
    def left_out(self):
        """The rows of each grid the set leaves out: an int, or (K', 1, 1) when packed."""
        kept = len(self.idx) if self.keep is None else self.keep.sum(axis=-1)[:, None, None]
        return self.h * self.w - kept

    @cached_property
    def _kept(self) -> tuple[tuple, np.ndarray | None]:
        # where the kept rows sit in a stack (K, h*w, d), and which flat
        # (K', R) positions of a packed set's rows are not padding
        if self.grids is None:
            return ((...,) if self.whole else (..., self.idx, slice(None))), None
        at = self.keep.ravel().nonzero()[0]
        return (self.grids[at // self.keep.shape[1]], self.idx.ravel()[at]), at

    def take(self, x: np.ndarray) -> np.ndarray:
        """The kept rows of a stack x (K, h*w, d): (K, R, d), or (K', R, d)
        for a packed set, whose padding rows are zero."""
        if self.whole:
            return x
        if self.grids is None:
            return x[:, self.idx]
        rows = x[self.grids[:, None], self.idx]
        rows[~self.keep] = 0.0
        return rows

    def _kept_values(self, values: np.ndarray) -> np.ndarray:
        at = self._kept[1]
        return values if at is None else values.reshape(-1, values.shape[-1])[at]

    def put(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Grids with the kept rows set to values, the inverse of `take`:
        zero grids (..., h*w, d), or (stack, h*w, d) for a packed set; or
        `out`, whose kept rows are set, when given."""
        if out is None:
            if self.whole:
                return values
            lead = values.shape[:-2] if self.grids is None else (self.stack,)
            out = np.zeros(lead + (self.h * self.w, values.shape[-1]), dtype=values.dtype)
        out[self._kept[0]] = self._kept_values(values)
        return out

    def add(self, out: np.ndarray, values: np.ndarray):
        """out += put(values) in place, touching only the kept rows."""
        out[self._kept[0]] += self._kept_values(values)


@dataclass(frozen=True)
class KeyValues:
    """The read-only keys and values one projection makes of a source
    sequence (..., L, d), which the weight gradients read, and `keep`
    (..., L), False on the padding keys of a padded stack."""

    src: np.ndarray
    keep: np.ndarray | None
    k: np.ndarray
    v: np.ndarray

    @staticmethod
    def project(
        src: np.ndarray, proj: KVProjection, keep: np.ndarray | None = None
    ) -> "KeyValues":
        k, v = src @ proj.wk, src @ proj.wv
        k.flags.writeable = v.flags.writeable = False
        return KeyValues(src, keep, k, v)

    @property
    def length(self) -> int:
        return self.src.shape[-2]


@dataclass
class MaskedAttnCache:
    """What the backward of a masked op or of attribute enhancement reads."""

    q_src: np.ndarray      # the kept rows' queries before `wq`, or AE's raw queries
    kv: KeyValues
    attn: np.ndarray       # the kept rows' attention
    rows: RowSet
    proj: KVProjection  # an AttnProjection for the token-sequence ops


def _attend_rows(
    q_src: np.ndarray, q: np.ndarray, kv: KeyValues, proj: KVProjection, rows: RowSet,
    zero_keys=0,
) -> tuple[FeatureGrid, MaskedAttnCache]:
    """The kept rows' queries q, made from q_src, attend over kv's keys and
    values and `zero_keys` zero keys; returns the grids at `rows`.  Its
    callers have checked the shapes."""
    out, attn = _attend(q, kv.k, kv.v, kv.keep, zero_keys)
    return FeatureGrid.unchecked(out, rows), MaskedAttnCache(q_src, kv, attn, rows, proj)


def _attend_rows_backward(
    d_out: np.ndarray, q: np.ndarray, cache: MaskedAttnCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dq, d_kv, d_wk, d_wv) of `_attend_rows` given its queries
    q again and the grids' rows-first upstream gradient; d_kv is the key and
    value source's."""
    kv, wk, wv = cache.kv, cache.proj.wk, cache.proj.wv
    ac = AttnCache(q=q, k=kv.k, v=kv.v, attn=cache.attn)
    dq, dk, dv = scaled_dot_attention_backward(cache.rows.take(flip_stack(d_out)), ac)
    src = as_rows(kv.src)
    return dq, dk @ wk.T + dv @ wv.T, src.T @ as_rows(dk), src.T @ as_rows(dv)


def masked_attention_forward(
    feat: FeatureGrid, kv: KeyValues, proj: AttnProjection, rows: RowSet
) -> tuple[FeatureGrid, MaskedAttnCache]:
    """Cross-attention from image features to a token sequence, whose keys
    and values under `proj` are kv, zeroed outside the mask whose rows are
    `rows`."""
    if kv.src.shape[-1] != feat.d:
        raise ShapeMismatch(f"token width {kv.src.shape[-1]} != feature dim {feat.d}")
    x = feat.at(rows)
    return _attend_rows(x, x @ proj.wq, kv, proj, rows)


def masked_attention_backward(
    d_out: np.ndarray, cache: MaskedAttnCache | None
) -> dict[str, np.ndarray]:
    if cache is None:
        raise MissingCache("masked attention backward needs its forward cache")
    x, wq = cache.q_src, cache.proj.wq
    dq, d_emb, d_wk, d_wv = _attend_rows_backward(d_out, x @ wq, cache)
    return {"feat": dq @ wq.T, "emb": d_emb, "wq": as_rows(x).T @ as_rows(dq),
            "wk": d_wk, "wv": d_wv}


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

    Returns mask * AE(feat) for the mask whose rows are `rows`, given feat
    zero outside those rows (the instance's masked features): only those
    rows are queries, keys and values.  The other rows are zero keys with
    score 0 and value 0, so they enter each softmax as one counted term."""
    n = feat.h * feat.w
    if qlp.shape[0] != n:
        raise ShapeMismatch(f"learnable queries have {qlp.shape[0]} rows, grid has {n}")
    kv = feat.at(rows)  # checks the mask's grid before qlp is indexed with its rows
    q = qlp[rows.idx]
    return _attend_rows(q, q, KeyValues.project(kv, proj, rows.keep), proj, rows, rows.left_out)


def attribute_enhancement_backward(
    d_out: np.ndarray, cache: MaskedAttnCache | None
) -> dict[str, np.ndarray]:
    if cache is None:
        raise MissingCache("attribute_enhancement backward needs its forward cache")
    rows = cache.rows
    dq, d_kv, d_wk, d_wv = _attend_rows_backward(d_out, cache.q_src, cache)
    d_qlp = rows.put(dq)
    return {"qlp": _sum_to(d_qlp, d_qlp.shape[-2:]), "feat": d_kv, "wk": d_wk, "wv": d_wv}
