"""Pixel-wise softmax fusion of background, instance, and relation branches.

At each pixel the branches whose mask keeps it form the active set; their
scalar logits are softmax-normalized over that set and the output is the
resulting convex combination of branch features.  Inactive branches
contribute exactly zero and receive zero gradient at that pixel.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .attention import FeatureGrid, RowSet
from .errors import MissingCache, NoBranches, ShapeMismatch

@dataclass
class FusionBranch:
    """One fusion input: a feature grid, gated by the rows it holds."""

    feat: FeatureGrid


@dataclass
class FuseCache:
    feats: np.ndarray    # (K, B, n_pix, d)
    weights: np.ndarray  # ([K,] B, n_pix), zero where inactive


def fusion_weights(masks: Sequence[np.ndarray], logits: Sequence[float]) -> np.ndarray:
    """Each branch's weight at each pixel, ([K,] B, n_pix), read-only: the
    softmax of the logits of the branches whose mask keeps the pixel, and
    zero where a branch's does not.  A mask is a branch's `RowSet.mask`:
    (n_pix,) for one set every grid shares, (K, n_pix) for a packed set."""
    if not masks:
        raise NoBranches("fusion requires at least one branch")
    # a pixel's weights depend on its active set alone: code each set (bit b
    # for branch b, in the narrowest dtype, so up to 8 branches sum bytes
    # without a cast), weigh each set once, and give each pixel its set's
    shape = max((m.shape for m in masks), key=len)
    stacked = np.empty(shape[:-1] + (len(masks),) + shape[-1:], dtype=bool)
    for b, m in enumerate(masks):
        stacked[..., b, :] = m
    bits = (1 << np.arange(len(masks))).astype(np.min_scalar_type((1 << len(masks)) - 1))
    codes = np.einsum("...bn,b->...n", stacked.view(np.uint8), bits, dtype=bits.dtype)
    if not codes.all():
        raise NoBranches("every pixel needs at least one active branch")
    sets, slot = np.unique(codes, return_inverse=True)  # the sets that occur
    slot = slot.reshape(codes.shape)  # numpy < 2 gives the inverse flat
    active = (sets & bits[:, None]) != 0
    logits = np.array(logits)[:, None]  # (B, 1)

    # Softmax over the active set only: subtract the max of the active
    # logits, then renormalize with inactive entries held at zero, adding
    # the terms in branch order as a per-pixel sum over branches does.
    shifted = logits - np.where(active, logits, -np.inf).max(axis=0)
    gated = np.where(active, np.exp(shifted), 0.0)
    weights = np.take(gated / np.cumsum(gated, axis=0)[-1], slot, axis=1)  # (B, [K,] n_pix)
    weights = np.ascontiguousarray(weights.swapaxes(0, -2))
    weights.flags.writeable = False
    return weights


def fuse_forward(
    branches: Sequence[FusionBranch], weights: np.ndarray
) -> tuple[FeatureGrid, FuseCache]:
    """Per-pixel convex combination of branch features under `weights`,
    the `fusion_weights` of the branches' masks and logits.

    A branch's mask is its grid's rows: one set every grid of the stack
    shares, or a packed set; a grid that keeps no row of a branch gives it
    zero weight."""
    branches = list(branches)
    if not branches:
        raise NoBranches("fusion requires at least one branch")
    ref = branches[0].feat
    shape = (ref.stack, ref.h, ref.w, ref.d)
    if any((b.feat.stack, b.feat.h, b.feat.w, b.feat.d) != shape for b in branches[1:]):
        raise ShapeMismatch("fusion branches must share feature grid shape")

    feats = np.zeros((ref.stack, len(branches), ref.h * ref.w, ref.d))  # (K, B, n, d)
    for j, b in enumerate(branches):
        b.feat.rows.put(b.feat.values, feats[:, j])
    out = np.einsum("...bn,...bnd->...nd", weights, feats)
    return FeatureGrid.unchecked(out, RowSet.every(ref.h, ref.w)), FuseCache(feats, weights)


def fuse_backward(
    d_out: np.ndarray, cache: FuseCache | None
) -> tuple[Sequence[np.ndarray], np.ndarray]:
    """Gradients (per-branch feature grads, each made when read; per-branch
    logit grads).

    d_out and the feature grads are rows-first (n_pix, K, d), as in the
    attention backwards, and the logit grads sum over the stack.  Logit
    gradients are zero at pixels where the branch is inactive; the
    per-pixel softmax Jacobian couples only branches active there.
    """
    if cache is None:
        raise MissingCache("fuse backward needs its forward cache")
    w = cache.weights
    w = w if w.ndim == 3 else w[None]  # (K or 1, B, n)
    # g[k, b, p] = d_out(p, k) . feat_kb(p)
    g = np.einsum("nkd,kbnd->kbn", d_out, cache.feats)
    gbar = (w * g).sum(axis=-2, keepdims=True)
    d_logits = (w * (g - gbar)).sum(axis=-1)
    return _BranchGrads(w, d_out), d_logits.reshape(-1, w.shape[-2]).sum(axis=0)


class _BranchGrads(Sequence):
    """Each branch's feature gradient, weight times upstream gradient, made
    when read: together they are as large as the fusion cache, and the
    attention backwards read them one at a time."""

    def __init__(self, w: np.ndarray, d_out: np.ndarray):
        self.w, self.d_out = w, d_out

    def __len__(self) -> int:
        return self.w.shape[-2]

    def __getitem__(self, b: int) -> np.ndarray:
        return self.w[:, b].T[..., None] * self.d_out
