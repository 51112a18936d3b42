"""Pixel-wise softmax fusion of background, instance, and relation branches.

At each pixel the branches whose mask is 1 form the active set; their
scalar logits are softmax-normalized over that set and the output is the
resulting convex combination of branch features.  Inactive branches
contribute exactly zero and receive zero gradient at that pixel.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .attention import FeatureGrid
from .errors import MissingCache, NoBranches, ShapeMismatch
from .layout import MaskGrid

BACKGROUND = "background"
INSTANCE = "instance"
RELATION = "relation"


@dataclass
class FusionBranch:
    """One fusion input: a feature grid gated by a mask with a scalar logit."""

    kind: str
    feat: FeatureGrid
    mask: MaskGrid
    logit: float

    def __post_init__(self):
        if (self.feat.h, self.feat.w) != (self.mask.h, self.mask.w):
            raise ShapeMismatch(
                f"branch feat {self.feat.h}x{self.feat.w} does not match "
                f"mask {self.mask.h}x{self.mask.w}"
            )


@dataclass
class FuseCache:
    feats: np.ndarray    # (K, B, n_pix, d)
    masks: np.ndarray    # ([K,] B, n_pix)
    weights: np.ndarray  # ([K,] B, n_pix), zero where inactive


def fuse_forward(branches: Sequence[FusionBranch]) -> tuple[FeatureGrid, FuseCache]:
    """Per-pixel convex combination of active branch features.

    Branch features are stacks (K, n_pix, d).  A branch's mask is one grid,
    shared by every grid of the stack, or a stack (K, h, w) of them; a grid
    whose mask for a branch is all zero gives it zero weight."""
    branches = list(branches)
    if not branches:
        raise NoBranches("fusion requires at least one branch")
    ref = branches[0].feat
    for b in branches[1:]:
        if (b.feat.h, b.feat.w, b.feat.values.shape) != (ref.h, ref.w, ref.values.shape):
            raise ShapeMismatch("fusion branches must share feature grid shape")

    feats = np.stack([b.feat.values for b in branches], axis=-3)  # (K, B, n, d)
    masks = np.stack(np.broadcast_arrays(*[b.mask.flat() for b in branches]), axis=-2)
    logits = np.array([b.logit for b in branches])[:, None]      # (B, 1)
    if not np.all(masks.sum(axis=-2) > 0.0):
        raise NoBranches("every pixel needs at least one active branch")

    # Softmax over the active set only: subtract the per-pixel max of the
    # active logits, then renormalize with inactive entries held at zero.
    shifted = logits - np.where(masks > 0.0, logits, -np.inf).max(axis=-2, keepdims=True)
    gated = np.where(masks > 0.0, np.exp(shifted) * masks, 0.0)
    weights = gated / gated.sum(axis=-2, keepdims=True)

    out = np.einsum("...bn,...bnd->...nd", weights, feats)
    return ref.like(out), FuseCache(feats=feats, masks=masks, weights=weights)


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
