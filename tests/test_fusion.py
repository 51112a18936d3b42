from dataclasses import dataclass, replace

import numpy as np
import pytest

from radl.attention import FeatureGrid, RowSet
from radl.errors import MissingCache, NoBranches, ShapeMismatch
from radl.fusion import FusionBranch, fuse_backward, fuse_forward, fusion_weights
from radl.oracles import central_diff, rel_err


@dataclass
class Scored(FusionBranch):
    """A branch with the logit its fusion weights are made from."""

    logit: float = 0.0


def fuse(branches):
    """fuse_forward under the weights of the branches' masks and logits."""
    weights = fusion_weights([b.feat.rows.mask for b in branches], [b.logit for b in branches])
    return fuse_forward(branches, weights)


def rows_of(values):
    return RowSet.of(np.asarray(values, dtype=bool))


def branch(draw, rows, logit):
    """A branch holding a full draw (K, h*w, d) at its rows."""
    return Scored(FeatureGrid(rows.take(draw), rows), logit)


def full(feat):
    """A branch's grids as full grids (K, h*w, d), zero outside its rows."""
    return feat.rows.put(feat.values)


def fuse_oracle(branches, masks):
    """Per-pixel scalar-loop fusion from each branch's own 0/1 mask, one
    shared by the stack (h*w,) or one per grid (k, h*w), independent of the
    vectorized path."""
    k, n, d = branches[0].feat.values.shape
    feats = [full(b.feat) for b in branches]
    out = np.zeros((k, n, d))
    for g in range(k):
        for p in range(n):
            active = [(b, f) for b, f, m in zip(branches, feats, masks)
                      if np.broadcast_to(m, (k, n))[g, p] == 1.0]
            logits = [b.logit for b, _ in active]
            m = max(logits)
            exps = [np.exp(l - m) for l in logits]
            z = sum(exps)
            for (_, f), e in zip(active, exps):
                out[g, p] += (e / z) * f[g, p]
    return out


def packed(mask, grids, h, w):
    """The rows of a shared mask (h*w,), or of the given grids of a
    per-grid mask (k, h*w) packed over the stack."""
    if mask.ndim == 1:
        return rows_of(mask.reshape(h, w))
    sets = [rows_of(mask[g].reshape(h, w)) for g in grids]
    return RowSet.pack(sets, list(grids), len(mask))


def make_branches(rng, h=8, w=8, d=8, n_inst=2, logits=None, k=1):
    """Background, instance and relation branches over stacks of k grids,
    and each branch's 0/1 mask.  With k > 1 each instance has a mask per
    grid (k, h*w), and its rows are a `RowSet.pack` set, as a training pack
    passes them; the last grid lacks the last instance."""
    n_pix = h * w

    def logit(i):
        return 0.0 if logits is None else logits[i]

    masks = [np.ones(n_pix)]
    branches = [branch(rng.standard_normal((k, n_pix, d)), RowSet.every(h, w), logit(0))]
    for i in range(n_inst):
        mask = (rng.random(n_pix if k == 1 else (k, n_pix)) < 0.4).astype(float)
        grids = list(range(k))
        if k > 1 and i == n_inst - 1:
            mask[-1] = 0.0
            grids.pop()
        masks.append(mask)
        branches.append(
            branch(rng.standard_normal((k, n_pix, d)), packed(mask, grids, h, w), logit(1 + i))
        )
    total = (np.sum(masks[1:], axis=0) > 0).astype(float) if n_inst else np.zeros(n_pix)
    masks.append(total)
    branches.append(
        branch(rng.standard_normal((k, n_pix, d)), packed(total, range(k), h, w), logit(-1))
    )
    return branches, masks


def test_single_background_branch_exact():
    rng = np.random.default_rng(0)
    feat = FeatureGrid(rng.standard_normal((1, 16, 8)), RowSet.every(4, 4))
    out = fuse([Scored(feat, 1.3)])[0]
    assert np.array_equal(out.values, feat.values)


def test_two_equal_logit_branches_mean():
    rng = np.random.default_rng(1)
    a = FeatureGrid(rng.standard_normal((1, 4, 3)), RowSet.every(2, 2))
    b = FeatureGrid(rng.standard_normal((1, 4, 3)), RowSet.every(2, 2))
    branches = [Scored(a, 0.7), Scored(b, 0.7)]
    out = fuse(branches)[0]
    assert np.allclose(out.values, 0.5 * (a.values + b.values), atol=1e-15)


def test_fuse_matches_pixel_loop_oracle():
    rng = np.random.default_rng(2)
    branches, masks = make_branches(rng, logits=rng.standard_normal(4))
    got = fuse(branches)[0]
    assert rel_err(got.values, fuse_oracle(branches, masks)) <= 1e-12


def test_packed_fuse_matches_pixel_loop_oracle():
    rng = np.random.default_rng(12)
    branches, masks = make_branches(rng, logits=rng.standard_normal(4), k=3)
    got = fuse(branches)[0]
    assert rel_err(got.values, fuse_oracle(branches, masks)) <= 1e-12


def per_pixel_weights(masks, logits):
    """The weights formed over every pixel's branch axis at once."""
    masks = np.stack(np.broadcast_arrays(*masks), axis=-2)
    logits = np.array(logits)[:, None]
    shifted = logits - np.where(masks, logits, -np.inf).max(axis=-2, keepdims=True)
    gated = np.where(masks, np.exp(shifted), 0.0)
    return gated / gated.sum(axis=-2, keepdims=True)


@pytest.mark.parametrize("branches", [1, 2, 5, 8, 9, 12])
def test_weights_equal_per_pixel_formula(branches):
    # the weights come from one softmax per active set; each must carry the
    # bytes of the per-pixel formula, for masks one set the stack shares and
    # packed ones, with codes of one byte (up to 8 branches) and wider
    rng = np.random.default_rng(branches)
    for trial in range(20):
        k, n = int(rng.integers(1, 9)), int(rng.choice([4, 16, 64, 256]))
        masks = [np.ones(n, dtype=bool) if trial % 2 else rng.random(n) < 0.6]
        for _ in range(branches - 1):
            share = rng.random() < 0.3
            masks.append(rng.random(n if share else (k, n)) < rng.random() * 0.6)
        masks[0] = masks[0] | ~np.logical_or.reduce(np.broadcast_arrays(*masks))
        logits = rng.standard_normal(branches) * 3 if trial % 3 else [0.0] + [3.0] * (branches - 1)
        got, want = fusion_weights(masks, logits), per_pixel_weights(masks, logits)
        assert got.shape == want.shape and got.flags.c_contiguous and not got.flags.writeable
        assert got.tobytes() == want.tobytes(), trial


def test_fuse_weights_sum_to_one():
    rng = np.random.default_rng(3)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        branches, masks = make_branches(rng, h=4, w=4, d=4, logits=rng.standard_normal(4))
        _, cache = fuse(branches)
        assert np.all(np.abs(cache.weights.sum(axis=0) - 1.0) <= 1e-12)
        # inactive branches carry exactly zero weight
        assert np.array_equal(cache.weights != 0.0, np.stack(masks) != 0.0)


def test_fuse_logit_shift_invariance():
    rng = np.random.default_rng(4)
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        logits = rng.standard_normal(4)
        base, _ = make_branches(np.random.default_rng(seed), h=4, w=4, d=4, logits=logits)
        shifted = [replace(b, logit=b.logit + 0.37) for b in base]
        assert rel_err(fuse(base)[0].values, fuse(shifted)[0].values) <= 1e-12


def test_fuse_convexity_envelope():
    rng = np.random.default_rng(5)
    branches, masks = make_branches(rng, logits=rng.standard_normal(4))
    out = fuse(branches)[0].values[0]
    feats = np.stack([full(b.feat)[0] for b in branches])
    masks = np.stack(masks)
    active = np.where(masks[:, :, None] > 0, feats, np.nan)
    lo = np.nanmin(active, axis=0)
    hi = np.nanmax(active, axis=0)
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_fuse_background_outside_masks():
    rng = np.random.default_rng(6)
    branches, masks = make_branches(rng, logits=rng.standard_normal(4))
    out = fuse(branches)[0].values[0]
    bg = branches[0]
    covered = np.zeros(64)
    for m in masks[1:]:
        covered = np.maximum(covered, m)
    outside = covered == 0
    assert np.array_equal(out[outside], bg.feat.values[0, outside])


def test_fuse_errors():
    with pytest.raises(NoBranches):
        fuse([])
    with pytest.raises(NoBranches):
        fuse_forward([], np.ones((0, 4)))
    rng = np.random.default_rng(7)
    a = branch(rng.standard_normal((1, 4, 3)), RowSet.every(2, 2), 0.0)
    b = branch(rng.standard_normal((1, 9, 3)), RowSet.every(3, 3), 0.0)
    with pytest.raises(ShapeMismatch):
        fuse_forward([a, b], np.full((2, 4), 0.5))
    # no active branch at some pixel
    inst_only = branch(rng.standard_normal((1, 4, 3)), rows_of(np.eye(2)), 0.0)
    with pytest.raises(NoBranches):
        fuse([inst_only])


def test_fuse_backward_single_branch():
    rng = np.random.default_rng(8)
    feat = FeatureGrid(rng.standard_normal((1, 4, 3)), RowSet.every(2, 2))
    _, cache = fuse([Scored(feat, 0.4)])
    d_out = rng.standard_normal((4, 3))[:, None]  # rows-first
    d_feats, d_logits = fuse_backward(d_out, cache)
    assert np.array_equal(d_feats[0], d_out)
    assert d_logits[0] == 0.0


def test_fuse_backward_inactive_branch_zero_grads():
    rng = np.random.default_rng(9)
    bg = branch(rng.standard_normal((1, 4, 3)), RowSet.every(2, 2), 0.0)
    dead = branch(rng.standard_normal((1, 4, 3)), rows_of(np.zeros((2, 2))), 0.0)
    _, cache = fuse([bg, dead])
    d_feats, d_logits = fuse_backward(rng.standard_normal((4, 3))[:, None], cache)
    assert not d_feats[1].any()
    assert d_logits[1] == 0.0


def test_fuse_backward_missing_cache():
    with pytest.raises(MissingCache):
        fuse_backward(np.zeros((1, 1)), None)


def test_fuse_backward_vs_central_differences():
    # stacks of one grid, then packs of K = 2 grids with packed rows
    cases = [(100 + seed, 1) for seed in range(8)] + [(200 + seed, 2) for seed in range(4)]
    worst = 0.0
    for seed, k in cases:
        case_rng = np.random.default_rng(seed)
        logits = case_rng.standard_normal(4)
        branches, _ = make_branches(case_rng, h=3, w=3, d=4, logits=logits, k=k)
        d_out = case_rng.standard_normal((k, 9, 4))
        _, cache = fuse(branches)
        d_feats, d_logits = fuse_backward(d_out.swapaxes(0, 1), cache)

        def fused():
            # the branches as fuse_forward reads them, with the logits read
            # from `logits`, which central_diff perturbs
            now = [replace(b, logit=float(z)) for b, z in zip(branches, logits)]
            return fuse(now)[0].values

        for bi, b in enumerate(branches):
            num = b.feat.rows.put(central_diff(fused, b.feat.values, d_out))
            an = d_feats[bi].swapaxes(0, 1)
            worst = max(worst, rel_err(an, num) if num.any() or an.any() else 0.0)
        num_logits = central_diff(fused, logits, d_out)
        for bi in range(len(branches)):
            worst = max(worst, rel_err(d_logits[bi], num_logits[bi], floor=1e-6))
    assert worst < 1e-6
