import numpy as np
import pytest

from radl.attention import FeatureGrid
from radl.errors import MissingCache, NoBranches, ShapeMismatch
from radl.fusion import BACKGROUND, INSTANCE, RELATION, FusionBranch, fuse_backward, fuse_forward
from radl.layout import MaskGrid
from radl.oracles import rel_err


def fuse_oracle(branches):
    """Per-pixel scalar-loop fusion, independent of the vectorized path."""
    h, w, d = branches[0].feat.h, branches[0].feat.w, branches[0].feat.d
    out = np.zeros((h * w, d))
    for p in range(h * w):
        active = [b for b in branches if b.mask.flat()[p] == 1.0]
        logits = [b.logit for b in active]
        m = max(logits)
        exps = [np.exp(l - m) for l in logits]
        z = sum(exps)
        for b, e in zip(active, exps):
            out[p] += (e / z) * b.feat.values[p]
    return out


def make_branches(rng, h=8, w=8, d=8, n_inst=2, logits=None):
    n_pix = h * w
    bg = FusionBranch(
        BACKGROUND,
        FeatureGrid(h, w, rng.standard_normal((n_pix, d))),
        MaskGrid(np.ones((h, w))),
        0.0 if logits is None else logits[0],
    )
    branches = [bg]
    inst_masks = []
    for i in range(n_inst):
        mask = MaskGrid((rng.random((h, w)) < 0.4).astype(float))
        inst_masks.append(mask)
        branches.append(
            FusionBranch(
                INSTANCE,
                FeatureGrid(h, w, rng.standard_normal((n_pix, d))),
                mask,
                0.0 if logits is None else logits[1 + i],
            )
        )
    m_total = MaskGrid((np.sum([m.values for m in inst_masks], axis=0) > 0).astype(float)) \
        if inst_masks else MaskGrid(np.zeros((h, w)))
    branches.append(
        FusionBranch(
            RELATION,
            FeatureGrid(h, w, rng.standard_normal((n_pix, d))),
            m_total,
            0.0 if logits is None else logits[-1],
        )
    )
    return branches


def test_single_background_branch_exact():
    rng = np.random.default_rng(0)
    feat = FeatureGrid(4, 4, rng.standard_normal((16, 8)))
    out = fuse_forward([FusionBranch(BACKGROUND, feat, MaskGrid(np.ones((4, 4))), 1.3)])[0]
    assert np.array_equal(out.values, feat.values)


def test_two_equal_logit_branches_mean():
    rng = np.random.default_rng(1)
    a = FeatureGrid(2, 2, rng.standard_normal((4, 3)))
    b = FeatureGrid(2, 2, rng.standard_normal((4, 3)))
    ones = MaskGrid(np.ones((2, 2)))
    branches = [FusionBranch(BACKGROUND, a, ones, 0.7), FusionBranch(INSTANCE, b, ones, 0.7)]
    out = fuse_forward(branches)[0]
    assert np.allclose(out.values, 0.5 * (a.values + b.values), atol=1e-15)


def test_fuse_matches_pixel_loop_oracle():
    rng = np.random.default_rng(2)
    branches = make_branches(rng, logits=rng.standard_normal(4))
    got = fuse_forward(branches)[0]
    assert rel_err(got.values, fuse_oracle(branches)) <= 1e-12


def test_fuse_weights_sum_to_one():
    rng = np.random.default_rng(3)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        branches = make_branches(rng, h=4, w=4, d=4, logits=rng.standard_normal(4))
        _, cache = fuse_forward(branches)
        assert np.all(np.abs(cache.weights.sum(axis=0) - 1.0) <= 1e-12)
        # inactive branches carry exactly zero weight
        assert np.array_equal(cache.weights != 0.0, cache.masks != 0.0)


def test_fuse_logit_shift_invariance():
    rng = np.random.default_rng(4)
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        logits = rng.standard_normal(4)
        base = make_branches(np.random.default_rng(seed), h=4, w=4, d=4, logits=logits)
        shifted = [
            FusionBranch(b.kind, b.feat, b.mask, b.logit + 0.37) for b in base
        ]
        assert rel_err(fuse_forward(base)[0].values, fuse_forward(shifted)[0].values) <= 1e-12


def test_fuse_convexity_envelope():
    rng = np.random.default_rng(5)
    branches = make_branches(rng, logits=rng.standard_normal(4))
    out = fuse_forward(branches)[0].values
    feats = np.stack([b.feat.values for b in branches])
    masks = np.stack([b.mask.flat() for b in branches])
    active = np.where(masks[:, :, None] > 0, feats, np.nan)
    lo = np.nanmin(active, axis=0)
    hi = np.nanmax(active, axis=0)
    assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)


def test_fuse_background_outside_masks():
    rng = np.random.default_rng(6)
    branches = make_branches(rng, logits=rng.standard_normal(4))
    out = fuse_forward(branches)[0].values
    bg = branches[0]
    covered = np.zeros(64)
    for b in branches[1:]:
        covered = np.maximum(covered, b.mask.flat())
    outside = covered == 0
    assert np.array_equal(out[outside], bg.feat.values[outside])


def test_fuse_errors():
    with pytest.raises(NoBranches):
        fuse_forward([])
    rng = np.random.default_rng(7)
    a = FusionBranch(BACKGROUND, FeatureGrid(2, 2, rng.standard_normal((4, 3))), MaskGrid(np.ones((2, 2))), 0.0)
    b = FusionBranch(INSTANCE, FeatureGrid(3, 3, rng.standard_normal((9, 3))), MaskGrid(np.ones((3, 3))), 0.0)
    with pytest.raises(ShapeMismatch):
        fuse_forward([a, b])
    # no active branch at some pixel
    inst_only = FusionBranch(INSTANCE, FeatureGrid(2, 2, rng.standard_normal((4, 3))), MaskGrid(np.eye(2)), 0.0)
    with pytest.raises(NoBranches):
        fuse_forward([inst_only])
    with pytest.raises(ShapeMismatch):
        FusionBranch(BACKGROUND, FeatureGrid(2, 2, np.zeros((4, 3))), MaskGrid(np.ones((3, 3))), 0.0)


def test_fuse_backward_single_branch():
    rng = np.random.default_rng(8)
    feat = FeatureGrid(2, 2, rng.standard_normal((4, 3)))
    _, cache = fuse_forward([FusionBranch(BACKGROUND, feat, MaskGrid(np.ones((2, 2))), 0.4)])
    d_out = rng.standard_normal((4, 3))
    d_feats, d_logits = fuse_backward(d_out, cache)
    assert np.array_equal(d_feats[0], d_out)
    assert d_logits[0] == 0.0


def test_fuse_backward_inactive_branch_zero_grads():
    rng = np.random.default_rng(9)
    bg = FusionBranch(BACKGROUND, FeatureGrid(2, 2, rng.standard_normal((4, 3))), MaskGrid(np.ones((2, 2))), 0.0)
    dead = FusionBranch(INSTANCE, FeatureGrid(2, 2, rng.standard_normal((4, 3))), MaskGrid(np.zeros((2, 2))), 0.0)
    _, cache = fuse_forward([bg, dead])
    d_feats, d_logits = fuse_backward(rng.standard_normal((4, 3)), cache)
    assert not d_feats[1].any()
    assert d_logits[1] == 0.0


def test_fuse_backward_missing_cache():
    with pytest.raises(MissingCache):
        fuse_backward(np.zeros((1, 1)), None)


def test_fuse_backward_vs_central_differences():
    rng = np.random.default_rng(10)
    worst = 0.0
    for seed in range(8):
        case_rng = np.random.default_rng(100 + seed)
        logits = case_rng.standard_normal(4)
        branches = make_branches(case_rng, h=3, w=3, d=4, logits=logits)
        d_out = case_rng.standard_normal((9, 4))
        _, cache = fuse_forward(branches)
        d_feats, d_logits = fuse_backward(d_out, cache)
        eps = 1e-5

        for bi, b in enumerate(branches):
            num = np.zeros_like(b.feat.values)
            for idx in np.ndindex(b.feat.values.shape):
                orig = b.feat.values[idx]
                b.feat.values[idx] = orig + eps
                up = float((fuse_forward(branches)[0].values * d_out).sum())
                b.feat.values[idx] = orig - eps
                dn = float((fuse_forward(branches)[0].values * d_out).sum())
                b.feat.values[idx] = orig
                num[idx] = (up - dn) / (2 * eps)
            worst = max(worst, rel_err(d_feats[bi], num) if num.any() or d_feats[bi].any() else 0.0)

            up_b = [FusionBranch(x.kind, x.feat, x.mask, x.logit + (eps if i == bi else 0.0))
                    for i, x in enumerate(branches)]
            dn_b = [FusionBranch(x.kind, x.feat, x.mask, x.logit - (eps if i == bi else 0.0))
                    for i, x in enumerate(branches)]
            num_logit = (
                float((fuse_forward(up_b)[0].values * d_out).sum())
                - float((fuse_forward(dn_b)[0].values * d_out).sum())
            ) / (2 * eps)
            denom = max(abs(d_logits[bi]), abs(num_logit), 1e-6)
            worst = max(worst, abs(d_logits[bi] - num_logit) / denom)
    assert worst < 1e-6
