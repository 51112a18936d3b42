import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radl.attention import (
    AttnProjection,
    FeatureGrid,
    RowSet,
    attribute_enhancement_backward,
    attribute_enhancement_forward,
    instance_attention_backward,
    instance_attention_forward,
    masked_text_attention_backward,
    masked_text_attention_forward,
    relation_attention_backward,
    relation_attention_forward,
    scaled_dot_attention_backward,
    scaled_dot_attention_forward,
    softmax_rows,
)
from radl.errors import MissingCache, ShapeMismatch
from radl.fusion import INSTANCE, FusionBranch, fuse_forward
from radl.layout import BBox, MaskGrid, rasterize_mask
from radl.oracles import attention_oracle, central_diff, rel_err
from radl.text import EmbeddingSeq


def grid(rng, h, w, d):
    """A stack of one random h x w grid."""
    return FeatureGrid(h, w, rng.standard_normal((1, h * w, d)))


def random_mask(rng, h, w):
    return MaskGrid((rng.random((h, w)) < 0.5).astype(float))


def rows_of(values):
    return RowSet.of(MaskGrid(np.asarray(values, dtype=float)))


def every_row(h, w):
    return rows_of(np.ones((h, w)))


def rows_first(x):
    """(K, h*w, d) <-> (h*w, K, d): backwards take and give feature
    gradients rows-first."""
    return x.swapaxes(0, 1)


# --- scaled_dot_attention ---------------------------------------------------

def test_single_key_returns_value_row():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((5, 4))
    k = rng.standard_normal((1, 4))
    v = rng.standard_normal((1, 4))
    out = scaled_dot_attention_forward(q, k, v)[0]
    assert np.allclose(out, np.broadcast_to(v, (5, 4)), atol=1e-15)


def test_zero_query_gives_value_mean():
    rng = np.random.default_rng(1)
    k = rng.standard_normal((7, 4))
    v = rng.standard_normal((7, 4))
    out = scaled_dot_attention_forward(np.zeros((3, 4)), k, v)[0]
    assert np.allclose(out, np.broadcast_to(v.mean(axis=0), (3, 4)), atol=1e-14)


def test_matches_triple_loop_oracle_100_cases():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n_q = int(rng.integers(1, 9))
        n_k = int(rng.integers(1, 9))
        q = rng.standard_normal((n_q, 8))
        k = rng.standard_normal((n_k, 8))
        v = rng.standard_normal((n_k, 8))
        assert rel_err(scaled_dot_attention_forward(q, k, v)[0], attention_oracle(q, k, v)) <= 1e-12


def test_shape_mismatch_raises():
    with pytest.raises(ShapeMismatch):
        scaled_dot_attention_forward(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)))
    with pytest.raises(ShapeMismatch):
        scaled_dot_attention_forward(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((2, 3)))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        _, cache = scaled_dot_attention_forward(
            rng.standard_normal((6, 8)), rng.standard_normal((5, 8)),
            rng.standard_normal((5, 8)),
        )
        assert np.all(np.abs(cache.attn.sum(axis=1) - 1.0) <= 1e-12)


def test_key_permutation_equivariance():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((5, 8))
    k = rng.standard_normal((7, 8))
    v = rng.standard_normal((7, 8))
    perm = rng.permutation(7)
    out, out_perm = scaled_dot_attention_forward(q, k, v)[0], scaled_dot_attention_forward(q, k[perm], v[perm])[0]
    assert rel_err(out, out_perm) <= 1e-12


def test_max_subtracted_softmax_equals_naive():
    rng = np.random.default_rng(5)
    scores = rng.standard_normal((6, 6))  # well-conditioned logits
    naive = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
    assert rel_err(softmax_rows(scores), naive) <= 1e-12


def test_scaled_dot_backward_vs_central_differences():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 4))
        d_out = rng.standard_normal((3, 4))
        out, cache = scaled_dot_attention_forward(q, k, v)
        dq, dk, dv = scaled_dot_attention_backward(d_out, cache)
        for arr, an in ((q, dq), (k, dk), (v, dv)):
            num = central_diff(lambda: scaled_dot_attention_forward(q, k, v)[0], arr, d_out)
            worst = max(worst, rel_err(an, num))
    assert worst < 1e-6


def test_backward_zero_upstream():
    rng = np.random.default_rng(7)
    out, cache = scaled_dot_attention_forward(
        rng.standard_normal((3, 4)), rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
    )
    dq, dk, dv = scaled_dot_attention_backward(np.zeros((3, 4)), cache)
    assert not dq.any() and not dk.any() and not dv.any()


def test_backward_missing_cache():
    with pytest.raises(MissingCache):
        scaled_dot_attention_backward(np.zeros((1, 1)), None)


# --- masked_text_attention ---------------------------------------------------

def test_masked_text_zero_mask():
    rng = np.random.default_rng(8)
    feat = grid(rng, 4, 4, 8)
    emb = EmbeddingSeq(rng.standard_normal((3, 8)))
    proj = AttnProjection.init(rng, 8)
    out = masked_text_attention_forward(feat, emb, proj, rows_of(np.zeros((4, 4))))[0]
    assert not out.values.any()


def test_masked_text_ones_mask_equals_unmasked():
    rng = np.random.default_rng(9)
    feat = grid(rng, 4, 4, 8)
    emb = EmbeddingSeq(rng.standard_normal((3, 8)))
    proj = AttnProjection.init(rng, 8)
    got = masked_text_attention_forward(feat, emb, proj, every_row(4, 4))[0]
    want, _ = scaled_dot_attention_forward(
        feat.values @ proj.wq, emb.values @ proj.wk, emb.values @ proj.wv
    )
    assert np.array_equal(got.values, want)


def test_masked_text_half_mask_rows():
    rng = np.random.default_rng(10)
    feat = grid(rng, 4, 4, 8)
    emb = EmbeddingSeq(rng.standard_normal((5, 8)))
    proj = AttnProjection.init(rng, 8)
    mvals = np.zeros((4, 4))
    mvals[:2, :] = 1.0
    got = masked_text_attention_forward(feat, emb, proj, rows_of(mvals))[0].values[0]
    unmasked, _ = scaled_dot_attention_forward(
        feat.values[0] @ proj.wq, emb.values @ proj.wk, emb.values @ proj.wv
    )
    flat = mvals.reshape(-1)
    for r in range(16):
        if flat[r] == 0:
            assert np.array_equal(got[r], np.zeros(8))
            assert not np.signbit(got[r]).any()  # bitwise +0.0
        else:
            assert np.array_equal(got[r], unmasked[r])


@given(st.integers(0, 2**16 - 1))
@settings(max_examples=30, deadline=None)
def test_masked_text_annihilation(bits):
    rng = np.random.default_rng(bits)
    feat = grid(rng, 4, 4, 4)
    emb = EmbeddingSeq(rng.standard_normal((2, 4)))
    proj = AttnProjection.init(rng, 4)
    mask = MaskGrid(np.array([(bits >> i) & 1 for i in range(16)], dtype=float).reshape(4, 4))
    out = masked_text_attention_forward(feat, emb, proj, RowSet.of(mask))[0]
    outside = mask.flat() == 0
    assert np.array_equal(out.values[0, outside], np.zeros((outside.sum(), 4)))


def test_masked_text_backward_fd():
    rng = np.random.default_rng(11)
    feat = grid(rng, 2, 3, 4)
    emb = EmbeddingSeq(rng.standard_normal((3, 4)))
    proj = AttnProjection.init(rng, 4)
    rows = RowSet.of(random_mask(rng, 2, 3))
    d_out = rng.standard_normal((6, 4))[None]
    out, cache = masked_text_attention_forward(feat, emb, proj, rows)
    grads = masked_text_attention_backward(rows_first(d_out), cache)

    def run():
        return masked_text_attention_forward(feat, emb, proj, rows)[0].values

    pairs = [
        (feat.values, rows_first(grads["feat"])), (emb.values, grads["emb"]),
        (proj.wq, grads["wq"]), (proj.wk, grads["wk"]), (proj.wv, grads["wv"]),
    ]
    for arr, an in pairs:
        assert rel_err(an, central_diff(run, arr, d_out)) < 1e-6


# --- attribute_enhancement ---------------------------------------------------

def test_attribute_enhancement_constant_feat():
    rng = np.random.default_rng(12)
    feat = FeatureGrid(2, 2, np.tile(rng.standard_normal(8), (1, 4, 1)))
    proj = AttnProjection.init(rng, 8)
    out = attribute_enhancement_forward(feat, rng.standard_normal((4, 8)), proj, every_row(2, 2))[0]
    assert np.allclose(out.values, np.broadcast_to(out.values[0, 0], (1, 4, 8)), atol=1e-14)


def test_attribute_enhancement_equal_queries():
    rng = np.random.default_rng(13)
    feat = grid(rng, 2, 2, 8)
    proj = AttnProjection.init(rng, 8)
    qlp = np.tile(rng.standard_normal(8), (4, 1))
    out = attribute_enhancement_forward(feat, qlp, proj, every_row(2, 2))[0]
    assert np.allclose(out.values, np.broadcast_to(out.values[0, 0], (1, 4, 8)), atol=1e-14)


def test_attribute_enhancement_oracle_8x8():
    rng = np.random.default_rng(14)
    feat = grid(rng, 8, 8, 8)
    proj = AttnProjection.init(rng, 8)
    qlp = rng.standard_normal((64, 8))
    got = attribute_enhancement_forward(feat, qlp, proj, every_row(8, 8))[0]
    want = attention_oracle(qlp, feat.values[0] @ proj.wk, feat.values[0] @ proj.wv)
    assert rel_err(got.values[0], want) <= 1e-12


def test_attribute_enhancement_qlp_mismatch():
    rng = np.random.default_rng(15)
    with pytest.raises(ShapeMismatch):
        attribute_enhancement_forward(
            grid(rng, 4, 4, 8), rng.standard_normal((9, 8)), AttnProjection.init(rng, 8),
            every_row(4, 4),
        )


def test_attribute_enhancement_backward_fd():
    rng = np.random.default_rng(16)
    feat = grid(rng, 2, 2, 4)
    proj = AttnProjection.init(rng, 4)
    qlp = rng.standard_normal((4, 4))
    d_out = rng.standard_normal((4, 4))[None]
    rows = every_row(2, 2)
    out, cache = attribute_enhancement_forward(feat, qlp, proj, rows)
    grads = attribute_enhancement_backward(rows_first(d_out), cache)

    def run():
        return attribute_enhancement_forward(feat, qlp, proj, rows)[0].values

    for arr, an in ((qlp, grads["qlp"]), (feat.values, rows_first(grads["feat"])),
                    (proj.wk, grads["wk"]), (proj.wv, grads["wv"])):
        assert rel_err(an, central_diff(run, arr, d_out)) < 1e-6


# --- instance_attention ------------------------------------------------------

def test_instance_attention_zero_mask():
    rng = np.random.default_rng(17)
    out = instance_attention_forward(
        grid(rng, 3, 3, 4), EmbeddingSeq(rng.standard_normal((2, 4))),
        AttnProjection.init(rng, 4), rows_of(np.zeros((3, 3))),
    )[0]
    assert not out.values.any()


def test_instance_attention_single_token():
    rng = np.random.default_rng(18)
    r_ae = grid(rng, 3, 3, 4)
    e_i = EmbeddingSeq(rng.standard_normal((1, 4)))
    proj = AttnProjection.init(rng, 4)
    mask = random_mask(rng, 3, 3)
    out = instance_attention_forward(r_ae, e_i, proj, RowSet.of(mask))[0]
    token_v = (e_i.values @ proj.wv)[0]
    inside = mask.flat() == 1
    assert np.allclose(out.values[0, inside], np.broadcast_to(token_v, (inside.sum(), 4)), atol=1e-14)


def test_instance_attention_oracle():
    rng = np.random.default_rng(19)
    r_ae = grid(rng, 4, 4, 8)
    e_i = EmbeddingSeq(rng.standard_normal((3, 8)))
    proj = AttnProjection.init(rng, 8)
    mask = random_mask(rng, 4, 4)
    got = instance_attention_forward(r_ae, e_i, proj, RowSet.of(mask))[0]
    want = attention_oracle(r_ae.values[0] @ proj.wq, e_i.values @ proj.wk, e_i.values @ proj.wv)
    want = want * mask.flat()[:, None]
    assert rel_err(got.values[0], want) <= 1e-12


def test_instance_attention_backward_fd():
    rng = np.random.default_rng(20)
    r_ae = grid(rng, 2, 2, 4)
    e_i = EmbeddingSeq(rng.standard_normal((2, 4)))
    proj = AttnProjection.init(rng, 4)
    rows = rows_of([[1.0, 0.0], [1.0, 1.0]])
    d_out = rng.standard_normal((4, 4))[None]
    out, cache = instance_attention_forward(r_ae, e_i, proj, rows)
    grads = instance_attention_backward(rows_first(d_out), cache)

    def run():
        return instance_attention_forward(r_ae, e_i, proj, rows)[0].values

    for arr, an in ((r_ae.values, rows_first(grads["feat"])), (e_i.values, grads["emb"]),
                    (proj.wq, grads["wq"]), (proj.wk, grads["wk"]), (proj.wv, grads["wv"])):
        assert rel_err(an, central_diff(run, arr, d_out)) < 1e-6


# --- relation_attention ------------------------------------------------------

@pytest.mark.parametrize("forward", [
    masked_text_attention_forward, instance_attention_forward, relation_attention_forward,
])
def test_token_width_mismatch_raises(forward):
    rng = np.random.default_rng(36)
    feat = grid(rng, 4, 4, 8)
    tokens = EmbeddingSeq(rng.standard_normal((3, 6)))
    with pytest.raises(ShapeMismatch):
        forward(feat, tokens, AttnProjection.init(rng, 8), every_row(4, 4))


def test_relation_zero_total_mask():
    rng = np.random.default_rng(26)
    feat = grid(rng, 4, 4, 8)
    verb = EmbeddingSeq(rng.standard_normal((2, 8)))
    proj = AttnProjection.init(rng, 8)
    out = relation_attention_forward(feat, verb, proj, rows_of(np.zeros((4, 4))))[0]
    assert not out.values.any()


def test_relation_single_verb_full_mask():
    rng = np.random.default_rng(27)
    feat = grid(rng, 4, 4, 8)
    verb = EmbeddingSeq(rng.standard_normal((1, 8)))
    proj = AttnProjection.init(rng, 8)
    out = relation_attention_forward(feat, verb, proj, every_row(4, 4))[0]
    assert np.allclose(out.values, np.broadcast_to((verb.values @ proj.wv)[0], (1, 16, 8)), atol=1e-14)


def test_relation_backward_fd():
    rng = np.random.default_rng(28)
    feat = grid(rng, 2, 2, 4)
    verb = EmbeddingSeq(rng.standard_normal((2, 4)))
    proj = AttnProjection.init(rng, 4)
    rows = rows_of([[1.0, 0.0], [0.0, 1.0]])
    d_out = rng.standard_normal((4, 4))[None]
    out, cache = relation_attention_forward(feat, verb, proj, rows)
    grads = relation_attention_backward(rows_first(d_out), cache)

    def run():
        return relation_attention_forward(feat, verb, proj, rows)[0].values

    for arr, an in ((feat.values, rows_first(grads["feat"])), (verb.values, grads["emb"]),
                    (proj.wq, grads["wq"]), (proj.wk, grads["wk"]), (proj.wv, grads["wv"])):
        assert rel_err(an, central_diff(run, arr, d_out)) < 1e-6


# --- in-mask rows ------------------------------------------------------------
# The masked ops compute only the query rows their mask keeps; the dense
# oracle with the other rows zeroed is the reference.

def mask_case(name, rng, side=8):
    if name == "empty":
        return MaskGrid(np.zeros((side, side)))
    if name == "one_cell":
        mask = rasterize_mask(BBox(0.03125, 0.46875, 0.1875, 0.65625), side, side)
        assert mask.values.sum() == 1.0
        return mask
    if name == "full":
        return MaskGrid(np.ones((side, side)))
    return random_mask(rng, side, side)


MASK_CASES = ("empty", "one_cell", "full", "random")


@pytest.mark.parametrize("case", MASK_CASES)
def test_in_mask_ops_match_masked_oracle(case):
    rng = np.random.default_rng(29)
    mask = mask_case(case, rng)
    keep, rows = mask.flat()[:, None], RowSet.of(mask)
    feat = grid(rng, 8, 8, 8)
    x = feat.values[0]
    emb = EmbeddingSeq(rng.standard_normal((3, 8)))
    proj = AttnProjection.init(rng, 8)
    want = keep * attention_oracle(x @ proj.wq, emb.values @ proj.wk, emb.values @ proj.wv)
    # the text, instance and relation ops are one masked op
    assert masked_text_attention_forward is instance_attention_forward is relation_attention_forward
    got = masked_text_attention_forward(feat, emb, proj, rows)[0].values[0]
    assert rel_err(got, want) <= 1e-12
    assert not np.signbit(got[keep[:, 0] == 0]).any()  # bitwise +0.0
    qlp = rng.standard_normal((64, 8))
    got = attribute_enhancement_forward(feat, qlp, proj, rows)[0].values[0]
    want = keep * attention_oracle(qlp, x @ proj.wk, x @ proj.wv)
    assert rel_err(got, want) <= 1e-12


def test_attribute_enhancement_mask_shape_mismatch():
    rng = np.random.default_rng(31)
    with pytest.raises(ShapeMismatch):
        attribute_enhancement_forward(
            grid(rng, 4, 4, 4), rng.standard_normal((16, 4)), AttnProjection.init(rng, 4),
            every_row(2, 2),
        )


@pytest.mark.parametrize("case", MASK_CASES)
def test_in_mask_backward_fd(case):
    rng = np.random.default_rng(32)
    rows = RowSet.of(mask_case(case, rng))
    feat = grid(rng, 8, 8, 4)
    emb = EmbeddingSeq(rng.standard_normal((2, 4)))
    qlp = rng.standard_normal((64, 4))
    proj = AttnProjection.init(rng, 4)
    d_out = rng.standard_normal((64, 4))[None]

    _, cache = attribute_enhancement_forward(feat, qlp, proj, rows)
    grads = attribute_enhancement_backward(rows_first(d_out), cache)

    def run_ae():
        return attribute_enhancement_forward(feat, qlp, proj, rows)[0].values

    for arr, an in ((qlp, grads["qlp"]), (feat.values, rows_first(grads["feat"])),
                    (proj.wk, grads["wk"]), (proj.wv, grads["wv"])):
        assert rel_err(an, central_diff(run_ae, arr, d_out)) < 1e-6

    _, cache = masked_text_attention_forward(feat, emb, proj, rows)
    grads = masked_text_attention_backward(rows_first(d_out), cache)

    def run_text():
        return masked_text_attention_forward(feat, emb, proj, rows)[0].values

    for arr, an in ((feat.values, rows_first(grads["feat"])), (emb.values, grads["emb"]),
                    (proj.wq, grads["wq"]), (proj.wk, grads["wk"]), (proj.wv, grads["wv"])):
        assert rel_err(an, central_diff(run_text, arr, d_out)) < 1e-6


# --- stacked feature grids ----------------------------------------------------
# A forward given K grids (K, h*w, d) under one mask must give each grid the
# bytes a stack of that grid alone gets; sampling relies on it.

@pytest.mark.parametrize("case", MASK_CASES)
def test_stacked_forwards_equal_per_grid_calls(case):
    rng = np.random.default_rng(33)
    rows = RowSet.of(mask_case(case, rng))
    stack = rng.standard_normal((3, 64, 8))
    emb = EmbeddingSeq(rng.standard_normal((3, 8)))
    qlp = rng.standard_normal((64, 8))
    proj = AttnProjection.init(rng, 8)
    calls = {
        "masked_text_attention": lambda f: masked_text_attention_forward(f, emb, proj, rows),
        "instance_attention": lambda f: instance_attention_forward(f, emb, proj, rows),
        "relation_attention": lambda f: relation_attention_forward(f, emb, proj, rows),
        "attribute_enhancement": lambda f: attribute_enhancement_forward(f, qlp, proj, rows),
    }
    for name, call in calls.items():
        got = call(FeatureGrid(8, 8, stack))[0].values
        assert got.shape == stack.shape, name
        for k in range(3):
            alone = call(FeatureGrid(8, 8, stack[k : k + 1]))[0].values
            assert np.array_equal(got[k], alone[0]), name


def test_stacked_fuse_forward_equals_per_grid_calls():
    rng = np.random.default_rng(34)
    masks = [MaskGrid(np.ones((8, 8))), random_mask(rng, 8, 8), mask_case("one_cell", rng),
             MaskGrid(np.zeros((8, 8)))]
    stacks = [rng.standard_normal((4, 64, 8)) for _ in masks]
    logits = rng.standard_normal(len(masks))

    def fused(pick):
        branches = [FusionBranch(INSTANCE, FeatureGrid(8, 8, pick(s)), m, float(z))
                    for s, m, z in zip(stacks, masks, logits)]
        return fuse_forward(branches)

    out, cache = fused(lambda s: s)
    for k in range(4):
        out_k, cache_k = fused(lambda s: s[k : k + 1])
        assert np.array_equal(out.values[k], out_k.values[0])
        assert np.array_equal(cache.weights, cache_k.weights)


def test_feature_grid_rejects_wrong_rows_under_leading_axis():
    with pytest.raises(ShapeMismatch):
        FeatureGrid(4, 4, np.zeros((2, 15, 3)))
    with pytest.raises(ShapeMismatch):
        FeatureGrid(4, 4, np.zeros((16, 2, 3)))
    with pytest.raises(ShapeMismatch):  # one grid without its stack axis
        FeatureGrid(4, 4, np.zeros((16, 3)))
    assert FeatureGrid(4, 4, np.zeros((2, 16, 3))).d == 3
