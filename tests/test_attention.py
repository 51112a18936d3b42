import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radl.attention import (
    AttnProjection,
    FeatureGrid,
    KeyValues,
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
from radl.fusion import FusionBranch, fuse_forward, fusion_weights
from radl.layout import BBox, rasterize_mask
from radl.oracles import attention_oracle, central_diff, rel_err
from radl.text import EmbeddingSeq


def grid(rng, h, w, d):
    """A stack of one random h x w grid."""
    return FeatureGrid(rng.standard_normal((1, h * w, d)), RowSet.every(h, w))


def random_mask(rng, h, w):
    return rng.random((h, w)) < 0.5


def rows_of(values):
    return RowSet.of(np.asarray(values, dtype=bool))


def full(out):
    """A forward's output as full grids (K, h*w, d): a masked op gives only
    the rows its mask keeps."""
    return out.rows.put(out.values)


def keys(emb, proj):
    """A token sequence's keys and values under proj, as the token ops take them."""
    return KeyValues.project(emb.values, proj, emb.keep)


def rows_first(x):
    """(K, h*w, d) <-> (h*w, K, d): backwards take the upstream gradient
    rows-first."""
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
    with pytest.raises(ShapeMismatch):  # not a matrix
        scaled_dot_attention_forward(np.zeros(3), np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):  # no key, and no zero keys counted
        scaled_dot_attention_forward(np.zeros((2, 3)), np.zeros((0, 3)), np.zeros((0, 3)))


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
    before = scores.copy()
    assert rel_err(softmax_rows(scores), naive) <= 1e-12
    assert np.array_equal(scores, before)  # the public softmax leaves its input alone


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
    out = masked_text_attention_forward(feat, keys(emb, proj), proj, rows_of(np.zeros((4, 4))))[0]
    assert not full(out).any()


def test_masked_text_ones_mask_equals_unmasked():
    rng = np.random.default_rng(9)
    feat = grid(rng, 4, 4, 8)
    emb = EmbeddingSeq(rng.standard_normal((3, 8)))
    proj = AttnProjection.init(rng, 8)
    got = masked_text_attention_forward(feat, keys(emb, proj), proj, RowSet.every(4, 4))[0]
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
    got = full(masked_text_attention_forward(feat, keys(emb, proj), proj, rows_of(mvals))[0])[0]
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
    mask = np.array([(bits >> i) & 1 for i in range(16)], dtype=bool).reshape(4, 4)
    out = masked_text_attention_forward(feat, keys(emb, proj), proj, RowSet.of(mask))[0]
    outside = mask.ravel() == 0
    assert np.array_equal(full(out)[0, outside], np.zeros((outside.sum(), 4)))


def test_masked_text_backward_fd():
    rng = np.random.default_rng(11)
    feat = grid(rng, 2, 3, 4)
    emb = EmbeddingSeq(rng.standard_normal((3, 4)))
    proj = AttnProjection.init(rng, 4)
    rows = RowSet.of(random_mask(rng, 2, 3))
    d_out = rng.standard_normal((6, 4))[None]
    out, cache = masked_text_attention_forward(feat, keys(emb, proj), proj, rows)
    grads = masked_text_attention_backward(rows_first(d_out), cache)

    def run():
        return full(masked_text_attention_forward(feat, keys(emb, proj), proj, rows)[0])

    pairs = [
        (feat.values, rows.put(grads["feat"])), (emb.values, grads["emb"]),
        (proj.wq, grads["wq"]), (proj.wk, grads["wk"]), (proj.wv, grads["wv"]),
    ]
    for arr, an in pairs:
        assert rel_err(an, central_diff(run, arr, d_out)) < 1e-6


# --- attribute_enhancement ---------------------------------------------------

def test_attribute_enhancement_constant_feat():
    rng = np.random.default_rng(12)
    feat = FeatureGrid(np.tile(rng.standard_normal(8), (1, 4, 1)), RowSet.every(2, 2))
    proj = AttnProjection.init(rng, 8)
    qlp = rng.standard_normal((4, 8))
    out = attribute_enhancement_forward(feat, qlp, proj, RowSet.every(2, 2))[0]
    assert np.allclose(out.values, np.broadcast_to(out.values[0, 0], (1, 4, 8)), atol=1e-14)


def test_attribute_enhancement_equal_queries():
    rng = np.random.default_rng(13)
    feat = grid(rng, 2, 2, 8)
    proj = AttnProjection.init(rng, 8)
    qlp = np.tile(rng.standard_normal(8), (4, 1))
    out = attribute_enhancement_forward(feat, qlp, proj, RowSet.every(2, 2))[0]
    assert np.allclose(out.values, np.broadcast_to(out.values[0, 0], (1, 4, 8)), atol=1e-14)


def test_attribute_enhancement_oracle_8x8():
    rng = np.random.default_rng(14)
    feat = grid(rng, 8, 8, 8)
    proj = AttnProjection.init(rng, 8)
    qlp = rng.standard_normal((64, 8))
    got = attribute_enhancement_forward(feat, qlp, proj, RowSet.every(8, 8))[0]
    want = attention_oracle(qlp, feat.values[0] @ proj.wk, feat.values[0] @ proj.wv)
    assert rel_err(got.values[0], want) <= 1e-12


def test_attribute_enhancement_qlp_mismatch():
    rng = np.random.default_rng(15)
    with pytest.raises(ShapeMismatch):
        attribute_enhancement_forward(
            grid(rng, 4, 4, 8), rng.standard_normal((9, 8)), AttnProjection.init(rng, 8),
            RowSet.every(4, 4),
        )


def test_attribute_enhancement_backward_fd():
    rng = np.random.default_rng(16)
    feat = grid(rng, 2, 2, 4)
    proj = AttnProjection.init(rng, 4)
    qlp = rng.standard_normal((4, 4))
    d_out = rng.standard_normal((4, 4))[None]
    rows = RowSet.every(2, 2)
    out, cache = attribute_enhancement_forward(feat, qlp, proj, rows)
    grads = attribute_enhancement_backward(rows_first(d_out), cache)

    def run():
        return full(attribute_enhancement_forward(feat, qlp, proj, rows)[0])

    for arr, an in ((qlp, grads["qlp"]), (feat.values, rows.put(grads["feat"])),
                    (proj.wk, grads["wk"]), (proj.wv, grads["wv"])):
        assert rel_err(an, central_diff(run, arr, d_out)) < 1e-6


# --- instance_attention ------------------------------------------------------

def test_instance_attention_zero_mask():
    rng = np.random.default_rng(17)
    proj = AttnProjection.init(rng, 4)
    out = instance_attention_forward(
        grid(rng, 3, 3, 4), keys(EmbeddingSeq(rng.standard_normal((2, 4))), proj),
        proj, rows_of(np.zeros((3, 3))),
    )[0]
    assert not full(out).any()


def test_instance_attention_single_token():
    rng = np.random.default_rng(18)
    r_ae = grid(rng, 3, 3, 4)
    e_i = EmbeddingSeq(rng.standard_normal((1, 4)))
    proj = AttnProjection.init(rng, 4)
    mask = random_mask(rng, 3, 3)
    out = instance_attention_forward(r_ae, keys(e_i, proj), proj, RowSet.of(mask))[0]
    token_v = (e_i.values @ proj.wv)[0]
    inside = mask.ravel() == 1
    assert np.allclose(full(out)[0, inside], np.broadcast_to(token_v, (inside.sum(), 4)), atol=1e-14)


def test_instance_attention_oracle():
    rng = np.random.default_rng(19)
    r_ae = grid(rng, 4, 4, 8)
    e_i = EmbeddingSeq(rng.standard_normal((3, 8)))
    proj = AttnProjection.init(rng, 8)
    mask = random_mask(rng, 4, 4)
    got = instance_attention_forward(r_ae, keys(e_i, proj), proj, RowSet.of(mask))[0]
    want = attention_oracle(r_ae.values[0] @ proj.wq, e_i.values @ proj.wk, e_i.values @ proj.wv)
    want = want * mask.ravel()[:, None]
    assert rel_err(full(got)[0], want) <= 1e-12


def test_instance_attention_backward_fd():
    rng = np.random.default_rng(20)
    r_ae = grid(rng, 2, 2, 4)
    e_i = EmbeddingSeq(rng.standard_normal((2, 4)))
    proj = AttnProjection.init(rng, 4)
    rows = rows_of([[1.0, 0.0], [1.0, 1.0]])
    d_out = rng.standard_normal((4, 4))[None]
    out, cache = instance_attention_forward(r_ae, keys(e_i, proj), proj, rows)
    grads = instance_attention_backward(rows_first(d_out), cache)

    def run():
        return full(instance_attention_forward(r_ae, keys(e_i, proj), proj, rows)[0])

    for arr, an in ((r_ae.values, rows.put(grads["feat"])), (e_i.values, grads["emb"]),
                    (proj.wq, grads["wq"]), (proj.wk, grads["wk"]), (proj.wv, grads["wv"])):
        assert rel_err(an, central_diff(run, arr, d_out)) < 1e-6


# --- relation_attention ------------------------------------------------------

@pytest.mark.parametrize("forward", [
    masked_text_attention_forward, instance_attention_forward, relation_attention_forward,
])
def test_token_width_mismatch_raises(forward):
    rng = np.random.default_rng(36)
    feat = grid(rng, 4, 4, 8)
    tokens = keys(EmbeddingSeq(rng.standard_normal((3, 6))), AttnProjection.init(rng, 6))
    with pytest.raises(ShapeMismatch):
        forward(feat, tokens, AttnProjection.init(rng, 8), RowSet.every(4, 4))


def test_relation_zero_total_mask():
    rng = np.random.default_rng(26)
    feat = grid(rng, 4, 4, 8)
    verb = EmbeddingSeq(rng.standard_normal((2, 8)))
    proj = AttnProjection.init(rng, 8)
    out = relation_attention_forward(feat, keys(verb, proj), proj, rows_of(np.zeros((4, 4))))[0]
    assert not full(out).any()


def test_relation_single_verb_full_mask():
    rng = np.random.default_rng(27)
    feat = grid(rng, 4, 4, 8)
    verb = EmbeddingSeq(rng.standard_normal((1, 8)))
    proj = AttnProjection.init(rng, 8)
    out = relation_attention_forward(feat, keys(verb, proj), proj, RowSet.every(4, 4))[0]
    assert np.allclose(out.values, np.broadcast_to((verb.values @ proj.wv)[0], (1, 16, 8)), atol=1e-14)


def test_relation_backward_fd():
    rng = np.random.default_rng(28)
    feat = grid(rng, 2, 2, 4)
    verb = EmbeddingSeq(rng.standard_normal((2, 4)))
    proj = AttnProjection.init(rng, 4)
    rows = rows_of([[1.0, 0.0], [0.0, 1.0]])
    d_out = rng.standard_normal((4, 4))[None]
    out, cache = relation_attention_forward(feat, keys(verb, proj), proj, rows)
    grads = relation_attention_backward(rows_first(d_out), cache)

    def run():
        return full(relation_attention_forward(feat, keys(verb, proj), proj, rows)[0])

    for arr, an in ((feat.values, rows.put(grads["feat"])), (verb.values, grads["emb"]),
                    (proj.wq, grads["wq"]), (proj.wk, grads["wk"]), (proj.wv, grads["wv"])):
        assert rel_err(an, central_diff(run, arr, d_out)) < 1e-6


# --- in-mask rows ------------------------------------------------------------
# The masked ops compute only the query rows their mask keeps; the dense
# oracle with the other rows zeroed is the reference.

def mask_case(name, rng, side=8):
    if name == "empty":
        return np.zeros((side, side), dtype=bool)
    if name == "one_cell":
        mask = rasterize_mask(BBox(0.03125, 0.46875, 0.1875, 0.65625), side, side)
        assert mask.sum() == 1
        return mask
    if name == "full":
        return np.ones((side, side), dtype=bool)
    return random_mask(rng, side, side)


MASK_CASES = ("empty", "one_cell", "full", "random")


@pytest.mark.parametrize("case", MASK_CASES)
def test_in_mask_ops_match_masked_oracle(case):
    rng = np.random.default_rng(29)
    mask = mask_case(case, rng)
    keep, rows = mask.ravel()[:, None], RowSet.of(mask)
    feat = grid(rng, 8, 8, 8)
    x = feat.values[0]
    emb = EmbeddingSeq(rng.standard_normal((3, 8)))
    proj = AttnProjection.init(rng, 8)
    want = keep * attention_oracle(x @ proj.wq, emb.values @ proj.wk, emb.values @ proj.wv)
    # the text, instance and relation ops are one masked op
    assert masked_text_attention_forward is instance_attention_forward is relation_attention_forward
    got = full(masked_text_attention_forward(feat, keys(emb, proj), proj, rows)[0])[0]
    assert rel_err(got, want) <= 1e-12
    assert not np.signbit(got[keep[:, 0] == 0]).any()  # bitwise +0.0
    # attribute enhancement reads masked features, zero outside the mask;
    # the oracle takes every row as a key
    qlp, x = rng.standard_normal((64, 8)), keep * x
    got = full(attribute_enhancement_forward(FeatureGrid(x[None], feat.rows), qlp, proj, rows)[0])[0]
    want = keep * attention_oracle(qlp, x @ proj.wk, x @ proj.wv)
    assert rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("forward", [
    masked_text_attention_forward, attribute_enhancement_forward, instance_attention_forward,
    relation_attention_forward,
], ids=["masked_text_attention", "attribute_enhancement", "instance_attention",
        "relation_attention"])
def test_mask_shape_mismatch_raises(forward):
    # every masked op reads its input at its mask's rows through
    # `FeatureGrid.at`, which rejects a mask from another grid, whether the
    # input is a full grid or holds the rows of a mask of its own
    rng = np.random.default_rng(31)
    feat = grid(rng, 4, 4, 4)
    own = RowSet.of(random_mask(rng, 4, 4))
    proj = AttnProjection.init(rng, 4)
    second = (rng.standard_normal((16, 4)) if forward is attribute_enhancement_forward
              else keys(EmbeddingSeq(rng.standard_normal((3, 4))), proj))
    for held in (feat, FeatureGrid(own.take(feat.values), own)):
        with pytest.raises(ShapeMismatch):
            forward(held, second, proj, rows_of(np.eye(2)))


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
        return full(attribute_enhancement_forward(feat, qlp, proj, rows)[0])

    for arr, an in ((qlp, grads["qlp"]), (feat.values, rows.put(grads["feat"])),
                    (proj.wk, grads["wk"]), (proj.wv, grads["wv"])):
        assert rel_err(an, central_diff(run_ae, arr, d_out)) < 1e-6

    _, cache = masked_text_attention_forward(feat, keys(emb, proj), proj, rows)
    grads = masked_text_attention_backward(rows_first(d_out), cache)

    def run_text():
        return full(masked_text_attention_forward(feat, keys(emb, proj), proj, rows)[0])

    for arr, an in ((feat.values, rows.put(grads["feat"])), (emb.values, grads["emb"]),
                    (proj.wq, grads["wq"]), (proj.wk, grads["wk"]), (proj.wv, grads["wv"])):
        assert rel_err(an, central_diff(run_text, arr, d_out)) < 1e-6


# --- kept-key attribute enhancement --------------------------------------------
# Attribute enhancement reads only its rows as keys and values; the rows
# outside, zero in its input, enter each softmax as counted zero keys.  The
# whole-RowSet op over the masked features, every row a key, is the dense
# reference.

def test_zero_keys_equal_appended_zero_rows():
    rng = np.random.default_rng(40)
    q, k, v = rng.standard_normal((3, 2, 5, 4))
    # the second matrix's scores are far below 0, where exp(-max) overflows
    # if it is taken for a matrix without zero keys
    q[1] *= 200.0
    k[1] = -q[1]
    zero_keys = np.array([3, 0])[:, None, None]
    got = scaled_dot_attention_forward(q, k, v, zero_keys=zero_keys)[0]
    zeros = np.zeros((3, 4))
    want = [scaled_dot_attention_forward(q[0], np.vstack([k[0], zeros]),
                                         np.vstack([v[0], zeros]))[0],
            scaled_dot_attention_forward(q[1], k[1], v[1])[0]]
    assert rel_err(got, np.stack(want)) <= 1e-12
    assert np.array_equal(got[1], want[1])  # no zero keys: the arithmetic is unchanged
    # one int count for every row takes its own path: the bytes of that count
    # as an array, and a count of 0 those of no count
    for count in (3, 0):
        as_int = scaled_dot_attention_forward(q, k, v, zero_keys=count)[0]
        as_array = scaled_dot_attention_forward(q, k, v, zero_keys=np.full((2, 1, 1), count))[0]
        assert np.array_equal(as_int, as_array)
    assert np.array_equal(as_int, scaled_dot_attention_forward(q, k, v)[0])


def packed_rows(stack, side=8):
    """Packed sets over a stack of `stack` grids, padded to the longest; a
    stack of 5 leaves grid 1 without a set."""
    rng = np.random.default_rng(41)
    names, grids = {1: (("random",), [0]),
                    4: (("random", "one_cell", "full", "empty"), [0, 2, 3, 1]),
                    5: (("random", "one_cell", "full", "empty"), [0, 2, 4, 3])}[stack]
    return RowSet.pack([RowSet.of(mask_case(n, rng, side)) for n in names], grids, stack)


AE_CASES = [(case, k) for case in MASK_CASES for k in (1, 4)]
AE_CASES += [("packed", k) for k in (1, 4, 5)]


def ae_case(case, k, side=8, d=8):
    """rows, their bool mask (K, h*w), masked features and queries."""
    rng = np.random.default_rng(42)
    if case == "packed":
        rows = packed_rows(k, side)
        mask = rows.mask
    else:
        rows = RowSet.of(mask_case(case, rng, side))
        mask = np.broadcast_to(rows.mask, (k, side * side))
    values = rng.standard_normal((k, side * side, d)) * mask[..., None]
    feat = FeatureGrid(values, RowSet.every(side, side))
    return rows, mask, feat, rng.standard_normal((side * side, d))


@pytest.mark.parametrize("case, k", AE_CASES)
def test_kept_key_enhancement_matches_dense_reference(case, k):
    rows, mask, feat, qlp = ae_case(case, k)
    assert case != "packed" or k == 1 or not rows.keep.all()
    proj = AttnProjection.init(np.random.default_rng(43), 8)
    got, cache = attribute_enhancement_forward(feat, qlp, proj, rows)
    dense = attribute_enhancement_forward(feat, qlp, proj, RowSet.every(8, 8))[0].values
    assert rel_err(full(got), mask[..., None] * dense) <= 1e-12
    # the feature gradient outside the rows is bitwise +0.0
    d_out = np.random.default_rng(44).standard_normal(feat.values.shape)
    d_feat = rows.put(attribute_enhancement_backward(rows_first(d_out), cache)["feat"])
    outside = d_feat[mask == 0]
    assert not outside.any() and not np.signbit(outside).any()


def test_packed_enhancement_backward_fd():
    # grids 0, 2, 4 and 3 of a stack of 5 at 4x4, padded; grid 1 keeps no row
    rows, _, feat, qlp = ae_case("packed", 5, side=4, d=4)
    proj = AttnProjection.init(np.random.default_rng(46), 4)
    d_out = np.random.default_rng(47).standard_normal(feat.values.shape)
    _, cache = attribute_enhancement_forward(feat, qlp, proj, rows)
    grads = attribute_enhancement_backward(rows_first(d_out), cache)

    def run():
        return full(attribute_enhancement_forward(feat, qlp, proj, rows)[0])

    for arr, an in ((qlp, grads["qlp"]), (feat.values, rows.put(grads["feat"])),
                    (proj.wk, grads["wk"]), (proj.wv, grads["wv"])):
        assert rel_err(an, central_diff(run, arr, d_out)) < 1e-6


# --- RowSet.mask ---------------------------------------------------------------
# fusion reads a branch's mask from its rows: it must be the mask they came from

@pytest.mark.parametrize("case", MASK_CASES)
def test_row_set_mask_equals_source_mask(case):
    mask = mask_case(case, np.random.default_rng(35))
    got = RowSet.of(mask).mask
    assert got.dtype == bool and np.array_equal(got, mask.ravel())


def test_packed_row_set_mask_equals_source_masks():
    rng = np.random.default_rng(36)
    masks = [mask_case(name, rng) for name in ("random", "one_cell", "full", "empty")]
    # grids 1 and 3 of a stack of 5 have no set: they keep no row; the
    # shorter sets are padded to the longest
    grids = [0, 2, 4, 3]
    packed = RowSet.pack([RowSet.of(m) for m in masks], grids, 5)
    want = np.zeros((5, 64), dtype=bool)
    want[grids] = [m.ravel() for m in masks]
    assert packed.keep is not None and not packed.keep.all()
    assert packed.mask.dtype == bool and np.array_equal(packed.mask, want)


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
    kv = keys(emb, proj)
    calls = {
        "masked_text_attention": lambda f: masked_text_attention_forward(f, kv, proj, rows),
        "instance_attention": lambda f: instance_attention_forward(f, kv, proj, rows),
        "relation_attention": lambda f: relation_attention_forward(f, kv, proj, rows),
        "attribute_enhancement": lambda f: attribute_enhancement_forward(f, qlp, proj, rows),
    }
    for name, call in calls.items():
        got = full(call(FeatureGrid(stack, RowSet.every(8, 8)))[0])
        assert got.shape == stack.shape, name
        for k in range(3):
            alone = full(call(FeatureGrid(stack[k : k + 1], RowSet.every(8, 8)))[0])
            assert np.array_equal(got[k], alone[0]), name


def test_stacked_fuse_forward_equals_per_grid_calls():
    rng = np.random.default_rng(34)
    rows = [RowSet.of(m) for m in (np.ones((8, 8), dtype=bool), random_mask(rng, 8, 8),
                                    mask_case("one_cell", rng), np.zeros((8, 8), dtype=bool))]
    stacks = [rng.standard_normal((4, 64, 8)) for _ in rows]
    # the stack and each grid alone read one set of weights
    weights = fusion_weights([r.mask for r in rows], rng.standard_normal(len(rows)))

    def fused(pick):
        branches = [FusionBranch(FeatureGrid(r.take(pick(s)), r)) for s, r in zip(stacks, rows)]
        return fuse_forward(branches, weights)[0]

    out = fused(lambda s: s)
    for k in range(4):
        assert np.array_equal(out.values[k], fused(lambda s: s[k : k + 1]).values[0])


def test_feature_grid_rejects_wrong_rows_under_leading_axis():
    with pytest.raises(ShapeMismatch):
        FeatureGrid(np.zeros((2, 15, 3)), RowSet.every(4, 4))
    with pytest.raises(ShapeMismatch):
        FeatureGrid(np.zeros((16, 2, 3)), RowSet.every(4, 4))
    with pytest.raises(ShapeMismatch):  # one grid without its stack axis
        FeatureGrid(np.zeros((16, 3)), RowSet.every(4, 4))
    assert FeatureGrid(np.zeros((2, 16, 3)), RowSet.every(4, 4)).d == 3


def test_rows_form_holds_the_kept_rows():
    rows = RowSet.of(random_mask(np.random.default_rng(37), 4, 4))
    assert 0 < len(rows.idx) < 16
    stack = np.random.default_rng(38).standard_normal((2, 16, 3))
    held = FeatureGrid(rows.take(stack), rows)
    assert held.at(rows) is held.values  # its own rows: no gather
    assert np.array_equal(FeatureGrid(stack, RowSet.every(4, 4)).at(rows), held.values)
    assert np.array_equal(held.at(RowSet.every(4, 4)), rows.put(held.values))
    assert held.stack == 2
    with pytest.raises(ShapeMismatch):  # every row at a set that keeps fewer
        FeatureGrid(stack, rows)
