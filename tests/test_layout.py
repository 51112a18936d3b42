import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radl.errors import InvalidBBox, MalformedDoc, ShapeMismatch, TooManyInstances
from radl.layout import (
    RELATION_PREDICATES,
    BBox,
    InstanceSpec,
    LayoutSpec,
    MaskGrid,
    Relation,
    parse_layout,
    rasterize_mask,
    serialize_layout,
    total_mask,
)
from radl.oracles import union_oracle


def rasterize_oracle(bbox: BBox, h: int, w: int) -> np.ndarray:
    """Independent per-pixel center-inclusion loop."""
    out = np.zeros((h, w))
    for r in range(h):
        for c in range(w):
            px = (c + 0.5) / w
            py = (r + 0.5) / h
            if bbox.x1 <= px < bbox.x2 and bbox.y1 <= py < bbox.y2:
                out[r, c] = 1.0
    return out


# --- parse_layout -----------------------------------------------------------

def test_parse_empty_layout():
    spec = parse_layout('{"prompt":"a cat","instances":[]}')
    assert spec.prompt == "a cat"
    assert spec.n == 0


def test_parse_passthrough():
    spec = parse_layout(
        '{"prompt":"p","instances":[{"label":"red square","bbox":[0.1,0.1,0.5,0.5]}]}'
    )
    assert spec.n == 1
    assert spec.instances[0].label == "red square"
    assert spec.instances[0].bbox == BBox(0.1, 0.1, 0.5, 0.5)


def test_parse_degenerate_box_rejected():
    doc = '{"prompt":"p","instances":[{"label":"x","bbox":[0.5,0.1,0.5,0.9]}]}'
    with pytest.raises(InvalidBBox, match="instance 0"):
        parse_layout(doc)


def test_parse_bad_json():
    with pytest.raises(MalformedDoc):
        parse_layout("{not json")


@pytest.mark.parametrize(
    "doc,msg",
    [
        ('{"instances":[]}', "prompt"),
        ('{"prompt":"p"}', "instances"),
        ('{"prompt":"p","instances":[{"bbox":[0,0,1,1]}]}', "label"),
        ('{"prompt":"p","instances":[{"label":"x"}]}', "bbox"),
        ('{"prompt":"p","instances":[{"label":" ","bbox":[0,0,1,1]}]}', "empty"),
    ],
)
def test_parse_missing_fields(doc, msg):
    with pytest.raises(MalformedDoc, match=msg):
        parse_layout(doc)


def test_parse_instance_cap():
    insts = [{"label": "x", "bbox": [0.0, 0.0, 1.0, 1.0]}] * 17
    doc = json.dumps({"prompt": "p", "instances": insts})
    with pytest.raises(TooManyInstances):
        parse_layout(doc)
    assert parse_layout(doc, max_instances=17).n == 17


def test_parse_verbs_and_relations():
    doc = json.dumps(
        {
            "prompt": "p",
            "instances": [
                {"label": "a", "bbox": [0.0, 0.0, 0.4, 0.4]},
                {"label": "b", "bbox": [0.5, 0.5, 1.0, 1.0]},
            ],
            "verbs": ["leaning"],
            "relations": [{"subject": 0, "predicate": "above", "object": 1}],
        }
    )
    spec = parse_layout(doc)
    assert spec.verbs == ("leaning",)
    assert spec.relations == (Relation(0, "above", 1),)


def test_parse_relation_index_out_of_range():
    doc = json.dumps(
        {
            "prompt": "p",
            "instances": [{"label": "a", "bbox": [0.0, 0.0, 0.4, 0.4]}],
            "relations": [{"subject": 0, "predicate": "above", "object": 3}],
        }
    )
    with pytest.raises(MalformedDoc, match="out of range"):
        parse_layout(doc)


@pytest.mark.parametrize("predicate", ["near", "Above", "left", 3, None])
def test_parse_relation_unknown_predicate_rejected(predicate):
    # evaluation scores only RELATION_PREDICATES; any other would count as
    # a failed relation
    doc = json.dumps(
        {
            "prompt": "p",
            "instances": [
                {"label": "a", "bbox": [0.0, 0.0, 0.4, 0.4]},
                {"label": "b", "bbox": [0.5, 0.5, 1.0, 1.0]},
            ],
            "relations": [{"subject": 0, "predicate": "above", "object": 1},
                          {"subject": 0, "predicate": predicate, "object": 1}],
        }
    )
    with pytest.raises(MalformedDoc, match="relation 1 'predicate'") as err:
        parse_layout(doc)
    assert str(RELATION_PREDICATES) in str(err.value)


@pytest.mark.parametrize("end", ["subject", "object"])
def test_parse_relation_bool_index_rejected(end):
    # bool is an int in Python; true would silently name instance 1
    rel = dict({"subject": 0, "predicate": "above", "object": 1}, **{end: True})
    doc = json.dumps(
        {
            "prompt": "p",
            "instances": [
                {"label": "a", "bbox": [0.0, 0.0, 0.4, 0.4]},
                {"label": "b", "bbox": [0.5, 0.5, 1.0, 1.0]},
            ],
            "relations": [rel],
        }
    )
    with pytest.raises(MalformedDoc, match="integer indices"):
        parse_layout(doc)


# --- rasterize_mask ---------------------------------------------------------

def test_rasterize_full_cover():
    m = rasterize_mask(BBox(0, 0, 1, 1), 4, 4)
    assert np.array_equal(m.values, np.ones((4, 4)))


def test_rasterize_quadrant():
    m = rasterize_mask(BBox(0.5, 0.5, 1.0, 1.0), 4, 4)
    assert np.array_equal(m.values, rasterize_oracle(BBox(0.5, 0.5, 1.0, 1.0), 4, 4))
    on = {(r, c) for r in range(4) for c in range(4) if m.values[r, c] == 1}
    assert on == {(r, c) for r in (2, 3) for c in (2, 3)}


def test_rasterize_tiny_box_empty():
    # No pixel center falls inside: tiny boxes may rasterize empty.
    m = rasterize_mask(BBox(0.9, 0.9, 0.95, 0.95), 2, 2)
    assert np.array_equal(m.values, np.zeros((2, 2)))
    assert np.array_equal(m.values, rasterize_oracle(BBox(0.9, 0.9, 0.95, 0.95), 2, 2))


@st.composite
def boxes_strategy(draw):
    x1 = draw(st.floats(0.0, 0.9))
    y1 = draw(st.floats(0.0, 0.9))
    x2 = draw(st.floats(x1 + 1e-6, 1.0))
    y2 = draw(st.floats(y1 + 1e-6, 1.0))
    return BBox(x1, y1, x2, y2)


boxes = boxes_strategy()


@given(boxes, st.sampled_from([5, 8, 16]))
@settings(max_examples=60, deadline=None)
def test_rasterize_matches_oracle(bbox, size):
    m = rasterize_mask(bbox, size, size)
    assert np.array_equal(m.values, rasterize_oracle(bbox, size, size))


@given(boxes, st.sampled_from([8, 16, 64]))
@settings(max_examples=80, deadline=None)
def test_rasterize_area_bound(bbox, size):
    m = rasterize_mask(bbox, size, size)
    frac = m.values.sum() / (size * size)
    assert abs(frac - bbox.area) <= 2.0 / size + 2.0 / size


# --- total_mask -------------------------------------------------------------

def test_total_mask_empty():
    m = total_mask([], 4, 4)
    assert np.array_equal(m.values, np.zeros((4, 4)))


def test_total_mask_single_full():
    ones = MaskGrid(np.ones((3, 5)))
    assert np.array_equal(total_mask([ones], 3, 5).values, np.ones((3, 5)))


def test_total_mask_union_oracle():
    a = rasterize_mask(BBox(0.0, 0.0, 0.6, 0.6), 8, 8)
    b = rasterize_mask(BBox(0.4, 0.4, 1.0, 1.0), 8, 8)
    got = total_mask([a, b], 8, 8)
    assert np.array_equal(got.values, union_oracle([a, b], 8, 8))


def test_total_mask_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        total_mask([MaskGrid(np.ones((2, 2))), MaskGrid(np.ones((3, 3)))], 2, 2)
    with pytest.raises(ShapeMismatch):  # masks that do not match the dims given
        total_mask([MaskGrid(np.ones((2, 2)))], 3, 3)


mask_grids = st.integers(0, 2**16 - 1).map(
    lambda bits: MaskGrid(
        np.array([(bits >> i) & 1 for i in range(16)], dtype=float).reshape(4, 4)
    )
)


@given(mask_grids)
def test_total_mask_idempotent(m):
    assert np.array_equal(total_mask([m], 4, 4).values, m.values)


@given(st.lists(mask_grids, min_size=1, max_size=4), mask_grids)
def test_total_mask_monotone(ms, extra):
    before = total_mask(ms, 4, 4).values
    after = total_mask(ms + [extra], 4, 4).values
    assert np.all(after >= before)


@given(st.lists(mask_grids, min_size=2, max_size=4), st.randoms())
def test_total_mask_commutative(ms, rnd):
    shuffled = list(ms)
    rnd.shuffle(shuffled)
    assert np.array_equal(total_mask(ms, 4, 4).values, total_mask(shuffled, 4, 4).values)


# --- round trip -------------------------------------------------------------

layout_specs = st.builds(
    LayoutSpec,
    prompt=st.text(min_size=0, max_size=20),
    instances=st.lists(
        st.builds(
            InstanceSpec,
            label=st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Lu")),
                min_size=1,
                max_size=8,
            ),
            bbox=boxes,
        ),
        max_size=4,
    ).map(tuple),
    verbs=st.one_of(st.none(), st.lists(st.sampled_from(["riding", "wearing"]), max_size=2).map(tuple)),
)


@given(layout_specs)
@settings(max_examples=60, deadline=None)
def test_layout_round_trip(spec):
    assert parse_layout(serialize_layout(spec)) == spec
