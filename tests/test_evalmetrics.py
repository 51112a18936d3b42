import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radl.errors import UnknownColor
from radl.evalmetrics import (
    Detection,
    attribute_acc,
    detect,
    evaluate_image,
    evaluate_images,
    hsv_color_match,
    iou,
    load_hsv_table,
    match_instances,
    mean_iou,
    quantity_acc,
    relation_acc,
    rgb_to_hsv,
    success_rate,
)
from radl.layout import BBox, InstanceSpec, LayoutSpec, Relation
from radl.scenes import PALETTE_RGB, SceneConfig, generate, make_scene, render_layout

PALETTE = SceneConfig().palette
TABLE = load_hsv_table()


def solid(color, size=16):
    img = np.zeros((3, size, size))
    for c in range(3):
        img[c] = color[c]
    return img


@st.composite
def boxes(draw):
    x1 = draw(st.floats(0.0, 0.9))
    y1 = draw(st.floats(0.0, 0.9))
    x2 = draw(st.floats(x1 + 1e-3, 1.0))
    y2 = draw(st.floats(y1 + 1e-3, 1.0))
    return BBox(x1, y1, x2, y2)


# --- iou ----------------------------------------------------------------------

def test_iou_identical():
    b = BBox(0.1, 0.2, 0.6, 0.8)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(BBox(0.0, 0.0, 0.3, 0.3), BBox(0.5, 0.5, 0.9, 0.9)) == 0.0


def test_iou_half_overlap():
    # inter 0.5, union 1.0
    assert iou(BBox(0, 0, 1, 1), BBox(0.5, 0, 1.0, 1.0)) == 0.5


@given(boxes(), boxes())
@settings(max_examples=60, deadline=None)
def test_iou_symmetry_and_range(a, b):
    assert iou(a, b) == iou(b, a)
    assert 0.0 <= iou(a, b) <= 1.0
    assert iou(a, a) == pytest.approx(1.0)


# --- rgb_to_hsv ---------------------------------------------------------------

@pytest.mark.parametrize(
    "rgb,hsv",
    [
        ((1, 0, 0), (0, 1, 1)),
        ((0, 1, 0), (120, 1, 1)),
        ((0, 0, 1), (240, 1, 1)),
        ((1, 1, 0), (60, 1, 1)),
        ((0.5, 0.5, 0.5), (0, 0, 0.5)),
        ((0, 0, 0), (0, 0, 0)),
    ],
)
def test_rgb_to_hsv_known_points(rgb, hsv):
    h, s, v = rgb_to_hsv(solid(rgb, 2))
    assert h[0, 0] == pytest.approx(hsv[0], abs=1e-9)
    assert s[0, 0] == pytest.approx(hsv[1], abs=1e-9)
    assert v[0, 0] == pytest.approx(hsv[2], abs=1e-9)


# --- detect -------------------------------------------------------------------

def test_detect_round_trips_generated_scenes():
    for scene in generate(0, 5):
        dets = detect(scene.image, PALETTE)
        assert len(dets) == scene.layout.n
        for j, v in match_instances(dets, scene.layout):
            assert j is not None and v >= 0.9


def test_detect_uniform_background_empty():
    assert detect(solid((0.5, 0.5, 0.5)), PALETTE) == []


def test_detect_touching_same_color_merges():
    layout = LayoutSpec(
        prompt="two red squares",
        instances=(
            InstanceSpec("red square", BBox(0.0, 0.0, 0.5, 0.5)),
            InstanceSpec("red square", BBox(0.5, 0.0, 1.0, 0.5)),
        ),
    )
    img = render_layout(layout, 16, (0.5, 0.5, 0.5))
    dets = detect(img, PALETTE)
    assert len(dets) == 1  # connectivity cannot split same-color touching regions
    assert dets[0].dominant_color == "red"


def test_detect_min_region_size():
    img = solid((0.5, 0.5, 0.5), 16)
    img[:, 3, 3] = np.array(PALETTE_RGB["red"])  # single pixel speck
    assert detect(img, PALETTE) == []
    assert len(detect(img, PALETTE, min_region_size=1)) == 1


# --- hsv_color_match ----------------------------------------------------------

def test_hsv_solid_red_box():
    img = solid(PALETTE_RGB["red"])
    box = BBox(0.1, 0.1, 0.9, 0.9)
    assert hsv_color_match(img, box, "red") is True
    assert hsv_color_match(img, box, "blue") is False


def test_hsv_half_red_thresholds():
    img = solid((0.5, 0.5, 0.5), 16)
    img[:, :, :8] = np.array(PALETTE_RGB["red"])[:, None, None]  # left half red
    box = BBox(0.0, 0.0, 1.0, 1.0)  # coverage is exactly 0.5
    assert hsv_color_match(img, box, "red", coverage_thresh=0.2) is True
    assert hsv_color_match(img, box, "red", coverage_thresh=0.6) is False


def test_hsv_unknown_color():
    with pytest.raises(UnknownColor):
        hsv_color_match(solid((1, 0, 0)), BBox(0, 0, 1, 1), "chartreuse")


def test_hsv_wraparound_red_range():
    # hue 350 is red via the wraparound range
    img = solid((1.0, 0.0, 1.0 / 6.0))
    assert hsv_color_match(img, BBox(0, 0, 1, 1), "red") is True


# --- matching and success -----------------------------------------------------

def scene_fixture(seed=0):
    scene = make_scene(seed, SceneConfig())
    dets = detect(scene.image, PALETTE)
    return scene, dets


def test_success_perfect_reconstruction():
    scene, dets = scene_fixture()
    rate, flags = success_rate(dets, scene.layout, scene.image)
    assert rate == 1.0
    assert flags == [True] * scene.layout.n


def test_success_missing_instance_fails_image():
    scene, dets = scene_fixture()
    # drop the detection matched to instance 1
    matched = match_instances(dets, scene.layout)
    drop = matched[1][0]
    remaining = [d for i, d in enumerate(dets) if i != drop]
    rate, flags = success_rate(remaining, scene.layout, scene.image)
    assert rate == 0.0
    assert flags[0] is True and flags[1] is False


def test_success_wrong_color_fails():
    layout = LayoutSpec(
        prompt="p",
        instances=(InstanceSpec("blue square", BBox(0.25, 0.25, 0.75, 0.75)),),
    )
    red_render = render_layout(
        LayoutSpec(prompt="p", instances=(InstanceSpec("red square", layout.instances[0].bbox),)),
        32, (0.5, 0.5, 0.5),
    )
    dets = detect(red_render, PALETTE)
    rate, flags = success_rate(dets, layout, red_render)
    assert rate == 0.0 and flags == [False]
    # box geometry alone would have passed
    assert match_instances(dets, layout)[0][1] >= 0.5


def test_greedy_matching_tie_breaks():
    layout = LayoutSpec(
        prompt="p",
        instances=(
            InstanceSpec("red square", BBox(0.0, 0.0, 0.5, 0.5)),
            InstanceSpec("red square", BBox(0.0, 0.0, 0.5, 0.5)),
        ),
    )
    dets = [
        Detection(BBox(0.0, 0.0, 0.5, 0.5), "red", 64),
        Detection(BBox(0.0, 0.0, 0.5, 0.5), "red", 64),
    ]
    matched = match_instances(dets, layout)
    # ties break on (lower instance index, lower detection index)
    assert matched[0] == (0, 1.0)
    assert matched[1] == (1, 1.0)


# --- mean_iou ------------------------------------------------------------------

def test_mean_iou_perfect():
    scene, dets = scene_fixture()
    assert mean_iou(dets, scene.layout) == pytest.approx(1.0)


def test_mean_iou_no_detections():
    scene, _ = scene_fixture()
    assert mean_iou([], scene.layout) == 0.0


def test_mean_iou_one_of_two():
    layout = LayoutSpec(
        prompt="p",
        instances=(
            InstanceSpec("red square", BBox(0.0, 0.0, 0.4, 0.4)),
            InstanceSpec("blue square", BBox(0.6, 0.6, 1.0, 1.0)),
        ),
    )
    det_box = BBox(0.0, 0.0, 0.4, 0.32)  # nested box, area ratio exactly 0.8
    assert iou(det_box, layout.instances[0].bbox) == pytest.approx(0.8)
    dets = [Detection(det_box, "red", 10)]
    assert mean_iou(dets, layout) == pytest.approx(0.4)


# --- relation_acc --------------------------------------------------------------

def test_relation_generator_scene():
    scene, dets = scene_fixture()
    assert relation_acc(dets, scene.relations, scene.layout) == 1.0


def test_relation_swapped_predicate_fails():
    # detected geometry has instance 0 above instance 1; the swapped claim
    # ("below") scores zero on centroid comparison
    layout = LayoutSpec(
        prompt="p",
        instances=(
            InstanceSpec("red square", BBox(0.1, 0.1, 0.4, 0.4)),
            InstanceSpec("blue square", BBox(0.1, 0.6, 0.4, 0.9)),
        ),
    )
    dets = [
        Detection(layout.instances[0].bbox, "red", 10),
        Detection(layout.instances[1].bbox, "blue", 10),
    ]
    assert relation_acc(dets, [Relation(0, "above", 1)], layout) == 1.0
    assert relation_acc(dets, [Relation(0, "below", 1)], layout) == 0.0


def test_relation_half_matched():
    layout = LayoutSpec(
        prompt="p",
        instances=(
            InstanceSpec("red square", BBox(0.1, 0.1, 0.4, 0.4)),
            InstanceSpec("blue square", BBox(0.1, 0.6, 0.4, 0.9)),
            InstanceSpec("green square", BBox(0.6, 0.1, 0.9, 0.4)),
        ),
        relations=(Relation(0, "above", 1), Relation(2, "above", 1)),
    )
    dets = [
        Detection(layout.instances[0].bbox, "red", 10),
        Detection(layout.instances[1].bbox, "blue", 10),
        # green instance undetected -> its triple fails
    ]
    assert relation_acc(dets, layout.relations, layout) == 0.5


# --- quantity_acc ---------------------------------------------------------------

def test_quantity_cases():
    scene, dets = scene_fixture()
    assert quantity_acc(dets, scene.layout) is True
    assert quantity_acc(dets[:1], scene.layout) is False
    empty = LayoutSpec(prompt="empty")
    assert quantity_acc([], empty) is True


# --- aggregation ----------------------------------------------------------------

def test_evaluate_images_oracle_round_trip():
    scenes = generate(0, 6)
    report = evaluate_images([(s.image, s.layout) for s in scenes], PALETTE)
    assert report.success_rate == 1.0
    assert report.miou == pytest.approx(1.0)
    assert report.attribute_acc == 1.0
    assert report.quantity_acc == 1.0
    assert report.relation_acc == 1.0
    assert len(report.per_image) == 6
    assert "radl-metrics/1" in report.to_json()


def test_attribute_acc_blank_image():
    scene = make_scene(0, SceneConfig())
    blank = solid((0.5, 0.5, 0.5), 32)
    assert attribute_acc(blank, scene.layout) == 0.0
    ev = evaluate_image(blank, scene.layout, PALETTE)
    assert ev.success is False and ev.miou == 0.0
