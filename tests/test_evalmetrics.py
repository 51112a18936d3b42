import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radl.errors import UnknownColor
from radl.evalmetrics import (
    COVERAGE_THRESH,
    MIN_REGION_SIZE,
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
from radl.oracles import detect_oracle
from radl.scenes import (
    BACKGROUND_RGB, PALETTE, PALETTE_RGB, SceneConfig, generate, make_scene, render_layout,
)

TABLE = load_hsv_table()
CROWDED = SceneConfig(n_instances=(4, 4), min_box=0.15, max_box=0.3)


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


# --- detect ---------------------------------------------------------------------

def assert_detect_matches_oracle(image):
    got = detect(image, PALETTE)
    assert got == detect_oracle(image, PALETTE)
    return got


def label_image(labels):
    """(3, H, W) image whose pixels are the palette colors (sorted by name)
    or, for label len(PALETTE), the background."""
    centers = np.array([PALETTE_RGB[n] for n in sorted(PALETTE)] + [BACKGROUND_RGB])
    return centers[np.asarray(labels)].transpose(2, 0, 1)


BG = len(PALETTE)  # the background's label in label_image


@pytest.mark.parametrize("shape", [(32, 32), (16, 24), (1, 32), (32, 1)])
@pytest.mark.parametrize("seed", range(4))
def test_detect_equals_oracle_on_noise(shape, seed):
    image = np.random.default_rng(seed).random((3, *shape))
    assert_detect_matches_oracle(image)


def test_detect_one_color_filling_the_frame():
    dets = assert_detect_matches_oracle(solid(PALETTE_RGB["red"], 32))
    assert dets == [Detection(BBox(0.0, 0.0, 1.0, 1.0), "red", 32 * 32)]


def test_detect_checkerboard_keeps_diagonal_contact_split():
    red = sorted(PALETTE).index("red")
    blocks = (np.add.outer(np.arange(16) // 2, np.arange(16) // 2) % 2 == 0)
    # 2x2 red blocks that touch only at corners: 32 regions of 4 pixels
    dets = assert_detect_matches_oracle(label_image(np.where(blocks, red, BG)))
    assert len(dets) == 32 and all(d.pixel_count == 4 for d in dets)
    # red and blue single pixels: every region is a 1-pixel speck
    blue = sorted(PALETTE).index("blue")
    pixels = np.add.outer(np.arange(16), np.arange(16)) % 2 == 0
    assert assert_detect_matches_oracle(label_image(np.where(pixels, red, blue))) == []


def test_detect_touching_same_color_merges():
    layout = LayoutSpec(
        prompt="two red squares and a blue one",
        instances=(
            InstanceSpec("red square", BBox(0.0, 0.0, 0.5, 0.5)),
            InstanceSpec("red square", BBox(0.5, 0.25, 1.0, 0.75)),
            InstanceSpec("blue square", BBox(0.25, 0.5, 0.5, 1.0)),
        ),
    )
    img = render_layout(layout, 16)
    dets = assert_detect_matches_oracle(img)
    # connectivity cannot split same-color touching regions
    assert [d.dominant_color for d in dets] == ["red", "blue"]


def test_detect_round_trips_generated_scenes():
    for scene in generate(0, 8) + generate(0, 8, CROWDED):
        dets = assert_detect_matches_oracle(scene.image)
        assert len(dets) == scene.layout.n
        for j, v in match_instances(dets, scene.layout):
            assert j is not None and v >= 0.9


def test_detect_uniform_background_empty():
    assert assert_detect_matches_oracle(solid((0.5, 0.5, 0.5))) == []


def test_detect_min_region_size():
    # the boundary sits at MIN_REGION_SIZE = 4: a 3-pixel L is dropped and a
    # 2x2 speck is kept
    assert MIN_REGION_SIZE == 4
    red = sorted(PALETTE).index("red")
    labels = np.full((16, 16), BG)
    labels[2, 2] = labels[3, 2] = labels[3, 3] = red  # L
    labels[8:10, 8:10] = red  # 2x2 speck
    dets = assert_detect_matches_oracle(label_image(labels))
    assert dets == [Detection(BBox(0.5, 0.5, 0.625, 0.625), "red", 4)]


@st.composite
def label_fields(draw):
    h = draw(st.integers(1, 8))
    w = draw(st.integers(1, 8))
    colors = draw(st.lists(st.integers(0, BG), min_size=1, max_size=3))
    return np.array(draw(st.lists(st.sampled_from(colors), min_size=h * w, max_size=h * w))).reshape(h, w)


@given(label_fields())
@settings(max_examples=200, deadline=None)
def test_detect_equals_oracle_on_label_fields(labels):
    assert_detect_matches_oracle(label_image(labels))


# --- hsv_color_match ----------------------------------------------------------

def test_hsv_solid_red_box():
    hsv = rgb_to_hsv(solid(PALETTE_RGB["red"]))
    box = BBox(0.1, 0.1, 0.9, 0.9)
    assert hsv_color_match(hsv, box, "red", TABLE) is True
    assert hsv_color_match(hsv, box, "blue", TABLE) is False


def test_hsv_half_red_thresholds():
    box = BBox(0.0, 0.0, 1.0, 1.0)
    for red_cols, want in ((8, True), (2, False)):  # coverage 0.5 and 0.125
        assert (red_cols / 16 >= COVERAGE_THRESH) is want
        img = solid((0.5, 0.5, 0.5), 16)
        img[:, :, :red_cols] = np.array(PALETTE_RGB["red"])[:, None, None]  # left columns red
        assert hsv_color_match(rgb_to_hsv(img), box, "red", TABLE) is want


def test_hsv_unknown_color():
    with pytest.raises(UnknownColor):
        hsv_color_match(rgb_to_hsv(solid((1, 0, 0))), BBox(0, 0, 1, 1), "chartreuse", TABLE)


def test_hsv_wraparound_red_range():
    # hue 350 is red via the wraparound range
    img = solid((1.0, 0.0, 1.0 / 6.0))
    assert hsv_color_match(rgb_to_hsv(img), BBox(0, 0, 1, 1), "red", TABLE) is True


# --- matching and success -----------------------------------------------------

def scene_fixture(seed=0):
    scene = make_scene(seed, SceneConfig())
    dets = detect(scene.image, PALETTE)
    return scene, dets


def success(dets, layout, image):
    return success_rate(dets, match_instances(dets, layout), layout, rgb_to_hsv(image), TABLE)


def test_success_perfect_reconstruction():
    scene, dets = scene_fixture()
    rate, flags = success(dets, scene.layout, scene.image)
    assert rate == 1.0
    assert flags == [True] * scene.layout.n


def test_success_missing_instance_fails_image():
    scene, dets = scene_fixture()
    # drop the detection matched to instance 1
    matched = match_instances(dets, scene.layout)
    drop = matched[1][0]
    remaining = [d for i, d in enumerate(dets) if i != drop]
    rate, flags = success(remaining, scene.layout, scene.image)
    assert rate == 0.0
    assert flags[0] is True and flags[1] is False


def test_success_wrong_color_fails():
    layout = LayoutSpec(
        prompt="p",
        instances=(InstanceSpec("blue square", BBox(0.25, 0.25, 0.75, 0.75)),),
    )
    red_render = render_layout(
        LayoutSpec(prompt="p", instances=(InstanceSpec("red square", layout.instances[0].bbox),)),
        32,
    )
    dets = detect(red_render, PALETTE)
    rate, flags = success(dets, layout, red_render)
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
    assert mean_iou(dets, match_instances(dets, scene.layout)) == pytest.approx(1.0)


def test_mean_iou_no_detections():
    scene, _ = scene_fixture()
    assert mean_iou([], match_instances([], scene.layout)) == 0.0


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
    assert mean_iou(dets, match_instances(dets, layout)) == pytest.approx(0.4)


# --- relation_acc --------------------------------------------------------------

def test_relation_generator_scene():
    scene, dets = scene_fixture()
    assert relation_acc(dets, match_instances(dets, scene.layout), scene.layout.relations) == 1.0


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
    matched = match_instances(dets, layout)
    assert relation_acc(dets, matched, [Relation(0, "above", 1)]) == 1.0
    assert relation_acc(dets, matched, [Relation(0, "below", 1)]) == 0.0


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
    assert relation_acc(dets, match_instances(dets, layout), layout.relations) == 0.5


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
    report = evaluate_images([(s.image, s.layout) for s in scenes], TABLE)
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
    assert attribute_acc(rgb_to_hsv(blank), scene.layout, TABLE) == 0.0
    ev = evaluate_image(blank, scene.layout, TABLE)
    assert ev.success is False and ev.miou == 0.0


def noisy(image, seed, amount=0.5):
    """The image with uniform noise mixed in: many small detections."""
    noise = np.random.default_rng(seed).random(image.shape)
    return (1.0 - amount) * image + amount * noise


def test_evaluate_image_equals_separate_metrics():
    # evaluate_image computes HSV and the matching once; each metric here
    # gets its own rgb_to_hsv and match_instances
    scenes = generate(0, 4) + generate(0, 4, CROWDED)
    cases = [(s.image, s.layout) for s in scenes[::3]]
    cases += [(noisy(s.image, i), s.layout) for i, s in enumerate(scenes)]
    cases += [(np.random.default_rng(i).random((3, 32, 32)), scenes[i].layout) for i in range(2)]
    verdicts, counts = set(), []
    for image, layout in cases:
        dets = detect(image, PALETTE)
        ev = evaluate_image(image, layout, TABLE)
        rate, flags = success(dets, layout, image)
        assert (ev.success, ev.instance_flags) == (rate == 1.0, flags)
        assert ev.miou == mean_iou(dets, match_instances(dets, layout))
        assert ev.attribute_acc == attribute_acc(rgb_to_hsv(image), layout, TABLE)
        assert ev.quantity_ok == quantity_acc(dets, layout)
        assert ev.relation_acc == relation_acc(
            dets, match_instances(dets, layout), layout.relations
        )
        assert (ev.n_instances, ev.n_detections, ev.n_relations) == (
            layout.n, len(dets), len(layout.relations)
        )
        verdicts.add(ev.success)
        counts.append(len(dets) - layout.n)
    assert verdicts == {True, False}
    assert sum(c >= 5 for c in counts) >= 6  # images with many extra detections
    assert all(layout.relations for _, layout in cases)
