import numpy as np
import pytest

from radl.errors import PlacementFailure
from radl.layout import rasterize_mask
from radl.scenes import (
    PALETTE_RGB,
    VERB_TEMPLATES,
    SceneConfig,
    generate,
    make_scene,
    read_corpus,
    render_layout,
    write_corpus,
)

CFG = SceneConfig()


@pytest.mark.parametrize("cfg, skipped", [
    (CFG, 7), (SceneConfig(n_instances=(1, 4), min_box=0.15, max_box=0.3), 0),
], ids=["default", "crowded"])
def test_generate_skips_exactly_the_failing_seeds(cfg, skipped):
    want, seed = [], 3
    while len(want) < 40:
        try:
            want.append(make_scene(seed, cfg))
        except PlacementFailure:
            pass
        seed += 1
    assert seed - 3 - 40 == skipped
    got = generate(3, 40, cfg)
    assert [s.layout for s in got] == [s.layout for s in want]
    assert all(np.array_equal(a.image, b.image) for a, b in zip(got, want))


def test_deterministic_in_seed():
    a = make_scene(7, SceneConfig(n_instances=(1, 1), palette=("red", "blue")))
    b = make_scene(7, SceneConfig(n_instances=(1, 1), palette=("red", "blue")))
    assert np.array_equal(a.image, b.image)
    assert a.layout == b.layout


def test_relation_predicates_geometrically_true():
    for scene in generate(0, 20):
        for rel in scene.relations:
            sx, sy = scene.layout.instances[rel.subject].bbox.center
            ox, oy = scene.layout.instances[rel.obj].bbox.center
            assert {
                "above": sy < oy,
                "below": sy > oy,
                "left of": sx < ox,
                "right of": sx > ox,
            }[rel.predicate]


def test_zero_instances_blank_background():
    scene = make_scene(0, SceneConfig(n_instances=(0, 0)))
    assert scene.layout.n == 0
    assert np.all(scene.image == 0.5)


def test_color_fill_matches_label():
    for scene in generate(0, 10):
        for inst in scene.layout.instances:
            color_word = inst.label.split()[0]
            rgb = PALETTE_RGB[color_word]
            mask = rasterize_mask(inst.bbox, 32, 32)
            for c in range(3):
                assert np.all(scene.image[c][mask] == rgb[c])


def test_boxes_snap_to_pixel_grid():
    for scene in generate(0, 10):
        for inst in scene.layout.instances:
            for v in (inst.bbox.x1, inst.bbox.y1, inst.bbox.x2, inst.bbox.y2):
                assert v * 32 == round(v * 32)


def test_boxes_do_not_overlap():
    for scene in generate(0, 30):
        masks = [rasterize_mask(i.bbox, 32, 32) for i in scene.layout.instances]
        assert np.max(np.sum(masks, axis=0)) <= 1


def test_placement_failure_when_overcrowded():
    cfg = SceneConfig(n_instances=(2, 2), min_box=0.9, max_box=0.95)
    with pytest.raises(PlacementFailure):
        make_scene(0, cfg)


def test_two_instance_prompt_carries_verb_and_predicate():
    for scene in generate(0, 5, SceneConfig(n_instances=(2, 2))):
        rel = scene.relations[0]
        assert rel.predicate in scene.layout.prompt
        assert any(v in scene.layout.prompt for v in VERB_TEMPLATES)


def test_render_layout_matches_scene_image():
    scene = make_scene(4, CFG)
    again = render_layout(scene.layout, 32)
    assert np.array_equal(scene.image, again)


def test_corpus_round_trip(tmp_path):
    scenes = generate(0, 5)
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, scenes)
    loaded = read_corpus(path)
    assert len(loaded) == len(scenes)
    for a, b in zip(scenes, loaded):
        assert a.layout == b.layout
        # images round-trip through uint8
        assert np.max(np.abs(a.image - b.image)) <= 0.5 / 255
