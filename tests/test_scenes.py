import hashlib

import numpy as np
import pytest

from radl.errors import PlacementFailure
from radl.layout import rasterize_mask, serialize_layout
from radl.oracles import make_scene_oracle
from radl.scenes import (
    MAX_FAILED_SEEDS,
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
    a = make_scene(7, SceneConfig(n_instances=(1, 1)))
    b = make_scene(7, SceneConfig(n_instances=(1, 1)))
    assert np.array_equal(a.image, b.image)
    assert a.layout == b.layout


def test_relation_predicates_geometrically_true():
    for scene in generate(0, 20):
        for rel in scene.layout.relations:
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


def test_generate_gives_up_after_a_run_of_failing_seeds():
    # no seed can place four boxes of half the image: the scan must end
    cfg = SceneConfig(n_instances=(4, 4), min_box=0.5, max_box=0.55)
    with pytest.raises(PlacementFailure, match=f"{MAX_FAILED_SEEDS} seeds in a row"):
        generate(0, 1, cfg)


def test_two_instance_prompt_carries_verb_and_predicate():
    for scene in generate(0, 5, SceneConfig(n_instances=(2, 2))):
        rel = scene.layout.relations[0]
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


def outcome(fn, seed, cfg):
    """(layout, image bytes) of the scene, or the exception's type and message."""
    try:
        scene = fn(seed, cfg)
    except Exception as e:  # compared by type and message
        return type(e), str(e)
    return scene.layout, scene.image.tobytes()


TIGHT = SceneConfig(n_instances=(2, 2), min_box=0.42, max_box=0.6)  # most seeds fail


@pytest.mark.parametrize("cfg", [
    CFG,
    SceneConfig(n_instances=(1, 4), min_box=0.15, max_box=0.3),
    SceneConfig(image_size=8, min_box=0.3, max_box=0.5),
    SceneConfig(n_instances=(0, 4), min_box=0.1, max_box=0.4),
    TIGHT,
    SceneConfig(image_size=16, n_instances=(1, 3), min_box=0.2, max_box=0.5),
], ids=["steer", "crowded", "8x8", "0-4", "tight", "16x16"])
def test_make_scene_equals_scalar_oracle(cfg):
    got = [outcome(make_scene, seed, cfg) for seed in range(300)]
    assert got == [outcome(make_scene_oracle, seed, cfg) for seed in range(300)]
    failed = sum(g[0] is PlacementFailure for g in got)
    assert failed < 300 and (failed > 150 or cfg is not TIGHT)


@pytest.mark.parametrize("kwargs, field", [
    (dict(min_box=0.9, max_box=1.3), "max_box"),  # was "high - low < 0" from rng.uniform
    (dict(min_box=0.6, max_box=0.5), "max_box"),
    (dict(min_box=0.0), "min_box"),
    (dict(min_box=-0.1), "min_box"),
    (dict(min_box=float("nan")), "min_box"),
    (dict(max_box=float("nan")), "max_box"),
    (dict(n_instances=(3, 2)), "n_instances"),
    (dict(n_instances=(-1, 2)), "n_instances"),
    (dict(image_size=0), "image_size"),
    (dict(image_size=6.6), "image_size"),  # boxes could snap past the edge
    (dict(n_instances=(2, 5)), "n_instances"),  # more than the palette's 4 colors
])
def test_scene_config_rejects_out_of_range(kwargs, field):
    with pytest.raises(ValueError, match=field):
        SceneConfig(**kwargs)


def test_scene_config_accepts_range_edges():
    for cfg in (SceneConfig(min_box=1.0, max_box=1.0, n_instances=(1, 1)),
                SceneConfig(image_size=1, n_instances=(0, 0))):
        assert outcome(make_scene, 0, cfg) == outcome(make_scene_oracle, 0, cfg)


def sha256_of_corpus(tmp_path, scenes):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, scenes)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generated_corpora_golden(tmp_path):
    """The steering corpus, its held-out layouts and a crowded corpus keep
    their bytes."""
    assert sha256_of_corpus(tmp_path, generate(0, 256)) == (
        "d018e6d783eef772a3204fe07974226942b234e90cf997474927357a01e193cf"
    )
    held = "".join(serialize_layout(s.layout) + "\n" for s in generate(100_000, 64))
    assert hashlib.sha256(held.encode()).hexdigest() == (
        "49f42bc67cfbb214addda1178e4ec12fc85c6dc66ea58d2dfa4d814044acec18"
    )
    crowded = generate(0, 64, SceneConfig(n_instances=(1, 4), min_box=0.15, max_box=0.3))
    assert sha256_of_corpus(tmp_path, crowded) == (
        "7119768e5a876c7293acbe7b16650cef9bf08c7b8666a174bf1427cb3bdbd8a6"
    )
