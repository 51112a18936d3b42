import hashlib
import json
import struct
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from radl import cli, pipeline
from radl.checkpoint import MAGIC, load_tensors, save_tensors
from radl.cli import main
from radl.errors import InvalidBBox
from radl.evalmetrics import load_hsv_table
from radl.imageio import read_ppm, write_ppm
from radl.layout import serialize_layout
from radl.pipeline import init_denoiser, params_to_dict
from radl.scenes import SceneConfig, generate, write_corpus
from radl.text import default_verb_lexicon, load_verb_lexicon

SMALL = dict(
    d=4, image_size=8, t_train=12, t_sample=6, radl_steps=3,
    train_steps=5, batch_size=2, warmup=2, seed=0,
)


def small_scenes(count=4):
    return generate(0, count, SceneConfig(image_size=8, min_box=0.3, max_box=0.5))


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path / "corpus.jsonl", small_scenes())
    cfg = dict(SMALL)
    cfg["checkpoint"] = str(tmp_path / "model.ckpt")
    cfg["corpus"] = str(tmp_path / "corpus.jsonl")
    cfg["out"] = str(tmp_path / "out")
    (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    layout = small_scenes(1)[0].layout
    (tmp_path / "layout.json").write_text(serialize_layout(layout), encoding="utf-8")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


# --- config handling ----------------------------------------------------------

def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"not_a_key": 1}', encoding="utf-8")
    assert run("--config", path, "selftest") == 2
    assert "unknown keys" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert run("--config", tmp_path / "nope.json", "selftest") == 3


@pytest.mark.parametrize("key, value", [
    ("batch_size", 0),       # was ZeroDivisionError
    ("train_steps", -1),     # was exit 0 having trained nothing
    ("d", 1),                # was ValueError
    ("image_size", 30),      # not a multiple of 4
    ("image_size", 4),       # below 8
    ("lr", "x"),             # was TypeError
    ("batch_size", True),    # bool in a numeric field
    ("t_train", 1),          # was ValueError from the noise schedule
    ("seed", -1),            # was ValueError from the seed sequence
    ("threads", -2),         # not a setting: an unknown key
    ("threads", 0),
    ("lr", float("nan")),    # json reads NaN: was exit 0 or 4 on non-finite weights
    ("lr", float("inf")),
    ("weight_decay", float("nan")),   # was exit 4, a non-finite loss
    ("weight_decay", float("inf")),
    ("weight_decay", float("-inf")),
])
def test_bad_config_value_exit_2(workdir, key, value, capsys):
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    cfg[key] = value
    (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert run("--config", workdir / "config.json", "train") == 2
    assert key in capsys.readouterr().err


# 10**15 steps is far beyond any address space, so each allocation fails at once
@pytest.mark.parametrize("key, command", [
    ("t_train", ["train"]),                   # was exit 1, MemoryError from the temb allocation
    ("t_train", ["gradcheck", "--scenes", 1]),
    ("t_sample", ["gen", "layout.json"]),     # was exit 1, MemoryError from the schedule
])
def test_config_too_large_to_allocate_exit_2(workdir, key, command, capsys):
    cfg_path = workdir / "config.json"
    if command[0] == "gen":
        assert run("--config", cfg_path, "--steps", 0, "train") == 0
    cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    cfg[key] = 10**15
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    capsys.readouterr()
    assert run("--config", cfg_path, *command) == 2
    err = capsys.readouterr().err
    assert "memory" in err and len(err.splitlines()) == 1


# --- train ----------------------------------------------------------------------

def test_train_fresh_run(workdir):
    assert run("--config", workdir / "config.json", "train") == 0
    assert (workdir / "model.ckpt").exists()
    csv = (workdir / "out" / "loss.csv").read_text().strip().splitlines()
    assert csv[0] == "step,loss,lr"
    assert len(csv) == 1 + SMALL["train_steps"]
    assert csv[1].startswith("0,")


def test_train_zero_steps_equals_init(workdir):
    assert run("--config", workdir / "config.json", "--steps", 0, "train") == 0
    tensors, meta = load_tensors(workdir / "model.ckpt")
    init = params_to_dict(init_denoiser(0, d=4, image_size=8, t_train=12))
    for name, arr in init.items():
        assert np.array_equal(tensors[name], arr), name
    assert meta["step"] == 0


def test_train_missing_corpus(tmp_path, capsys):
    cfg = dict(SMALL, corpus=str(tmp_path / "absent.jsonl"))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert run("--config", path, "train") == 3
    assert "corpus" in capsys.readouterr().err


@pytest.mark.parametrize("damage", [
    "no_image", "no_layout", "not_object", "short_image",
    "negative_height",  # was read as 8, reshape inferring the size
    "bool_height",      # was read as 1
    "other_size",       # was exit 1 from stacking 8x8 and 4x4 images
    "not_square",       # was exit 2 from the denoiser, naming no file
    "bad_box",          # was exit 2 naming no file
])
def test_train_bad_corpus_line_exit_2(workdir, damage, capsys):
    corpus = workdir / "corpus.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[1])
    image = obj.get("image")
    if damage == "no_image":
        del obj["image"]
    elif damage == "no_layout":
        del obj["layout"]
    elif damage == "not_object":
        obj = [1, 2]
    elif damage == "short_image":
        image["height"] += 1
    elif damage == "negative_height":
        image["height"] = -1
    elif damage == "bool_height":
        image.update(height=True, data="A" * 32)  # 24 bytes, one 8-pixel row
    elif damage == "other_size":
        image.update(height=4, width=4, data="A" * 64)
    elif damage == "not_square":
        image.update(height=4, width=16)  # as many bytes as 8x8
    else:
        obj["layout"]["instances"][0]["bbox"] = [0.5, 0.1, 0.2, 0.9]
    lines[1] = json.dumps(obj)
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("--config", workdir / "config.json", "train") == 2
    assert "corpus.jsonl:2:" in capsys.readouterr().err


def test_train_corpus_of_other_size_exit_2(workdir, capsys):
    # was exit 2 from the denoiser's shape check, naming no file
    write_corpus(workdir / "corpus.jsonl", generate(0, 2, SceneConfig(image_size=16)))
    assert run("--config", workdir / "config.json", "train") == 2
    err = capsys.readouterr().err
    assert "corpus.jsonl" in err and "16x16" in err and "image_size is 8" in err


def test_train_resume_continues_step(workdir):
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "train") == 0
    assert run("--config", cfg_path, "--resume", workdir / "model.ckpt", "train") == 0
    csv = (workdir / "out" / "loss.csv").read_text().strip().splitlines()
    assert csv[1].startswith(f"{SMALL['train_steps']},")
    _, meta = load_tensors(workdir / "model.ckpt")
    assert meta["step"] == 2 * SMALL["train_steps"]


def test_train_resume_matches_unbroken_run(workdir):
    cfg_path = workdir / "config.json"
    # unbroken 10-step run
    assert run("--config", cfg_path, "--steps", 10, "train") == 0
    unbroken, _ = load_tensors(workdir / "model.ckpt")
    # 5 + 5 resumed
    assert run("--config", cfg_path, "--steps", 5, "train") == 0
    assert run("--config", cfg_path, "--steps", 5, "--resume", workdir / "model.ckpt", "train") == 0
    resumed, _ = load_tensors(workdir / "model.ckpt")
    for name in unbroken:
        assert np.array_equal(unbroken[name], resumed[name]), name


@pytest.mark.parametrize("command", ["resume", "gen"])
@pytest.mark.parametrize("key, value", [
    ("embed_seed", 7), ("d", 6), ("image_size", 12), ("t_train", 20),
])
def test_config_checkpoint_mismatch_exit_2(workdir, command, key, value, capsys):
    # a resumed run with another embed_seed trained on other embeddings than
    # the unbroken run, and rewrote the checkpoint's meta
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "--steps", 2, "train") == 0
    cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
    cfg[key] = value
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = (["--resume", workdir / "model.ckpt", "train"] if command == "resume"
            else ["gen", workdir / "layout.json"])
    assert run("--config", cfg_path, *argv) == 2
    err = capsys.readouterr().err
    assert "model.ckpt" in err and f"{key} {SMALL.get(key, 0)}" in err and str(value) in err


# sha256 of `radl train`'s checkpoint and loss.csv for each variant and
# train mode, and of `radl gen`'s two images and traces from each variant's
# mirror checkpoint, all at SMALL sizes on the workdir corpus and layout
GOLDEN_TRAIN_GEN_SHA256 = {
    "train.full.mirror": "5277fe7720b8fbc7ba3bcc373cdbf359726e5a582f13876797e854b90db8f5e1",
    "train.full.always_on": "d0bfcb58af04efa4641b3224113a6923b1640e344cb5324775834bd338abbcd0",
    "gen.full": "403126dae9da56f195df8045b7fa2569d65070e232d04ab08bae2aea15da8f57",
    "train.text_attn_only.mirror": "f5c8b324a333f14a4e90ad63be28b3b2acbca9990b6d703f5a97ac05c355b35d",
    "train.text_attn_only.always_on": "a4f6cadbd5a7a3fd0dd4921a94cd49538b8f288c662f35273378e83692259e48",
    "gen.text_attn_only": "e79ed4c67f7d73b2e1e95dca846dcacc8b272927f845d916571477fe4ae720f8",
    "train.no_relation.mirror": "d2be8f3a7b9208dc261664a2dc0ec7a9d602e99b8fe941b3496f39d17753be5c",
    "train.no_relation.always_on": "672f0cdfea5c9454e42b4993f87d22c1197948082499fc4756725d5917981b5c",
    "gen.no_relation": "76b344d324f434491603d40a7d0d5b8ad5b5170bbb323f8fd1d96aa351159d53",
}


def test_train_and_gen_bytes_golden(workdir):
    base = json.loads((workdir / "config.json").read_text(encoding="utf-8"))

    def digest(paths):
        return hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()

    got = {}
    for variant in pipeline.VARIANTS:
        for mode in pipeline.TRAIN_MODES:
            name = f"{variant}.{mode}"
            cfg = dict(base, variant=variant, radl_train_mode=mode,
                       checkpoint=str(workdir / f"{name}.ckpt"), out=str(workdir / name))
            (workdir / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
            assert run("--config", workdir / f"{name}.json", "train") == 0
            got[f"train.{name}"] = digest([workdir / f"{name}.ckpt", workdir / name / "loss.csv"])
        out = workdir / f"gen.{variant}"
        assert run("--config", workdir / f"{variant}.mirror.json", "--out", out,
                   "gen", workdir / "layout.json", 2) == 0
        got[f"gen.{variant}"] = digest(sorted(out.iterdir()))
    assert got == GOLDEN_TRAIN_GEN_SHA256


def test_train_determinism_byte_identical(workdir):
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "train") == 0
    first = (workdir / "model.ckpt").read_bytes()
    assert run("--config", cfg_path, "train") == 0
    assert (workdir / "model.ckpt").read_bytes() == first


# --- gen -------------------------------------------------------------------------

def test_gen_missing_checkpoint(workdir, capsys):
    assert run("--config", workdir / "config.json", "gen", workdir / "layout.json") == 3
    assert "checkpoint" in capsys.readouterr().err


def rewrite_header(ckpt, edit):
    """Apply edit to a checkpoint's JSON header in place, payload untouched."""
    data = ckpt.read_bytes()
    (size,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(data[start:start + size])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    ckpt.write_bytes(MAGIC + struct.pack("<Q", len(raw)) + raw + data[start + size:])


HEADER_DAMAGE = {
    "no_tensors_key": lambda h: h.pop("tensors"),                     # was KeyError
    "meta_not_object": lambda h: h.update(meta=[4]),                  # was AttributeError
    "d_not_int": lambda h: h["meta"].update(d="4"),                   # was ValueError
    # was numpy's UFuncNoLoopError
    "shape_not_numeric": lambda h: h["tensors"]["enc1.b"].update(shape=["x"]),
    "shape_mismatch": lambda h: h["tensors"]["enc1.w"].update(shape=[4, 12]),   # was ValueError
    "sizes_exceed_tensors": lambda h: h["meta"].update(d=10**6),
    "opt_shape_mismatch": lambda h: h["tensors"]["opt.v.enc1.w"].update(shape=[4, 12]),
    "unknown_tensor": lambda h: h["tensors"].update(extra={"shape": [], "offset": 0}),
    "step_not_int": lambda h: h["meta"].update(step="0"),
    "embed_seed_not_int": lambda h: h["meta"].update(embed_seed=1.5),
}


@pytest.mark.parametrize(
    "damage", ["truncated", "no_tensor", "no_meta_key", "schema", *HEADER_DAMAGE]
)
def test_gen_bad_checkpoint_exit_2(workdir, damage, capsys):
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "--steps", 0, "train") == 0
    ckpt = workdir / "model.ckpt"
    if damage == "truncated":
        ckpt.write_bytes(ckpt.read_bytes()[:-8])
    elif damage in HEADER_DAMAGE:
        rewrite_header(ckpt, HEADER_DAMAGE[damage])
    else:
        tensors, meta = load_tensors(ckpt)
        if damage == "no_tensor":
            del tensors["enc1.w"]
        elif damage == "no_meta_key":
            del meta["d"]
        else:
            meta["schema"] = "radl-ckpt/0"
        save_tensors(ckpt, tensors, meta)
    assert run("--config", cfg_path, "gen", workdir / "layout.json") == 2
    assert "model.ckpt" in capsys.readouterr().err


def test_schema_1_checkpoint_exit_2(workdir, capsys):
    # the format before attribute enhancement dropped its query projection
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "train") == 0
    tensors, meta = load_tensors(workdir / "model.ckpt")
    for name in ("radl.ae.wq", "opt.m.radl.ae.wq", "opt.v.radl.ae.wq"):
        tensors[name] = np.zeros((meta["d"], meta["d"]))
    save_tensors(workdir / "model.ckpt", tensors, dict(meta, schema="radl-ckpt/1"))
    capsys.readouterr()
    for argv in (["gen", workdir / "layout.json"], ["--resume", workdir / "model.ckpt", "train"]):
        assert run("--config", cfg_path, *argv) == 2
        err = capsys.readouterr().err
        assert "model.ckpt" in err and "'radl-ckpt/1'" in err


@pytest.mark.parametrize("command, name", [
    ("gen", "dec2.b"),     # was exit 0, casting NaN pixels to uint8
    ("resume", "dec2.b"),  # was exit 4, a non-finite loss
    ("resume", "opt.v.temb"),
])
def test_non_finite_checkpoint_exit_2(workdir, command, name, capsys):
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "train") == 0
    tensors, meta = load_tensors(workdir / "model.ckpt")
    tensors[name].flat[0] = np.nan if name == "dec2.b" else np.inf
    save_tensors(workdir / "model.ckpt", tensors, meta)
    argv = (["--resume", workdir / "model.ckpt", "train"] if command == "resume"
            else ["gen", workdir / "layout.json"])
    assert run("--config", cfg_path, *argv) == 2
    err = capsys.readouterr().err
    assert "model.ckpt" in err and repr(name) in err


@pytest.mark.parametrize("command", ["gen", "eval"])
@pytest.mark.parametrize("doc", [
    '{"prompt": "p", "instances": [}',  # not JSON
    '{"prompt": "p", "instances": [{"label": "red square", "bbox": [0.5, 0.1, 0.2, 0.9]}]}',
])
def test_bad_layout_names_the_file(workdir, command, doc, capsys):
    # was exit 2 naming no file: with many layouts, no way to tell which
    cfg_path = workdir / "config.json"
    img_dir, lay_dir = eval_dirs(workdir, small_scenes(3))
    bad = lay_dir / "s001.json"
    bad.write_text(doc, encoding="utf-8")
    if command == "gen":
        assert run("--config", cfg_path, "--steps", 0, "train") == 0
        capsys.readouterr()
        argv = ["gen", bad]
    else:
        argv = ["eval", img_dir, lay_dir]
    assert run("--config", cfg_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{bad}: ") and len(err.splitlines()) == 1


def test_gen_writes_images_and_traces(workdir):
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "train") == 0
    assert run("--config", cfg_path, "gen", workdir / "layout.json", 2) == 0
    for stem in ("img_000", "img_001"):
        assert (workdir / "out" / f"{stem}.ppm").exists()
        trace = json.loads((workdir / "out" / f"{stem}.trace.json").read_text())
        assert trace["radl_on"] == [True] * 3 + [False] * 3
        assert trace["total_steps"] == 6 and trace["radl_steps"] == 3
    img = read_ppm(workdir / "out" / "img_000.ppm")
    assert img.shape == (3, 8, 8)


def test_gen_malformed_layout_names_field(workdir, capsys):
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "train") == 0
    bad = workdir / "bad_layout.json"
    bad.write_text('{"prompt": "p"}', encoding="utf-8")
    assert run("--config", cfg_path, "gen", bad) == 2
    assert "instances" in capsys.readouterr().err


@pytest.mark.parametrize(
    "damage", ["layout_not_utf8", "layout_is_dir", "config_not_utf8", "config_is_dir"]
)
def test_gen_unreadable_input_exit_2(workdir, damage, capsys):
    cfg_path, layout = workdir / "config.json", workdir / "layout.json"
    assert run("--config", cfg_path, "--steps", 0, "train") == 0
    capsys.readouterr()
    if damage == "layout_not_utf8":
        layout.write_bytes(b'{"prompt": "\xff", "instances": []}')
        bad = layout
    elif damage == "config_not_utf8":
        cfg_path.write_bytes(b'{"\xff": 0}')
        bad = cfg_path
    elif damage == "layout_is_dir":
        layout = bad = workdir / "a_dir"
        layout.mkdir()
    else:
        cfg_path = bad = workdir / "a_dir"
        cfg_path.mkdir()
    assert run("--config", cfg_path, "gen", layout) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("reader", ["corpus", "eval_layout"])
def test_not_utf8_input_names_the_file(workdir, reader, capsys):
    img_dir, lay_dir = eval_dirs(workdir, small_scenes(1))
    if reader == "corpus":
        bad, command = workdir / "corpus.jsonl", ["train"]
    else:
        bad, command = lay_dir / "s000.json", ["eval", img_dir, lay_dir]
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    assert run("--config", workdir / "config.json", *command) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and len(err.splitlines()) == 1


# nested past the interpreter's recursion limit, json.loads raises RecursionError
DEEP_JSON = b"[" * 100_000


@pytest.mark.parametrize("reader", ["config", "layout", "corpus", "hsv_table", "checkpoint"])
def test_deeply_nested_json_exit_2(workdir, reader, capsys):
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "--steps", 0, "train") == 0
    capsys.readouterr()
    command = ["gen", workdir / "layout.json"]
    if reader == "config":
        cfg_path.write_bytes(DEEP_JSON)
    elif reader == "layout":
        (workdir / "layout.json").write_bytes(DEEP_JSON)
    elif reader == "corpus":
        (workdir / "corpus.jsonl").write_bytes(DEEP_JSON + b"\n")
        command = ["train"]
    elif reader == "hsv_table":
        (workdir / "hsv.json").write_bytes(DEEP_JSON)
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
        cfg_path.write_text(json.dumps(dict(cfg, hsv_table=str(workdir / "hsv.json"))))
        command = ["eval", *eval_dirs(workdir, small_scenes(1))]
    else:
        header = struct.pack("<Q", len(DEEP_JSON)) + DEEP_JSON
        (workdir / "model.ckpt").write_bytes(MAGIC + header)
    assert run("--config", cfg_path, *command) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_gen_radl_steps_zero_trace(workdir):
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "train") == 0
    assert run("--config", cfg_path, "--radl-steps", 0, "gen", workdir / "layout.json") == 0
    trace = json.loads((workdir / "out" / "img_000.trace.json").read_text())
    assert trace["radl_on"] == [False] * 6


def test_gen_determinism_byte_identical(workdir):
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "train") == 0
    assert run("--config", cfg_path, "gen", workdir / "layout.json") == 0
    first = (workdir / "out" / "img_000.ppm").read_bytes()
    assert run("--config", cfg_path, "gen", workdir / "layout.json") == 0
    assert (workdir / "out" / "img_000.ppm").read_bytes() == first


@pytest.mark.parametrize("count", [0, -2])
def test_gen_count_below_one_exit_2(workdir, count, capsys):
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "train") == 0
    assert run("--config", cfg_path, "gen", workdir / "layout.json", count) == 2
    assert "count" in capsys.readouterr().err
    assert not (workdir / "out" / "img_000.ppm").exists()


@pytest.mark.parametrize("flags, key", [
    (["--steps", 1], "t_sample"),
    (["--radl-steps", -3], "radl_steps"),
])
def test_gen_bad_schedule_exit_2(workdir, flags, key, capsys):
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "train") == 0
    assert run("--config", cfg_path, *flags, "gen", workdir / "layout.json") == 2
    assert key in capsys.readouterr().err
    assert not (workdir / "out" / "img_000.ppm").exists()


@pytest.mark.parametrize("config_split, steps, want", [
    (3, 4, 3),  # the config's radl_steps holds under --steps
    (None, 4, 2),  # no radl_steps in the config: min(30, steps // 2)
    (3, 2, None),  # the config's radl_steps exceeds the schedule: exit 2
])
def test_gen_steps_keeps_config_radl_steps(workdir, config_split, steps, want, capsys):
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "train") == 0
    cfg = json.loads(cfg_path.read_text())
    cfg.pop("radl_steps")
    if config_split is not None:
        cfg["radl_steps"] = config_split
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    code = run("--config", cfg_path, "--steps", steps, "gen", workdir / "layout.json")
    if want is None:
        assert code == 2
        assert "radl_steps 3 exceeds t_sample 2" in capsys.readouterr().err
        return
    assert code == 0
    trace = json.loads((workdir / "out" / "img_000.trace.json").read_text())
    assert trace["radl_on"] == [True] * want + [False] * (steps - want)


def test_gen_chunks_equal_single_image_runs(workdir):
    # 17 images cross the 16-image chunk boundary; image i must carry the
    # bytes a lone run with seed seed+i writes
    cfg_path = workdir / "config.json"
    assert run("--config", cfg_path, "train") == 0
    assert run("--config", cfg_path, "gen", workdir / "layout.json", 17) == 0
    for i in range(17):
        single = workdir / f"single_{i}"
        assert run("--config", cfg_path, "--out", single, "--seed", SMALL["seed"] + i,
                   "gen", workdir / "layout.json") == 0
        stem = f"img_{i:03d}"
        got = (workdir / "out" / f"{stem}.ppm").read_bytes()
        assert got == (single / "img_000.ppm").read_bytes(), i
        trace = json.loads((workdir / "out" / f"{stem}.trace.json").read_text())
        alone = json.loads((single / "img_000.trace.json").read_text())
        assert trace == dict(alone, image=f"{stem}.ppm"), i


# --- eval ------------------------------------------------------------------------

def eval_dirs(tmp_path, scenes, images=None):
    img_dir = tmp_path / "images"
    lay_dir = tmp_path / "layouts"
    img_dir.mkdir()
    lay_dir.mkdir()
    for i, scene in enumerate(scenes):
        image = scene.image if images is None else images[i]
        write_ppm(img_dir / f"s{i:03d}.ppm", image)
        (lay_dir / f"s{i:03d}.json").write_text(serialize_layout(scene.layout), encoding="utf-8")
    return img_dir, lay_dir


def test_eval_oracle_round_trip(workdir):
    img_dir, lay_dir = eval_dirs(workdir, generate(0, 4))
    assert run("--config", workdir / "config.json", "eval", img_dir, lay_dir) == 0
    report = json.loads((workdir / "out" / "metrics.json").read_text())
    assert report["schema"] == "radl-metrics/1"
    assert report["success_rate"] == 1.0
    assert report["quantity_acc"] == 1.0


def test_eval_blank_images_zero_success(workdir):
    scenes = generate(0, 2)
    blank = [np.full((3, 32, 32), 0.5) for _ in scenes]
    img_dir, lay_dir = eval_dirs(workdir, scenes, blank)
    assert run("--config", workdir / "config.json", "eval", img_dir, lay_dir) == 0
    report = json.loads((workdir / "out" / "metrics.json").read_text())
    assert report["success_rate"] == 0.0


# sha256 of `radl eval`'s metrics.json on the inputs below, recorded from the
# flood-fill detector with per-metric HSV and matching passes
GOLDEN_METRICS_SHA256 = "4d4d550b85cf01be9fa929b9ebfebe45be5593d526f5da04ca1a3f8a4b032d8f"


def test_eval_metrics_golden(workdir, capsys):
    crowded = SceneConfig(n_instances=(4, 4), min_box=0.15, max_box=0.3)
    scenes = generate(0, 4) + generate(0, 4, crowded)
    rng = np.random.default_rng(2024)
    images = [s.image for s in scenes[:2]]
    images += [0.5 * s.image + 0.5 * rng.random(s.image.shape) for s in scenes[2:]]
    images += [rng.random((3, h, w)) for h, w in ((32, 32), (16, 24), (1, 32), (32, 1))]
    img_dir, lay_dir = eval_dirs(workdir, scenes + scenes[:4], images)
    assert run("--config", workdir / "config.json", "eval", img_dir, lay_dir) == 0
    metrics = (workdir / "out" / "metrics.json").read_bytes()
    assert capsys.readouterr().out.encode() == metrics
    assert hashlib.sha256(metrics).hexdigest() == GOLDEN_METRICS_SHA256


# each header with the width and height a lenient reader takes from it
@pytest.mark.parametrize("header, size, rc", [
    (b"P6\n# a comment\n4 4 # another\n255\n", (4, 4), 0),
    (b"P6 4\t4\r255\n", (4, 4), 0),
    (b"P64 4 255\n", (4, 4), 2),      # nothing after the magic: was read as 4x4
    (b"P6\n1_0 4\n255\n", (10, 4), 2),  # was read as 10 wide
    (b"P6\n+2 4\n255\n", (2, 4), 2),    # was read as 2 wide
])
def test_eval_ppm_header(workdir, header, size, rc, capsys):
    img_dir, lay_dir = eval_dirs(workdir, small_scenes(1))
    (img_dir / "s000.ppm").write_bytes(header + bytes(3 * size[0] * size[1]))
    assert run("--config", workdir / "config.json", "eval", img_dir, lay_dir) == rc
    if rc:
        assert "s000.ppm" in capsys.readouterr().err


def test_eval_unknown_predicate_exit_2(workdir, capsys):
    scene = generate(0, 1)[0]
    img_dir, lay_dir = eval_dirs(workdir, [scene])
    doc = json.loads((lay_dir / "s000.json").read_text(encoding="utf-8"))
    doc["relations"][0]["predicate"] = "near"
    (lay_dir / "s000.json").write_text(json.dumps(doc), encoding="utf-8")
    assert run("--config", workdir / "config.json", "eval", img_dir, lay_dir) == 2
    err = capsys.readouterr().err
    assert "relation 0" in err and "'near'" in err
    assert all(repr(p) in err for p in ("above", "below", "left of", "right of"))


def test_eval_empty_dirs_exit_2(workdir, capsys):
    (workdir / "images").mkdir()
    (workdir / "layouts").mkdir()
    assert run("--config", workdir / "config.json", "eval",
               workdir / "images", workdir / "layouts") == 2


@pytest.mark.parametrize("missing", ["images", "layouts"])
def test_eval_missing_dir_exit_3(workdir, missing, capsys):
    img_dir, lay_dir = eval_dirs(workdir, small_scenes(1))
    absent = workdir / "absent"
    dirs = (absent, lay_dir) if missing == "images" else (img_dir, absent)
    assert run("--config", workdir / "config.json", "eval", *dirs) == 3
    assert str(absent) in capsys.readouterr().err


def test_eval_unpaired_exit_2(workdir, capsys):
    scenes = small_scenes(2)
    img_dir, lay_dir = eval_dirs(workdir, scenes)
    (lay_dir / "s001.json").unlink()
    assert run("--config", workdir / "config.json", "eval", img_dir, lay_dir) == 2
    assert "s001" in capsys.readouterr().err


@pytest.mark.parametrize("key, text", [
    ("lexicon", b"# comments only\n"),  # was ValueError from EmbedderConfig
    ("lexicon", b"stand\n\xff\n"),      # not UTF-8
    ("hsv_table", b"red: [0, 30]"),     # was JSONDecodeError
    ("hsv_table", b'{"red": 5}'),        # was TypeError
    ("hsv_table", b'{"r\xffd": 5}'),     # not UTF-8
    ("hsv_table", b'{"red": [[NaN, 20], [0, 1], [0, 1]]}'),  # was a color that never matches
    ("hsv_table", b'{"red": [[0, 20], [0, Infinity], [0, 1]]}'),
])
def test_bad_data_file_exit_2(workdir, key, text, capsys):
    (workdir / "data.txt").write_bytes(text)
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    cfg[key] = str(workdir / "data.txt")
    (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    img_dir, lay_dir = eval_dirs(workdir, small_scenes(1))
    command = ["gradcheck", "--scenes", 1] if key == "lexicon" else ["eval", img_dir, lay_dir]
    assert run("--config", workdir / "config.json", *command) == 2
    err = capsys.readouterr().err
    assert str(workdir / "data.txt") in err and len(err.splitlines()) == 1


# --- gradcheck / selftest ----------------------------------------------------------

def test_gradcheck_exit_zero(workdir, capsys):
    assert run("--config", workdir / "config.json", "gradcheck", "--scenes", 2) == 0
    out = capsys.readouterr().out
    assert "max_rel_err" in out and "FAIL" not in out


def test_gradcheck_fault_injection_exit_5(workdir, capsys):
    assert run("--config", workdir / "config.json", "gradcheck",
               "--scenes", 1, "--inject-grad-fault") == 5
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("count", [0, -3])
def test_gradcheck_scene_count_below_one_exit_2(workdir, count, capsys):
    assert run("--config", workdir / "config.json", "gradcheck", "--scenes", count) == 2
    assert "at least one scene" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["no_relation", "text_attn_only"])
def test_gradcheck_honours_variant(workdir, variant, monkeypatch, capsys):
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    cfg["variant"] = variant
    (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    audited = []
    real_gradcheck = pipeline.gradcheck

    def gradcheck(*args, **kwargs):
        audited.append(kwargs.get("variant", "full"))
        return real_gradcheck(*args, **kwargs)

    monkeypatch.setattr(pipeline, "gradcheck", gradcheck)
    assert run("--config", workdir / "config.json", "gradcheck", "--scenes", 1) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert audited == [variant]


@pytest.mark.parametrize("command", [["gradcheck", "--scenes", 1], ["train"]])
@pytest.mark.parametrize("key", ["variant", "radl_train_mode"])
def test_unknown_run_setting_exit_2(workdir, key, command, capsys):
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    cfg[key] = "bogus"
    (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert run("--config", workdir / "config.json", *command) == 2
    assert key in capsys.readouterr().err


def test_selftest_ok_and_json(workdir, capsys):
    assert run("--config", workdir / "config.json", "selftest") == 0
    capsys.readouterr()
    assert run("--config", workdir / "config.json", "--json", "selftest") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_selftest_failure_exit_5(workdir, monkeypatch, capsys):
    from radl import selftest

    monkeypatch.setattr(selftest, "run_selftest", lambda seed=0: [("forced", False, "x")])
    assert run("--config", workdir / "config.json", "selftest") == 5
    assert "forced" in capsys.readouterr().err


def test_selftest_raising_check_exit_5(workdir, monkeypatch, capsys):
    from radl import selftest

    def detect(*args, **kwargs):
        raise InvalidBBox("x2 must exceed x1")

    monkeypatch.setattr(selftest, "detect", detect)
    assert run("--config", workdir / "config.json", "--json", "selftest") == 5
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert len(checks) == len(selftest.CHECKS)  # the other checks still ran
    failed = [c for c in checks if not c["passed"]]
    assert [c["name"] for c in failed] == ["detect vs flood-fill oracle"]
    assert "InvalidBBox: x2 must exceed x1" in failed[0]["detail"]


@pytest.mark.parametrize("name, broken, check", [
    ("scaled_dot_attention_forward",  # the 1/sqrt(d) score scale dropped
     lambda real: lambda q, k, v, key_keep=None: real(q * np.sqrt(q.shape[-1]), k, v, key_keep),
     "attention vs scalar oracle"),
    ("detect", lambda real: lambda image, palette: real(image, palette)[:-1],
     "detect vs flood-fill oracle"),
], ids=["attention_unscaled", "detect_drops_last"])
def test_selftest_oracle_fails_broken_program(workdir, name, broken, check, monkeypatch, capsys):
    from radl import selftest

    monkeypatch.setattr(selftest, name, broken(getattr(selftest, name)))
    assert run("--config", workdir / "config.json", "--json", "selftest") == 5
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == [check]


# --- global flags ------------------------------------------------------------------

# the commands that read each global flag; every other pairing must exit 2
FLAG_READERS = {
    ("--resume", "x.ckpt"): {"train"},
    ("--json",): {"selftest"},
    ("--steps", "4"): {"train", "gen"},
    ("--radl-steps", "2"): {"gen"},
    ("--seed", "3"): {"gen", "train", "gradcheck", "selftest"},
    ("--out", "flag_out"): {"gen", "train", "eval"},
}
IGNORED_FLAGS = [
    (flag, command)
    for flag, readers in FLAG_READERS.items()
    for command in ("gen", "train", "eval", "gradcheck", "selftest")
    if command not in readers
]


@pytest.mark.parametrize("flag, command", IGNORED_FLAGS,
                         ids=[f"{flag[0]}-{command}" for flag, command in IGNORED_FLAGS])
def test_flag_the_command_ignores_exit_2(workdir, flag, command, capsys):
    img_dir, lay_dir = eval_dirs(workdir, small_scenes(1))
    operands = {"gen": [workdir / "layout.json"], "eval": [img_dir, lay_dir]}.get(command, [])
    assert run("--config", workdir / "config.json", *flag, command, *operands) == 2
    assert capsys.readouterr().err == f"{flag[0]} is not read by {command}\n"
    assert not (workdir / "out").exists() and not (workdir / "flag_out").exists()


# --- fixed costs paid once per process ----------------------------------------------

def test_one_parser_per_process_equals_fresh_parsers(workdir, capsys):
    assert run("--config", workdir / "config.json", "--steps", 0, "train") == 0
    img_dir, lay_dir = eval_dirs(workdir, generate(0, 4))
    calls = [
        ["--no-such-flag", "selftest"],  # argparse exits 2
        ["--json", "selftest"],
        ["gen", workdir / "layout.json", 2],
        ["eval", img_dir, lay_dir],
    ]

    def session(out: Path, fresh: bool):
        cli.build_parser.cache_clear()
        seen = []
        for argv in calls:
            if fresh:
                cli.build_parser.cache_clear()
            out_flag = ["--out", out] if argv[0] in ("gen", "eval") else []
            try:
                code = run("--config", workdir / "config.json", *out_flag, *argv)
            except SystemExit as e:
                code = e.code
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err))
        files = {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        return seen, files, cli.build_parser.cache_info().misses

    once, once_files, built = session(workdir / "once", fresh=False)
    fresh, fresh_files, _ = session(workdir / "fresh", fresh=True)
    assert built == 1
    assert [code for code, _, _ in once] == [2, 0, 0, 0]
    assert once == fresh
    assert once_files == fresh_files and len(once_files) == 5  # 2 PPM, 2 traces, metrics


def test_caller_cannot_change_packaged_tables(workdir, capsys):
    assert run("--config", workdir / "config.json", "--steps", 0, "train") == 0
    img_dir, lay_dir = eval_dirs(workdir, generate(0, 4))

    def outputs():
        assert run("--config", workdir / "config.json", "eval", img_dir, lay_dir) == 0
        assert run("--config", workdir / "config.json", "gen", workdir / "layout.json", 2) == 0
        return {p.name: p.read_bytes() for p in (workdir / "out").iterdir()}

    before = outputs()
    table = load_hsv_table()
    for color in table:
        table[color] = ((0.0, 0.0), (2.0, 2.0), (2.0, 2.0))  # matches no pixel
    lexicon = default_verb_lexicon()
    with pytest.raises(AttributeError):
        lexicon.add("paint")
    assert load_hsv_table() != table
    with resources.as_file(resources.files("radl").joinpath("data/verbs.txt")) as path:
        assert default_verb_lexicon() == load_verb_lexicon(path)
    assert outputs() == before
    assert json.loads(before["metrics.json"])["attribute_acc"] == 1.0


def test_hsv_table_by_path_read_on_every_eval(workdir, capsys):
    packaged = resources.files("radl").joinpath("data/hsv_ranges.json").read_text("utf-8")
    (workdir / "hsv.json").write_text(packaged, encoding="utf-8")
    cfg = json.loads((workdir / "config.json").read_text(encoding="utf-8"))
    cfg["hsv_table"] = str(workdir / "hsv.json")
    (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    img_dir, lay_dir = eval_dirs(workdir, generate(0, 4))

    def metrics():
        assert run("--config", workdir / "config.json", "eval", img_dir, lay_dir) == 0
        return json.loads((workdir / "out" / "metrics.json").read_text(encoding="utf-8"))

    assert metrics()["attribute_acc"] == 1.0
    edited = {color: [[0, 0], [2, 2], [2, 2]] for color in json.loads(packaged)}
    (workdir / "hsv.json").write_text(json.dumps(edited), encoding="utf-8")
    after = metrics()
    assert after["attribute_acc"] == 0.0 and after["success_rate"] == 0.0


# --- scripts ---------------------------------------------------------------------

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script(name, *args):
    cmd = [sys.executable, str(SCRIPTS / name), *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_make_corpus_writes_generated_scenes(tmp_path):
    proc = script("make_corpus.py", "--count", 8, "--out", tmp_path / "c.jsonl")
    assert proc.returncode == 0, proc.stderr
    write_corpus(tmp_path / "want.jsonl", generate(0, 8, SceneConfig()))
    assert (tmp_path / "c.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


def test_steering_experiment_checkpoint_loads_in_gen(tmp_path):
    proc = script("steering_experiment.py", "--steps", 2, "--corpus-size", 8, "--held-out", 2,
                  "--arms", "full", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    (tmp_path / "cfg.json").write_text(json.dumps({"checkpoint": str(tmp_path / "full.ckpt")}))
    (tmp_path / "layout.json").write_text(serialize_layout(generate(100_000, 1)[0].layout))
    assert run("--config", tmp_path / "cfg.json", "--out", tmp_path, "--steps", 4,
               "gen", tmp_path / "layout.json") == 0
