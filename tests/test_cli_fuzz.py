"""Fuzz the CLI's exit-code contract: whatever the configs, layouts, corpus
lines and checkpoints, `main` returns 0, 2, 3, 4 or 5 and raises nothing;
whatever their arguments, `scripts/make_corpus.py` and
`scripts/steering_experiment.py` return 0 or 2.

Every example works at d <= 4, 8x8 images and a handful of steps, so one
`main` call takes milliseconds; all of them run in this process.
"""
import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import struct
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from radl.checkpoint import MAGIC
from radl.cli import RunConfig, main
from radl.evalmetrics import MetricsReport
from radl.imageio import write_ppm
from radl.layout import serialize_layout
from radl.pipeline import VARIANTS, TrainResult, init_denoiser
from radl.scenes import SceneConfig, generate, write_corpus
from radl.steering import ArmResult

CONTRACT = {0, 2, 3, 4, 5}
FUZZ = settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

BASE = dict(
    d=4, image_size=8, t_train=12, t_sample=4, radl_steps=2,
    train_steps=2, batch_size=2, warmup=1, seed=0,
)

json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(), st.text(max_size=6),
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=12,
)
# work-size keys draw only small values, or values of the wrong type
SIZE_VALUES = {
    "d": st.integers(-1, 4), "image_size": st.sampled_from([0, 6, 8, 30]),
    "t_train": st.integers(-1, 12), "train_steps": st.integers(-1, 2),
    "t_sample": st.integers(-1, 4), "radl_steps": st.integers(-1, 4),
    "batch_size": st.integers(-1, 2), "warmup": st.integers(-2, 3),
}
# JSON integers beyond the float64 range, which json reads as Python ints
huge_ints = st.one_of(st.integers(min_value=2**1024), st.integers(max_value=-(2**1024)))
OTHER_VALUES = {
    "lr": st.floats() | huge_ints, "weight_decay": st.floats() | huge_ints,
    "seed": st.integers(-2, 2**70), "embed_seed": st.integers(-(2**70), 2**70),
    "variant": st.sampled_from(["full", "no_relation", "text_attn_only", "bogus"]),
    "radl_train_mode": st.sampled_from(["mirror", "always_on", "bogus"]),
    "threads": st.integers(-2, 4),
}
PATH_KEYS = ("corpus", "checkpoint", "lexicon", "hsv_table")
FIELDS = {f.name for f in dataclasses.fields(RunConfig)}
wrong_type = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(0, 4), max_size=2),
)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A corpus, a layout, an eval pair and a trained (zero-step) checkpoint
    at BASE sizes."""
    root = tmp_path_factory.mktemp("fuzz_base")
    scenes = generate(0, 3, SceneConfig(image_size=8, min_box=0.3, max_box=0.5))
    write_corpus(root / "corpus.jsonl", scenes)
    for sub in ("images", "layouts"):
        (root / sub).mkdir()
    write_ppm(root / "images" / "s.ppm", scenes[0].image)
    (root / "layouts" / "s.json").write_text(serialize_layout(scenes[0].layout), encoding="utf-8")
    (root / "layout.json").write_text(serialize_layout(scenes[0].layout), encoding="utf-8")
    cfg = dict(BASE, corpus=str(root / "corpus.jsonl"), checkpoint=str(root / "model.ckpt"),
               out=str(root / "out"))
    (root / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["--config", str(root / "config.json"), "--steps", "0", "train"]) == 0
    return root


def run_in(workdir: Path, cfg: dict, *argv) -> int:
    """Run `main` inside workdir with cfg as its config file, so that default
    output paths land there too."""
    (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return main(["--config", "config.json", "--out", "out", *map(str, argv)])
    finally:
        os.chdir(cwd)


def base_cfg(base: Path) -> dict:
    return json.loads((base / "config.json").read_text(encoding="utf-8"))


class FixedDraws:
    """Stands in for `st.data()` in an @example: each draw returns the next
    of the given values."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


# global flags before the command, their values numeric or not
flag_lists = st.lists(
    st.tuples(st.sampled_from(["--seed", "--steps", "--radl-steps"]),
              st.one_of(st.integers(-2, 4).map(str), st.text(max_size=3))),
    max_size=2,
)


@FUZZ
@example(keys={"lr"}, data=FixedDraws(10**400), command="train", flags=[])  # was OverflowError
@example(keys={"weight_decay"}, data=FixedDraws(-(10**400)), command="train", flags=[])
# was argparse's SystemExit(2) after its usage block
@example(keys=set(), data=FixedDraws(), command="train", flags=[("--seed", "abc")])
@given(
    keys=st.sets(st.sampled_from([*SIZE_VALUES, *OTHER_VALUES, *PATH_KEYS, "unknown"]), max_size=4),
    data=st.data(),
    command=st.sampled_from(["train", "gen", "eval"]),
    flags=flag_lists,
)
def test_config_fuzz_keeps_contract(base, keys, data, command, flags):
    with tempfile.TemporaryDirectory() as tmp:
        # train writes its checkpoint; keep the base one intact
        cfg = dict(base_cfg(base), **({"checkpoint": str(Path(tmp) / "model.ckpt")}
                                      if command == "train" else {}))
        for key in keys:
            if key in PATH_KEYS:
                value = data.draw(st.sampled_from(["", tmp, "absent", str(base / "layout.json"),
                                                   cfg.get(key) or ""]))
            elif key == "unknown":
                key = data.draw(st.text(max_size=6).filter(lambda k: k not in FIELDS))
                value = data.draw(json_leaf)
            else:
                value = data.draw(st.one_of({**SIZE_VALUES, **OTHER_VALUES}[key], wrong_type))
            cfg[key] = value
        argv = {
            "train": ["train"],
            "gen": ["gen", base / "layout.json", 1],
            "eval": ["eval", base / "images", base / "layouts"],
        }[command]
        assert run_in(Path(tmp), cfg, *[arg for flag in flags for arg in flag], *argv) in CONTRACT


def layout_docs():
    """Layout documents: raw bytes, JSON values, the base layout with fields
    replaced by arbitrary JSON, and well-typed layouts of arbitrary text and
    boxes."""
    valid = {"prompt": "a red cube on a blue ball",
             "instances": [{"label": "red cube", "bbox": [0.1, 0.1, 0.5, 0.5]},
                           {"label": "blue ball", "bbox": [0.4, 0.4, 0.9, 0.9]}]}
    edited = st.builds(
        lambda path, value: _replace(valid, path, value),
        st.sampled_from([("prompt",), ("instances",), ("instances", 0), ("instances", 0, "bbox"),
                         ("instances", 1, "label"), ("verbs",), ("relations",)]),
        json_value,
    )
    box = st.lists(st.floats(0, 1) | huge_ints, min_size=4, max_size=4).map(
        lambda v: [min(v[0], v[2]), min(v[1], v[3]), max(v[0], v[2]), max(v[1], v[3])]
    )
    well_typed = st.fixed_dictionaries(
        {"prompt": st.text(max_size=20),
         "instances": st.lists(st.fixed_dictionaries({"label": st.text(max_size=8), "bbox": box}),
                               max_size=4)},
        optional={"verbs": st.lists(st.text(max_size=6), max_size=3),
                  "relations": st.lists(st.fixed_dictionaries(
                      {"subject": st.integers(-1, 4), "predicate": st.text(max_size=6),
                       "object": st.integers(-1, 4)}), max_size=2)},
    )
    return st.one_of(
        st.binary(max_size=40),
        st.one_of(json_value, edited, well_typed).map(lambda v: json.dumps(v).encode("utf-8")),
    )


def _replace(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


HUGE_BOX = json.dumps({"prompt": "p", "instances": [
    {"label": "red cube", "bbox": [0.1, 0.1, 10**400, 0.5]}]}).encode("utf-8")


@FUZZ
@example(doc=b'{"prompt": "p", "instances": []}', count=1, command="eval",
         ppm_size=(-2, -2))  # was ValueError from reshape
@example(doc=HUGE_BOX, count=1, command="gen", ppm_size=(8, 8))  # was OverflowError
@example(doc=HUGE_BOX, count=1, command="eval", ppm_size=(8, 8))
@given(doc=layout_docs(), count=st.integers(-1, 2), command=st.sampled_from(["gen", "eval"]),
       ppm_size=st.tuples(st.integers(-2, 9), st.integers(-2, 9)))
def test_layout_fuzz_keeps_contract(base, doc, count, command, ppm_size):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if command == "gen":
            (tmp / "layout.json").write_bytes(doc)
            code = run_in(tmp, base_cfg(base), "gen", tmp / "layout.json", count)
        else:
            for sub in ("images", "layouts"):
                (tmp / sub).mkdir()
            (tmp / "images" / "s.ppm").write_bytes(b"P6\n%d %d\n255\n" % ppm_size + bytes(192))
            (tmp / "layouts" / "s.json").write_bytes(doc)
            code = run_in(tmp, base_cfg(base), "eval", tmp / "images", tmp / "layouts")
        assert code in CONTRACT


@FUZZ
@example(edits=[(0, ("height", float("inf")))], resume=False)  # was OverflowError
# an 8x8 corpus with a 4x4 image in it: was exit 1 from stacking the two sizes
@example(edits=[(2, ("image", {"height": 4, "width": 4, "data": "A" * 64}))], resume=False)
@given(
    edits=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.one_of(
                st.text(max_size=20),
                json_value.map(json.dumps),
                st.tuples(st.sampled_from(["image", "layout", "relations", "height", "data"]),
                          st.one_of(st.floats(), json_value)),
            ),
        ),
        min_size=1, max_size=3,
    ),
    resume=st.booleans(),
)
def test_corpus_fuzz_keeps_contract(base, edits, resume):
    valid = (base / "corpus.jsonl").read_text(encoding="utf-8").splitlines()
    lines = list(valid)
    for at, edit in edits:
        if isinstance(edit, tuple):  # a valid line with one field replaced
            key, value = edit
            obj = json.loads(valid[at % len(valid)])
            (obj["image"] if key in ("height", "data") else obj)[key] = value
            edit = json.dumps(obj)
        lines.insert(at, edit)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "corpus.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        cfg = dict(base_cfg(base), corpus=str(tmp / "corpus.jsonl"),
                   checkpoint=str(tmp / "model.ckpt"))
        argv = ["--resume", base / "model.ckpt", "train"] if resume else ["train"]
        assert run_in(tmp, cfg, *argv) in CONTRACT


def damaged_checkpoints(data: bytes):
    """The base checkpoint truncated, with one byte flipped, or with a header
    entry replaced by arbitrary JSON."""
    (size,) = struct.unpack_from("<Q", data, len(MAGIC))
    start = len(MAGIC) + 8
    header = json.loads(data[start:start + size])
    names = sorted(header["tensors"])

    def rewrite(path, value):
        edited = _replace(header, path, value)
        raw = json.dumps(edited).encode("utf-8")
        return MAGIC + struct.pack("<Q", len(raw)) + raw + data[start + size:]

    def flip(at, bit):
        return data[:at] + bytes([data[at] ^ (1 << bit)]) + data[at + 1:]

    header_paths = st.one_of(
        st.sampled_from([("tensors",), ("meta",), ("version",)]),
        st.sampled_from(sorted(header["meta"])).map(lambda k: ("meta", k)),
        st.sampled_from(names).map(lambda n: ("tensors", n)),
        st.tuples(st.just("tensors"), st.sampled_from(names), st.sampled_from(["shape", "offset"])),
    )
    meta_sizes = st.tuples(st.just("meta"), st.sampled_from(["d", "image_size", "t_train"]))
    return st.one_of(
        st.integers(0, len(data) - 1).map(lambda n: data[:n]),
        st.builds(flip, st.integers(0, min(start + size + 64, len(data) - 1)), st.integers(0, 7)),
        st.builds(rewrite, header_paths, json_value),
        st.builds(rewrite, meta_sizes, st.integers(-1, 16)),
    )


@FUZZ
@given(data=st.data(), resume=st.booleans())
def test_checkpoint_fuzz_keeps_contract(base, data, resume):
    ckpt = data.draw(damaged_checkpoints((base / "model.ckpt").read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.ckpt").write_bytes(ckpt)
        if resume:
            cfg = dict(base_cfg(base), checkpoint=str(tmp / "model.ckpt"))
            argv = ["--resume", tmp / "in.ckpt", "train"]
        else:
            cfg = dict(base_cfg(base), checkpoint=str(tmp / "in.ckpt"))
            argv = ["gen", base / "layout.json", 1]
        assert run_in(tmp, cfg, *argv) in CONTRACT


def load_script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / name
    spec = importlib.util.spec_from_file_location(Path(name).stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MAKE_CORPUS = load_script("make_corpus.py")
STEERING = load_script("steering_experiment.py")


# image sizes 1 and 2 have room for one box only: any range above one
# instance fails every seed, and `generate`'s scan limit bounds the example
@settings(max_examples=30, deadline=None, derandomize=True)
@example(size=1, low=2, high=2, count=1)  # was a hang
@example(size=10**8, low=2, high=2, count=1)  # was MemoryError, exit 1
@example(size=8, low=2, high=2, count="abc")  # was argparse's SystemExit and usage block
@given(size=st.integers(-1, 9), low=st.integers(-1, 5), high=st.integers(-1, 5),
       count=st.integers(-1, 2))
def test_make_corpus_keeps_contract(size, low, high, count):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["make_corpus.py", "--image-size", str(size), "--min-instances", str(low),
                "--max-instances", str(high), "--count", str(count),
                "--out", str(Path(tmp) / "c.jsonl")]
        saved, sys.argv = sys.argv, argv
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = MAKE_CORPUS.main()
        finally:
            sys.argv = saved
    assert code in (0, 2)
    assert code == 0 or len(err.getvalue().splitlines()) == 1


def untrained_arms(arms, *args, **kwargs):
    """Stands in for `run_arms`: every arm an untrained d=4 model with a
    zero report, so that the script's exit paths run and nothing trains."""
    result = TrainResult(init_denoiser(0, d=4, image_size=8, t_train=12), [0.0], [], {}, {}, 0)
    return {arm: ArmResult(result, [], MetricsReport(0.0, 0.0, 0.0, 0.0, 0.0)) for arm in arms}


STEERING.run_arms = untrained_arms
around_bounds = st.integers(-1, 2)


@settings(max_examples=100, deadline=None, derandomize=True)
@example(steps=0, seed=0, corpus=1, held_out=1, batch=1, lr=5e-3, arms=list(VARIANTS))
@example(steps=2, seed=2, corpus=2, held_out=2, batch=2, lr=1.0, arms=["full", "full"])
@example(steps=0, seed=0, corpus=1, held_out=1, batch=1, lr=float("-inf"), arms=["full"])
@example(steps="abc", seed=0, corpus=1, held_out=1, batch=1, lr=5e-3, arms=["full"])  # was SystemExit
@given(steps=around_bounds, seed=around_bounds, corpus=around_bounds, held_out=around_bounds,
       batch=around_bounds, lr=st.floats(),
       arms=st.lists(st.sampled_from([*VARIANTS, "bogus"]), min_size=1, max_size=4))
def test_steering_experiment_keeps_contract(steps, seed, corpus, held_out, batch, lr, arms):
    with tempfile.TemporaryDirectory() as tmp:
        # --flag=value: argparse would read a bare "-inf" as a flag
        argv = ["steering_experiment.py", f"--steps={steps}", f"--seed={seed}",
                f"--corpus-size={corpus}", f"--held-out={held_out}", f"--batch-size={batch}",
                f"--lr={lr!r}", f"--out={Path(tmp) / 'out'}", "--arms", *arms]
        saved, sys.argv = sys.argv, argv
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = STEERING.main()
        finally:
            sys.argv = saved
    assert code in (0, 2)
    assert code == 0 or len(err.getvalue().splitlines()) == 1
