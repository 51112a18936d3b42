"""Command-line entry point: generate, train, evaluate, gradcheck, selftest.

Exit codes are a stable contract: 0 ok, 2 input error, 3 missing artifact,
4 numeric failure, 5 gradcheck or selftest failure.  All randomness derives
from the single config seed; identical configs produce byte-identical
outputs.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pipeline
from .checkpoint import load_tensors, save_tensors
from .errors import (
    InvalidBBox, MalformedDoc, NonFiniteLoss, RadlError, TooManyInstances, read_utf8,
)
from .evalmetrics import evaluate_images, load_hsv_table
from .imageio import read_ppm, write_ppm
from .layout import LayoutSpec, parse_layout
from .scenes import SceneConfig, generate, read_corpus
from .text import EmbedderConfig, default_verb_lexicon, load_verb_lexicon

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4
EXIT_CHECK = 5  # gradcheck or selftest failure

CKPT_SCHEMA = "radl-ckpt/2"

# images `gen` denoises in one pass; bounds the (K, rows, h*w) score memory
GEN_CHUNK = 16

# the commands that read each global flag; any other command given it exits 2
FLAG_READERS = {
    "resume": ("train",),
    "json": ("selftest",),
    "steps": ("train", "gen"),
    "radl_steps": ("gen",),
    "seed": ("gen", "train", "gradcheck", "selftest"),
    "out": ("gen", "train", "eval"),
}


# accepted value types per RunConfig annotation; bool is rejected everywhere
_FIELD_TYPES = {
    "int": (int,), "float": (int, float), "str": (str,), "str | None": (str, type(None)),
}


@dataclass
class RunConfig:
    """All knobs of a run; JSON config file first, flags override."""

    d: int = 8
    image_size: int = 32
    t_train: int = 200
    t_sample: int = 60
    radl_steps: int = 30
    train_steps: int = 2000
    lr: float = 1e-4
    warmup: int = 100
    weight_decay: float = 0.01
    batch_size: int = 8
    seed: int = 0
    embed_seed: int = 0
    variant: str = "full"
    radl_train_mode: str = "mirror"
    checkpoint: str = "radl.ckpt"
    corpus: str = "corpus.jsonl"
    lexicon: str | None = None
    hsv_table: str | None = None
    out: str = "out"

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise MalformedDoc(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.d < 2:
            raise MalformedDoc(f"d must be >= 2, got {self.d}")
        if self.image_size % 4 != 0 or self.image_size < 8:
            raise MalformedDoc(
                f"image_size must be a multiple of 4, at least 8, got {self.image_size}"
            )
        if self.batch_size < 1:
            raise MalformedDoc(f"batch_size must be >= 1, got {self.batch_size}")
        if self.train_steps < 0:
            raise MalformedDoc(f"train_steps must be >= 0, got {self.train_steps}")
        if self.t_train < 2:
            raise MalformedDoc(f"t_train must be >= 2, got {self.t_train}")
        if self.seed < 0:
            raise MalformedDoc(f"seed must be >= 0, got {self.seed}")
        if self.t_sample < 2:
            raise MalformedDoc(f"t_sample must be >= 2, got {self.t_sample}")
        if self.radl_steps < 0:
            raise MalformedDoc(f"radl_steps must be >= 0, got {self.radl_steps}")
        if self.radl_steps > self.t_sample:
            raise MalformedDoc(
                f"radl_steps {self.radl_steps} exceeds t_sample {self.t_sample}"
            )
        for key in ("lr", "weight_decay"):  # json reads NaN and Infinity
            if not math.isfinite(getattr(self, key)):
                raise MalformedDoc(f"{key} must be finite, got {getattr(self, key)!r}")
        if self.lr <= 0:
            raise MalformedDoc("lr must be > 0")
        if self.variant not in pipeline.VARIANTS:
            raise MalformedDoc(
                f"variant {self.variant!r} is not one of {list(pipeline.VARIANTS)}"
            )
        if self.radl_train_mode not in pipeline.TRAIN_MODES:
            raise MalformedDoc(
                f"radl_train_mode {self.radl_train_mode!r} is not one of "
                f"{list(pipeline.TRAIN_MODES)}"
            )

    def embedder(self) -> EmbedderConfig:
        lexicon = (
            load_verb_lexicon(self.lexicon) if self.lexicon else default_verb_lexicon()
        )
        return EmbedderConfig(dim=self.d, seed=self.embed_seed, verb_lexicon=lexicon)


def load_config(path: str | None, overrides: dict, defaults: dict | None = None) -> RunConfig:
    """The config file's values over `defaults`, and `overrides` (None
    entries skipped) over both."""
    values: dict = {}
    if path is not None:
        try:
            raw = read_utf8(path)
        except FileNotFoundError:
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            values = json.loads(raw)
        except (json.JSONDecodeError, RecursionError) as e:
            raise MalformedDoc(f"config {path} is not valid JSON: {e}") from e
        if not isinstance(values, dict):
            raise MalformedDoc(f"config {path}: top level must be an object")
        known = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(values) - known
        if unknown:
            raise MalformedDoc(f"config {path}: unknown keys {sorted(unknown)}")
    values = {**(defaults or {}), **values}
    values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)


def _save_checkpoint(path, params, step: int, cfg: RunConfig, opt_m=None, opt_v=None):
    tensors = dict(pipeline.params_to_dict(params))
    if opt_m is not None:
        tensors.update({f"opt.m.{k}": v for k, v in opt_m.items()})
        tensors.update({f"opt.v.{k}": v for k, v in opt_v.items()})
    meta = {
        "schema": CKPT_SCHEMA,
        "d": params.d,
        "image_size": params.image_size,
        "t_train": params.t_train,
        "step": step,
        "embed_seed": cfg.embed_seed,
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    save_tensors(path, tensors, meta)


def _load_checkpoint(path, cfg: RunConfig):
    """Load a checkpoint, checking every tensor against the model its meta
    describes; optimizer moments, when present, must cover every tensor.
    The meta sizes and embed_seed must equal the config's.  Returns the
    model, its step and the optimizer moments (None when absent)."""
    try:
        tensors, meta = load_tensors(path)
    except FileNotFoundError:
        raise FileNotFoundError(f"checkpoint not found: {path}") from None
    if meta.get("schema") != CKPT_SCHEMA:
        raise MalformedDoc(f"{path}: schema {meta.get('schema')!r} is not {CKPT_SCHEMA!r}")
    try:
        sizes = {key: meta[key] for key in ("d", "image_size", "t_train")}
    except KeyError as e:
        raise MalformedDoc(f"{path}: checkpoint lacks {e}") from e
    stored = dict(sizes, embed_seed=meta.get("embed_seed", 0))
    try:  # the meta sizes and embed_seed obey the run-config rules
        RunConfig(**stored)
    except MalformedDoc as e:
        raise MalformedDoc(f"{path}: meta {e}") from e
    step = meta.get("step", 0)
    if isinstance(step, bool) or not isinstance(step, int) or step < 0:
        raise MalformedDoc(f"{path}: meta step must be an integer >= 0, got {step!r}")
    # the model holds at least d * (d + t_train + (image_size/2)^2) values;
    # refuse meta sizes the stored tensors cannot fill before building it
    d, side, t_train = sizes["d"], sizes["image_size"] // 2, sizes["t_train"]
    if d * (d + t_train + side * side) > sum(a.size for a in tensors.values()):
        raise MalformedDoc(f"{path}: meta sizes {sizes} exceed the stored tensors")
    params = pipeline.init_denoiser(0, **sizes)
    model = pipeline.params_to_dict(params)
    shapes = {name: a.shape for name, a in model.items()}
    if any(name.startswith("opt.") for name in tensors):
        shapes |= {f"opt.{m}.{name}": shape for m in "mv" for name, shape in shapes.items()}
    for name, shape in shapes.items():
        if name not in tensors:
            raise MalformedDoc(f"{path}: checkpoint lacks {name!r}")
        if tensors[name].shape != shape:
            raise MalformedDoc(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, the model's is {shape}"
            )
    if set(tensors) - set(shapes):
        raise MalformedDoc(f"{path}: unknown tensors {sorted(set(tensors) - set(shapes))}")
    for name in shapes:  # a non-finite weight gives NaN images and losses
        if not np.isfinite(tensors[name]).all():
            raise MalformedDoc(f"{path}: tensor {name!r} holds a non-finite value")
    for key, value in stored.items():
        if value != getattr(cfg, key):
            raise MalformedDoc(
                f"{path}: checkpoint {key} {value!r} differs from the config's "
                f"{getattr(cfg, key)!r}"
            )
    for name, arr in model.items():
        arr[...] = tensors[name]
    opt_m = {k[len("opt.m."):]: v for k, v in tensors.items() if k.startswith("opt.m.")}
    opt_v = {k[len("opt.v."):]: v for k, v in tensors.items() if k.startswith("opt.v.")}
    return params, step, (opt_m or None), (opt_v or None)


def _read_layout(path) -> LayoutSpec:
    """parse_layout of a layout file; its errors name the file."""
    text = read_utf8(path)
    try:
        return parse_layout(text)
    except (MalformedDoc, InvalidBBox, TooManyInstances) as e:
        raise type(e)(f"{path}: {e}") from e


def cmd_gen(cfg: RunConfig, layout_path: str, count: int) -> int:
    if count < 1:
        raise MalformedDoc(f"image count must be >= 1, got {count}")
    params, _, _, _ = _load_checkpoint(cfg.checkpoint, cfg)
    embed_cfg = cfg.embedder()
    layout = _read_layout(layout_path)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for start in range(0, count, GEN_CHUNK):
        seeds = [cfg.seed + i for i in range(start, min(start + GEN_CHUNK, count))]
        images, trace = pipeline.sample(
            params, layout, total_steps=cfg.t_sample,
            radl_steps=cfg.radl_steps, seeds=seeds,
            embed_cfg=embed_cfg, variant=cfg.variant,
        )
        for i, seed_i, image in zip(range(start, count), seeds, images):
            stem = f"img_{i:03d}"
            write_ppm(out_dir / f"{stem}.ppm", image)
            (out_dir / f"{stem}.trace.json").write_text(
                json.dumps(
                    {
                        "image": f"{stem}.ppm",
                        "seed": seed_i,
                        "total_steps": cfg.t_sample,
                        "radl_steps": cfg.radl_steps,
                        "radl_on": trace,
                    }
                )
                + "\n",
                encoding="utf-8",
            )
    return EXIT_OK


def cmd_train(cfg: RunConfig, resume: str | None = None) -> int:
    dataset = read_corpus(cfg.corpus)
    if not dataset:
        raise MalformedDoc(f"corpus is empty: {cfg.corpus}")

    if resume is not None:
        params, start_step, opt_m, opt_v = _load_checkpoint(resume, cfg)
    else:
        params = pipeline.init_denoiser(
            cfg.seed, d=cfg.d, image_size=cfg.image_size, t_train=cfg.t_train
        )
        opt_m = opt_v = None
        start_step = 0
    size = dataset[0].image.shape[-1]
    if size != cfg.image_size:
        raise MalformedDoc(
            f"corpus {cfg.corpus} holds {size}x{size} images, image_size is {cfg.image_size}"
        )

    result = pipeline.train(
        params, dataset, steps=cfg.train_steps, lr=cfg.lr,
        warmup_steps=cfg.warmup, weight_decay=cfg.weight_decay,
        rng_seed=cfg.seed, batch_size=cfg.batch_size,
        embed_cfg=cfg.embedder(), variant=cfg.variant,
        start_step=start_step, opt_m=opt_m, opt_v=opt_v,
        radl_train_mode=cfg.radl_train_mode,
    )

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _save_checkpoint(cfg.checkpoint, params, result.step, cfg, result.opt_m, result.opt_v)
    with open(out_dir / "loss.csv", "w", encoding="utf-8") as fh:
        fh.write("step,loss,lr\n")
        for i, (loss, lr) in enumerate(zip(result.losses, result.lrs)):
            fh.write(f"{start_step + i},{loss!r},{lr!r}\n")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, images_dir: str, layouts_dir: str) -> int:
    for path in (images_dir, layouts_dir):
        if not Path(path).exists():
            raise FileNotFoundError(f"eval directory not found: {path}")
    images = {p.stem: p for p in sorted(Path(images_dir).glob("*.ppm"))}
    layouts = {p.stem: p for p in sorted(Path(layouts_dir).glob("*.json"))}
    if not images or set(images) != set(layouts):
        only_img = sorted(set(images) - set(layouts))
        only_lay = sorted(set(layouts) - set(images))
        raise MalformedDoc(
            "images and layouts must pair by filename stem; "
            f"unpaired images={only_img} layouts={only_lay}"
        )

    table = load_hsv_table(cfg.hsv_table)
    pairs = [(read_ppm(images[stem]), _read_layout(layouts[stem])) for stem in sorted(images)]
    text = evaluate_images(pairs, SceneConfig().palette, table).to_json()
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def cmd_gradcheck(cfg: RunConfig, scenes: int = 5, inject_fault: bool = False) -> int:
    if scenes < 1:
        raise MalformedDoc(f"gradcheck needs at least one scene, got {scenes}")
    params = pipeline.init_denoiser(
        cfg.seed, d=cfg.d, image_size=cfg.image_size, t_train=cfg.t_train
    )
    scene_cfg = SceneConfig(image_size=cfg.image_size)
    embed_cfg = cfg.embedder()
    worst: dict[str, float] = {}
    ok = True
    for i, scene in enumerate(generate(cfg.seed, scenes, scene_cfg)):
        report = pipeline.gradcheck(
            params, scene, t=1 + (7 * i) % cfg.t_train, rng_seed=cfg.seed + i,
            embed_cfg=embed_cfg, variant=cfg.variant, grad_fault=inject_fault,
        )
        for group, err in report.max_rel_err.items():
            worst[group] = max(worst.get(group, 0.0), err)
        ok = ok and report.passed
    for group in sorted(worst):
        flag = "ok  " if worst[group] <= report.threshold else "FAIL"
        print(f"{flag} {group:14s} max_rel_err {worst[group]:.3e}")
    return EXIT_OK if ok else EXIT_CHECK


def cmd_selftest(cfg: RunConfig, as_json: bool = False) -> int:
    from .selftest import run_selftest

    results = run_selftest(seed=cfg.seed)
    passed = all(ok for _, ok, _ in results)
    if as_json:
        print(
            json.dumps(
                {
                    "passed": passed,
                    "checks": [
                        {"name": name, "passed": ok, "detail": detail}
                        for name, ok, detail in results
                    ],
                }
            )
        )
    else:
        for name, ok, detail in results:
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    if not passed:
        failing = [name for name, ok, _ in results if not ok]
        print(f"selftest failed: {', '.join(failing)}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="radl", description=__doc__)
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--steps", type=int, default=None,
                        help="training steps (train) or sampling steps (gen)")
    parser.add_argument("--radl-steps", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--json", action="store_true", default=None,
                        help="machine-readable output")
    parser.add_argument("--resume", default=None, help="checkpoint to resume from")

    sub = parser.add_subparsers(dest="command", required=True)
    gen = sub.add_parser("gen", help="sample images for a layout file")
    gen.add_argument("layout", help="layout JSON path")
    gen.add_argument("count", type=int, nargs="?", default=1)

    sub.add_parser("train", help="train on a scene corpus")

    ev = sub.add_parser("eval", help="evaluate images against layouts")
    ev.add_argument("images_dir")
    ev.add_argument("layouts_dir")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    gc.add_argument("--scenes", type=int, default=5)
    gc.add_argument("--inject-grad-fault", action="store_true",
                    help="negative-control hook: corrupt one gradient")

    sub.add_parser("selftest", help="run quick module property suites")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"seed": args.seed, "out": args.out, "radl_steps": args.radl_steps}
    defaults = {}
    if args.steps is not None:
        if args.command == "gen":
            overrides["t_sample"] = args.steps
            # keep the invariant when shrinking the schedule below the default
            # split; a radl_steps from the flag or the config wins
            defaults["radl_steps"] = min(30, args.steps // 2)
        else:
            overrides["train_steps"] = args.steps

    # commands return EXIT_OK or EXIT_CHECK; every other exit code is chosen here
    try:
        for flag, readers in FLAG_READERS.items():
            if getattr(args, flag) is not None and args.command not in readers:
                raise MalformedDoc(f"--{flag.replace('_', '-')} is not read by {args.command}")
        cfg = load_config(args.config, overrides, defaults)
        if args.command == "gen":
            return cmd_gen(cfg, args.layout, args.count)
        if args.command == "train":
            return cmd_train(cfg, resume=args.resume)
        if args.command == "eval":
            return cmd_eval(cfg, args.images_dir, args.layouts_dir)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, scenes=args.scenes, inject_fault=args.inject_grad_fault)
        if args.command == "selftest":
            return cmd_selftest(cfg, as_json=args.json)
        raise AssertionError(f"unhandled command {args.command}")
    except FileNotFoundError as e:
        print(str(e), file=sys.stderr)
        return EXIT_MISSING
    except NonFiniteLoss as e:
        print(f"training aborted: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (RadlError, OSError) as e:  # OSError: a directory, no permission
        print(str(e), file=sys.stderr)
        return EXIT_INPUT
    except MemoryError as e:  # numpy's message names the array's size
        print(f"the config needs more memory than can be allocated: {e}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
