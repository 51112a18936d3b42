"""Per-layer tracing of radl from outside the program.

Each traced function is replaced, for the length of a traced pass, by a
wrapper installed where its caller looks it up: `pipeline.py` imports the
attention, fusion, text and layout ops by name, so they are patched in the
pipeline namespace; `cli.py` calls `pipeline.sample`, so `sample` is patched
as a pipeline attribute; the checkpoint, image and metric functions `cli.py`
imports by name are patched in the cli namespace.  A span's self time is its
wall time minus the wall time of the wrapped calls made inside it.
"""
from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager

ATTENTION_OPS = (
    "masked_text_attention",
    "attribute_enhancement",
    "instance_attention",
    "relation_attention",
)
SIDES = ("r16", "r8")


class Tracer:
    """Span totals keyed by layer name; spans nest through a stack."""

    def __init__(self):
        self.total = defaultdict(float)   # key -> seconds inside the call
        self.inner = defaultdict(float)   # key -> seconds inside wrapped callees
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.counts = defaultdict(int)    # counters noted from call arguments
        self.distinct = defaultdict(set)
        self._stack: list[float] = []

    def wrap(self, name, fn, tag=None, note=None):
        """Return fn timed under `name`, suffixed by `tag(args)` when given."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = name if tag is None else f"{name}.{tag(args)}"
            if note is not None:
                note(self, key, args)
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[key] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                inner = self._stack.pop()
                self.total[key] += elapsed
                self.inner[key] += inner
                self.calls[key] += 1
                if self._stack:
                    self._stack[-1] += elapsed

        return traced

    def self_ms(self, key: str) -> float:
        return (self.total[key] - self.inner[key]) * 1e3

    def total_self_ms(self) -> float:
        return sum(self.self_ms(key) for key in list(self.total))

    def table(self) -> list[tuple[str, float, float, int]]:
        """(key, total ms, self ms, calls), largest self time first."""
        rows = [(k, self.total[k] * 1e3, self.self_ms(k), self.calls[k]) for k in list(self.total)]
        return sorted(rows, key=lambda row: -row[2])


# --- how a call is tagged and counted ---------------------------------------

def _side(rows: int) -> str:
    return f"r{math.isqrt(rows)}"


def _grid_side(args) -> str:
    return f"r{args[0].h}"


def _dout_side(args) -> str:
    return _side(args[0].shape[0])


def _branches_side(args) -> str:
    return f"r{args[0][0].feat.h}"


def _score_elems(keys_of):
    """Count query x key score entries from the forward op's input shapes."""

    def note(tracer, key, args):
        feat = args[0]
        tracer.counts[f"{key}.score_elems"] += feat.h * feat.w * keys_of(args)

    return note


def _note_mask(tracer, key, args):
    bbox, h, w = args[0], args[1], args[2]
    tracer.distinct[key].add((bbox.x1, bbox.y1, bbox.x2, bbox.y2, h, w))


def _note_radl_on(tracer, key, args):
    tracer.counts["pipeline.radl_on"] += bool(args[4])


_KEYS_OF = {
    "masked_text_attention": lambda args: args[1].length,
    "attribute_enhancement": lambda args: args[1].shape[0],
    "instance_attention": lambda args: args[1].length,
    "relation_attention": lambda args: 0 if args[1] is None else args[1].length,
}


def patch_table(radl):
    """(namespace, attribute, span name, tag, note) for every traced call.

    `radl` maps module names to the imported radl modules.  A missing
    attribute raises, so a renamed function cannot drop out unnoticed.
    """
    pipeline, cli, evalmetrics, scenes = (
        radl["pipeline"], radl["cli"], radl["evalmetrics"], radl["scenes"]
    )
    rows = []
    for op in ATTENTION_OPS:
        rows.append((pipeline, f"{op}_forward", f"attention.{op}_forward", _grid_side,
                     _score_elems(_KEYS_OF[op])))
        rows.append((pipeline, f"{op}_backward", f"attention.{op}_backward", _dout_side, None))
    rows += [
        (pipeline, "fuse_forward", "fusion.fuse_forward", _branches_side, None),
        (pipeline, "fuse_backward", "fusion.fuse_backward", _dout_side, None),
        (pipeline, "position_embed_forward", "text.position_embed_forward", None, None),
        (pipeline, "position_embed_backward", "text.position_embed_backward", None, None),
        (pipeline, "build_instance_embedding_forward", "text.build_instance_embedding_forward",
         None, None),
        (pipeline, "build_instance_embedding_backward", "text.build_instance_embedding_backward",
         None, None),
        (pipeline, "rasterize_mask", "layout.rasterize_mask", None, _note_mask),
        (pipeline, "total_mask", "layout.total_mask", None, None),
        (pipeline, "encode_layout", "pipeline.encode_layout", None, None),
        (pipeline, "denoise_forward_cached", "pipeline.denoise_forward_cached", None,
         _note_radl_on),
        (pipeline, "denoise_backward", "pipeline.denoise_backward", None, None),
        (pipeline, "mse_loss_and_grads", "pipeline.mse_loss_and_grads", None, None),
        (pipeline, "sample", "pipeline.sample", None, None),
        (pipeline, "train", "pipeline.train", None, None),
        (evalmetrics, "evaluate_image", "evalmetrics.evaluate_image", None, None),
        (evalmetrics, "detect", "evalmetrics.detect", None, None),
        (cli, "evaluate_images", "evalmetrics.evaluate_images", None, None),
        (cli, "load_hsv_table", "evalmetrics.load_hsv_table", None, None),
        (cli, "parse_layout", "layout.parse_layout", None, None),
        (cli, "write_ppm", "imageio.write_ppm", None, None),
        (cli, "read_ppm", "imageio.read_ppm", None, None),
        (cli, "load_tensors", "checkpoint.load_tensors", None, None),
        (cli, "save_tensors", "checkpoint.save_tensors", None, None),
        (cli, "main", "cli.main", None, None),
        (scenes, "make_scene", "scenes.make_scene", None, None),
        (scenes, "write_corpus", "scenes.write_corpus", None, None),
        (scenes, "read_corpus", "scenes.read_corpus", None, None),
    ]
    return rows


@contextmanager
def installed(tracer: Tracer, radl):
    """Install the tracer's wrappers; restore the originals on exit."""
    saved = []
    try:
        for module, attr, name, tag, note in patch_table(radl):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, tag, note))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --- the named per-layer metrics ---------------------------------------------

def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) for every reported per-layer metric."""
    specs = []

    def timed(key, ms="ms"):
        specs.append((f"{key}.{ms}", "ms", "lower"))

    def counted(key, what="calls"):
        specs.append((f"{key}.{what}", "count", "lower"))

    for op in ATTENTION_OPS:
        for direction in ("forward", "backward"):
            for side in SIDES:
                key = f"attention.{op}_{direction}.{side}"
                timed(key)
                counted(key)
                if direction == "forward":
                    counted(key, "score_elems")
    for direction in ("forward", "backward"):
        for side in SIDES:
            timed(f"fusion.fuse_{direction}.{side}")
            counted(f"fusion.fuse_{direction}.{side}")
    for op in ("position_embed", "build_instance_embedding"):
        for direction in ("forward", "backward"):
            timed(f"text.{op}_{direction}")
            counted(f"text.{op}_{direction}")
    for key in ("layout.rasterize_mask", "layout.total_mask", "pipeline.encode_layout"):
        timed(key)
        counted(key)
    specs.append(("layout.rasterize_mask.distinct_frac", "frac", "higher"))
    for key in ("pipeline.denoise_forward_cached", "pipeline.denoise_backward"):
        timed(key, "self_ms")
        counted(key)
    timed("pipeline.mse_loss_and_grads", "self_ms")
    timed("pipeline.train", "self_ms")
    timed("pipeline.sample", "self_ms")
    counted("pipeline.sample")
    specs.append(("pipeline.radl_on_frac", "frac", "lower"))
    for key in (
        "evalmetrics.detect", "evalmetrics.evaluate_image",
        "imageio.write_ppm", "imageio.read_ppm",
        "checkpoint.load_tensors", "checkpoint.save_tensors",
        "scenes.make_scene",
    ):
        timed(key)
        counted(key)
    specs.append(("scenes.placement_fail_frac", "frac", "lower"))
    timed("cli.main", "self_ms")
    specs.append(("trace.overhead_frac", "frac", "lower"))
    return specs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """Value of every named per-layer metric; ms figures are self times."""
    derived = {
        "layout.rasterize_mask.distinct_frac": _ratio(
            len(tracer.distinct["layout.rasterize_mask"]), tracer.calls["layout.rasterize_mask"]
        ),
        "pipeline.radl_on_frac": _ratio(
            tracer.counts["pipeline.radl_on"], tracer.calls["pipeline.denoise_forward_cached"]
        ),
        "scenes.placement_fail_frac": _ratio(
            tracer.raised["scenes.make_scene"], tracer.calls["scenes.make_scene"]
        ),
        "trace.overhead_frac": overhead_frac,
    }
    values = {}
    for name, _, _ in layer_metric_specs():
        if name in derived:
            values[name] = derived[name]
            continue
        key, field = name.rsplit(".", 1)
        if field in ("ms", "self_ms"):
            values[name] = tracer.self_ms(key)
        elif field == "calls":
            values[name] = tracer.calls[key]
        else:
            values[name] = tracer.counts[name]
    return values


def missing_layers(tracer: Tracer) -> list[str]:
    """Named layers that recorded no call; every workload runs all of them."""
    keys = {
        name.rsplit(".", 1)[0]
        for name, _, _ in layer_metric_specs()
        if name.rsplit(".", 1)[1] in ("ms", "self_ms", "calls")
    }
    return sorted(key for key in keys if tracer.calls[key] == 0)
