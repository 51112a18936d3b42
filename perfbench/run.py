#!/usr/bin/env python3
"""radl benchmark: train, gen and eval cost on two workloads.

    python3 perfbench/run.py --workload steer_train --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the run makes several identical passes over the
workload's operations within about `--seconds` and prints the end-to-end
metrics.  With `--trace 1` it runs a fixed amount of work twice, untraced
then traced, checks that both passes wrote the same bytes, and prints the
per-layer metrics.  The last line of standard output is the result JSON.
"""
import os

# one BLAS/OpenMP thread: with more, the second core spins on 8-wide matmuls
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0    # the seed whose outputs are checked against reference.json
ROUNDS = 8          # identical passes per untraced run
SETUPS = 3          # of which set the workload up again; the rest reuse a set-up
TRACE_CYCLES_PER_S = 0.15  # a traced run's cycles per pass, per second of --seconds

END_TO_END = (
    ("train_ms_per_step", "ms"), ("train_ms_per_step_p90", "ms"),
    ("gen_ms_per_image", "ms"), ("gen_ms_per_image_p90", "ms"),
    ("eval_ms_per_image", "ms"), ("eval_ms_per_image_p90", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "frac"),
)


def log(message: str):
    print(message, file=sys.stderr, flush=True)


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end(passes) -> dict[str, float]:
    """The median takes each operation's fastest time over the passes, so a
    burst of load from elsewhere on the machine must cover the same
    operation in every pass to move it; the tail pools every sample."""
    values = {}
    for kind, unit in (("train", "step"), ("gen", "image"), ("eval", "image")):
        runs = [p.samples[kind] for p in passes]
        values[f"{kind}_ms_per_{unit}"] = statistics.median(min(t) for t in zip(*runs))
        values[f"{kind}_ms_per_{unit}_p90"] = p90([t for times in runs for t in times])
    values["setup_s"] = statistics.median(p.setup_s for p in passes if p.setup_s is not None)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ok_frac"] = 1.0 - sum(p.failed for p in passes) / sum(p.attempted for p in passes)
    return values


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": sys.version.split()[0],
    }


def load_reference(workload: str, seed: int):
    if seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)


def check_passes(passes, reference, what: str):
    """Cross-pass checks, recorded on the last pass."""
    last = passes[-1]
    if reference is not None:
        passes[0].check_reference(reference)
    same = (len({p.loop_outputs.digest() for p in passes}) == 1
            and len({p.setup_outputs.digest() for p in passes if p.setup_s is not None}) == 1)
    last.record(what, [] if same else ["passes wrote different bytes"])


def finish(passes, metrics: dict[str, tuple[float, str]]) -> int:
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def measure(spec, seed: int, seconds: float, work: Path, reference) -> int:
    """Untraced run: ROUNDS identical passes that share `seconds` between them.

    SETUPS of the passes, spread over the run, set the workload up again;
    the others reuse the last set-up with a fresh model.  The first pass
    runs cycles until its share of the time is up; the others repeat
    exactly its work.
    """
    from workloads import Pass

    every = -(-ROUNDS // SETUPS)
    first = Pass(spec, seed, work, log=log).setup()
    passes = [first.loop(seconds=max(seconds - SETUPS * first.setup_s, 0.0) / ROUNDS)]
    for r in range(1, ROUNDS):
        again = Pass(spec, seed, work, log=log)
        again = again.setup() if r % every == 0 else again.adopt(passes[-1])
        passes.append(again.loop(cycles=first.cycles))
    check_passes(passes, reference, "passes wrote identical bytes")
    values = end_to_end(passes)
    print(f"{ROUNDS} passes of {first.cycles} cycles, {SETUPS} set-ups; operations per pass: "
          + ", ".join(f"{kind} {len(times)}" for kind, times in first.samples.items()))
    units = dict(END_TO_END)
    return finish(passes, {name: (values[name], units[name]) for name, _ in END_TO_END})


def traced(spec, seed: int, seconds: float, work: Path, reference) -> int:
    """Fixed work twice, untraced then traced; per-layer metrics of the second."""
    from tracing import Tracer, installed, layer_metric_specs, layer_metrics, missing_layers
    from workloads import RADL, Pass

    cycles = max(2, round(seconds * TRACE_CYCLES_PER_S))
    start = time.perf_counter()
    plain = Pass(spec, seed, work, log=log).setup().loop(cycles=cycles)
    plain_wall = time.perf_counter() - start

    tracer = Tracer()
    run = Pass(spec, seed, work, tracer=tracer, log=log)
    start = time.perf_counter()
    with installed(tracer, RADL):
        run.setup().loop(cycles=cycles)
    traced_wall = time.perf_counter() - start

    check_passes([plain, run], reference, "outputs identical with tracing on and off")
    missing = missing_layers(tracer)
    run.record("every named layer called",
               [f"no calls recorded for {', '.join(missing)}"] if missing else [])

    overhead = traced_wall / plain_wall - 1.0
    before, after = end_to_end([plain]), end_to_end([run])
    print(f"{cycles} cycles per pass; pass wall untraced {plain_wall:.3f} s, "
          f"traced {traced_wall:.3f} s, overhead {100 * overhead:+.1f}%")
    for name, unit in END_TO_END[:7]:
        print(f"  {name:24s} untraced {before[name]:9.3f} {unit}  traced {after[name]:9.3f} "
              f"{unit}  ({100 * (after[name] / before[name] - 1):+.1f}%)")
    print(f"self times sum to {tracer.total_self_ms():.1f} ms of a "
          f"{traced_wall * 1e3:.1f} ms traced pass")
    for key, total_ms, self_ms, calls in tracer.table():
        print(f"  {key:52s} self {self_ms:10.2f} ms  total {total_ms:10.2f} ms  calls {calls}")
    values = layer_metrics(tracer, overhead)
    return finish([plain, run],
                  {name: (values[name], unit) for name, unit, _ in layer_metric_specs()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store this workload's seed-{DEFAULT_SEED} values as the reference")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "radl").is_dir():
        log(f"no radl sources under {src}; run from the root of a checkout")
        return 3
    sys.path.insert(0, str(src))
    try:
        import workloads
    except ImportError as e:
        log(f"cannot import radl from {src}: {e}")
        return 3
    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        log(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
        return 2
    print("env " + json.dumps(environment()), flush=True)

    work = ROOT / ".perfbench_work" / f"{spec.name}-{os.getpid()}"
    try:
        if args.write_reference:
            return write_reference(spec, work)
        reference = load_reference(spec.name, args.seed)
        run = traced if args.trace else measure
        return run(spec, args.seed, args.seconds, work, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def write_reference(spec, work: Path) -> int:
    from workloads import Pass

    run = Pass(spec, DEFAULT_SEED, work, log=log).setup().loop(cycles=2)
    if run.failed:
        log("checks failed; reference not written")
        return 1
    stored = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    stored[spec.name] = run.reference_values()
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {spec.name} reference values to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
