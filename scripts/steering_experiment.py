#!/usr/bin/env python3
"""Train the full attention stack against its ablations and compare layout
steering on held-out scenes.

Arms:
  full         masked text attention + attribute enhancement + instance
               attention + residual + relation attention + fusion
  text_attn_only     masked text attention and fusion only
  no_relation  full minus the relation branch

All arms share the seed, init, corpus, and schedule; only the active
mechanism differs.  Prints a metrics table and writes per-arm checkpoints
and sample grids under --out.
"""
import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radl.cli import RunConfig, _save_checkpoint
from radl.errors import OneLineParser, finite_number
from radl.imageio import write_ppm
from radl.pipeline import VARIANTS
from radl.scenes import SceneConfig, generate
from radl.steering import run_arms


def bad_argument(args) -> str | None:
    """What is wrong with the first argument out of range, if one is."""
    for flag, value, low in (("--steps", args.steps, 0), ("--seed", args.seed, 0),
                             ("--corpus-size", args.corpus_size, 1),
                             ("--held-out", args.held_out, 1), ("--batch-size", args.batch_size, 1)):
        if value < low:
            return f"{flag} must be >= {low}, got {value}"
    if not (finite_number(args.lr) and args.lr > 0):
        return f"--lr must be a finite number > 0, got {args.lr}"
    for arm in args.arms:
        if arm not in VARIANTS:
            return f"unknown arm {arm!r}; the arms are {', '.join(VARIANTS)}"
    return None


def main() -> int:
    parser = OneLineParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--lr", type=float, default=5e-3,
                        help="experiment learning rate (package default is 1e-4)")
    parser.add_argument("--corpus-size", type=int, default=256)
    parser.add_argument("--held-out", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--out", default="out/steering")
    parser.add_argument("--arms", nargs="+",
                        default=["full", "text_attn_only", "no_relation"])
    try:
        args = parser.parse_args()
    except argparse.ArgumentError as e:
        print(f"steering_experiment: {e}", file=sys.stderr)
        return 2
    error = bad_argument(args)
    out_dir = Path(args.out)
    if not error:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:  # an --out that is a file, or cannot be made
            error = str(e)
    if error:
        print(f"steering_experiment: {error}", file=sys.stderr)
        return 2

    train_scenes = generate(0, args.corpus_size, SceneConfig())
    held_out = generate(100_000, args.held_out, SceneConfig())

    t0 = time.time()
    results = run_arms(args.arms, train_scenes, held_out, steps=args.steps, lr=args.lr,
                       seed=args.seed, batch_size=args.batch_size)
    print(f"trained {len(results)} arms for {args.steps} steps each and sampled "
          f"{len(held_out)} layouts per arm in {time.time() - t0:.0f}s", flush=True)
    rows = []
    for arm, res in results.items():
        _save_checkpoint(out_dir / f"{arm}.ckpt", res.result.params, res.result.step,
                         RunConfig(embed_seed=0))
        for i, (img, _) in enumerate(res.pairs[:8]):
            write_ppm(out_dir / f"{arm}_{i:02d}.ppm", img)
        rows.append((arm, res.report, float(np.mean(res.result.losses[-50:]))))
        print(f"[{arm}] final smoothed loss {rows[-1][2]:.3f}")

    print(f"\n{'arm':12s} {'mIoU':>6s} {'attr':>6s} {'succ':>6s} {'qty':>6s} {'rel':>6s}")
    for arm, rep, _ in rows:
        print(f"{arm:12s} {rep.miou:6.3f} {rep.attribute_acc:6.3f} "
              f"{rep.success_rate:6.3f} {rep.quantity_acc:6.3f} {rep.relation_acc:6.3f}")

    if {"full", "text_attn_only"} <= set(args.arms):
        full = next(r for a, r, _ in rows if a == "full")
        abl = next(r for a, r, _ in rows if a == "text_attn_only")
        print(f"\nsteering gain (full - text_attn_only) mIoU: {full.miou - abl.miou:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
