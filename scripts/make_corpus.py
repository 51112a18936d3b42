#!/usr/bin/env python3
"""Generate a synthetic scene corpus (JSONL) plus optional eval material.

By default writes only the corpus file used by `radl train`.  With
--eval-dirs it also dumps each scene as a PPM/layout-JSON pair so that
`radl eval` can be exercised against ground-truth renders.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radl.errors import OneLineParser, PlacementFailure
from radl.imageio import write_ppm
from radl.layout import serialize_layout
from radl.scenes import SceneConfig, generate, write_corpus


def write_outputs(args, scenes) -> None:
    write_corpus(args.out, scenes)
    print(f"wrote {len(scenes)} scenes to {args.out}")

    if args.eval_dirs:
        img_dir = Path(args.eval_dirs) / "images"
        lay_dir = Path(args.eval_dirs) / "layouts"
        img_dir.mkdir(parents=True, exist_ok=True)
        lay_dir.mkdir(parents=True, exist_ok=True)
        for i, scene in enumerate(scenes):
            write_ppm(img_dir / f"scene_{i:04d}.ppm", scene.image)
            (lay_dir / f"scene_{i:04d}.json").write_text(
                serialize_layout(scene.layout), encoding="utf-8"
            )
        print(f"wrote eval pairs under {args.eval_dirs}")


def main() -> int:
    parser = OneLineParser(description=__doc__)
    parser.add_argument("--out", default="corpus.jsonl")
    parser.add_argument("--count", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0, help="first generator seed")
    parser.add_argument("--image-size", type=int, default=32)
    parser.add_argument("--min-instances", type=int, default=2)
    parser.add_argument("--max-instances", type=int, default=2)
    parser.add_argument("--eval-dirs", default=None,
                        help="also write <dir>/images/*.ppm and <dir>/layouts/*.json")
    try:
        args = parser.parse_args()
    except argparse.ArgumentError as e:
        print(f"make_corpus: {e}", file=sys.stderr)
        return 2
    # an empty corpus is one `radl train` refuses; numpy refuses a negative seed
    for flag, value, low in (("--count", args.count, 1), ("--seed", args.seed, 0)):
        if value < low:
            print(f"make_corpus: {flag} must be >= {low}, got {value}", file=sys.stderr)
            return 2

    try:
        cfg = SceneConfig(
            image_size=args.image_size,
            n_instances=(args.min_instances, args.max_instances),
        )
        scenes = generate(args.seed, args.count, cfg)
    except (ValueError, PlacementFailure) as e:  # an out-of-range or unplaceable config
        print(f"make_corpus: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # numpy's message names the array's size
        print(f"make_corpus: the config needs more memory than can be allocated: {e}",
              file=sys.stderr)
        return 2
    try:
        write_outputs(args, scenes)
    except OSError as e:  # an output path that cannot be written
        print(f"make_corpus: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
