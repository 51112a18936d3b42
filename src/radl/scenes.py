"""Synthetic colored-shape scenes and the JSONL corpus format.

Scenes are non-overlapping axis-aligned colored rectangles on a neutral
background, each labeled "<color> square", with spatial relation triples
derived from the placed geometry.  The generator doubles as the evaluation
oracle: its layouts are ground truth for the toy detector.
"""
from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from .errors import MalformedDoc, PlacementFailure, RadlError, read_utf8
from .imageio import decode_rgb8, encode_rgb8
from .layout import (
    BBox,
    InstanceSpec,
    LayoutSpec,
    Relation,
    layout_from_obj,
    layout_to_obj,
    rasterize_mask,
)

PALETTE_RGB: dict[str, tuple[float, float, float]] = {
    "red": (1.0, 0.0, 0.0),
    "green": (0.0, 1.0, 0.0),
    "blue": (0.0, 0.0, 1.0),
    "yellow": (1.0, 1.0, 0.0),
    "cyan": (0.0, 1.0, 1.0),
    "purple": (0.6, 0.0, 0.8),
    "orange": (1.0, 0.55, 0.0),
    "white": (1.0, 1.0, 1.0),
    "black": (0.0, 0.0, 0.0),
}
PALETTE = ("red", "green", "blue", "yellow")  # the colors scenes draw, and eval detects
BACKGROUND_RGB = (0.5, 0.5, 0.5)  # every scene's background, neutral gray
VERB_TEMPLATES = ("resting", "floating", "sitting", "standing")  # verbs a prompt may carry
MAX_PLACEMENT_ATTEMPTS = 200  # draws per instance before make_scene gives up
# failing seeds in a row before generate gives up: the longest run of the
# test, golden and benchmark configs is 23 (2 boxes of 0.42-0.6)
MAX_FAILED_SEEDS = 200


@dataclass(frozen=True)
class SceneConfig:
    """Knobs for the synthetic scene generator."""

    image_size: int = 32
    n_instances: tuple[int, int] = (2, 2)  # inclusive range
    min_box: float = 0.35
    max_box: float = 0.55

    def __post_init__(self):
        # an integer size keeps every snapped box inside the image
        if not (isinstance(self.image_size, (int, np.integer)) and self.image_size >= 1):
            raise ValueError(f"image_size must be an integer >= 1, got {self.image_size!r}")
        if not 0 <= self.n_instances[0] <= self.n_instances[1]:
            raise ValueError(f"n_instances must be a range 0 <= low <= high, got {self.n_instances!r}")
        if not 0 < self.min_box <= 1:
            raise ValueError(f"min_box must be in (0, 1], got {self.min_box!r}")
        if not self.min_box <= self.max_box <= 1:
            raise ValueError(f"max_box must be in [min_box, 1], got {self.max_box!r}")
        if self.n_instances[1] > len(PALETTE):
            raise ValueError(
                f"n_instances {self.n_instances!r} asks for more distinct colors than the "
                f"palette's {len(PALETTE)}"
            )


@dataclass(frozen=True)
class SyntheticScene:
    """RGB image in [0,1] (3, S, S) plus the layout that produced it."""

    image: np.ndarray
    layout: LayoutSpec


def _predicate(a: BBox, b: BBox) -> str:
    ax, ay = a.center
    bx, by = b.center
    if abs(ay - by) >= abs(ax - bx):
        return "above" if ay < by else "below"
    return "left of" if ax < bx else "right of"


def _prompt(labels: list[str], relations: tuple[Relation, ...], verb: str) -> str:
    if not labels:
        return "a plain gray background"
    if len(labels) == 1:
        return f"a scene with a {labels[0]}"
    if len(labels) == 2 and relations:
        rel = relations[0]
        return f"a {labels[rel.subject]} {verb} {rel.predicate} a {labels[rel.obj]}"
    return "a scene with " + ", ".join(f"a {l}" for l in labels)


def render_layout(layout: LayoutSpec, image_size: int) -> np.ndarray:
    """Paint each instance's palette color inside its rasterized box on the
    background."""
    img = np.empty((3, image_size, image_size), dtype=np.float64)
    for c in range(3):
        img[c].fill(BACKGROUND_RGB[c])
    for inst in layout.instances:
        color_word = inst.label.split()[0]
        rgb = PALETTE_RGB[color_word]
        mask = rasterize_mask(inst.bbox, image_size, image_size)
        for c in range(3):
            img[c][mask] = rgb[c]
    return img


def scene_rng(rng_seed: int) -> np.random.Generator:
    """The generator a scene's seed draws from."""
    return np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(11,)))


def make_scene(rng_seed: int, config: SceneConfig = SceneConfig()) -> SyntheticScene:
    """Deterministically generate one scene from the seed.

    Each box is placed by rejection sampling: an attempt draws its four
    uniforms in one call and applies `Generator.uniform`'s own formula,
    low + (high - low) * u, to them, so the stream and the boxes are those
    of four scalar `uniform` calls (`oracles.make_scene_oracle`).
    """
    rng = scene_rng(rng_seed)
    n = int(rng.integers(config.n_instances[0], config.n_instances[1] + 1))
    s = config.image_size
    px = 1.0 / s
    margin = 0.5 / s  # on-grid boxes must stay at least one pixel apart
    lo, top = config.min_box, config.max_box

    boxes: list[tuple[float, float, float, float]] = []
    for _ in range(n):
        for attempt in range(MAX_PLACEMENT_ATTEMPTS):
            uw, uh, ux, uy = rng.random(4).tolist()
            # anneal the size ceiling toward min_box so crowded layouts
            # still find room before the retry budget runs out; span is
            # the ceiling's distance from min_box
            span = top - (top - lo) * attempt / MAX_PLACEMENT_ATTEMPTS - lo
            # snap to the pixel grid: rasterization at image resolution is
            # then exact and the detector round trip is lossless
            w = max(round((lo + span * uw) * s) / s, px)
            h = max(round((lo + span * uh) * s) / s, px)
            x1 = round((1.0 - w) * ux * s) / s
            y1 = round((1.0 - h) * uy * s) / s
            x2, y2 = x1 + w, y1 + h
            if not (0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0):
                BBox(x1, y1, x2, y2)  # raises the InvalidBBox naming the box
            if not any(
                x1 < bx2 + margin and bx1 < x2 + margin and y1 < by2 + margin and by1 < y2 + margin
                for bx1, by1, bx2, by2 in boxes
            ):
                boxes.append((x1, y1, x2, y2))
                break
        else:
            raise PlacementFailure(
                f"could not place instance {len(boxes)} after {MAX_PLACEMENT_ATTEMPTS} tries"
            )
    return compose_scene(rng, [BBox(*box) for box in boxes], config)


def compose_scene(rng: np.random.Generator, boxes: list[BBox], config: SceneConfig) -> SyntheticScene:
    """The scene of placed boxes: colors and a verb drawn from `rng`, the
    relations the geometry gives, the prompt and the rendered image."""
    n = len(boxes)
    colors = [PALETTE[i] for i in rng.choice(len(PALETTE), n, replace=False)]
    labels = [f"{color} square" for color in colors]
    relations = tuple(
        Relation(i, _predicate(boxes[i], boxes[j]), j)
        for i in range(n)
        for j in range(i + 1, n)
    )
    verb = str(rng.choice(VERB_TEMPLATES))
    layout = LayoutSpec(
        prompt=_prompt(labels, relations, verb),
        instances=tuple(InstanceSpec(label=l, bbox=b) for l, b in zip(labels, boxes)),
        relations=relations,
    )
    return SyntheticScene(image=render_layout(layout, config.image_size), layout=layout)


def generate(seed0: int, count: int, config: SceneConfig = SceneConfig()) -> list[SyntheticScene]:
    """The first `count` scenes from seeds seed0, seed0 + 1, ..., skipping the
    seeds whose instances cannot be placed; after MAX_FAILED_SEEDS such
    seeds in a row it raises PlacementFailure."""
    scenes, seed, failed = [], seed0, 0
    while len(scenes) < count:
        try:
            scenes.append(make_scene(seed, config))
            failed = 0
        except PlacementFailure:
            failed += 1
            if failed == MAX_FAILED_SEEDS:
                raise PlacementFailure(
                    f"no scene could be placed from {failed} seeds in a row "
                    f"({seed - failed + 1}..{seed}) with {config}"
                ) from None
        seed += 1
    return scenes


# --- corpus file: one JSON object per line ----------------------------------

def _image_to_obj(image: np.ndarray) -> dict:
    data = base64.b64encode(encode_rgb8(image)).decode("ascii")
    return {"height": image.shape[1], "width": image.shape[2], "data": data}


def _image_from_obj(obj: dict) -> np.ndarray:
    h, w = obj["height"], obj["width"]
    for key, n in (("height", h), ("width", w)):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"image {key} must be a positive integer, got {n!r}")
    return decode_rgb8(base64.b64decode(obj["data"]), h, w)


def write_corpus(path, scenes: list[SyntheticScene]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for scene in scenes:
            layout_obj = layout_to_obj(scene.layout)
            relations = layout_obj.pop("relations", [])
            fh.write(
                json.dumps(
                    {
                        "image": _image_to_obj(scene.image),
                        "layout": layout_obj,
                        "relations": relations,
                    }
                )
                + "\n"
            )


def read_corpus(path) -> list[SyntheticScene]:
    try:
        text = read_utf8(path)
    except FileNotFoundError:
        raise FileNotFoundError(f"corpus not found: {path}") from None
    scenes = []
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line:
            continue
        # a line that is not an object (or nests past the recursion limit),
        # lacks a key, has a bad layout, or whose image data does not decode
        # to its stated size
        try:
            obj = json.loads(line)
            layout_obj = dict(obj["layout"])
            layout_obj["relations"] = obj.get("relations", [])
            image = _image_from_obj(obj["image"])
            layout = layout_from_obj(layout_obj)
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError, RadlError) as e:
            raise MalformedDoc(
                f"{path}:{lineno}: bad corpus line: {type(e).__name__}: {e}"
            ) from e
        # the denoiser trains on square images of one size
        h, w = image.shape[1:]
        if h != w:
            raise MalformedDoc(f"{path}:{lineno}: image is {h}x{w}, not square")
        if scenes and image.shape != scenes[0].image.shape:
            size = scenes[0].image.shape[1]
            raise MalformedDoc(f"{path}:{lineno}: image is {h}x{w}, the first is {size}x{size}")
        scenes.append(SyntheticScene(image=image, layout=layout))
    return scenes
