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

from .errors import MalformedDoc, PlacementFailure, read_utf8
from .layout import (
    BBox,
    InstanceSpec,
    LayoutSpec,
    Relation,
    parse_layout,
    rasterize_mask,
    serialize_layout,
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
BACKGROUND_RGB = (0.5, 0.5, 0.5)  # every scene's background, neutral gray
VERB_TEMPLATES = ("resting", "floating", "sitting", "standing")  # verbs a prompt may carry


@dataclass(frozen=True)
class SceneConfig:
    """Knobs for the synthetic scene generator."""

    image_size: int = 32
    n_instances: tuple[int, int] = (2, 2)  # inclusive range
    palette: tuple[str, ...] = ("red", "green", "blue", "yellow")
    min_box: float = 0.35
    max_box: float = 0.55
    max_attempts: int = 200

    def __post_init__(self):
        if len(self.palette) < 2:
            raise ValueError("palette needs at least 2 colors")
        for name in self.palette:
            if name not in PALETTE_RGB:
                raise ValueError(f"unknown palette color {name!r}")
        if self.n_instances[1] > len(self.palette):
            raise ValueError("cannot draw more distinct colors than the palette holds")


@dataclass(frozen=True)
class SyntheticScene:
    """RGB image in [0,1] (3, S, S) plus the layout that produced it."""

    image: np.ndarray
    layout: LayoutSpec

    @property
    def relations(self) -> tuple[Relation, ...]:
        return self.layout.relations


def _boxes_overlap(a: BBox, b: BBox, margin: float) -> bool:
    return (
        a.x1 < b.x2 + margin
        and b.x1 < a.x2 + margin
        and a.y1 < b.y2 + margin
        and b.y1 < a.y2 + margin
    )


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
        mask = rasterize_mask(inst.bbox, image_size, image_size).values.astype(bool)
        for c in range(3):
            img[c][mask] = rgb[c]
    return img


def make_scene(rng_seed: int, config: SceneConfig = SceneConfig()) -> SyntheticScene:
    """Deterministically generate one scene from the seed."""
    rng = np.random.default_rng(np.random.SeedSequence(rng_seed, spawn_key=(11,)))
    n = int(rng.integers(config.n_instances[0], config.n_instances[1] + 1))
    s = config.image_size
    margin = 0.5 / s  # on-grid boxes must stay at least one pixel apart

    def snap(v: float) -> float:
        return round(v * s) / s

    boxes: list[BBox] = []
    for _ in range(n):
        placed = None
        for attempt in range(config.max_attempts):
            # anneal the size ceiling toward min_box so crowded layouts
            # still find room before the retry budget runs out
            hi = config.max_box - (config.max_box - config.min_box) * attempt / config.max_attempts
            # snap to the pixel grid: rasterization at image resolution is
            # then exact and the detector round trip is lossless
            w = max(snap(float(rng.uniform(config.min_box, hi))), 1.0 / s)
            h = max(snap(float(rng.uniform(config.min_box, hi))), 1.0 / s)
            x1 = snap(float(rng.uniform(0.0, 1.0 - w)))
            y1 = snap(float(rng.uniform(0.0, 1.0 - h)))
            cand = BBox(x1, y1, x1 + w, y1 + h)
            if not any(_boxes_overlap(cand, other, margin) for other in boxes):
                placed = cand
                break
        if placed is None:
            raise PlacementFailure(
                f"could not place instance {len(boxes)} after {config.max_attempts} tries"
            )
        boxes.append(placed)

    colors = [config.palette[i] for i in rng.choice(len(config.palette), n, replace=False)]
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
    seeds whose instances cannot be placed."""
    scenes, seed = [], seed0
    while len(scenes) < count:
        try:
            scenes.append(make_scene(seed, config))
        except PlacementFailure:
            pass
        seed += 1
    return scenes


# --- corpus file: one JSON object per line ----------------------------------

def _image_to_obj(image: np.ndarray) -> dict:
    u8 = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    raw = u8.transpose(1, 2, 0).tobytes()  # interleaved RGB, row-major
    return {
        "height": image.shape[1],
        "width": image.shape[2],
        "data": base64.b64encode(raw).decode("ascii"),
    }


def _image_from_obj(obj: dict) -> np.ndarray:
    h, w = int(obj["height"]), int(obj["width"])
    raw = base64.b64decode(obj["data"])
    u8 = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return u8.transpose(2, 0, 1).astype(np.float64) / 255.0


def write_corpus(path, scenes: list[SyntheticScene]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for scene in scenes:
            layout_obj = json.loads(serialize_layout(scene.layout))
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
        # lacks a key, or whose image data does not decode to its stated
        # size (an infinite one overflows)
        try:
            obj = json.loads(line)
            layout_obj = dict(obj["layout"])
            layout_obj["relations"] = obj.get("relations", [])
            image = _image_from_obj(obj["image"])
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
            raise MalformedDoc(
                f"{path}:{lineno}: bad corpus line: {type(e).__name__}: {e}"
            ) from e
        scenes.append(SyntheticScene(image=image, layout=parse_layout(json.dumps(layout_obj))))
    return scenes
