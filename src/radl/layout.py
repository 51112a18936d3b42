"""Layout descriptions and bounding-box mask rasterization.

A layout is a global prompt plus N labeled boxes in normalized [0,1]
coordinates (x grows right, y grows down).  Boxes rasterize to hard binary
masks at any grid resolution via a pixel-center inclusion rule.
"""
from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InvalidBBox, MalformedDoc, ShapeMismatch, TooManyInstances, finite_number, parse_json,
)

MAX_INSTANCES = 16  # instances a layout may hold
RELATION_PREDICATES = ("above", "below", "left of", "right of")  # what evaluation can score


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in normalized image coordinates."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        ok = (
            0.0 <= self.x1 < self.x2 <= 1.0
            and 0.0 <= self.y1 < self.y2 <= 1.0
        )
        if not ok:
            raise InvalidBBox(
                f"bbox ({self.x1}, {self.y1}, {self.x2}, {self.y2}) violates "
                "0 <= x1 < x2 <= 1, 0 <= y1 < y2 <= 1"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @cached_property
    def area(self) -> float:
        """Worked out once per box: IoU matching reads it for every pair."""
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)


@dataclass(frozen=True)
class InstanceSpec:
    """One labeled instance: text attributes plus its box."""

    label: str
    bbox: BBox

    def __post_init__(self):
        if not self.label.strip():
            raise MalformedDoc("instance label is empty")


@dataclass(frozen=True)
class Relation:
    """Spatial relation triple between two instances, used by evaluation."""

    subject: int
    predicate: str
    obj: int


@dataclass(frozen=True)
class LayoutSpec:
    """Global prompt, instances, and optional explicit verbs / relations."""

    prompt: str
    instances: tuple[InstanceSpec, ...] = ()
    verbs: tuple[str, ...] | None = None
    relations: tuple[Relation, ...] = ()

    @property
    def n(self) -> int:
        return len(self.instances)


def _require(cond: bool, msg: str):
    if not cond:
        raise MalformedDoc(msg)


def parse_layout(doc: str) -> LayoutSpec:
    """Parse a layout JSON document (see layout_from_obj)."""
    return layout_from_obj(parse_json(doc, "layout"))


def layout_from_obj(obj) -> LayoutSpec:
    """The layout a decoded layout JSON value describes.

    Raises MalformedDoc for structural problems, InvalidBBox (with the
    instance index) for box-invariant violations, TooManyInstances past
    MAX_INSTANCES.  Coordinates are passed through untouched, never clamped.
    """
    _require(isinstance(obj, dict), "top level must be a JSON object")
    _require("prompt" in obj, "missing field 'prompt'")
    _require(isinstance(obj["prompt"], str), "'prompt' must be a string")
    _require("instances" in obj, "missing field 'instances'")
    _require(isinstance(obj["instances"], list), "'instances' must be an array")

    raw_instances = obj["instances"]
    if len(raw_instances) > MAX_INSTANCES:
        raise TooManyInstances(
            f"{len(raw_instances)} instances exceeds cap {MAX_INSTANCES}"
        )

    instances = []
    for i, inst in enumerate(raw_instances):
        _require(isinstance(inst, dict), f"instance {i} must be an object")
        _require("label" in inst, f"instance {i} missing field 'label'")
        _require(isinstance(inst["label"], str), f"instance {i} 'label' must be a string")
        _require("bbox" in inst, f"instance {i} missing field 'bbox'")
        box = inst["bbox"]
        _require(
            isinstance(box, list) and len(box) == 4 and all(finite_number(v) for v in box),
            f"instance {i} 'bbox' must be an array of 4 finite numbers",
        )
        try:
            bbox = BBox(float(box[0]), float(box[1]), float(box[2]), float(box[3]))
        except InvalidBBox as e:
            raise InvalidBBox(f"instance {i}: {e}") from e
        if not inst["label"].strip():
            raise MalformedDoc(f"instance {i}: label is empty")
        instances.append(InstanceSpec(label=inst["label"], bbox=bbox))

    verbs = None
    if "verbs" in obj and obj["verbs"] is not None:
        _require(
            isinstance(obj["verbs"], list)
            and all(isinstance(v, str) for v in obj["verbs"]),
            "'verbs' must be an array of strings",
        )
        verbs = tuple(obj["verbs"])

    relations = []
    if "relations" in obj and obj["relations"] is not None:
        _require(isinstance(obj["relations"], list), "'relations' must be an array")
        for j, rel in enumerate(obj["relations"]):
            _require(isinstance(rel, dict), f"relation {j} must be an object")
            for key in ("subject", "predicate", "object"):
                _require(key in rel, f"relation {j} missing field '{key}'")
            _require(
                all(isinstance(rel[end], int) and not isinstance(rel[end], bool)
                    for end in ("subject", "object")),
                f"relation {j} subject/object must be integer indices",
            )
            _require(rel["predicate"] in RELATION_PREDICATES,
                     f"relation {j} 'predicate' {rel['predicate']!r} is not one of {RELATION_PREDICATES}")
            for end in ("subject", "object"):
                if not 0 <= rel[end] < len(instances):
                    raise MalformedDoc(f"relation {j} '{end}' index {rel[end]} out of range")
            relations.append(Relation(rel["subject"], rel["predicate"], rel["object"]))

    return LayoutSpec(
        prompt=obj["prompt"],
        instances=tuple(instances),
        verbs=verbs,
        relations=tuple(relations),
    )


def serialize_layout(spec: LayoutSpec) -> str:
    """Inverse of parse_layout: parse_layout(serialize_layout(s)) == s."""
    return json.dumps(layout_to_obj(spec))


def layout_to_obj(spec: LayoutSpec) -> dict:
    """Inverse of layout_from_obj, a new dict on every call."""
    obj: dict = {
        "prompt": spec.prompt,
        "instances": [
            {"label": inst.label, "bbox": [inst.bbox.x1, inst.bbox.y1, inst.bbox.x2, inst.bbox.y2]}
            for inst in spec.instances
        ],
    }
    if spec.verbs is not None:
        obj["verbs"] = list(spec.verbs)
    if spec.relations:
        obj["relations"] = [
            {"subject": r.subject, "predicate": r.predicate, "object": r.obj}
            for r in spec.relations
        ]
    return obj


def rasterize_mask(bbox: BBox, h: int, w: int) -> np.ndarray:
    """Rasterize a box to an (h, w) bool mask.

    Entry (r, c) is True iff the pixel center ((c+0.5)/w, (r+0.5)/h) lies in
    [x1, x2) x [y1, y2).  Half-open on the max edge; a box reaching 1.0
    still covers the last row/column because centers are strictly < 1.
    Tiny boxes may rasterize to all False.
    """
    if h < 1 or w < 1:
        raise ShapeMismatch(f"grid dims must be >= 1, got {h}x{w}")
    cx, cy = _centers(w), _centers(h)
    # bisect_left(c, e) is the first center >= e: kept rows and columns
    # run from the low edge's to the high edge's, as the comparisons give
    mask = np.zeros((h, w), dtype=bool)
    mask[bisect_left(cy, bbox.y1) : bisect_left(cy, bbox.y2),
         bisect_left(cx, bbox.x1) : bisect_left(cx, bbox.x2)] = True
    return mask


@lru_cache(maxsize=64)
def _centers(n: int) -> tuple[float, ...]:
    """The pixel centers (i + 0.5) / n of an n-pixel axis, ascending."""
    return tuple(((np.arange(n, dtype=np.float64) + 0.5) / n).tolist())


def total_mask(masks: Sequence[np.ndarray], height: int, width: int) -> np.ndarray:
    """Pixelwise union of (height, width) bool instance masks.  An empty
    sequence yields the all-False grid."""
    total = np.zeros((height, width), dtype=bool)
    for m in masks:
        if m.shape != (height, width):
            raise ShapeMismatch(f"mask shape {m.shape} differs from {height}x{width}")
        total |= m
    return total
