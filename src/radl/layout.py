"""Layout descriptions and bounding-box mask rasterization.

A layout is a global prompt plus N labeled boxes in normalized [0,1]
coordinates (x grows right, y grows down).  Boxes rasterize to hard binary
masks at any grid resolution via a pixel-center inclusion rule.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidBBox, MalformedDoc, ShapeMismatch, TooManyInstances

DEFAULT_MAX_INSTANCES = 16
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

    @property
    def area(self) -> float:
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


@dataclass(frozen=True)
class MaskGrid:
    """H x W binary grid stored as float64 values in {0, 1}, or a stack
    (K, H, W) of such grids, one per feature grid of a stack."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim not in (2, 3) or v.size < 1:
            raise ShapeMismatch(f"mask must be a 2-d grid or a stack of them, got shape {v.shape}")
        if not np.all((v == 0.0) | (v == 1.0)):
            raise ShapeMismatch("mask entries must be exactly 0 or 1")
        object.__setattr__(self, "values", v)

    @property
    def h(self) -> int:
        return self.values.shape[-2]

    @property
    def w(self) -> int:
        return self.values.shape[-1]

    def flat(self) -> np.ndarray:
        """Row-major ([K,] h*w) view matching FeatureGrid spatial order."""
        return self.values.reshape(self.values.shape[:-2] + (-1,))


def _require(cond: bool, msg: str):
    if not cond:
        raise MalformedDoc(msg)


def parse_layout(doc: str, max_instances: int = DEFAULT_MAX_INSTANCES) -> LayoutSpec:
    """Parse a layout JSON document.

    Raises MalformedDoc for structural problems, InvalidBBox (with the
    instance index) for box-invariant violations, TooManyInstances past
    the cap.  Coordinates are passed through untouched, never clamped.
    """
    try:
        obj = json.loads(doc)
    except (json.JSONDecodeError, RecursionError) as e:
        raise MalformedDoc(f"not valid JSON: {e}") from e
    _require(isinstance(obj, dict), "top level must be a JSON object")
    _require("prompt" in obj, "missing field 'prompt'")
    _require(isinstance(obj["prompt"], str), "'prompt' must be a string")
    _require("instances" in obj, "missing field 'instances'")
    _require(isinstance(obj["instances"], list), "'instances' must be an array")

    raw_instances = obj["instances"]
    if len(raw_instances) > max_instances:
        raise TooManyInstances(
            f"{len(raw_instances)} instances exceeds cap {max_instances}"
        )

    instances = []
    for i, inst in enumerate(raw_instances):
        _require(isinstance(inst, dict), f"instance {i} must be an object")
        _require("label" in inst, f"instance {i} missing field 'label'")
        _require(isinstance(inst["label"], str), f"instance {i} 'label' must be a string")
        _require("bbox" in inst, f"instance {i} missing field 'bbox'")
        box = inst["bbox"]
        _require(
            isinstance(box, list) and len(box) == 4
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in box),
            f"instance {i} 'bbox' must be an array of 4 numbers",
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
    return json.dumps(obj)


def rasterize_mask(bbox: BBox, h: int, w: int) -> MaskGrid:
    """Rasterize a box to an h x w binary mask.

    Entry (r, c) is 1 iff the pixel center ((c+0.5)/w, (r+0.5)/h) lies in
    [x1, x2) x [y1, y2).  Half-open on the max edge; a box reaching 1.0
    still covers the last row/column because centers are strictly < 1.
    Tiny boxes may rasterize to all zeros.
    """
    if h < 1 or w < 1:
        raise ShapeMismatch(f"grid dims must be >= 1, got {h}x{w}")
    cx = (np.arange(w, dtype=np.float64) + 0.5) / w
    cy = (np.arange(h, dtype=np.float64) + 0.5) / h
    in_x = (cx >= bbox.x1) & (cx < bbox.x2)
    in_y = (cy >= bbox.y1) & (cy < bbox.y2)
    return MaskGrid(np.outer(in_y, in_x).astype(np.float64))


def total_mask(
    masks: list[MaskGrid] | tuple[MaskGrid, ...], height: int, width: int
) -> MaskGrid:
    """Pixelwise union of height x width instance masks.

    Entry is 1 iff the sum over masks at that entry is > 0.  An empty
    sequence yields the all-zeros grid.
    """
    total = np.zeros((height, width), dtype=np.float64)
    for m in masks:
        if (m.h, m.w) != (height, width):
            raise ShapeMismatch(f"mask dims {m.h}x{m.w} differ from {height}x{width}")
        total += m.values
    return MaskGrid((total > 0.0).astype(np.float64))
