"""Desk-scale evaluation: color-region detection, IoU / mIoU, success rate
with HSV attribute matching, quantity accuracy, and centroid-based
relation accuracy.

The detector quantizes pixels to the nearest palette color and extracts
4-connected components, so scenes rendered by the generator round-trip
with near-perfect boxes; metrics then measure how far a model's samples
fall from that oracle.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import MalformedDoc, UnknownColor, read_utf8
from .layout import BBox, LayoutSpec, Relation, rasterize_mask
from .scenes import PALETTE_RGB

HsvRange = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]

METRICS_SCHEMA = "radl-metrics/1"
BACKGROUND_RGB = (0.5, 0.5, 0.5)  # the scene generator's background
IOU_THRESH = 0.5  # matched IoU an instance needs to succeed


def load_hsv_table(path=None) -> dict[str, HsvRange]:
    """Color name -> ((h_min,h_max),(s_min,s_max),(v_min,v_max)); hue in
    degrees, wraparound ranges (h_min > h_max) allowed."""
    if path is None:
        raw = resources.files("radl").joinpath("data/hsv_ranges.json").read_text("utf-8")
    else:
        raw = read_utf8(path)
    try:
        table = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as e:
        raise MalformedDoc(f"HSV table {path} is not valid JSON: {e}") from e
    if not isinstance(table, dict) or not all(
        isinstance(ranges, list) and len(ranges) == 3
        and all(isinstance(rng, list) and len(rng) == 2 for rng in ranges)
        and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                for rng in ranges for x in rng)
        for ranges in table.values()
    ):
        raise MalformedDoc(
            f"HSV table {path}: each color needs [[h_min, h_max], [s_min, s_max], [v_min, v_max]]"
        )
    return {
        name: tuple(tuple(float(x) for x in rng) for rng in ranges)
        for name, ranges in table.items()
    }


def rgb_to_hsv(image: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(3, H, W) RGB in [0,1] -> (H deg in [0,360), S, V) arrays."""
    r, g, b = image[0], image[1], image[2]
    v = image.max(axis=0)
    c = v - image.min(axis=0)
    s = np.where(v > 0, c / np.maximum(v, 1e-12), 0.0)
    h = np.zeros_like(v)
    nz = c > 0
    rmax = nz & (v == r)
    gmax = nz & (v == g) & ~rmax
    bmax = nz & (v == b) & ~rmax & ~gmax
    cc = np.maximum(c, 1e-12)
    h[rmax] = (60.0 * (g - b)[rmax] / cc[rmax]) % 360.0
    h[gmax] = 60.0 * (b - r)[gmax] / cc[gmax] + 120.0
    h[bmax] = 60.0 * (r - g)[bmax] / cc[bmax] + 240.0
    return h, s, v


@dataclass(frozen=True)
class Detection:
    """One detected color region: tight normalized box, color, pixel count."""

    bbox: BBox
    dominant_color: str
    pixel_count: int


@dataclass
class ImageEval:
    """Per-image metric breakdown."""

    success: bool
    instance_flags: list[bool]
    miou: float
    attribute_acc: float
    quantity_ok: bool
    relation_acc: float
    n_instances: int
    n_detections: int
    n_relations: int


@dataclass
class MetricsReport:
    success_rate: float
    miou: float
    attribute_acc: float
    quantity_acc: float
    relation_acc: float
    per_image: list[ImageEval] = field(default_factory=list)

    def to_json(self) -> str:
        per_image = [vars(e) for e in self.per_image]
        return json.dumps({"schema": METRICS_SCHEMA, **vars(self), "per_image": per_image}, indent=2)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes; disjoint boxes give 0."""
    ix = max(0.0, min(a.x2, b.x2) - max(a.x1, b.x1))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y1, b.y1))
    inter = ix * iy
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def detect(
    image: np.ndarray,
    palette: dict[str, tuple[float, float, float]] | tuple[str, ...],
    min_region_size: int = 4,
) -> list[Detection]:
    """Quantize to the nearest palette color and extract 4-connected
    components per non-background color.  Touching same-color regions
    merge into one detection (connectivity limitation, by design)."""
    if not palette:
        raise ValueError("palette must be non-empty")
    if not isinstance(palette, dict):
        palette = {name: PALETTE_RGB[name] for name in palette}
    names = sorted(palette)
    centers = np.array([palette[n] for n in names] + [list(BACKGROUND_RGB)])
    h, w = image.shape[1], image.shape[2]

    pixels = image.reshape(3, -1).T  # (h*w, 3)
    dist = ((pixels[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = dist.argmin(axis=1).reshape(h, w)
    bg_index = len(names)

    detections = []
    seen = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            if seen[r, c] or labels[r, c] == bg_index:
                continue
            color_idx = labels[r, c]
            stack = [(r, c)]
            seen[r, c] = True
            comp = []
            while stack:
                rr, cc = stack.pop()
                comp.append((rr, cc))
                for nr, nc in ((rr - 1, cc), (rr + 1, cc), (rr, cc - 1), (rr, cc + 1)):
                    if 0 <= nr < h and 0 <= nc < w and not seen[nr, nc] and labels[nr, nc] == color_idx:
                        seen[nr, nc] = True
                        stack.append((nr, nc))
            if len(comp) < min_region_size:
                continue
            rows = [p[0] for p in comp]
            cols = [p[1] for p in comp]
            detections.append(
                Detection(
                    bbox=BBox(min(cols) / w, min(rows) / h, (max(cols) + 1) / w, (max(rows) + 1) / h),
                    dominant_color=names[color_idx],
                    pixel_count=len(comp),
                )
            )
    return detections


def hsv_color_match(
    image: np.ndarray,
    bbox: BBox,
    color_name: str,
    coverage_thresh: float = 0.2,
    table: dict[str, HsvRange] | None = None,
) -> bool:
    """True iff the fraction of box pixels whose HSV falls in the named
    color's range reaches the coverage threshold."""
    if table is None:
        table = load_hsv_table()
    if color_name not in table:
        raise UnknownColor(f"color {color_name!r} not in the HSV range table")
    (h_lo, h_hi), (s_lo, s_hi), (v_lo, v_hi) = table[color_name]
    mask = rasterize_mask(bbox, image.shape[1], image.shape[2]).values.astype(bool)
    if not mask.any():
        return False
    h, s, v = rgb_to_hsv(image)
    if h_lo <= h_hi:
        h_ok = (h >= h_lo) & (h <= h_hi)
    else:  # wraparound (red)
        h_ok = (h >= h_lo) | (h <= h_hi)
    ok = h_ok & (s >= s_lo) & (s <= s_hi) & (v >= v_lo) & (v <= v_hi)
    coverage = ok[mask].mean()
    return bool(coverage >= coverage_thresh)


def match_instances(
    dets: list[Detection], layout: LayoutSpec
) -> list[tuple[int | None, float]]:
    """Greedy one-to-one matching in descending IoU order.

    Returns (detection index or None, matched IoU) per instance; ties break
    on (lower instance index, lower detection index) so results are exact.
    """
    pairs = []
    for i, inst in enumerate(layout.instances):
        for j, det in enumerate(dets):
            v = iou(inst.bbox, det.bbox)
            if v > 0.0:
                pairs.append((-v, i, j))
    pairs.sort()
    matched: list[tuple[int | None, float]] = [(None, 0.0)] * layout.n
    used = set()
    assigned = set()
    for neg_iou, i, j in pairs:
        if i in assigned or j in used:
            continue
        matched[i] = (j, -neg_iou)
        assigned.add(i)
        used.add(j)
    return matched


def color_word(label: str, table: dict[str, HsvRange]) -> str | None:
    """First label token that names a color in the table."""
    for tok in label.lower().split():
        if tok in table:
            return tok
    return None


def success_rate(
    dets: list[Detection],
    layout: LayoutSpec,
    image: np.ndarray,
    table: dict[str, HsvRange] | None = None,
) -> tuple[float, list[bool]]:
    """All-must-succeed rule: an instance succeeds iff its matched IoU
    reaches IOU_THRESH and the matched region passes the HSV check for
    the color word of its label.  Returns (1.0 or 0.0, per-instance flags)."""
    if table is None:
        table = load_hsv_table()
    matched = match_instances(dets, layout)
    flags = []
    for inst, (j, v) in zip(layout.instances, matched):
        ok = j is not None and v >= IOU_THRESH
        if ok:
            word = color_word(inst.label, table)
            if word is not None:
                ok = hsv_color_match(image, dets[j].bbox, word, table=table)
        flags.append(bool(ok))
    return (1.0 if all(flags) else 0.0), flags


def mean_iou(dets: list[Detection], layout: LayoutSpec) -> float:
    """Mean matched IoU over instances; unmatched instances count 0."""
    if layout.n == 0:
        return 1.0 if not dets else 0.0
    matched = match_instances(dets, layout)
    return float(np.mean([v for _, v in matched]))


def attribute_acc(
    image: np.ndarray, layout: LayoutSpec, table: dict[str, HsvRange] | None = None
) -> float:
    """Fraction of instances whose requested box shows the requested color
    (HSV coverage inside the layout box)."""
    if table is None:
        table = load_hsv_table()
    if layout.n == 0:
        return 1.0
    hits = 0
    for inst in layout.instances:
        word = color_word(inst.label, table)
        if word is None or hsv_color_match(image, inst.bbox, word, table=table):
            hits += 1
    return hits / layout.n


def relation_acc(
    dets: list[Detection], relations: tuple[Relation, ...] | list[Relation], layout: LayoutSpec
) -> float:
    """Fraction of relation triples satisfied by detection centroids.

    Subjects/objects map to their best-IoU detections; a triple with an
    unmatched participant fails.  y grows down, so "above" means a smaller
    center y.
    """
    relations = list(relations)
    if not relations:
        return 1.0
    matched = match_instances(dets, layout)
    ok = 0
    for rel in relations:
        sj, _ = matched[rel.subject]
        oj, _ = matched[rel.obj]
        if sj is None or oj is None:
            continue
        sx, sy = dets[sj].bbox.center
        ox, oy = dets[oj].bbox.center
        holds = {
            "above": sy < oy,
            "below": sy > oy,
            "left of": sx < ox,
            "right of": sx > ox,
        }.get(rel.predicate, False)
        ok += int(holds)
    return ok / len(relations)


def quantity_acc(dets: list[Detection], layout: LayoutSpec) -> bool:
    """True iff the detection count equals the requested instance count."""
    return len(dets) == layout.n


def evaluate_image(
    image: np.ndarray,
    layout: LayoutSpec,
    palette: dict[str, tuple[float, float, float]] | tuple[str, ...],
    table: dict[str, HsvRange] | None = None,
) -> ImageEval:
    if table is None:
        table = load_hsv_table()
    dets = detect(image, palette)
    rate, flags = success_rate(dets, layout, image, table)
    return ImageEval(
        success=rate == 1.0,
        instance_flags=flags,
        miou=mean_iou(dets, layout),
        attribute_acc=attribute_acc(image, layout, table),
        quantity_ok=quantity_acc(dets, layout),
        relation_acc=relation_acc(dets, layout.relations, layout),
        n_instances=layout.n,
        n_detections=len(dets),
        n_relations=len(layout.relations),
    )


def evaluate_images(
    pairs: list[tuple[np.ndarray, LayoutSpec]],
    palette: dict[str, tuple[float, float, float]] | tuple[str, ...],
    table: dict[str, HsvRange] | None = None,
) -> MetricsReport:
    """Aggregate per-image metrics as plain means."""
    if table is None:
        table = load_hsv_table()
    evals = [evaluate_image(img, layout, palette, table) for img, layout in pairs]
    rel_evals = [e.relation_acc for e in evals if e.n_relations > 0]
    return MetricsReport(
        success_rate=float(np.mean([e.success for e in evals])) if evals else 0.0,
        miou=float(np.mean([e.miou for e in evals])) if evals else 0.0,
        attribute_acc=float(np.mean([e.attribute_acc for e in evals])) if evals else 0.0,
        quantity_acc=float(np.mean([e.quantity_ok for e in evals])) if evals else 0.0,
        relation_acc=float(np.mean(rel_evals)) if rel_evals else 1.0,
        per_image=evals,
    )
