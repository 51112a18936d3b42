"""Desk-scale evaluation: color-region detection, IoU / mIoU, success rate
with HSV attribute matching, quantity accuracy, and centroid-based
relation accuracy.

The detector quantizes pixels to the nearest palette color and extracts
4-connected components, so scenes rendered by the generator round-trip
with near-perfect boxes; metrics then measure how far a model's samples
fall from that oracle.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import MalformedDoc, UnknownColor, finite_number, parse_json, read_utf8
from .layout import RELATION_PREDICATES, BBox, LayoutSpec, Relation, rasterize_mask
from .scenes import BACKGROUND_RGB, PALETTE, PALETTE_RGB

HsvRange = tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
HsvPlanes = tuple[np.ndarray, np.ndarray, np.ndarray]  # rgb_to_hsv's (H, S, V)
Matches = list[tuple[int | None, float]]  # match_instances' (detection, IoU) per instance

METRICS_SCHEMA = "radl-metrics/1"
IOU_THRESH = 0.5  # matched IoU an instance needs to succeed
COVERAGE_THRESH = 0.2  # share of box pixels in the color's HSV range that matches it
MIN_REGION_SIZE = 4  # pixels a detected region needs; smaller specks are noise


def load_hsv_table(path=None) -> dict[str, HsvRange]:
    """Color name -> ((h_min,h_max),(s_min,s_max),(v_min,v_max)); hue in
    degrees, wraparound ranges (h_min > h_max) allowed.  No path: a copy of
    the packaged table, which is parsed once per process."""
    if path is None:
        return dict(_packaged_hsv_table())
    table = parse_json(read_utf8(path), f"HSV table {path}")
    if not isinstance(table, dict) or not all(
        isinstance(ranges, list) and len(ranges) == 3
        and all(isinstance(rng, list) and len(rng) == 2 for rng in ranges)
        for ranges in table.values()
    ):
        raise MalformedDoc(
            f"HSV table {path}: each color needs [[h_min, h_max], [s_min, s_max], [v_min, v_max]]"
        )
    for name, ranges in table.items():  # a non-finite bound never matches
        if not all(finite_number(x) for rng in ranges for x in rng):
            raise MalformedDoc(f"HSV table {path}: color {name!r} has a non-finite bound")
    return {
        name: tuple(tuple(float(x) for x in rng) for rng in ranges)
        for name, ranges in table.items()
    }


@functools.cache
def _packaged_hsv_table() -> dict[str, HsvRange]:
    with resources.as_file(resources.files("radl").joinpath("data/hsv_ranges.json")) as path:
        return load_hsv_table(path)


def rgb_to_hsv(image: np.ndarray) -> HsvPlanes:
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


def detect(image: np.ndarray, palette: tuple[str, ...]) -> list[Detection]:
    """Quantize to the nearest color of the named `PALETTE_RGB` entries and
    extract 4-connected components per non-background color of at least
    MIN_REGION_SIZE pixels, in raster order of first pixel.  Touching
    same-color regions merge into one detection (connectivity limitation,
    by design)."""
    if not palette:
        raise ValueError("palette must be non-empty")
    names = sorted(palette)
    centers = np.array([PALETTE_RGB[n] for n in names] + [list(BACKGROUND_RGB)])
    h, w = image.shape[1], image.shape[2]

    pixels = image.reshape(3, -1).T  # (h*w, 3)
    dist = ((pixels[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = dist.argmin(axis=1).reshape(h, w)
    fg = labels != len(names)

    # same-color edges to the right and down neighbours, as flat indices
    idx = np.arange(h * w).reshape(h, w)
    right = fg[:, :-1] & (labels[:, :-1] == labels[:, 1:])
    down = fg[:-1] & (labels[:-1] == labels[1:])
    a = np.concatenate([idx[:, :-1][right], idx[:-1][down]])
    b = np.concatenate([idx[:, 1:][right], idx[1:][down]])
    # min-label propagation: hook each edge's larger root under the smaller,
    # then pointer-jump to the roots, until the edges agree; each pixel then
    # holds its component's first pixel in raster order, on its top row
    comp = np.arange(h * w)
    while True:
        lo = np.minimum(comp[a], comp[b])
        np.minimum.at(comp, comp[a], lo)
        np.minimum.at(comp, comp[b], lo)
        while not np.array_equal(comp, jumped := comp[comp]):
            comp = jumped
        if np.array_equal(comp[a], comp[b]):
            break

    pix = np.flatnonzero(fg)
    roots, inv, counts = np.unique(comp[pix], return_inverse=True, return_counts=True)
    rows, cols = np.divmod(pix, w)
    r1, c1, c0 = np.zeros_like(roots), np.zeros_like(roots), np.full_like(roots, w)
    np.maximum.at(r1, inv, rows)
    np.maximum.at(c1, inv, cols)
    np.minimum.at(c0, inv, cols)
    keep = counts >= MIN_REGION_SIZE
    columns = (c0, roots // w, c1, r1, labels.ravel()[roots], counts)
    return [
        Detection(BBox(x0 / w, y0 / h, (x1 + 1) / w, (y1 + 1) / h), names[color], n)
        for x0, y0, x1, y1, color, n in zip(*(col[keep].tolist() for col in columns))
    ]


def hsv_color_match(
    hsv: HsvPlanes,
    bbox: BBox,
    color_name: str,
    table: dict[str, HsvRange],
) -> bool:
    """True iff the fraction of box pixels whose HSV (`rgb_to_hsv` of the
    image) falls in the named color's range reaches COVERAGE_THRESH."""
    if color_name not in table:
        raise UnknownColor(f"color {color_name!r} not in the HSV range table")
    (h_lo, h_hi), (s_lo, s_hi), (v_lo, v_hi) = table[color_name]
    h, s, v = hsv
    mask = rasterize_mask(bbox, *h.shape)
    if not mask.any():
        return False
    if h_lo <= h_hi:
        h_ok = (h >= h_lo) & (h <= h_hi)
    else:  # wraparound (red)
        h_ok = (h >= h_lo) | (h <= h_hi)
    ok = h_ok & (s >= s_lo) & (s <= s_hi) & (v >= v_lo) & (v <= v_hi)
    coverage = ok[mask].mean()
    return bool(coverage >= COVERAGE_THRESH)


def match_instances(dets: list[Detection], layout: LayoutSpec) -> Matches:
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
    matched: Matches = [(None, 0.0)] * layout.n
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
    matched: Matches,
    layout: LayoutSpec,
    hsv: HsvPlanes,
    table: dict[str, HsvRange],
) -> tuple[float, list[bool]]:
    """All-must-succeed rule: an instance succeeds iff its matched IoU
    (`match_instances`) reaches IOU_THRESH and the matched region passes
    the HSV check for the color word of its label.  Returns (1.0 or 0.0,
    per-instance flags)."""
    flags = []
    for inst, (j, v) in zip(layout.instances, matched):
        ok = j is not None and v >= IOU_THRESH
        if ok:
            word = color_word(inst.label, table)
            if word is not None:
                ok = hsv_color_match(hsv, dets[j].bbox, word, table)
        flags.append(bool(ok))
    return (1.0 if all(flags) else 0.0), flags


def mean_iou(dets: list[Detection], matched: Matches) -> float:
    """Mean matched IoU over instances (`match_instances`); unmatched
    instances count 0."""
    if not matched:
        return 1.0 if not dets else 0.0
    return float(np.mean([v for _, v in matched]))


def attribute_acc(hsv: HsvPlanes, layout: LayoutSpec, table: dict[str, HsvRange]) -> float:
    """Fraction of instances whose requested box shows the requested color
    (HSV coverage inside the layout box)."""
    if layout.n == 0:
        return 1.0
    hits = 0
    for inst in layout.instances:
        word = color_word(inst.label, table)
        if word is None or hsv_color_match(hsv, inst.bbox, word, table):
            hits += 1
    return hits / layout.n


def relation_acc(
    dets: list[Detection], matched: Matches, relations: tuple[Relation, ...] | list[Relation]
) -> float:
    """Fraction of relation triples satisfied by detection centroids.

    Subjects/objects map to their matched detections (`match_instances`);
    a triple with an unmatched participant fails.  y grows down, so
    "above" means a smaller center y.
    """
    if not relations:
        return 1.0
    ok = 0
    for rel in relations:
        sj, _ = matched[rel.subject]
        oj, _ = matched[rel.obj]
        if sj is None or oj is None:
            continue
        sx, sy = dets[sj].bbox.center
        ox, oy = dets[oj].bbox.center
        holds = dict(zip(RELATION_PREDICATES, (sy < oy, sy > oy, sx < ox, sx > ox)))
        ok += int(holds[rel.predicate])
    return ok / len(relations)


def quantity_acc(dets: list[Detection], layout: LayoutSpec) -> bool:
    """True iff the detection count equals the requested instance count."""
    return len(dets) == layout.n


def evaluate_image(image: np.ndarray, layout: LayoutSpec, table: dict[str, HsvRange]) -> ImageEval:
    """The metrics of one image, detecting the colors scenes draw (`PALETTE`)."""
    dets = detect(image, PALETTE)
    hsv = rgb_to_hsv(image)
    matched = match_instances(dets, layout)
    rate, flags = success_rate(dets, matched, layout, hsv, table)
    return ImageEval(
        success=rate == 1.0,
        instance_flags=flags,
        miou=mean_iou(dets, matched),
        attribute_acc=attribute_acc(hsv, layout, table),
        quantity_ok=quantity_acc(dets, layout),
        relation_acc=relation_acc(dets, matched, layout.relations),
        n_instances=layout.n,
        n_detections=len(dets),
        n_relations=len(layout.relations),
    )


def evaluate_images(
    pairs: list[tuple[np.ndarray, LayoutSpec]], table: dict[str, HsvRange]
) -> MetricsReport:
    """Aggregate per-image metrics as plain means."""
    evals = [evaluate_image(img, layout, table) for img, layout in pairs]
    rel_evals = [e.relation_acc for e in evals if e.n_relations > 0]
    return MetricsReport(
        success_rate=float(np.mean([e.success for e in evals])) if evals else 0.0,
        miou=float(np.mean([e.miou for e in evals])) if evals else 0.0,
        attribute_acc=float(np.mean([e.attribute_acc for e in evals])) if evals else 0.0,
        quantity_acc=float(np.mean([e.quantity_ok for e in evals])) if evals else 0.0,
        relation_acc=float(np.mean(rel_evals)) if rel_evals else 1.0,
        per_image=evals,
    )
