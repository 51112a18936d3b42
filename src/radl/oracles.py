"""Reference oracles: the slow, obvious computations that the tests,
`radl selftest` and `radl gradcheck` hold the program against.

Each oracle works in scalar loops or one pixel at a time and calls none of
the functions it checks; it takes from the program only types and
constants, and the scene oracle the seeding and composing steps around the
box placement it checks.
"""
from __future__ import annotations

import numpy as np

from .evalmetrics import MIN_REGION_SIZE, Detection
from .errors import PlacementFailure
from .layout import BBox
from .scenes import (
    BACKGROUND_RGB, MAX_PLACEMENT_ATTEMPTS, PALETTE_RGB, SceneConfig, SyntheticScene,
    compose_scene, scene_rng,
)


def attention_oracle(q, k, v) -> np.ndarray:
    """softmax(q k' / sqrt(d)) v as a scalar triple loop."""
    n_q, d = q.shape
    n_k, d_v = v.shape
    out = np.zeros((n_q, d_v))
    for i in range(n_q):
        logits = []
        for j in range(n_k):
            s = 0.0
            for c in range(d):
                s += q[i, c] * k[j, c]
            logits.append(s / np.sqrt(d))
        m = max(logits)
        exps = [np.exp(l - m) for l in logits]
        z = sum(exps)
        for j in range(n_k):
            w = exps[j] / z
            for c in range(d_v):
                out[i, c] += w * v[j, c]
    return out


def detect_oracle(image, palette) -> list[Detection]:
    """The reference detector for the palette names `palette`: palette
    quantization, then a flood fill from each unvisited pixel in raster
    order, one pixel at a time."""
    names = sorted(palette)
    centers = np.array([PALETTE_RGB[n] for n in names] + [list(BACKGROUND_RGB)])
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
            if len(comp) < MIN_REGION_SIZE:
                continue
            rows, cols = zip(*comp)
            box = BBox(min(cols) / w, min(rows) / h, (max(cols) + 1) / w, (max(rows) + 1) / h)
            detections.append(Detection(box, names[color_idx], len(comp)))
    return detections


def union_oracle(masks, h, w) -> np.ndarray:
    """Brute-force double loop computing sum_i m_i(x, y) > 0."""
    out = np.zeros((h, w), dtype=bool)
    for r in range(h):
        for c in range(w):
            out[r, c] = sum(int(m[r, c]) for m in masks) > 0
    return out


def _boxes_overlap(a: BBox, b: BBox, margin: float) -> bool:
    return (
        a.x1 < b.x2 + margin
        and b.x1 < a.x2 + margin
        and a.y1 < b.y2 + margin
        and b.y1 < a.y2 + margin
    )


def make_scene_oracle(rng_seed: int, config: SceneConfig = SceneConfig()) -> SyntheticScene:
    """`scenes.make_scene` placing its boxes with four scalar
    `Generator.uniform` calls and a `BBox` per attempt."""
    rng = scene_rng(rng_seed)
    n = int(rng.integers(config.n_instances[0], config.n_instances[1] + 1))
    s = config.image_size
    margin = 0.5 / s  # on-grid boxes must stay at least one pixel apart

    def snap(v: float) -> float:
        return round(v * s) / s

    boxes: list[BBox] = []
    for _ in range(n):
        placed = None
        for attempt in range(MAX_PLACEMENT_ATTEMPTS):
            # anneal the size ceiling toward min_box so crowded layouts
            # still find room before the retry budget runs out
            hi = config.max_box - (config.max_box - config.min_box) * attempt / MAX_PLACEMENT_ATTEMPTS
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
                f"could not place instance {len(boxes)} after {MAX_PLACEMENT_ATTEMPTS} tries"
            )
        boxes.append(placed)
    return compose_scene(rng, boxes, config)


def central_diff(f, arr, d_out, eps=1e-5, coords=None) -> np.ndarray:
    """Numeric gradient of sum(f() * d_out) w.r.t. arr by central
    differences, perturbing arr in place at `coords` (default: every entry);
    the other entries stay 0.  `f` may return an array or a scalar."""
    num = np.zeros_like(arr)
    indices = coords if coords is not None else list(np.ndindex(arr.shape))
    for idx in indices:
        orig = arr[idx]
        arr[idx] = orig + eps
        up = float(np.sum(f() * d_out))
        arr[idx] = orig - eps
        dn = float(np.sum(f() * d_out))
        arr[idx] = orig
        num[idx] = (up - dn) / (2 * eps)
    return num


def rel_err(a, b, floor: float = 1e-300) -> float:
    """max|a - b| over the larger of max|a|, max|b| and `floor`."""
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), floor)
    return float(np.max(np.abs(a - b)) / denom)
