"""Reference oracles: the slow, obvious computations that the tests,
`radl selftest` and `radl gradcheck` hold the program against.

Each oracle works in scalar loops or one pixel at a time and calls none of
the functions it checks; it takes from the program only types and
constants.
"""
from __future__ import annotations

import numpy as np

from .evalmetrics import MIN_REGION_SIZE, Detection
from .layout import BBox
from .scenes import BACKGROUND_RGB, PALETTE_RGB


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
