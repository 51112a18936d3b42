"""Binary PPM (P6) image IO, the pipeline's image interchange format."""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import MalformedDoc


def encode_rgb8(image: np.ndarray) -> bytes:
    """A (3, H, W) float image in [0,1] as 8-bit RGB, interleaved, row-major."""
    u8 = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    return u8.transpose(1, 2, 0).tobytes()


def decode_rgb8(raw: bytes, h: int, w: int) -> np.ndarray:
    """Inverse of encode_rgb8: (3, h, w) floats in [0,1]; raw must hold 3*h*w bytes."""
    u8 = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return u8.transpose(2, 0, 1).astype(np.float64) / 255.0


def write_ppm(path, image: np.ndarray) -> None:
    """Write a (3, H, W) float image in [0,1] as 8-bit binary PPM."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise MalformedDoc(f"expected (3, H, W) image, got {image.shape}")
    h, w = image.shape[1], image.shape[2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(encode_rgb8(image))


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into a (3, H, W) float image in [0,1]."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P6") or not data[2:3].isspace():
        raise MalformedDoc(f"{path}: not a binary PPM (P6) file")
    # header: magic, width, height, maxval, separated by whitespace/comments
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    # ASCII digits only: int() would also take "+2", "1_0" and non-ASCII digits
    if not all(f.isdigit() for f in fields):
        raise MalformedDoc(f"{path}: bad PPM header")
    w, h, maxval = (int(f) for f in fields)
    if maxval != 255:
        raise MalformedDoc(f"{path}: only maxval 255 supported, got {maxval}")
    if min(w, h) < 1:
        raise MalformedDoc(f"{path}: PPM size {w}x{h} is not positive")
    raw = data[pos : pos + 3 * w * h]
    if len(raw) != 3 * w * h:
        raise MalformedDoc(f"{path}: truncated pixel data")
    return decode_rgb8(raw, h, w)
