"""Binary PGM (P5) and PPM (P6) reading and writing, plus CSV instances.

Only 8-bit images are supported; pixel values scale to [0, 1] on load and
back to 0..255 on save.  These two formats cover grayscale and RGB mask
rendering without pulling in an imaging dependency.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaError, ValidationError


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    # Skip whitespace and '#' comments between header tokens.
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise SchemaError("header", "truncated image header")
    return data[start:pos], pos


def read_image(path: str) -> np.ndarray:
    """Load a P5/P6 image as float64 in [0, 1]; shape (H, W) or (H, W, 3)."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _read_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise SchemaError("magic", f"expected P5 or P6, got {magic!r}")
    width_tok, pos = _read_token(data, pos)
    height_tok, pos = _read_token(data, pos)
    maxval_tok, pos = _read_token(data, pos)
    try:
        width, height, maxval = int(width_tok), int(height_tok), int(maxval_tok)
    except ValueError as exc:
        raise SchemaError("header", "non-numeric image dimensions") from exc
    if maxval != 255:
        raise SchemaError("maxval", f"only 8-bit images are supported, got maxval {maxval}")
    pos += 1  # single whitespace byte after maxval
    channels = 1 if magic == b"P5" else 3
    count = width * height * channels
    raw = data[pos : pos + count]
    if len(raw) != count:
        raise SchemaError("pixels", f"expected {count} bytes of pixel data, got {len(raw)}")
    img = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    if channels == 1:
        return img.reshape(height, width)
    return img.reshape(height, width, 3)


def write_image(path: str, img: np.ndarray) -> None:
    """Write a float [0,1] or uint8 array as binary PGM/PPM by its shape."""
    arr = np.asarray(img)
    if arr.dtype != np.uint8:
        arr = np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)
    if arr.ndim == 2:
        magic, (h, w) = b"P5", arr.shape
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic, (h, w) = b"P6", arr.shape[:2]
    else:
        raise ValidationError(f"cannot encode image of shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


def load_instance(path: str) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """Load one instance: a flat vector plus its image shape, if any.

    CSV/TXT files hold one vector of reals; PGM/PPM files flatten row-major
    (channels interleaved for color) and report their shape.
    """
    lower = path.lower()
    if lower.endswith((".pgm", ".ppm")):
        img = read_image(path)
        return img.reshape(-1), img.shape
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        parts = [p for chunk in raw.decode("utf-8").split() for p in chunk.split(",") if p]
        vec = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:  # undecodable bytes or a non-numeric entry
        raise SchemaError("instance", f"non-numeric value in {path}") from exc
    if vec.size == 0:
        raise SchemaError("instance", f"no values found in {path}")
    return vec, None


def save_instance_csv(path: str, vector: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(repr(float(v)) for v in vector) + "\n")
