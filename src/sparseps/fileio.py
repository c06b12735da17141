"""Readers and writers for the image formats the toolkit emits.

PFM stores 32-bit floats (grayscale "Pf" or 3-channel "PF"), scanlines bottom
to top, little-endian via a negative scale.  PGM is binary 8-bit grayscale
("P5").  Both are deliberately dependency-free so outputs stay diffable.
"""

from __future__ import annotations

import numpy as np


def write_pfm(path, image):
    """Write a (h, w) or (h, w, 3) float array as PFM."""
    image = np.asarray(image, dtype=np.float32)
    if image.ndim == 2:
        header = b"Pf"
    elif image.ndim == 3 and image.shape[2] == 3:
        header = b"PF"
    else:
        raise ValueError(f"unsupported PFM shape {image.shape}")
    h, w = image.shape[:2]
    with open(path, "wb") as fh:
        fh.write(header + b"\n")
        fh.write(f"{w} {h}\n".encode("ascii"))
        fh.write(b"-1.0\n")
        fh.write(image[::-1].astype("<f4").tobytes())


def read_pfm(path):
    """Read a PFM file written by write_pfm (or any little-endian PFM).

    Raises ValueError naming the file when its header is unknown or its
    data is not the 4 * width * height * channels bytes the header gives.
    """
    with open(path, "rb") as fh:
        header = fh.readline().strip()
        if header == b"Pf":
            channels = 1
        elif header == b"PF":
            channels = 3
        else:
            raise ValueError(f"{path}: bad PFM header {header!r}")
        w, h = (int(tok) for tok in fh.readline().split())
        scale = float(fh.readline())
        dtype = "<f4" if scale < 0 else ">f4"
        count = w * h * channels
        raw = fh.read()
    if w < 0 or h < 0 or len(raw) != 4 * count:
        raise ValueError(f"{path}: {len(raw)} bytes of pixel data, but a "
                         f"{w} x {h} x {channels} PFM holds {4 * count}")
    data = np.frombuffer(raw, dtype=dtype).astype(float)
    if channels == 1:
        image = data.reshape(h, w)
    else:
        image = data.reshape(h, w, 3)
    return image[::-1].copy()


def write_pgm(path, image):
    """Write a (h, w) uint8 array as binary PGM."""
    image = np.asarray(image)
    if image.dtype != np.uint8 or image.ndim != 2:
        raise ValueError("PGM output requires a 2D uint8 array")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        fh.write(f"{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def read_pgm(path):
    """Read a binary PGM file written by write_pgm."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P5":
            raise ValueError(f"{path}: not a binary PGM file")
        line = fh.readline()
        while line.startswith(b"#"):
            line = fh.readline()
        w, h = (int(tok) for tok in line.split())
        maxval = int(fh.readline())
        if maxval != 255:
            raise ValueError(f"{path}: unsupported maxval {maxval}")
        data = np.frombuffer(fh.read(w * h), dtype=np.uint8)
    return data.reshape(h, w).copy()
