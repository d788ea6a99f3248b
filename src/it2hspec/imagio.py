"""8-bit grayscale image I/O and numeric series export.

Images are binary PGM (P5) rasters with maxval 255. Series exports write one
CSV row per gray level so histograms, membership functions, and target PDFs
can be plotted with external tools.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

LEVELS = 256

_WHITESPACE = b" \t\r\n\x0b\x0c"


class PGMFormatError(ValueError):
    """Raised when a PGM header field or payload is malformed."""


@dataclass(frozen=True)
class GrayImage:
    """Raster of 8-bit gray levels, stored as a flat row-major array."""

    width: int
    height: int
    pixels: np.ndarray

    levels = LEVELS

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        px = np.asarray(self.pixels).reshape(-1)
        if px.size != self.width * self.height:
            raise ValueError(
                f"pixel count {px.size} does not match "
                f"{self.width}x{self.height}"
            )
        if not np.issubdtype(px.dtype, np.integer):
            raise ValueError("pixels must be integers")
        # uint8 values cannot leave [0, 255], so only wider types are scanned
        if px.dtype != np.uint8 and px.size and (px.min() < 0 or px.max() > LEVELS - 1):
            raise ValueError(f"pixel values must lie in [0, {LEVELS - 1}]")
        # astype copies even uint8 pixels, so an image never aliases its input
        object.__setattr__(self, "pixels", px.astype(np.uint8))


@dataclass(frozen=True)
class SeriesExport:
    """Named per-gray-level series of exactly 256 values."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.size != LEVELS:
            raise ValueError(
                f"series '{self.name}' must have exactly {LEVELS} values, "
                f"got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"series '{self.name}' contains non-finite values")
        object.__setattr__(self, "values", vals)


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            while pos < n and data[pos] not in b"\r\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    if start == pos:
        raise PGMFormatError("header: unexpected end of file")
    return data[start:pos], pos


def _int_field(token: bytes, field: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise PGMFormatError(f"{field}: not an integer ({token!r})") from None


def load_image(path) -> GrayImage:
    """Read a binary PGM (P5, maxval 255) file into a GrayImage.

    Missing or unreadable files raise OSError; structural problems raise
    PGMFormatError naming the offending field.
    """
    data = Path(path).read_bytes()
    magic, pos = _read_token(data, 0)
    if magic != b"P5":
        raise PGMFormatError(f"magic: expected b'P5', got {magic!r}")
    token, pos = _read_token(data, pos)
    width = _int_field(token, "width")
    if width <= 0:
        raise PGMFormatError(f"width: must be positive, got {width}")
    token, pos = _read_token(data, pos)
    height = _int_field(token, "height")
    if height <= 0:
        raise PGMFormatError(f"height: must be positive, got {height}")
    token, pos = _read_token(data, pos)
    maxval = _int_field(token, "maxval")
    if maxval != 255:
        raise PGMFormatError(f"maxval: expected 255, got {maxval}")
    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PGMFormatError("header: missing whitespace before pixel data")
    pos += 1
    need = width * height
    if len(data) - pos < need:
        raise PGMFormatError(
            f"pixel data: expected {need} bytes, found {len(data) - pos}"
        )
    # a read-only view of the file bytes; GrayImage makes the one copy
    return GrayImage(width, height, np.frombuffer(data, np.uint8, need, pos))


def save_image(img: GrayImage, path) -> None:
    """Write a GrayImage as binary PGM (P5, maxval 255)."""
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.pixels.tobytes())


def export_series(series, path) -> None:
    """Write series as CSV: header `gray_level,<name>,...` plus 256 data rows.

    Values are rendered with 12 significant digits so a parse-back recovers
    them within 1e-9.
    """
    series = list(series)
    if not series:
        raise ValueError("at least one series is required")
    for s in series:
        if s.values.size != LEVELS:
            raise ValueError(f"series '{s.name}' does not have {LEVELS} values")
    lines = ["gray_level," + ",".join(s.name for s in series)]
    for g in range(LEVELS):
        row = ",".join(format(float(s.values[g]), ".12g") for s in series)
        lines.append(f"{g},{row}")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")
