"""Image container with center-origin coordinates, bilinear warping, and PNM I/O.

Pixels live in a read-only ``(height, width, channels)`` float array with
intensities in ``[0, 1]``.  The continuous coordinate of pixel ``(row, col)``
is ``(col - (w-1)/2, row - (h-1)/2)``: the image center is the origin, +x
points right, +y points down.  All geometric operations in the package fix
the center, so this convention is load-bearing rather than cosmetic.

Files are Netpbm binary rasters (P5 grayscale / P6 RGB) at 8 or 16 bits,
which round-trip losslessly.  Parameter sidecars are JSON and handled by
the dataset layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sl3 import SingularMatrixError, _as_matrix

__all__ = [
    "ImageGrid",
    "RasterFormatError",
    "UnsupportedFormatError",
    "bilinear_sample",
    "warp_by_homography",
    "load_image",
    "save_image",
    "center_crop",
    "pixel_grid",
]


class RasterFormatError(ValueError):
    """Malformed raster file; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnsupportedFormatError(ValueError):
    """Raster format or bit depth outside the supported set."""


@dataclass(frozen=True)
class ImageGrid:
    """Immutable raster; ``pixels`` has shape (height, width, channels)."""

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=float)
        if p.ndim == 2:
            p = p[:, :, None]
        if p.ndim != 3 or p.shape[0] < 1 or p.shape[1] < 1 or p.shape[2] < 1:
            raise ValueError(f"pixels must be (h, w[, c]) with h, w >= 1, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("pixel values must be finite")
        if p.min() < -1e-9 or p.max() > 1 + 1e-9:
            raise ValueError("pixel values must lie in [0, 1]")
        p = np.clip(p, 0.0, 1.0)
        p.setflags(write=False)
        object.__setattr__(self, "pixels", p)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


def pixel_grid(image: ImageGrid) -> np.ndarray:
    """Center-origin (x, y) coordinates of every pixel, shape (h, w, 2)."""
    return _centered_grid(image.width, image.height)


def _centered_grid(width: int, height: int) -> np.ndarray:
    """Center-origin (x, y) pixel coordinates of a ``width x height`` raster.

    A centered crop of a larger raster of the same parity has exactly these
    coordinates: the half-integers are exact in floating point.
    """
    x = np.arange(width) - (width - 1) / 2.0
    y = np.arange(height) - (height - 1) / 2.0
    xx, yy = np.meshgrid(x, y)
    return np.stack([xx, yy], axis=-1)


def bilinear_sample(image: ImageGrid, points) -> np.ndarray:
    """Bilinear lookup at center-origin points; zero outside the image box.

    ``points`` is ``(..., 2)`` as (x, y); the result is ``(..., channels)``.
    Samples beyond ``[-w/2, w/2] x [-h/2, h/2]`` return exactly zero, and
    neighbors outside the pixel lattice contribute zero to the blend.
    """
    p = np.asarray(points, dtype=float)
    planes = _sample_padded(_pad_planes(image.pixels), p.reshape(-1, 2))
    return np.ascontiguousarray(planes.T).reshape(p.shape[:-1] + (image.channels,))


def _pad_planes(pixels: np.ndarray) -> np.ndarray:
    """Channel planes of an ``(h, w, c)`` array with one pixel of zeros
    around each, shape ``(c, h + 2, w + 2)``: every in-box point then reads
    its four neighbors from one flat index without bounds checks."""
    h, w, c = pixels.shape
    planes = np.zeros((c, h + 2, w + 2))
    planes[:, 1:-1, 1:-1] = np.moveaxis(pixels, 2, 0)
    return planes


def _sample_padded(planes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The bilinear lookup of :func:`bilinear_sample` on padded planes.

    ``pts`` is ``(n, 2)``; the result is ``(c, n)``, one row per channel.
    Indices and weights are computed once; each channel is then gathered
    from its own contiguous plane and accumulated in place.
    """
    c, h, w = planes.shape[0], planes.shape[1] - 2, planes.shape[2] - 2
    inside = (np.abs(pts[:, 0]) <= w / 2.0) & (np.abs(pts[:, 1]) <= h / 2.0)
    # out-of-box points read the center and are zeroed at the end
    col = np.where(inside, pts[:, 0], 0.0) + (w - 1) / 2.0
    row = np.where(inside, pts[:, 1], 0.0) + (h - 1) / 2.0
    c0 = np.floor(col)
    r0 = np.floor(row)
    fc = col - c0
    fr = row - r0

    stride = w + 2
    base = (r0.astype(np.int64) + 1) * stride + (c0.astype(np.int64) + 1)
    terms = (
        (0, (1 - fr) * (1 - fc)),
        (1, (1 - fr) * fc),
        (stride, fr * (1 - fc)),
        (stride + 1, fr * fc),
    )
    out = np.zeros((c, pts.shape[0]))
    neighbor = np.empty(pts.shape[0])
    for flat, acc in zip(planes.reshape(c, -1), out):
        for offset, wgt in terms:
            np.take(flat[offset:], base, out=neighbor)
            neighbor *= wgt
            acc += neighbor
    if not inside.all():
        out[:, ~inside] = 0.0
    return out


def warp_by_homography(image: ImageGrid, h) -> ImageGrid:
    """Resample through the inverse map: output(p) = input(H^-1 p).

    Content moves forward by ``H``; output size equals input size and
    pixels whose source falls outside the input are zero.
    """
    return _warp_crop(image, h, image.width, image.height)


def _warp_crop(image: ImageGrid, h, width: int, height: int) -> ImageGrid:
    """The centered ``width x height`` crop of ``warp_by_homography(image, h)``.

    Only the crop's own pixels are resampled, with the same arithmetic, so
    the bytes equal cropping the full warp.  Raises :func:`center_crop`'s
    ``ValueError`` for a crop that does not fit or would shift the center.
    """
    _crop_origin(image, width, height)
    h = _as_matrix(h)
    try:
        h_inv = np.linalg.inv(h)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("homography is not invertible") from exc
    grid = _centered_grid(width, height).reshape(-1, 2)
    ones = np.ones((grid.shape[0], 1))
    src = np.concatenate([grid, ones], axis=1) @ h_inv.T
    with np.errstate(divide="ignore", invalid="ignore"):
        src2 = src[:, :2] / src[:, 2:3]
    src2[~np.isfinite(src2)] = 1e12  # far outside: sampled as zero
    sampled = bilinear_sample(image, src2)
    return ImageGrid(sampled.reshape(height, width, image.channels))


def center_crop(image: ImageGrid, size: int | tuple[int, int]) -> ImageGrid:
    """Centered crop; offsets must be integral so the origin is preserved."""
    cw, ch = (size, size) if isinstance(size, int) else (int(size[0]), int(size[1]))
    x0, y0 = _crop_origin(image, cw, ch)
    return ImageGrid(image.pixels[y0 : y0 + ch, x0 : x0 + cw].copy())


def _crop_origin(image: ImageGrid, cw: int, ch: int) -> tuple[int, int]:
    """Column and row of the top-left pixel of the centered ``cw x ch`` crop."""
    if cw < 1 or ch < 1 or cw > image.width or ch > image.height:
        raise ValueError(f"crop {cw}x{ch} does not fit in {image.width}x{image.height}")
    if (image.width - cw) % 2 or (image.height - ch) % 2:
        raise ValueError("crop size must match the image parity to keep the center fixed")
    return (image.width - cw) // 2, (image.height - ch) // 2


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        if data[pos : pos + 1].isspace():
            pos += 1
        elif data[pos : pos + 1] == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    if pos >= n:
        raise RasterFormatError("unexpected end of header", pos)
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def load_image(path) -> ImageGrid:
    """Read a binary PGM (P5) or PPM (P6) file at 8 or 16 bits per sample."""
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise RasterFormatError(f"unsupported magic {magic!r}", 0)
    channels = 1 if magic == b"P5" else 3
    pos = 2
    fields = []
    for _ in range(3):
        token, pos = _read_token(data, pos)
        if not token.isdigit():
            raise RasterFormatError(f"expected integer header field, got {token!r}",
                                    pos - len(token))
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise RasterFormatError("non-positive image dimensions", 2)
    if maxval not in (255, 65535):
        raise UnsupportedFormatError(f"unsupported bit depth (maxval {maxval})")
    pos += 1  # single whitespace byte separates header from raster data
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    nbytes = width * height * channels * dtype.itemsize
    if len(data) < pos + nbytes:
        raise RasterFormatError(
            f"truncated raster: expected {nbytes} data bytes", len(data)
        )
    raw = np.frombuffer(data[pos : pos + nbytes], dtype=dtype)
    pixels = raw.reshape(height, width, channels).astype(float) / maxval
    return ImageGrid(pixels)


def save_image(image: ImageGrid, path, bit_depth: int = 8) -> None:
    """Write a binary PGM/PPM file; quantizes to the requested bit depth."""
    if image.channels == 1:
        magic = b"P5"
    elif image.channels == 3:
        magic = b"P6"
    else:
        raise UnsupportedFormatError(
            f"only 1- or 3-channel images can be saved, got {image.channels}"
        )
    if bit_depth == 8:
        maxval, dtype = 255, np.dtype("u1")
    elif bit_depth == 16:
        maxval, dtype = 65535, np.dtype(">u2")
    else:
        raise UnsupportedFormatError(f"unsupported bit depth {bit_depth}")
    header = magic + f"\n{image.width} {image.height}\n{maxval}\n".encode()
    q = np.rint(image.pixels * maxval).astype(dtype)
    Path(path).write_bytes(header + q.tobytes())
