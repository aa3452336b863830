"""Image container with center-origin coordinates, bilinear warping, and PNM I/O.

Pixels live in a read-only ``(height, width, channels)`` float array with
intensities in ``[0, 1]``.  The continuous coordinate of pixel ``(row, col)``
is ``(col - (w-1)/2, row - (h-1)/2)``: the image center is the origin, +x
points right, +y points down.  All geometric operations in the package fix
the center, so this convention is load-bearing rather than cosmetic.
Warps project their pixel grid through :mod:`sl3warp.sl3`'s in-front
rule, so a pixel whose source lies behind the camera reads zero.
Internally points travel as coordinate planes, one row per coordinate:
``(3, n)`` homogeneous ``x, y, 1`` to project, ``(2, n)`` ``x, y`` to
sample, whose transpose is the ``(n, 2)`` that ``bilinear_sample`` takes.

Every resampler in the package runs one bilinear kernel in two steps.
``_plan`` turns ``(2, n)`` points and a raster size into each point's flat
neighbor index and its four weights; ``_gather`` blends the channel planes
of a padded raster (``_pad_planes``) with a plan.  The plan depends only on
the points and the raster size, so a fixed point set can keep its plan and
pay for the gather alone (see :func:`sl3warp.warps.warp_image`).

Files are Netpbm binary rasters (P5 grayscale / P6 RGB) at 8 or 16 bits,
which round-trip losslessly.  Parameter sidecars are JSON and handled by
the dataset layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .sl3 import SingularMatrixError, _as_matrix, _project

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
        object.__setattr__(self, "pixels", _frozen(self.pixels, copy=True))

    @classmethod
    def _adopt(cls, pixels: np.ndarray) -> "ImageGrid":
        """An image that takes over ``pixels``, a C-contiguous float array
        its caller has just allocated and keeps no reference to: validated
        and frozen like any other, but not copied."""
        image = object.__new__(cls)
        object.__setattr__(image, "pixels", _frozen(pixels, copy=False))
        return image

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]


def _frozen(pixels, copy: bool) -> np.ndarray:
    """``pixels`` checked, as a read-only ``(h, w, c)`` float array clipped
    to exactly [0, 1]; copied first when ``copy``, so the checks and the
    clip run on the contiguous copy, else checked and clipped in place."""
    p = np.array(pixels, dtype=float) if copy else np.asarray(pixels, dtype=float)
    if p.ndim == 2:
        p = p[:, :, None]
    if p.ndim != 3 or p.shape[0] < 1 or p.shape[1] < 1 or p.shape[2] < 1:
        raise ValueError(f"pixels must be (h, w[, c]) with h, w >= 1, got {p.shape}")
    # NaN propagates into the minimum and an infinity is an extreme
    lo, hi = p.min(), p.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("pixel values must be finite")
    if lo < -1e-9 or hi > 1 + 1e-9:
        raise ValueError("pixel values must lie in [0, 1]")
    if lo < 0.0 or hi > 1.0:
        np.clip(p, 0.0, 1.0, out=p)
    p.setflags(write=False)
    return p


def pixel_grid(image: ImageGrid) -> np.ndarray:
    """Center-origin (x, y) coordinates of every pixel, shape (h, w, 2)."""
    grid = _centered_grid(image.width, image.height)[:2]
    return np.ascontiguousarray(grid.T).reshape(image.height, image.width, 2)


def _centered_grid(width: int, height: int) -> np.ndarray:
    """Homogeneous center-origin planes ``x, y, 1`` of a ``width x height``
    raster, shape ``(3, height * width)`` in row-major pixel order.

    A centered crop of a larger raster of the same parity has exactly these
    coordinates: the half-integers are exact in floating point.
    """
    grid = np.ones((3, height, width))
    grid[0] = np.arange(width) - (width - 1) / 2.0
    grid[1] = (np.arange(height) - (height - 1) / 2.0)[:, None]
    return grid.reshape(3, -1)


def bilinear_sample(image: ImageGrid, points) -> np.ndarray:
    """Bilinear lookup at center-origin points; zero outside the image box.

    ``points`` is ``(..., 2)`` as (x, y); the result is ``(..., channels)``.
    Samples beyond ``[-w/2, w/2] x [-h/2, h/2]`` or at non-finite points
    return exactly zero, and neighbors outside the pixel lattice contribute
    zero to the blend.
    """
    p = np.asarray(points, dtype=float)
    plan = _plan(p.reshape(-1, 2).T, image.height, image.width)
    planes = _gather(_pad_planes(image.pixels, 0.0), plan)
    return np.ascontiguousarray(planes.T).reshape(p.shape[:-1] + (image.channels,))


def _pad_planes(pixels: np.ndarray, pad: float) -> np.ndarray:
    """Channel planes of an ``(h, w, c)`` array with one pixel of ``pad``
    around each, shape ``(c, h + 2, w + 2)``: every point then reads its
    four neighbors from one flat index without bounds checks."""
    h, w, c = pixels.shape
    planes = np.empty((c, h + 2, w + 2))
    planes[:, 1:-1, 1:-1] = np.moveaxis(pixels, 2, 0)
    planes[:, [0, -1]] = planes[:, :, [0, -1]] = pad
    return planes


class _Plan(NamedTuple):
    """A bilinear plan: see :func:`_plan`."""

    base: np.ndarray  # (n,) flat index of each top-left neighbor
    weights: np.ndarray  # (4, n): top-left, top-right, bottom-left, bottom-right
    padded: tuple[int, int]  # (h + 2, w + 2), the planes it indexes


def _plan(pts: np.ndarray, h: int, w: int, block: np.ndarray | None = None) -> _Plan:
    """Where and how much each point reads from padded ``h x w`` planes.

    ``pts`` is ``(2, n)`` x, y planes.  The plan holds the flat index of
    each point's top-left neighbor in a ``(h + 2, w + 2)`` padded plane and
    the ``(4, n)`` weights of its four neighbors.  An out-of-box or
    non-finite point lands on the padding's corner, so it reads the pad
    value with weight one.  The plan depends only on the points and the
    raster size, so a fixed point set can keep it.  ``block``, a
    C-contiguous ``(5, n)`` float array, receives the plan in place of a
    new one: the index as ``int64`` in its first row, the weights below.
    """
    x, y = pts
    outside = ~((np.abs(x) <= w / 2.0) & (np.abs(y) <= h / 2.0))
    col = x + (w - 1) / 2.0
    row = y + (h - 1) / 2.0
    np.copyto(col, -1.0, where=outside)
    np.copyto(row, -1.0, where=outside)
    c0 = np.floor(col)
    r0 = np.floor(row)
    fc = np.subtract(col, c0, out=col)
    fr = np.subtract(row, r0, out=row)
    gc = 1 - fc
    gr = 1 - fr
    # (r0 + 1) * (w + 2) + (c0 + 1) in place: whole numbers far below 2**53,
    # so the float index is exact
    r0 += 1
    r0 *= w + 2
    c0 += 1
    r0 += c0
    if block is None:
        block = np.empty((5, r0.size))
    base = block[0].view(np.int64)
    np.copyto(base, r0, casting="unsafe")
    weights = block[1:]
    for out, (a, b) in zip(weights, ((gr, gc), (gr, fc), (fr, gc), (fr, fc))):
        np.multiply(a, b, out=out)
    return _Plan(base, weights, (h + 2, w + 2))


def _gather(planes: np.ndarray, plan: _Plan) -> np.ndarray:
    """The bilinear blend of padded ``(c, h + 2, w + 2)`` planes at a
    :func:`_plan` of ``h x w``; the result is ``(c, n)``, one row per channel.

    Each channel is gathered from its own contiguous plane.  The first
    neighbor's term is written straight into the output and the other three
    are added to it in neighbor order, the order of the bilinear sum.
    Raises ``ValueError`` when the planes are not the size the plan was
    made for.
    """
    base, weights, padded = plan
    if planes.shape[1:] != padded:
        raise ValueError(f"plan for padded {padded} planes, got {planes.shape[1:]}")
    c, stride = planes.shape[0], planes.shape[2]
    out = np.empty((c, base.size))
    neighbor = np.empty(base.size)
    # every index is in range for planes of the checked size; "clip" spares
    # the buffered copy that take makes of ``out`` under the default "raise"
    for flat, acc in zip(planes.reshape(c, -1), out):
        np.take(flat, base, out=acc, mode="clip")
        acc *= weights[0]
        for offset, wgt in zip((1, stride, stride + 1), weights[1:]):
            np.take(flat[offset:], base, out=neighbor, mode="clip")
            neighbor *= wgt
            acc += neighbor
    return out


def warp_by_homography(image: ImageGrid, h) -> ImageGrid:
    """Resample through the inverse map: output(p) = input(H^-1 p).

    Content moves forward by ``H``; output size equals input size.  Pixels
    whose source falls outside the input, or behind the camera (see
    :func:`~sl3warp.sl3.apply_homography`), are zero.
    """
    try:
        h_inv = np.linalg.inv(_as_matrix(h))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("homography is not invertible") from exc
    return _warp_crop(image, h_inv, image.width, image.height)


def _warp_crop(image: ImageGrid, h_inv: np.ndarray, width: int, height: int) -> ImageGrid:
    """The centered ``width x height`` crop of ``warp_by_homography(image, H)``,
    given ``h_inv = H^-1``.

    Only the crop's own pixels are resampled, with the same arithmetic, so
    the bytes equal cropping the full warp.  Raises :func:`center_crop`'s
    ``ValueError`` for a crop that does not fit or would shift the center.
    """
    _crop_origin(image, width, height)
    src = _project(h_inv, _centered_grid(width, height))
    sampled = bilinear_sample(image, src.T)
    return ImageGrid._adopt(sampled.reshape(height, width, image.channels))


def center_crop(image: ImageGrid, size: int | tuple[int, int]) -> ImageGrid:
    """Centered crop; offsets must be integral so the origin is preserved."""
    cw, ch = (size, size) if isinstance(size, int) else (int(size[0]), int(size[1]))
    x0, y0 = _crop_origin(image, cw, ch)
    return ImageGrid(image.pixels[y0 : y0 + ch, x0 : x0 + cw])


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
    return ImageGrid._adopt(np.divide(raw.reshape(height, width, channels), maxval, dtype=float))


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
