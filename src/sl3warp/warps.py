"""The five subgroup warp maps and their coefficient recovery formulas.

Each warp resamples an image so that the action of one commutative
subgroup becomes a plain translation of the warped raster:

* scale+rotation  -> log-polar axes (radius is exponential in the column,
  angle is linear in the row, which is circular),
* aspect stretch  -> per-axis log sampling of the positive quadrant, read
  over the source and its three mirror images as four channels,
* shear           -> rows stretched in proportion to their distance from
  the center line,
* perspective x/y -> reciprocal sampling along one axis, offset away from
  the pole by ``phi = n/4``, which also rescales the other axis.

``sample_coords`` maps warped-grid coordinates to source coordinates;
``warp_image`` samples the source at a grid that depends only on the warp.
The bilinear plan of that grid (:func:`sl3warp.raster._plan`: neighbor
index and weights) depends on the warp and the image size, so every warp
keeps one per ``(kind, config, height, width)`` and each call pays for the
gather alone.  Mirroring is exact on the center-origin pixel lattice, so
the aspect warp reads the mirror images at the one positive-quadrant plan
instead of planning each reflected grid.
Each warp's pseudo-translation is linear in its own coefficients, and one
``(2, k)`` matrix per warp states that law: ``predicted_shift`` applies it
and ``recover_coeffs`` is its least-squares inverse.  For an ``n``-sized
warp the log base is pinned to ``n/2`` so the usable parameter range
matches the image extent.
"""

from __future__ import annotations

import enum
import functools
import math
import mmap
from dataclasses import dataclass

import numpy as np

# bilinear_sample is not called here; the traced benchmark wraps it by this
# module's name (perfbench/workloads.py), so the name must resolve.
from .raster import ImageGrid, _Plan, _gather, _pad_planes, _plan, bilinear_sample  # noqa: F401
from .sl3 import FACTOR_COEFFS

__all__ = [
    "WarpKind",
    "WarpConfig",
    "sample_coords",
    "recover_coeffs",
    "predicted_shift",
    "warp_image",
    "warp_grid_mu",
    "COEFF_INDICES",
]


class WarpKind(enum.Enum):
    SCALE_ROTATION = "scale-rot"
    ASPECT_RATIO = "aspect"
    SHEAR = "shear"
    PERSPECTIVE_1 = "persp1"
    PERSPECTIVE_2 = "persp2"


# Coefficient positions (0-based into b) each warp informs: one warp per
# factor after the translation, declared in factor order.
COEFF_INDICES = dict(zip(WarpKind, FACTOR_COEFFS[1:]))


@dataclass(frozen=True)
class WarpConfig:
    """Warped-image geometry: the side length ``n`` fixes every warp."""

    n: int = 256

    def __post_init__(self):
        if self.n < 32 or self.n % 2:
            raise ValueError(f"warp size must be even and >= 32, got {self.n}")

    @classmethod
    def for_width(cls, width: int) -> "WarpConfig":
        """The largest even warp that fits an image ``width`` pixels wide,
        or the smallest warp for images narrower than it."""
        return cls(n=max(width - width % 2, 32))

    @property
    def log_base(self) -> float:
        return self.n / 2.0

    @property
    def phi(self) -> float:
        """Perspective offset: keeps the reciprocal sampling away from its
        pole and scales the recovered field of view."""
        return self.n / 4.0


def warp_grid_mu(kind: WarpKind, config: WarpConfig) -> np.ndarray:
    """Warped coordinates ``mu`` of every warped-image pixel, shape (n, n, 2).

    The log and angular axes count up from index zero; the shear and
    perspective axes are center-origin (index minus n/2) because their
    formulas need signed coordinates.
    """
    n = config.n
    idx = np.arange(n, dtype=float)
    if kind in (WarpKind.SCALE_ROTATION, WarpKind.ASPECT_RATIO):
        m1, m2 = idx, idx
    else:
        m1, m2 = idx - n / 2.0, idx - n / 2.0
    mu1, mu2 = np.meshgrid(m1, m2)  # mu1 varies along columns, mu2 along rows
    return np.stack([mu1, mu2], axis=-1)


def sample_coords(kind: WarpKind, config: WarpConfig, mu) -> np.ndarray:
    """Source (x, y) sampled by warped coordinate ``mu``, shape-preserving.

    The scale+rotation warp only reaches radii in ``[1, n/2]``; the
    perspective forms use ``sign(0) = +1`` so their denominator never
    vanishes on the grid.
    """
    mu = np.asarray(mu, dtype=float)
    squeeze = mu.ndim == 1
    m = np.atleast_2d(mu)
    n = float(config.n)
    m1, m2 = m[..., 0], m[..., 1]
    if kind is WarpKind.SCALE_ROTATION:
        radius = (n / 2.0) ** (m1 / n)
        angle = 2.0 * math.pi * m2 / n
        out = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    elif kind is WarpKind.ASPECT_RATIO:
        out = np.stack(
            [(n / 2.0) ** (2.0 * m1 / n), (n / 2.0) ** (2.0 * m2 / n)], axis=-1
        )
    elif kind is WarpKind.SHEAR:
        out = np.stack([(2.0 / n) * m1 * m2, m2], axis=-1)
    elif kind is WarpKind.PERSPECTIVE_1:
        d = m1 + _sign(m1) * config.phi
        out = np.stack([config.phi * n / (2.0 * d), m2 * n / (2.0 * d)], axis=-1)
    elif kind is WarpKind.PERSPECTIVE_2:
        d = m2 + _sign(m2) * config.phi
        out = np.stack([m1 * n / (2.0 * d), config.phi * n / (2.0 * d)], axis=-1)
    else:  # pragma: no cover
        raise ValueError(f"unknown warp kind {kind}")
    return out[0] if squeeze else out


def _sign(v: np.ndarray) -> np.ndarray:
    # signum with sign(0) := +1, keeping the perspective denominator nonzero
    return np.where(v >= 0.0, 1.0, -1.0)


def _shift_matrix(kind: WarpKind, config: WarpConfig) -> np.ndarray:
    """Warped-image shift per unit of each of the warp's own coefficients.

    Shape ``(2, k)`` with ``k = len(COEFF_INDICES[kind])``; columns follow
    ``COEFF_INDICES[kind]``, rows are the warped (column, row) axes.
    """
    n = float(config.n)
    log_s = math.log(config.log_base)
    if kind is WarpKind.SCALE_ROTATION:
        return np.array([[0.0, n / log_s], [n / (2.0 * math.pi), 0.0]])
    if kind is WarpKind.ASPECT_RATIO:
        return np.array([[1.0], [-1.0]]) * (n / (2.0 * log_s))
    if kind is WarpKind.SHEAR:
        return np.array([[n / 2.0], [0.0]])
    if kind is WarpKind.PERSPECTIVE_1:
        return np.array([[n * config.phi / 2.0], [0.0]])
    if kind is WarpKind.PERSPECTIVE_2:
        return np.array([[0.0], [n * config.phi / 2.0]])
    raise ValueError(f"unknown warp kind {kind}")  # pragma: no cover


def recover_coeffs(kind: WarpKind, config: WarpConfig, mu_hat) -> np.ndarray:
    """Coefficient update implied by a peak displacement in the warped image.

    Returns a full 8-vector with only the warp's own entries filled: the
    least-squares inverse of :func:`predicted_shift`, which averages the
    aspect warp's two redundant axis estimates and ignores the
    non-informative axis of a one-parameter warp.
    """
    mu_hat = np.asarray(mu_hat, dtype=float)
    if not np.all(np.isfinite(mu_hat)):
        raise ValueError("peak displacement must be finite")
    b = np.zeros(8)
    b[list(COEFF_INDICES[kind])] = np.linalg.pinv(_shift_matrix(kind, config)) @ mu_hat
    return b


def predicted_shift(kind: WarpKind, config: WarpConfig, b) -> np.ndarray:
    """Analytic pseudo-translation of the warped image for coefficients ``b``.

    This is the displacement an in-subgroup transform of the source image
    produces in its warp; coefficients outside the subgroup are ignored.
    """
    b = np.asarray(b, dtype=float)
    return _shift_matrix(kind, config) @ b[list(COEFF_INDICES[kind])]


def warp_image(image: ImageGrid, kind: WarpKind, config: WarpConfig) -> ImageGrid:
    """Resample an image onto the warp's grid by bilinear interpolation.

    Sources outside the image are zero.  The aspect-ratio warp emits four
    channels, the positive-quadrant grid read over the source plane and its
    mirror images, in the order of the quadrants they reflect: (+x, +y),
    (-x, +y), (+x, -y), (-x, -y).  Multi-channel inputs are averaged to a
    single plane first so the channel count stays four.
    """
    planes = _pad_planes(image.pixels, 0.0)
    if kind is WarpKind.ASPECT_RATIO:
        # column c <-> w - 1 - c is x <-> -x on the center-origin lattice, and
        # the one-pixel pad is symmetric, so a padded plane's mirror is the
        # padded mirror image
        p = planes.mean(axis=0)
        planes = np.stack([p, p[:, ::-1], p[::-1], p[::-1, ::-1]])
    plan = _sample_plan(kind, config, image.height, image.width)
    out = _gather(planes, plan)
    return ImageGrid._adopt(
        np.ascontiguousarray(out.T).reshape(config.n, config.n, out.shape[0]))


# A warp's bilinear plan depends on the warp and the image size, so it is
# computed once and kept read-only: at n = 256 a plan (one index and four
# weights per pixel) holds 2.5 MB, the aspect warp's too, and only callers
# of a warp pay for its plans.  A plan lives in its own anonymous mapping,
# outside the malloc heap: a long-lived chunk there splits the heap's free
# space, and the estimate benchmark's peak RSS then rose by one or two more
# 832^2 source rasters (5-10 MB) on some seeds and environment sizes, where
# in a mapping it costs its own bytes on all.  Callers use one or two warp
# and image sizes; the bound only limits what an unusual caller can pile up.
_PLAN_CACHE_SIZE = 8


def _sample_grid(kind: WarpKind, config: WarpConfig) -> np.ndarray:
    """Source coordinates of every warped pixel as ``(2, n * n)`` x, y
    planes in row-major pixel order."""
    coords = sample_coords(kind, config, warp_grid_mu(kind, config))
    return np.ascontiguousarray(coords.reshape(-1, 2).T)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _sample_plan(kind: WarpKind, config: WarpConfig, height: int, width: int) -> _Plan:
    """The read-only bilinear plan (see :func:`~sl3warp.raster._plan`) of a
    warp's sample grid in a ``height x width`` image."""
    grid = _sample_grid(kind, config)
    block = np.frombuffer(mmap.mmap(-1, 5 * grid.shape[1] * 8)).reshape(5, -1)
    plan = _plan(grid, height, width, block)
    plan.base.setflags(write=False)
    plan.weights.setflags(write=False)
    return plan
