"""The five subgroup warp maps and their coefficient recovery formulas.

Each warp resamples an image so that the action of one commutative
subgroup becomes a plain translation of the warped raster:

* scale+rotation  -> log-polar axes (radius is exponential in the column,
  angle is linear in the row, which is circular),
* aspect stretch  -> per-axis log sampling over the four reflected
  quadrants, stacked as four channels,
* shear           -> rows stretched in proportion to their distance from
  the center line,
* perspective x/y -> reciprocal sampling along one axis, offset away from
  the pole by ``phi1`` and rescaled by ``phi2``.

``sample_coords`` maps warped-grid coordinates to source coordinates,
``recover_coeffs`` turns a measured peak displacement back into algebra
coefficients, and ``predicted_shift`` is its exact inverse (the analytic
pseudo-translation).  For an ``n``-sized warp the log base is pinned to
``n/2`` so the usable parameter range matches the image extent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .raster import ImageGrid, bilinear_sample
from .sl3 import FACTOR_COEFFS

__all__ = [
    "WarpKind",
    "WarpConfig",
    "WarpedImage",
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

# Quadrant reflection signs for the aspect-ratio warp, channel order fixed.
_QUADRANT_SIGNS = ((1, 1), (-1, 1), (1, -1), (-1, -1))


@dataclass(frozen=True)
class WarpConfig:
    """Warped-image geometry: side length ``n`` plus the perspective offsets.

    ``phi1`` keeps the reciprocal sampling away from its pole and ``phi2``
    scales the recovered field of view; both default to ``n/4``.
    """

    n: int = 256
    phi1: float | None = None
    phi2: float | None = None

    def __post_init__(self):
        if self.n < 32 or self.n % 2:
            raise ValueError(f"warp size must be even and >= 32, got {self.n}")
        if self.phi1 is None:
            object.__setattr__(self, "phi1", self.n / 4.0)
        if self.phi2 is None:
            object.__setattr__(self, "phi2", self.n / 4.0)
        if self.phi1 <= 0 or self.phi2 <= 0:
            raise ValueError("phi1 and phi2 must be positive")

    @property
    def log_base(self) -> float:
        return self.n / 2.0


@dataclass(frozen=True)
class WarpedImage:
    grid: ImageGrid
    kind: WarpKind
    config: WarpConfig


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
        d = m1 + _sign(m1) * config.phi1
        out = np.stack([config.phi2 * n / (2.0 * d), m2 * n / (2.0 * d)], axis=-1)
    elif kind is WarpKind.PERSPECTIVE_2:
        d = m2 + _sign(m2) * config.phi1
        out = np.stack([m1 * n / (2.0 * d), config.phi2 * n / (2.0 * d)], axis=-1)
    else:  # pragma: no cover
        raise ValueError(f"unknown warp kind {kind}")
    return out[0] if squeeze else out


def _sign(v: np.ndarray) -> np.ndarray:
    # signum with sign(0) := +1, keeping the perspective denominator nonzero
    return np.where(v >= 0.0, 1.0, -1.0)


def recover_coeffs(kind: WarpKind, config: WarpConfig, mu_hat) -> np.ndarray:
    """Coefficient update implied by a peak displacement in the warped image.

    Returns a full 8-vector with only the warp's own entries filled.  The
    aspect warp reconciles its two redundant axis estimates by the
    symmetric average; one-parameter warps ignore their non-informative
    axis.  Exactly inverts :func:`predicted_shift`.
    """
    d1, d2 = float(mu_hat[0]), float(mu_hat[1])
    if not (math.isfinite(d1) and math.isfinite(d2)):
        raise ValueError("peak displacement must be finite")
    n = float(config.n)
    log_s = math.log(config.log_base)
    b = np.zeros(8)
    if kind is WarpKind.SCALE_ROTATION:
        b[2] = 2.0 * math.pi * d2 / n
        b[3] = d1 * log_s / n
    elif kind is WarpKind.ASPECT_RATIO:
        est_pos = 2.0 * d1 * log_s / n   # estimates +b5
        est_neg = 2.0 * d2 * log_s / n   # estimates -b5
        b[4] = (est_pos - est_neg) / 2.0
    elif kind is WarpKind.SHEAR:
        b[5] = 2.0 * d1 / n
    elif kind is WarpKind.PERSPECTIVE_1:
        b[6] = 2.0 * d1 / (n * config.phi2)
    elif kind is WarpKind.PERSPECTIVE_2:
        b[7] = 2.0 * d2 / (n * config.phi2)
    else:  # pragma: no cover
        raise ValueError(f"unknown warp kind {kind}")
    return b


def predicted_shift(kind: WarpKind, config: WarpConfig, b) -> np.ndarray:
    """Analytic pseudo-translation of the warped image for coefficients ``b``.

    This is the displacement an in-subgroup transform of the source image
    produces in its warp, and the exact inverse of :func:`recover_coeffs`.
    """
    b = np.asarray(b, dtype=float)
    n = float(config.n)
    log_s = math.log(config.log_base)
    if kind is WarpKind.SCALE_ROTATION:
        return np.array([n * b[3] / log_s, n * b[2] / (2.0 * math.pi)])
    if kind is WarpKind.ASPECT_RATIO:
        d = n * b[4] / (2.0 * log_s)
        return np.array([d, -d])
    if kind is WarpKind.SHEAR:
        return np.array([n * b[5] / 2.0, 0.0])
    if kind is WarpKind.PERSPECTIVE_1:
        return np.array([n * config.phi2 * b[6] / 2.0, 0.0])
    if kind is WarpKind.PERSPECTIVE_2:
        return np.array([0.0, n * config.phi2 * b[7] / 2.0])
    raise ValueError(f"unknown warp kind {kind}")  # pragma: no cover


def warp_image(image: ImageGrid, kind: WarpKind, config: WarpConfig) -> WarpedImage:
    """Resample an image onto the warp's grid by bilinear interpolation.

    Sources outside the image are zero.  The aspect-ratio warp emits four
    channels, one per quadrant reflected into the positive quadrant;
    multi-channel inputs are averaged to a single plane first so the
    channel count stays four.
    """
    if image.pixels.size == 0:
        raise ValueError("cannot warp an empty image")
    mu = warp_grid_mu(kind, config)
    if kind is WarpKind.ASPECT_RATIO:
        coords = sample_coords(kind, config, mu)
        plane = ImageGrid(image.pixels.mean(axis=2)) if image.channels > 1 else image
        chans = [
            bilinear_sample(plane, coords * np.array([sx, sy], dtype=float))[..., 0]
            for sx, sy in _QUADRANT_SIGNS
        ]
        grid = ImageGrid(np.stack(chans, axis=-1))
    else:
        grid = ImageGrid(bilinear_sample(image, sample_coords(kind, config, mu)))
    return WarpedImage(grid=grid, kind=kind, config=config)
