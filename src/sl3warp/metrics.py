"""Corner-error metrics and the threshold curve for homography estimates.

The alignment error of a predicted homography is the mean L2 displacement
of four reference corners against the ground-truth mapping.  Aggregates:
the mean corner error over a sample set, and the precision curve over an
integer pixel-threshold grid (fraction of samples strictly below each
threshold).  The POT success score uses the same corner construction on
the centered unit square scaled to the template, which coincides with the
alignment error under the default corner choice, so the precision curve
is also the success curve and is stated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sl3 import _as_matrix, _project

__all__ = [
    "DEFAULT_THRESHOLDS",
    "template_corners",
    "alignment_error",
    "mace",
    "precision_and_success",
    "CurveSummary",
]

DEFAULT_THRESHOLDS = tuple(range(1, 101))


def template_corners(width: float, height: float) -> np.ndarray:
    """Four corners of a centered ``width x height`` box, as (x, y) rows."""
    hw, hh = width / 2.0, height / 2.0
    return np.array([[-hw, -hh], [hw, -hh], [-hw, hh], [hw, hh]])


def alignment_error(h_pred, h_true, corners) -> float:
    """Mean four-corner displacement between two homographies, in pixels.

    A corner that either map sends onto or behind the line at infinity
    (homogeneous ``w <= 0``, the in-front rule of ``sl3.apply_homography``)
    yields ``inf``: the estimate is unusable at that corner and the caller
    is expected to count such samples separately.
    """
    h_pred = _as_matrix(h_pred)
    h_true = _as_matrix(h_true)
    corners = np.asarray(corners, dtype=float)
    if corners.shape != (4, 2):
        raise ValueError(f"corners must have shape (4, 2), got {corners.shape}")
    planes = np.vstack([corners.T, np.ones(4)])
    p, t = _project(h_pred, planes), _project(h_true, planes)
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        return math.inf
    return sum(math.hypot(dx, dy) for dx, dy in (p - t).T) / 4.0


def mace(samples, corners) -> float:
    """Mean alignment error over ``(h_pred, h_true)`` pairs.

    Infinite sentinels are excluded from the mean; use the pair count
    minus finite count to report them.
    """
    if len(samples) == 0:
        raise ValueError("mace requires at least one sample")
    errors = [alignment_error(hp, ht, corners) for hp, ht in samples]
    finite = [e for e in errors if math.isfinite(e)]
    if not finite:
        return math.inf
    return float(np.mean(finite))


@dataclass(frozen=True)
class CurveSummary:
    """The threshold curve as ``(threshold, fraction)`` pairs, and its mean."""

    precision: tuple[tuple[float, float], ...]
    average_precision: float


def precision_and_success(errors, thresholds=DEFAULT_THRESHOLDS) -> CurveSummary:
    """Fractions of samples strictly below each threshold.

    The precision curve is also the success curve (see the module note).
    Non-finite entries count as failures at every threshold.
    """
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise ValueError("empty error list")
    thresholds = tuple(float(t) for t in thresholds)
    if not thresholds:
        raise ValueError("empty threshold grid")
    finite = np.where(np.isfinite(errors), errors, np.inf)
    curve = tuple((t, float(np.mean(finite < t))) for t in thresholds)
    return CurveSummary(precision=curve, average_precision=float(np.mean([f for _, f in curve])))
