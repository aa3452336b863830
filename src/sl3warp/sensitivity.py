"""Warped-domain sensitivity: how nuisance parameters move a warp's peak.

For a grid of (primary, nuisance) coefficient values, the probe image is
transformed by the composed homography carrying both values, warped with
the chosen map, and correlated against the warp of the untransformed
probe.  The matrix of measured peak offsets shows how far each warp's
pseudo-translation stays dominated by its own parameter: the nuisance-free
column reproduces the analytic shift, and entries along a nuisance axis
show the leakage the cascade inherits from estimating groups one at a
time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .correlate import phase_correlate
from .raster import ImageGrid, warp_by_homography
from .sl3 import compose_homography
from .warps import COEFF_INDICES, WarpConfig, WarpKind, predicted_shift, warp_image

__all__ = ["SensitivityResult", "warp_sensitivity", "write_sensitivity_csv",
           "DEFAULT_NUISANCE", "DEFAULT_SPAN"]

# Default nuisance coefficient probed for each warp: the next subgroup in
# the factor order (the first one whose residual the stage actually sees).
DEFAULT_NUISANCE = {
    WarpKind.SCALE_ROTATION: 4,
    WarpKind.ASPECT_RATIO: 5,
    WarpKind.SHEAR: 6,
    WarpKind.PERSPECTIVE_1: 7,
    WarpKind.PERSPECTIVE_2: 6,
}

# Half-width of the default value grid swept for each coefficient position.
DEFAULT_SPAN = (0.1, 0.1, 0.6, 0.26, 0.2, 0.15, 1e-4, 1e-4)


@dataclass(frozen=True)
class SensitivityResult:
    kind: WarpKind
    primary_coeff: int
    nuisance_coeff: int
    primary_values: tuple[float, ...]
    nuisance_values: tuple[float, ...]
    offsets: np.ndarray       # (P, N, 2) measured peak offsets
    predicted: np.ndarray     # (P, 2) analytic pseudo-translation per primary value


def warp_sensitivity(
    kind: WarpKind,
    primary_values,
    nuisance_values,
    probe: ImageGrid,
    primary_coeff: int | None = None,
    nuisance_coeff: int | None = None,
) -> SensitivityResult:
    """Measure peak offsets over a (primary, nuisance) coefficient grid.

    The warp is the largest even one that fits the probe.
    ``primary_coeff`` defaults to the warp's first informed coefficient and
    must belong to the warp; ``nuisance_coeff`` defaults to the next
    subgroup's coefficient and must not belong to it.
    """
    config = WarpConfig.for_width(probe.width)
    own = COEFF_INDICES[kind]
    if primary_coeff is None:
        primary_coeff = own[0]
    if primary_coeff not in own:
        raise ValueError(f"coefficient {primary_coeff} is not informed by {kind}")
    if nuisance_coeff is None:
        nuisance_coeff = DEFAULT_NUISANCE[kind]
    if nuisance_coeff in own:
        raise ValueError("nuisance coefficient must lie outside the warp's subgroup")

    reference = warp_image(probe, kind, config)
    primary_values = tuple(float(v) for v in primary_values)
    nuisance_values = tuple(float(v) for v in nuisance_values)

    offsets = np.zeros((len(primary_values), len(nuisance_values), 2))
    predicted = np.zeros((len(primary_values), 2))
    for i, pv in enumerate(primary_values):
        bp = np.zeros(8)
        bp[primary_coeff] = pv
        predicted[i] = predicted_shift(kind, config, bp)
        for j, nv in enumerate(nuisance_values):
            b = bp.copy()
            b[nuisance_coeff] = nv
            if not b.any():
                continue  # identity grid point: offset stays (0, 0)
            transformed = warp_by_homography(probe, compose_homography(b))
            warped = warp_image(transformed, kind, config)
            mu, _ = phase_correlate(
                reference,
                warped,
                circular_vertical=kind is WarpKind.SCALE_ROTATION,
            )
            offsets[i, j] = mu
    return SensitivityResult(
        kind=kind,
        primary_coeff=primary_coeff,
        nuisance_coeff=nuisance_coeff,
        primary_values=primary_values,
        nuisance_values=nuisance_values,
        offsets=offsets,
        predicted=predicted,
    )


def write_sensitivity_csv(result: SensitivityResult, path) -> None:
    """Two offset matrices (x then y) with grid headers, plus predictions."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"# warp={result.kind.value}",
                         f"primary=b{result.primary_coeff + 1}",
                         f"nuisance=b{result.nuisance_coeff + 1}"])
        for axis, label in enumerate(["offset_x", "offset_y"]):
            writer.writerow([f"# {label}"])
            writer.writerow(["primary\\nuisance", *result.nuisance_values])
            for i, pv in enumerate(result.primary_values):
                writer.writerow([pv, *result.offsets[i, :, axis]])
        writer.writerow(["# predicted"])
        writer.writerow(["primary", "predicted_x", "predicted_y"])
        for pv, (px, py) in zip(result.primary_values, result.predicted):
            writer.writerow([pv, px, py])
