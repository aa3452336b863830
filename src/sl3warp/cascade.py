"""Homography estimation: two correlation captures, then refinement.

The paper factors a homography into six commutative subgroups, plain
translation first, then scale+rotation, aspect, shear and the two
perspective directions, and turns each one into a pseudo-translation with
its own warp (:func:`estimate_stage`).  ``estimate`` captures only the
first two by correlation: the translation peak, then, with the search
image rectified through that estimate, the log-polar scale-rotation peak.
Both run on the finest level of the refinement's 2x2 box pyramid (the
first whose larger side is at most ``refine._FINEST_SIDE``), with the warp
reduced by the same factor and missing pixels read as zero, so the
captures and the refinement share one reduction and one rule for missing
pixels.  The captures only propose.  The photometric Levenberg-Marquardt
of :mod:`sl3warp.refine` solves every enabled coefficient on the same
pyramid.  Its coarsest level runs from three starts, the capture
estimate, the plain peak (the integer argmax of the translation capture's
raw correlation surface) and the identity, and the one its cost prefers
there goes on alone through the finer levels; the later warps' one-pass
estimates were measured not to improve on it.  The rotation coefficient
``b3`` comes back in ``(-pi, pi]``.

Estimation is deterministic and pure: the same inputs and config produce
bit-identical results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .correlate import _correlate, phase_correlate
from .raster import ImageGrid, warp_by_homography
from .refine import _pyramid, _refine
from .sl3 import FACTOR_COEFFS, compose_homography
from .warps import WarpConfig, WarpKind, recover_coeffs, warp_image

__all__ = ["Stage", "EstimatorConfig", "StagePeak", "EstimationResult",
           "rectify", "estimate_stage", "estimate"]


class Stage(enum.Enum):
    TRANSLATION = "translation"
    SCALE_ROTATION = "scale-rot"
    ASPECT_RATIO = "aspect"
    SHEAR = "shear"
    PERSPECTIVE_1 = "persp1"
    PERSPECTIVE_2 = "persp2"


# One stage per factor, in product order: stage k estimates FACTOR_COEFFS[k].
# Every stage after the translation shares its value with its WarpKind.
CASCADE_ORDER = tuple(Stage)

# Correlator settings, tuned on seeded middle-range pairs.  The translation
# stage sees the raw geometric mismatch of every later subgroup, so it gets
# a sharper center weighting and a stronger band limit; the warped stages
# only see the residual interference of the factors after their own.
_TRANSLATION_WINDOW_POWER = 2.0
_TRANSLATION_BAND_LIMIT = 0.012
_WARP_BAND_LIMIT = 0.02
# The aspect warp maps the image into the first half of each axis; the far
# half is the frame-boundary edge plus zeros, whose non-moving votes drag
# the peak, so correlation runs on the content quadrant plus a margin.
_ASPECT_CONTENT_MARGIN = 16
# The stages ``estimate`` runs as correlation captures before refining.
_CAPTURE_STAGES = (Stage.TRANSLATION, Stage.SCALE_ROTATION)


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator settings: warp geometry and enabled stages.

    ``stages``, the free factors, must be a subset of the canonical order,
    in that order; stages left out keep their coefficients at zero.
    ``warp`` is the warp of the full-size template; with none, it is the
    largest even one that fits the template.  ``estimate`` captures on the
    refinement's finest pyramid level, the pair reduced by a factor ``f``,
    and warps it with ``n // f``, rounded down to even and at least 32.
    """

    warp: WarpConfig | None = None
    stages: tuple[Stage, ...] = CASCADE_ORDER

    def __post_init__(self):
        ranks = [CASCADE_ORDER.index(s) for s in self.stages]
        if len(set(ranks)) != len(ranks) or ranks != sorted(ranks):
            raise ValueError(
                "stages must be unique and follow the order "
                + " -> ".join(s.value for s in CASCADE_ORDER)
            )


@dataclass(frozen=True)
class StagePeak:
    stage: Stage
    mu: tuple[float, float]
    confidence: float


@dataclass(frozen=True)
class EstimationResult:
    """``b_hat`` and ``h_hat == compose_homography(b_hat)`` are the refined
    estimate.  ``stage_peaks`` (one per correlation capture that ran) and
    ``confidence`` (their minimum, 0.0 when none ran) describe the captures,
    not the refinement start that won: when refinement keeps the plain
    translation peak or the identity, ``b_hat`` can disagree with them.
    Each ``stage_peaks[].mu`` is in the pixels of the image or warp at the
    refinement's finest pyramid level, where ``estimate`` captures: half
    the full-size pixels for a 256-pixel pair.
    """

    b_hat: np.ndarray
    h_hat: np.ndarray
    stage_peaks: tuple[StagePeak, ...]
    confidence: float

    def to_dict(self) -> dict:
        return {
            "b": [float(v) for v in self.b_hat],
            "h": [float(v) for v in self.h_hat.ravel()],
            "stages": [
                {"kind": p.stage.value, "mu": list(p.mu), "confidence": p.confidence}
                for p in self.stage_peaks
            ],
            "confidence": self.confidence,
        }


def _free_coefficients(stages) -> tuple[int, ...]:
    """Coefficient positions the given stages estimate."""
    return tuple(i for stage in stages for i in FACTOR_COEFFS[CASCADE_ORDER.index(stage)])


def rectify(search: ImageGrid, partial_b) -> ImageGrid:
    """Map the search image toward the template frame.

    Resamples through the inverse of the homography composed from the
    coefficients estimated so far.  An all-zero vector returns the input
    unchanged (no resampling blur).
    """
    partial_b = np.asarray(partial_b, dtype=float)
    if not partial_b.any():
        return search
    h = compose_homography(partial_b)
    return warp_by_homography(search, np.linalg.inv(h))


def estimate_stage(
    template: ImageGrid,
    search: ImageGrid,
    stage: Stage,
    config: EstimatorConfig,
) -> tuple[np.ndarray, StagePeak]:
    """One cascade stage: measure a (pseudo-)translation, return the update.

    The translation stage correlates the raw images and reads ``(b1, b2)``
    straight from the peak.  Every other stage warps both images with its
    subgroup's map first and converts the peak through the warp's recovery
    formula.  ``search`` must already be rectified by all previous stages.
    """
    if stage is Stage.TRANSLATION:
        update, peak, _ = _capture_translation(template, search)
        return update, peak
    kind = WarpKind(stage.value)
    warp = config.warp or WarpConfig.for_width(template.width)
    wt = warp_image(template, kind, warp)
    ws = warp_image(search, kind, warp)
    if kind is WarpKind.ASPECT_RATIO:
        span = warp.n // 2 + _ASPECT_CONTENT_MARGIN
        wt = ImageGrid(wt.pixels[:span, :span, :])
        ws = ImageGrid(ws.pixels[:span, :span, :])
    mu, conf = phase_correlate(
        wt,
        ws,
        circular_vertical=kind is WarpKind.SCALE_ROTATION,
        band_limit=_WARP_BAND_LIMIT,
    )
    update = recover_coeffs(kind, warp, mu)
    return update, StagePeak(stage=stage, mu=(float(mu[0]), float(mu[1])), confidence=conf)


def _capture_translation(
    template: ImageGrid, search: ImageGrid
) -> tuple[np.ndarray, StagePeak, np.ndarray]:
    """The translation stage's update and peak, plus the plain peak of the
    same correlation as a second update."""
    mu, conf, plain = _correlate(
        template,
        search,
        window_power=_TRANSLATION_WINDOW_POWER,
        circular_vertical=False,
        subpixel=True,
        band_limit=_TRANSLATION_BAND_LIMIT,
    )
    update, plain_update = np.zeros(8), np.zeros(8)
    update[:2], plain_update[:2] = mu, plain
    peak = StagePeak(stage=Stage.TRANSLATION, mu=(float(mu[0]), float(mu[1])), confidence=conf)
    return update, peak, plain_update


def estimate(
    template: ImageGrid,
    search: ImageGrid,
    config: EstimatorConfig | None = None,
) -> EstimationResult:
    """Capture the enabled translation and scale-rotation stages in order,
    rectifying the search between them, then refine the coefficients of
    every enabled stage directly.

    Capture and refinement share one pyramid (``refine._pyramid``).  The
    captures run on its finest level, reduced 2x2 by a factor ``f`` until
    the larger side is at most 128, with missing pixels read as zero and
    the warp at ``config.warp``'s size divided by ``f``.  Their estimate
    returns to full size as any level's coefficients do: b1 and b2 times
    ``f``, b7 and b8 divided by it.  The refinement runs on the same levels
    from the capture estimate, from the plain peak of the translation
    capture's own correlation (when translation is enabled) and from the
    identity: the coarsest level runs every start, and the one with the
    lowest cost there, the first of equal ones, goes on alone through the
    finer levels.  The rotation coefficient ``b3`` is then taken into
    ``(-pi, pi]``, which moves the homography only by round-off.

    Returns the refined coefficients, the composed homography, the peak
    diagnostics of the captures that ran, and their minimum confidence;
    the diagnostics describe the captures, not the start refinement kept.
    """
    config = config or EstimatorConfig()
    levels = _pyramid(template, search)
    finest = levels[-1]
    level_template, level_search = (
        ImageGrid._adopt(np.nan_to_num(plane)[:, :, None])
        for plane in (finest.template, finest.search[0, 1:-1, 1:-1])
    )
    warp = config.warp or WarpConfig.for_width(template.width)
    level_config = EstimatorConfig(warp=WarpConfig.for_width(warp.n // int(finest.scale[-1])))
    b_hat = np.zeros(8)
    starts: list[np.ndarray] = []
    peaks: list[StagePeak] = []
    for stage in (s for s in config.stages if s in _CAPTURE_STAGES):
        if stage is Stage.TRANSLATION:
            update, peak, plain = _capture_translation(level_template, level_search)
            starts.append(plain)
        else:
            rectified = rectify(level_search, b_hat)
            update, peak = estimate_stage(level_template, rectified, stage, level_config)
        b_hat = b_hat + update
        peaks.append(peak)
    starts = [b / finest.scale for b in (b_hat, *starts)]
    b_hat = _refine(levels, starts, _free_coefficients(config.stages))
    # the rotation has period 2 pi: keep it in (-pi, pi]
    turns = np.ceil((b_hat[2] - np.pi) / (2 * np.pi))
    if turns:
        b_hat[2] -= 2 * np.pi * turns

    b_hat.setflags(write=False)
    h_hat = compose_homography(b_hat)
    h_hat.setflags(write=False)
    confidence = min((p.confidence for p in peaks), default=0.0)
    return EstimationResult(
        b_hat=b_hat, h_hat=h_hat, stage_peaks=tuple(peaks), confidence=confidence
    )
