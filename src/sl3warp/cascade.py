"""Six-stage homography estimation by warp-and-correlate.

A template/search pair is reduced one subgroup at a time, in the fixed
factor order: plain translation first, then scale+rotation, aspect, shear,
and the two perspective directions.  Before each stage the search image is
re-rectified from the original through the inverse of everything estimated
so far, so the remaining transform always leads with the current stage's
factor.  Each warp turns its subgroup action into a pseudo-translation,
which phase correlation measures and ``recover_coeffs`` converts back into
algebra coefficients.

One pass of the cascade cannot take up the coupling between subgroups, so
its estimate is then refined directly in the coefficients of the enabled
stages by photometric Levenberg-Marquardt (:mod:`sl3warp.refine`).

Estimation is deterministic and pure: the same inputs and config produce
bit-identical results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .correlate import phase_correlate
from .raster import ImageGrid, warp_by_homography
from .refine import refine
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
CASCADE_ORDER = tuple(Stage)

_STAGE_TO_WARP = {
    Stage.SCALE_ROTATION: WarpKind.SCALE_ROTATION,
    Stage.ASPECT_RATIO: WarpKind.ASPECT_RATIO,
    Stage.SHEAR: WarpKind.SHEAR,
    Stage.PERSPECTIVE_1: WarpKind.PERSPECTIVE_1,
    Stage.PERSPECTIVE_2: WarpKind.PERSPECTIVE_2,
}

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
# The capture route must beat the direct route by this factor before its
# answer is trusted; the direct route is the better prior whenever the
# content is anywhere near the window.
_CAPTURE_CONFIDENCE_MARGIN = 2.0


@dataclass(frozen=True)
class EstimatorConfig:
    """Cascade settings: warp geometry and enabled stages.

    ``stages`` must be a subset of the canonical order, in that order;
    stages left out keep their coefficients at zero.
    """

    warp: WarpConfig = field(default_factory=WarpConfig)
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


def _correlate_translation(template: ImageGrid, search: ImageGrid) -> tuple[np.ndarray, float]:
    """Translation peak from the better of two correlation routes.

    The direct route applies the center-weighted, band-limited correlator
    straight away: it tolerates the geometric mismatch of the later
    subgroups but only captures shifts the narrow window still overlaps.
    The capture route first takes the plain windowed peak (exact for large
    clean shifts, meaningless under heavy distortion), re-centers by its
    integer part, and refits.  When the routes disagree, the capture
    refit must beat the direct refit by a fixed confidence factor to be
    chosen, keeping the result deterministic and biased toward the route
    that works under distortion.
    """

    def fine(img: ImageGrid) -> tuple[np.ndarray, float]:
        return phase_correlate(
            template,
            img,
            window_power=_TRANSLATION_WINDOW_POWER,
            band_limit=_TRANSLATION_BAND_LIMIT,
        )

    def recentered_fit(t0: np.ndarray) -> tuple[np.ndarray, float]:
        if not t0.any():
            mu, conf = fine(search)
            return mu, conf
        b0 = np.zeros(8)
        b0[0], b0[1] = t0
        mu, conf = fine(rectify(search, b0))
        return t0 + mu, conf

    direct, direct_conf = fine(search)
    coarse, _ = phase_correlate(template, search, subpixel=False)
    if np.array_equal(np.rint(coarse), np.rint(direct)):
        return direct, direct_conf
    # the routes disagree: refit each from its own re-centering and keep
    # the coarse capture only when it is decisively stronger
    via_direct, conf_direct = recentered_fit(np.rint(direct))
    via_coarse, conf_coarse = recentered_fit(np.rint(coarse))
    if conf_coarse > _CAPTURE_CONFIDENCE_MARGIN * conf_direct:
        return via_coarse, conf_coarse
    return via_direct, conf_direct


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
        mu, conf = _correlate_translation(template, search)
        update = np.zeros(8)
        update[0], update[1] = mu[0], mu[1]
    else:
        kind = _STAGE_TO_WARP[stage]
        wt = warp_image(template, kind, config.warp).grid
        ws = warp_image(search, kind, config.warp).grid
        if kind is WarpKind.ASPECT_RATIO:
            span = config.warp.n // 2 + _ASPECT_CONTENT_MARGIN
            wt = ImageGrid(wt.pixels[:span, :span, :])
            ws = ImageGrid(ws.pixels[:span, :span, :])
        mu, conf = phase_correlate(
            wt,
            ws,
            circular_vertical=kind is WarpKind.SCALE_ROTATION,
            band_limit=_WARP_BAND_LIMIT,
        )
        update = recover_coeffs(kind, config.warp, mu)
    return update, StagePeak(stage=stage, mu=(float(mu[0]), float(mu[1])), confidence=conf)


def estimate(
    template: ImageGrid,
    search: ImageGrid,
    config: EstimatorConfig | None = None,
) -> EstimationResult:
    """Run the enabled stages in order, rectifying the search between stages,
    then refine the coefficients of those stages directly.

    Returns the refined coefficients, the composed homography, the
    per-stage peak diagnostics, and the minimum stage confidence.
    """
    if config is None:
        config = EstimatorConfig()
    if template.pixels.shape != search.pixels.shape:
        raise ValueError("template and search must have identical dimensions")

    b_hat = np.zeros(8)
    peaks: list[StagePeak] = []
    for stage in config.stages:
        rectified = rectify(search, b_hat)
        update, peak = estimate_stage(template, rectified, stage, config)
        b_hat = b_hat + update
        peaks.append(peak)
    if config.stages:
        b_hat = refine(template, search, b_hat, _free_coefficients(config.stages))

    b_hat.setflags(write=False)
    h_hat = compose_homography(b_hat)
    h_hat.setflags(write=False)
    confidence = min((p.confidence for p in peaks), default=0.0)
    return EstimationResult(
        b_hat=b_hat, h_hat=h_hat, stage_peaks=tuple(peaks), confidence=confidence
    )
