"""Translation estimation by normalized cross-power-spectrum correlation.

The displacement between two equal-size rasters is read from the inverse
FFT of the phase-only cross spectrum.  A Hann window suppresses wrap-around
from non-periodic content; axes that are genuinely periodic (the angular
axis of a log-polar warp) are left unwindowed.  The integer peak can be
refined per axis by a three-point parabolic fit.

Pixels are real, so the spectra are the half spectra of ``rfft2``.  The
window and the band-limit mask depend only on the raster shape and the
setting; each is built once per pair of them and kept read-only.
"""

from __future__ import annotations

import functools

import numpy as np

from .raster import ImageGrid

__all__ = ["phase_correlate"]


def phase_correlate(
    a: ImageGrid,
    b: ImageGrid,
    *,
    window_power: float = 1.0,
    circular_vertical: bool = False,
    subpixel: bool = True,
    band_limit: float | None = None,
) -> tuple[np.ndarray, float]:
    """Displacement of ``b``'s content relative to ``a``.

    Returns ``((dx, dy), confidence)`` such that ``b(p) ~ a(p - (dx, dy))``,
    with offsets unwrapped into ``(-n/2, n/2]``.  Multi-channel inputs
    average their phase spectra.  ``confidence`` is the correlation peak
    over the total response magnitude, clipped to ``[0, 1]``; two all-zero
    or mismatched-content images give confidence 0 at displacement (0, 0).

    ``circular_vertical`` marks the vertical axis as periodic, exempting it
    from the window (used when correlating scale+rotation warps).
    ``window_power`` raises the Hann taper, concentrating weight toward
    the center; ``0.0`` leaves the images unwindowed.  ``band_limit``
    applies a Gaussian low-pass (sigma in cycles/pixel) to the normalized
    spectrum to locate the consensus displacement when the two images
    differ by more than a pure shift; the final peak is then the
    raw-surface argmax inside that neighborhood, so exact shifts stay
    exact.
    """
    if a.pixels.shape != b.pixels.shape:
        raise ValueError(
            f"images must have identical shape, got {a.pixels.shape} vs {b.pixels.shape}"
        )
    h, w = a.height, a.width
    win = _window2d(h, w, window_power, circular_vertical)

    spectra = (
        _phase_spectrum(a.pixels[:, :, ch] * win, b.pixels[:, :, ch] * win)
        for ch in range(a.channels)
    )
    spectrum = next(spectra)
    for cross in spectra:
        spectrum += cross
    # the explicit (h, w) lets irfft2 restore an odd width
    surface = np.fft.irfft2(spectrum, s=(h, w))
    if a.channels > 1:
        surface /= a.channels

    total = np.abs(surface).sum()
    if total == 0.0:
        return np.zeros(2), 0.0

    if band_limit is None:
        iy, ix = np.unravel_index(int(np.argmax(surface)), surface.shape)
    else:
        smooth = np.fft.irfft2(spectrum * _band_mask(h, w, band_limit), s=(h, w))
        cy, cx = np.unravel_index(int(np.argmax(smooth)), smooth.shape)
        iy, ix = _guided_argmax(surface, cy, cx, _REFINE_RADIUS)

    peak = float(surface[iy, ix])
    confidence = float(np.clip(peak / total, 0.0, 1.0))

    dx = float(ix if ix <= w // 2 else ix - w)
    dy = float(iy if iy <= h // 2 else iy - h)
    if subpixel:
        dx += _parabolic_offset(surface[iy, (ix - 1) % w], peak, surface[iy, (ix + 1) % w])
        dy += _parabolic_offset(surface[(iy - 1) % h, ix], peak, surface[(iy + 1) % h, ix])
    return np.array([dx, dy]), confidence


def _phase_spectrum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The phase-only cross spectrum of two windowed planes, as the
    ``rfft2`` half spectrum: real input mirrors the other half.

    Bins whose cross power is at most ``1e-15`` of the largest are zero,
    so two all-zero planes give an all-zero spectrum.
    """
    cross = np.fft.rfft2(a)
    np.conjugate(cross, out=cross)
    cross *= np.fft.rfft2(b)
    mag = np.abs(cross)
    weak = mag <= mag.max() * 1e-15
    np.divide(cross, mag, out=cross, where=~weak)
    cross[weak] = 0.0
    return cross


# Neighborhood (pixels) searched around the band-limited consensus peak:
# wide enough to recover the exact peak of a clean shift, narrow enough that
# a strong stray vote cannot drag the estimate off the consensus.
_REFINE_RADIUS = 2


def _guided_argmax(surface: np.ndarray, cy: int, cx: int, radius: int) -> tuple[int, int]:
    h, w = surface.shape
    rows = (np.arange(cy - radius, cy + radius + 1)) % h
    cols = (np.arange(cx - radius, cx + radius + 1)) % w
    patch = surface[np.ix_(rows, cols)]
    py, px = np.unravel_index(int(np.argmax(patch)), patch.shape)
    return int(rows[py]), int(cols[px])


# The window and the band mask depend only on the shape and the setting, and
# a caller correlates a handful of shapes, so both are computed once and kept
# read-only; the bound only limits what an unusual caller can pile up.
_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _window2d(h: int, w: int, power: float, circular_vertical: bool) -> np.ndarray:
    wx = np.hanning(w) ** power
    wy = np.ones(h) if circular_vertical else np.hanning(h) ** power
    return _read_only(np.outer(wy, wx))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _band_mask(h: int, w: int, sigma: float) -> np.ndarray:
    """Gaussian low-pass over the ``rfft2`` half spectrum of an h x w plane."""
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    return _read_only(np.exp(-(fx**2 + fy**2) / (2.0 * sigma**2)))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _parabolic_offset(left: float, center: float, right: float) -> float:
    denom = left - 2.0 * center + right
    if denom == 0.0:
        return 0.0
    off = 0.5 * (left - right) / denom
    # a refinement beyond one pixel means the fit is meaningless
    return off if abs(off) < 1.0 else 0.0
