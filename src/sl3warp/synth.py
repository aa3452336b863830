"""Ground-truth dataset synthesis: sampled coefficients, pairs, and masks.

Coefficient vectors are drawn uniformly per component in the parameter
domain (translations in pixels, angle in radians, gamma as a ratio, k1 in
log domain, shear and perspective directly) and converted to algebra
coefficients.  A sample pairs a center crop of a source image with the
same crop of its warped version, with the exact coefficients recorded.
Randomness is keyed by ``(seed, sample index)`` so serial and parallel
generation emit identical datasets.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .metrics import template_corners
# warp_by_homography is not called here; the traced benchmark wraps it by
# this module's name (perfbench/workloads.py), so the name must resolve.
from .raster import (  # noqa: F401
    ImageGrid,
    _warp_crop,
    center_crop,
    load_image,
    save_image,
    warp_by_homography,
)
from .sl3 import apply_homography, coeffs_from_params, compose_homography

__all__ = [
    "MarginError",
    "ParamRanges",
    "PRESETS",
    "AugSample",
    "sample_coeffs",
    "make_pair",
    "mask_corners",
    "generate_dataset",
    "texture",
]

RASTER_SUFFIXES = (".pgm", ".ppm", ".pnm")


class MarginError(ValueError):
    """Source image too small for the requested crop and transform range."""


@dataclass(frozen=True)
class ParamRanges:
    """Closed sampling intervals for the parameter vector components.

    ``gamma`` and ``k1`` are ratio intervals and must stay positive; ``k1``
    presets are given in the log domain and converted here.
    """

    t1: tuple[float, float]
    t2: tuple[float, float]
    theta: tuple[float, float]
    gamma: tuple[float, float]
    k1: tuple[float, float]
    k2: tuple[float, float]
    v1: tuple[float, float]
    v2: tuple[float, float]

    def __post_init__(self):
        for name, (lo, hi) in asdict(self).items():
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"invalid interval for {name}: [{lo}, {hi}]")
        if self.gamma[0] <= 0 or self.k1[0] <= 0:
            raise ValueError("gamma and k1 intervals must be strictly positive")

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        pairs = [self.t1, self.t2, self.theta, self.gamma,
                 self.k1, self.k2, self.v1, self.v2]
        lo, hi = zip(*pairs)
        return np.array(lo), np.array(hi)


def _exp_interval(r: float) -> tuple[float, float]:
    return (float(np.exp(-r)), float(np.exp(r)))


# The k1 intervals are log-domain in the presets' source ranges; the
# translation intervals are declared here (the augmentation recipes leave
# them to the dataset builder).
PRESETS: dict[str, ParamRanges] = {
    "middle": ParamRanges(
        t1=(-16, 16), t2=(-16, 16), theta=(-0.6, 0.6), gamma=(0.7, 1.3),
        k1=_exp_interval(0.2), k2=(-0.15, 0.15), v1=(-1e-4, 1e-4), v2=(-1e-4, 1e-4),
    ),
    "large": ParamRanges(
        t1=(-32, 32), t2=(-32, 32), theta=(-0.8, 0.8), gamma=(0.7, 1.3),
        k1=_exp_interval(0.3), k2=(-0.2, 0.2), v1=(-1e-3, 1e-3), v2=(-1e-3, 1e-3),
    ),
    "pot": ParamRanges(
        t1=(-32, 32), t2=(-32, 32), theta=(-0.7, 0.7), gamma=(1 / 1.38, 1.38),
        k1=_exp_interval(0.1), k2=(-0.015, 0.015), v1=(-1.5e-3, 1.5e-3), v2=(-1.5e-3, 1.5e-3),
    ),
}


@dataclass(frozen=True)
class AugSample:
    template: ImageGrid
    search: ImageGrid
    b_true: np.ndarray
    h_true: np.ndarray
    seed: int


def sample_coeffs(ranges: ParamRanges, seed) -> np.ndarray:
    """Draw one coefficient vector; uniform per parameter-space component.

    ``seed`` may be anything ``numpy.random.default_rng`` accepts (an int
    or a tuple like ``(run_seed, index)``); identical seeds give identical
    draws.
    """
    lo, hi = ranges.bounds()
    x = np.random.default_rng(seed).uniform(lo, hi)
    return coeffs_from_params(x)


def make_pair(image: ImageGrid, b, crop: int | tuple[int, int], seed: int = 0) -> AugSample:
    """Template/search pair: center crops of the image and its warp.

    ``crop`` is the square side, or ``(template_side, search_side)`` for
    asymmetric tracking-style pairs.  Only the search crop is resampled,
    not the whole warped source; its bytes equal cropping the full warp.
    Raises :class:`MarginError` when the warped crop would sample beyond
    the source (naming the required size) or from behind the horizon of
    the transform, so in-range pairs never contain boundary zero-fill.
    """
    t_side, s_side = (crop, crop) if isinstance(crop, int) else (int(crop[0]), int(crop[1]))
    b = np.asarray(b, dtype=float)
    h = compose_homography(b)

    h_inv = np.linalg.inv(h)
    sources = apply_homography(h_inv, template_corners(s_side, s_side))
    # w is affine over the crop, so four corners in front keep all of it in front
    if not np.all(np.isfinite(sources)):
        raise MarginError("search crop crosses the horizon of the transform")
    # +1 pixel of bilinear footprint on the farthest sampled point
    need_w = 2 * int(np.ceil(np.abs(sources[:, 0]).max() + 1))
    need_h = 2 * int(np.ceil(np.abs(sources[:, 1]).max() + 1))
    if image.width < max(need_w, t_side) or image.height < max(need_h, t_side):
        raise MarginError(
            f"source image {image.width}x{image.height} too small; "
            f"need at least {max(need_w, t_side)}x{max(need_h, t_side)}"
        )

    template = center_crop(image, t_side)
    search = _warp_crop(image, h_inv, s_side, s_side)
    b = b.copy()
    b.setflags(write=False)
    h.setflags(write=False)
    return AugSample(template=template, search=search, b_true=b, h_true=h, seed=int(seed))


def mask_corners(image: ImageGrid, radius: float) -> ImageGrid:
    """Zero every pixel closer than ``radius`` to one of the corner pixels.

    Distances are measured on the pixel lattice with a strict inequality,
    so ``radius = 0`` leaves the image untouched.
    """
    if not radius >= 0:
        raise ValueError("radius must be non-negative")
    if radius == 0:
        return image
    h, w = image.height, image.width
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    near = np.zeros((h, w), dtype=bool)
    for cr, cc in ((0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)):
        near |= (rows - cr) ** 2 + (cols - cc) ** 2 < radius**2
    pixels = image.pixels.copy()
    pixels[near] = 0.0
    return ImageGrid._adopt(pixels)


def texture(size: int, seed, channels: int = 1, exponent: float = 1.8) -> ImageGrid:
    """Seeded random field with a power-law spectrum, spanning [0, 1].

    Multi-scale structure makes these useful probes for every warp: coarse
    blobs survive large rotations while fine grain pins down subpixel
    peaks.  Raises ``ValueError`` for ``size < 2``, which has no field to
    normalize.
    """
    if size < 2:
        raise ValueError(f"texture size must be at least 2, got {size}")
    rng = np.random.default_rng(seed)
    freq = np.fft.fftfreq(size)
    fx, fy = np.meshgrid(freq, freq)
    radius = np.hypot(fx, fy)
    with np.errstate(divide="ignore"):
        amplitude = np.where(radius > 0, radius**-exponent, 0.0)
    chans = []
    for _ in range(channels):
        phase = np.exp(2j * np.pi * rng.random((size, size)))
        field = np.fft.ifft2(amplitude * phase).real
        lo, hi = field.min(), field.max()
        chans.append((field - lo) / (hi - lo))
    return ImageGrid(np.stack(chans, axis=-1))


def generate_dataset(
    source_dir,
    ranges: ParamRanges,
    count: int,
    seed: int,
    out_dir,
    mask_radius: float = 0.0,
    crop: int | tuple[int, int] = 256,
    preset_name: str | None = None,
) -> dict:
    """Write ``count`` template/search pairs with JSON ground truth.

    ``crop`` is as for :func:`make_pair`.  Layout:
    ``out_dir/pairs/NNNN_{t,s}.pgm``, ``out_dir/gt/NNNN.json`` and
    ``out_dir/manifest.json``.  Sources rotate through the sorted raster
    files of ``source_dir``; unreadable or too-small sources produce a
    manifest warning and skip the sample.  Bit-identical across reruns
    with the same arguments.  Raises ``ValueError``, before writing, for
    a negative ``count`` or ``mask_radius`` or a crop side below 1.
    """
    source_dir = Path(source_dir)
    out_dir = Path(out_dir)
    sources = sorted(
        p for p in source_dir.iterdir()
        if p.is_file() and p.suffix.lower() in RASTER_SUFFIXES
    )
    if not sources:
        raise ValueError(f"no raster sources (*.pgm, *.ppm, *.pnm) in {source_dir}")
    if count < 0 or not mask_radius >= 0:
        raise ValueError(f"count and mask radius must be non-negative, got {count}, {mask_radius}")
    if min((crop, crop) if isinstance(crop, int) else crop) < 1:
        raise ValueError(f"crop sides must be at least 1, got {crop}")

    (out_dir / "pairs").mkdir(parents=True, exist_ok=True)
    (out_dir / "gt").mkdir(parents=True, exist_ok=True)

    samples: list[dict] = []
    warnings: list[str] = []
    for index in range(count):
        src = sources[index % len(sources)]
        try:
            image = load_image(src)
            b = sample_coeffs(ranges, (seed, index))
            pair = make_pair(image, b, crop, seed=index)
        except (ValueError, OSError) as exc:
            warnings.append(f"sample {index} ({src.name}): {exc}")
            continue
        template, search = pair.template, pair.search
        if mask_radius > 0:
            template = mask_corners(template, mask_radius)
            search = mask_corners(search, mask_radius)
        stem = f"{index:04d}"
        save_image(template, out_dir / "pairs" / f"{stem}_t.pgm")
        save_image(search, out_dir / "pairs" / f"{stem}_s.pgm")
        gt = {
            "b": [float(v) for v in pair.b_true],
            "h": [float(v) for v in pair.h_true.ravel()],
            "seed": index,
            "source": src.name,
            "crop": crop,
        }
        (out_dir / "gt" / f"{stem}.json").write_text(json.dumps(gt, indent=1))
        samples.append(
            {
                "index": index,
                "template": f"pairs/{stem}_t.pgm",
                "search": f"pairs/{stem}_s.pgm",
                "gt": f"gt/{stem}.json",
                "source": src.name,
            }
        )

    manifest = {
        "preset": preset_name,
        "ranges": asdict(ranges),
        "seed": seed,
        "mask_radius": mask_radius,
        "crop": crop,
        "count_requested": count,
        "count_emitted": len(samples),
        "samples": samples,
        "warnings": warnings,
        "tool_version": __version__,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest
