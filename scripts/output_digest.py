#!/usr/bin/env python3
"""One SHA-256 per output family, to check that a change keeps every bit.

The inputs are the benchmark ``estimate`` workload's cases for each seed:
sources ``texture(832, seed=700 + i % 8)``, coefficients
``sample_coeffs(PRESETS["middle"], (seed, i))``, ``make_pair(..., 256,
seed=i)`` for ``i < 16``, each pair plain and with a radius-60 corner mask,
and the warp configuration the CLI builds for 256-pixel inputs.  Families:

* ``estimate``: every plain case's ``to_dict()`` as JSON plus the
  ``b_hat`` bytes, and ``estimate.masked`` the same of every masked case,
  kept apart so that a change to how masked pixels are read does not hide
  whether the plain pairs kept every bit;
* ``estimate.wide`` and ``estimate.wide.masked``: the same on 16 pairs per
  seed from ``PRESETS["wide"]``, sampled with the same seeds, sources and
  crops;
* ``refine``: ``refine`` with every coefficient free from two start stacks
  per case: a perturbed truth, the identity, a start whose horizon crosses
  the template (``b7 = 0.2``) and one whose isotropic scale ``gamma =
  exp(b4)`` leaves the float range (``b4 = 800``); then the last two
  alone, so the first start is unusable;
* ``residual_jacobian``: ``r``, the valid mask and ``J`` at the true and at
  the estimated coefficients, all eight free, and at the true coefficients
  on a ``(128, 256)`` pair of every other case, both ways round;
* ``phase_correlate``: ``mu`` and the confidence of two-channel (plain and
  masked) template against search, plain and band-limited;
* ``phase_correlate.aspect``: the same of the template's and the search's
  four-channel aspect warps, kept apart so that a change to the warp does
  not hide whether the correlator kept every bit;
* ``warp_image.<kind>``: every template and search, one channel and the
  three-channel stack (template, search, masked template);
* ``warp_by_homography``: each search through the true inverse and each
  template through a perturbed true homography, which sends part of some
  rasters behind the camera;
* ``make_pair``: template and search pixels, ``b_true`` and ``h_true``;
* ``generate_dataset``: every file written from two 8-bit and one 16-bit
  source, plain, corner-masked and with 128/256 crops.

Run it from a checkout with that checkout's ``src`` first on the path, once
per version, and compare the lines:

    PYTHONPATH=src python scripts/output_digest.py --seeds 5 13
"""

import argparse
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from sl3warp import cascade, correlate, raster, refine, synth, warps
from sl3warp.sl3 import compose_homography

SOURCE_SIZE = 832
CROP = 256
PAIRS = 16
MASK_RADIUS = 60
CONFIG = cascade.EstimatorConfig(warp=warps.WarpConfig(n=CROP))
# refine starts: a nudge off the truth, a horizon through the template, a
# rotation-scale factor whose gamma = exp(b4) is past the float range
NUDGE = np.array([2.0, -1.5, 0.02, 0.01, 0.01, -0.01, 0.0, 0.0])
BEYOND_HORIZON = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 0.0])
OUT_OF_RANGE = np.array([0.0, 0.0, 0.0, 800.0, 0.0, 0.0, 0.0, 0.0])


def _bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def _cases(seed, sources, ranges=synth.PRESETS["middle"]):
    """``(pair, template, search)`` for every plain and masked case."""
    for i in range(PAIRS):
        b = synth.sample_coeffs(ranges, (seed, i))
        pair = synth.make_pair(sources[i % len(sources)], b, CROP, seed=i)
        yield pair, pair.template, pair.search
        yield (pair, synth.mask_corners(pair.template, MASK_RADIUS),
               synth.mask_corners(pair.search, MASK_RADIUS))


def _dataset_bytes(seed, sources):
    """The files ``generate_dataset`` writes, in sorted path order."""
    out = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "sources"
        src.mkdir()
        raster.save_image(sources[0], src / "a.pgm")
        raster.save_image(sources[1], src / "b.pgm")
        raster.save_image(sources[2], src / "c.pgm", bit_depth=16)
        runs = {"plain": {}, "masked": {"mask_radius": float(MASK_RADIUS)},
                "cropped": {"crop": (128, CROP)}}
        for name, kwargs in runs.items():
            kwargs.setdefault("crop", CROP)
            synth.generate_dataset(src, synth.PRESETS["middle"], 6, seed, Path(tmp) / name,
                                   **kwargs)
        for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
            out.update(str(path.relative_to(tmp)).encode() + b"\0" + path.read_bytes())
    return out.digest()


def digests(seeds) -> dict[str, str]:
    families = ["estimate", "estimate.masked", "estimate.wide", "estimate.wide.masked", "refine",
                "residual_jacobian", "phase_correlate", "phase_correlate.aspect",
                "warp_by_homography", "make_pair",
                "generate_dataset"] + [f"warp_image.{k.value}" for k in warps.WarpKind]
    hashes = {name: hashlib.sha256() for name in families}
    sources = [synth.texture(SOURCE_SIZE, seed=700 + i) for i in range(8)]
    perturb = np.array([0.0, 0.0, 0.05, 0.0, 0.0, 0.0, 2e-3, -2e-3])
    for seed in seeds:
        for k, (pair, template, search) in enumerate(_cases(seed, sources)):
            if k % 2 == 0:
                hashes["make_pair"].update(_bytes(template.pixels, search.pixels,
                                                  pair.b_true, pair.h_true))
                small = synth.make_pair(sources[k // 2 % len(sources)], pair.b_true,
                                        (CROP // 2, CROP), seed=k // 2)
                for images in ((small.template, small.search), (small.search, small.template)):
                    hashes["residual_jacobian"].update(
                        _bytes(*refine.residual_jacobian(*images, pair.b_true, range(8))))
            result = cascade.estimate(template, search, CONFIG)
            hashes["estimate" + ".masked" * (k % 2)].update(
                json.dumps(result.to_dict()).encode() + _bytes(result.b_hat))
            for starts in ([pair.b_true + NUDGE, np.zeros(8), BEYOND_HORIZON, OUT_OF_RANGE],
                           [OUT_OF_RANGE, BEYOND_HORIZON]):
                hashes["refine"].update(_bytes(refine.refine(template, search, starts, range(8))))
            for b in (pair.b_true, result.b_hat):
                hashes["residual_jacobian"].update(
                    _bytes(*refine.residual_jacobian(template, search, b, range(8))))
            hashes["warp_by_homography"].update(_bytes(
                raster.warp_by_homography(search, np.linalg.inv(pair.h_true)).pixels,
                raster.warp_by_homography(
                    template, compose_homography(pair.b_true + perturb)).pixels,
            ))
            stack = raster.ImageGrid(np.concatenate(
                [template.pixels, search.pixels,
                 synth.mask_corners(template, MASK_RADIUS).pixels], axis=2))
            for kind in warps.WarpKind:
                hashes[f"warp_image.{kind.value}"].update(_bytes(*(
                    warps.warp_image(image, kind, CONFIG.warp).pixels
                    for image in (template, search, stack))))
            aspect = warps.WarpKind.ASPECT_RATIO
            correlated = {
                "phase_correlate": [raster.ImageGrid(np.concatenate(
                    [image.pixels, synth.mask_corners(image, MASK_RADIUS).pixels], axis=2))
                    for image in (template, search)],
                "phase_correlate.aspect": [warps.warp_image(image, aspect, CONFIG.warp)
                                           for image in (template, search)],
            }
            for family, (a, b) in correlated.items():
                for band_limit in (None, 0.05):
                    mu, conf = correlate.phase_correlate(a, b, band_limit=band_limit)
                    hashes[family].update(_bytes(mu, np.float64(conf)))
        for k, (_, template, search) in enumerate(_cases(seed, sources, synth.PRESETS["wide"])):
            result = cascade.estimate(template, search, CONFIG)
            hashes["estimate.wide" + ".masked" * (k % 2)].update(
                json.dumps(result.to_dict()).encode() + _bytes(result.b_hat))
        hashes["generate_dataset"].update(_dataset_bytes(seed, sources))
    return {name: h.hexdigest() for name, h in hashes.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[5])
    args = parser.parse_args()
    for name, digest in digests(args.seeds).items():
        print(f"{name:24s} {digest}")


if __name__ == "__main__":
    main()
