#!/usr/bin/env python3
"""Corner errors of ``estimate`` on the hard sets, one line per set.

Pairs follow acceptance criterion 5's recipe: sources ``texture(832,
seed=700 + i % 8)``, coefficients ``sample_coeffs(PRESETS[preset], (seed,
i))`` and ``make_pair(..., crop, seed=i)``; a masked set applies a
radius-60 ``mask_corners`` to both images.  ``estimate`` runs with the
warp that fits the template.  The sets are:

* ``middle``, ``large`` and ``pot``, 48 pairs each, 256 crops, plain and
  masked;
* ``wide``, 32 pairs, 256 crops;
* ``large`` and ``pot`` on 128 crops, 16 pairs each.

Each line gives the set, the median corner error in pixels, the count of
pairs over 5 px and the indices of those pairs:

    PYTHONPATH=src python scripts/hard_sets.py 5

On seeds 5 and 13 the script exits with status 1 when a set's count over
5 px is above its reference count for that seed, the count at the last
change that moved it.  References may only go down.
"""

import argparse
import sys

import numpy as np

from sl3warp import cascade, metrics, synth

SOURCE_SIZE = 832
MASK_RADIUS = 60
FAIL_PX = 5.0
# name, preset, pairs, crop, masked, reference count over FAIL_PX per seed
SETS = [
    ("middle", "middle", 48, 256, False, {5: 0, 13: 0}),
    ("middle.masked", "middle", 48, 256, True, {5: 0, 13: 0}),
    ("large", "large", 48, 256, False, {5: 0, 13: 1}),
    ("large.masked", "large", 48, 256, True, {5: 0, 13: 0}),
    ("pot", "pot", 48, 256, False, {5: 0, 13: 0}),
    ("pot.masked", "pot", 48, 256, True, {5: 0, 13: 0}),
    ("wide", "wide", 32, 256, False, {5: 3, 13: 5}),
    ("large.128", "large", 16, 128, False, {5: 2, 13: 2}),
    ("pot.128", "pot", 16, 128, False, {5: 2, 13: 1}),
]


def corner_errors(seed, sources, preset, pairs, crop, masked) -> np.ndarray:
    corners = metrics.template_corners(crop, crop)
    errors = []
    for i in range(pairs):
        b = synth.sample_coeffs(synth.PRESETS[preset], (seed, i))
        pair = synth.make_pair(sources[i % len(sources)], b, crop, seed=i)
        template, search = pair.template, pair.search
        if masked:
            template, search = (synth.mask_corners(image, MASK_RADIUS)
                                for image in (template, search))
        result = cascade.estimate(template, search)
        errors.append(metrics.alignment_error(result.h_hat, pair.h_true, corners))
    return np.array(errors)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seed", type=int, nargs="?", default=5)
    args = parser.parse_args()
    sources = [synth.texture(SOURCE_SIZE, seed=700 + i) for i in range(8)]
    regressed = []
    for name, preset, pairs, crop, masked, references in SETS:
        errors = corner_errors(args.seed, sources, preset, pairs, crop, masked)
        failing = np.flatnonzero(~(errors <= FAIL_PX)).tolist()
        print(f"{name:14s} median {np.median(errors):8.4f} px  "
              f"over {FAIL_PX:g} px {len(failing):2d}/{pairs}  {failing}")
        if args.seed in references and len(failing) > references[args.seed]:
            regressed.append(f"{name} {len(failing)}/{pairs} > {references[args.seed]}")
    if regressed:
        sys.exit("over the reference count: " + ", ".join(regressed))


if __name__ == "__main__":
    main()
