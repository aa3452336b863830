#!/usr/bin/env python3
"""How far a change moves ``estimate``'s outputs, family by family.

Runs the ``estimate`` cases of ``scripts/output_digest.py`` (16 ``middle``
and 16 ``wide`` pairs per seed, plain and masked, seeds 5 and 13) under
each checkout's own ``src``, each in a process of its own, and prints per
family the number of cases whose ``b_hat`` changed, the largest change of
a ``b_hat`` entry and the largest change of the corner error in pixels:

    python scripts/estimate_delta.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are the roots of two checkouts.  The cases are
those of the ``output_digest.py`` next to this script.
"""

import argparse
import io
import subprocess
import sys
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent
SEEDS = (5, 13)
FAMILIES = ("estimate", "estimate.masked", "estimate.wide", "estimate.wide.masked")
# a fresh interpreter with a checkout's ``src``, then this directory, first on the path
CHILD = "import sys; sys.path[:0] = sys.argv[1:]; import estimate_delta; estimate_delta.dump()"


def dump():
    """Write one ``.npy`` array to stdout: per family and case, ``b_hat``
    and the corner error, from the ``sl3warp`` first on the path."""
    import output_digest
    import sl3warp
    from sl3warp import cascade, metrics, synth

    if not Path(sl3warp.__file__).resolve().is_relative_to(Path(sys.path[0]).resolve()):
        sys.exit(f"sl3warp imported from {sl3warp.__file__}, not from {sys.path[0]}")
    corners = metrics.template_corners(output_digest.CROP, output_digest.CROP)
    sources = [synth.texture(output_digest.SOURCE_SIZE, seed=700 + i) for i in range(8)]
    rows = {name: [] for name in FAMILIES}
    for seed in SEEDS:
        for preset, family in (("middle", "estimate"), ("wide", "estimate.wide")):
            cases = output_digest._cases(seed, sources, synth.PRESETS[preset])
            for k, (pair, template, search) in enumerate(cases):
                result = cascade.estimate(template, search, output_digest.CONFIG)
                error = metrics.alignment_error(result.h_hat, pair.h_true, corners)
                rows[family + ".masked" * (k % 2)].append([*result.b_hat, error])
    np.save(sys.stdout.buffer, np.array([rows[name] for name in FAMILIES]))


def outputs(checkout: Path) -> np.ndarray:
    """:func:`dump`'s array for one checkout."""
    run = subprocess.run([sys.executable, "-c", CHILD, str(checkout / "src"), str(SCRIPTS)],
                         capture_output=True, check=True)
    return np.load(io.BytesIO(run.stdout))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    before, after = outputs(args.parent), outputs(args.change)
    print(f"{'family':22s} {'changed':>9s} {'max |d b_hat|':>14s} {'max |d error| px':>17s}")
    for name, b, a in zip(FAMILIES, before, after):
        with np.errstate(invalid="ignore"):  # equal infinite errors are no change
            delta = np.where(a == b, 0.0, np.abs(a - b))
        changed = int(np.any(delta[:, :8] != 0.0, axis=1).sum())
        print(f"{name:22s} {changed:4d}/{len(a):<4d} {delta[:, :8].max():14.2e} "
              f"{delta[:, 8].max():17.2e}")


if __name__ == "__main__":
    main()
