#!/usr/bin/env python3
"""Peak-offset sensitivity matrices for all five warps, one CSV each.

For every warp this sweeps its primary coefficient against a nuisance
coefficient and records how far the measured correlation peak moves,
next to the analytic pseudo-translation.  The nuisance-free column should
match the analytic values; the spread along the nuisance axis is the
interference the cascade inherits.

Example:
    python scripts/run_sensitivity.py --out results/sensitivity --points 7
"""

import argparse
from pathlib import Path

import numpy as np

from sl3warp.sensitivity import (
    DEFAULT_NUISANCE,
    DEFAULT_SPAN,
    warp_sensitivity,
    write_sensitivity_csv,
)
from sl3warp.synth import texture
from sl3warp.warps import COEFF_INDICES, WarpKind


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--points", type=int, default=7, help="odd number of points per axis")
    parser.add_argument("--probe-size", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.points < 1 or args.points % 2 == 0:
        # the identity-nuisance gap reads the middle column, which only an
        # odd count puts at zero
        parser.error(f"--points must be a positive odd number, got {args.points}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    probe = texture(args.probe_size, seed=args.seed)
    for kind in WarpKind:
        span_p = DEFAULT_SPAN[COEFF_INDICES[kind][0]]
        span_n = DEFAULT_SPAN[DEFAULT_NUISANCE[kind]]
        result = warp_sensitivity(
            kind,
            np.linspace(-span_p, span_p, args.points),
            np.linspace(-span_n, span_n, args.points),
            probe,
        )
        path = out / f"sensitivity_{kind.value}.csv"
        write_sensitivity_csv(result, path)
        gap = np.linalg.norm(result.offsets[:, args.points // 2, :] - result.predicted, axis=1)
        print(f"{kind.value:10s} -> {path}  (identity-nuisance max gap {gap.max():.2f}px)")


if __name__ == "__main__":
    main()
