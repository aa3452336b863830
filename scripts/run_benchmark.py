#!/usr/bin/env python3
"""End-to-end benchmark: synthesize a dataset, estimate every pair, report.

Runs the texture -> gen-dataset -> benchmark pipeline in one go and prints
the headline numbers, optionally comparing a corner-masked variant of the
same pairs (the occlusion-robustness experiment).

Example:
    python scripts/run_benchmark.py --workdir /tmp/bench --count 50 --masked
"""

import argparse
import json
from pathlib import Path

from sl3warp.benchmark import run_benchmark, write_curves_csv, write_report_json
from sl3warp.raster import save_image
from sl3warp.synth import PRESETS, generate_dataset, texture


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--preset", choices=sorted(PRESETS), default="middle")
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--crop", type=int, default=256)
    parser.add_argument("--sources", type=int, default=8)
    parser.add_argument("--source-size", type=int, default=832)
    parser.add_argument("--masked", action="store_true",
                        help="also run the radius-60 corner-mask variant")
    args = parser.parse_args()

    work = Path(args.workdir)
    src = work / "sources"
    src.mkdir(parents=True, exist_ok=True)
    for i in range(args.sources):
        save_image(texture(args.source_size, seed=(args.seed, i)), src / f"tex_{i:03d}.pgm")

    variants = [("plain", 0.0)] + ([("masked", 60.0)] if args.masked else [])
    results = {}
    for name, radius in variants:
        data = work / f"dataset_{name}"
        generate_dataset(
            src, PRESETS[args.preset], args.count, args.seed, data,
            mask_radius=radius, crop=args.crop, preset_name=args.preset,
        )
        report = run_benchmark(data)
        write_report_json(report, work / f"report_{name}.json")
        write_curves_csv(report, work / f"curves_{name}.csv")
        results[name] = report
        print(
            f"[{name}] samples={len(report.samples)} mace={report.mace:.2f}px "
            f"median={report.median_corner_error:.2f}px "
            f"avg_precision={report.average_precision:.4f} "
            f"runtime={report.runtime_ms_mean:.0f}ms/pair"
        )
    if args.masked:
        delta = results["masked"].median_corner_error - results["plain"].median_corner_error
        print(f"corner-mask degradation of the median: {delta:+.2f}px")
    print(f"reports in {work}")


if __name__ == "__main__":
    main()
