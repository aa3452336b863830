"""Command-line entry points.

Subcommands: ``compose``, ``decompose``, ``warp``, ``estimate``,
``gen-dataset``, ``benchmark``, ``sensitivity``.  Matrices travel as
row-major 9-element JSON arrays (``{"h": [...]}``) and coefficient vectors
as ``{"b": [...]}``.  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .benchmark import run_benchmark, write_curves_csv, write_report_json
from .cascade import CASCADE_ORDER, EstimatorConfig, Stage, estimate
from .raster import ImageGrid, load_image, save_image
from .sensitivity import DEFAULT_NUISANCE, DEFAULT_SPAN, warp_sensitivity, write_sensitivity_csv
from .sl3 import compose_homography, decompose_homography
from .synth import PRESETS, generate_dataset, texture
from .warps import COEFF_INDICES, WarpConfig, WarpKind, warp_image

__all__ = ["cli", "main"]
_STAGES_HELP = "free factors (default: all); translation and scale-rot are also captured by correlation"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # stock argparse only recognizes plain decimals as negative numbers;
    # matrix entries arrive in scientific notation too
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sl3warp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", help="print the homography of 8 coefficients")
    p.add_argument("--b", nargs=8, type=float, required=True, metavar="B")

    p = sub.add_parser("decompose", help="print the coefficients of a homography")
    p.add_argument("--h", nargs=9, type=float, required=True, metavar="H")

    p = sub.add_parser("warp", help="apply one subgroup warp to a raster file")
    p.add_argument("--kind", choices=[k.value for k in WarpKind], required=True)
    p.add_argument("--in", dest="input", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")

    p = sub.add_parser("estimate", help="estimate the homography of an image pair")
    p.add_argument("--template", required=True)
    p.add_argument("--search", required=True)
    p.add_argument("--stages", nargs="*", default=None,
                   choices=[s.value for s in CASCADE_ORDER], help=_STAGES_HELP)
    p.add_argument("--out", default=None, help="write the result JSON here")

    p = sub.add_parser("gen-dataset", help="synthesize a ground-truth dataset")
    p.add_argument("--source", required=True, help="directory of raster sources")
    p.add_argument("--preset", choices=sorted(PRESETS), default="middle")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask-radius", type=float, default=0.0)
    p.add_argument("--crop", type=int, nargs="+", default=[256], metavar="SIDE",
                   help="template side, or template and search sides")
    p.add_argument("--out", required=True)

    p = sub.add_parser("benchmark", help="run the estimator over a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--stages", nargs="*", default=None,
                   choices=[s.value for s in CASCADE_ORDER], help=_STAGES_HELP)
    p.add_argument("--report", required=True)
    p.add_argument("--curves-csv", default=None)

    p = sub.add_parser("sensitivity", help="peak-offset matrix for one warp")
    p.add_argument("--kind", choices=[k.value for k in WarpKind], required=True)
    p.add_argument("--out", required=True, metavar="CSV")
    p.add_argument("--points", type=int, default=5)
    p.add_argument("--nuisance", type=int, default=None,
                   help="1-based nuisance coefficient index (default: next subgroup)")
    p.add_argument("--probe-size", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _stages_from_names(names) -> tuple[Stage, ...]:
    if names is None:
        return CASCADE_ORDER
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise _UsageError(f"repeated stage {', '.join(repeated)} in {names}")
    return tuple(s for s in CASCADE_ORDER if s.value in names)


def _cmd_compose(args) -> int:
    h = compose_homography(np.array(args.b))
    print(json.dumps({"h": [float(v) for v in h.ravel()]}))
    return 0


def _cmd_decompose(args) -> int:
    b = decompose_homography(np.array(args.h).reshape(3, 3))
    print(json.dumps({"b": [float(v) for v in b]}))
    return 0


def _cmd_warp(args) -> int:
    image = load_image(args.input)
    grid = warp_image(image, WarpKind(args.kind), WarpConfig.for_width(image.width))
    if grid.channels not in (1, 3):
        # the four-quadrant warp is written channel-planes-stacked vertically
        grid = ImageGrid(grid.pixels.transpose(2, 0, 1).reshape(-1, grid.width))
    save_image(grid, args.out)
    return 0


def _cmd_estimate(args) -> int:
    template = load_image(args.template)
    search = load_image(args.search)
    config = EstimatorConfig(stages=_stages_from_names(args.stages))
    result = estimate(template, search, config)
    payload = json.dumps(result.to_dict(), indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    print(payload)
    return 0


def _cmd_gen_dataset(args) -> int:
    if len(args.crop) > 2 or min(args.crop) < 1:
        raise _UsageError("--crop takes one or two sides of at least 1")
    if args.count < 0 or not args.mask_radius >= 0:
        raise _UsageError("--count and --mask-radius must be non-negative")
    manifest = generate_dataset(
        args.source,
        PRESETS[args.preset],
        args.count,
        args.seed,
        args.out,
        mask_radius=args.mask_radius,
        crop=args.crop[0] if len(args.crop) == 1 else tuple(args.crop),
        preset_name=args.preset,
    )
    print(f"wrote {manifest['count_emitted']}/{manifest['count_requested']} samples to {args.out}")
    for warning in manifest["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_benchmark(args) -> int:
    report = run_benchmark(args.dataset, stages=_stages_from_names(args.stages))
    write_report_json(report, args.report)
    if args.curves_csv:
        write_curves_csv(report, args.curves_csv)
    print(
        f"samples={len(report.samples)} mace={report.mace:.3f} "
        f"median={report.median_corner_error:.3f} "
        f"avg_precision={report.average_precision:.4f}"
    )
    return 0


def _cmd_sensitivity(args) -> int:
    kind = WarpKind(args.kind)
    primary = COEFF_INDICES[kind][0]
    nuisance = args.nuisance - 1 if args.nuisance is not None else DEFAULT_NUISANCE[kind]
    if not 0 <= nuisance <= 7:
        raise _UsageError("nuisance coefficient index must be in 1..8")
    if args.points < 1:
        raise _UsageError("--points must be at least 1")
    if args.probe_size < 2:
        raise _UsageError("--probe-size must be at least 2")
    span_p = DEFAULT_SPAN[primary]
    span_n = DEFAULT_SPAN[nuisance]
    probe = texture(args.probe_size, seed=args.seed)
    result = warp_sensitivity(
        kind,
        np.linspace(-span_p, span_p, args.points),
        np.linspace(-span_n, span_n, args.points),
        probe,
        nuisance_coeff=nuisance,
    )
    write_sensitivity_csv(result, args.out)
    print(f"wrote {args.points}x{args.points} offset matrix to {args.out}")
    return 0


_HANDLERS = {
    "compose": _cmd_compose,
    "decompose": _cmd_decompose,
    "warp": _cmd_warp,
    "estimate": _cmd_estimate,
    "gen-dataset": _cmd_gen_dataset,
    "benchmark": _cmd_benchmark,
    "sensitivity": _cmd_sensitivity,
}


def cli(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
