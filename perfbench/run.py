#!/usr/bin/env python3
"""sl3warp benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {estimate,dataset,cli-cold} \\
        --seed N --seconds S --trace {0,1}

Each run sets up its seeded inputs, runs a closed loop with one caller for
``--seconds`` of timed work (and at least one pass over its inputs), checks
every output, and prints the metrics with their units.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, which holds the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``.  The traced run also writes its
spans to ``perfbench/out/``.  See ``perfbench/NOTES.md``.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy is imported; child
# processes inherit the setting.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from probe import REFERENCE_MS, SPAWN_REFERENCE_MS, Probe  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
# Stop a run that has not finished by then, so it ends inside 180 s.
DEADLINE_S = 150.0

END_TO_END_UNITS = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("estimate", "dataset", "cli-cold"))
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def per_layer_units(stages, kinds) -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    units = {"cascade.estimate.ms": "ms", "cascade.estimate.self_ms": "ms"}
    for stage in stages:
        units[f"cascade.estimate_stage.{stage}.ms"] = "ms"
        units[f"cascade.estimate_stage.{stage}.self_ms"] = "ms"
    units.update({"cascade.rectify.ms": "ms", "cascade.rectify.self_ms": "ms",
                  "cascade.rectify.calls": "count"})
    for stage in stages:
        units[f"cascade.{stage}.phase_correlate_calls_per_pair"] = "count"
    for kind in kinds:
        units[f"warps.warp_image.{kind}.ms"] = "ms"
        units[f"warps.warp_image.{kind}.self_ms"] = "ms"
    units["warps.warp_image.calls"] = "count"
    for variant in ("banded", "plain"):
        units[f"correlate.phase_correlate.{variant}.ms"] = "ms"
        units[f"correlate.phase_correlate.{variant}.calls"] = "count"
    for width in ("256", "832"):
        units[f"raster.warp_by_homography.{width}.ms"] = "ms"
        units[f"raster.warp_by_homography.{width}.self_ms"] = "ms"
    units.update({
        "raster.bilinear_sample.ms": "ms",
        "raster.bilinear_sample.points": "points",
        "raster.load_image.ms": "ms",
        "raster.load_image.bytes": "bytes",
        "raster.save_image.ms": "ms",
        "raster.save_image.bytes": "bytes",
        "synth.make_pair.ms": "ms",
        "synth.make_pair.self_ms": "ms",
        "synth.mask_corners.ms": "ms",
        "synth.texture.ms": "ms",
        "sl3.compose_homography.calls": "count",
        "metrics.alignment_error.calls": "count",
        "cli.import_ms": "ms",
        "cli.load_ms": "ms",
        "cli.first_estimate_ms": "ms",
        "accuracy.median_corner_error_px": "px",
        "accuracy.masked_median_corner_error_px": "px",
        "accuracy.masked_degradation_px": "px",
        "accuracy.under_5px_share": "share",
        "trace.overhead_ms": "ms",
        "host.probe_ms": "ms",
        "host.spawn_probe_ms": "ms",
    })
    return units


class Loop:
    """Latencies of a closed loop: wall seconds and probe-scaled seconds."""

    def __init__(self):
        self.wall, self.scaled, self.failed, self.complete = [], [], 0, True
        self.probes = []  # probe ms (compute, spawn) before the first operation and after each

    def __len__(self):
        return len(self.wall)


def closed_loop(workload, tracer, seconds, deadline) -> Loop:
    """Run operations 0, 1, ... until ``seconds`` of timed work and one pass.

    The host-speed probes run before every operation and after the last;
    each operation's wall time is scaled by the probes on either side.
    ``complete`` is false if the loop stopped at ``deadline``.
    """
    loop, busy, probe = Loop(), 0.0, Probe(workload.spawns)
    before = probe()
    loop.probes.append(before)
    while len(loop) < workload.pass_length or busy < seconds:
        if time.perf_counter() > deadline:
            loop.complete = False
            break
        tracer.op = len(loop)
        elapsed, computing, ok = workload.op(len(loop), tracer)
        tracer.op = None
        after = probe()
        loop.probes.append(after)
        loop.wall.append(elapsed)
        loop.scaled.append(probe.scaled(elapsed, computing, before, after))
        before = after
        busy += elapsed
        loop.failed += not ok
    return loop


def timed_setup(workload) -> tuple[float, float]:
    """Wall and probe-scaled seconds of one ``workload.setup()``; the time it
    waits for child processes is scaled by the process-start probe."""
    probe = Probe(workload.spawns)
    before = probe()
    start = time.perf_counter()
    in_children = workload.setup()
    elapsed = time.perf_counter() - start
    return elapsed, probe.scaled(elapsed, elapsed - in_children, before, probe())


def tail_percentile(n: int) -> int:
    """Highest multiple of 5 percent with at least ten of ``n`` samples beyond it."""
    for q in range(95, 50, -5):
        if n * (100 - q) >= 1000:
            return q
    return 50


def timing(latencies):
    ms = np.asarray(latencies) * 1e3
    q = tail_percentile(len(ms))
    return {
        "op_ms_p50": float(np.median(ms)),
        "op_ms_tail": float(np.percentile(ms, q)),
        "ops_per_s": len(ms) / float(np.sum(latencies)),
    }, q


def layer_values(tracer, units, extras, pass_length) -> dict[str, float]:
    """Per-layer metrics from the spans of the first pass of the traced loop.

    ``.ms`` and ``.self_ms`` are means per call over every traced call, the
    set-up's included; ``.calls``, ``.points`` and ``.bytes`` are per
    operation over the first pass, so they repeat exactly for a seed.
    """
    first_pass = range(pass_length)
    summary = tracer.summary(first_pass)

    def rows(prefix):
        return [row for name, row in summary.items()
                if name == prefix or name.startswith(prefix + ".")]

    values = {}
    for metric in units:
        prefix, _, suffix = metric.rpartition(".")
        if metric in extras:
            values[metric] = extras[metric]
        elif suffix in ("ms", "self_ms"):
            row = summary.get(prefix)
            values[metric] = row[suffix] if row else 0.0
        elif suffix == "calls":
            values[metric] = sum(r["op_calls"] for r in rows(prefix)) / len(first_pass)
        elif suffix in ("points", "bytes"):
            values[metric] = sum(r["op_counts"][suffix] for r in rows(prefix)) / len(first_pass)
        elif suffix == "phase_correlate_calls_per_pair":
            stage = prefix.split(".", 1)[1]
            estimates = sum(r["op_calls"] for r in rows("cascade.estimate"))
            calls = tracer.calls_under("correlate.phase_correlate",
                                       f"cascade.estimate_stage.{stage}", first_pass)
            values[metric] = calls / estimates if estimates else 0.0
        else:
            values[metric] = 0.0
    return values


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_revision": git_revision(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args, tmp, deadline):
    from workloads import KINDS, STAGES, WORKLOADS, install_wrappers

    workload = WORKLOADS[args.workload](args.seed, tmp)
    tracer = Tracer()
    report = {"env": environment(args), "why": workload.why, "op": workload.op_label}
    print(f"sl3warp benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {workload.why}")
    print(f"env: {json.dumps(report['env'])}")

    if not args.trace:
        setups = [timed_setup(workload) for _ in range(SETUP_REPEATS)]
        loop = closed_loop(workload, tracer, args.seconds, deadline)
        values, q = timing(loop.scaled)
        values["setup_s"] = float(np.median([s for _, s in setups]))
        values["peak_rss_mb"] = resource.getrusage(workload.rusage).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
        wall, _ = timing(loop.wall)
        notes = {
            "op_ms_p50": f"median of {len(loop)} operations; wall {wall['op_ms_p50']:.3f} ms",
            "op_ms_tail": f"p{q} of {len(loop)} operations; wall {wall['op_ms_tail']:.3f} ms",
            "ops_per_s": f"wall {wall['ops_per_s']:.4f} 1/s",
            "setup_s": (f"median of {SETUP_REPEATS} set-ups; "
                        f"wall {float(np.median([w for w, _ in setups])):.4f} s"),
        }
        report["setup_s_each"] = {"wall": [w for w, _ in setups], "scaled": [s for _, s in setups]}
        loops = [loop]
    else:
        workload.setup()
        plain = closed_loop(workload, tracer, args.seconds / 2, deadline)
        install_wrappers(tracer)
        try:
            workload.setup()
            loop = closed_loop(workload, tracer, args.seconds / 2, deadline)
        finally:
            tracer.uninstall()
        untraced, _ = timing(plain.scaled)
        traced, q = timing(loop.scaled)
        extras = workload.layer_extras()
        extras["trace.overhead_ms"] = traced["op_ms_p50"] - untraced["op_ms_p50"]
        probes = np.array(plain.probes + loop.probes)
        extras["host.probe_ms"] = float(np.median(probes[:, 0]))
        extras["host.spawn_probe_ms"] = float(np.median(probes[:, 1]))
        units = per_layer_units(STAGES, KINDS)
        values = layer_values(tracer, units, extras, workload.pass_length)
        notes = {"trace.overhead_ms": (
            f"traced p50 {traced['op_ms_p50']:.3f} ms ({len(loop)} operations) minus "
            f"untraced p50 {untraced['op_ms_p50']:.3f} ms ({len(plain)} operations), "
            "both probe-scaled")}
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
        loops = [plain, loop]

    latencies = [t for lp in loops for t in lp.wall]
    failed = sum(lp.failed for lp in loops)
    complete = all(lp.complete for lp in loops)
    attempted = len(latencies)
    probes = np.array([p for lp in loops for p in lp.probes])
    report["probe_ms_median"] = float(np.median(probes[:, 0]))
    report["spawn_probe_ms_median"] = float(np.median(probes[:, 1]))
    print(f"{'host probe':<50} {report['probe_ms_median']:>14.4f} ms  "
          f"(median; times are scaled to {REFERENCE_MS:g} ms)")
    if workload.spawns:
        print(f"{'host process-start probe':<50} {report['spawn_probe_ms_median']:>14.4f} ms  "
              f"(median; times are scaled to {SPAWN_REFERENCE_MS:g} ms)")
    correct = complete and failed == 0
    for name, alias in workload.aliases.items():
        notes[name] = f"{alias}; {notes[name]}" if name in notes else alias
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<50} {value:>14.4f} {units[name]}{note}")
    print(f"{'failed_share':<50} {failed / max(attempted, 1):>14.4f} share  "
          f"({notes['failed_share']}; {failed} of {attempted} {workload.op_label} failed)")
    if not args.trace:
        report["accuracy"] = {name: value for name, value in workload.layer_extras().items()
                              if name.startswith("accuracy.")}
        for name, value in report["accuracy"].items():
            print(f"{name:<50} {value:>14.4f}  (first pass; also a per-layer metric)")
    if not complete:
        print(f"stopped at the {DEADLINE_S:g} s deadline before finishing the loop",
              file=sys.stderr)

    report.update({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
        "notes": notes,
        "latencies_ms": [round(t * 1e3, 4) for t in latencies],
        "scaled_latencies_ms": [round(t * 1e3, 4) for lp in loops for t in lp.scaled],
    })
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1))
    print(f"full record: {result_path.relative_to(ROOT)}")
    return {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    deadline = time.perf_counter() + DEADLINE_S
    args = parse_args(argv)
    if not (SRC / "sl3warp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import sl3warp

    if Path(sl3warp.__file__).resolve().parent != SRC / "sl3warp":
        print(f"error: imported sl3warp from {sl3warp.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT))
    try:
        result = run(args, tmp, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
