"""Benchmark harness: run the estimator over a generated dataset.

Loads the dataset manifest, estimates every pair, scores corner errors
against the stored ground truth, and assembles a recomputable report: all
per-sample records are persisted so every aggregate can be re-derived.
Samples are evaluated concurrently, one thread per CPU the process may
use (estimation is pure and spends most of its time in NumPy, which
releases the interpreter lock), and reduced in index order, so reports
are deterministic.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import CASCADE_ORDER, EstimatorConfig, estimate
from .metrics import alignment_error, precision_and_success, template_corners
from .raster import load_image
from .warps import WarpConfig

__all__ = ["SampleRecord", "BenchmarkReport", "run_benchmark",
           "write_report_json", "write_curves_csv"]


@dataclass(frozen=True)
class SampleRecord:
    index: int
    corner_error: float
    confidence: float
    runtime_ms: float  # CPU time of the estimate, in its own thread
    b_hat: tuple[float, ...]
    b_true: tuple[float, ...]


@dataclass(frozen=True)
class BenchmarkReport:
    dataset: str
    corner_convention: str
    config: dict
    samples: tuple[SampleRecord, ...]
    mace: float
    median_corner_error: float
    infinite_errors: int
    precision_curve: tuple[tuple[float, float], ...]
    average_precision: float
    runtime_ms_mean: float
    runtime_ms_total: float

    def to_dict(self) -> dict:
        return {**asdict(self), "tool_version": __version__}


def _config_dict(config: EstimatorConfig) -> dict:
    return {"stages": [s.value for s in config.stages], "warp_n": config.warp.n}


def _evaluate_one(dataset_dir: Path, rec: dict, config: EstimatorConfig, corners):
    template = load_image(dataset_dir / rec["template"])
    search = load_image(dataset_dir / rec["search"])
    gt = json.loads((dataset_dir / rec["gt"]).read_text())
    h_true = np.array(gt["h"], dtype=float).reshape(3, 3)
    start = time.thread_time()
    result = estimate(template, search, config)
    elapsed_ms = (time.thread_time() - start) * 1000.0
    return SampleRecord(
        index=int(rec["index"]),
        corner_error=float(alignment_error(result.h_hat, h_true, corners)),
        confidence=float(result.confidence),
        runtime_ms=elapsed_ms,
        b_hat=tuple(float(v) for v in result.b_hat),
        b_true=tuple(float(v) for v in gt["b"]),
    )


def run_benchmark(dataset_dir, stages=None) -> BenchmarkReport:
    """Estimate every pair in ``dataset_dir`` and aggregate the metrics.

    The estimator's warp is the largest even one that fits the dataset's
    crop, and ``stages`` selects the free factors.  Corner errors are
    measured at the four corners of the template crop in center-origin
    coordinates; the precision curve runs over ``DEFAULT_THRESHOLDS`` and is
    also the success curve (see :mod:`sl3warp.metrics`).
    """
    dataset_dir = Path(dataset_dir)
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    crop = manifest.get("crop", 256)
    crop = crop if isinstance(crop, int) else int(crop[0])  # (template, search) sides
    config = EstimatorConfig(
        warp=WarpConfig.for_width(crop),
        stages=tuple(stages) if stages is not None else CASCADE_ORDER,
    )
    corners = template_corners(crop, crop)
    corner_note = f"template crop corners at (+-{crop / 2}, +-{crop / 2}), center-origin"

    # one worker per CPU the process may use, where the OS reports that
    workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_evaluate_one, dataset_dir, rec, config, corners)
            for rec in manifest["samples"]
        ]
        records = [f.result() for f in futures]
    records.sort(key=lambda r: r.index)

    errors = np.array([r.corner_error for r in records]) if records else np.array([])
    finite = errors[np.isfinite(errors)] if errors.size else errors
    curves = precision_and_success(errors) if errors.size else None
    return BenchmarkReport(
        dataset=str(dataset_dir),
        corner_convention=corner_note,
        config=_config_dict(config),
        samples=tuple(records),
        mace=float(np.mean(finite)) if finite.size else float("nan"),
        median_corner_error=float(np.median(finite)) if finite.size else float("nan"),
        infinite_errors=int(errors.size - finite.size),
        precision_curve=curves.precision if curves else (),
        average_precision=curves.average_precision if curves else float("nan"),
        runtime_ms_mean=float(np.mean([r.runtime_ms for r in records])) if records else 0.0,
        runtime_ms_total=float(np.sum([r.runtime_ms for r in records])) if records else 0.0,
    )


def write_report_json(report: BenchmarkReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=1))


def write_curves_csv(report: BenchmarkReport, path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold_px", "precision"])
        writer.writerows(report.precision_curve)
