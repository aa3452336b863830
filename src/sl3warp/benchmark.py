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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import CASCADE_ORDER, EstimatorConfig, estimate
from .metrics import DEFAULT_THRESHOLDS, alignment_error, precision_and_success, template_corners
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
    thresholds: tuple[float, ...]
    precision_curve: tuple[tuple[float, float], ...]
    success_curve: tuple[tuple[float, float], ...]
    average_precision: float
    average_success: float
    runtime_ms_mean: float
    runtime_ms_total: float

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["samples"] = [
            {
                "index": s.index,
                "corner_error": s.corner_error,
                "confidence": s.confidence,
                "runtime_ms": s.runtime_ms,
                "b_hat": list(s.b_hat),
                "b_true": list(s.b_true),
            }
            for s in self.samples
        ]
        d["thresholds"] = list(self.thresholds)
        d["precision_curve"] = [list(p) for p in self.precision_curve]
        d["success_curve"] = [list(p) for p in self.success_curve]
        d["tool_version"] = __version__
        return d


def _config_dict(config: EstimatorConfig) -> dict:
    return {
        "stages": [s.value for s in config.stages],
        "warp_n": config.warp.n,
        "phi1": config.warp.phi1,
        "phi2": config.warp.phi2,
    }


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


def run_benchmark(dataset_dir, stages=None, thresholds=DEFAULT_THRESHOLDS) -> BenchmarkReport:
    """Estimate every pair in ``dataset_dir`` and aggregate the metrics.

    The estimator's warp is sized to the dataset's crop, and ``stages``
    selects a cascade subset.  Corner errors are measured at the four
    corners of the template crop in center-origin coordinates; the success
    score is the corner error of the centered unit square scaled to the
    template, which is the same construction.
    """
    dataset_dir = Path(dataset_dir)
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    crop = manifest.get("crop", 256)
    config = EstimatorConfig(
        warp=WarpConfig(n=crop),
        stages=tuple(stages) if stages is not None else CASCADE_ORDER,
    )
    corners = template_corners(crop, crop)
    corner_note = f"template crop corners at (+-{crop / 2}, +-{crop / 2}), center-origin"

    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        futures = [
            pool.submit(_evaluate_one, dataset_dir, rec, config, corners)
            for rec in manifest["samples"]
        ]
        records = [f.result() for f in futures]
    records.sort(key=lambda r: r.index)

    errors = np.array([r.corner_error for r in records]) if records else np.array([])
    finite = errors[np.isfinite(errors)] if errors.size else errors
    curves = precision_and_success(errors, thresholds) if errors.size else None
    return BenchmarkReport(
        dataset=str(dataset_dir),
        corner_convention=corner_note,
        config=_config_dict(config),
        samples=tuple(records),
        mace=float(np.mean(finite)) if finite.size else float("nan"),
        median_corner_error=float(np.median(finite)) if finite.size else float("nan"),
        infinite_errors=int(errors.size - finite.size),
        thresholds=tuple(float(t) for t in thresholds),
        precision_curve=curves.precision if curves else (),
        success_curve=curves.success if curves else (),
        average_precision=curves.average_precision if curves else float("nan"),
        average_success=curves.average_success if curves else float("nan"),
        runtime_ms_mean=float(np.mean([r.runtime_ms for r in records])) if records else 0.0,
        runtime_ms_total=float(np.sum([r.runtime_ms for r in records])) if records else 0.0,
    )


def write_report_json(report: BenchmarkReport, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=1))


def write_curves_csv(report: BenchmarkReport, path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold_px", "precision", "success"])
        for (t, p), (_, s) in zip(report.precision_curve, report.success_curve):
            writer.writerow([t, p, s])
