import json
import os

import numpy as np
import pytest

from sl3warp.benchmark import run_benchmark, write_report_json
from sl3warp.cascade import CASCADE_ORDER, EstimatorConfig, estimate
from sl3warp.cli import cli
from sl3warp.metrics import DEFAULT_THRESHOLDS, alignment_error, template_corners
from sl3warp.raster import load_image, save_image
from sl3warp.synth import PRESETS, generate_dataset, texture
from sl3warp.warps import WarpConfig


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    src = root / "src"
    src.mkdir()
    for i in range(2):
        save_image(texture(400, seed=90 + i), src / f"tex{i}.pgm")
    data = root / "data"
    generate_dataset(src, PRESETS["middle"], 3, seed=4, out_dir=data, crop=128)
    return data


class TestRunBenchmark:
    def test_records_match_serial_estimates(self, dataset):
        # the pool changes neither the per-sample results nor their order
        report = run_benchmark(dataset)
        manifest = json.loads((dataset / "manifest.json").read_text())
        config = EstimatorConfig(warp=WarpConfig(n=128))
        assert [s.index for s in report.samples] == [r["index"] for r in manifest["samples"]]
        for record, rec in zip(report.samples, manifest["samples"]):
            result = estimate(
                load_image(dataset / rec["template"]), load_image(dataset / rec["search"]), config
            )
            h_true = np.array(json.loads((dataset / rec["gt"]).read_text())["h"]).reshape(3, 3)
            assert record.corner_error == alignment_error(
                result.h_hat, h_true, template_corners(128, 128)
            )
            assert record.b_hat == tuple(float(v) for v in result.b_hat)

    def test_runs_where_the_os_reports_no_affinity(self, dataset, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        report = run_benchmark(dataset)
        manifest = json.loads((dataset / "manifest.json").read_text())
        assert len(report.samples) == len(manifest["samples"])

    def test_estimate_cli_matches_benchmark_record(self, dataset, tmp_path):
        report = run_benchmark(dataset)
        rec = report.samples[0]
        out = tmp_path / "est.json"
        assert cli([
            "estimate",
            "--template", str(dataset / "pairs" / "0000_t.pgm"),
            "--search", str(dataset / "pairs" / "0000_s.pgm"),
            "--out", str(out),
        ]) == 0
        est = json.loads(out.read_text())
        gt = json.loads((dataset / "gt" / "0000.json").read_text())
        err = alignment_error(
            np.array(est["h"]).reshape(3, 3),
            np.array(gt["h"]).reshape(3, 3),
            template_corners(128, 128),
        )
        assert err == pytest.approx(rec.corner_error, rel=1e-12)

    def test_report_json_round_trip(self, dataset, tmp_path):
        report = run_benchmark(dataset)
        path = tmp_path / "report.json"
        write_report_json(report, path)
        loaded = json.loads(path.read_text())
        assert loaded["mace"] == report.mace
        assert len(loaded["samples"]) == len(report.samples)
        assert loaded["corner_convention"].startswith("template crop corners")

    def test_report_states_each_field_once(self, dataset, tmp_path):
        # the precision curve is the success curve; the warp is its size alone
        path = tmp_path / "report.json"
        write_report_json(run_benchmark(dataset), path)
        loaded = json.loads(path.read_text())
        for key in ("thresholds", "success_curve", "average_success"):
            assert key not in loaded
        assert loaded["config"] == {"stages": [s.value for s in CASCADE_ORDER], "warp_n": 128}
        assert [t for t, _ in loaded["precision_curve"]] == list(DEFAULT_THRESHOLDS)
