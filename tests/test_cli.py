import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sl3warp
from sl3warp.cli import cli
from sl3warp.raster import load_image, save_image
from sl3warp.sl3 import compose_homography
from sl3warp.synth import texture


@pytest.fixture()
def source_dir(tmp_path):
    src = tmp_path / "sources"
    src.mkdir()
    for i in range(2):
        save_image(texture(400, seed=50 + i), src / f"tex{i}.pgm")
    return src


class TestComposeDecompose:
    def test_compose_zeros_prints_identity(self, capsys):
        assert cli(["compose", "--b"] + ["0"] * 8) == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(np.array(out["h"]).reshape(3, 3), np.eye(3), atol=1e-15)

    def test_module_entry_point(self):
        # ``python -m sl3warp.cli`` runs the command line of this source tree
        env = {**os.environ, "PYTHONPATH": str(Path(sl3warp.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "sl3warp.cli", "compose", "--b"] + ["0"] * 8,
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        h = np.array(json.loads(proc.stdout)["h"]).reshape(3, 3)
        np.testing.assert_allclose(h, np.eye(3), atol=1e-15)

    def test_round_trip_through_cli(self, capsys):
        b = [2.0, -1.0, 0.3, 0.1, -0.05, 0.02, 1e-4, -1e-4]
        assert cli(["compose", "--b"] + [str(v) for v in b]) == 0
        h = json.loads(capsys.readouterr().out)["h"]
        assert cli(["decompose", "--h"] + [str(v) for v in h]) == 0
        b_back = json.loads(capsys.readouterr().out)["b"]
        np.testing.assert_allclose(b_back, b, atol=1e-9)

    def test_decompose_reflection_is_data_error(self, capsys):
        h = [-1, 0, 0, 0, 1, 0, 0, 0, 1]
        assert cli(["decompose", "--h"] + [str(v) for v in h]) == 2

    def test_wrong_arity_usage_error(self, capsys):
        assert cli(["compose", "--b", "1", "2"]) == 1

    def test_unknown_flag_usage_error(self, capsys):
        assert cli(["compose", "--b"] + ["0"] * 8 + ["--bogus"]) == 1

    def test_unknown_subcommand_usage_error(self):
        assert cli(["frobnicate"]) == 1


class TestWarpCommand:
    def test_warp_writes_raster(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        save_image(texture(64, seed=1), src)
        out = tmp_path / "out.pgm"
        assert cli(["warp", "--kind", "scale-rot", "--n", "64",
                    "--in", str(src), "--out", str(out)]) == 0
        img = load_image(out)
        assert (img.height, img.width) == (64, 64)

    def test_aspect_warp_stacks_quadrant_planes(self, tmp_path):
        src = tmp_path / "in.pgm"
        save_image(texture(64, seed=2), src)
        out = tmp_path / "out.pgm"
        assert cli(["warp", "--kind", "aspect", "--n", "64",
                    "--in", str(src), "--out", str(out)]) == 0
        img = load_image(out)
        assert (img.height, img.width) == (256, 64)

    def test_missing_input_is_data_error(self, tmp_path):
        assert cli(["warp", "--kind", "shear", "--n", "64",
                    "--in", str(tmp_path / "nope.pgm"),
                    "--out", str(tmp_path / "out.pgm")]) == 2


class TestEstimateCommand:
    def test_estimate_identity_pair(self, tmp_path, capsys):
        img = texture(128, seed=3)
        a = tmp_path / "a.pgm"
        save_image(img, a)
        out = tmp_path / "result.json"
        code = cli(["estimate", "--template", str(a), "--search", str(a),
                    "--out", str(out)])
        assert code == 0
        result = json.loads(out.read_text())
        assert max(abs(v) for v in result["b"]) < 1e-2
        assert len(result["stages"]) == 6

    def test_stage_subset(self, tmp_path, capsys):
        img = texture(128, seed=4)
        a = tmp_path / "a.pgm"
        save_image(img, a)
        code = cli(["estimate", "--template", str(a), "--search", str(a),
                    "--stages", "translation", "scale-rot"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert [s["kind"] for s in result["stages"]] == ["translation", "scale-rot"]


class TestDatasetAndBenchmark:
    def test_gen_dataset_count_zero(self, source_dir, tmp_path, capsys):
        out = tmp_path / "data"
        assert cli(["gen-dataset", "--source", str(source_dir), "--preset", "middle",
                    "--count", "0", "--seed", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["count_emitted"] == 0

    def test_end_to_end_determinism(self, source_dir, tmp_path, capsys):
        data = tmp_path / "data"
        args = ["gen-dataset", "--source", str(source_dir), "--preset", "middle",
                "--count", "2", "--seed", "7", "--crop", "128",
                "--mask-radius", "0", "--out"]
        assert cli(args + [str(data)]) == 0
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert cli(["benchmark", "--dataset", str(data), "--report", str(r1)]) == 0
        assert cli(["benchmark", "--dataset", str(data), "--report", str(r2)]) == 0
        a = json.loads(r1.read_text())
        b = json.loads(r2.read_text())
        for rec_a, rec_b in zip(a["samples"], b["samples"]):
            assert rec_a["corner_error"] == rec_b["corner_error"]
            assert rec_a["b_hat"] == rec_b["b_hat"]
        assert a["mace"] == b["mace"]

    def test_benchmark_report_recomputable(self, source_dir, tmp_path, capsys):
        data = tmp_path / "data"
        cli(["gen-dataset", "--source", str(source_dir), "--preset", "middle",
             "--count", "3", "--seed", "2", "--crop", "128", "--out", str(data)])
        report_path = tmp_path / "report.json"
        curves_path = tmp_path / "curves.csv"
        assert cli(["benchmark", "--dataset", str(data), "--report", str(report_path),
                    "--curves-csv", str(curves_path)]) == 0
        report = json.loads(report_path.read_text())
        errors = [s["corner_error"] for s in report["samples"]]
        assert report["mace"] == pytest.approx(np.mean(errors), rel=1e-12)
        for t, frac in report["precision_curve"]:
            assert frac == pytest.approx(np.mean([e < t for e in errors]), rel=1e-12)
        assert curves_path.read_text().startswith("threshold_px,precision,success")

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert cli(["benchmark", "--dataset", str(tmp_path / "none"),
                    "--report", str(tmp_path / "r.json")]) == 2


class TestSensitivityCommand:
    def test_sensitivity_csv(self, tmp_path, capsys):
        out = tmp_path / "sens.csv"
        assert cli(["sensitivity", "--kind", "shear", "--out", str(out),
                    "--points", "3", "--probe-size", "64"]) == 0
        assert "# offset_x" in out.read_text()
