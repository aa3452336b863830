import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sl3warp
from sl3warp.cascade import EstimatorConfig, estimate
from sl3warp.cli import cli
from sl3warp.raster import load_image, save_image
from sl3warp.sl3 import compose_homography
from sl3warp.synth import PRESETS, generate_dataset, make_pair, sample_coeffs, texture
from sl3warp.warps import WarpConfig


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

    def test_decompose_overflow_is_one_error_line(self):
        # in a fresh interpreter, so that a leaked numpy warning is printed
        env = {**os.environ, "PYTHONPATH": str(Path(sl3warp.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "sl3warp.cli", "decompose", "--h",
             "1e200", "0", "0", "0", "1e200", "0", "0", "0", "1e200"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_compose_out_of_range_is_data_error(self, capsys):
        assert cli(["compose", "--b", "0", "0", "0", "800", "0", "0", "0", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: b4 and b5") and err.count("\n") == 1

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
        assert cli(["warp", "--kind", "scale-rot", "--in", str(src), "--out", str(out)]) == 0
        img = load_image(out)
        assert (img.height, img.width) == (64, 64)

    def test_aspect_warp_stacks_quadrant_planes(self, tmp_path):
        src = tmp_path / "in.pgm"
        save_image(texture(64, seed=2), src)
        out = tmp_path / "out.pgm"
        assert cli(["warp", "--kind", "aspect", "--in", str(src), "--out", str(out)]) == 0
        img = load_image(out)
        assert (img.height, img.width) == (256, 64)

    def test_warp_sized_from_the_image(self, tmp_path):
        src = tmp_path / "in.pgm"
        save_image(texture(128, seed=4), src)
        out = tmp_path / "out.pgm"
        assert cli(["warp", "--kind", "persp1", "--in", str(src), "--out", str(out)]) == 0
        img = load_image(out)
        assert (img.height, img.width) == (128, 128)

    def test_missing_input_is_data_error(self, tmp_path):
        assert cli(["warp", "--kind", "shear", "--in", str(tmp_path / "nope.pgm"),
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
        assert [s["kind"] for s in result["stages"]] == ["translation", "scale-rot"]

    def test_stage_subset(self, tmp_path, capsys):
        img = texture(128, seed=4)
        a = tmp_path / "a.pgm"
        save_image(img, a)
        code = cli(["estimate", "--template", str(a), "--search", str(a),
                    "--stages", "translation", "scale-rot"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert [s["kind"] for s in result["stages"]] == ["translation", "scale-rot"]

    def test_repeated_stage_is_named(self, tmp_path, capsys):
        a = tmp_path / "a.pgm"
        save_image(texture(64, seed=4), a)
        code = cli(["estimate", "--template", str(a), "--search", str(a),
                    "--stages", "translation", "translation"])
        assert code == 1
        err = capsys.readouterr().err
        assert "repeated stage translation" in err
        assert "unknown" not in err

    def test_odd_width_pair_uses_largest_even_warp(self, tmp_path, capsys):
        pair = make_pair(texture(831, seed=5), sample_coeffs(PRESETS["middle"], (5, 0)), 255)
        paths = [tmp_path / "t.pgm", tmp_path / "s.pgm"]
        save_image(pair.template, paths[0])
        save_image(pair.search, paths[1])
        assert cli(["estimate", "--template", str(paths[0]),
                    "--search", str(paths[1])]) == 0
        template, search = (load_image(p) for p in paths)
        expected = estimate(template, search, EstimatorConfig(warp=WarpConfig(n=254)))
        assert json.loads(capsys.readouterr().out) == expected.to_dict()


class TestDatasetAndBenchmark:
    def test_gen_dataset_count_zero(self, source_dir, tmp_path, capsys):
        out = tmp_path / "data"
        assert cli(["gen-dataset", "--source", str(source_dir), "--preset", "middle",
                    "--count", "0", "--seed", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["count_emitted"] == 0

    @pytest.mark.parametrize("bad", [["--crop", "0"], ["--crop", "128", "0"],
                                     ["--crop", "64", "64", "64"], ["--count", "-1"],
                                     ["--mask-radius", "-2"], ["--mask-radius", "nan"]])
    def test_gen_dataset_bad_arguments_are_usage_errors(self, source_dir, tmp_path, capsys, bad):
        out = tmp_path / "data"
        args = {"--count": "2", "--crop": "128", "--mask-radius": "0"}
        args[bad[0]] = bad[1:]
        argv = ["gen-dataset", "--source", str(source_dir), "--out", str(out)]
        for flag, value in args.items():
            argv += [flag, *([value] if isinstance(value, str) else value)]
        assert cli(argv) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_dataset_two_sided_crop(self, tmp_path, capsys):
        src = tmp_path / "big_sources"
        src.mkdir()
        save_image(texture(832, seed=61), src / "tex.pgm")
        out = tmp_path / "data"
        assert cli(["gen-dataset", "--source", str(src), "--count", "2", "--seed", "4",
                    "--crop", "128", "256", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["crop"] == [128, 256] and manifest["count_emitted"] == 2
        for rec in manifest["samples"]:
            assert load_image(out / rec["template"]).pixels.shape == (128, 128, 1)
            assert load_image(out / rec["search"]).pixels.shape == (256, 256, 1)
            assert json.loads((out / rec["gt"]).read_text())["crop"] == [128, 256]

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
        assert curves_path.read_text().splitlines()[0] == "threshold_px,precision"

    def test_odd_crop_from_odd_sources(self, tmp_path, capsys):
        src = tmp_path / "odd_sources"
        src.mkdir()
        save_image(texture(831, seed=60), src / "tex.pgm")
        data = tmp_path / "data"
        assert cli(["gen-dataset", "--source", str(src), "--preset", "middle",
                    "--count", "2", "--seed", "3", "--crop", "255", "--out", str(data)]) == 0
        report_path = tmp_path / "report.json"
        assert cli(["benchmark", "--dataset", str(data), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert len(report["samples"]) == 2
        assert report["config"]["warp_n"] == 254

    def test_benchmark_reads_two_sided_crop(self, source_dir, tmp_path, capsys):
        # generate_dataset records a (template, search) crop as a list
        equal, unequal = tmp_path / "equal", tmp_path / "unequal"
        generate_dataset(source_dir, PRESETS["middle"], 2, 7, equal, crop=(128, 128))
        generate_dataset(source_dir, PRESETS["middle"], 1, 7, unequal, crop=(128, 130))
        report_path = tmp_path / "report.json"
        assert cli(["benchmark", "--dataset", str(equal), "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert len(report["samples"]) == 2
        assert report["config"]["warp_n"] == 128
        assert cli(["benchmark", "--dataset", str(unequal), "--report", str(report_path)]) == 2
        assert "identical dimensions" in capsys.readouterr().err

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert cli(["benchmark", "--dataset", str(tmp_path / "none"),
                    "--report", str(tmp_path / "r.json")]) == 2


class TestSensitivityCommand:
    def test_sensitivity_csv(self, tmp_path, capsys):
        out = tmp_path / "sens.csv"
        assert cli(["sensitivity", "--kind", "shear", "--out", str(out),
                    "--points", "3", "--probe-size", "64"]) == 0
        assert "# offset_x" in out.read_text()

    def test_odd_probe_size(self, tmp_path, capsys):
        out = tmp_path / "sens.csv"
        assert cli(["sensitivity", "--kind", "persp1", "--out", str(out),
                    "--points", "3", "--probe-size", "255"]) == 0
        assert "# predicted" in out.read_text()

    @pytest.mark.parametrize("option, value", [
        ("--probe-size", "0"),
        ("--probe-size", "1"),
        ("--points", "0"),
        ("--points", "-3"),
    ])
    def test_bad_size_is_usage_error(self, tmp_path, capsys, option, value):
        out = tmp_path / "sens.csv"
        args = {"--points": "3", "--probe-size": "64", option: value}
        argv = ["sensitivity", "--kind", "shear", "--out", str(out)]
        for name, v in args.items():
            argv += [name, v]
        assert cli(argv) == 1
        assert f"{option} must be at least" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("nuisance", ["0", "9"])
    def test_nuisance_out_of_range_is_usage_error(self, tmp_path, capsys, nuisance):
        out = tmp_path / "sens.csv"
        assert cli(["sensitivity", "--kind", "shear", "--nuisance", nuisance, "--out", str(out),
                    "--points", "3", "--probe-size", "64"]) == 1
        assert "must be in 1..8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, nuisance", [("scale-rot", "3"), ("scale-rot", "4"),
                                                ("aspect", "5"), ("shear", "6"),
                                                ("persp1", "7"), ("persp2", "8")])
    def test_nuisance_inside_own_subgroup_is_usage_error(self, tmp_path, capsys, kind,
                                                         nuisance):
        out = tmp_path / "sens.csv"
        assert cli(["sensitivity", "--kind", kind, "--nuisance", nuisance, "--out", str(out),
                    "--points", "3", "--probe-size", "64"]) == 1
        assert "outside the" in capsys.readouterr().err
        assert not out.exists()
