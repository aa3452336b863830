import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sl3warp.sensitivity import warp_sensitivity, write_sensitivity_csv
from sl3warp.synth import texture
from sl3warp.warps import WarpKind


@pytest.fixture(scope="module")
def probe():
    return texture(128, seed=3)


class TestWarpSensitivity:
    def test_identity_grid_point_zero_offset(self, probe):
        result = warp_sensitivity(WarpKind.SHEAR, [0.0], [0.0], probe)
        np.testing.assert_array_equal(result.offsets[0, 0], [0.0, 0.0])

    def test_nuisance_free_column_matches_analytic(self, probe):
        result = warp_sensitivity(
            WarpKind.SCALE_ROTATION,
            np.linspace(-0.4, 0.4, 5),
            [0.0],
            probe,
            primary_coeff=2,
        )
        for i in range(5):
            measured = result.offsets[i, 0]
            assert np.linalg.norm(measured - result.predicted[i]) <= 1.0

    def test_small_nuisance_offsets_reported(self, probe):
        # dominance column: primary identity, growing nuisance; values are
        # recorded (not asserted small, the diagnostic is threshold-free)
        result = warp_sensitivity(
            WarpKind.SCALE_ROTATION,
            [0.0],
            np.linspace(-0.15, 0.15, 3),
            probe,
            nuisance_coeff=5,
        )
        assert result.offsets.shape == (1, 3, 2)
        assert np.all(np.isfinite(result.offsets))

    def test_primary_must_belong_to_warp(self, probe):
        with pytest.raises(ValueError):
            warp_sensitivity(WarpKind.SHEAR, [0.0], [0.0], probe, primary_coeff=2)

    def test_nuisance_must_be_outside_warp(self, probe):
        with pytest.raises(ValueError):
            warp_sensitivity(WarpKind.SCALE_ROTATION, [0.0], [0.0], probe, nuisance_coeff=3)

    def test_csv_layout(self, probe, tmp_path):
        result = warp_sensitivity(WarpKind.SHEAR, [-0.1, 0.1], [0.0, 0.05], probe)
        path = tmp_path / "sens.csv"
        write_sensitivity_csv(result, path)
        text = path.read_text()
        assert "# offset_x" in text and "# offset_y" in text
        assert "# predicted" in text
        # header row carries the nuisance grid
        assert "0.05" in text


def test_script_rejects_an_even_point_count(tmp_path):
    # np.linspace(-s, s, 4) has no zero in its middle column, which the
    # script's identity-nuisance gap reads
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_sensitivity.py"),
         "--out", str(tmp_path / "out"), "--points", "4", "--probe-size", "64"],
        capture_output=True, text=True, env=env)
    assert run.returncode == 2
    assert "--points must be a positive odd number, got 4" in run.stderr
    assert not (tmp_path / "out").exists()
