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
