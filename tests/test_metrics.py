import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sl3warp.metrics import (
    DEFAULT_THRESHOLDS,
    alignment_error,
    mace,
    precision_and_success,
    template_corners,
)
from sl3warp.sl3 import compose_homography, translation_matrix

from oracles import map_corner

CORNERS = template_corners(256, 256)


def random_h(seed):
    rng = np.random.default_rng(seed)
    b = rng.uniform(
        [-16, -16, -0.6, math.log(0.7), -0.2, -0.15, -1e-4, -1e-4],
        [16, 16, 0.6, math.log(1.3), 0.2, 0.15, 1e-4, 1e-4],
    )
    return compose_homography(b)


class TestAlignmentError:
    def test_equal_homographies_zero(self):
        h = random_h(0)
        assert alignment_error(h, h, CORNERS) == 0.0

    def test_three_four_five(self):
        err = alignment_error(translation_matrix(3.0, 4.0), np.eye(3), CORNERS)
        assert err == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_corner_oracle(self, seed):
        hp, ht = random_h(seed), random_h(seed + 100)
        want = np.mean([
            math.hypot(*(np.subtract(map_corner(hp, c), map_corner(ht, c))))
            for c in CORNERS
        ])
        assert alignment_error(hp, ht, CORNERS) == pytest.approx(want, rel=1e-12)

    def test_corner_at_infinity_is_inf(self):
        h = np.array([[1.0, 0, 0], [0, 1, 0], [1 / 128.0, 0, 1]])
        # corner (-128, -128): w = 1 - 1 = 0
        assert alignment_error(h, np.eye(3), CORNERS) == math.inf

    def test_corner_behind_camera_is_inf(self):
        b = np.zeros(8)
        b[6] = 0.012
        h = compose_homography(b)
        # corners (-128, +-128) have w = -0.536: no finite displacement
        w = (np.c_[CORNERS, np.ones(4)] @ h.T)[:, 2]
        assert w.min() < 0
        assert alignment_error(h, np.eye(3), CORNERS) == math.inf
        assert alignment_error(np.eye(3), h, CORNERS) == math.inf

    def test_corner_just_in_front_is_finite(self):
        # w = 2**-33 at the two left corners, below 1e-12 times their |x|
        # of 128 but positive: in front of the camera, so projected like
        # every other point, however far out it lands
        h = np.array([[1.0, 0, 0], [0, 1, 0], [2.0**-7 - 2.0**-40, 0, 1]])
        w = (np.c_[CORNERS, np.ones(4)] @ h.T)[:, 2]
        assert w.min() == 2.0**-33 < 1e-12 * 128
        want = np.mean([math.hypot(*np.subtract(map_corner(h, c), c)) for c in CORNERS])
        err = alignment_error(h, np.eye(3), CORNERS)
        assert math.isfinite(err) and err > 1e11
        assert err == pytest.approx(want, rel=1e-12)

    def test_bad_corners_shape(self):
        with pytest.raises(ValueError):
            alignment_error(np.eye(3), np.eye(3), np.zeros((3, 2)))


class TestMace:
    def test_all_perfect_zero(self):
        h = random_h(1)
        assert mace([(h, h)] * 3, CORNERS) == 0.0

    def test_arithmetic_mean(self):
        pairs = [
            (translation_matrix(2.0, 0.0), np.eye(3)),
            (translation_matrix(4.0, 0.0), np.eye(3)),
        ]
        assert mace(pairs, CORNERS) == pytest.approx(3.0, rel=1e-12)

    def test_infinite_excluded(self):
        inf_h = np.array([[1.0, 0, 0], [0, 1, 0], [1 / 128.0, 0, 1]])
        pairs = [
            (translation_matrix(2.0, 0.0), np.eye(3)),
            (inf_h, np.eye(3)),
        ]
        assert mace(pairs, CORNERS) == pytest.approx(2.0, rel=1e-12)

    def test_all_infinite_is_inf(self):
        inf_h = np.array([[1.0, 0, 0], [0, 1, 0], [1 / 128.0, 0, 1]])
        assert mace([(inf_h, np.eye(3))] * 2, CORNERS) == math.inf

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mace([], CORNERS)


class TestCurves:
    def test_all_zero_errors(self):
        summary = precision_and_success([0.0, 0.0, 0.0])
        assert all(f == 1.0 for _, f in summary.precision)
        assert summary.average_precision == 1.0

    def test_two_sample_example(self):
        summary = precision_and_success([1.0, 3.0], thresholds=[2.0])
        assert summary.precision == ((2.0, 0.5),)
        assert summary.average_precision == 0.5

    def test_matches_hand_rolled_oracle(self):
        rng = np.random.default_rng(2)
        errors = rng.uniform(0, 60, size=10)
        summary = precision_and_success(errors)
        for t, frac in summary.precision:
            want = sum(1 for e in errors if e < t) / len(errors)
            assert frac == want

    def test_strict_threshold(self):
        summary = precision_and_success([2.0], thresholds=[2.0, 2.0000001])
        assert summary.precision[0][1] == 0.0
        assert summary.precision[1][1] == 1.0

    def test_non_finite_counts_as_failure(self):
        summary = precision_and_success([math.inf, 1.0], thresholds=[5.0])
        assert summary.precision[0][1] == 0.5

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            precision_and_success([])
        with pytest.raises(ValueError):
            precision_and_success([1.0], thresholds=[])

    @given(st.lists(st.floats(0, 200), min_size=1, max_size=40))
    @settings(max_examples=80)
    def test_curves_monotone_and_bounded(self, errors):
        summary = precision_and_success(errors)
        fracs = [f for _, f in summary.precision]
        assert all(0.0 <= f <= 1.0 for f in fracs)
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert 0.0 <= summary.average_precision <= 1.0

    def test_default_grid_is_1_to_100(self):
        assert DEFAULT_THRESHOLDS[0] == 1 and DEFAULT_THRESHOLDS[-1] == 100
        assert len(DEFAULT_THRESHOLDS) == 100
