import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sl3warp.sl3 import (
    SingularMatrixError,
    _compose_rows,
    _project,
    UnrepresentableError,
    apply_homography,
    aspect_matrix,
    coeffs_from_params,
    compose_homography,
    decompose_homography,
    exp_sl3,
    factor_matrices,
    generators,
    normalize_homography,
    params_from_coeffs,
    perspective_x_matrix,
    perspective_y_matrix,
    projective_distance,
    rotation_scale_matrix,
    shear_matrix,
    translation_matrix,
)

from oracles import compose_by_factors, expm_series_exact, six_factor_product_longdouble

# Basis matrices, frozen independently of the implementation.
EXPECTED_GENERATORS = [
    [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
    [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 0, -1]],
    [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
    [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
]

MIDDLE_B = st.tuples(
    st.floats(-16, 16), st.floats(-16, 16),
    st.floats(-0.6, 0.6), st.floats(math.log(0.7), math.log(1.3)),
    st.floats(-0.2, 0.2), st.floats(-0.15, 0.15),
    st.floats(-1e-4, 1e-4), st.floats(-1e-4, 1e-4),
).map(np.array)


def random_middle_b(rng):
    lo = np.array([-16, -16, -0.6, math.log(0.7), -0.2, -0.15, -1e-4, -1e-4])
    hi = np.array([16, 16, 0.6, math.log(1.3), 0.2, 0.15, 1e-4, 1e-4])
    return rng.uniform(lo, hi)


class TestGenerators:
    def test_exact_entries(self):
        gens = generators()
        assert len(gens) == 8
        for got, want in zip(gens, EXPECTED_GENERATORS):
            np.testing.assert_array_equal(got, np.array(want, dtype=float))

    def test_a7_single_entry(self):
        a7 = generators()[6]
        assert a7[2, 0] == 1.0
        assert np.count_nonzero(a7) == 1

    def test_a4_is_scale_representative(self):
        np.testing.assert_array_equal(generators()[3], np.diag([0.0, 0.0, -1.0]))

    def test_traces(self):
        # The scale representative carries trace -1; the rest are traceless.
        traces = [np.trace(a) for a in generators()]
        assert traces[3] == -1.0
        for i, t in enumerate(traces):
            if i != 3:
                assert t == 0.0

    def test_linear_independence(self):
        flat = np.stack([a.ravel() for a in generators()])
        assert np.linalg.matrix_rank(flat) == 8


class TestExpSl3:
    def test_zero_is_identity(self):
        np.testing.assert_array_equal(exp_sl3(np.zeros(8)), np.eye(3))

    def test_nilpotent_perspective_is_exact(self):
        b = np.zeros(8)
        b[6] = 0.5
        expected = np.array([[1, 0, 0], [0, 1, 0], [0.5, 0, 1]], dtype=float)
        np.testing.assert_array_equal(exp_sl3(b), expected)

    def test_nilpotent_directions_exact(self):
        # Translations and both perspective directions square to zero, so
        # the exponential is exactly I + sum b_i A_i.
        gens = generators()
        for idx_set in [(0, 1), (6,), (7,)]:
            b = np.zeros(8)
            for i in idx_set:
                b[i] = 0.37 + 0.1 * i
            expected = np.eye(3) + sum(b[i] * gens[i] for i in idx_set)
            np.testing.assert_array_equal(exp_sl3(b), expected)

    @pytest.mark.parametrize("index, value", [(0, 300.0), (1, -170.0), (6, 40.0), (7, -7.5)])
    def test_nilpotent_exact_through_squarings(self, index, value):
        # large enough to be halved before the series and squared back after
        b = np.zeros(8)
        b[index] = value
        np.testing.assert_array_equal(exp_sl3(b), np.eye(3) + value * generators()[index])

    def test_series_oracle_frozen_value(self):
        # Frozen from the exact-rational series oracle (60 terms).
        b = np.array([0.1, -0.2, 0.3, 0.05, -0.1, 0.02, 1e-3, -2e-3])
        expected = np.array([
            [8.6449971022793892e-01, -2.7668034373165951e-01, 1.1881804803540226e-01],
            [2.9624074530557926e-01, 1.0622053299837169e+00, -1.8778409381703826e-01],
            [6.2123614099746517e-04, -2.1613131078486612e-03, 9.5147395902125187e-01],
        ])
        np.testing.assert_allclose(exp_sl3(b), expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_series_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        b = rng.uniform(-5, 5, size=8)
        m = np.tensordot(b, np.stack(generators()), axes=1)
        want = expm_series_exact(m, terms=160)
        got = exp_sl3(b)
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel < 1e-12

    def test_rejects_non_finite(self):
        b = np.zeros(8)
        b[2] = np.nan
        with pytest.raises(ValueError):
            exp_sl3(b)


class TestParamsMap:
    def test_zero_maps_to_identity_params(self):
        np.testing.assert_array_equal(
            params_from_coeffs(np.zeros(8)), np.array([0, 0, 0, 1, 1, 0, 0, 0], float)
        )

    def test_gamma_is_exp_b4(self):
        b = np.zeros(8)
        b[3] = math.log(2)
        assert params_from_coeffs(b)[3] == pytest.approx(2.0, rel=1e-15)

    def test_k1_example(self):
        b = np.zeros(8)
        b[4] = -0.3
        assert params_from_coeffs(b)[4] == pytest.approx(math.exp(-0.3), rel=1e-15)

    def test_inverse_examples(self):
        x = np.array([0, 0, 0, 1, 1, 0, 0, 0], float)
        np.testing.assert_array_equal(coeffs_from_params(x), np.zeros(8))
        x[3] = math.e
        assert coeffs_from_params(x)[3] == pytest.approx(1.0, rel=1e-15)
        x[4] = 0.5
        assert coeffs_from_params(x)[4] == pytest.approx(-math.log(2), rel=1e-15)

    def test_domain_errors(self):
        x = np.array([0, 0, 0, -1.0, 1, 0, 0, 0])
        with pytest.raises(ValueError):
            coeffs_from_params(x)
        x = np.array([0, 0, 0, 1, 0.0, 0, 0, 0])
        with pytest.raises(ValueError):
            coeffs_from_params(x)

    @given(MIDDLE_B)
    @settings(max_examples=100)
    def test_round_trip(self, b):
        x = params_from_coeffs(b)
        np.testing.assert_allclose(coeffs_from_params(x), b, rtol=1e-12, atol=1e-12)


# Every coefficient at values far outside any working range.
EXTREME_B = [(i, v) for i in range(8) for v in (1e300, -1e300, 1e120, -1e120, 1e15, -1e15,
                                              800.0, -800.0, 720.0, -720.0)]


class TestOutOfRangeCoefficients:
    @pytest.mark.parametrize("index, value", EXTREME_B)
    def test_finite_or_value_error(self, index, value):
        # one failure mode: no OverflowError and no numpy warning
        b = np.zeros(8)
        b[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (params_from_coeffs, factor_matrices):
                try:
                    out = fn(b)
                except ValueError:
                    continue
                assert np.all(np.isfinite(np.asarray(out)))
            try:
                h = compose_homography(b)
            except ValueError:
                return
        assert np.all(np.isfinite(h))
        assert np.linalg.det(h) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("index", [3, 4])
    @pytest.mark.parametrize("value", [709.0, -709.0])
    def test_log_coefficients_limited(self, index, value):
        b = np.zeros(8)
        b[index] = value
        with pytest.raises(ValueError, match="b4 and b5"):
            params_from_coeffs(b)
        b[index] = math.copysign(708.0, value)
        assert np.all(np.isfinite(np.concatenate(factor_matrices(b))))


class TestCompose:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(compose_homography(np.zeros(8)), np.eye(3), atol=1e-15)

    def test_pure_quarter_rotation(self):
        b = np.zeros(8)
        b[2] = math.pi / 2
        expected = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], float)
        np.testing.assert_allclose(compose_homography(b), expected, atol=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_extended_precision_product(self, seed):
        b = random_middle_b(np.random.default_rng(seed))
        want = six_factor_product_longdouble(b)
        np.testing.assert_allclose(compose_homography(b), want, rtol=0, atol=1e-12)

    def test_result_is_unimodular(self):
        b = random_middle_b(np.random.default_rng(3))
        assert np.linalg.det(compose_homography(b)) == pytest.approx(1.0, abs=1e-12)

    def test_factor_exponential_equivalence(self):
        # Each closed-form factor agrees with the exponential of its own
        # subalgebra element up to projective scale.
        rng = np.random.default_rng(11)
        for _ in range(50):
            b = random_middle_b(rng)
            x = params_from_coeffs(b)
            pairs = [
                (translation_matrix(x[0], x[1]), [(0, b[0]), (1, b[1])]),
                (rotation_scale_matrix(x[2], x[3]), [(2, b[2]), (3, b[3])]),
                (aspect_matrix(x[4]), [(4, b[4])]),
                (shear_matrix(x[5]), [(5, b[5])]),
                (perspective_x_matrix(x[6]), [(6, b[6])]),
                (perspective_y_matrix(x[7]), [(7, b[7])]),
            ]
            for factor, comps in pairs:
                bb = np.zeros(8)
                for i, v in comps:
                    bb[i] = v
                assert projective_distance(factor, exp_sl3(bb)) < 1e-10

    def test_perspective_factors_commute_exactly(self):
        p1, p2 = perspective_x_matrix(0.123), perspective_y_matrix(-0.456)
        np.testing.assert_array_equal(p1 @ p2, p2 @ p1)

    @given(
        st.sampled_from([2, 3, 4, 5, 6, 7]),
        st.floats(-0.4, 0.4), st.floats(-0.4, 0.4),
    )
    @settings(max_examples=100)
    def test_one_parameter_group_law(self, idx, v, dv):
        # Within a single subalgebra direction, composing two steps equals
        # one combined step, up to projective scale.
        b1 = np.zeros(8)
        b1[idx] = v
        b2 = np.zeros(8)
        b2[idx] = dv
        b12 = np.zeros(8)
        b12[idx] = v + dv
        lhs = compose_homography(b2) @ compose_homography(b1)
        assert projective_distance(lhs, compose_homography(b12)) < 1e-10


class TestComposeRows:
    # the stacked composition refinement evaluates its starts with
    SPREAD = np.array([40.0, 40.0, 3.2, 1.5, 1.0, 1.0, 5e-3, 5e-3])

    def test_rows_equal_one_row_calls_bit_for_bit(self):
        rng = np.random.default_rng(17)
        bs = rng.uniform(-1, 1, (256, 8)) * self.SPREAD
        h, factors, errors = _compose_rows(bs)
        assert h.shape == (256, 3, 3) and factors.shape == (256, 6, 3, 3)
        assert errors == [None] * 256
        for b, hk, fk in zip(bs, h, factors):
            want, want_factors = compose_by_factors(b)
            assert hk.tobytes() == want.tobytes() == compose_homography(b).tobytes()
            assert fk.tobytes() == np.stack(want_factors).tobytes()

    @pytest.mark.parametrize("bad", [
        {3: 709.0}, {4: -800.0},    # past the exponential's range
        {0: math.nan}, {6: math.inf},
        {3: -400.0},                # det = gamma^2 underflows: singular
        {3: 400.0},                 # det overflows
        {0: 1e308, 6: 10.0},        # the product's entries overflow
    ])
    def test_unusable_rows_leave_the_others_alone(self, bad):
        rng = np.random.default_rng(18)
        bs = rng.uniform(-1, 1, (6, 8)) * self.SPREAD
        want_h, want_factors, _ = _compose_rows(bs)
        for index, value in bad.items():
            bs[[1, 4], index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h, factors, errors = _compose_rows(bs)
        for k in (0, 2, 3, 5):
            assert errors[k] is None
            assert h[k].tobytes() == want_h[k].tobytes()
            assert factors[k].tobytes() == want_factors[k].tobytes()
        for k in (1, 4):
            with pytest.raises(ValueError) as one_row:
                compose_homography(bs[k])
            assert type(errors[k]) is type(one_row.value)
            assert str(errors[k]) == str(one_row.value)


class TestDecompose:
    def test_identity(self):
        np.testing.assert_allclose(decompose_homography(np.eye(3)), np.zeros(8), atol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_from_compose(self, seed):
        b = random_middle_b(np.random.default_rng(100 + seed))
        b_hat = decompose_homography(compose_homography(b))
        assert np.abs(b_hat - b).max() < 1e-9

    @given(MIDDLE_B)
    @settings(max_examples=100)
    def test_round_trip_property(self, b):
        h = compose_homography(b)
        b_hat = decompose_homography(h)
        assert np.abs(b_hat - b).max() < 1e-9
        assert projective_distance(compose_homography(b_hat), h) < 1e-9

    def test_scale_invariance(self):
        b = random_middle_b(np.random.default_rng(5))
        h = compose_homography(b)
        np.testing.assert_allclose(
            decompose_homography(7.3 * h), decompose_homography(h), atol=1e-12
        )

    def test_reflection_rejected(self):
        with pytest.raises(UnrepresentableError):
            decompose_homography(np.diag([-1.0, 1.0, 1.0]))

    def test_singular_rejected(self):
        h = np.eye(3)
        h[2, 2] = 0.0
        h[0, 0] = 0.0
        with pytest.raises(SingularMatrixError):
            decompose_homography(h)

    def test_half_turn_angle_convention(self):
        b = np.zeros(8)
        b[2] = math.pi
        assert decompose_homography(compose_homography(b))[2] == pytest.approx(math.pi)


class TestProjectiveDistance:
    def test_self_distance_zero(self):
        h = compose_homography(random_middle_b(np.random.default_rng(0)))
        assert projective_distance(h, h) == 0.0

    def test_scale_invariance(self):
        h = compose_homography(random_middle_b(np.random.default_rng(1)))
        assert projective_distance(h, 3.0 * h) < 1e-15
        assert projective_distance(h, -2.0 * h) < 1e-15

    def test_translation_positive_distance(self):
        h2 = translation_matrix(1.0, 0.0)
        # Direct evaluation: unit-Frobenius normalization of each side.
        a = np.eye(3) / np.sqrt(3.0)
        b = h2 / np.linalg.norm(h2)
        want = float(np.linalg.norm(a - b))
        assert want > 0
        assert projective_distance(np.eye(3), h2) == pytest.approx(want, rel=1e-15)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            projective_distance(np.zeros((3, 3)), np.eye(3))


class TestNormalize:
    def test_fixes_determinant(self):
        b = random_middle_b(np.random.default_rng(2))
        h = 4.2 * compose_homography(b)
        hn = normalize_homography(h)
        assert np.linalg.det(hn) == pytest.approx(1.0, abs=1e-12)
        assert hn[2, 2] > 0

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            normalize_homography(np.diag([1.0, 1.0, 0.0]))

    def test_underflowed_determinant_is_singular(self):
        # det and its tolerance both underflow to 0; the matrix must not
        # normalize to inf
        with pytest.raises(SingularMatrixError):
            normalize_homography(1e-110 * np.eye(3))


class TestApplyHomography:
    def test_identity(self):
        pts = np.array([[1.0, 2.0], [-3.0, 0.5]])
        np.testing.assert_array_equal(apply_homography(np.eye(3), pts), pts)

    def test_translation_single_point(self):
        out = apply_homography(translation_matrix(3.0, 4.0), np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [4.0, 5.0])

    def test_infinity_is_non_finite(self):
        h = np.array([[1.0, 0, 0], [0, 1, 0], [-1.0, 0, 1]])
        out = apply_homography(h, np.array([1.0, 0.0]))
        assert not np.all(np.isfinite(out))

    def test_behind_camera_is_nan(self):
        # w = 1 - x: in front for x < 1, behind for x > 1
        h = np.array([[1.0, 0, 0], [0, 1, 0], [-1.0, 0, 1]])
        out = apply_homography(h, np.array([[0.5, 2.0], [3.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out[0], [1.0, 4.0])
        assert np.all(np.isnan(out[1:]))
        assert np.all(np.isnan(apply_homography(-np.eye(3), np.array([1.0, 2.0]))))

    @pytest.mark.parametrize("n", [1, 3, 255, 256, 4097, 16_384, 65_536])
    def test_planes_equal_row_points_bit_for_bit(self, n):
        # (3, n) planes and (n, 3) rows are the same products and quotients:
        # not one bit may differ, at non-finite points or behind the camera
        rng = np.random.default_rng(n)
        h = compose_homography(random_middle_b(rng))
        h[2] = [1 / 64, -1 / 128, 1.0]  # the horizon crosses the points
        pts = rng.normal(size=(n, 2)) * 100.0
        special = [[-64.0, 0.0], [0.0, 128.0], [-200.0, 5.0],  # w = 0, 0, < 0
                   [np.nan, 1.0], [np.inf, 0.0], [-np.inf, 2.0], [0.0, np.inf]]
        pts[: len(special)] = special[:n]
        rows = np.concatenate([pts, np.ones((n, 1))], axis=1) @ h.T
        with np.errstate(divide="ignore", invalid="ignore"):
            want = rows[:, :2] / rows[:, 2:]
        want[rows[:, 2] <= 0.0] = np.nan
        planes = np.vstack([pts.T, np.ones(n)])
        assert np.ascontiguousarray(_project(h, planes).T).tobytes() == want.tobytes()
        assert apply_homography(h, pts).tobytes() == want.tobytes()
        assert apply_homography(h, pts.reshape(1, n, 2)).shape == (1, n, 2)

    def test_rejects_points_that_are_not_pairs(self):
        with pytest.raises(ValueError):
            apply_homography(np.eye(3), np.zeros((4, 3)))
