import math
import warnings

import numpy as np
import pytest

from sl3warp.cascade import EstimatorConfig, Stage, estimate, estimate_stage
from sl3warp.metrics import alignment_error, template_corners
from sl3warp.raster import ImageGrid, bilinear_sample, pixel_grid, warp_by_homography
from sl3warp import refine as refine_module
from sl3warp.refine import refine, residual_jacobian
from sl3warp.sl3 import (
    FACTOR_COEFFS,
    compose_homography,
    factor_matrices,
    generators,
    translation_matrix,
)
from sl3warp.synth import make_pair, mask_corners
from sl3warp.warps import WarpConfig

from conftest import smooth_image
from oracles import bilinear_reference, map_corner, refine_valid_reference

# Every coefficient away from zero, so each tangent is conjugated by the
# factors after its own.
B_JACOBIAN = np.array([2.5, -1.5, 0.5, 0.2, -0.15, 0.1, 2e-3, -1.5e-3])
# Central-difference steps, each moving the image by a fraction of a pixel.
FD_STEPS = np.array([1e-1, 1e-1, 3e-3, 3e-3, 3e-3, 3e-3, 1e-5, 1e-5])
# A middle-range transform, well outside the reach of a local method
# started anywhere but at its answer.
B_MIDDLE = np.array([9.0, -6.0, 0.35, math.log(1.15), 0.12, -0.08, 6e-5, -4e-5])


def oracle_residual(template, search, b, rows, cols):
    """``search(H(b) x) - template(x)`` at the given pixels, one at a time."""
    h = compose_homography(b)
    t, s = template.pixels, search.pixels
    out = []
    for r, c in zip(rows, cols):
        x = c - (template.width - 1) / 2.0
        y = r - (template.height - 1) / 2.0
        out.append(bilinear_reference(s, *map_corner(h, (x, y)))[0] - t[r, c, 0])
    return np.array(out)


class TestResidualJacobian:
    @pytest.fixture(scope="class")
    def pair(self):
        # cropped from a larger source so the search holds no zero fill
        sample = make_pair(smooth_image(128, seed=21, exponent=4.0), B_JACOBIAN, 64)
        return sample.template, sample.search

    def test_residual_matches_oracle(self, pair):
        template, search = pair
        r, valid, _ = residual_jacobian(template, search, B_JACOBIAN, range(8))
        rows, cols = np.nonzero(valid)
        assert len(rows) > 2000
        want = oracle_residual(template, search, B_JACOBIAN, rows, cols)
        np.testing.assert_allclose(r, want, atol=1e-12)

    def test_valid_pixels_match_oracle_on_masked_pair(self, pair):
        # masked corners in both images: the rule that decides which pixels
        # count, against a per-pixel scalar decision
        template, search = (mask_corners(image, 20) for image in pair)
        _, valid, _ = residual_jacobian(template, search, B_JACOBIAN, range(8))
        want = refine_valid_reference(
            template.pixels[:, :, 0], search.pixels[:, :, 0], compose_homography(B_JACOBIAN)
        )
        _, unmasked, _ = residual_jacobian(*pair, B_JACOBIAN, range(8))
        assert 1000 < want.sum() < unmasked.sum()
        np.testing.assert_array_equal(valid, want)

    def test_jacobian_matches_central_differences(self, pair):
        # at the solution the ESM gradient is the gradient of the warped
        # search, so every column must match the residual's own derivative
        template, search = pair
        _, valid, jac = residual_jacobian(template, search, B_JACOBIAN, range(8))
        rows, cols = np.nonzero(valid)
        assert jac.shape == (len(rows), 8)
        for i, step in enumerate(FD_STEPS):
            e = np.zeros(8)
            e[i] = step
            fd = (
                oracle_residual(template, search, B_JACOBIAN + e, rows, cols)
                - oracle_residual(template, search, B_JACOBIAN - e, rows, cols)
            ) / (2.0 * step)
            rel = np.linalg.norm(jac[:, i] - fd) / np.linalg.norm(fd)
            assert rel < 0.05, f"coefficient {i}: relative error {rel:.3f}"

    def test_columns_follow_free(self, pair):
        template, search = pair
        _, _, full = residual_jacobian(template, search, B_JACOBIAN, range(8))
        _, _, part = residual_jacobian(template, search, B_JACOBIAN, (5, 0))
        np.testing.assert_array_equal(part, full[:, [5, 0]])

    def test_padded_search_lookup_is_bilinear_sample(self, pair):
        # the level pads its search raster once; every lookup through it must
        # still be the package's bilinear kernel, bit for bit
        template, search = pair
        r, valid, _ = residual_jacobian(template, search, B_JACOBIAN, range(8))
        pts = pixel_grid(template).reshape(-1, 2)
        q = np.concatenate([pts, np.ones((len(pts), 1))], axis=1) @ compose_homography(B_JACOBIAN).T
        warped = bilinear_sample(search, q[:, :2] / q[:, 2:3])[:, 0].reshape(valid.shape)
        np.testing.assert_array_equal(r, warped[valid] - template.pixels[:, :, 0][valid])

    @pytest.mark.parametrize("swap", [False, True])
    def test_search_of_another_size(self, swap):
        # a tracking-style pair, and the same pair with the roles swapped so
        # the search is the smaller raster: lookups index the search's own
        # lattice, and the valid rule holds at the search's own box
        sample = make_pair(smooth_image(256, seed=21, exponent=4.0), B_JACOBIAN, (48, 96))
        template, search = sample.template, sample.search
        if swap:
            template, search = search, template
        r, valid, jac = residual_jacobian(template, search, B_JACOBIAN, range(8))
        want = refine_valid_reference(
            template.pixels[:, :, 0], search.pixels[:, :, 0], compose_homography(B_JACOBIAN)
        )
        assert want.sum() > 1000 and jac.shape == (want.sum(), 8)
        np.testing.assert_array_equal(valid, want)
        pts = pixel_grid(template).reshape(-1, 2)
        q = np.concatenate([pts, np.ones((len(pts), 1))], axis=1) @ compose_homography(B_JACOBIAN).T
        warped = bilinear_sample(search, q[:, :2] / q[:, 2:3])[:, 0].reshape(valid.shape)
        np.testing.assert_array_equal(r, warped[valid] - template.pixels[:, :, 0][valid])

    def test_unusable_b_gives_empty_arrays(self, pair):
        template, search = pair
        b = np.zeros(8)
        b[4] = 800.0  # the aspect factor overflows
        r, valid, jac = residual_jacobian(template, search, b, (0, 1, 4))
        assert r.shape == (0,) and jac.shape == (0, 3)
        assert valid.shape == (64, 64) and not valid.any()

    def test_tangents_equal_one_solve_per_coefficient(self):
        # the batched solve over the stacked tails against the plain loop
        rng = np.random.default_rng(9)
        spread = np.array([30.0, 30.0, 0.8, 0.3, 0.3, 0.2, 1e-3, 1e-3])
        gens = generators()
        for b in (B_JACOBIAN, B_MIDDLE, *(rng.uniform(-1, 1, (50, 8)) * spread)):
            factors = factor_matrices(b)
            tails = [np.eye(3)]
            for factor in reversed(factors[1:]):
                tails.insert(0, factor @ tails[0])
            want = np.stack([
                np.linalg.solve(tails[k], gens[i] @ tails[k])
                for k, coeffs in enumerate(FACTOR_COEFFS)
                for i in coeffs
            ])
            np.testing.assert_array_equal(refine_module._tangents(b), want)


class TestRefine:
    @pytest.fixture(scope="class")
    def middle_pair(self):
        return make_pair(smooth_image(512, seed=22), B_MIDDLE, 256)

    @pytest.mark.parametrize("radius", [0, 60])
    def test_recovers_middle_range_from_identity(self, middle_pair, radius):
        template = mask_corners(middle_pair.template, radius)
        search = mask_corners(middle_pair.search, radius)
        b = refine(template, search, np.zeros(8), range(8))
        error = alignment_error(compose_homography(b), middle_pair.h_true, template_corners(256, 256))
        assert error < 0.1

    @pytest.mark.parametrize("shape", [(255, 255), (255, 256)])
    def test_odd_sides_get_a_pyramid(self, middle_pair, shape):
        # dropping the last row or column moves the center by half a pixel
        h, w = shape
        template = ImageGrid(middle_pair.template.pixels[:h, :w])
        search = ImageGrid(middle_pair.search.pixels[:h, :w])
        shift = translation_matrix((256 - w) / 2.0, (256 - h) / 2.0)
        h_true = shift @ middle_pair.h_true @ np.linalg.inv(shift)
        assert len(refine_module._pyramid(template, search)) >= 3
        b = refine(template, search, np.zeros(8), range(8))
        error = alignment_error(compose_homography(b), h_true, template_corners(w, h))
        assert error < 0.1

    def test_only_free_coefficients_move(self, middle_pair):
        b_init = np.zeros(8)
        b_init[6] = 1e-5
        b = refine(middle_pair.template, middle_pair.search, b_init, (0, 1, 2, 3))
        assert b[6] == 1e-5
        np.testing.assert_array_equal(b[4:6], 0.0)
        np.testing.assert_array_equal(b[7], 0.0)
        assert np.all(np.abs(b[:4]) > 0.0)

    def test_no_free_coefficients_returns_input(self, middle_pair):
        b_init = np.arange(8) * 1e-3
        b = refine(middle_pair.template, middle_pair.search, b_init, ())
        np.testing.assert_array_equal(b, b_init)

    def test_deterministic(self, middle_pair):
        runs = [
            refine(middle_pair.template, middle_pair.search, np.zeros(8), range(8))
            for _ in range(2)
        ]
        assert runs[0].tobytes() == runs[1].tobytes()

    def test_start_kept_when_cost_not_lowered(self, middle_pair, monkeypatch):
        # a level solver that only makes things worse must not leak out
        def worse(level, b, free):
            b = b + np.array([3.0, 0, 0, 0, 0, 0, 0, 0])
            return b, refine_module._evaluate(level, b)

        monkeypatch.setattr(refine_module, "_solve_level", worse)
        b_init = np.array(middle_pair.b_true)
        b = refine(middle_pair.template, middle_pair.search, b_init, range(8))
        np.testing.assert_array_equal(b, b_init)

    def test_all_zero_pair_returns_input(self):
        # no pixel is valid, so there is no cost to lower
        img = ImageGrid(np.zeros((64, 64)))
        b_init = np.array([1.0, -2.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(refine(img, img, b_init, range(8)), b_init)

    def test_constant_pair_takes_no_step(self):
        # no gradient: only the given start and the identity are compared,
        # and the identity reproduces the image exactly
        img = ImageGrid(np.full((64, 64), 0.5))
        b_init = np.array([1.0, -2.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(refine(img, img, b_init, range(8)), np.zeros(8))

    def test_cost_picks_among_stacked_starts(self):
        # the translation capture misses a quarter-image shift that the
        # plain integer peak finds; refinement keeps whichever fits
        b_true = np.array([64.0, -64.0, 0, 0, 0, 0, 0, 0])
        img = smooth_image(256, seed=10)
        search = warp_by_homography(img, compose_homography(b_true))
        capture, _ = estimate_stage(img, search, Stage.TRANSLATION, EstimatorConfig())
        assert np.abs(capture[:2] - b_true[:2]).max() > 30.0
        np.testing.assert_array_equal(refine(img, search, capture, range(8)), capture)
        b = refine(img, search, [capture, b_true], range(8))
        np.testing.assert_allclose(b, b_true, atol=1e-6)
        # entries outside ``free`` come from the first start, not the others
        junk = b_true + np.array([0, 0, 0.1, 0.1, 0, 0, 1e-4, 0])
        b = refine(img, search, np.stack([capture, junk]), (0, 1))
        np.testing.assert_allclose(b[:2], b_true[:2], atol=1e-6)
        np.testing.assert_array_equal(b[2:], capture[2:])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="identical dimensions"):
            refine(smooth_image(64, seed=23), smooth_image(32, seed=23), np.zeros(8), range(8))

    def test_failing_jacobian_keeps_the_start(self, monkeypatch):
        def no_tangent(b):
            raise ValueError("no tangent")

        monkeypatch.setattr(refine_module, "_tangents", no_tangent)
        img = smooth_image(64, seed=23)
        b_init = np.array([0.5, -0.5, 0.01, 0, 0, 0, 0, 0])
        b = refine(img, warp_by_homography(img, compose_homography(b_init)), b_init, range(8))
        np.testing.assert_array_equal(b, b_init)

    def test_singular_damped_step_is_rejected(self, monkeypatch):
        solve = np.linalg.solve

        def singular_step(a, rhs):  # the tangents' batched solves still run
            if np.ndim(rhs) == 1:
                raise np.linalg.LinAlgError("singular matrix")
            return solve(a, rhs)

        monkeypatch.setattr(np.linalg, "solve", singular_step)
        img = smooth_image(64, seed=23)
        b_init = np.array([0.5, -0.5, 0.01, 0, 0, 0, 0, 0])
        b = refine(img, warp_by_homography(img, compose_homography(b_init)), b_init, range(8))
        np.testing.assert_array_equal(b, b_init)

    def test_start_beyond_horizon_does_not_raise(self):
        img = smooth_image(64, seed=23)
        b_init = np.zeros(8)
        b_init[6] = 0.2  # the horizon runs through the template
        b = refine(img, img, b_init, range(8))
        h = compose_homography(b)
        assert np.all(np.isfinite(h))


class TestEstimateWithRefinement:
    @pytest.mark.parametrize("value", [0.0, 0.5])
    def test_flat_pair_does_not_raise(self, value):
        img = ImageGrid(np.full((64, 64), value))
        result = estimate(img, img, EstimatorConfig(warp=WarpConfig(n=64)))
        np.testing.assert_array_equal(result.b_hat, np.zeros(8))

    def test_flat_pair_of_two_levels_warns_nothing(self):
        # a 49-wide, 69-high all-ones template against a constant 0.5 search:
        # refinement tries steps whose aspect factor leaves the float range
        template = ImageGrid(np.ones((69, 49)))
        search = ImageGrid(np.full((69, 49), 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate(template, search)
        want = [1.0363565802158798e-16, 0.0, -0.26179938779914935, 2.9313017869719774e-17,
                0.0, 0.0, 0.0, 0.0]
        assert result.b_hat.tolist() == want

    def test_no_stages_is_identity(self):
        img = smooth_image(64, seed=24)
        search = warp_by_homography(img, compose_homography(B_JACOBIAN))
        result = estimate(img, search, EstimatorConfig(warp=WarpConfig(n=64), stages=()))
        np.testing.assert_array_equal(result.b_hat, np.zeros(8))

    def test_h_hat_is_composed_b_hat(self):
        pair = make_pair(smooth_image(512, seed=25), B_MIDDLE, 256)
        result = estimate(pair.template, pair.search, EstimatorConfig(warp=WarpConfig(n=256)))
        assert np.array_equal(result.h_hat, compose_homography(result.b_hat))
        error = alignment_error(result.h_hat, pair.h_true, template_corners(256, 256))
        assert error < 0.1
