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
from oracles import (
    bilinear_reference,
    map_corner,
    objective_reference,
    predicted_decrease_reference,
    refine_valid_reference,
)

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


def record_warped(monkeypatch) -> list:
    """Copies of every warped search stack that ``_objective`` receives
    (it overwrites them), appended to the returned list as they come."""
    objective = refine_module._objective
    stacks = []

    def recorded(level, warped, gx, gy, rows):
        stacks.append(warped.copy())
        return objective(level, warped, gx, gy, rows)

    monkeypatch.setattr(refine_module, "_objective", recorded)
    return stacks


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

    def test_padded_search_lookup_is_bilinear_sample(self, pair, monkeypatch):
        # the level pads its search raster once; every lookup through it must
        # still be the package's bilinear kernel, bit for bit
        template, search = pair
        stacks = record_warped(monkeypatch)
        _, valid, _ = residual_jacobian(template, search, B_JACOBIAN, range(8))
        pts = pixel_grid(template).reshape(-1, 2)
        q = np.concatenate([pts, np.ones((len(pts), 1))], axis=1) @ compose_homography(B_JACOBIAN).T
        warped = bilinear_sample(search, q[:, :2] / q[:, 2:3])[:, 0].reshape(valid.shape)
        ((got,),) = stacks
        np.testing.assert_array_equal(got[valid], warped[valid])

    @pytest.mark.parametrize("swap", [False, True])
    def test_search_of_another_size(self, swap, monkeypatch):
        # a tracking-style pair, and the same pair with the roles swapped so
        # the search is the smaller raster: lookups index the search's own
        # lattice, and the valid rule holds at the search's own box
        sample = make_pair(smooth_image(256, seed=21, exponent=4.0), B_JACOBIAN, (48, 96))
        template, search = sample.template, sample.search
        if swap:
            template, search = search, template
        stacks = record_warped(monkeypatch)
        _, valid, jac = residual_jacobian(template, search, B_JACOBIAN, range(8))
        want = refine_valid_reference(
            template.pixels[:, :, 0], search.pixels[:, :, 0], compose_homography(B_JACOBIAN)
        )
        assert want.sum() > 1000 and jac.shape == (want.sum(), 8)
        np.testing.assert_array_equal(valid, want)
        pts = pixel_grid(template).reshape(-1, 2)
        q = np.concatenate([pts, np.ones((len(pts), 1))], axis=1) @ compose_homography(B_JACOBIAN).T
        warped = bilinear_sample(search, q[:, :2] / q[:, 2:3])[:, 0].reshape(valid.shape)
        ((got,),) = stacks
        np.testing.assert_array_equal(got[valid], warped[valid])

    def test_unusable_b_gives_empty_arrays(self, pair):
        template, search = pair
        b = np.zeros(8)
        b[4] = 800.0  # the aspect factor overflows
        r, valid, jac = residual_jacobian(template, search, b, (0, 1, 4))
        assert r.shape == (0,) and jac.shape == (0, 3)
        assert valid.shape == (64, 64) and not valid.any()

    @pytest.mark.parametrize("b, free, match", [
        (np.zeros(7), range(8), r"b must have shape \(8,\)"),
        (np.zeros((1, 8)), range(8), r"b must have shape \(8,\)"),
        (B_JACOBIAN, [8], "free entries"),
        (B_JACOBIAN, [-1], "free entries"),
        (B_JACOBIAN, [0.5], "free entries"),
    ], ids=["b-7", "b-1x8", "free-8", "free-minus-1", "free-half"])
    def test_malformed_b_or_free_rejected(self, pair, b, free, match):
        with pytest.raises(ValueError, match=match):
            residual_jacobian(*pair, b, free)

    @pytest.mark.parametrize("free", [range(8), (5, 0, 2)])
    def test_predicted_decrease_matches_linearized_residual(self, pair, free):
        # the damped step's prediction, from the column-scaled normal
        # equations, against the linearized residual summed pixel by pixel
        template, search = pair
        free = np.array(free)
        b = B_JACOBIAN + [0.3, -0.2, 0.004, 0.003, 0, -0.002, 2e-5, 0]
        r, _, jac = residual_jacobian(template, search, b, free)
        system = refine_module._scaled_system(jac, r)
        predictions = []
        for lam in (1e-3, 1e-1, 10.0, 1e3):
            trial, used, predicted = refine_module._damped_step(b, system, lam, free)
            assert used == lam
            want = predicted_decrease_reference(r, jac, trial[free] - b[free])
            assert abs(predicted - want) <= 1e-9 * abs(want)
            predictions.append(predicted)
        # more damping, a shorter step, a smaller predicted decrease
        assert predictions == sorted(predictions, reverse=True) and predictions[-1] > 0.0

    def test_objective_matches_oracle_around_a_dropped_row(self, monkeypatch):
        # the middle start overlaps the 16^2 coarsest level in fewer than
        # _MIN_VALID pixels, so the stack's rows and the kept rows part ways
        img = smooth_image(64, seed=23)
        level = refine_module._pyramid(img, img)[0]
        assert level.template.shape == (16, 16)
        bs = np.array([[1.5, -1.0, 0.05, 0.02, 0, 0, 0, 0], [48.0, 0, 0, 0, 0, 0, 0, 0],
                       [-2.0, 3.0, -0.1, 0.0, 0.03, 0, 0, 0]])
        objective = refine_module._objective
        calls = []

        def recorded(level, warped, gx, gy, rows):
            calls.append((warped.copy(), rows))
            return objective(level, warped, gx, gy, rows)

        monkeypatch.setattr(refine_module, "_objective", recorded)
        evs = refine_module._evaluate(level, bs)
        ((warped, rows),) = calls
        assert len(warped) == 3 and [j for j, _ in rows] == [0, 2]
        assert evs[1] is None
        assert 0 < len(objective_reference(level.template, warped[1])[0]) < refine_module._MIN_VALID
        for k in (0, 2):
            valid, r, gx, gy, cost = objective_reference(level.template, warped[k])
            ev = evs[k]
            assert len(valid) > 100
            np.testing.assert_array_equal(ev.valid, valid)
            assert ev.residual.tobytes() == r.tobytes()
            assert ev.grad_x.tobytes() == gx.tobytes() and ev.grad_y.tobytes() == gy.tobytes()
            assert abs(ev.cost - cost) <= 1e-12 * cost
        for k, ev in enumerate(evs):
            (alone,) = refine_module._evaluate(level, bs[k : k + 1])
            assert (ev is None) == (alone is None)
            if ev is not None:
                assert ev.cost == alone.cost
                for name in ("residual", "grad_x", "grad_y", "valid", "coeffs"):
                    assert getattr(ev, name).tobytes() == getattr(alone, name).tobytes()

    def test_tangents_equal_one_solve_per_coefficient(self):
        # the tangents from the inverse factors against one solve per
        # coefficient on the tails, and a stack of rows against one-row calls
        rng = np.random.default_rng(9)
        spread = np.array([30.0, 30.0, 0.8, 0.3, 0.3, 0.2, 1e-3, 1e-3])
        gens = generators()
        bs = np.array([B_JACOBIAN, B_MIDDLE, *(rng.uniform(-1, 1, (50, 8)) * spread)])
        stack = refine_module._tangents(bs)
        for b, got in zip(bs, stack):
            factors = factor_matrices(b)
            tails = [np.eye(3)]
            for factor in reversed(factors[1:]):
                tails.insert(0, factor @ tails[0])
            want = np.stack([
                np.linalg.solve(tails[k], gens[i] @ tails[k])
                for k, coeffs in enumerate(FACTOR_COEFFS)
                for i in coeffs
            ])
            error = np.linalg.norm(got - want, axis=(1, 2))
            assert np.all(error <= 1e-12 * np.linalg.norm(want, axis=(1, 2)))
            assert refine_module._tangents(b[None])[0].tobytes() == got.tobytes()


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

    def test_flat_template_level_takes_no_step(self):
        # the warped search's round-off gradients must not move a start
        img = ImageGrid(np.full((64, 64), 0.5))
        b_init = np.array([1.0, -2.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
        levels = refine_module._pyramid(img, img)
        assert len(levels) == 3
        for level in levels:
            (b,), (ev,) = refine_module._solve_level(level, b_init[None], np.arange(8))
            assert b.tobytes() == b_init.tobytes()
            assert ev is not None

    def test_cost_picks_among_stacked_starts(self):
        # the translation capture misses a quarter-image shift that the
        # plain integer peak finds; refinement keeps whichever fits
        b_true = np.array([64.0, -64.0, 0, 0, 0, 0, 0, 0])
        img = smooth_image(256, seed=10)
        search = warp_by_homography(img, compose_homography(b_true))
        capture, _ = estimate_stage(img, search, Stage.TRANSLATION, EstimatorConfig())
        assert np.abs(capture[:2] - b_true[:2]).max() > 30.0
        alone = refine(img, search, capture, range(8))
        assert np.abs(alone[:2] - b_true[:2]).max() > 30.0
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

    @pytest.mark.parametrize("starts, free, match", [
        (np.zeros(7), range(8), "starts must be"),
        (np.zeros((1, 2, 8)), range(8), "starts must be"),
        (np.zeros((0, 8)), range(8), "starts must be"),
        (np.zeros(8), [8], "free entries"),
        (np.zeros(8), [-1], "free entries"),
        (np.zeros(8), [0.5], "free entries"),
    ], ids=["starts-7", "starts-1x2x8", "starts-empty", "free-8", "free-minus-1", "free-half"])
    def test_malformed_starts_or_free_rejected(self, starts, free, match):
        img = smooth_image(64, seed=23)
        with pytest.raises(ValueError, match=match):
            refine(img, img, starts, free)

    def test_non_finite_start_is_an_unusable_row(self):
        img = smooth_image(64, seed=23)
        b = refine(img, img, [np.full(8, np.nan), np.zeros(8)], range(8))
        np.testing.assert_array_equal(b, np.zeros(8))

    def test_failing_jacobian_keeps_the_start(self, monkeypatch):
        # NaN tangents give a Jacobian with no usable column: no step, and
        # no warning on the way
        def nan_tangents(coeffs):
            return np.full((len(coeffs), 8, 3, 3), np.nan)

        monkeypatch.setattr(refine_module, "_tangents", nan_tangents)
        img = smooth_image(64, seed=23)
        b_init = np.array([0.5, -0.5, 0.01, 0, 0, 0, 0, 0])
        search = warp_by_homography(img, compose_homography(b_init))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = refine(img, search, b_init, range(8))
        np.testing.assert_array_equal(b, b_init)

    def test_singular_damped_step_is_rejected(self, monkeypatch):
        def singular_step(a, rhs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular_step)
        img = smooth_image(64, seed=23)
        b_init = np.array([0.5, -0.5, 0.01, 0, 0, 0, 0, 0])
        b = refine(img, warp_by_homography(img, compose_homography(b_init)), b_init, range(8))
        np.testing.assert_array_equal(b, b_init)

    @pytest.mark.parametrize("level_index", [0, 1])
    def test_lock_step_rows_end_where_they_would_alone(self, middle_pair, monkeypatch, level_index):
        # a stack of starts against one-row solves of each: one start fails
        # to evaluate, one has the horizon through the template, the others
        # run for different numbers of rounds
        level = refine_module._pyramid(middle_pair.template, middle_pair.search)[level_index]
        free = np.arange(8)
        unusable, beyond = np.zeros(8), np.zeros(8)
        unusable[4] = 800.0
        beyond[6] = 0.2
        starts = np.array([
            B_MIDDLE + [1.5, -1.0, 0.03, 0.02, 0, 0, 0, 0],
            unusable,
            np.zeros(8),
            beyond,
            B_MIDDLE * 0.6,
        ])
        stack, evs = refine_module._solve_level(level, starts, free)

        evaluate = refine_module._evaluate
        rounds = []

        def counted(level, bs):
            rounds[-1] += 1
            return evaluate(level, bs)

        monkeypatch.setattr(refine_module, "_evaluate", counted)
        for k, start in enumerate(starts):
            rounds.append(0)
            (alone,), (ev,) = refine_module._solve_level(level, start[None], free)
            assert stack[k].tobytes() == alone.tobytes()
            assert (evs[k] is None) == (ev is None)
            if ev is not None:
                assert evs[k].cost == ev.cost
                assert evs[k].residual.tobytes() == ev.residual.tobytes()
        assert evs[1] is None and evs[3] is None
        assert rounds[1] == rounds[3] == 1
        assert len({rounds[k] for k in (0, 2, 4)}) == 3

    @pytest.mark.parametrize("level_index", [1, 2, 3])
    def test_converged_row_ends_after_one_rejected_trial(self, middle_pair, monkeypatch,
                                                         level_index):
        # restarted where a level's solve ends, a row's first trial is
        # rejected; the model's predicted decrease must then end the row
        # instead of a chain of retries at ten times the damping.  (On the
        # 16^2 level the model still predicts more than the continue rule's
        # share for a few retries.)
        level = refine_module._pyramid(middle_pair.template, middle_pair.search)[level_index]
        free = np.arange(8)
        evaluate = refine_module._evaluate
        rows = []

        def counted(level, bs):
            rows[-1] += len(bs)
            return evaluate(level, bs)

        monkeypatch.setattr(refine_module, "_evaluate", counted)
        b = B_MIDDLE
        for _ in range(8):  # restart until no step is taken
            rows.append(0)
            (moved,), (ev,) = refine_module._solve_level(level, b[None], free)
            if moved.tobytes() == b.tobytes():
                break
            b = moved
        else:
            pytest.fail("the level's solve never came to rest")
        # the start and one rejected trial
        assert rows[-1] == 2
        (want,) = evaluate(level, b[None])
        assert ev.cost == want.cost

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
        # steps on it would take the aspect factor out of the float range,
        # and the flat template must take none
        template = ImageGrid(np.ones((69, 49)))
        search = ImageGrid(np.full((69, 49), 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = estimate(template, search)
        want = [1.0363565802158798e-16, 0.0, -0.26179938779914935, 2.9313017869719774e-17,
                0.0, 0.0, 0.0, 0.0]
        assert result.b_hat.tolist() == want

    def test_only_the_coarsest_level_solves_a_stack(self, monkeypatch):
        # every start runs on the coarsest level, the winner alone after it
        pair = make_pair(smooth_image(512, seed=25), B_MIDDLE, 256)
        evaluate = refine_module._evaluate
        stacks = []

        def recorded(level, bs):
            stacks.append((level.template.shape, len(bs)))
            return evaluate(level, bs)

        monkeypatch.setattr(refine_module, "_evaluate", recorded)
        estimate(pair.template, pair.search, EstimatorConfig(warp=WarpConfig(n=256)))
        coarsest = refine_module._pyramid(pair.template, pair.search)[0].template.shape
        assert max(rows for shape, rows in stacks if shape == coarsest) == 3
        assert {rows for shape, rows in stacks if shape != coarsest} == {1}

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
