import math

import numpy as np
import pytest

from sl3warp import cascade, correlate
from sl3warp import refine as refine_module
from sl3warp.cascade import (
    CASCADE_ORDER,
    EstimatorConfig,
    Stage,
    estimate,
    estimate_stage,
    rectify,
)
from sl3warp.metrics import alignment_error, template_corners
from sl3warp.raster import ImageGrid, warp_by_homography
from sl3warp.sl3 import compose_homography, projective_distance
from sl3warp.synth import make_pair, mask_corners
from sl3warp.warps import WarpConfig, WarpKind

from conftest import smooth_image


def make_config(n=256):
    return EstimatorConfig(warp=WarpConfig(n=n))


def synthetic_pair(b, seed=0, n=256, exponent=1.8):
    img = smooth_image(n, seed=seed, exponent=exponent)
    return img, warp_by_homography(img, compose_homography(b))


class TestConfig:
    def test_default_runs_all_stages_in_order(self):
        assert EstimatorConfig().stages == CASCADE_ORDER

    def test_subset_in_order_accepted(self):
        cfg = EstimatorConfig(stages=(Stage.TRANSLATION, Stage.SHEAR))
        assert cfg.stages == (Stage.TRANSLATION, Stage.SHEAR)

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError):
            EstimatorConfig(stages=(Stage.SCALE_ROTATION, Stage.TRANSLATION))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            EstimatorConfig(stages=(Stage.TRANSLATION, Stage.TRANSLATION))


class TestRectify:
    def test_zero_coefficients_identity(self):
        img = smooth_image(32, seed=0)
        out = rectify(img, np.zeros(8))
        np.testing.assert_array_equal(out.pixels, img.pixels)

    def test_undoes_pure_translation(self):
        img = smooth_image(64, seed=1)
        b = np.zeros(8)
        b[0], b[1] = 5.0, 0.0
        search = warp_by_homography(img, compose_homography(b))
        back = rectify(search, b)
        inner = (slice(10, 54), slice(10, 54))
        assert np.abs(back.pixels[inner] - img.pixels[inner]).mean() < 0.01

    def test_rotation_matches_direct_inverse_warp(self):
        img = smooth_image(64, seed=2)
        b = np.zeros(8)
        b[2] = 0.3
        rectified = rectify(img, b)
        h = compose_homography(b)
        direct = warp_by_homography(img, np.linalg.inv(h))
        np.testing.assert_allclose(rectified.pixels, direct.pixels, atol=1e-12)


class TestEstimateStage:
    def test_identical_images_zero_update(self):
        img = smooth_image(256, seed=3)
        cfg = make_config()
        for stage in CASCADE_ORDER:
            update, peak = estimate_stage(img, img, stage, cfg)
            assert np.abs(update).max() < 1e-6
            assert peak.confidence > 0.0

    def test_pure_scale_recovery(self):
        b = np.zeros(8)
        b[3] = math.log(1.2)
        img, search = synthetic_pair(b, seed=4)
        update, _ = estimate_stage(img, search, Stage.SCALE_ROTATION, make_config())
        assert abs(update[3] - math.log(1.2)) < 0.03
        assert abs(update[2]) < 0.03

    def test_pure_shear_recovery(self):
        b = np.zeros(8)
        b[5] = 0.1
        img, search = synthetic_pair(b, seed=5)
        update, _ = estimate_stage(img, search, Stage.SHEAR, make_config())
        assert abs(update[5] - 0.1) < 0.02

    def test_pure_translation_recovery(self):
        b = np.zeros(8)
        b[0], b[1] = 11.0, -7.0
        img, search = synthetic_pair(b, seed=6)
        update, _ = estimate_stage(img, search, Stage.TRANSLATION, make_config())
        np.testing.assert_allclose(update[:2], [11.0, -7.0], atol=0.5)


class TestEstimate:
    def test_identical_pair_is_identity(self):
        img = smooth_image(256, seed=7)
        result = estimate(img, img, make_config())
        assert np.abs(result.b_hat).max() < 1e-3
        assert projective_distance(result.h_hat, np.eye(3)) < 1e-3
        assert 0.0 <= result.confidence <= 1.0

    def test_h_hat_matches_composed_coefficients(self):
        b = np.zeros(8)
        b[0], b[2] = 4.0, 0.2
        img, search = synthetic_pair(b, seed=8)
        result = estimate(img, search, make_config())
        np.testing.assert_allclose(
            result.h_hat, compose_homography(result.b_hat), atol=1e-12
        )

    def test_rotation_is_kept_in_half_open_pi_range(self):
        # refinement ends this wide pair at b3 = -3.7584; the wrap into
        # (-pi, pi] moves no corner
        from sl3warp.synth import PRESETS, sample_coeffs, texture

        b = sample_coeffs(PRESETS["wide"], (5, 6))
        pair = make_pair(texture(832, seed=706), b, 256, seed=6)
        result = estimate(pair.template, pair.search, make_config())
        assert -math.pi < result.b_hat[2] <= math.pi
        assert np.array_equal(result.h_hat, compose_homography(result.b_hat))
        error = alignment_error(result.h_hat, pair.h_true, template_corners(256, 256))
        assert abs(error - 0.011804383612916728) < 1e-9  # the unwrapped estimate's

    def test_disabled_stages_stay_zero(self):
        b = np.zeros(8)
        b[0], b[1], b[2], b[3] = 6.0, -3.0, 0.25, math.log(1.1)
        img, search = synthetic_pair(b, seed=9)
        cfg = EstimatorConfig(
            warp=WarpConfig(n=256), stages=(Stage.TRANSLATION, Stage.SCALE_ROTATION)
        )
        result = estimate(img, search, cfg)
        np.testing.assert_array_equal(result.b_hat[4:], np.zeros(4))
        # cross-stage residuals loosen these bounds relative to the pure
        # single-subgroup case: the translation peak carries the
        # rotation/scale smear, and the surviving center misalignment
        # biases the log-polar stage
        assert abs(result.b_hat[2] - 0.25) < 0.06
        assert abs(result.b_hat[3] - math.log(1.1)) < 0.06
        assert np.abs(result.b_hat[:2] - [6.0, -3.0]).max() < 3.5

    @pytest.mark.parametrize("shift", [(13, 9), (64, -64), (-64, 0), (30, -60)])
    def test_pure_integer_translation_exact(self, shift):
        # exact at integer resolution for shifts up to a quarter image
        b = np.zeros(8)
        b[0], b[1] = float(shift[0]), float(shift[1])
        img, search = synthetic_pair(b, seed=10)
        result = estimate(img, search, make_config())
        assert tuple(np.round(result.b_hat[:2])) == shift
        assert np.abs(result.b_hat[2:]).max() < 0.01

    @pytest.mark.xfail(
        strict=False,
        reason="one-pass classical correlation leaves cross-subgroup residuals "
        "that the high-leverage perspective stages amplify at full ranges",
    )
    def test_stage_monotonicity_on_middle_pairs(self):
        from sl3warp.metrics import alignment_error, template_corners
        from sl3warp.synth import PRESETS, make_pair, sample_coeffs, texture

        cfg = make_config()
        corners = template_corners(256, 256)
        sources = [texture(832, seed=700 + i) for i in range(4)]
        per_stage = [[] for _ in range(len(CASCADE_ORDER) + 1)]
        for i in range(12):
            b = sample_coeffs(PRESETS["middle"], (5, i))
            pair = make_pair(sources[i % 4], b, 256, seed=i)
            b_hat = np.zeros(8)
            per_stage[0].append(
                alignment_error(compose_homography(b_hat), pair.h_true, corners)
            )
            for k, stage in enumerate(CASCADE_ORDER):
                rectified = rectify(pair.search, b_hat)
                update, _ = estimate_stage(pair.template, rectified, stage, cfg)
                b_hat = b_hat + update
                per_stage[k + 1].append(
                    alignment_error(compose_homography(b_hat), pair.h_true, corners)
                )
        means = [float(np.mean(v)) for v in per_stage]
        for before, after in zip(means, means[1:]):
            assert after <= before + 0.5, f"stage means: {means}"

    def test_deterministic(self):
        b = np.zeros(8)
        b[0], b[2], b[5] = 3.0, 0.15, 0.05
        img, search = synthetic_pair(b, seed=11)
        r1 = estimate(img, search, make_config())
        r2 = estimate(img, search, make_config())
        np.testing.assert_array_equal(r1.b_hat, r2.b_hat)
        np.testing.assert_array_equal(r1.h_hat, r2.h_hat)
        assert r1.stage_peaks == r2.stage_peaks

    def test_default_config_sizes_warp_from_template(self):
        b = np.zeros(8)
        b[0], b[2], b[5] = 2.0, 0.1, 0.03
        img, search = synthetic_pair(b, seed=13, n=128)
        np.testing.assert_array_equal(
            estimate(img, search).b_hat, estimate(img, search, make_config(n=128)).b_hat
        )
        # a config that names stages but no warp sizes it the same way
        stages = (Stage.TRANSLATION, Stage.SCALE_ROTATION)
        np.testing.assert_array_equal(
            estimate(img, search, EstimatorConfig(stages=stages)).b_hat,
            estimate(img, search, EstimatorConfig(warp=WarpConfig(n=128), stages=stages)).b_hat,
        )

    def test_narrow_pair_gets_the_smallest_warp(self):
        # images narrower than the smallest warp still size one from the template
        pair = make_pair(smooth_image(96, seed=31), [1.5, -1.0, 0.1, 0.05, 0.02, 0, 0, 0], 24)
        result = estimate(pair.template, pair.search)
        expected = estimate(pair.template, pair.search, make_config(n=32))
        np.testing.assert_array_equal(result.b_hat, expected.b_hat)
        assert alignment_error(result.h_hat, pair.h_true, template_corners(24, 24)) < 0.5

    def test_default_path_warps_only_for_scale_rotation(self, monkeypatch):
        b = np.zeros(8)
        b[0], b[1], b[2], b[3], b[5], b[6] = 5.0, -3.0, 0.1, 0.05, 0.04, 2e-4
        img, search = synthetic_pair(b, seed=15)
        kinds = []
        warp_image = cascade.warp_image

        def recording_warp_image(image, kind, config):
            kinds.append(kind)
            return warp_image(image, kind, config)

        monkeypatch.setattr(cascade, "warp_image", recording_warp_image)
        result = estimate(img, search)
        assert kinds == [WarpKind.SCALE_ROTATION] * 2
        assert [p.stage for p in result.stage_peaks] == [Stage.TRANSLATION, Stage.SCALE_ROTATION]

    def test_non_capture_stage_is_refined_from_the_captures(self):
        b = np.zeros(8)
        b[0], b[1], b[5] = 5.0, -3.0, 0.08
        img, search = synthetic_pair(b, seed=16)
        result = estimate(img, search, EstimatorConfig(stages=(Stage.TRANSLATION, Stage.SHEAR)))
        assert abs(result.b_hat[5] - 0.08) < 1e-3
        np.testing.assert_array_equal(result.b_hat[[2, 3, 4, 6, 7]], np.zeros(5))
        assert [p.stage for p in result.stage_peaks] == [Stage.TRANSLATION]

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            estimate(smooth_image(64), smooth_image(128), make_config(n=64))

    def test_empty_stage_list(self):
        img = smooth_image(64, seed=12)
        cfg = EstimatorConfig(warp=WarpConfig(n=64), stages=())
        result = estimate(img, img, cfg)
        np.testing.assert_array_equal(result.b_hat, np.zeros(8))
        assert result.confidence == 0.0

    def test_result_serialization(self):
        img = smooth_image(64, seed=13)
        cfg = EstimatorConfig(warp=WarpConfig(n=64), stages=(Stage.TRANSLATION,))
        d = estimate(img, img, cfg).to_dict()
        assert set(d) == {"b", "h", "stages", "confidence"}
        assert len(d["b"]) == 8 and len(d["h"]) == 9
        assert d["stages"][0]["kind"] == "translation"


def record_captures(monkeypatch):
    """Record the image shape of every correlation, and the image shape and
    warp size of every ``warp_image`` call, that ``estimate`` makes."""
    correlated, warped = [], []
    correlate_ = correlate._correlate
    warp_image = cascade.warp_image

    def recording_correlate(a, b, *args, **kwargs):
        correlated.append(a.pixels.shape[:2])
        return correlate_(a, b, *args, **kwargs)

    def recording_warp_image(image, kind, config):
        warped.append((image.pixels.shape[:2], config.n))
        return warp_image(image, kind, config)

    # phase_correlate finds _correlate in its own module, the translation
    # capture in cascade's
    monkeypatch.setattr(correlate, "_correlate", recording_correlate)
    monkeypatch.setattr(cascade, "_correlate", recording_correlate)
    monkeypatch.setattr(cascade, "warp_image", recording_warp_image)
    return correlated, warped


class TestCaptureLevel:
    B = [5.0, -3.0, 0.1, 0.05, 0.0, 0.04, 2e-4, 0.0]

    def test_captures_run_at_the_refinement_resolution(self, monkeypatch):
        img, search = synthetic_pair(np.array(self.B), seed=15)
        correlated, warped = record_captures(monkeypatch)
        estimate(img, search, make_config())
        # the translation capture, then the scale-rot capture of the warps
        assert correlated == [(128, 128)] * 2
        assert warped == [((128, 128), 128)] * 2

    def test_large_pair_reduces_twice(self, monkeypatch):
        b = np.array([9.0, -6.0, 0.08, 0.04, 0.02, 0.03, 1e-4, -1e-4])
        img, search = synthetic_pair(b, seed=17, n=512)
        correlated, warped = record_captures(monkeypatch)
        result = estimate(img, search)
        assert correlated == [(128, 128)] * 2
        assert warped == [((128, 128), 128)] * 2
        corners = template_corners(512, 512)
        assert alignment_error(result.h_hat, compose_homography(b), corners) < 0.5

    def test_odd_sides_are_reduced(self, monkeypatch):
        b = np.array(self.B)
        img = ImageGrid(smooth_image(257, seed=18).pixels[:255])
        search = warp_by_homography(img, compose_homography(b))
        correlated, warped = record_captures(monkeypatch)
        result = estimate(img, search)
        # 255 x 257 loses its odd last row and column, then halves once;
        # the full-size warp of 256 halves with it
        assert correlated == [(127, 128), (128, 128)]
        assert warped == [((127, 128), 128)] * 2
        corners = template_corners(257, 255)
        assert alignment_error(result.h_hat, compose_homography(b), corners) < 0.5

    def test_a_side_too_short_to_reduce_captures_at_full_size(self, monkeypatch):
        # a 2 x 300 pair has no side to halve above refine._MIN_SIDE, so
        # the refinement's pyramid is the pair itself and so is the capture
        img = ImageGrid(smooth_image(300, seed=19).pixels[:2])
        correlated, _ = record_captures(monkeypatch)
        result = estimate(img, img)
        assert correlated[0] == (2, 300)
        assert np.isfinite(result.b_hat).all()

    def test_captures_read_the_refinement_finest_level(self, monkeypatch):
        pair = make_pair(smooth_image(320, seed=20), np.array(self.B), 256, seed=3)
        template, search = (mask_corners(image, 60) for image in (pair.template, pair.search))
        inputs = []
        correlate_ = correlate._correlate

        def recording_correlate(a, b, *args, **kwargs):
            inputs.append((a.pixels.copy(), b.pixels.copy()))
            return correlate_(a, b, *args, **kwargs)

        monkeypatch.setattr(correlate, "_correlate", recording_correlate)
        monkeypatch.setattr(cascade, "_correlate", recording_correlate)
        estimate(template, search, make_config())
        finest = refine_module._pyramid(template, search)[-1]
        # the translation capture, then the scale-rot capture
        assert len(inputs) == 2
        a, b = inputs[0]
        assert np.isnan(finest.template).any()
        assert np.array_equal(a[:, :, 0], np.nan_to_num(finest.template))
        assert np.array_equal(b[:, :, 0], np.nan_to_num(finest.search[0, 1:-1, 1:-1]))
