import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sl3warp import warps
from sl3warp.raster import ImageGrid, bilinear_sample, warp_by_homography
from sl3warp.sl3 import compose_homography
from sl3warp.warps import (
    COEFF_INDICES,
    WarpConfig,
    WarpKind,
    predicted_shift,
    recover_coeffs,
    sample_coords,
    warp_grid_mu,
    warp_image,
)

from conftest import smooth_image

ALL_KINDS = list(WarpKind)
ASPECT = WarpKind.ASPECT_RATIO

# In-range coefficient magnitudes per informed index (middle-range presets).
COEFF_BOUNDS = {2: 0.6, 3: math.log(1.3), 4: 0.2, 5: 0.15, 6: 1e-4, 7: 1e-4}


def single_kind_b(kind, rng):
    b = np.zeros(8)
    for idx in COEFF_INDICES[kind]:
        bound = COEFF_BOUNDS[idx]
        b[idx] = rng.uniform(-bound, bound)
    return b


class TestWarpConfig:
    def test_defaults(self):
        cfg = WarpConfig(n=128)
        assert cfg.phi == 32.0
        assert cfg.log_base == 64.0

    @pytest.mark.parametrize("n", [31, 30, 33, 0])
    def test_bad_size_rejected(self, n):
        with pytest.raises(ValueError):
            WarpConfig(n=n)

    @pytest.mark.parametrize("width, n", [(256, 256), (255, 254), (33, 32)])
    def test_for_width_is_largest_even_fit(self, width, n):
        assert WarpConfig.for_width(width) == WarpConfig(n=n)

    @pytest.mark.parametrize("width", [31, 24])
    def test_for_width_too_narrow_gets_smallest_warp(self, width):
        assert WarpConfig.for_width(width) == WarpConfig(n=32)


class TestSampleCoords:
    def test_scale_rotation_origin(self):
        cfg = WarpConfig(n=128)
        out = sample_coords(WarpKind.SCALE_ROTATION, cfg, np.array([0.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_aspect_midpoint(self):
        cfg = WarpConfig(n=128)
        out = sample_coords(WarpKind.ASPECT_RATIO, cfg, np.array([64.0, 64.0]))
        np.testing.assert_allclose(out, [64.0, 64.0], rtol=1e-12)

    def test_shear_zero_column(self):
        cfg = WarpConfig(n=64)
        for y in (-13.0, 0.0, 21.0):
            out = sample_coords(WarpKind.SHEAR, cfg, np.array([0.0, y]))
            np.testing.assert_array_equal(out, [0.0, y])

    def test_perspective_sign_convention_at_zero(self):
        cfg = WarpConfig(n=64)
        out = sample_coords(WarpKind.PERSPECTIVE_1, cfg, np.array([0.0, 0.0]))
        # sign(0) = +1 keeps the denominator at phi
        assert out[0] == pytest.approx(cfg.phi * 64 / (2 * cfg.phi))
        assert np.all(np.isfinite(out))

    def test_perspective_axis_swap(self):
        cfg = WarpConfig(n=64)
        mu = np.array([3.0, 7.0])
        a = sample_coords(WarpKind.PERSPECTIVE_1, cfg, mu)
        b = sample_coords(WarpKind.PERSPECTIVE_2, cfg, mu[::-1])
        np.testing.assert_allclose(a, b[::-1], rtol=1e-12)

    def test_scale_rotation_radius_bounded(self):
        cfg = WarpConfig(n=64)
        coords = sample_coords(
            WarpKind.SCALE_ROTATION, cfg, warp_grid_mu(WarpKind.SCALE_ROTATION, cfg)
        )
        radii = np.hypot(coords[..., 0], coords[..., 1])
        assert radii.max() <= cfg.n / 2 + 1
        assert radii.min() >= 1.0 - 1e-9


class TestRecovery:
    def test_zero_peak_zero_update(self):
        cfg = WarpConfig(n=128)
        for kind in ALL_KINDS:
            np.testing.assert_array_equal(recover_coeffs(kind, cfg, (0.0, 0.0)), np.zeros(8))

    def test_scale_rotation_example(self):
        cfg = WarpConfig(n=128)
        b = recover_coeffs(WarpKind.SCALE_ROTATION, cfg, (128.0, 32.0))
        assert b[2] == pytest.approx(math.pi / 2, rel=1e-12)
        assert b[3] == pytest.approx(math.log(64.0), rel=1e-12)

    def test_aspect_consistent_double_check(self):
        cfg = WarpConfig(n=128)
        # axis estimates (+a, -a) with a = 0.2 reconcile to exactly 0.2
        d = 0.2 * 128 / (2 * math.log(64.0))
        b = recover_coeffs(WarpKind.ASPECT_RATIO, cfg, (d, -d))
        assert b[4] == pytest.approx(0.2, rel=1e-12)

    @pytest.mark.parametrize(
        "kind, index, value, shift",
        [
            # shear: (n * b[5] / 2, 0)
            (WarpKind.SHEAR, 5, 0.1, (6.4, 0.0)),
            # perspective x: (n * phi * b[6] / 2, 0), with phi = n/4 = 32
            (WarpKind.PERSPECTIVE_1, 6, 1e-4, (0.2048, 0.0)),
            # perspective y: (0, n * phi * b[7] / 2)
            (WarpKind.PERSPECTIVE_2, 7, -1e-4, (0.0, -0.2048)),
        ],
    )
    def test_one_parameter_closed_forms(self, kind, index, value, shift):
        cfg = WarpConfig(n=128)
        b = np.zeros(8)
        b[index] = value
        np.testing.assert_allclose(predicted_shift(kind, cfg, b), shift, rtol=1e-12, atol=0)
        np.testing.assert_allclose(recover_coeffs(kind, cfg, shift), b, rtol=1e-12, atol=0)

    def test_aspect_reconciliation_antisymmetric(self):
        cfg = WarpConfig(n=128)
        fwd = recover_coeffs(WarpKind.ASPECT_RATIO, cfg, (3.0, -1.0))[4]
        rev = recover_coeffs(WarpKind.ASPECT_RATIO, cfg, (-1.0, 3.0))[4]
        assert fwd == pytest.approx(-rev, rel=1e-12)

    def test_non_informative_axis_discarded(self):
        cfg = WarpConfig(n=128)
        assert recover_coeffs(WarpKind.SHEAR, cfg, (4.0, 99.0))[5] == pytest.approx(
            recover_coeffs(WarpKind.SHEAR, cfg, (4.0, -5.0))[5]
        )
        assert recover_coeffs(WarpKind.PERSPECTIVE_1, cfg, (4.0, 99.0))[6] == pytest.approx(
            recover_coeffs(WarpKind.PERSPECTIVE_1, cfg, (4.0, 0.0))[6]
        )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            recover_coeffs(WarpKind.SHEAR, WarpConfig(n=64), (np.nan, 0.0))

    @given(
        st.sampled_from(ALL_KINDS),
        st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
        st.sampled_from([64, 128, 256]),
    )
    @settings(max_examples=150)
    def test_recovery_inverts_predicted_shift(self, kind, v1, v2, n):
        # pure algebra round trip: coefficients -> pseudo-translation -> coefficients
        cfg = WarpConfig(n=n)
        b = np.zeros(8)
        indices = COEFF_INDICES[kind]
        b[indices[0]] = v1
        if len(indices) > 1:
            b[indices[1]] = v2
        shift = predicted_shift(kind, cfg, b)
        back = recover_coeffs(kind, cfg, shift)
        np.testing.assert_allclose(back, b, rtol=1e-12, atol=1e-12)


class TestWarpImage:
    def test_constant_image_constant_inside_domain(self):
        cfg = WarpConfig(n=64)
        img = ImageGrid(np.full((64, 64), 0.7))
        for kind in ALL_KINDS:
            warped = warp_image(img, kind, cfg)
            # sampled-domain pixels: source landed strictly inside the image
            coords = sample_coords(kind, cfg, warp_grid_mu(kind, cfg))
            inside = (np.abs(coords[..., 0]) < 30.5) & (np.abs(coords[..., 1]) < 30.5)
            vals = warped.pixels[..., 0][inside]
            np.testing.assert_allclose(vals, 0.7, atol=1e-12)

    def test_aspect_has_four_channels(self):
        warped = warp_image(smooth_image(64, seed=1), WarpKind.ASPECT_RATIO, WarpConfig(n=64))
        assert warped.channels == 4

    def test_aspect_multichannel_input_still_four_channels(self):
        img = smooth_image(64, seed=2, channels=3)
        warped = warp_image(img, WarpKind.ASPECT_RATIO, WarpConfig(n=64))
        assert warped.channels == 4

    def test_channel_count_preserved_otherwise(self):
        img = smooth_image(64, seed=3, channels=3)
        warped = warp_image(img, WarpKind.SHEAR, WarpConfig(n=64))
        assert warped.channels == 3

    def test_rotation_becomes_vertical_circular_shift(self):
        # warped(rotated I) should equal warped(I) circularly shifted along
        # the angular (row) axis by n * dtheta / (2 pi)
        n = 128
        cfg = WarpConfig(n=n)
        img = smooth_image(n, seed=4)
        dtheta = 2.0 * math.pi * 10 / n  # exactly 10 rows
        b = np.zeros(8)
        b[2] = dtheta
        rotated = warp_by_homography(img, compose_homography(b))
        w_base = warp_image(img, WarpKind.SCALE_ROTATION, cfg).pixels[..., 0]
        w_rot = warp_image(rotated, WarpKind.SCALE_ROTATION, cfg).pixels[..., 0]
        shifted = np.roll(w_base, 10, axis=0)
        # compare away from the outer columns where the rotated image zero-fills
        core = (slice(None), slice(0, 100))
        corr = np.corrcoef(w_rot[core].ravel(), shifted[core].ravel())[0, 1]
        assert corr > 0.98

    def test_warp_scale_rotation_matches_explicit_log_polar(self):
        # independent reference: sample the source at radius/angle computed
        # per output pixel with scalar math
        n = 64
        cfg = WarpConfig(n=n)
        img = smooth_image(n, seed=5)
        warped = warp_image(img, WarpKind.SCALE_ROTATION, cfg).pixels[..., 0]
        from oracles import bilinear_reference

        for row in range(0, n, 13):
            for col in range(0, n, 13):
                r = (n / 2.0) ** (col / n)
                a = 2.0 * math.pi * row / n
                want = bilinear_reference(img.pixels, r * math.cos(a), r * math.sin(a))
                assert warped[row, col] == pytest.approx(want[0], abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_cached_grid_is_the_warp_grid_and_read_only(self, kind):
        cfg = WarpConfig(n=64)
        grid = warps._sample_grid(kind, cfg)
        want = sample_coords(kind, cfg, warp_grid_mu(kind, cfg))
        # (2, n * n) coordinate planes; the aspect warp's is the positive quadrant
        np.testing.assert_array_equal(grid.T.reshape(want.shape), want)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_other_warp_size_leaves_output_unchanged(self, kind):
        img = smooth_image(256, seed=6)
        before = warp_image(img, kind, WarpConfig(n=128)).pixels.tobytes()
        assert warp_image(img, kind, WarpConfig(n=256)).pixels.shape[:2] == (256, 256)
        assert warp_image(img, kind, WarpConfig(n=128)).pixels.tobytes() == before

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("size, channels", [(64, 1), (64, 3), (90, 1), (90, 3)])
    def test_cached_plan_equals_bilinear_sample_bit_for_bit(self, kind, size, channels):
        # one warp size, two image sizes: the plan is keyed on both
        cfg = WarpConfig(n=64)
        img = smooth_image(size, seed=11, channels=channels)
        source = img
        if kind is ASPECT:  # the averaged plane and its mirror images
            p = img.pixels.mean(axis=2)
            source = ImageGrid(np.stack([p, p[:, ::-1], p[::-1], p[::-1, ::-1]], axis=-1))
        want = bilinear_sample(source, warps._sample_grid(kind, cfg).T)
        want = want.reshape(64, 64, source.channels)
        assert warp_image(img, kind, cfg).pixels.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_cached_plan_is_reused_and_read_only(self, kind):
        cfg = WarpConfig(n=64)
        plan = warps._sample_plan(kind, cfg, 64, 64)
        assert warps._sample_plan(kind, cfg, 64, 64) is plan
        assert warps._sample_plan(kind, cfg, 90, 90) is not plan
        for array in (plan.base, plan.weights):
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("size", [64, 90, 255])
    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("n", [64, 128])
    def test_aspect_equals_per_quadrant_reference(self, size, channels, n):
        # the reference samples the averaged plane at each quadrant's
        # sign-flipped grid, in channel order; only the rounding order of
        # the blend differs
        cfg = WarpConfig(n=n)
        img = smooth_image(size, seed=12, channels=channels)
        plane = ImageGrid(img.pixels.mean(axis=2))
        coords = sample_coords(ASPECT, cfg, warp_grid_mu(ASPECT, cfg))
        want = np.stack([bilinear_sample(plane, coords * signs)[..., 0]
                         for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1))], axis=-1)
        got = warp_image(img, ASPECT, cfg).pixels
        assert got.shape == (n, n, 4)
        np.testing.assert_allclose(got, want, rtol=0, atol=4e-15)

    @pytest.mark.parametrize("size", [64, 90])
    def test_aspect_channel_k_is_warp_of_kth_mirror_image(self, size):
        # pins the reflection and the channel order byte for byte
        cfg = WarpConfig(n=64)
        p = smooth_image(size, seed=13).pixels
        got = warp_image(ImageGrid(p), ASPECT, cfg).pixels
        for k, mirror in enumerate((p, p[:, ::-1], p[::-1], p[::-1, ::-1])):
            want = warp_image(ImageGrid(mirror), ASPECT, cfg).pixels[..., 0]
            assert got[..., k].tobytes() == want.tobytes()
