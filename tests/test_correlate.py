import itertools
import mmap

import numpy as np
import pytest

from sl3warp import correlate
from sl3warp.correlate import phase_correlate
from sl3warp.raster import ImageGrid, warp_by_homography
from sl3warp.sl3 import translation_matrix

from conftest import smooth_image
from oracles import brute_force_circular_peak, phase_correlate_full_complex


def rolled(img, dx, dy):
    """Circularly displace content forward by (dx, dy)."""
    return ImageGrid(np.roll(img.pixels, (dy, dx), axis=(0, 1)))


class TestPhaseCorrelate:
    def test_identical_images_peak_at_origin(self):
        img = smooth_image(64, seed=0)
        mu, conf = phase_correlate(img, img)
        np.testing.assert_allclose(mu, [0.0, 0.0], atol=1e-9)
        assert conf > 0.9

    def test_integer_circular_shift(self):
        img = smooth_image(64, seed=1)
        mu, conf = phase_correlate(img, rolled(img, 5, -3), window_power=0.0, subpixel=False)
        np.testing.assert_array_equal(mu, [5.0, -3.0])
        assert conf > 0.5

    def test_matches_brute_force_argmax(self):
        img = smooth_image(32, seed=2)
        shifted = rolled(img, -7, 11)
        mu, _ = phase_correlate(img, shifted, window_power=0.0, subpixel=False)
        want = brute_force_circular_peak(
            img.pixels[:, :, 0] - img.pixels.mean(),
            shifted.pixels[:, :, 0] - shifted.pixels.mean(),
        )
        assert tuple(mu) == want

    def test_subpixel_shift(self):
        img = smooth_image(128, seed=3)
        moved = warp_by_homography(img, translation_matrix(2.5, 0.0))
        mu, _ = phase_correlate(img, moved)
        assert abs(mu[0] - 2.5) < 0.25
        assert abs(mu[1]) < 0.25

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            phase_correlate(smooth_image(32), smooth_image(64))

    def test_all_zero_images(self):
        z = ImageGrid(np.zeros((16, 16)))
        mu, conf = phase_correlate(z, z)
        np.testing.assert_array_equal(mu, [0.0, 0.0])
        assert conf == 0.0

    @pytest.mark.parametrize("band_limit", [None, 0.02])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_no_cross_power_gives_zero(self, channels, band_limit):
        # all-zero against all-zero or against content: no bin survives
        z = ImageGrid(np.zeros((16, 16, channels)))
        for other in (z, smooth_image(16, seed=2, channels=channels)):
            mu, conf = phase_correlate(z, other, band_limit=band_limit)
            assert mu.tolist() == [0.0, 0.0] and conf == 0.0

    def test_multichannel_average(self):
        img = smooth_image(64, seed=4, channels=3)
        mu, conf = phase_correlate(img, rolled(img, 4, 2), window_power=0.0, subpixel=False)
        np.testing.assert_array_equal(mu, [4.0, 2.0])
        assert 0.0 <= conf <= 1.0

    def test_confidence_decreases_with_decorrelation(self):
        img = smooth_image(64, seed=5)
        other = smooth_image(64, seed=99)
        _, conf_same = phase_correlate(img, img)
        _, conf_diff = phase_correlate(img, other)
        assert conf_diff < conf_same

    def test_windowed_non_circular_translation(self):
        # a cropped (non-wrapping) translation still yields the right peak
        img = smooth_image(128, seed=6)
        moved = warp_by_homography(img, translation_matrix(9.0, -6.0))
        mu, _ = phase_correlate(img, moved, subpixel=False)
        np.testing.assert_array_equal(mu, [9.0, -6.0])

    def test_negative_wraparound_convention(self):
        img = smooth_image(64, seed=7)
        mu, _ = phase_correlate(img, rolled(img, -30, 0), window_power=0.0, subpixel=False)
        assert mu[0] == -30.0


SETTINGS = list(itertools.product([0.0, 1.0, 2.0], [False, True], [None, 0.05], [False, True]))


class TestAgainstFullComplexOracle:
    @pytest.mark.parametrize("shape", [(31, 48), (33, 33), (64, 65)])
    @pytest.mark.parametrize("channels", [1, 2, 3, 4])
    def test_real_spectra_match_full_complex(self, shape, channels):
        # odd widths are where a half spectrum's inverse needs its size stated
        h, w = shape
        src = smooth_image(96, seed=h + w + channels, channels=channels).pixels
        a, b = src[5 : 5 + h, 9 : 9 + w], src[8 : 8 + h, 4 : 4 + w]
        for power, circular, band, subpixel in SETTINGS:
            mu, conf = phase_correlate(
                ImageGrid(a), ImageGrid(b), window_power=power, circular_vertical=circular,
                band_limit=band, subpixel=subpixel,
            )
            want, want_conf = phase_correlate_full_complex(a, b, power, circular, subpixel, band)
            np.testing.assert_allclose(mu, want, rtol=0, atol=1e-12)
            assert abs(conf - want_conf) <= 1e-12


class TestCachedConstants:
    @pytest.mark.parametrize("constant", [
        lambda: correlate._window2d(31, 48, 2.0, False),
        lambda: correlate._window2d(64, 64, 1.0, True),
        lambda: correlate._band_mask(33, 65, 0.02),
    ])
    def test_read_only(self, constant):
        array = constant()
        assert constant() is array
        with pytest.raises(ValueError):
            array[0, 0] = 0.5

    @pytest.mark.parametrize("constant", [
        lambda: correlate._window2d(31, 48, 2.0, False),
        lambda: correlate._band_mask(33, 65, 0.02),
    ])
    def test_kept_outside_the_heap(self, constant):
        # a long-lived cache in the malloc heap makes peak RSS depend on
        # where its chunks land, so each constant has its own mapping
        base = constant()
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base.obj, mmap.mmap)
