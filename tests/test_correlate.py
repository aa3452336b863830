import numpy as np
import pytest

from sl3warp.correlate import phase_correlate
from sl3warp.raster import ImageGrid, warp_by_homography
from sl3warp.sl3 import translation_matrix

from conftest import smooth_image
from oracles import brute_force_circular_peak


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
