import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sl3warp import raster
from sl3warp.raster import (
    ImageGrid,
    RasterFormatError,
    UnsupportedFormatError,
    bilinear_sample,
    center_crop,
    load_image,
    pixel_grid,
    save_image,
    warp_by_homography,
)
from sl3warp.sl3 import SingularMatrixError, compose_homography, translation_matrix
from sl3warp.synth import texture

from conftest import smooth_image
from oracles import bilinear_reference, padded_bilinear_reference


class TestImageGrid:
    def test_two_dim_input_gets_channel_axis(self):
        img = ImageGrid(np.zeros((4, 5)))
        assert img.pixels.shape == (4, 5, 1)
        assert (img.height, img.width, img.channels) == (4, 5, 1)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ImageGrid(np.full((2, 2), np.nan))
        with pytest.raises(ValueError):
            ImageGrid(np.full((2, 2), 1.5))
        with pytest.raises(ValueError):
            ImageGrid(np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, -1e-8, 1 + 1e-8])
    def test_rejects_infinite_and_out_of_tolerance(self, bad):
        # one min and one max decide: an infinity is always an extreme
        px = np.full((3, 4), 0.5)
        px[1, 2] = bad
        with pytest.raises(ValueError):
            ImageGrid(px)

    def test_clips_within_tolerance_to_exact_bounds(self):
        img = ImageGrid(np.array([[-1e-10, 0.25], [1 + 1e-10, 1.0]]))
        assert img.pixels[0, 0, 0] == 0.0 and img.pixels[1, 0, 0] == 1.0
        assert img.pixels[0, 1, 0] == 0.25

    @pytest.mark.parametrize("values", [[0.0, 0.5], [-1e-10, 0.5], [0.5, 1 + 1e-10]])
    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 1)])
    def test_does_not_alias_or_freeze_the_callers_array(self, values, shape):
        px = np.resize(np.array(values), shape)
        img = ImageGrid(px)
        assert px.flags.writeable and not np.shares_memory(img.pixels, px)
        px[...] = 0.75
        assert not np.any(img.pixels == 0.75)

    def test_adopt_freezes_without_copying(self):
        px = np.full((3, 4, 2), 0.25)
        img = ImageGrid._adopt(px)
        assert np.shares_memory(img.pixels, px) and not img.pixels.flags.writeable

    def test_adopt_validates_like_the_constructor(self):
        with pytest.raises(ValueError):
            ImageGrid._adopt(np.full((2, 2), np.nan))
        with pytest.raises(ValueError):
            ImageGrid._adopt(np.full((2, 2), 1.5))
        img = ImageGrid._adopt(np.array([[-1e-10, 0.25], [1 + 1e-10, 1.0]]))
        assert img.pixels[:, :, 0].tolist() == [[0.0, 0.25], [1.0, 1.0]]

    def test_package_results_are_frozen_and_own_their_pixels(self, tmp_path):
        img = smooth_image(16, seed=3)
        save_image(img, tmp_path / "a.pgm")
        results = [
            load_image(tmp_path / "a.pgm"),
            center_crop(img, 8),
            warp_by_homography(img, translation_matrix(1.5, -0.5)),
        ]
        for out in results:
            assert not out.pixels.flags.writeable
            assert not np.shares_memory(out.pixels, img.pixels)

    def test_immutable(self):
        img = ImageGrid(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            img.pixels[0, 0, 0] = 1.0

    def test_pixel_grid_center(self):
        img = ImageGrid(np.zeros((3, 3)))
        grid = pixel_grid(img)
        np.testing.assert_array_equal(grid[1, 1], [0.0, 0.0])
        np.testing.assert_array_equal(grid[0, 0], [-1.0, -1.0])


class TestBilinearSample:
    def test_lattice_points_exact(self):
        img = smooth_image(9, seed=1)
        for row in range(9):
            for col in range(9):
                x, y = col - 4.0, row - 4.0
                got = bilinear_sample(img, np.array([x, y]))
                np.testing.assert_array_equal(got, img.pixels[row, col])

    def test_midpoint_average(self):
        px = np.zeros((1, 2))
        px[0, 1] = 1.0
        img = ImageGrid(px)
        # midpoint of the two pixel centers (-0.5, 0) and (0.5, 0)
        assert bilinear_sample(img, np.array([0.0, 0.0]))[0] == pytest.approx(0.5)

    def test_outside_box_is_zero(self):
        img = ImageGrid(np.ones((4, 4)))
        for pt in ([2.01, 0.0], [0.0, -2.01], [5.0, 5.0]):
            assert bilinear_sample(img, np.array(pt))[0] == 0.0

    def test_matches_scalar_reference(self):
        img = smooth_image(16, seed=2, channels=2)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-10, 10, size=(200, 2))
        got = bilinear_sample(img, pts)
        want = np.stack([bilinear_reference(img.pixels, x, y) for x, y in pts])
        np.testing.assert_allclose(got, want, atol=1e-14)

    @pytest.mark.parametrize("shape", [(15, 16, 1), (8, 5, 3), (9, 12, 2), (7, 6, 4)])
    def test_equals_scalar_reference_bit_for_bit(self, shape):
        # same weights, same summation order: not one bit may differ, on the
        # border band, the box edges, lattice points, far outside or at
        # non-finite points
        h, w, _ = shape
        rng = np.random.default_rng(4)
        img = ImageGrid(rng.random(shape))
        nan, inf = math.nan, math.inf
        pts = np.concatenate([
            rng.uniform([-w / 2 - 2, -h / 2 - 2], [w / 2 + 2, h / 2 + 2], size=(400, 2)),
            [[w / 2, h / 2], [-w / 2, -h / 2], [w / 2, 0.0], [0.0, -h / 2], [1e12, -1e12]],
            [[nan, nan], [inf, -inf], [-inf, inf], [nan, 0.0], [0.0, nan],
             [inf, 0.0], [0.0, -inf], [nan, inf], [-inf, nan], [nan, h / 2]],
            rng.integers(-1, max(w, h) + 1, size=(50, 2)) - [(w - 1) / 2, (h - 1) / 2],
        ])
        got = bilinear_sample(img, pts)
        want = np.stack([bilinear_reference(img.pixels, x, y) for x, y in pts])
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("channels", [1, 3])
    def test_transposed_plane_view_equals_contiguous_points(self, channels):
        # internal callers pass the (n, 2) transpose of (2, n) planes
        rng = np.random.default_rng(5)
        img = ImageGrid(rng.random((11, 14, channels)))
        planes = rng.uniform(-9, 9, size=(2, 501))
        planes[:, ::37] = math.nan
        planes[0, 1::41], planes[1, 2::43] = math.inf, -math.inf
        got = bilinear_sample(img, planes.T)
        want = bilinear_sample(img, np.ascontiguousarray(planes.T))
        assert got.shape == (501, channels) and got.tobytes() == want.tobytes()

    def test_multichannel_samples_are_channel_planes(self):
        # the gather's (c, n) rows come back as a view, not an interleaved copy,
        # and a warp adopts them as they are
        rng = np.random.default_rng(7)
        img = ImageGrid(rng.random((12, 10, 3)))
        got = bilinear_sample(img, rng.uniform(-6, 6, size=(4, 5, 2)))
        assert got.shape == (4, 5, 3)
        for k in range(3):
            assert got[..., k].flags.c_contiguous
        warped = warp_by_homography(img, np.diag([1.1, 0.9, 1.0])).pixels
        assert not warped.flags.writeable
        for k in range(3):
            assert warped[..., k].flags.c_contiguous

    @pytest.mark.parametrize("shape", [(15, 16, 1), (8, 5, 3)])
    def test_gather_on_nan_padded_planes_equals_scalar_reference(self, shape):
        # refinement's layout: NaN pad and NaN (missing) pixels inside
        h, w, _ = shape
        rng = np.random.default_rng(6)
        pixels = rng.random(shape)
        pixels[rng.random(shape[:2]) < 0.1] = math.nan
        nan, inf = math.nan, math.inf
        pts = np.concatenate([
            rng.uniform([-w / 2 - 2, -h / 2 - 2], [w / 2 + 2, h / 2 + 2], size=(300, 2)),
            [[w / 2, h / 2], [-w / 2, -h / 2], [w / 2, 0.0], [0.0, -h / 2], [1e12, -1e12]],
            [[nan, nan], [inf, -inf], [nan, 0.0], [0.0, inf], [-inf, nan]],
            rng.integers(-1, max(w, h) + 1, size=(50, 2)) - [(w - 1) / 2, (h - 1) / 2],
        ])
        planes = raster._pad_planes(pixels, math.nan)
        got = raster._gather(planes, raster._plan(np.ascontiguousarray(pts.T), h, w))
        want = np.stack([padded_bilinear_reference(pixels, x, y, math.nan) for x, y in pts])
        np.testing.assert_array_equal(got.T, want)
        assert np.isnan(got[:, 300:310]).all()  # box corners and beyond read the pad

    def test_plan_into_a_given_block_equals_a_new_plan(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-6, 6, size=(2, 40))
        pts[:, ::7] = math.nan
        block = np.full((5, 40), -1.0)
        into = raster._plan(pts.copy(), 9, 10, block)
        new = raster._plan(pts.copy(), 9, 10)
        assert np.shares_memory(into.base, block) and np.shares_memory(into.weights, block)
        assert into.base.tobytes() == new.base.tobytes()
        assert into.weights.tobytes() == new.weights.tobytes() and into.padded == new.padded

    def test_gather_rejects_planes_of_another_size(self):
        pts = np.zeros((2, 3))
        planes = raster._pad_planes(np.zeros((6, 8, 1)), 0.0)
        assert raster._gather(planes, raster._plan(pts.copy(), 6, 8)).shape == (1, 3)
        for h, w in ((8, 6), (6, 9), (5, 8)):
            with pytest.raises(ValueError, match="plan for padded"):
                raster._gather(planes, raster._plan(pts.copy(), h, w))

    @given(st.floats(-40, 40), st.floats(-40, 40))
    @settings(max_examples=100)
    def test_bounded_by_extremes(self, x, y):
        img = smooth_image(8, seed=4)
        v = bilinear_sample(img, np.array([x, y]))[0]
        assert 0.0 <= v <= 1.0


class TestWarpByHomography:
    def test_identity_exact(self):
        img = smooth_image(32, seed=5)
        out = warp_by_homography(img, np.eye(3))
        np.testing.assert_array_equal(out.pixels, img.pixels)

    def test_integer_translation_interior(self):
        img = smooth_image(32, seed=6)
        out = warp_by_homography(img, translation_matrix(5.0, 0.0))
        # output(p) = input(p - (5, 0)): columns shift right by 5
        np.testing.assert_allclose(
            out.pixels[:, 5:, :], img.pixels[:, :-5, :], atol=1e-12
        )

    def test_matches_per_pixel_oracle(self):
        img = smooth_image(24, seed=7)
        rng = np.random.default_rng(8)
        b = rng.uniform(
            [-4, -4, -0.6, math.log(0.7), -0.2, -0.15, -1e-4, -1e-4],
            [4, 4, 0.6, math.log(1.3), 0.2, 0.15, 1e-4, 1e-4],
        )
        h = compose_homography(b)
        out = warp_by_homography(img, h)
        h_inv = np.linalg.inv(h)
        for row in range(4, 20):
            for col in range(4, 20):
                x, y = col - 11.5, row - 11.5
                u, v, w = h_inv @ np.array([x, y, 1.0])
                want = bilinear_reference(img.pixels, u / w, v / w)
                assert abs(out.pixels[row, col, 0] - want[0]) < 1e-9

    def test_singular_rejected(self):
        img = smooth_image(8, seed=9)
        with pytest.raises(SingularMatrixError):
            warp_by_homography(img, np.diag([1.0, 1.0, 0.0]))

    def test_inverse_round_trip_close(self):
        img = smooth_image(64, seed=10)
        b = np.zeros(8)
        b[2], b[3] = 0.2, 0.1
        h = compose_homography(b)
        back = warp_by_homography(warp_by_homography(img, h), np.linalg.inv(h))
        inner = (slice(12, 52), slice(12, 52))
        err = np.abs(back.pixels[inner] - img.pixels[inner]).mean()
        assert err < 0.02

    def test_composition_consistency(self):
        img = smooth_image(64, seed=11)
        b1 = np.zeros(8)
        b1[2] = 0.15
        b2 = np.zeros(8)
        b2[3] = 0.1
        h1, h2 = compose_homography(b1), compose_homography(b2)
        once = warp_by_homography(img, h1 @ h2)
        twice = warp_by_homography(warp_by_homography(img, h2), h1)
        inner = (slice(12, 52), slice(12, 52))
        assert np.abs(once.pixels[inner] - twice.pixels[inner]).mean() < 0.02

    def test_zero_behind_camera(self):
        # the sources of the left pixels have w <= 0; dividing anyway would
        # read the mirrored image there
        b = np.zeros(8)
        b[6] = 0.02
        h = compose_homography(b)
        out = warp_by_homography(texture(256, seed=3), h)
        grid = pixel_grid(out)
        w = (np.concatenate([grid, np.ones((256, 256, 1))], axis=-1) @ np.linalg.inv(h).T)[..., 2]
        behind = w <= 0
        assert behind.sum() > 10_000
        assert np.all(out.pixels[behind] == 0.0)
        assert np.count_nonzero(out.pixels[~behind]) > 0

    def test_zero_fill_outside(self):
        img = ImageGrid(np.ones((16, 16)))
        out = warp_by_homography(img, translation_matrix(6.0, 0.0))
        assert np.all(out.pixels[:, :5, :] == 0.0)


class TestCrop:
    def test_center_crop_preserves_center(self):
        img = smooth_image(16, seed=12)
        crop = center_crop(img, 8)
        np.testing.assert_array_equal(crop.pixels, img.pixels[4:12, 4:12])

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            center_crop(smooth_image(16), 7)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            center_crop(smooth_image(16), 18)


class TestRasterIO:
    @pytest.mark.parametrize("bit_depth", [8, 16])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_lossless_round_trip(self, tmp_path, bit_depth, channels):
        img = smooth_image(12, seed=13, channels=channels)
        path = tmp_path / "img.pnm"
        save_image(img, path, bit_depth=bit_depth)
        loaded = load_image(path)
        save_image(loaded, tmp_path / "img2.pnm", bit_depth=bit_depth)
        assert path.read_bytes() == (tmp_path / "img2.pnm").read_bytes()
        maxval = 2 ** bit_depth - 1
        np.testing.assert_array_equal(
            np.rint(loaded.pixels * maxval), np.rint(img.pixels * maxval)
        )

    @pytest.mark.parametrize("bit_depth", [8, 16])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_decode_equals_float_cast_then_divide(self, tmp_path, bit_depth, channels):
        img = texture(23, seed=17, channels=channels)
        path = tmp_path / "img.pnm"
        save_image(img, path, bit_depth=bit_depth)
        maxval = 2**bit_depth - 1
        raw = np.rint(img.pixels * maxval).astype(">u2" if bit_depth == 16 else "u1")
        want = raw.astype(float) / maxval
        assert load_image(path).pixels.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bit_depth", [8, 16])
    def test_save_writes_rounded_samples_and_load_ignores_trailing_bytes(self, tmp_path, bit_depth):
        img = texture(19, seed=21, channels=3)
        path = tmp_path / "img.ppm"
        save_image(img, path, bit_depth=bit_depth)
        maxval = 2**bit_depth - 1
        raw = np.rint(img.pixels * maxval).astype(">u2" if bit_depth == 16 else "u1")
        header = f"P6\n19 19\n{maxval}\n".encode()
        assert path.read_bytes() == header + raw.tobytes()
        path.write_bytes(header + raw.tobytes() + b"\xff" * 7)
        assert load_image(path).pixels.tobytes() == (raw.astype(float) / maxval).tobytes()

    def test_truncated_file(self, tmp_path):
        img = smooth_image(8, seed=14)
        path = tmp_path / "img.pgm"
        save_image(img, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(RasterFormatError) as err:
            load_image(path)
        assert err.value.offset > 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P3\n2 2\n255\n0 0 0 0")
        with pytest.raises(RasterFormatError):
            load_image(path)

    def test_unsupported_maxval(self, tmp_path):
        path = tmp_path / "odd.pgm"
        path.write_bytes(b"P5\n2 2\n1023\n" + bytes(8))
        with pytest.raises(UnsupportedFormatError):
            load_image(path)

    @pytest.mark.parametrize("data, message, offset", [
        (b"P5\n2 2", "unexpected end of header", 6),
        (b"P5\n2 x2\n255\n" + bytes(4), "expected integer header field", 5),
        (b"P5\n0 2\n255\n", "non-positive image dimensions", 2),
    ])
    def test_bad_header(self, tmp_path, data, message, offset):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(RasterFormatError, match=message) as err:
            load_image(path)
        assert err.value.offset == offset

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x10\x20")
        img = load_image(path)
        assert img.pixels.shape == (1, 2, 1)
        assert img.pixels[0, 0, 0] == pytest.approx(0x10 / 255)

    def test_unsupported_save_bit_depth(self, tmp_path):
        with pytest.raises(UnsupportedFormatError, match="bit depth 12"):
            save_image(smooth_image(8, seed=14), tmp_path / "x.pgm", bit_depth=12)
        assert not (tmp_path / "x.pgm").exists()

    def test_two_channel_save_rejected(self, tmp_path):
        img = ImageGrid(np.zeros((2, 2, 2)))
        with pytest.raises(UnsupportedFormatError):
            save_image(img, tmp_path / "x.pgm")
