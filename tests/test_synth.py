import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sl3warp.raster import ImageGrid, center_crop, save_image, warp_by_homography
from sl3warp.sl3 import compose_homography, decompose_homography, projective_distance
from sl3warp.synth import (
    PRESETS,
    MarginError,
    ParamRanges,
    generate_dataset,
    make_pair,
    mask_corners,
    sample_coeffs,
    texture,
)

from conftest import smooth_image


class TestParamRanges:
    def test_presets_exist(self):
        assert set(PRESETS) == {"middle", "large", "pot", "wide"}

    def test_middle_preset_values(self):
        r = PRESETS["middle"]
        assert r.theta == (-0.6, 0.6)
        assert r.gamma == (0.7, 1.3)
        assert r.k1 == pytest.approx((math.exp(-0.2), math.exp(0.2)))
        assert r.k2 == (-0.15, 0.15)
        assert r.v1 == (-1e-4, 1e-4) and r.v2 == (-1e-4, 1e-4)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            ParamRanges(t1=(1, -1), t2=(0, 0), theta=(0, 0), gamma=(1, 1),
                        k1=(1, 1), k2=(0, 0), v1=(0, 0), v2=(0, 0))
        with pytest.raises(ValueError):
            ParamRanges(t1=(0, 0), t2=(0, 0), theta=(0, 0), gamma=(-1, 1),
                        k1=(1, 1), k2=(0, 0), v1=(0, 0), v2=(0, 0))


class TestSampleCoeffs:
    def test_degenerate_ranges_identity(self):
        r = ParamRanges(t1=(0, 0), t2=(0, 0), theta=(0, 0), gamma=(1, 1),
                        k1=(1, 1), k2=(0, 0), v1=(0, 0), v2=(0, 0))
        np.testing.assert_array_equal(sample_coeffs(r, 5), np.zeros(8))

    @given(st.integers(0, 2**31))
    @settings(max_examples=60)
    def test_middle_draws_inside_intervals(self, seed):
        r = PRESETS["middle"]
        b = sample_coeffs(r, seed)
        lo, hi = r.bounds()
        x = b.copy()
        x[3], x[4] = math.exp(b[3]), math.exp(b[4])
        assert np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)

    def test_deterministic_per_seed(self):
        r = PRESETS["large"]
        np.testing.assert_array_equal(sample_coeffs(r, 9), sample_coeffs(r, 9))
        assert not np.array_equal(sample_coeffs(r, 9), sample_coeffs(r, 10))

    def test_tuple_seed(self):
        r = PRESETS["middle"]
        a = sample_coeffs(r, (3, 0))
        b = sample_coeffs(r, (3, 1))
        assert not np.array_equal(a, b)


class TestMakePair:
    def test_identity_pair_is_pixel_identical(self):
        img = texture(128, seed=0)
        pair = make_pair(img, np.zeros(8), 64)
        np.testing.assert_array_equal(pair.template.pixels, pair.search.pixels)

    def test_pure_translation_relation(self):
        img = texture(160, seed=1)
        b = np.zeros(8)
        b[0] = 8.0
        pair = make_pair(img, b, 64)
        # inverse-mapping: search(p) = template(p - (8, 0)) on the interior
        np.testing.assert_allclose(
            pair.search.pixels[:, 8:, :], pair.template.pixels[:, :-8, :], atol=1e-9
        )

    def test_ground_truth_round_trip(self):
        img = texture(640, seed=2)
        b = sample_coeffs(PRESETS["middle"], 7)
        pair = make_pair(img, b, 256)
        assert np.abs(decompose_homography(pair.h_true) - b).max() < 1e-9
        assert projective_distance(pair.h_true, compose_homography(pair.b_true)) < 1e-12

    def test_margin_error_names_required_size(self):
        img = texture(128, seed=3)
        b = np.zeros(8)
        b[3] = math.log(0.5)  # shrink by 2: needs a 2x search footprint
        with pytest.raises(MarginError, match=r"need at least \d+x\d+"):
            make_pair(img, b, 120)

    def test_no_zero_fill_for_in_range_pairs(self):
        img = texture(640, seed=4)
        b = sample_coeffs(PRESETS["middle"], 11)
        pair = make_pair(img, b, 256)
        # zero-fill would show up as exact zeros; the textures are generic
        assert (pair.search.pixels == 0.0).sum() == 0

    def test_asymmetric_crop(self):
        # tracking-style odd crops need an odd source for center alignment
        img = texture(641, seed=5)
        pair = make_pair(img, np.zeros(8), (127, 255))
        assert (pair.template.width, pair.search.width) == (127, 255)

    @pytest.mark.parametrize(
        "width, height, channels, preset, crop",
        [
            (832, 832, 1, "large", 256),
            (641, 641, 1, "middle", (127, 255)),
            (400, 400, 3, "middle", 128),
            (700, 560, 1, "middle", 200),
        ],
        ids=["832-large", "641-asymmetric", "rgb", "non-square"],
    )
    def test_search_is_crop_of_full_warp(self, width, height, channels, preset, crop):
        # only the crop is resampled; the full-canvas warp is the oracle
        image = ImageGrid(texture(width, seed=700, channels=channels).pixels[:height])
        b = sample_coeffs(PRESETS[preset], (5, 0))
        pair = make_pair(image, b, crop)
        s_side = crop if isinstance(crop, int) else crop[1]
        full = warp_by_homography(image, compose_homography(b))
        np.testing.assert_array_equal(pair.search.pixels, center_crop(full, s_side).pixels)

    def test_crop_behind_horizon_rejected(self):
        # two search corners have w = -0.536: their mirrored sources fit the
        # margin, but the full warp zero-fills that side of the crop
        b = np.zeros(8)
        b[6] = 0.012
        with pytest.raises(MarginError, match="horizon"):
            make_pair(texture(832, seed=700), b, 256)

    def test_search_parity_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parity") as info:
            make_pair(texture(640, seed=0), np.zeros(8), (128, 255))
        assert not isinstance(info.value, MarginError)


class TestMaskCorners:
    def test_radius_zero_unchanged(self):
        img = texture(64, seed=6)
        np.testing.assert_array_equal(mask_corners(img, 0).pixels, img.pixels)

    def test_lattice_count_matches_brute_force(self):
        img = ImageGrid(np.ones((320, 320)))
        masked = mask_corners(img, 60)
        zeroed = int((masked.pixels[:, :, 0] == 0).sum())
        # independent scalar count over one corner, replicated fourfold
        per_corner = sum(
            1
            for r in range(320)
            for c in range(320)
            if r * r + c * c < 60 * 60
        )
        assert zeroed == 4 * per_corner

    def test_giant_radius_blanks_image(self):
        img = texture(32, seed=7)
        masked = mask_corners(img, 64.0)
        assert np.all(masked.pixels == 0.0)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            mask_corners(texture(32, seed=8), -1)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            mask_corners(texture(32, seed=8), math.nan)

    @pytest.mark.parametrize("radius", [0.5, 60, 100, 400])
    def test_equals_full_plane_formula(self, radius):
        # at 100 the corner discs overlap; at 400 they cover the image
        img = ImageGrid(0.5 + 0.5 * np.random.default_rng(9).random((256, 192, 2)))
        h, w = img.height, img.width
        rows, cols = np.arange(h)[:, None], np.arange(w)[None, :]
        near = np.zeros((h, w), dtype=bool)
        for cr, cc in ((0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)):
            near |= (rows - cr) ** 2 + (cols - cc) ** 2 < radius**2
        want = img.pixels.copy()
        want[near] = 0.0
        assert mask_corners(img, radius).pixels.tobytes() == want.tobytes()


class TestTexture:
    @pytest.mark.parametrize("size", [-2, 0, 1])
    def test_size_below_two_rejected(self, size):
        with pytest.raises(ValueError, match="at least 2"):
            texture(size, seed=0)

    def test_smallest_size_spans_unit_range(self):
        img = texture(2, seed=0)
        assert img.pixels.min() == 0.0 and img.pixels.max() == 1.0

    @pytest.mark.parametrize("size, seed, channels, exponent", [
        (64, 0, 1, 1.8),
        (97, 3, 1, 1.8),
        (2, 1, 1, 1.8),
        (33, 4, 3, 1.8),
        (48, 5, 2, 3.0),
        (40, (7, 2), 1, 1.0),
    ])
    def test_equals_reference_bytes(self, size, seed, channels, exponent):
        got = texture(size, seed=seed, channels=channels, exponent=exponent)
        want = smooth_image(size, seed=seed, channels=channels, exponent=exponent)
        assert got.pixels.shape == (size, size, channels)
        assert got.pixels.tobytes() == want.pixels.tobytes()

    def test_peak_memory_is_a_few_outputs(self):
        texture(8, seed=0)  # first-call allocations are not the transient
        tracemalloc.start()
        try:
            img = texture(512, seed=11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * img.pixels.nbytes


class TestGenerateDataset:
    @pytest.fixture()
    def source_dir(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        for i in range(2):
            save_image(texture(400, seed=100 + i), src / f"tex{i}.pgm")
        return src

    def test_count_zero_empty_manifest(self, source_dir, tmp_path):
        manifest = generate_dataset(source_dir, PRESETS["middle"], 0, 1, tmp_path / "out")
        assert manifest["count_emitted"] == 0
        assert manifest["samples"] == []
        on_disk = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert on_disk == json.loads(json.dumps(manifest))

    def test_samples_written_and_in_range(self, source_dir, tmp_path):
        out = tmp_path / "out"
        manifest = generate_dataset(
            source_dir, PRESETS["middle"], 4, 2, out, crop=128
        )
        assert manifest["count_emitted"] == 4
        lo, hi = PRESETS["middle"].bounds()
        for rec in manifest["samples"]:
            gt = json.loads((out / rec["gt"]).read_text())
            b = np.array(gt["b"])
            x = b.copy()
            x[3], x[4] = math.exp(b[3]), math.exp(b[4])
            assert np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12)
            assert (out / rec["template"]).exists()
            assert (out / rec["search"]).exists()

    def test_reproducible_byte_identical(self, source_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(source_dir, PRESETS["middle"], 3, 5, a, crop=128)
        generate_dataset(source_dir, PRESETS["middle"], 3, 5, b, crop=128)
        for rel in ["manifest.json", "gt/0000.json", "pairs/0001_t.pgm", "pairs/0002_s.pgm"]:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_unreadable_source_warns_and_skips(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        save_image(texture(64, seed=0), src / "small.pgm")  # too small for crop 256
        manifest = generate_dataset(src, PRESETS["middle"], 2, 1, tmp_path / "out")
        assert manifest["count_emitted"] == 0
        assert len(manifest["warnings"]) == 2

    def test_search_parity_mismatch_warns_and_skips(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        save_image(texture(640, seed=0), src / "even.pgm")
        manifest = generate_dataset(src, PRESETS["middle"], 1, 1, tmp_path / "out", crop=(128, 255))
        assert manifest["count_emitted"] == 0
        assert len(manifest["warnings"]) == 1 and "parity" in manifest["warnings"][0]

    def test_empty_source_dir_rejected(self, tmp_path):
        src = tmp_path / "empty"
        src.mkdir()
        with pytest.raises(ValueError):
            generate_dataset(src, PRESETS["middle"], 1, 1, tmp_path / "out")

    @pytest.mark.parametrize("kwargs", [{"mask_radius": -2.0}, {"mask_radius": math.nan},
                                        {"crop": 0}, {"crop": (128, 0)}, {"crop": (0, 128)}])
    def test_bad_mask_or_crop_rejected_before_writing(self, source_dir, tmp_path, kwargs):
        out = tmp_path / "out"
        with pytest.raises(ValueError):
            generate_dataset(source_dir, PRESETS["middle"], 2, 1, out, **kwargs)
        assert not out.exists()

    def test_mask_radius_applied(self, source_dir, tmp_path):
        out = tmp_path / "masked"
        generate_dataset(source_dir, PRESETS["middle"], 1, 3, out, mask_radius=20, crop=128)
        from sl3warp.raster import load_image

        img = load_image(out / "pairs" / "0000_t.pgm")
        assert img.pixels[0, 0, 0] == 0.0 and img.pixels[-1, -1, 0] == 0.0
