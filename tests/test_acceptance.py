"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a PASS/FAIL line with its measured numbers before
asserting, so the figures are visible either way (run with ``-s`` to see
them on success).
"""

import json
import math
import time

import numpy as np
import pytest

from sl3warp.cascade import EstimatorConfig, Stage, estimate, estimate_stage
from sl3warp.cli import cli
from sl3warp.correlate import phase_correlate
from sl3warp.metrics import (
    alignment_error,
    mace,
    precision_and_success,
    template_corners,
)
from sl3warp.raster import save_image, warp_by_homography
from sl3warp.sensitivity import warp_sensitivity
from sl3warp.sl3 import (
    aspect_matrix,
    compose_homography,
    decompose_homography,
    exp_sl3,
    params_from_coeffs,
    perspective_x_matrix,
    perspective_y_matrix,
    projective_distance,
    rotation_scale_matrix,
    shear_matrix,
    translation_matrix,
)
from sl3warp.synth import PRESETS, make_pair, mask_corners, sample_coeffs, texture
from sl3warp.warps import (
    COEFF_INDICES,
    WarpConfig,
    WarpKind,
    predicted_shift,
    warp_image,
)

from oracles import map_corner

MIDDLE = PRESETS["middle"]

# Middle-range magnitude per coefficient index, for in-subgroup draws.
COEFF_RANGE = {
    2: (-0.6, 0.6),
    3: (math.log(0.7), math.log(1.3)),
    4: (-0.2, 0.2),
    5: (-0.15, 0.15),
    6: (-1e-4, 1e-4),
    7: (-1e-4, 1e-4),
}

def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {criterion} - {detail}")


def in_subgroup_b(kind, rng):
    b = np.zeros(8)
    for idx in COEFF_INDICES[kind]:
        lo, hi = COEFF_RANGE[idx]
        b[idx] = rng.uniform(lo, hi)
    return b


def test_criterion_1_factor_exponential_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(1000):
        b = sample_coeffs(MIDDLE, (1, seed))
        x = params_from_coeffs(b)
        factors = [
            (translation_matrix(x[0], x[1]), {0: b[0], 1: b[1]}),
            (rotation_scale_matrix(x[2], x[3]), {2: b[2], 3: b[3]}),
            (aspect_matrix(x[4]), {4: b[4]}),
            (shear_matrix(x[5]), {5: b[5]}),
            (perspective_x_matrix(x[6]), {6: b[6]}),
            (perspective_y_matrix(x[7]), {7: b[7]}),
        ]
        for factor, comps in factors:
            bb = np.zeros(8)
            for i, v in comps.items():
                bb[i] = v
            worst = max(worst, projective_distance(factor, exp_sl3(bb)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, ok, f"max projective distance {worst:.2e} over 1000 vectors, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_2_compose_decompose_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(1000):
        b = sample_coeffs(MIDDLE, (2, seed))
        b_hat = decompose_homography(compose_homography(b))
        worst = max(worst, float(np.abs(b_hat - b).max()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    report(2, ok, f"max coefficient error {worst:.2e} over 1000 vectors, {elapsed:.1f}s")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_criterion_3_equivariance_suite():
    start = time.perf_counter()
    config = WarpConfig(n=256)
    rates = {}
    for k, kind in enumerate(WarpKind):
        probe = texture(256, seed=300 + k)
        reference = warp_image(probe, kind, config)
        rng = np.random.default_rng(400 + k)
        hits = 0
        for _ in range(50):
            b = in_subgroup_b(kind, rng)
            transformed = warp_by_homography(probe, compose_homography(b))
            warped = warp_image(transformed, kind, config)
            mu, _ = phase_correlate(
                reference,
                warped,
                circular_vertical=kind is WarpKind.SCALE_ROTATION,
            )
            predicted = predicted_shift(kind, config, b)
            if np.linalg.norm(mu - predicted) <= 1.0:
                hits += 1
        rates[kind.value] = hits / 50.0
    elapsed = time.perf_counter() - start
    ok = all(r >= 0.95 for r in rates.values()) and elapsed < 60.0
    report(3, ok, f"within-1px rates {rates}, {elapsed:.1f}s")
    for kind, rate in rates.items():
        assert rate >= 0.95, f"{kind}: {rate}"
    assert elapsed < 60.0


def test_criterion_4_per_stage_recovery():
    start = time.perf_counter()
    config = EstimatorConfig(warp=WarpConfig(n=256))
    tolerances = {2: 0.03, 3: 0.03, 4: 0.03, 5: 0.02, 6: 2e-4, 7: 2e-4}
    rates = {}
    for k, kind in enumerate(WarpKind):
        stage = Stage(kind.value)
        probe = texture(256, seed=500 + k)
        rng = np.random.default_rng(600 + k)
        hits = 0
        for _ in range(50):
            b = in_subgroup_b(kind, rng)
            search = warp_by_homography(probe, compose_homography(b))
            update, _ = estimate_stage(probe, search, stage, config)
            if all(abs(update[i] - b[i]) <= tolerances[i] for i in COEFF_INDICES[kind]):
                hits += 1
        rates[kind.value] = hits / 50.0
    elapsed = time.perf_counter() - start
    ok = all(r >= 0.90 for r in rates.values()) and elapsed < 60.0
    report(4, ok, f"within-tolerance rates {rates}, {elapsed:.1f}s")
    for kind, rate in rates.items():
        assert rate >= 0.90, f"{kind}: {rate}"
    assert elapsed < 60.0


def test_criterion_5_full_cascade_benchmark():
    start = time.perf_counter()
    config = EstimatorConfig(warp=WarpConfig(n=256))
    corners = template_corners(256, 256)
    # sources sized so the worst middle-range draw keeps its crop in-bounds
    sources = [texture(832, seed=700 + i) for i in range(8)]

    def corner_error(template, search, h_true):
        result = estimate(template, search, config)
        return alignment_error(result.h_hat, h_true, corners)

    plain, masked = [], []
    for i in range(200):
        b = sample_coeffs(MIDDLE, (5, i))
        pair = make_pair(sources[i % len(sources)], b, 256, seed=i)
        plain.append(corner_error(pair.template, pair.search, pair.h_true))
        masked.append(
            corner_error(
                mask_corners(pair.template, 60), mask_corners(pair.search, 60), pair.h_true
            )
        )
    elapsed = time.perf_counter() - start
    median_plain = float(np.median(plain))
    median_masked = float(np.median(masked))
    degradation = median_masked - median_plain
    ok = median_plain <= 5.0 and degradation <= 2.0 and elapsed < 180.0
    report(
        5,
        ok,
        f"median corner error {median_plain:.2f}px (masked {median_masked:.2f}px, "
        f"degradation {degradation:+.2f}px), {elapsed:.0f}s",
    )
    assert elapsed < 180.0
    # The one-pass cascade alone cannot re-absorb cross-subgroup couplings
    # (the angular mean a log-polar correlation measures entangles half the
    # shear term with the rotation, and their residual is unrepresentable
    # downstream); the photometric refinement that ends ``estimate`` takes
    # them up.  The assertions are at the stated values.
    assert median_plain <= 5.0
    assert degradation <= 2.0


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(60)
    corners = template_corners(256, 256)
    pairs = []
    for _ in range(100):
        b1 = sample_coeffs(MIDDLE, rng.integers(2**32))
        b2 = sample_coeffs(MIDDLE, rng.integers(2**32))
        pairs.append((compose_homography(b1), compose_homography(b2)))
    worst = 0.0
    for hp, ht in pairs:
        want = np.mean([
            math.hypot(*(np.subtract(map_corner(hp, c), map_corner(ht, c))))
            for c in corners
        ])
        worst = max(worst, abs(alignment_error(hp, ht, corners) - want))
    mace_got = mace(pairs, corners)
    mace_want = np.mean([
        np.mean([
            math.hypot(*(np.subtract(map_corner(hp, c), map_corner(ht, c))))
            for c in corners
        ])
        for hp, ht in pairs
    ])
    curve_exact = True
    for trial in range(5):
        errors = np.random.default_rng(61 + trial).uniform(0, 40, size=10)
        summary = precision_and_success(errors, thresholds=range(1, 51))
        for t, frac in summary.precision:
            if frac != sum(1 for e in errors if e < t) / 10:
                curve_exact = False
    ok = worst < 1e-9 and abs(mace_got - mace_want) < 1e-9 and curve_exact
    report(6, ok, f"alignment error vs oracle {worst:.2e}, mace diff "
                  f"{abs(mace_got - mace_want):.2e}, curves exact: {curve_exact}")
    assert worst < 1e-9
    assert abs(mace_got - mace_want) < 1e-9
    assert curve_exact


def test_criterion_7_determinism(tmp_path):
    src = tmp_path / "sources"
    src.mkdir()
    for i in range(2):
        save_image(texture(400, seed=70 + i), src / f"tex{i}.pgm")

    outs, reports = [], []
    for run in range(2):
        data = tmp_path / f"data{run}"
        assert cli([
            "gen-dataset", "--source", str(src), "--preset", "middle",
            "--count", "4", "--seed", "11", "--crop", "128",
            "--mask-radius", "60", "--out", str(data),
        ]) == 0
        report_path = tmp_path / f"report{run}.json"
        assert cli(["benchmark", "--dataset", str(data), "--report", str(report_path)]) == 0
        outs.append(data)
        reports.append(json.loads(report_path.read_text()))

    sidecars_identical = all(
        (outs[0] / "gt" / f"{i:04d}.json").read_bytes()
        == (outs[1] / "gt" / f"{i:04d}.json").read_bytes()
        and (outs[0] / "pairs" / f"{i:04d}_t.pgm").read_bytes()
        == (outs[1] / "pairs" / f"{i:04d}_t.pgm").read_bytes()
        for i in range(4)
    )
    a, b = reports
    reports_identical = (
        a["mace"] == b["mace"]
        and [s["corner_error"] for s in a["samples"]] == [s["corner_error"] for s in b["samples"]]
        and [s["b_hat"] for s in a["samples"]] == [s["b_hat"] for s in b["samples"]]
        and a["precision_curve"] == b["precision_curve"]
    )
    ok = sidecars_identical and reports_identical
    report(7, ok, f"sidecars byte-identical: {sidecars_identical}, "
                  f"reports identical: {reports_identical}")
    assert sidecars_identical
    assert reports_identical


def test_criterion_8_sensitivity_diagnostic():
    worst = 0.0
    for k, kind in enumerate(WarpKind):
        probe = texture(256, seed=800 + k)
        for coeff in COEFF_INDICES[kind]:
            lo, hi = COEFF_RANGE[coeff]
            result = warp_sensitivity(
                kind,
                np.linspace(lo, hi, 5),
                [0.0],
                probe,
                primary_coeff=coeff,
            )
            gaps = np.linalg.norm(result.offsets[:, 0, :] - result.predicted, axis=1)
            worst = max(worst, float(gaps.max()))
    ok = worst <= 1.0
    report(8, ok, f"max |measured - analytic| = {worst:.2f}px with identity nuisance")
    assert worst <= 1.0
