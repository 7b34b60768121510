"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and nowhere else.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from bfcsim import (
    DEFAULT_SOURCE,
    FilterSpec,
    SourceSpec,
    build_comb,
    cavity_preset,
    central_dip_width,
    crosstalk_db,
    dip_visibility_closed_form,
    jsa_from_jsi,
    locate_revivals,
    s_chsh,
    s_fringe_from_visibility,
    scan_correlation_matrix,
    schmidt_decompose,
    simulate_hom_trace,
    time_bin_eigenvalues,
    violation_sigmas,
)
from bfcsim.config import preset_config
from bfcsim.hom import quadrature_visibility
from bfcsim.report import run_report
from bfcsim.schmidt import ideal_frequency_spectrum, schmidt_number
from conftest import ideal_jsi

GOLDEN_PATH = Path(__file__).parent / "golden" / "central_dip_width.json"

DELTA = FilterSpec(fwhm_hz=0.0)


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_time_bin_schmidt_numbers():
    t0 = time.perf_counter()
    cases = [
        ("45ghz", 30, 18.30, 0.05),
        ("15ghz", 10, 6.71, 0.15),  # window-limited n_max = floor(340 / 33.0 ps)
        ("5ghz", 3, 5.16, 0.05),
    ]
    details = []
    ok = True
    for preset, n_max, expected, tol in cases:
        k = schmidt_number(time_bin_eigenvalues(cavity_preset(preset), n_max))
        ok &= abs(k - expected) <= tol
        details.append(f"{preset} N={n_max}: K={k:.4f} vs {expected}+/-{tol}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _criterion(1, "time-bin Schmidt numbers", ok, "; ".join(details) + f"; {elapsed:.3f}s")


def test_criterion_2_hom_oracle_vs_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    worst_case = ""
    for preset in ("45ghz", "15ghz", "5ghz"):
        cavity = cavity_preset(preset)
        comb = build_comb(cavity, DEFAULT_SOURCE)
        half_rt = cavity.round_trip_ps / 2.0
        delays = np.array([n * half_rt for n in range(-10, 11)], dtype=float)
        vis = quadrature_visibility(comb, delays)
        for tau, v in zip(delays, vis):
            n = round(tau / half_rt)
            err = abs(v - dip_visibility_closed_form(n, cavity))
            if err > worst:
                worst, worst_case = err, f"{preset} n={n}"
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-3 and elapsed < 30.0
    _criterion(
        2,
        "HOM oracle vs closed form |n|<=10",
        ok,
        f"worst |dV|={worst:.2e} at {worst_case}; {elapsed:.1f}s",
    )


def test_criterion_3_revival_structure():
    t0 = time.perf_counter()
    comb = build_comb(cavity_preset("45ghz"), DEFAULT_SOURCE)
    delays = np.arange(-340.0, 340.0 + 0.1, 0.2)
    trace = simulate_hom_trace(comb, delays)
    records = locate_revivals(trace)
    centers = np.array([r.center_ps for r in records])
    spacing = float(np.mean(np.diff(centers)))
    elapsed = time.perf_counter() - t0
    ok = len(records) == 61 and abs(spacing - 11.03) <= 0.05 and elapsed < 30.0
    _criterion(
        3,
        "61 revivals at 11.03 ps spacing",
        ok,
        f"{len(records)} dips, spacing {spacing:.4f} ps; {elapsed:.1f}s",
    )


def test_criterion_4_central_dip_width_golden(zoom_trace_45):
    golden = json.loads(GOLDEN_PATH.read_text())
    width = central_dip_width(zoom_trace_45, threshold=golden["threshold"])
    in_band = 3.2 <= width <= 4.5
    matches_golden = abs(width - golden["width_ps"]) <= 1e-6
    _criterion(
        4,
        "central dip base-to-base width",
        in_band and matches_golden,
        f"width={width:.6f} ps, band [3.2, 4.5], golden {golden['width_ps']:.6f}",
    )


def test_criterion_5_crosstalk_calibration(cavity_45):
    # Flat comb so every anticorrelated cell sits at the same level: the
    # scan then reports the calibrated floor ratio exactly.
    flat = build_comb(cavity_45, SourceSpec(phase_matching_fwhm_hz=1e15), 2)
    x2 = crosstalk_db(scan_correlation_matrix(flat, DELTA, 2, pump_power_mw=2.0))
    x4 = crosstalk_db(scan_correlation_matrix(flat, DELTA, 2, pump_power_mw=4.0))
    ok = abs(x2 - (-11.71)) <= 0.1 and abs(x4 - (-6.31)) <= 0.1
    _criterion(
        5,
        "cross-talk calibration closure",
        ok,
        f"2 mW: {x2:.4f} dB (target -11.71+/-0.1); 4 mW: {x4:.4f} dB (target -6.31+/-0.1)",
    )


def test_criterion_6_chsh_values():
    s_f = s_fringe_from_visibility(0.9796)
    s_c = s_chsh(visibility=0.9497)["s_value"]
    sigmas = violation_sigmas(2.686, 0.037)
    ok = (
        abs(s_f - 2.771) <= 0.002
        and abs(s_c - 2.686) <= 0.002
        and abs(sigmas - 18.5) <= 0.1
    )
    _criterion(
        6,
        "CHSH S values and violation significance",
        ok,
        f"S_fringe={s_f:.4f}, S_chsh={s_c:.4f}, violation={sigmas:.2f} sigma",
    )


def test_criterion_7_dimensionality_report(tmp_path):
    config = preset_config("45ghz", output_dir=str(tmp_path / "report45"))
    report = run_report(config)
    ok = report["total_dimensionality"] == 648 and report["time_dimensionality"] == 324
    _criterion(
        7,
        "45.32 GHz pipeline dimensionality",
        ok,
        f"total={report['total_dimensionality']} (648), "
        f"time-bin={report['time_dimensionality']} (324)",
    )


def test_criterion_8_property_suite(cavity_45, cavity_15, comb_45, comb_15):
    checks: list[tuple[str, bool]] = []

    # eigenvalue normalization to 1e-10
    for n_max in (5, 30):
        spec = time_bin_eigenvalues(cavity_45, n_max)
        checks.append((f"norm n_max={n_max}", abs(float(spec.eigenvalue.sum()) - 1.0) <= 1e-10))

    # K = d for uniform diagonal amplitudes
    for d in (2, 5, 19):
        k = schmidt_number(schmidt_decompose(np.eye(d) / math.sqrt(d)))
        checks.append((f"uniform d={d}", abs(k - d) <= 1e-9))

    # invariance under scaling and permutation
    rng = np.random.default_rng(23)
    a = rng.random((40, 40))
    k_ref = schmidt_number(schmidt_decompose(a))
    perm = rng.permutation(40)
    k_scaled = schmidt_number(schmidt_decompose(3.7 * a))
    checks.append(("scaling", abs(k_scaled - k_ref) <= 1e-9 * k_ref))
    k_permuted = schmidt_number(schmidt_decompose(a[perm][:, perm]))
    checks.append(("permutation", abs(k_permuted - k_ref) <= 1e-9 * k_ref))

    # degraded-JSI K strictly decreases from the 2 mW to the 4 mW floor
    k2 = schmidt_number(
        schmidt_decompose(jsa_from_jsi(scan_correlation_matrix(comb_45, DELTA, 2, 2.0)))
    )
    k4 = schmidt_number(
        schmidt_decompose(jsa_from_jsi(scan_correlation_matrix(comb_45, DELTA, 2, 4.0)))
    )
    checks.append((f"floor degrades K ({k2:.3f} -> {k4:.3f})", k4 < k2))

    # bin-count product agreement within 15% (nearly identical linewidths)
    p45 = (245.0 / 45.32) * cavity_45.finesse
    p15 = (245.0 / 15.15) * cavity_15.finesse
    checks.append(("bin-count products 15%", abs(p15 / p45 - 1.0) <= 0.15))

    # Schmidt product agreement within 25%
    kt45 = schmidt_number(time_bin_eigenvalues(cavity_45, 30))
    kt15 = schmidt_number(time_bin_eigenvalues(cavity_15, 10))
    kf45 = schmidt_number(ideal_frequency_spectrum(comb_45))
    kf15 = schmidt_number(ideal_frequency_spectrum(comb_15))
    checks.append(
        ("Schmidt products 25%", abs((kt15 * kf15) / (kt45 * kf45) - 1.0) <= 0.25)
    )

    # SVD route vs Gram-matrix eigen-decomposition oracle, random 50x50
    worst = 0.0
    for seed in range(3):
        m = np.random.default_rng(seed).random((50, 50))
        lam = schmidt_decompose(m).eigenvalue
        gram = np.clip(np.linalg.eigvalsh(m.T @ m), 0.0, None)
        lam_oracle = np.sort(gram / gram.sum())[::-1]
        worst = max(worst, float(np.max(np.abs(lam - lam_oracle))))
    checks.append((f"SVD vs Gram oracle ({worst:.1e})", worst <= 1e-10))

    failed = [name for name, ok in checks if not ok]
    _criterion(
        8,
        "property suite",
        not failed,
        f"{len(checks)} checks" + (f"; failed: {', '.join(failed)}" if failed else ""),
    )


def test_criterion_7b_ideal_jsi_consistency(comb_45):
    # Sanity tie-in for the report's frequency-basis numbers: the ideal
    # matrix decomposes exactly to the comb weights.
    spec = schmidt_decompose(jsa_from_jsi(ideal_jsi(comb_45)))
    expected = np.sort(comb_45.bin_weights)[::-1]
    assert float(np.max(np.abs(spec.eigenvalue - expected))) <= 1e-10
