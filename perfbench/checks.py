"""Output checks that do not depend on how the program computes its results.

Every check raises `CheckFailed` on a wrong output.  The benchmark runs
them outside the timed interval; an op whose check fails counts as failed.
"""

from __future__ import annotations

import math

import numpy as np

# Acceptance tolerance of the golden dip width (tests/test_acceptance.py).
DIP_WIDTH_TOL_PS = 1e-6
# tests/golden/central_dip_width.json pins 3.6891351242837125 ps on a
# 0.005 ps zoom grid.  `bfcsim report` samples its zoom scan at 0.02 ps,
# which reads 5.4e-4 ps wider; this is the report grid's value on the
# seed code, held to the same tolerance.
REPORT_DIP_WIDTH_45GHZ_PS = 3.689673739189578

# |C - closed form| allowed on every checked delay, on top of the
# truncation allowance below.  On the presets the gap is <= 8.1e-9.
TRACE_TOL = 1e-6
TRACE_RANDOM_SAMPLES = 48

# simulate_hom_trace's defaults, which fix the direct quadrature's grid.
POINTS_PER_LINEWIDTH = 32
PAD_BINS = 2.0


class CheckFailed(AssertionError):
    """A program output failed its correctness check."""


def quad_freq_samples(n_max: int, fsr_rad_s: float, half_width_rad_s: float) -> int:
    """Frequency samples of the direct HOM quadrature for one comb."""
    step = 2.0 * half_width_rad_s / POINTS_PER_LINEWIDTH
    return 2 * int(math.ceil((n_max + PAD_BINS) * fsr_rad_s / step)) + 1


def truncation_allowance(comb) -> float:
    """Bound on |V| error from the quadrature's span ending PAD_BINS past the comb.

    With eps the comb-weighted squared-Lorentzian mass outside the span,
    the normalized cosine transform moves by at most 2 eps / (1 - eps).
    It reaches ~2e-6 at finesse 3 with a sinc_squared envelope, where the
    measured gap is ~1.4e-6, and ~1e-8 on the presets.
    """
    h = comb.half_width_rad_s
    edge = (comb.n_max + PAD_BINS) * comb.fsr_rad_s
    centers = comb.bins * comb.fsr_rad_s

    def tail(u):  # mass of (h^2 + x^2)^-2 beyond x = u h, as a fraction
        return (0.5 * math.pi - np.arctan(u) - u / (1.0 + u * u)) / math.pi

    eps = float(comb.bin_weights @ (tail((edge - centers) / h) + tail((edge + centers) / h)))
    return 2.0 * eps / (1.0 - eps)


def closed_form_coincidence(comb, delays_ps, accidental_fraction: float = 0.0) -> np.ndarray:
    """Coincidence of Lorentzian comb bins in closed form.

    ``C = 1 - (1 - a) sum_m w_m cos(2 m Omega tau) (1 + 2g|tau|) e^{-2g|tau|}``
    with ``Omega`` the FSR and ``g = pi * linewidth`` (both angular).
    """
    tau = np.asarray(delays_ps, dtype=float) * 1e-12
    g = comb.half_width_rad_s
    envelope = (1.0 + 2.0 * g * np.abs(tau)) * np.exp(-2.0 * g * np.abs(tau))
    phases = 2.0 * comb.fsr_rad_s * np.outer(tau, comb.bins)
    visibility = (np.cos(phases) @ comb.bin_weights) * envelope
    return np.clip(1.0 - (1.0 - accidental_fraction) * visibility, 0.0, None)


def check_trace(delays_ps, coincidence, comb, rng, accidental_fraction: float = 0.0) -> float:
    """Compare a trace with the closed form on a seeded subsample of its delays.

    The subsample is `TRACE_RANDOM_SAMPLES` random delays plus the delay
    nearest each revival center, so a shifted or shallower dip shows.  The
    tolerance is `TRACE_TOL` plus the comb's `truncation_allowance`.
    Returns the largest gap seen.
    """
    delays = np.asarray(delays_ps, dtype=float)
    c = np.asarray(coincidence, dtype=float)
    period = 0.5 * comb.round_trip_ps
    n = np.arange(math.ceil(delays[0] / period), math.floor(delays[-1] / period) + 1)
    nearest = np.clip(np.searchsorted(delays, n * period), 0, delays.size - 1)
    left = np.clip(nearest - 1, 0, None)
    nearest = np.where(
        np.abs(delays[left] - n * period) < np.abs(delays[nearest] - n * period), left, nearest
    )
    picked = rng.choice(delays.size, size=min(TRACE_RANDOM_SAMPLES, delays.size), replace=False)
    idx = np.union1d(picked, nearest)
    gap = np.abs(c[idx] - closed_form_coincidence(comb, delays[idx], accidental_fraction))
    worst = float(gap.max())
    tol = TRACE_TOL + truncation_allowance(comb)
    if not worst <= tol:
        j = idx[int(np.argmax(gap))]
        raise CheckFailed(
            f"trace deviates from the closed form by {worst:.3e} at {delays[j]!r} ps "
            f"(tolerance {tol:.3g})"
        )
    return worst


def check_report(report: dict, preset: str) -> None:
    """Every headline inside the report's own bands; 45ghz dip width pinned."""
    for key, (lo, hi) in report["bands"].items():
        value = report[key]
        if not lo <= value <= hi:
            raise CheckFailed(f"{preset}: {key}={value!r} outside its band [{lo}, {hi}]")
    if preset == "45ghz":
        width = report["central_dip_width_ps"]
        if not abs(width - REPORT_DIP_WIDTH_45GHZ_PS) <= DIP_WIDTH_TOL_PS:
            raise CheckFailed(
                f"45ghz central_dip_width_ps={width!r}, pinned {REPORT_DIP_WIDTH_45GHZ_PS!r}"
            )


def check_matrix(path, size: int) -> None:
    """A written correlation matrix is size x size, nonnegative and sums to 1."""
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    if values.shape != (size, size):
        raise CheckFailed(f"{path}: shape {values.shape}, expected {(size, size)}")
    if float(values.min()) < 0.0:
        raise CheckFailed(f"{path}: negative entry {float(values.min())!r}")
    if not abs(float(values.sum()) - 1.0) <= 1e-9:
        raise CheckFailed(f"{path}: entries sum to {float(values.sum())!r}, not 1")
