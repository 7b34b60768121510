"""Schmidt-mode analysis in the frequency-bin and time-bin bases.

The Schmidt number ``K = 1 / sum(lambda^2)`` (with eigenvalues summing
to 1) counts the effective modes of a bipartite pure state.  In the
frequency basis the eigenvalues come from a singular value decomposition
of the joint spectral amplitude, which in turn is approximated as the
elementwise square root of the measured joint spectral intensity (a
pure-state assumption; every JSI-derived K is amplitude-approximated in
that sense).  In the time basis the comb's geometric temporal decay gives
the eigenvalues in closed form,

    lambda_n = exp(-2 pi |n| / F) / sum_k exp(-2 pi |k| / F),  |n| <= N,

so K follows from the finesse alone.  A fitted decay rate extracted from
measured revival visibilities can replace pi/F, which is how experimental
traces are folded into the same formula.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .comb import CavitySpec, CombSpectrum, SourceSpec
from .hom import visibility_to_decay_parameter
from .jsi import Jsi

# Published ideal frequency-bin Schmidt numbers for the three cavities,
# quoted for side-by-side reporting; they come from a derivation outside
# this package's scope and are not reproduced by the envelope-weighted
# diagonal computed here.
REFERENCE_IDEAL_K_FREQ = {"45ghz": 4.9, "15ghz": 20.0, "5ghz": 34.0}


def _spectrum_from_weights(
    weights: np.ndarray, bin_indices: np.ndarray | None = None
) -> np.recarray:
    """Weights normalized and sorted descending, as read-only ``(n, eigenvalue)`` rows.

    ``n`` is the physical bin label of each eigenvalue where one exists
    (time basis, ideal frequency basis), else its rank.
    """
    lam = np.asarray(weights, dtype=float)
    total = lam.sum()
    if total <= 0.0:
        raise ValueError("Schmidt eigenvalues cannot be normalized: zero total weight")
    lam = lam / total
    order = np.argsort(lam)[::-1]
    n = np.arange(lam.size) if bin_indices is None else np.asarray(bin_indices)[order]
    spectrum = np.rec.fromarrays([n, lam[order]], dtype=[("n", np.int64), ("eigenvalue", float)])
    spectrum.flags.writeable = False
    return spectrum


def schmidt_number(spectrum: np.recarray) -> float:
    """K = 1 / sum(lambda^2) of a spectrum's normalized eigenvalues."""
    e = spectrum.eigenvalue
    return 1.0 / float(np.sum(e * e))


def jsa_from_jsi(jsi: Jsi) -> np.ndarray:
    """Amplitude matrix: elementwise square root, Frobenius-normalized.

    A `Jsi`'s cells are nonnegative, so the root is real.  This is the
    pure-state approximation; phases are unrecoverable from intensity data.
    """
    amp = np.sqrt(jsi.values)
    norm = float(np.linalg.norm(amp))
    if norm == 0.0:
        raise ValueError("jsa_from_jsi: zero matrix has no amplitude")
    return amp / norm


def schmidt_decompose(jsa: np.ndarray) -> np.recarray:
    """Schmidt spectrum of an amplitude matrix via singular values.

    Eigenvalues are the squared singular values normalized to 1, making
    the result invariant under global scaling and under row or column
    permutations of the input.
    """
    a = np.asarray(jsa, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("schmidt_decompose: input must be a nonempty 2-d matrix")
    s = np.linalg.svd(a, compute_uv=False)
    return _spectrum_from_weights(s * s)


def time_bin_eigenvalues(cavity: CavitySpec, n_max: int) -> np.recarray:
    """Closed-form time-bin Schmidt spectrum for |n| <= n_max."""
    if n_max < 0:
        raise ValueError("time_bin_eigenvalues: n_max must be >= 0")
    n = np.arange(-n_max, n_max + 1)
    weights = np.exp(-2.0 * math.pi * np.abs(n) / cavity.finesse)
    return _spectrum_from_weights(weights, bin_indices=n)


def fit_decay_parameter(visibility_points) -> float:
    """Per-bin decay rate from (n, visibility) pairs.

    Each visibility is inverted to its decay parameter ``x_n`` and the
    slope of ``x = rate * |n|`` is fit by unweighted least squares through
    the origin (the model forces visibility 1 at n = 0 exactly).  The sum
    of ``n * n`` must be a finite float: no n may exceed about 1.3e154.
    """
    pts = [(int(n), float(v)) for n, v in visibility_points]
    if len(pts) < 2:
        raise ValueError("fit_decay_parameter: at least 2 visibility points required")
    if all(n == 0 for n, _ in pts):
        raise ValueError("fit_decay_parameter: degenerate fit, all points at n = 0")
    for n, v in pts:
        if not (0.0 < v <= 1.0):
            raise ValueError(f"fit_decay_parameter: visibility {v!r} at n={n} outside (0, 1]")
    den = sum(n * n for n, _ in pts)
    if den > sys.float_info.max:
        n = max((n for n, _ in pts), key=abs)
        raise ValueError(f"fit_decay_parameter: n={n} too large, sum of n*n not a finite float")
    n, v = np.array(pts, dtype=float).T
    return float(np.abs(n) @ visibility_to_decay_parameter(v)) / den


def time_bin_spectrum_from_visibilities(visibility_points, n_max: int) -> np.recarray:
    """Time-bin Schmidt spectrum with pi/F replaced by a fitted decay rate."""
    if n_max < 0:
        raise ValueError("time_bin_spectrum_from_visibilities: n_max must be >= 0")
    rate = fit_decay_parameter(visibility_points)
    n = np.arange(-n_max, n_max + 1)
    weights = np.exp(-2.0 * rate * np.abs(n))
    return _spectrum_from_weights(weights, bin_indices=n)


def window_limited_n_max(cavity: CavitySpec, delay_window_ps: float) -> int:
    """Largest revival index whose dip fits inside a +/- delay window."""
    if delay_window_ps <= 0.0:
        raise ValueError("delay window must be positive")
    return int(delay_window_ps / (0.5 * cavity.round_trip_ps))


def dimensionality_report(
    k_time: float, k_freq: float, cavity: CavitySpec, source: SourceSpec
) -> dict:
    """Hilbert-space dimensionality summary: the dict that ``dimensionality.json`` holds.

    The headline number is ``2 * floor(k_time)^2``: squared because the
    time-bin state is bipartite, doubled by the polarization subspace,
    floored because fractional Schmidt modes do not add a usable
    dimension.  ``floor(k_freq)^2`` is reported for the frequency basis.
    The usable mode counts sit beside it: the frequency-bin count is the
    phase-matching bandwidth over the FSR, and the time-bin count within an
    inverse cavity linewidth equals the finesse.
    """
    if k_time < 1.0 or k_freq < 1.0:
        raise ValueError("dimensionality_report: Schmidt numbers must be >= 1")
    n_freq = source.phase_matching_fwhm_hz / cavity.fsr_hz
    return {
        "k_time": k_time,
        "k_freq": k_freq,
        "n_time_bins": cavity.finesse,
        "n_freq_bins": n_freq,
        "product_nt_nomega": cavity.finesse * n_freq,
        "product_kt_komega": k_time * k_freq,
        "polarization_factor": 2,
        "total_dimensionality": 2 * int(k_time) ** 2,
        "freq_dimensionality": int(k_freq) ** 2,
    }


def ideal_frequency_spectrum(comb: CombSpectrum) -> np.recarray:
    """Frequency-bin Schmidt spectrum of the ideal (anticorrelated) JSI.

    For a strictly anticorrelated matrix the singular values are the
    square roots of the bin weights, so the eigenvalues are the weights
    themselves; computed directly rather than through an SVD.
    """
    return _spectrum_from_weights(comb.bin_weights, bin_indices=comb.bins)
