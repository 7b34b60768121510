"""Polarization-entanglement fringes and CHSH Bell-test statistics.

The post-selected polarization state produces coincidence fringes
``R = (1 - V cos(2(phi1 + phi2))) / 2`` between two linear polarizers.
Four such correlations at the standard angle set combine into the CHSH
S parameter with quantum maximum ``2 sqrt(2)``; with fringe visibility V
the noiseless value is exactly ``2 sqrt(2) V``.  Counting noise is
Poissonian and propagates through each correlation into the S-parameter
error, giving the violation significance ``(S - 2) / sigma_S``.
"""

from __future__ import annotations

import math

import numpy as np

# (phi1, phi1', phi2, phi2') in degrees; optimal for the fringe law used here.
DEFAULT_ANGLES_DEG = (45.0, 90.0, 112.5, 157.5)

S_QUANTUM_MAX = 2.0 * math.sqrt(2.0)


def fringe_rate(phi1_deg: float, phi2_deg: float, visibility: float) -> float:
    """Normalized coincidence rate for polarizers at phi1 and phi2."""
    if not (0.0 <= visibility <= 1.0):
        raise ValueError(f"visibility must lie in [0, 1], got {visibility!r}")
    arg = math.radians(2.0 * (phi1_deg + phi2_deg))
    return 0.5 * (1.0 - visibility * math.cos(arg))


def _poisson_counts(settings, visibility: float, integration: float, rng) -> np.ndarray:
    """Counts at each (phi1, phi2) setting, Poisson with mean ``integration * fringe_rate``."""
    if integration <= 0.0:
        raise ValueError("integration must be > 0")
    return rng.poisson([integration * fringe_rate(p, q, visibility) for p, q in settings])


def simulate_fringe_scan(
    fixed_deg: float,
    scan_angles_deg,
    visibility: float,
    integration: float,
    seed: int,
) -> np.recarray:
    """Poisson-sampled fringe scan; `integration` sets the full-fringe mean count.

    The scan is a read-only record array with the fields ``phi2_deg``, the
    scanned angle, and ``counts``, the columns of ``chsh_fringes.csv`` after ``phi1_deg``.
    """
    angles = np.array(scan_angles_deg, dtype=float)
    settings = [(fixed_deg, a) for a in angles]
    counts = _poisson_counts(settings, visibility, integration, np.random.default_rng(seed))
    scan = np.rec.fromarrays([angles, counts], dtype=[("phi2_deg", float), ("counts", np.int64)])
    scan.flags.writeable = False
    return scan


def violation_sigmas(s_value: float, s_sigma: float) -> float:
    """Standard deviations by which S exceeds the classical bound of 2."""
    if s_value <= 2.0:
        return 0.0
    if s_sigma == 0.0:
        return math.inf
    return (s_value - 2.0) / s_sigma


def _angle_pairs(angles, caller: str):
    """The four (phi1, phi2) settings of a CHSH test, in the order `_chsh_result` combines.

    Every angle must be finite, and so must the phase ``2(phi1 + phi2)`` of
    every setting counted, with each arm also at +90 degrees as in
    `simulate_chsh_counts`.
    """
    if len(angles) != 4:
        raise ValueError(f"{caller}: angles must be (phi1, phi1', phi2, phi2')")
    phi1, phi1p, phi2, phi2p = angles
    pairs = ((phi1, phi2), (phi1, phi2p), (phi1p, phi2), (phi1p, phi2p))
    # A non-finite angle makes some phase non-finite too.
    phases = [
        2.0 * (p + q)
        for a, b in pairs
        for p, q in ((a, b), (a, b + 90.0), (a + 90.0, b), (a + 90.0, b + 90.0))
    ]
    if not all(map(math.isfinite, phases)):
        raise ValueError(
            f"{caller}: angles must be finite, and so must each setting's phase "
            f"2(phi1 + phi2); got {tuple(map(float, angles))}"
        )
    return pairs


def _chsh_result(e_values, errors) -> dict:
    """The four correlations, S, its error, and the violation significance."""
    # CHSH combination with the minus sign on the (phi1', phi2') term;
    # this is the arrangement the standard angle set maximizes.
    e1, e2, e3, e4 = e_values
    s = abs(e1 + e2 + e3 - e4)
    sigma = math.sqrt(sum(err**2 for err in errors))
    return {
        "correlations": tuple(e_values),
        "s_value": s,
        "s_sigma": sigma,
        "violation_sigmas": violation_sigmas(s, sigma),
    }


def s_chsh(visibility: float, angles=DEFAULT_ANGLES_DEG) -> dict:
    """Noiseless CHSH S parameter for a fringe visibility.

    The four correlations ``-V cos 2(phi1 + phi2)`` are computed at
    (phi1,phi2), (phi1,phi2'), (phi1',phi2), (phi1',phi2'), giving
    S = 2 sqrt(2) V at the default angles.
    """
    pairs = _angle_pairs(angles, "s_chsh")
    if not (0.0 <= visibility <= 1.0):
        raise ValueError("s_chsh: visibility must lie in [0, 1]")
    e_values = [-visibility * math.cos(math.radians(2.0 * (a + b))) for a, b in pairs]
    return _chsh_result(e_values, [0.0] * 4)


def s_fringe_from_visibility(v_mean: float) -> float:
    """Maximal achievable S implied by a mean fringe visibility."""
    if not (0.0 <= v_mean <= 1.0):
        raise ValueError("s_fringe_from_visibility: visibility must lie in [0, 1]")
    return S_QUANTUM_MAX * v_mean


def simulate_chsh_counts(
    visibility: float,
    integration: float,
    seed: int,
    angles=DEFAULT_ANGLES_DEG,
) -> dict:
    """CHSH result from Poisson-sampled coincidence counts.

    For each of the four angle pairs, four polarizer settings (each arm at
    its angle and at +90 degrees) are counted with mean
    ``integration * fringe_rate``.  From the counts c at (a, b), (a, b+90),
    (a+90, b), (a+90, b+90), the correlation is
    ``E = (c0 + c3 - c1 - c2) / sum(c)``, with Poisson standard error
    ``sqrt((1 - E)^2 (c0 + c3) + (1 + E)^2 (c1 + c2)) / sum(c)``; the errors
    add in quadrature into the error of S.
    """
    pairs = _angle_pairs(angles, "simulate_chsh_counts")
    rng = np.random.default_rng(seed)
    e_values = []
    errors = []
    for a, b in pairs:
        settings = ((a, b), (a, b + 90.0), (a + 90.0, b), (a + 90.0, b + 90.0))
        c = _poisson_counts(settings, visibility, integration, rng).astype(float)
        total = float(c.sum())
        if total <= 0.0:
            raise ValueError("simulate_chsh_counts: zero total counts")
        e = float((c[0] + c[3] - c[1] - c[2]) / total)
        var = ((1.0 - e) ** 2 * (c[0] + c[3]) + (1.0 + e) ** 2 * (c[1] + c[2])) / total**2
        e_values.append(e)
        errors.append(math.sqrt(var))
    return _chsh_result(e_values, errors)
