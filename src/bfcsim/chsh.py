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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# (phi1, phi1', phi2, phi2') in degrees; optimal for the fringe law used here.
DEFAULT_ANGLES_DEG = (45.0, 90.0, 112.5, 157.5)

S_QUANTUM_MAX = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class FringeScan:
    """Coincidence counts versus the scanned polarizer angle."""

    fixed_angle_deg: float
    scan_angles_deg: np.ndarray
    counts: np.ndarray
    integration: float

    def __post_init__(self) -> None:
        a = np.asarray(self.scan_angles_deg, dtype=float)
        c = np.asarray(self.counts)
        object.__setattr__(self, "scan_angles_deg", a)
        object.__setattr__(self, "counts", c)
        if a.ndim != 1 or a.shape != c.shape:
            raise ValueError("FringeScan: angle and count arrays must have equal length")
        if np.any(c < 0):
            raise ValueError("FringeScan: counts must be nonnegative")
        a.setflags(write=False)
        c.setflags(write=False)


@dataclass(frozen=True)
class ChshResult:
    """Four correlations, the S parameter, its error, and the violation significance."""

    correlations: tuple[float, float, float, float]
    s_value: float
    s_sigma: float
    violation_sigmas: float

    def __post_init__(self) -> None:
        if len(self.correlations) != 4:
            raise ValueError("ChshResult: exactly four correlations required")
        for e in self.correlations:
            if abs(e) > 1.0 + 1e-9:
                raise ValueError(f"ChshResult: correlation {e!r} outside [-1, 1]")
        if abs(self.s_value) > S_QUANTUM_MAX + 3.0 * self.s_sigma + 1e-9:
            raise ValueError(
                f"ChshResult: s_value {self.s_value!r} unphysical for sigma {self.s_sigma!r}"
            )


class FringeFit(NamedTuple):
    visibility: float
    phase_deg: float
    amplitude: float


def fringe_rate(phi1_deg: float, phi2_deg: float, visibility: float) -> float:
    """Normalized coincidence rate for polarizers at phi1 and phi2."""
    if not (0.0 <= visibility <= 1.0):
        raise ValueError(f"visibility must lie in [0, 1], got {visibility!r}")
    arg = math.radians(2.0 * (phi1_deg + phi2_deg))
    return 0.5 * (1.0 - visibility * math.cos(arg))


def simulate_fringe_scan(
    fixed_deg: float,
    scan_angles_deg,
    visibility: float,
    integration: float,
    seed: int,
) -> FringeScan:
    """Poisson-sampled fringe scan; `integration` sets the full-fringe mean count."""
    if integration <= 0.0:
        raise ValueError("simulate_fringe_scan: integration must be > 0")
    angles = np.asarray(scan_angles_deg, dtype=float)
    rng = np.random.default_rng(seed)
    means = np.array([integration * fringe_rate(fixed_deg, a, visibility) for a in angles])
    counts = rng.poisson(means)
    return FringeScan(
        fixed_angle_deg=fixed_deg,
        scan_angles_deg=angles,
        counts=counts,
        integration=integration,
    )


def fit_fringe(scan: FringeScan, accidental_floor: float = 0.0) -> FringeFit:
    """Least-squares sinusoid fit ``a + b cos(2 phi + c)`` to a fringe scan.

    Linear in the basis (1, cos 2phi, sin 2phi), so the fit is exact for
    noiseless model data.  The visibility is |b|/a after subtracting an
    optional uniform accidental floor from all counts.  A flat scan
    returns zero visibility with the phase flagged as NaN.
    """
    angles = scan.scan_angles_deg
    if angles.size < 6:
        raise ValueError("fit_fringe: at least 6 scan angles required")
    if float(angles.max() - angles.min()) < 180.0:
        raise ValueError("fit_fringe: scan must span at least 180 degrees")
    y = scan.counts.astype(float) - accidental_floor
    phi = np.radians(angles)
    basis = np.column_stack([np.ones_like(phi), np.cos(2.0 * phi), np.sin(2.0 * phi)])
    coef, residual, rank, _ = np.linalg.lstsq(basis, y, rcond=None)
    a, p, q = coef
    if rank < 3:
        raise ValueError(f"fit_fringe: degenerate design matrix (rank {rank}), residual {residual}")
    if a <= 0.0:
        raise ValueError(f"fit_fringe: nonpositive mean level {a!r}; cannot form a visibility")
    amplitude = math.hypot(p, q)
    if amplitude / a < 1e-12:
        return FringeFit(visibility=0.0, phase_deg=math.nan, amplitude=amplitude)
    phase = math.degrees(math.atan2(-q, p))
    return FringeFit(visibility=min(amplitude / a, 1.0), phase_deg=phase, amplitude=amplitude)


def correlation_E(counts_4) -> float:
    """Correlation from coincidences at (p1,p2), (p1,p2+90), (p1+90,p2), (p1+90,p2+90)."""
    c = np.asarray(counts_4, dtype=float)
    if c.shape != (4,):
        raise ValueError("correlation_E: exactly four counts required")
    total = float(c.sum())
    if total <= 0.0:
        raise ValueError("correlation_E: zero total counts")
    return float((c[0] + c[3] - c[1] - c[2]) / total)


def correlation_E_error(counts_4) -> float:
    """Poisson standard error of `correlation_E` for the same four counts."""
    c = np.asarray(counts_4, dtype=float)
    total = float(c.sum())
    if total <= 0.0:
        raise ValueError("correlation_E_error: zero total counts")
    e = correlation_E(c)
    var = ((1.0 - e) ** 2 * (c[0] + c[3]) + (1.0 + e) ** 2 * (c[1] + c[2])) / total**2
    return math.sqrt(var)


def violation_sigmas(s_value: float, s_sigma: float) -> float:
    """Standard deviations by which S exceeds the classical bound of 2."""
    if s_value <= 2.0:
        return 0.0
    if s_sigma == 0.0:
        return math.inf
    return (s_value - 2.0) / s_sigma


def _analytic_correlation(phi1_deg: float, phi2_deg: float, visibility: float) -> float:
    return -visibility * math.cos(math.radians(2.0 * (phi1_deg + phi2_deg)))


def _angle_pairs(angles, caller: str):
    """The four (phi1, phi2) settings of a CHSH test, in the order `_chsh_result` combines."""
    if len(angles) != 4:
        raise ValueError(f"{caller}: angles must be (phi1, phi1', phi2, phi2')")
    phi1, phi1p, phi2, phi2p = angles
    return ((phi1, phi2), (phi1, phi2p), (phi1p, phi2), (phi1p, phi2p))


def _chsh_result(e_values, variances) -> ChshResult:
    # CHSH combination with the minus sign on the (phi1', phi2') term;
    # this is the arrangement the standard angle set maximizes.
    e1, e2, e3, e4 = e_values
    s = abs(e1 + e2 + e3 - e4)
    sigma = math.sqrt(sum(variances))
    return ChshResult(tuple(e_values), s, sigma, violation_sigmas(s, sigma))


def s_chsh(
    visibility: float | None = None,
    correlations=None,
    errors=None,
    angles=DEFAULT_ANGLES_DEG,
) -> ChshResult:
    """CHSH S parameter from a fringe visibility or four measured correlations.

    The four correlations are taken (or computed) at (phi1,phi2),
    (phi1,phi2'), (phi1',phi2), (phi1',phi2').  With a visibility the
    path is analytic and noiseless, giving S = 2 sqrt(2) V at the default
    angles; with measured correlations, per-correlation errors propagate
    in quadrature into s_sigma.
    """
    if (visibility is None) == (correlations is None):
        raise ValueError("s_chsh: provide exactly one of visibility or correlations")
    pairs = _angle_pairs(angles, "s_chsh")
    variances = [0.0] * 4
    if visibility is not None:
        if not (0.0 <= visibility <= 1.0):
            raise ValueError("s_chsh: visibility must lie in [0, 1]")
        e_values = [_analytic_correlation(a, b, visibility) for a, b in pairs]
    else:
        e_values = [float(e) for e in correlations]
        if len(e_values) != 4:
            raise ValueError("s_chsh: exactly four correlations required")
        if errors is not None:
            errs = [float(x) for x in errors]
            if len(errs) != 4:
                raise ValueError("s_chsh: exactly four correlation errors required")
            variances = [x * x for x in errs]
    return _chsh_result(e_values, variances)


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
) -> ChshResult:
    """CHSH result from Poisson-sampled coincidence counts.

    For each of the four angle pairs, four polarizer settings (each arm at
    its angle and at +90 degrees) are counted with mean
    ``integration * fringe_rate``; the correlations, S, and its
    propagated error follow from the sampled counts.
    """
    if integration <= 0.0:
        raise ValueError("simulate_chsh_counts: integration must be > 0")
    pairs = _angle_pairs(angles, "simulate_chsh_counts")
    rng = np.random.default_rng(seed)
    e_values = []
    variances = []
    for a, b in pairs:
        settings = ((a, b), (a, b + 90.0), (a + 90.0, b), (a + 90.0, b + 90.0))
        means = [integration * fringe_rate(p, q, visibility) for p, q in settings]
        counts = rng.poisson(means)
        e_values.append(correlation_E(counts))
        variances.append(correlation_E_error(counts) ** 2)
    return _chsh_result(e_values, variances)
