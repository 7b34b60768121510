"""Joint spectral intensity matrices over signal/idler frequency bins.

Energy conservation pins the ideal comb JSI to the anticorrelation
diagonal ``n_s + n_i = 0``.  Measured matrices degrade in two modeled
ways: finite-bandwidth selection filters smear weight into neighboring
cells, and multi-pair emission adds a uniform accidental floor that grows
with pump power.  The floor model is a two-anchor calibration, not
physics: its linear+quadratic coefficients are fixed so the scanned
matrix reports the two published cross-talk levels at 2 mW and 4 mW.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .comb import DEFAULT_SOURCE, CombSpectrum, SPEED_OF_LIGHT_M_S

FILTER_SHAPES = ("gaussian", "lorentzian")


@dataclass(frozen=True, eq=False)
class Jsi:
    """Nonnegative coincidence-weight matrix indexed by (n_s, n_i)."""

    n_max: int
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        size = 2 * self.n_max + 1
        if self.n_max < 0 or v.shape != (size, size):
            raise ValueError(f"Jsi: expected a {size}x{size} matrix, got shape {v.shape}")
        if not float(v.min()) >= 0.0:  # a nan fails it too
            raise ValueError("Jsi: entries must be nonnegative")
        v.setflags(write=False)

    @property
    def bins(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)

    def anti_diagonal(self) -> np.ndarray:
        """Entries on the anticorrelation diagonal n_s = -n_i, ordered by n_s."""
        idx = np.arange(2 * self.n_max + 1)
        return self.values[idx, idx[::-1]]


@dataclass(frozen=True)
class FilterSpec:
    """Tunable bin-selection filter; fwhm_hz = 0 is an ideal single-bin selector."""

    fwhm_hz: float = 0.0
    shape: str = "gaussian"

    def __post_init__(self) -> None:
        if self.fwhm_hz < 0.0:
            raise ValueError("FilterSpec: fwhm_hz must be >= 0")
        if self.shape not in FILTER_SHAPES:
            raise ValueError(f"FilterSpec: shape must be one of {FILTER_SHAPES}")


def filter_bandwidth_hz(
    fwhm_pm: float, wavelength_nm: float = DEFAULT_SOURCE.degenerate_wavelength_nm
) -> float:
    """Convert a filter bandwidth quoted in picometers to Hz."""
    lam_m = wavelength_nm * 1e-9
    return SPEED_OF_LIGHT_M_S * (fwhm_pm * 1e-12) / (lam_m * lam_m)


def filter_transmission(filt: FilterSpec, offset_bins, fsr_hz: float):
    """Filter transmission at a bin offset from the filter's target bin."""
    off = np.asarray(offset_bins, dtype=float) * fsr_hz
    if filt.fwhm_hz == 0.0:
        out = np.where(np.abs(off) < 1e-6 * fsr_hz, 1.0, 0.0)
    elif filt.shape == "gaussian":
        out = np.exp(-4.0 * math.log(2.0) * np.square(off / filt.fwhm_hz))
    else:
        out = 1.0 / (1.0 + np.square(2.0 * off / filt.fwhm_hz))
    return out if out.ndim else float(out)


# The floor fraction r(P) = a*P + b*P^2 passes through two (power, fraction)
# anchors, the published cross-talk levels: -11.71 dB at 2 mW and -6.31 dB
# at 4 mW.
_P1, _R1 = 2.0, 10.0 ** (-11.71 / 10.0)
_P2, _R2 = 4.0, 10.0 ** (-6.31 / 10.0)
_DET = _P1 * _P2 * _P2 - _P2 * _P1 * _P1
_FLOOR_LINEAR_PER_MW = (_R1 * _P2 * _P2 - _R2 * _P1 * _P1) / _DET
_FLOOR_QUADRATIC_PER_MW2 = (_R2 * _P1 - _R1 * _P2) / _DET


def floor_fraction(pump_power_mw: float) -> float:
    """Uniform accidental floor at a pump power, as a fraction of the peak cell."""
    if pump_power_mw < 0.0:
        raise ValueError("pump power must be >= 0")
    return _FLOOR_LINEAR_PER_MW * pump_power_mw + _FLOOR_QUADRATIC_PER_MW2 * pump_power_mw**2


def scan_correlation_matrix(
    comb: CombSpectrum,
    filt: FilterSpec,
    max_bin: int,
    pump_power_mw: float = 0.0,
) -> Jsi:
    """Filtered coincidence matrix over targets in [-max_bin, max_bin]^2.

    Applies one filter to both arms of the ideal JSI at every target pair,
    then adds the accidental floor of `floor_fraction`.  The floor is
    referenced to the peak diagonal cell of the *measured* matrix, i.e. the
    uniform offset f solves f = r * (signal_peak + f), so the off-diagonal
    to peak-diagonal ratio of the result equals the calibrated fraction r.

    The ideal JSI ``J``, the comb weights on the anticorrelation diagonal,
    holds weight only at (m, -m), so ``t @ J`` is the filter transmission
    reversed along the bins times the reversed weights: every other term of
    that product is an exact +0.0, and the dense (2N+1)^2 matrix is never built.
    """
    if max_bin < 0 or max_bin > comb.n_max:
        raise ValueError(f"scan range +/-{max_bin} outside the comb's +/-{comb.n_max} bins")
    fsr_hz = comb.fsr_rad_s / (2.0 * math.pi)
    targets = np.arange(-max_bin, max_bin + 1)
    offsets = comb.bins[None, :] - targets[:, None]
    # The offsets are integers in [-reach, reach]: each transmission is computed once.
    reach = max_bin + comb.n_max
    t = filter_transmission(filt, np.arange(-reach, reach + 1), fsr_hz)[offsets + reach]
    values = (t[:, ::-1] * comb.bin_weights[::-1]) @ t.T

    r = floor_fraction(pump_power_mw)
    if r >= 1.0:
        raise ValueError(f"accidental floor fraction {r:.3f} >= 1; pump power too high")
    if r > 0.0:
        size = 2 * max_bin + 1
        idx = np.arange(size)
        peak = float(values[idx, idx[::-1]].max())
        values = values + r / (1.0 - r) * peak

    total = values.sum()
    if total <= 0.0:
        raise ValueError("scan produced an all-zero matrix")
    return Jsi(n_max=max_bin, values=values / total)


def crosstalk_db(jsi: Jsi) -> float | None:
    """Worst off-diagonal cell relative to the peak anticorrelated cell, in dB.

    Returns None when every off-diagonal cell is exactly zero (an ideal
    matrix has no cross-talk to quote).
    """
    v = jsi.values
    peak = float(jsi.anti_diagonal().max())
    if peak <= 0.0:
        raise ValueError("crosstalk_db: no nonzero cell on the anticorrelation diagonal")
    off = v[~np.eye(v.shape[0], dtype=bool)[::-1]]
    max_off = float(off.max()) if off.size else 0.0
    if max_off <= 0.0:
        return None
    return 10.0 * math.log10(max_off / peak)
