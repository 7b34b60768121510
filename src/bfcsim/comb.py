"""Biphoton frequency comb construction from cavity and source parameters.

A Fabry-Perot cavity placed after a broadband downconversion source carves
the two-photon spectrum into a comb of discrete frequency bins: one
Lorentzian line per cavity resonance, weighted by the source's
phase-matching envelope.  This module holds the cavity/source parameter
types and the comb builder.

Conventions
-----------
* Public inputs are plain frequencies in Hz (and ps, mW, nm); angular
  frequencies (rad/s) appear only in internal fields.
* A cavity resonance of FWHM `linewidth_fwhm_hz` has Lorentzian
  half-width ``hw = pi * linewidth_fwhm_hz`` in rad/s.
* Finesse ``F = fsr_hz / linewidth_fwhm_hz`` and the round-trip time is
  ``1 / fsr_hz``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0

# Root of sinc(x)^2 = 1/2 with sinc(x) = sin(pi x)/(pi x); fixes the
# full-width-at-half-maximum of the sinc-squared envelope.
SINC_SQ_HALF_MAX_X = 0.4429464706894524

ENVELOPE_SHAPES = ("gaussian", "sinc_squared")


@dataclass(frozen=True)
class CavitySpec:
    """Fabry-Perot cavity: free spectral range and resonance linewidth.

    Invariants: ``inf > fsr_hz > linewidth_fwhm_hz > 0``, hence finesse > 1.
    """

    fsr_hz: float
    linewidth_fwhm_hz: float
    label: str = "custom"

    def __post_init__(self) -> None:
        if not (self.linewidth_fwhm_hz > 0.0):
            raise ValueError(
                f"CavitySpec invariant violated: linewidth_fwhm_hz must be > 0, "
                f"got {self.linewidth_fwhm_hz!r}"
            )
        if not (self.linewidth_fwhm_hz < self.fsr_hz < math.inf):
            raise ValueError(
                f"CavitySpec invariant violated: finite fsr_hz > linewidth_fwhm_hz required, "
                f"got fsr_hz={self.fsr_hz!r}, linewidth_fwhm_hz={self.linewidth_fwhm_hz!r}"
            )

    @property
    def finesse(self) -> float:
        return self.fsr_hz / self.linewidth_fwhm_hz

    @property
    def fsr_rad_s(self) -> float:
        """Bin spacing as angular frequency."""
        return 2.0 * math.pi * self.fsr_hz

    @property
    def half_width_rad_s(self) -> float:
        """Lorentzian half-width (angular); the FWHM is twice this."""
        return math.pi * self.linewidth_fwhm_hz

    @property
    def round_trip_ps(self) -> float:
        return 1e12 / self.fsr_hz


@dataclass(frozen=True)
class SourceSpec:
    """Downconversion source: phase-matching bandwidth and envelope, degenerate wavelength."""

    phase_matching_fwhm_hz: float = 245e9
    envelope_shape: str = "sinc_squared"
    degenerate_wavelength_nm: float = 1316.0

    def __post_init__(self) -> None:
        if not (0.0 < self.phase_matching_fwhm_hz < math.inf):
            raise ValueError("SourceSpec: phase_matching_fwhm_hz must be finite and > 0")
        if self.envelope_shape not in ENVELOPE_SHAPES:
            raise ValueError(
                f"SourceSpec: envelope_shape must be one of {ENVELOPE_SHAPES}, "
                f"got {self.envelope_shape!r}"
            )
        if not (0.0 < self.degenerate_wavelength_nm < math.inf):
            raise ValueError("SourceSpec: degenerate_wavelength_nm must be finite and > 0")


@dataclass(frozen=True, eq=False)
class CombSpectrum:
    """Discretized comb: 2N+1 bin weights plus the lineshape parameters.

    ``bin_weights[m + n_max]`` is the (intensity) weight of bin m for
    m in [-N, N]; the weights are normalized to 1 and even in m.
    """

    n_max: int
    bin_weights: np.ndarray
    half_width_rad_s: float
    fsr_rad_s: float

    def __post_init__(self) -> None:
        w = np.asarray(self.bin_weights, dtype=float)
        object.__setattr__(self, "bin_weights", w)
        if self.n_max < 0:
            raise ValueError("CombSpectrum: n_max must be >= 0")
        if w.shape != (2 * self.n_max + 1,):
            raise ValueError(
                f"CombSpectrum: expected {2 * self.n_max + 1} weights, got shape {w.shape}"
            )
        if not float(w.min()) >= 0.0:  # a nan fails it too
            raise ValueError("CombSpectrum: bin weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("CombSpectrum: bin weights must sum to 1 within 1e-12")
        if np.max(np.abs(w - w[::-1])) > 1e-12:
            raise ValueError("CombSpectrum: bin weights must be symmetric in m")
        if not (self.half_width_rad_s > 0.0 and self.fsr_rad_s > 0.0):
            raise ValueError("CombSpectrum: lineshape parameters must be positive")
        w.setflags(write=False)

    @property
    def bins(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)

    @property
    def round_trip_ps(self) -> float:
        return 2.0 * math.pi / self.fsr_rad_s * 1e12


def envelope_intensity(detuning_hz, source: SourceSpec):
    """Squared phase-matching amplitude at a detuning from degeneracy.

    Both shapes have their intensity FWHM equal to the source's
    phase-matching bandwidth.  Accepts scalars or arrays.
    """
    nu = np.asarray(detuning_hz, dtype=float)
    b = source.phase_matching_fwhm_hz
    if source.envelope_shape == "gaussian":
        out = np.exp(-4.0 * math.log(2.0) * np.square(nu) / (b * b))
    else:
        scale = b / (2.0 * SINC_SQ_HALF_MAX_X)
        out = np.square(np.sinc(nu / scale))
    return out if out.ndim else float(out)


def default_n_max(cavity: CavitySpec, source: SourceSpec) -> int:
    """Bin half-count so the comb spans +/- 3x the phase-matching FWHM."""
    return int(3.0 * source.phase_matching_fwhm_hz / cavity.fsr_hz)


def build_comb(cavity: CavitySpec, source: SourceSpec, n_max: int | None = None) -> CombSpectrum:
    """Construct the comb spectrum for a cavity/source pair.

    Bin m sits at detuning ``m * fsr`` and carries a weight proportional
    to the envelope intensity there; weights are normalized to sum to 1.
    ``n_max=None`` selects :func:`default_n_max`.
    """
    if n_max is None:
        n_max = default_n_max(cavity, source)
    if n_max < 0:
        raise ValueError("build_comb: n_max must be >= 0")
    if 2 * n_max * cavity.fsr_hz > 10.0 * source.phase_matching_fwhm_hz:
        warnings.warn(
            "build_comb: comb span greatly exceeds the phase-matching bandwidth; "
            "outer bins carry negligible weight",
            stacklevel=2,
        )
    m = np.arange(-n_max, n_max + 1)
    w = envelope_intensity(m * cavity.fsr_hz, source)
    w = w / w.sum()
    # Enforce exact evenness against rounding asymmetries.
    w = 0.5 * (w + w[::-1])
    return CombSpectrum(
        n_max=n_max,
        bin_weights=w,
        half_width_rad_s=cavity.half_width_rad_s,
        fsr_rad_s=cavity.fsr_rad_s,
    )


CAVITY_PRESETS: dict[str, CavitySpec] = {
    "45ghz": CavitySpec(fsr_hz=45.32e9, linewidth_fwhm_hz=1.56e9, label="45ghz"),
    "15ghz": CavitySpec(fsr_hz=15.15e9, linewidth_fwhm_hz=1.36e9, label="15ghz"),
    "5ghz": CavitySpec(fsr_hz=5.03e9, linewidth_fwhm_hz=0.46e9, label="5ghz"),
}

DEFAULT_SOURCE = SourceSpec()


def cavity_preset(name: str) -> CavitySpec:
    key = name.lower()
    if key not in CAVITY_PRESETS:
        raise ValueError(
            f"unknown cavity preset {name!r}; available: {', '.join(sorted(CAVITY_PRESETS))}"
        )
    return CAVITY_PRESETS[key]
