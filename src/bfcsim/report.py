"""End-to-end reproduction pipeline: one config in, a full report plus artifacts out.

The stage functions below (comb, hom, revivals, dip-width, schmidt-time,
jsi, schmidt-frequency, chsh, dimensionality) are the only place a stage
is computed.  `run_report` chains all of them and writes every
intermediate product (CSV) next to a JSON report and a human-readable
summary; each CLI subcommand runs the subset it needs and writes its own
files.  Stages compute and return; nothing is written until every stage
has run.  Output is deterministic for a fixed config and seed: no
timestamps enter any artifact, so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import chsh as chsh_mod
from . import io as io_mod
from .chsh import DEFAULT_ANGLES_DEG
from .comb import CombSpectrum, build_comb
from .config import TOOL_VERSION, SCHEMA_VERSION, RunConfig
from .hom import HomTrace, RevivalRecord, central_dip_width, locate_revivals, simulate_hom_trace
from .jsi import FilterSpec, Jsi, crosstalk_db, filter_bandwidth_hz, scan_correlation_matrix
from .schmidt import (
    REFERENCE_IDEAL_K_FREQ,
    SchmidtSpectrum,
    bin_counts,
    dimensionality_report,
    ideal_frequency_spectrum,
    jsa_from_jsi,
    schmidt_decompose,
    time_bin_eigenvalues,
    time_bin_spectrum_from_visibilities,
    window_limited_n_max,
)

LOCK_FILENAME = ".bfcsim.lock"

# Acceptance bands for headline numbers, keyed by cavity preset where they
# are preset-specific.
_K_TIME_BANDS = {"45ghz": (18.25, 18.35), "15ghz": (6.56, 6.86), "5ghz": (5.11, 5.21)}
_COMMON_BANDS = {
    "s_fringe": (2.769, 2.773),
    "s_chsh_analytic": (2.684, 2.688),
    "central_dip_width_ps": (3.2, 4.5),
}
_45GHZ_BANDS = {
    "revival_count": (61, 61),
    "revival_spacing_ps": (10.98, 11.08),
    "total_dimensionality": (648, 648),
    "time_dimensionality": (324, 324),
}


class StageError(RuntimeError):
    """A pipeline stage failed; ``__cause__`` is the error the stage raised."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


def _stage(name: str, fn):
    try:
        return fn()
    except Exception as exc:
        raise StageError(name, exc) from exc


def comb_stage(config: RunConfig) -> CombSpectrum:
    return _stage(
        "comb", lambda: build_comb(config.cavity, config.source, config.resolved_n_max())
    )


def hom_stage(config: RunConfig, comb: CombSpectrum) -> tuple[HomTrace, HomTrace]:
    """The wide scan over the config's window, and a fine scan of the central dip."""

    def run():
        step = config.hom.step_ps
        window = config.hom.window_ps
        delays = np.arange(-window, window + step / 2.0, step)
        trace = simulate_hom_trace(
            comb, delays, accidental_fraction=config.hom.accidental_fraction
        )
        # Zoomed inset: the wide scan's step cannot resolve the
        # base-to-base width.
        zoom_delays = np.arange(-12.0, 12.0 + 0.01, 0.02)
        zoom = simulate_hom_trace(
            comb, zoom_delays, accidental_fraction=config.hom.accidental_fraction
        )
        return trace, zoom

    return _stage("hom", run)


def revivals_stage(trace: HomTrace) -> list[RevivalRecord]:
    return _stage("revivals", lambda: locate_revivals(trace))


def dip_width_stage(zoom: HomTrace) -> float:
    return _stage("dip-width", lambda: central_dip_width(zoom))


def time_schmidt_stage(
    config: RunConfig, visibility_points=None
) -> tuple[int, SchmidtSpectrum, SchmidtSpectrum | None]:
    """Window-limited bin count, closed-form spectrum, and (given points) the fitted one."""

    def run():
        window_n = window_limited_n_max(config.cavity, config.hom.window_ps)
        theory = time_bin_eigenvalues(config.cavity, window_n)
        fitted = None
        if visibility_points is not None:
            fitted = time_bin_spectrum_from_visibilities(visibility_points, window_n)
        return window_n, theory, fitted

    return _stage("schmidt-time", run)


def jsi_stage(config: RunConfig, comb: CombSpectrum) -> tuple[Jsi, dict]:
    """Filtered scan clamped to the comb, and its sidecar: cross-talk and the settings used."""

    def run():
        fwhm_hz = filter_bandwidth_hz(
            config.jsi.filter_fwhm_pm, config.source.degenerate_wavelength_nm
        )
        filt = FilterSpec(fwhm_hz=fwhm_hz, shape=config.jsi.filter_shape)
        max_bin = min(config.jsi.max_bin, comb.n_max)
        scan = scan_correlation_matrix(
            comb, filt, filt, max_bin, pump_power_mw=config.jsi.pump_power_mw
        )
        sidecar = {
            "crosstalk_db": crosstalk_db(scan),
            "filter_fwhm_pm": config.jsi.filter_fwhm_pm,
            "filter_fwhm_ghz": fwhm_hz / 1e9,
            "filter_shape": config.jsi.filter_shape,
            "max_bin": max_bin,
            "pump_power_mw": config.jsi.pump_power_mw,
        }
        return scan, sidecar

    return _stage("jsi", run)


def measured_jsi_stage(path) -> tuple[Jsi, dict]:
    """A measured matrix from a CSV in place of the scan, with its cross-talk sidecar."""

    def run():
        matrix = io_mod.jsi_from_csv(path)
        return matrix, {"crosstalk_db": crosstalk_db(matrix), "source": str(path)}

    return _stage("jsi", run)


def freq_schmidt_stage(
    matrix: Jsi, comb: CombSpectrum | None = None
) -> tuple[SchmidtSpectrum, SchmidtSpectrum | None]:
    """Spectrum of the (degraded) matrix, and, given the comb, the ideal spectrum."""

    def run():
        degraded = schmidt_decompose(jsa_from_jsi(matrix), basis="frequency")
        ideal = ideal_frequency_spectrum(comb) if comb is not None else None
        return degraded, ideal

    return _stage("schmidt-frequency", run)


def chsh_stage(config: RunConfig, angles=DEFAULT_ANGLES_DEG):
    """S_fringe, analytic and simulated CHSH results, and the four fringe scans.

    The fringe scans run at ``fringe_visibility``, the CHSH values at
    ``chsh_visibility``; fringe scan i uses seed ``seed + i``.
    """

    def run():
        c = config.chsh
        s_fringe = chsh_mod.s_fringe_from_visibility(c.fringe_visibility)
        analytic = chsh_mod.s_chsh(visibility=c.chsh_visibility, angles=angles)
        simulated = chsh_mod.simulate_chsh_counts(
            c.chsh_visibility, c.integration, c.seed, angles=angles
        )
        scan_angles = np.arange(0.0, 360.0, 10.0)
        fringes = [
            chsh_mod.simulate_fringe_scan(
                fixed, scan_angles, c.fringe_visibility, c.integration, seed=c.seed + i
            )
            for i, fixed in enumerate((45.0, 90.0, 135.0, 180.0))
        ]
        return s_fringe, analytic, simulated, fringes

    return _stage("chsh", run)


def dimensionality_stage(config: RunConfig, k_time: float, k_freq: float):
    """Bin counts and the dimensionality report for the given Schmidt numbers."""

    def run():
        counts = bin_counts(config.cavity, config.source)
        return counts, dimensionality_report(k_time, k_freq, counts)

    return _stage("dimensionality", run)


@dataclass
class ReproReport:
    cavity_label: str
    fsr_ghz: float
    linewidth_ghz: float
    finesse: float
    round_trip_ps: float
    envelope_shape: str
    n_max: int
    window_n_max: int
    revival_count: int
    revival_spacing_ps: float
    central_dip_width_ps: float
    central_visibility: float
    visibility_table: list[tuple[int, float, float]]
    k_time_theory: float
    k_time_fitted: float
    k_freq_ideal: float
    k_freq_ideal_reference: float | None
    k_freq_degraded: float
    crosstalk_db: float | None
    n_freq_bins: float
    n_time_bins: float
    product_nt_nomega: float
    product_kt_komega: float
    fringe_visibility: float
    s_fringe: float
    chsh_visibility: float
    s_chsh_analytic: float
    s_chsh_simulated: float
    s_sigma_simulated: float
    violation_sigmas_simulated: float
    time_dimensionality: int
    freq_dimensionality: int
    total_dimensionality: int
    config_hash: str
    tool_version: str = TOOL_VERSION
    schema_version: str = SCHEMA_VERSION
    bands: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {}
        for key, value in self.__dict__.items():
            if isinstance(value, np.floating):
                value = float(value)
            if isinstance(value, list):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            out[key] = value
        return out


def _bands_for(preset: str) -> dict:
    bands = dict(_COMMON_BANDS)
    if preset in _K_TIME_BANDS:
        bands["k_time_theory"] = _K_TIME_BANDS[preset]
    if preset == "45ghz":
        bands.update(_45GHZ_BANDS)
    return {k: list(v) for k, v in bands.items()}


def run_report(config: RunConfig, out_dir: str | None = None) -> ReproReport:
    """Execute the full pipeline for one cavity and write all artifacts."""
    out = Path(out_dir or config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lock = out / LOCK_FILENAME
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
    except FileExistsError:
        raise RuntimeError(
            f"output directory {out} is locked by another run (remove {lock} if stale)"
        )
    try:
        return _run_stages(config, out)
    finally:
        try:
            lock.unlink()
        except OSError:
            pass


def _run_stages(config: RunConfig, out: Path) -> ReproReport:
    cavity = config.cavity
    comb = comb_stage(config)
    trace, zoom = hom_stage(config, comb)
    revivals = revivals_stage(trace)
    dip_width = dip_width_stage(zoom)
    points = [(r.n, r.visibility) for r in revivals if 0.0 < r.visibility <= 1.0]
    window_n, time_theory, time_fitted = time_schmidt_stage(config, points)
    scan, jsi_sidecar = jsi_stage(config, comb)
    freq_degraded, freq_ideal = freq_schmidt_stage(scan, comb)
    s_fringe, chsh_analytic, chsh_simulated, fringes = chsh_stage(config)
    counts, dim = dimensionality_stage(config, time_theory.k_number, freq_ideal.k_number)

    centers = np.array([r.center_ps for r in revivals])
    spacing = float(np.mean(np.diff(centers))) if len(revivals) > 1 else math.nan
    central = next((r for r in revivals if r.n == 0), None)
    report = ReproReport(
        cavity_label=cavity.label or config.preset_name or "custom",
        fsr_ghz=cavity.fsr_hz / 1e9,
        linewidth_ghz=cavity.linewidth_fwhm_hz / 1e9,
        finesse=cavity.finesse,
        round_trip_ps=cavity.round_trip_ps,
        envelope_shape=config.source.envelope_shape,
        n_max=comb.n_max,
        window_n_max=window_n,
        revival_count=len(revivals),
        revival_spacing_ps=spacing,
        central_dip_width_ps=dip_width,
        central_visibility=central.visibility if central else math.nan,
        visibility_table=[(r.n, r.center_ps, r.visibility) for r in revivals],
        k_time_theory=time_theory.k_number,
        k_time_fitted=time_fitted.k_number,
        k_freq_ideal=freq_ideal.k_number,
        k_freq_ideal_reference=REFERENCE_IDEAL_K_FREQ.get(config.preset_name),
        k_freq_degraded=freq_degraded.k_number,
        crosstalk_db=jsi_sidecar["crosstalk_db"],
        n_freq_bins=counts.n_freq_bins,
        n_time_bins=counts.n_time_bins,
        product_nt_nomega=dim.product_nt_nomega,
        product_kt_komega=dim.product_kt_komega,
        fringe_visibility=config.chsh.fringe_visibility,
        s_fringe=s_fringe,
        chsh_visibility=config.chsh.chsh_visibility,
        s_chsh_analytic=chsh_analytic.s_value,
        s_chsh_simulated=chsh_simulated.s_value,
        s_sigma_simulated=chsh_simulated.s_sigma,
        violation_sigmas_simulated=chsh_simulated.violation_sigmas,
        time_dimensionality=dim.total_dimensionality // dim.polarization_factor,
        freq_dimensionality=dim.freq_dimensionality,
        total_dimensionality=dim.total_dimensionality,
        config_hash=config.config_hash(),
        bands=_bands_for(config.preset_name),
    )

    def do_write():
        io_mod.trace_to_csv(trace, out / "hom_trace.csv")
        io_mod.trace_to_csv(zoom, out / "hom_trace_zoom.csv")
        io_mod.revivals_to_csv(revivals, out / "revivals.csv")
        io_mod.spectrum_to_csv(time_theory, out / "schmidt_time_theory.csv")
        io_mod.spectrum_to_csv(time_fitted, out / "schmidt_time_fitted.csv")
        io_mod.jsi_to_csv(scan, out / "jsi_scan.csv")
        io_mod.export_json(out / "jsi_scan.json", jsi_sidecar)
        io_mod.spectrum_to_csv(freq_ideal, out / "schmidt_frequency_ideal.csv")
        io_mod.spectrum_to_csv(freq_degraded, out / "schmidt_frequency_degraded.csv")
        for fringe in fringes:
            io_mod.fringe_to_csv(fringe, out / f"chsh_fringe_p1_{int(fringe.fixed_angle_deg)}.csv")
        io_mod.export_json(
            out / "chsh.json",
            {
                "s_fringe": s_fringe,
                "analytic": io_mod.chsh_to_dict(chsh_analytic),
                "simulated": io_mod.chsh_to_dict(chsh_simulated),
            },
        )
        io_mod.export_json(out / "report.json", report.to_dict())
        (out / "summary.txt").write_text(summary_text(report), encoding="utf-8")

    _stage("write", do_write)
    return report


def _fmt(value, band=None) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        text = f"{value:.4f}"
    else:
        text = str(value)
    if band:
        text += f"  [accept {band[0]} .. {band[1]}]"
    return text


def summary_text(r: ReproReport) -> str:
    """The report as the human-readable text of `summary.txt`."""
    b = r.bands
    lines = [
        f"bfcsim {r.tool_version} reproduction report (config {r.config_hash[:12]})",
        "",
        f"cavity {r.cavity_label}: FSR {r.fsr_ghz} GHz, linewidth {r.linewidth_ghz} GHz, "
        f"finesse {r.finesse:.3f}, round trip {r.round_trip_ps:.3f} ps",
        f"comb: {2 * r.n_max + 1} bins ({r.envelope_shape} envelope), "
        f"window-limited time bins +/-{r.window_n_max}",
        "",
        "interferometry:",
        f"  revival dips: {_fmt(r.revival_count, b.get('revival_count'))}",
        f"  revival spacing (ps): {_fmt(r.revival_spacing_ps, b.get('revival_spacing_ps'))}",
        f"  central dip width (ps): {_fmt(r.central_dip_width_ps, b.get('central_dip_width_ps'))}",
        f"  central visibility: {_fmt(r.central_visibility)}",
        "",
        "schmidt analysis:",
        f"  K_time theory: {_fmt(r.k_time_theory, b.get('k_time_theory'))}",
        f"  K_time fitted: {_fmt(r.k_time_fitted)}",
        f"  K_freq ideal (envelope diagonal): {_fmt(r.k_freq_ideal)}"
        + (
            f"  [published ideal target {r.k_freq_ideal_reference}]"
            if r.k_freq_ideal_reference
            else ""
        ),
        f"  K_freq degraded (filters + floor): {_fmt(r.k_freq_degraded)}",
        f"  crosstalk (dB): {_fmt(r.crosstalk_db)}",
        f"  N_freq x N_time: {r.n_freq_bins:.3f} x {r.n_time_bins:.3f} "
        f"= {r.product_nt_nomega:.3f}",
        f"  K_time x K_freq: {r.product_kt_komega:.3f}",
        "",
        "bell test:",
        f"  S_fringe({r.fringe_visibility}): {_fmt(r.s_fringe, b.get('s_fringe'))}",
        f"  S_chsh analytic({r.chsh_visibility}): "
        f"{_fmt(r.s_chsh_analytic, b.get('s_chsh_analytic'))}",
        f"  S_chsh simulated: {r.s_chsh_simulated:.4f} +/- {r.s_sigma_simulated:.4f} "
        f"({r.violation_sigmas_simulated:.1f} sigma violation)",
        "",
        "dimensionality:",
        f"  time-bin: {_fmt(r.time_dimensionality, b.get('time_dimensionality'))}",
        f"  frequency-bin: {_fmt(r.freq_dimensionality)}",
        f"  total (with polarization): "
        f"{_fmt(r.total_dimensionality, b.get('total_dimensionality'))}",
        "",
    ]
    return "\n".join(lines)
