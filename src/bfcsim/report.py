"""End-to-end reproduction pipeline: one config in, a full report plus artifacts out.

The stage functions below (comb, hom, revivals, dip-width, schmidt-time,
jsi, schmidt-frequency, chsh, dimensionality) are the only place a stage
is computed.  `run_report` chains all of them and writes every
intermediate product (CSV) next to a JSON report and a human-readable
summary; each CLI subcommand runs the subset it needs.  Every command
ends in the one `write` stage, the only code that touches the output
directory.  Output is deterministic for a fixed config and seed: no
timestamps enter any artifact, so repeated runs are byte-identical.
"""

from __future__ import annotations

import fcntl
import functools
import math
import os
import shutil
from pathlib import Path

import numpy as np

from . import chsh as chsh_mod
from . import io as io_mod
from .chsh import DEFAULT_ANGLES_DEG
from .comb import CombSpectrum, build_comb
from .config import _ZOOM_DELAYS_PS, TOOL_VERSION, SCHEMA_VERSION, RunConfig
from .hom import HomTrace, RevivalRecord, central_dip_width, locate_revivals, simulate_hom_trace
from .jsi import FilterSpec, Jsi, crosstalk_db, filter_bandwidth_hz, scan_correlation_matrix
from .schmidt import (
    REFERENCE_IDEAL_K_FREQ,
    SchmidtSpectrum,
    dimensionality_report,
    ideal_frequency_spectrum,
    jsa_from_jsi,
    schmidt_decompose,
    time_bin_eigenvalues,
    time_bin_spectrum_from_visibilities,
    window_limited_n_max,
)

_STAGING_PREFIX = ".bfcsim-staging-"

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


def _stage(name: str):
    """Name a stage: anything the decorated function raises becomes a `StageError`."""

    def decorate(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raise StageError(name, exc) from exc

        return run

    return decorate


@_stage("comb")
def comb_stage(config: RunConfig) -> CombSpectrum:
    return build_comb(config.cavity, config.source, config.resolved_n_max())


@_stage("hom")
def hom_stage(config: RunConfig, comb: CombSpectrum) -> tuple[HomTrace, HomTrace]:
    """The wide scan over the config's window, and a fine scan of the central dip."""
    step = config.hom.step_ps
    window = config.hom.window_ps
    delays = np.arange(-window, window + step / 2.0, step)
    trace = simulate_hom_trace(comb, delays, accidental_fraction=config.hom.accidental_fraction)
    # Zoomed inset: the wide scan's step cannot resolve the base-to-base width.
    zoom = simulate_hom_trace(
        comb, _ZOOM_DELAYS_PS, accidental_fraction=config.hom.accidental_fraction
    )
    return trace, zoom


@_stage("revivals")
def revivals_stage(trace: HomTrace) -> list[RevivalRecord]:
    return locate_revivals(trace)


@_stage("dip-width")
def dip_width_stage(zoom: HomTrace) -> float:
    return central_dip_width(zoom)


@_stage("schmidt-time")
def time_schmidt_stage(
    config: RunConfig, visibility_points=None
) -> tuple[int, SchmidtSpectrum, SchmidtSpectrum | None]:
    """Window-limited bin count, closed-form spectrum, and (given points) the fitted one.

    ``visibility_points`` is a list of ``(n, visibility)`` or the path of a
    CSV holding them.
    """
    window_n = window_limited_n_max(config.cavity, config.hom.window_ps)
    theory = time_bin_eigenvalues(config.cavity, window_n)
    if isinstance(visibility_points, (str, os.PathLike)):
        visibility_points = io_mod.visibilities_from_csv(visibility_points)
    fitted = None
    if visibility_points is not None:
        fitted = time_bin_spectrum_from_visibilities(visibility_points, window_n)
    return window_n, theory, fitted


@_stage("jsi")
def jsi_stage(config: RunConfig, comb: CombSpectrum) -> tuple[Jsi, dict]:
    """Filtered scan clamped to the comb, and its sidecar: cross-talk and the settings used."""
    fwhm_hz = filter_bandwidth_hz(config.jsi.filter_fwhm_pm, config.source.degenerate_wavelength_nm)
    filt = FilterSpec(fwhm_hz=fwhm_hz, shape=config.jsi.filter_shape)
    max_bin = min(config.jsi.max_bin, comb.n_max)
    scan = scan_correlation_matrix(comb, filt, max_bin, pump_power_mw=config.jsi.pump_power_mw)
    sidecar = {
        "crosstalk_db": crosstalk_db(scan),
        "filter_fwhm_pm": config.jsi.filter_fwhm_pm,
        "filter_fwhm_ghz": fwhm_hz / 1e9,
        "filter_shape": config.jsi.filter_shape,
        "max_bin": max_bin,
        "pump_power_mw": config.jsi.pump_power_mw,
    }
    return scan, sidecar


@_stage("jsi")
def measured_jsi_stage(path) -> tuple[Jsi, dict]:
    """A measured matrix from a CSV in place of the scan, with its cross-talk sidecar."""
    matrix = io_mod.jsi_from_csv(path)
    return matrix, {"crosstalk_db": crosstalk_db(matrix), "source": str(path)}


@_stage("schmidt-frequency")
def freq_schmidt_stage(
    matrix: Jsi, comb: CombSpectrum | None = None
) -> tuple[SchmidtSpectrum, SchmidtSpectrum | None]:
    """Spectrum of the (degraded) matrix, and, given the comb, the ideal spectrum."""
    degraded = schmidt_decompose(jsa_from_jsi(matrix))
    ideal = ideal_frequency_spectrum(comb) if comb is not None else None
    return degraded, ideal


@_stage("chsh")
def chsh_stage(config: RunConfig, angles=DEFAULT_ANGLES_DEG):
    """S_fringe, analytic and simulated CHSH results, and the four fringe scans.

    The fringe scans run at ``fringe_visibility``, the CHSH values at
    ``chsh_visibility``; fringe scan i uses seed ``seed + i``.
    """
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


@_stage("dimensionality")
def dimensionality_stage(config: RunConfig, k_time: float, k_freq: float):
    """The dimensionality report for the given Schmidt numbers."""
    return dimensionality_report(k_time, k_freq, config.cavity, config.source)


@_stage("write")
def write_stage(out_dir, artifacts: dict) -> Path:
    """Put every artifact of one command into `out_dir`, or leave it as it was.

    ``artifacts`` maps file names to values (see `io.write_artifact`).  The
    run holds an exclusive flock(2) on `out_dir` itself; a second run exits
    at once, and the kernel frees the lock when its holder exits or is
    killed, so no lock file exists.  Under the lock, every file is written
    beside its target as ``.bfcsim-staging-<name>`` and, once all are
    written, renamed into place, so a failed write leaves the earlier files
    untouched and a killed run leaves no half-written artifact.  This is the
    only place a command touches the output directory.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fd = os.open(out, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RuntimeError(f"output directory {out} is locked by another run") from None
        # Left by a killed run: under the lock no live run is using them.  Earlier
        # versions staged into a directory of this prefix.
        for stale in out.glob(_STAGING_PREFIX + "*"):
            if stale.is_dir() and not stale.is_symlink():
                shutil.rmtree(stale, ignore_errors=True)
            else:
                stale.unlink(missing_ok=True)
        staged = {name: out / (_STAGING_PREFIX + name) for name in artifacts}
        try:
            for name, value in artifacts.items():
                io_mod.write_artifact(staged[name], value)
            for name, path in staged.items():
                os.replace(path, out / name)
        except BaseException:
            for path in staged.values():
                path.unlink(missing_ok=True)
            raise
    finally:
        os.close(fd)
    return out


def _bands_for(preset: str) -> dict:
    bands = dict(_COMMON_BANDS)
    if preset in _K_TIME_BANDS:
        bands["k_time_theory"] = _K_TIME_BANDS[preset]
    if preset == "45ghz":
        bands.update(_45GHZ_BANDS)
    return {k: list(v) for k, v in bands.items()}


def _revival_spacing(revivals: list[RevivalRecord]) -> float:
    """Mean dip spacing (ps) per step of n, nan for fewer than two dips.

    Where an index is missing (no dip found), a position step is not an n
    step, so the spacing is taken over n from the outermost dips.
    """
    if len(revivals) < 2:
        return math.nan
    first, last = revivals[0], revivals[-1]
    if last.n - first.n == len(revivals) - 1:
        return float(np.mean(np.diff([r.center_ps for r in revivals])))
    return (last.center_ps - first.center_ps) / (last.n - first.n)


def run_report(config: RunConfig) -> dict:
    """Execute the full pipeline for one cavity, write all artifacts, return report.json's dict."""
    cavity = config.cavity
    comb = comb_stage(config)
    trace, zoom = hom_stage(config, comb)
    revivals = revivals_stage(trace)
    dip_width = dip_width_stage(zoom)
    points = [(r.n, r.visibility) for r in revivals]
    window_n, time_theory, time_fitted = time_schmidt_stage(config, points)
    scan, jsi_sidecar = jsi_stage(config, comb)
    freq_degraded, freq_ideal = freq_schmidt_stage(scan, comb)
    s_fringe, chsh_analytic, chsh_simulated, fringes = chsh_stage(config)
    dim = dimensionality_stage(config, time_theory.k_number, freq_ideal.k_number)

    central = next((r for r in revivals if r.n == 0), None)
    report = {
        "cavity_label": cavity.label or config.preset_name or "custom",
        "fsr_ghz": cavity.fsr_hz / 1e9,
        "linewidth_ghz": cavity.linewidth_fwhm_hz / 1e9,
        "finesse": cavity.finesse,
        "round_trip_ps": cavity.round_trip_ps,
        "envelope_shape": config.source.envelope_shape,
        "n_max": comb.n_max,
        "window_n_max": window_n,
        "revival_count": len(revivals),
        "revival_spacing_ps": _revival_spacing(revivals),
        "central_dip_width_ps": dip_width,
        "central_visibility": central.visibility if central else math.nan,
        "k_time_theory": time_theory.k_number,
        "k_time_fitted": time_fitted.k_number,
        "k_freq_ideal": freq_ideal.k_number,
        "k_freq_ideal_reference": REFERENCE_IDEAL_K_FREQ.get(config.preset_name),
        "k_freq_degraded": freq_degraded.k_number,
        "crosstalk_db": jsi_sidecar["crosstalk_db"],
        "n_freq_bins": dim["n_freq_bins"],
        "n_time_bins": dim["n_time_bins"],
        "product_nt_nomega": dim["product_nt_nomega"],
        "product_kt_komega": dim["product_kt_komega"],
        "fringe_visibility": config.chsh.fringe_visibility,
        "s_fringe": s_fringe,
        "chsh_visibility": config.chsh.chsh_visibility,
        "s_chsh_analytic": chsh_analytic["s_value"],
        "s_chsh_simulated": chsh_simulated["s_value"],
        "s_sigma_simulated": chsh_simulated["s_sigma"],
        "violation_sigmas_simulated": chsh_simulated["violation_sigmas"],
        "time_dimensionality": dim["total_dimensionality"] // dim["polarization_factor"],
        "freq_dimensionality": dim["freq_dimensionality"],
        "total_dimensionality": dim["total_dimensionality"],
        "config_hash": config.config_hash(),
        "tool_version": TOOL_VERSION,
        "schema_version": SCHEMA_VERSION,
        "bands": _bands_for(config.preset_name),
    }

    write_stage(
        config.output_dir,
        {
            "hom_trace.csv": trace,
            "hom_trace_zoom.csv": zoom,
            "revivals.csv": revivals,
            "schmidt_time_theory.csv": time_theory,
            "schmidt_time_fitted.csv": time_fitted,
            "jsi_scan.csv": scan,
            "jsi_scan.json": jsi_sidecar,
            "schmidt_frequency_ideal.csv": freq_ideal,
            "schmidt_frequency_degraded.csv": freq_degraded,
            **{f"chsh_fringe_p1_{int(f.fixed_angle_deg)}.csv": f for f in fringes},
            "chsh.json": {
                "s_fringe": s_fringe,
                "analytic": chsh_analytic,
                "simulated": chsh_simulated,
            },
            "report.json": report,
            "summary.txt": summary_text(report),
        },
    )
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


def summary_text(r: dict) -> str:
    """The `run_report` dict as the human-readable text of `summary.txt`."""
    b = r["bands"]
    lines = [
        f"bfcsim {r['tool_version']} reproduction report (config {r['config_hash'][:12]})",
        "",
        f"cavity {r['cavity_label']}: FSR {r['fsr_ghz']} GHz, linewidth {r['linewidth_ghz']} GHz, "
        f"finesse {r['finesse']:.3f}, round trip {r['round_trip_ps']:.3f} ps",
        f"comb: {2 * r['n_max'] + 1} bins ({r['envelope_shape']} envelope), "
        f"window-limited time bins +/-{r['window_n_max']}",
        "",
        "interferometry:",
        f"  revival dips: {_fmt(r['revival_count'], b.get('revival_count'))}",
        f"  revival spacing (ps): {_fmt(r['revival_spacing_ps'], b.get('revival_spacing_ps'))}",
        "  central dip width (ps): "
        f"{_fmt(r['central_dip_width_ps'], b.get('central_dip_width_ps'))}",
        f"  central visibility: {_fmt(r['central_visibility'])}",
        "",
        "schmidt analysis:",
        f"  K_time theory: {_fmt(r['k_time_theory'], b.get('k_time_theory'))}",
        f"  K_time fitted: {_fmt(r['k_time_fitted'])}",
        f"  K_freq ideal (envelope diagonal): {_fmt(r['k_freq_ideal'])}"
        + (
            f"  [published ideal target {r['k_freq_ideal_reference']}]"
            if r['k_freq_ideal_reference']
            else ""
        ),
        f"  K_freq degraded (filters + floor): {_fmt(r['k_freq_degraded'])}",
        f"  crosstalk (dB): {_fmt(r['crosstalk_db'])}",
        f"  N_freq x N_time: {r['n_freq_bins']:.3f} x {r['n_time_bins']:.3f} "
        f"= {r['product_nt_nomega']:.3f}",
        f"  K_time x K_freq: {r['product_kt_komega']:.3f}",
        "",
        "bell test:",
        f"  S_fringe({r['fringe_visibility']}): {_fmt(r['s_fringe'], b.get('s_fringe'))}",
        f"  S_chsh analytic({r['chsh_visibility']}): "
        f"{_fmt(r['s_chsh_analytic'], b.get('s_chsh_analytic'))}",
        f"  S_chsh simulated: {r['s_chsh_simulated']:.4f} +/- {r['s_sigma_simulated']:.4f} "
        f"({r['violation_sigmas_simulated']:.1f} sigma violation)",
        "",
        "dimensionality:",
        f"  time-bin: {_fmt(r['time_dimensionality'], b.get('time_dimensionality'))}",
        f"  frequency-bin: {_fmt(r['freq_dimensionality'])}",
        f"  total (with polarization): "
        f"{_fmt(r['total_dimensionality'], b.get('total_dimensionality'))}",
        "",
    ]
    return "\n".join(lines)
