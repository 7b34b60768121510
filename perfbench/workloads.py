"""Seeded inputs, timed operations and output checks of the three workloads.

Each workload is a closed loop with one client in one process: the next op
starts when the previous one has returned.  Ops come in rounds, and a run
ends only on a round boundary, so every run times the same mix of ops.
All inputs derive from the run's seed; the program sees only the generated
arrays and files.

Why these three:

* ``paper_repro`` is what a user runs to reproduce the paper: ``bfcsim
  report`` on each preset.  HOM is over 98% of it, and the wide and zoom
  traces share one comb, so a faster kernel or a per-comb cache shows here.
* ``hom_sweep`` calls the HOM layer on a new random cavity every op, so a
  cache is bypassed.  Odd ops use a non-uniform delay grid, the fallback a
  uniform-grid fast path must keep.  Revival location and dip width take a
  larger share here than in a report.
* ``cli_analysis`` is a data-analysis session (jsi, schmidt on the written
  matrix plus generated visibilities, chsh) with no HOM at all: config, io
  reads and writes, the JSI scan, the Schmidt SVD and CHSH.  A HOM change
  should leave it unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bfcsim
import bfcsim.cli
from bfcsim.comb import CavitySpec, SourceSpec, build_comb, cavity_preset

from checks import CheckFailed, check_matrix, check_report, check_trace, quad_freq_samples

PRESETS = ("45ghz", "15ghz", "5ghz")
N_MAX_PRESET = {"45ghz": 16, "15ghz": 48, "5ghz": 146}  # default comb half-widths


def _cli(argv: list[str]) -> int:
    # stdout is captured; stderr, where the CLI explains a failure, is not.
    with contextlib.redirect_stdout(io.StringIO()):
        return bfcsim.cli.main(argv)


# ---------------------------------------------------------------- paper_repro


@dataclass(frozen=True)
class ReportOp:
    preset: str

    @property
    def kind(self) -> str:
        return self.preset


class PaperRepro:
    """One op is ``bfcsim report --preset p`` into a fresh directory."""

    # At least two rounds, so the median is a 45ghz or 15ghz report.
    min_rounds = 2

    def __init__(self) -> None:
        self._combs = {}

    def rounds(self, seed: int):
        rng = np.random.default_rng([seed, 0])
        while True:
            yield [ReportOp(str(p)) for p in rng.permutation(PRESETS)]

    def prepare(self, op: ReportOp, opdir: Path) -> Path:
        return opdir / "out"

    def run(self, op: ReportOp, out: Path) -> int:
        return _cli(["report", "--preset", op.preset, "--out", str(out)])

    def check(self, op: ReportOp, out: Path, rc: int, rng) -> None:
        if rc != 0:
            raise CheckFailed(f"report --preset {op.preset} exited {rc}")
        check_report(json.loads((out / "report.json").read_text(encoding="utf-8")), op.preset)
        if op.preset not in self._combs:
            self._combs[op.preset] = build_comb(cavity_preset(op.preset), SourceSpec())
        for name in ("hom_trace.csv", "hom_trace_zoom.csv"):
            data = np.loadtxt(out / name, delimiter=",", skiprows=1)
            check_trace(data[:, 0], data[:, 1], self._combs[op.preset], rng)


# ------------------------------------------------------------------ hom_sweep


@dataclass(frozen=True, eq=False)
class HomOp:
    fsr_ghz: float
    finesse: float
    bpm_ghz: float
    envelope: str
    n_max: int
    delays_ps: np.ndarray
    kind: str  # "uniform" or "nonuniform"


# Base-to-base central dip width times the phase-matching bandwidth, in
# ps*GHz, measured on the seed code: 904 for sinc_squared, 974..1137 for
# gaussian.  The smaller value sizes the grid, so dips are over-resolved.
DIP_WIDTH_PS_GHZ = {"sinc_squared": 900.0, "gaussian": 970.0}
# Direct-quadrature size of one op, in delay x frequency samples.
QUAD_SAMPLES_RANGE = (1e7, 5e7)
# Delay window cap, so a cheap comb buys a finer grid, not more revivals.
MAX_WINDOW_PS = 300.0
MAX_REVIVAL_INDEX = 40
# Samples across one dip width, and coarse samples per inter-dip gap.
SAMPLES_PER_DIP = 30
COARSE_PER_GAP = 12


def _uniform_grid(n: int, period: float, width: float, k_cap: int):
    step_max = min(period / 20.0, width / SAMPLES_PER_DIP)
    k = min(k_cap, int(((n - 1) * step_max / period - 1.0) / 2.0))
    if k < 1:
        return None
    half = (k + 0.5) * period
    return -half + (2.0 * half / (n - 1)) * np.arange(n)


def _nonuniform_grid(n: int, period: float, width: float, k_cap: int):
    """Dense around every dip center, coarse between, about n delays."""
    h = 0.75 * width
    min_dense = int(1.5 * SAMPLES_PER_DIP) + 1
    k = min(k_cap, int((n / (min_dense + COARSE_PER_GAP) - 1.0) / 2.0))
    if k < 1:
        return None
    n_dense = (n - (2 * k + 1) * COARSE_PER_GAP) // (2 * k + 1)
    gap = np.arange(1, COARSE_PER_GAP + 1) / (COARSE_PER_GAP + 1)
    tail = np.arange(1, COARSE_PER_GAP // 2 + 1) / (COARSE_PER_GAP // 2 + 1)
    pieces = [-k * period - h - (0.5 * period - h) * tail[::-1]]
    for j in range(-k, k + 1):
        c = j * period
        pieces.append(c + np.linspace(-h, h, n_dense))
        if j < k:
            pieces.append(c + h + (period - 2.0 * h) * gap)
    pieces.append(k * period + h + (0.5 * period - h) * tail)
    return np.concatenate(pieces)


def _draw_hom_op(rng, target: float, kind: str) -> HomOp:
    """Draw a random cavity whose grid of `kind` hits about `target` samples."""
    while True:
        fsr = rng.uniform(5.0, 45.0)
        finesse = rng.uniform(3.0, 40.0)
        bpm = rng.uniform(100.0, 400.0)
        envelope = str(rng.choice(["sinc_squared", "gaussian"]))
        period = 500.0 / fsr  # half the round trip, ps
        width = DIP_WIDTH_PS_GHZ[envelope] / bpm
        if width > period / 3.0:
            continue  # neighbouring dips would overlap
        n_max = int(3.0 * bpm / fsr)
        n_freq = quad_freq_samples(n_max, 2.0 * math.pi * fsr * 1e9, math.pi * fsr * 1e9 / finesse)
        n = int(target / n_freq) | 1
        k_cap = max(1, min(MAX_REVIVAL_INDEX, int(MAX_WINDOW_PS / period - 0.5)))
        grid = (_uniform_grid if kind == "uniform" else _nonuniform_grid)(n, period, width, k_cap)
        if grid is None:
            continue
        return HomOp(fsr, finesse, bpm, envelope, n_max, grid, kind)


class HomSweep:
    """One op builds a comb for a random cavity, then traces and analyses it."""

    min_rounds = 1
    # An odd count puts the median op in the middle stratum of its kind.
    ops_per_kind = 5

    def rounds(self, seed: int):
        rng = np.random.default_rng([seed, 0])
        # One op per stratum midpoint, so every round has the same sizes.
        lo, hi = QUAD_SAMPLES_RANGE
        targets = lo + (hi - lo) * (np.arange(self.ops_per_kind) + 0.5) / self.ops_per_kind
        while True:
            ops = []
            for kind in ("uniform", "nonuniform"):
                ops.append([_draw_hom_op(rng, t, kind) for t in rng.permutation(targets)])
            # Even ops uniform, odd ops non-uniform.
            yield [op for pair in zip(*ops) for op in pair]

    def prepare(self, op: HomOp, opdir: Path):
        cavity = CavitySpec(op.fsr_ghz * 1e9, op.fsr_ghz * 1e9 / op.finesse, label="sweep")
        source = SourceSpec(phase_matching_fwhm_hz=op.bpm_ghz * 1e9, envelope_shape=op.envelope)
        return cavity, source

    def run(self, op: HomOp, ctx):
        cavity, source = ctx
        comb = bfcsim.build_comb(cavity, source, op.n_max)
        trace = bfcsim.simulate_hom_trace(comb, op.delays_ps)
        revivals = bfcsim.locate_revivals(trace)
        width = bfcsim.central_dip_width(trace)
        return trace, revivals, width

    def check(self, op: HomOp, ctx, result, rng) -> None:
        trace, revivals, width = result
        check_trace(trace.delays_ps, trace.coincidence, trace.comb, rng)
        step = float(np.max(np.diff(op.delays_ps)))
        central = [r for r in revivals if r.n == 0]
        if not central or abs(central[0].center_ps) > step:
            raise CheckFailed("no revival located at zero delay")
        if not (math.isfinite(width) and width > 0.0):
            raise CheckFailed(f"central dip width {width!r}")


# --------------------------------------------------------------- cli_analysis


@dataclass(frozen=True)
class CliOp:
    half_width: int
    config_text: str
    visibilities_csv: str
    chsh_seed: int
    kind: str = "session"


def _draw_cli_op(rng, half_width: int) -> CliOp:
    """A session whose matrix spans exactly +/-half_width bins."""
    presets = [p for p in PRESETS if N_MAX_PRESET[p] >= half_width]
    if rng.random() < 0.5:
        preset = str(rng.choice(presets))
        cavity = f'preset="{preset}"'
        finesse = cavity_preset(preset).finesse
    else:
        # The default comb spans +/- int(3 * 245 GHz / FSR) bins.
        fsr = rng.uniform(5.0, min(45.0, 735.0 / (half_width + 1)))
        finesse = rng.uniform(3.0, 40.0)
        cavity = f"fsr_ghz={fsr!r}, linewidth_ghz={fsr / finesse!r}"
    config = "\n".join(
        [
            f"[cavity] {cavity}",
            f'[source] envelope="{rng.choice(["sinc_squared", "gaussian"])}"',
            f"[jsi] filter_fwhm_pm={rng.uniform(0.0, 400.0)!r}, "
            f'filter_shape="{rng.choice(["gaussian", "lorentzian"])}", '
            f"max_bin={half_width}, pump_mw={rng.uniform(0.0, 4.0)!r}",
            "",
        ]
    )
    # Closed-form revival visibilities with 1% noise, clipped into (0, 1):
    # fit_decay_parameter rightly rejects a visibility above 1.
    n = np.arange(-int(rng.integers(2, 11)), int(rng.integers(2, 11)) + 1)
    x = np.abs(n) * math.pi / finesse
    v = np.exp(-x) * (1.0 + x) * (1.0 + 0.01 * rng.standard_normal(n.size))
    v = np.clip(v, 1e-6, 1.0 - 1e-6)
    rows = "".join(f"{int(a)},{float(b)!r}\n" for a, b in zip(n, v))
    return CliOp(half_width, config, "n,visibility\n" + rows, int(rng.integers(0, 2**31)))


class CliAnalysis:
    """One op is ``jsi --config``, ``schmidt --input --visibilities``, ``chsh --seed``."""

    min_rounds = 1
    # Matrix half-widths of one round: midpoints of 15 strata of 2..100, so
    # every round has the same matrix sizes and the median op is one stratum.
    half_widths = np.round(2 + 98 * (np.arange(15) + 0.5) / 15).astype(int)

    def rounds(self, seed: int):
        rng = np.random.default_rng([seed, 0])
        while True:
            yield [_draw_cli_op(rng, int(m)) for m in rng.permutation(self.half_widths)]

    def prepare(self, op: CliOp, opdir: Path):
        config = opdir / "run.cfg"
        vis = opdir / "visibilities.csv"
        config.write_text(op.config_text, encoding="utf-8")
        vis.write_text(op.visibilities_csv, encoding="utf-8")
        return config, vis, opdir / "out"

    def run(self, op: CliOp, ctx) -> list[int]:
        config, vis, out = (str(p) for p in ctx)
        matrix = str(Path(out) / "jsi_matrix.csv")
        return [
            _cli(["jsi", "--config", config, "--out", out]),
            _cli(["schmidt", "--config", config, "--input", matrix, "--visibilities", vis,
                  "--out", out]),
            _cli(["chsh", "--config", config, "--seed", str(op.chsh_seed), "--out", out]),
        ]

    def check(self, op: CliOp, ctx, codes: list[int], rng) -> None:
        if any(codes):
            raise CheckFailed(f"exit codes {codes} (jsi, schmidt, chsh)")
        check_matrix(ctx[2] / "jsi_matrix.csv", 2 * op.half_width + 1)


WORKLOADS = {"paper_repro": PaperRepro, "hom_sweep": HomSweep, "cli_analysis": CliAnalysis}
