"""Shared fixtures: preset combs, their wide delay scans and quadrature-oracle values.

Also the references that tests import: the dense ideal JSI, `ideal_jsi`, the
per-window revival finder, `reference_revivals`, and `revival_rows`, which
builds the record array that `locate_revivals` returns.
"""

import math
import warnings
from functools import cached_property

import numpy as np
import pytest

from bfcsim import DEFAULT_SOURCE, Jsi, build_comb, cavity_preset, simulate_hom_trace
from bfcsim.config import _ZOOM_DELAYS_PS
from bfcsim.hom import REVIVAL_VISIBILITY_FLOOR, quadrature_visibility

WIDE_STEP_PS = 0.2
WIDE_WINDOW_PS = 340.0


def ideal_jsi(comb):
    """Noise-free JSI: comb weights on the anticorrelation diagonal, zero elsewhere."""
    size = 2 * comb.n_max + 1
    values = np.zeros((size, size))
    idx = np.arange(size)
    values[idx, idx[::-1]] = comb.bin_weights
    return Jsi(n_max=comb.n_max, values=values)


def _median(values):
    """`np.median` of a nonempty list of floats, none of them nan, bit for bit."""
    s = sorted(values)
    m = len(s) // 2
    return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2.0


def _plateau_medians(delays, coincidence, period):
    """Median coincidence over the middle half of each inter-dip interval that holds a delay."""
    k_lo = int(math.floor(delays[0] / period)) - 1
    k_hi = int(math.ceil(delays[-1] / period)) + 1
    ks = np.arange(k_lo, k_hi + 1)
    starts = np.searchsorted(delays, (ks + 0.25) * period, side="left").tolist()
    stops = np.searchsorted(delays, (ks + 0.75) * period, side="right").tolist()
    return {
        k: _median(coincidence[start:stop].tolist())
        for k, start, stop in zip(range(k_lo, k_hi + 1), starts, stops)
        if stop > start
    }


def revival_rows(rows):
    """(n, center_ps, visibility) tuples as a record array of `locate_revivals`' fields."""
    dtype = [("n", np.int64), ("center_ps", np.float64), ("visibility", np.float64)]
    return np.rec.fromrecords(list(rows), dtype=dtype)


def reference_revivals(trace):
    """`locate_revivals` one window at a time, in Python floats."""
    delays = trace.delays_ps
    c = trace.coincidence
    period = trace.revival_period_ps
    if delays[-1] - delays[0] < period:
        raise ValueError("locate_revivals: trace must span at least one revival period")
    if _median(np.diff(delays).tolist()) > period / 10.0:
        warnings.warn(
            "locate_revivals: delay grid coarser than a tenth of the revival "
            "period; dip centers are unreliable",
            stacklevel=2,
        )

    medians = _plateau_medians(delays, c, period)
    global_plateau = _median(list(medians.values())) if medians else float(c.max())

    near = np.rint(delays / period)
    inside = np.flatnonzero(np.abs(delays - near * period) <= period / 4.0)
    n_lo = int(math.ceil(delays[0] / period))
    n_hi = int(math.floor(delays[-1] / period))
    runs = np.searchsorted(near[inside], np.arange(n_lo, n_hi + 2) - 0.5).tolist()
    records = []
    for n, first, last in zip(range(n_lo, n_hi + 1), runs, runs[1:]):
        if last - first < 3:
            continue
        start = int(inside[first])
        local = c[start : int(inside[last - 1]) + 1].tolist()
        low = min(local)
        j = local.index(low)
        if not (low < local[0] and low < local[-1]):
            continue
        plateaus = [medians[k] for k in (n - 1, n) if k in medians]
        c_max = sum(plateaus) / len(plateaus) if plateaus else global_plateau
        if c_max <= 0.0:
            continue
        vis = min(max((c_max - low) / c_max, 0.0), 1.0)
        if vis < REVIVAL_VISIBILITY_FLOOR:
            continue
        records.append((n, float(delays[start + j]), vis))
    return revival_rows(records)


@pytest.fixture(scope="session")
def cavity_45():
    return cavity_preset("45ghz")


@pytest.fixture(scope="session")
def cavity_15():
    return cavity_preset("15ghz")


@pytest.fixture(scope="session")
def cavity_5():
    return cavity_preset("5ghz")


@pytest.fixture(scope="session")
def comb_45(cavity_45):
    return build_comb(cavity_45, DEFAULT_SOURCE)


@pytest.fixture(scope="session")
def comb_15(cavity_15):
    return build_comb(cavity_15, DEFAULT_SOURCE)


@pytest.fixture(scope="session")
def comb_5(cavity_5):
    return build_comb(cavity_5, DEFAULT_SOURCE)


def _wide_delays():
    return np.arange(-WIDE_WINDOW_PS, WIDE_WINDOW_PS + WIDE_STEP_PS / 2.0, WIDE_STEP_PS)


@pytest.fixture(scope="session")
def trace_45(comb_45):
    return simulate_hom_trace(comb_45, _wide_delays())


@pytest.fixture(scope="session")
def trace_15(comb_15):
    return simulate_hom_trace(comb_15, _wide_delays())


@pytest.fixture(scope="session")
def trace_5(comb_5):
    return simulate_hom_trace(comb_5, _wide_delays())


@pytest.fixture(scope="session")
def zoom_trace_45(comb_45):
    delays = np.arange(-12.0, 12.0 + 0.0025, 0.005)
    return simulate_hom_trace(comb_45, delays)


def _wide_sample(period, seed):
    """Seeded 200 wide-grid indices plus the index nearest each revival centre."""
    rng = np.random.default_rng(seed)
    d = _wide_delays()
    n = np.arange(np.ceil(d[0] / period), np.floor(d[-1] / period) + 1)
    centres = np.abs(d[:, None] - n * period).argmin(axis=0)
    return np.union1d(rng.choice(d.size, 200, replace=False), centres)


class _Oracle:
    """The quadrature oracle's visibility on the zoom grid and on a seeded wide sample.

    Each is computed on first read, so a session pays only for the grids its tests use.
    """

    def __init__(self, comb, seed):
        self.comb = comb
        self.zoom_delays = _ZOOM_DELAYS_PS
        self.wide_idx = _wide_sample(0.5 * comb.round_trip_ps, seed)

    @cached_property
    def zoom(self):
        return quadrature_visibility(self.comb, self.zoom_delays)

    @cached_property
    def wide(self):
        return quadrature_visibility(self.comb, _wide_delays()[self.wide_idx])


@pytest.fixture(scope="session")
def oracle_45(comb_45):
    return _Oracle(comb_45, 45)


@pytest.fixture(scope="session")
def oracle_15(comb_15):
    return _Oracle(comb_15, 15)


@pytest.fixture(scope="session")
def oracle_5(comb_5):
    return _Oracle(comb_5, 5)
