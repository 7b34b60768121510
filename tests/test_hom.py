"""Interferometry: quadrature oracle, closed-form visibility, revival location."""

import math

import numpy as np
import pytest

from bfcsim import (
    DEFAULT_SOURCE,
    SourceSpec,
    build_comb,
    central_dip_width,
    dip_visibility_closed_form,
    locate_revivals,
    simulate_hom_trace,
    visibility_to_decay_parameter,
)
from bfcsim.hom import HomTrace, RevivalRecord, _plateau_medians


def revival_delays(cavity, n_values):
    half_rt = cavity.round_trip_ps / 2.0
    return np.sort(np.array([n * half_rt for n in n_values], dtype=float))


class TestClosedForm:
    def test_zero_bin(self, cavity_45):
        assert dip_visibility_closed_form(0, cavity_45) == 1.0

    def test_direct_evaluations(self, cavity_45, cavity_15):
        x = 30 * math.pi / cavity_45.finesse
        assert dip_visibility_closed_form(30, cavity_45) == pytest.approx(
            math.exp(-x) * (1 + x), rel=1e-12
        )
        assert dip_visibility_closed_form(30, cavity_45) == pytest.approx(0.166, abs=1e-3)
        assert dip_visibility_closed_form(1, cavity_15) == pytest.approx(0.967, abs=1e-3)

    def test_even_and_decreasing(self, cavity_45):
        vals = [dip_visibility_closed_form(n, cavity_45) for n in range(0, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert dip_visibility_closed_form(-7, cavity_45) == dip_visibility_closed_form(7, cavity_45)


class TestDecayInversion:
    def test_unity_maps_to_zero(self):
        assert visibility_to_decay_parameter(1.0) == 0.0

    def test_known_value(self):
        # 0.166 is the rounded n=30 visibility; inverting it lands within
        # the rounding error of the exact decay parameter 3.244.
        assert visibility_to_decay_parameter(0.166) == pytest.approx(3.244, abs=5e-3)

    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_round_trip_identity(self, cavity_45, n):
        v = dip_visibility_closed_form(n, cavity_45)
        x = visibility_to_decay_parameter(v)
        assert x == pytest.approx(n * math.pi / cavity_45.finesse, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.0001])
    def test_domain_rejected(self, bad):
        with pytest.raises(ValueError):
            visibility_to_decay_parameter(bad)


class TestSimulateTrace:
    def test_zero_delay_full_dip(self, comb_45):
        trace = simulate_hom_trace(comb_45, np.array([0.0]))
        assert trace.coincidence[0] == pytest.approx(0.0, abs=1e-9)

    def test_symmetric_in_delay(self, comb_45):
        delays = np.linspace(-30.0, 30.0, 301)
        trace = simulate_hom_trace(comb_45, delays)
        assert np.max(np.abs(trace.coincidence - trace.coincidence[::-1])) < 1e-6

    def test_minima_at_revival_period(self, trace_45, cavity_45):
        # Local minima at +/- half the round-trip time.
        d, c = trace_45.delays_ps, trace_45.coincidence
        for target in (11.03, -11.03):
            window = np.nonzero(np.abs(d - target) <= 3.0)[0]
            j = window[np.argmin(c[window])]
            assert d[j] == pytest.approx(target, abs=0.15)

    def test_first_revival_matches_closed_form(self, cavity_45, comb_45):
        delays = revival_delays(cavity_45, [-1, 0, 1])
        trace = simulate_hom_trace(comb_45, delays)
        vis = 1.0 - trace.coincidence
        expected = dip_visibility_closed_form(1, cavity_45)
        assert expected == pytest.approx(0.9946, abs=1e-4)
        assert vis[0] == pytest.approx(expected, abs=1e-3)
        assert vis[-1] == pytest.approx(expected, abs=1e-3)

    def test_oracle_matches_closed_form_45ghz(self, cavity_45, comb_45):
        delays = revival_delays(cavity_45, range(-10, 11))
        trace = simulate_hom_trace(comb_45, delays)
        vis = 1.0 - trace.coincidence
        for tau, v in zip(trace.delays_ps, vis):
            n = round(tau / (cavity_45.round_trip_ps / 2.0))
            assert v == pytest.approx(dip_visibility_closed_form(n, cavity_45), abs=1e-3)

    def test_accidental_floor_scales_visibility(self, comb_45, cavity_45):
        a = 0.015
        delays = revival_delays(cavity_45, [0, 1])
        trace = simulate_hom_trace(comb_45, delays, accidental_fraction=a)
        # central dip rises to the accidental fraction; overall V -> V(1-a)
        assert trace.coincidence[0] == pytest.approx(a, abs=1e-9)
        v1 = 1.0 - trace.coincidence[1]
        assert v1 == pytest.approx((1 - a) * dip_visibility_closed_form(1, cavity_45), abs=1e-3)

    def test_rejects_bad_inputs(self, comb_45):
        with pytest.raises(ValueError, match="empty"):
            simulate_hom_trace(comb_45, np.array([]))
        with pytest.raises(ValueError, match="strictly increasing"):
            simulate_hom_trace(comb_45, np.array([1.0, 1.0, 2.0]))


class TestLocateRevivals:
    def test_45ghz_yields_61_dips(self, trace_45):
        records = locate_revivals(trace_45)
        assert len(records) == 61
        assert [r.n for r in records] == list(range(-30, 31))

    def test_5ghz_yields_7_dips(self, trace_5):
        records = locate_revivals(trace_5)
        assert [r.n for r in records] == list(range(-3, 4))

    def test_single_bin_comb_no_revivals(self, cavity_45):
        comb = build_comb(cavity_45, DEFAULT_SOURCE, n_max=0)
        delays = np.arange(-340.0, 340.1, 0.2)
        records = locate_revivals(simulate_hom_trace(comb, delays))
        assert [r.n for r in records] == [0]

    @pytest.mark.parametrize("fixture", ["trace_45", "trace_15", "trace_5"])
    def test_spacing_equals_half_round_trip(self, fixture, request):
        trace = request.getfixturevalue(fixture)
        records = locate_revivals(trace)
        centers = np.array([r.center_ps for r in records])
        spacing = np.mean(np.diff(centers))
        grid = float(np.median(np.diff(trace.delays_ps)))
        assert spacing == pytest.approx(trace.revival_period_ps, abs=grid)

    def test_centers_on_revival_grid(self, trace_45):
        period = trace_45.revival_period_ps
        grid = float(np.median(np.diff(trace_45.delays_ps)))
        for r in locate_revivals(trace_45):
            assert r.center_ps == pytest.approx(r.n * period, abs=grid / 2 + 1e-9)

    def test_central_visibility_is_global_max(self, trace_45):
        records = locate_revivals(trace_45)
        central = next(r for r in records if r.n == 0)
        assert central.visibility == max(r.visibility for r in records)

    def test_warns_on_coarse_grid(self, comb_45):
        delays = np.arange(-30.0, 30.1, 1.5)
        trace = simulate_hom_trace(comb_45, delays)
        with pytest.warns(UserWarning, match="coarser"):
            locate_revivals(trace)

    def test_requires_one_period(self, comb_45):
        trace = simulate_hom_trace(comb_45, np.linspace(-2.0, 2.0, 41))
        with pytest.raises(ValueError, match="revival period"):
            locate_revivals(trace)


def _mask_plateau_medians(delays, coincidence, period):
    # The full-array mask formulation, kept as the oracle of the bisection.
    medians = {}
    k_lo = int(math.floor(delays[0] / period)) - 1
    k_hi = int(math.ceil(delays[-1] / period)) + 1
    for k in range(k_lo, k_hi + 1):
        mask = (delays >= (k + 0.25) * period) & (delays <= (k + 0.75) * period)
        if np.any(mask):
            medians[k] = float(np.median(coincidence[mask]))
    return medians


def _mask_revival_windows(delays, period):
    n_lo = int(math.ceil(delays[0] / period))
    n_hi = int(math.floor(delays[-1] / period))
    return {
        n: np.nonzero(np.abs(delays - n * period) <= period / 4.0)[0]
        for n in range(n_lo, n_hi + 1)
    }


def _mask_locate_revivals(trace):
    delays, c, period = trace.delays_ps, trace.coincidence, trace.revival_period_ps
    medians = _mask_plateau_medians(delays, c, period)
    global_plateau = float(np.median(list(medians.values()))) if medians else float(c.max())
    records = []
    for n, idx in _mask_revival_windows(delays, period).items():
        if idx.size < 3:
            continue
        local = c[idx]
        j = int(np.argmin(local))
        if j == 0 or j == local.size - 1 or not (local[j] < local[0] and local[j] < local[-1]):
            continue
        plateaus = [medians[k] for k in (n - 1, n) if k in medians]
        c_max = float(np.mean(plateaus)) if plateaus else global_plateau
        if c_max <= 0.0:
            continue
        vis = min(max((c_max - float(local[j])) / c_max, 0.0), 1.0)
        records.append(RevivalRecord(n=n, center_ps=float(delays[idx[j]]), visibility=vis))
    return records


def _edge_grid(period, n_periods):
    """A coarse grid plus every window edge, each also one ulp either side."""
    n = np.arange(-n_periods, n_periods + 1)
    edges = np.concatenate(
        [
            n * period + period / 4.0,
            n * period - period / 4.0,
            (n + 0.25) * period,
            (n + 0.75) * period,
        ]
    )
    edges = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    grid = np.linspace(-n_periods * period, n_periods * period, 40 * n_periods + 1)
    return np.unique(np.concatenate([grid, edges]))


class TestRevivalWindowsMatchMaskOracle:
    """locate_revivals bisects to each window; the records must not change by a bit."""

    def _check(self, trace):
        delays, c, period = trace.delays_ps, trace.coincidence, trace.revival_period_ps
        assert _plateau_medians(delays, c, period) == _mask_plateau_medians(delays, c, period)
        expected = _mask_locate_revivals(trace)
        assert expected
        assert locate_revivals(trace) == expected

    @pytest.mark.parametrize("fixture", ["trace_45", "trace_15", "trace_5"])
    def test_preset_wide_traces(self, fixture, request):
        self._check(request.getfixturevalue(fixture))

    def test_nonuniform_grid(self, cavity_45):
        comb = build_comb(cavity_45, DEFAULT_SOURCE, n_max=6)
        rng = np.random.default_rng(5)
        delays = np.unique(rng.uniform(-60.0, 60.0, 2500))
        self._check(simulate_hom_trace(comb, delays))

    def test_delays_on_window_edges(self, comb_45):
        period = 0.5 * comb_45.round_trip_ps
        delays = _edge_grid(period, 6)
        # Periodic Gaussian dips: cheap, and every window holds a strict minimum.
        phase = delays - np.round(delays / period) * period
        c = 1.0 - 0.9 * np.exp(-((phase / (0.05 * period)) ** 2))
        self._check(HomTrace(delays_ps=delays, coincidence=c, comb=comb_45))
        # Some delays meet the quarter-period test with equality.
        assert any(
            np.any(np.abs(delays[idx] - n * period) == period / 4.0)
            for n, idx in _mask_revival_windows(delays, period).items()
        )


class TestCentralDipWidth:
    def test_width_in_acceptance_band(self, zoom_trace_45):
        width = central_dip_width(zoom_trace_45)
        assert 3.2 <= width <= 4.5

    def test_doubled_bandwidth_halves_width(self, cavity_45, zoom_trace_45):
        wide_src = SourceSpec(phase_matching_fwhm_hz=490e9)
        comb = build_comb(cavity_45, wide_src)
        delays = np.arange(-12.0, 12.0 + 0.0025, 0.005)
        w2 = central_dip_width(simulate_hom_trace(comb, delays))
        w1 = central_dip_width(zoom_trace_45)
        assert w2 == pytest.approx(w1 / 2.0, rel=0.05)

    def test_half_threshold_narrower_than_base(self, zoom_trace_45):
        fwhm_like = central_dip_width(zoom_trace_45, threshold=0.5)
        base = central_dip_width(zoom_trace_45, threshold=0.01)
        assert fwhm_like < base

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.6, 1.0])
    def test_threshold_domain(self, zoom_trace_45, bad):
        with pytest.raises(ValueError):
            central_dip_width(zoom_trace_45, threshold=bad)

    def test_underresolved_trace_rejected(self, comb_45):
        trace = simulate_hom_trace(comb_45, np.arange(-8.0, 8.1, 1.0))
        with pytest.raises(ValueError):
            central_dip_width(trace)


class TestHomTraceType:
    def test_length_mismatch(self, comb_45):
        with pytest.raises(ValueError, match="equal length"):
            HomTrace(np.array([0.0, 1.0]), np.array([0.5]), comb_45)

    def test_non_monotone_delays(self, comb_45):
        with pytest.raises(ValueError, match="strictly increasing"):
            HomTrace(np.array([1.0, 0.0]), np.array([0.5, 0.5]), comb_45)

    def test_range_check(self, comb_45):
        with pytest.raises(ValueError, match="coincidence"):
            HomTrace(np.array([0.0, 1.0]), np.array([0.5, 1.5]), comb_45)
