"""The closed-form HOM kernel against its oracles.

Kernel vs the quadrature oracle and vs a direct cosine sum of the closed
form.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfcsim import (
    DEFAULT_SOURCE,
    CavitySpec,
    CombSpectrum,
    SourceSpec,
    build_comb,
    hom,
    simulate_hom_trace,
)
from bfcsim.hom import quadrature_visibility

# |C - direct cosine sum of the closed form|: the kernel sums the same
# series by a recurrence; the measured gap is <= 6e-14 on the presets.
DIRECT_TOL = 1e-12

# |C - quadrature oracle| allowed on every checked delay, on top of the span
# truncation bound below; on the presets the gap is <= ~8e-9.
CLOSED_FORM_TOL = 1e-6

WIDE = np.arange(-340.0, 340.0 + 0.1, 0.2)
CUBIC = 30.0 * np.linspace(-1.0, 1.0, 401) ** 3  # dense near the central dip


def _closed_form_coincidence(comb, delays_ps):
    """``C = 1 - sum_m w_m cos(2 m Omega tau) (1 + 2g|tau|) e^{-2g|tau|}``.

    The coincidence of Lorentzian comb bins as a direct two-sided sum over
    m, with ``Omega`` the FSR and ``g = pi * linewidth`` the half-width,
    both angular.
    """
    tau = np.asarray(delays_ps, dtype=float) * 1e-12
    g = comb.half_width_rad_s
    envelope = (1.0 + 2.0 * g * np.abs(tau)) * np.exp(-2.0 * g * np.abs(tau))
    phases = 2.0 * comb.fsr_rad_s * np.outer(tau, comb.bins)
    return 1.0 - (np.cos(phases) @ comb.bin_weights) * envelope


def _oracle_coincidence(visibility, accidental_fraction=0.0):
    return np.clip(1.0 - (1.0 - accidental_fraction) * visibility, 0.0, None)


def _truncation_allowance(comb):
    """Bound on |V| error from the quadrature span ending `PAD_BINS` past the comb.

    With eps the comb-weighted squared-Lorentzian mass outside the span,
    the normalized cosine transform moves by at most ``2 eps / (1 - eps)``.
    """
    h = comb.half_width_rad_s
    edge = (comb.n_max + hom.PAD_BINS) * comb.fsr_rad_s
    centres = comb.bins * comb.fsr_rad_s

    def tail(u):  # mass of (h^2 + x^2)^-2 beyond x = u h, as a fraction
        return (0.5 * np.pi - np.arctan(u) - u / (1.0 + u * u)) / np.pi

    eps = float(comb.bin_weights @ (tail((edge - centres) / h) + tail((edge + centres) / h)))
    return 2.0 * eps / (1.0 - eps)


def _oracle_tol(comb):
    return CLOSED_FORM_TOL + _truncation_allowance(comb)


@pytest.fixture(scope="module")
def cubic_5(comb_5):
    """The 5ghz quadrature oracle on the non-uniform `CUBIC` grid."""
    return quadrature_visibility(comb_5, CUBIC)


# Each preset's wide trace, and the seed of its wide sample (see `oracle_<seed>`).
PRESETS = [("trace_45", 45), ("trace_15", 15), ("trace_5", 5)]


class TestKernelMatchesOracle:
    def test_zoom_grid_45ghz_in_full(self, oracle_45):
        trace = simulate_hom_trace(oracle_45.comb, oracle_45.zoom_delays)
        gap = np.max(np.abs(trace.coincidence - _oracle_coincidence(oracle_45.zoom)))
        assert gap <= _oracle_tol(oracle_45.comb)

    @pytest.mark.parametrize(("fixture", "seed"), PRESETS)
    def test_wide_grid_sample(self, fixture, seed, request):
        trace = request.getfixturevalue(fixture)
        oracle = request.getfixturevalue(f"oracle_{seed}")
        assert np.array_equal(trace.delays_ps, WIDE)
        c = trace.coincidence[oracle.wide_idx]
        assert np.max(np.abs(c - _oracle_coincidence(oracle.wide))) <= _oracle_tol(trace.comb)

    def test_accidental_floor(self, oracle_15):
        a = 0.015
        trace = simulate_hom_trace(oracle_15.comb, oracle_15.zoom_delays, accidental_fraction=a)
        gap = np.max(np.abs(trace.coincidence - _oracle_coincidence(oracle_15.zoom, a)))
        assert gap <= _oracle_tol(oracle_15.comb)
        assert trace.coincidence[trace.delays_ps.size // 2] == pytest.approx(a, abs=1e-9)

    def test_nonuniform_grid(self, comb_5, cubic_5):
        trace = simulate_hom_trace(comb_5, CUBIC)
        gap = np.max(np.abs(trace.coincidence - _oracle_coincidence(cubic_5)))
        assert gap <= _oracle_tol(comb_5)

    @pytest.mark.parametrize("grid", [[0.0], [-1.0, 2.5]])
    def test_short_grids(self, comb_45, grid):
        trace = simulate_hom_trace(comb_45, np.array(grid))
        oracle = _oracle_coincidence(quadrature_visibility(comb_45, np.array(grid)))
        assert np.max(np.abs(trace.coincidence - oracle)) <= _oracle_tol(comb_45)


class TestAsymmetricWeights:
    def test_fold_as_w_m_plus_w_minus_m(self, cavity_45):
        # Weights uneven in m by 8e-13, inside the 1e-12 CombSpectrum allows.
        w = build_comb(cavity_45, DEFAULT_SOURCE, n_max=4).bin_weights.copy()
        w[0] += 4e-13
        w[-1] -= 4e-13
        comb = CombSpectrum(
            n_max=4,
            bin_weights=w,
            half_width_rad_s=cavity_45.half_width_rad_s,
            fsr_rad_s=cavity_45.fsr_rad_s,
        )
        assert not np.array_equal(comb.bin_weights, comb.bin_weights[::-1])
        # A third of a revival period: the outermost bins' cosines are far from 1.
        tau = np.linspace(0.0, 0.5 * comb.round_trip_ps / 3.0, 64) * 1e-12
        cosines = np.cos(2.0 * comb.fsr_rad_s * np.outer(tau, comb.bins))

        # A fold that doubled each w_m for m > 0 instead would move the comb
        # factor by up to 8e-13, well above the gap allowed below.
        doubled = np.concatenate((np.zeros(4), [w[4]], 2.0 * w[5:]))
        assert np.max(np.abs(cosines @ doubled - cosines @ w)) > 4e-13
        assert np.max(np.abs(hom._comb_factor(comb, tau) - cosines @ w)) <= 1e-14


class TestTraceMatchesClosedForm:
    """The kernel against the direct cosine sum of the same closed form."""

    @pytest.mark.parametrize(("fixture", "seed"), PRESETS)
    def test_wide_sample_and_revival_centres(self, fixture, seed, request):
        trace = request.getfixturevalue(fixture)
        idx = request.getfixturevalue(f"oracle_{seed}").wide_idx
        closed = _closed_form_coincidence(trace.comb, trace.delays_ps[idx])
        assert np.max(np.abs(trace.coincidence[idx] - closed)) <= DIRECT_TOL

    def test_zoom_45ghz_in_full(self, zoom_trace_45):
        closed = _closed_form_coincidence(zoom_trace_45.comb, zoom_trace_45.delays_ps)
        assert np.max(np.abs(zoom_trace_45.coincidence - closed)) <= DIRECT_TOL


COMBS = ["comb_45", "comb_15", "comb_5"]


class TestKernelIdentities:
    """Properties the closed form has exactly, held by the kernel to rounding."""

    @pytest.mark.parametrize("ghz", [45, 15, 5])
    def test_revival_dips_equal_closed_form(self, ghz, request):
        # At tau = n * period every cos(2 m Omega tau) is 1, so E = 1 and
        # the dip is V_n = exp(-|n| pi/F) (1 + |n| pi/F).
        comb = request.getfixturevalue(f"comb_{ghz}")
        cavity = request.getfixturevalue(f"cavity_{ghz}")
        n = np.arange(-10, 11)
        c = simulate_hom_trace(comb, n * (0.5 * comb.round_trip_ps)).coincidence
        expected = [1.0 - hom.dip_visibility_closed_form(k, cavity) for k in n]
        assert np.max(np.abs(c - expected)) <= DIRECT_TOL

    @pytest.mark.parametrize("fixture", COMBS)
    def test_even_in_delay(self, fixture, request):
        comb = request.getfixturevalue(fixture)
        positive = np.linspace(0.01, 1.5 * comb.round_trip_ps, 500)
        c = simulate_hom_trace(comb, np.concatenate((-positive[::-1], positive))).coincidence
        assert np.array_equal(c, c[::-1])

    @pytest.mark.parametrize("fixture", COMBS)
    def test_comb_factor_has_the_revival_period(self, fixture, request):
        comb = request.getfixturevalue(fixture)
        period = 0.5 * comb.round_trip_ps * 1e-12
        tau = np.linspace(0.0, period, 300)
        shifted = hom._comb_factor(comb, tau + period)
        assert np.max(np.abs(shifted - hom._comb_factor(comb, tau))) <= DIRECT_TOL

    def test_single_bin_comb_is_one_squared_lorentzian(self, cavity_45):
        comb = build_comb(cavity_45, DEFAULT_SOURCE, n_max=0)
        delays = np.linspace(-20.0, 20.0, 401)
        x = 2.0 * comb.half_width_rad_s * np.abs(delays) * 1e-12
        expected = 1.0 - (1.0 + x) * np.exp(-x)
        c = simulate_hom_trace(comb, delays).coincidence
        assert np.max(np.abs(c - expected)) <= 1e-15

    def test_trailing_zero_weights_are_dropped_bit_for_bit(self, cavity_5):
        # A gaussian envelope of 245 GHz underflows to 0 past about 800 bins of 5 GHz.
        with pytest.warns(UserWarning, match="greatly exceeds"):
            comb = build_comb(cavity_5, SourceSpec(envelope_shape="gaussian"), n_max=1200)
        n = comb.n_max
        c = comb.bin_weights[n:] + comb.bin_weights[n::-1]
        c[0] *= 0.5
        c /= c.sum()
        assert np.count_nonzero(c == 0.0) > 100 and c[-1] == 0.0
        tau = np.linspace(0.0, 0.5 * comb.round_trip_ps, 201) * 1e-12
        x = np.cos(2.0 * comb.fsr_rad_s * tau)
        # Clenshaw's recurrence over every folded weight, the zeros too.
        b1 = b2 = np.zeros_like(x)
        for c_m in c[:0:-1]:
            b1, b2 = c_m + 2.0 * x * b1 - b2, b1
        untrimmed = c[0] + x * b1 - b2
        trimmed = hom._comb_factor(comb, tau)
        assert np.array_equal(trimmed.view(np.uint64), untrimmed.view(np.uint64))

    def test_recurrence_error_within_n_max_squared_eps(self, cavity_5):
        # Flat weights are the hardest case: no tail decays, and Clenshaw's
        # rounding grows as n_max**2 * eps near cos(2 Omega tau) = +-1
        # (measured 7.4e-12 here, 7.3e-10 at n_max = 10,000).
        n_max = 1000
        w = np.full(2 * n_max + 1, 1.0 / (2 * n_max + 1))
        comb = CombSpectrum(
            n_max=n_max,
            bin_weights=w,
            half_width_rad_s=cavity_5.half_width_rad_s,
            fsr_rad_s=cavity_5.fsr_rad_s,
        )
        tau = np.linspace(0.0, 0.5 * comb.round_trip_ps, 201) * 1e-12
        direct = np.cos(2.0 * comb.fsr_rad_s * np.outer(tau, comb.bins)) @ w
        gap = np.max(np.abs(hom._comb_factor(comb, tau) - direct))
        assert gap <= n_max**2 * np.finfo(float).eps


class TestQuadratureOracle:
    """The oracle's own invariants, independent of the closed form."""

    @pytest.mark.parametrize("fixture", COMBS)
    def test_unit_visibility_at_zero_delay(self, fixture, request):
        comb = request.getfixturevalue(fixture)
        assert quadrature_visibility(comb, [0.0])[0] == pytest.approx(1.0, abs=1e-14)

    def test_even_in_delay(self, comb_45):
        positive = np.linspace(0.01, 12.0, 100)
        v = quadrature_visibility(comb_45, np.concatenate((-positive[::-1], positive)))
        assert np.max(np.abs(v - v[::-1])) <= 1e-14

    def test_row_blocks_do_not_change_values(self, comb_45):
        # 500 delays span several of the cosine sum's row blocks; pieces of
        # 100 cut them elsewhere.
        delays = np.linspace(-12.0, 12.0, 500)
        pieces = [quadrature_visibility(comb_45, delays[i : i + 100]) for i in range(0, 500, 100)]
        gap = np.max(np.abs(quadrature_visibility(comb_45, delays) - np.concatenate(pieces)))
        assert gap <= 1e-14


@st.composite
def _combs(draw):
    """Cavities and sources over the ranges of the benchmark's HOM sweep."""
    fsr_ghz = draw(st.floats(5.0, 45.0))
    finesse = draw(st.floats(3.0, 40.0))
    source = SourceSpec(
        phase_matching_fwhm_hz=draw(st.floats(100.0, 400.0)) * 1e9,
        envelope_shape=draw(st.sampled_from(["gaussian", "sinc_squared"])),
    )
    return build_comb(CavitySpec(fsr_ghz * 1e9, fsr_ghz * 1e9 / finesse), source)


@settings(max_examples=25, deadline=None)
@given(_combs())
def test_kernel_matches_direct_sum_and_oracle(comb):
    period = 0.5 * comb.round_trip_ps
    delays = np.linspace(-3.5 * period, 3.5 * period, 701)
    c = simulate_hom_trace(comb, delays).coincidence
    assert np.max(np.abs(c - _closed_form_coincidence(comb, delays))) <= DIRECT_TOL

    centres = period * np.arange(-3, 4)
    c = simulate_hom_trace(comb, centres).coincidence
    oracle = _oracle_coincidence(quadrature_visibility(comb, centres))
    assert np.max(np.abs(c - oracle)) <= _oracle_tol(comb)
