"""Bell-test module: fringe law, fits, correlations, S parameter, noise."""

import math

import numpy as np
import pytest

from bfcsim import (
    ChshResult,
    FringeScan,
    fit_fringe,
    s_chsh,
    s_fringe_from_visibility,
    simulate_chsh_counts,
    simulate_fringe_scan,
    violation_sigmas,
)
from bfcsim.chsh import correlation_E, correlation_E_error, fringe_rate

ANGLES = np.arange(0.0, 360.0, 10.0)


class TestFringeRate:
    def test_maximum_at_quarter_turn(self):
        assert fringe_rate(45.0, 45.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_zero_at_antisum(self):
        assert fringe_rate(30.0, -30.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_max_min_ratio_equals_visibility(self):
        v = 0.9796
        rates = [fringe_rate(45.0, a, v) for a in np.arange(0.0, 180.0, 0.5)]
        vis = (max(rates) - min(rates)) / (max(rates) + min(rates))
        assert vis == pytest.approx(v, abs=1e-6)

    def test_visibility_domain(self):
        with pytest.raises(ValueError):
            fringe_rate(0.0, 0.0, 1.2)


class TestSimulateFringeScan:
    def test_deterministic_under_seed(self):
        a = simulate_fringe_scan(45.0, ANGLES, 0.9, 1e4, seed=7)
        b = simulate_fringe_scan(45.0, ANGLES, 0.9, 1e4, seed=7)
        assert np.array_equal(a.counts, b.counts)

    def test_zero_visibility_is_flat_on_average(self):
        scan = simulate_fringe_scan(0.0, ANGLES, 0.0, 1e5, seed=3)
        assert scan.counts.mean() == pytest.approx(5e4, rel=0.01)

    def test_rejects_nonpositive_integration(self):
        with pytest.raises(ValueError):
            simulate_fringe_scan(0.0, ANGLES, 0.5, 0.0, seed=1)


class TestFitFringe:
    def _noiseless_scan(self, v, fixed=45.0, scale=1e4):
        counts = np.array([scale * fringe_rate(fixed, a, v) for a in ANGLES])
        return FringeScan(fixed, ANGLES, counts, scale)

    @pytest.mark.parametrize("v", [0.5, 0.9796])
    def test_exact_on_noiseless_data(self, v):
        fit = fit_fringe(self._noiseless_scan(v))
        assert fit.visibility == pytest.approx(v, abs=1e-6)

    def test_flat_counts_flagged(self):
        scan = FringeScan(45.0, ANGLES, np.full(ANGLES.size, 500.0), 1e3)
        fit = fit_fringe(scan)
        assert fit.visibility == 0.0
        assert math.isnan(fit.phase_deg)

    def test_recovers_visibility_within_percent(self):
        scan = simulate_fringe_scan(45.0, ANGLES, 0.9796, 1e4, seed=2)
        fit = fit_fringe(scan)
        assert fit.visibility == pytest.approx(0.9796, abs=0.01)

    def test_bias_below_half_percent(self):
        errors = []
        for seed in range(20):
            scan = simulate_fringe_scan(45.0, ANGLES, 0.9796, 1e4, seed=seed)
            errors.append(fit_fringe(scan).visibility - 0.9796)
        assert abs(float(np.mean(errors))) < 0.005

    def test_accidental_subtraction(self):
        floor = 200.0
        counts = np.array([1e4 * fringe_rate(45.0, a, 0.8) + floor for a in ANGLES])
        scan = FringeScan(45.0, ANGLES, counts, 1e4)
        fit = fit_fringe(scan, accidental_floor=floor)
        assert fit.visibility == pytest.approx(0.8, abs=1e-6)

    def test_requires_angular_coverage(self):
        narrow = np.linspace(0.0, 90.0, 10)
        counts = np.ones(10)
        with pytest.raises(ValueError, match="180"):
            fit_fringe(FringeScan(45.0, narrow, counts, 1.0))
        with pytest.raises(ValueError, match="6"):
            fit_fringe(FringeScan(45.0, np.array([0.0, 90.0, 180.0, 270.0]), np.ones(4), 1.0))


class TestCorrelation:
    def test_ideal_angles_give_minus_inverse_sqrt2(self):
        settings = ((45.0, 112.5), (45.0, 202.5), (135.0, 112.5), (135.0, 202.5))
        counts = [fringe_rate(p, q, 1.0) for p, q in settings]
        assert correlation_E(counts) == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-12)

    def test_equal_counts_give_zero(self):
        assert correlation_E([5.0, 5.0, 5.0, 5.0]) == 0.0

    def test_scale_invariance(self):
        counts = [40.0, 10.0, 12.0, 55.0]
        assert correlation_E(counts) == pytest.approx(
            correlation_E([7.0 * c for c in counts]), rel=1e-12
        )

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            correlation_E([0.0, 0.0, 0.0, 0.0])

    def test_error_shrinks_with_counts(self):
        small = correlation_E_error([40.0, 10.0, 12.0, 55.0])
        large = correlation_E_error([4000.0, 1000.0, 1200.0, 5500.0])
        assert large == pytest.approx(small / 10.0, rel=1e-9)


class TestSParameter:
    def test_tsirelson_at_unit_visibility(self):
        assert s_chsh(visibility=1.0).s_value == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_fringe_s_values(self):
        assert s_fringe_from_visibility(1.0) == pytest.approx(2.828, abs=1e-3)
        assert s_fringe_from_visibility(0.9796) == pytest.approx(2.7707, abs=1e-4)
        assert s_fringe_from_visibility(1.0 / math.sqrt(2.0)) == pytest.approx(2.0, rel=1e-12)

    def test_reference_chsh_value(self):
        assert s_chsh(visibility=0.9497).s_value == pytest.approx(2.686, abs=2e-3)

    def test_linear_in_visibility(self):
        for v in np.linspace(0.0, 1.0, 11):
            assert s_chsh(visibility=v).s_value == pytest.approx(
                2 * math.sqrt(2) * v, abs=1e-9
            )

    def test_violation_sigmas(self):
        assert violation_sigmas(2.686, 0.037) == pytest.approx(18.5, abs=0.1)
        assert violation_sigmas(1.9, 0.05) == 0.0
        assert violation_sigmas(2.5, 0.0) == math.inf


class TestSimulatedChsh:
    def test_deterministic(self):
        a = simulate_chsh_counts(0.9497, 800.0, seed=11)
        b = simulate_chsh_counts(0.9497, 800.0, seed=11)
        assert a == b

    def test_sigma_scale_near_published_statistics(self):
        # At ~800 mean counts per fringe maximum the propagated error lands
        # within a factor of two of the published 0.037.
        result = simulate_chsh_counts(0.9497, 800.0, seed=3)
        assert 0.037 / 2 <= result.s_sigma <= 0.037 * 2
        assert result.s_value == pytest.approx(2.686, abs=3 * result.s_sigma)

    def test_correlations_bounded(self):
        result = simulate_chsh_counts(0.9, 500.0, seed=9)
        for e in result.correlations:
            assert -1.0 <= e <= 1.0


class TestChshResultType:
    def test_unphysical_s_rejected(self):
        with pytest.raises(ValueError, match="unphysical"):
            ChshResult((0.9, 0.9, 0.9, -0.9), s_value=3.6, s_sigma=0.0, violation_sigmas=0.0)

    def test_correlation_bounds(self):
        with pytest.raises(ValueError):
            ChshResult((1.5, 0.0, 0.0, 0.0), s_value=1.5, s_sigma=0.0, violation_sigmas=0.0)
