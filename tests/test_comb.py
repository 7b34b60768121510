"""Comb construction: cavity parameters, weights, temporal envelope."""

import math

import pytest

from bfcsim import (
    CavitySpec,
    CombSpectrum,
    SourceSpec,
    build_comb,
    cavity_preset,
    default_n_max,
    time_bin_eigenvalues,
)


class TestCavitySpec:
    def test_round_trip_values(self):
        assert cavity_preset("45ghz").round_trip_ps == pytest.approx(22.07, abs=0.01)
        assert cavity_preset("5ghz").round_trip_ps == pytest.approx(198.8, abs=0.05)
        assert CavitySpec(1e12, 1e9).round_trip_ps == pytest.approx(1.0, rel=1e-12)

    def test_half_round_trip_matches_revival_period(self):
        # 45.32 GHz cavity: revivals repeat every 11.03 ps.
        assert cavity_preset("45ghz").round_trip_ps / 2 == pytest.approx(11.03, abs=0.01)

    def test_preset_derived_constants(self):
        cav = cavity_preset("45ghz")
        assert cav.finesse == pytest.approx(45.32 / 1.56, rel=1e-12)
        assert cavity_preset("15ghz").finesse == pytest.approx(15.15 / 1.36, rel=1e-12)
        assert cavity_preset("5ghz").finesse == pytest.approx(5.03 / 0.46, rel=1e-12)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="fsr_hz > linewidth_fwhm_hz"):
            CavitySpec(fsr_hz=1e9, linewidth_fwhm_hz=2e9)
        with pytest.raises(ValueError, match="linewidth_fwhm_hz"):
            CavitySpec(fsr_hz=1e9, linewidth_fwhm_hz=0.0)
        with pytest.raises(ValueError, match="finite fsr_hz"):
            CavitySpec(fsr_hz=math.inf, linewidth_fwhm_hz=1e9)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown cavity preset"):
            cavity_preset("9ghz")


class TestBuildComb:
    def test_single_bin(self):
        comb = build_comb(cavity_preset("45ghz"), SourceSpec(), n_max=0)
        assert comb.bin_weights.shape == (1,)
        assert comb.bin_weights[0] == 1.0

    def test_gaussian_neighbor_ratio(self, cavity_45):
        # Direct evaluation of the gaussian envelope at one bin spacing;
        # n_max=30 intentionally overshoots the span-warning threshold.
        src = SourceSpec(envelope_shape="gaussian")
        with pytest.warns(UserWarning):
            comb = build_comb(cavity_45, src, n_max=30)
        expected = math.exp(-4 * math.log(2) * 45.32**2 / 245.0**2)
        w, n = comb.bin_weights, comb.n_max
        assert w[n + 1] / w[n] == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.9094, abs=5e-4)

    def test_weights_normalized_and_symmetric(self, comb_45, comb_15, comb_5):
        for comb in (comb_45, comb_15, comb_5):
            assert abs(comb.bin_weights.sum() - 1.0) <= 1e-12
            assert comb.bin_weights.min() >= 0.0
            n = comb.n_max
            assert comb.bin_weights[n + 2] == comb.bin_weights[n - 2]

    def test_default_n_max_spans_three_bandwidths(self, cavity_45, cavity_15, cavity_5):
        src = SourceSpec()
        assert default_n_max(cavity_45, src) == 16
        assert default_n_max(cavity_15, src) == 48
        assert default_n_max(cavity_5, src) == 146

    def test_nan_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CombSpectrum(n_max=1, bin_weights=[math.nan] * 3, half_width_rad_s=1.0, fsr_rad_s=10.0)

    def test_rejects_negative_n_max(self, cavity_45):
        with pytest.raises(ValueError):
            build_comb(cavity_45, SourceSpec(), n_max=-1)

    def test_warns_on_absurd_span(self, cavity_45):
        with pytest.warns(UserWarning, match="span greatly exceeds"):
            build_comb(cavity_45, SourceSpec(), n_max=30)

    def test_source_validation(self):
        with pytest.raises(ValueError):
            SourceSpec(phase_matching_fwhm_hz=-1.0)
        with pytest.raises(ValueError):
            SourceSpec(pump_power_mw=-0.5)
        with pytest.raises(ValueError, match="pump_power_mw"):
            SourceSpec(pump_power_mw=math.nan)
        with pytest.raises(ValueError):
            SourceSpec(envelope_shape="boxcar")

    @pytest.mark.parametrize(
        "field", ["phase_matching_fwhm_hz", "pump_power_mw", "degenerate_wavelength_nm"]
    )
    def test_source_rejects_infinity(self, field):
        with pytest.raises(ValueError, match=field):
            SourceSpec(**{field: math.inf})


def peak_weights(cavity, n_max):
    """Weight of each temporal peak n of the comb state, keyed by n.

    These are the time-bin Schmidt eigenvalues exp(-2 pi |n| / F) / sum.
    """
    spectrum = time_bin_eigenvalues(cavity, n_max)
    return dict(zip(spectrum.n.tolist(), spectrum.eigenvalue.tolist()))


class TestTemporalEnvelope:
    def test_single_bin_is_unity(self, cavity_45):
        assert peak_weights(cavity_45, 0) == {0: 1.0}

    def test_peak_value_matches_direct_sum(self, cavity_45):
        f = cavity_45.finesse
        sigma = 1.0 + 2.0 * sum(math.exp(-2 * math.pi * k / f) for k in range(1, 31))
        assert peak_weights(cavity_45, 30)[0] == pytest.approx(1.0 / sigma, rel=1e-12)

    def test_geometric_decay_ratio(self, cavity_45, comb_45):
        w = peak_weights(cavity_45, comb_45.n_max)
        ratio = math.exp(-2 * math.pi / cavity_45.finesse)
        for n in range(0, comb_45.n_max - 1):
            assert w[n + 1] / w[n] == pytest.approx(ratio, rel=1e-12)

    def test_sums_to_one_even_and_decreasing(self, cavity_15, comb_15):
        n_max = comb_15.n_max
        w = peak_weights(cavity_15, n_max)
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)
        for n in range(1, n_max + 1):
            assert w[n] == w[-n]
            assert w[n] < w[n - 1]

    def test_no_peak_beyond_n_max(self, cavity_45, comb_45):
        assert sorted(peak_weights(cavity_45, comb_45.n_max)) == list(
            range(-comb_45.n_max, comb_45.n_max + 1)
        )
