"""Joint spectral intensity: ideal structure, filter smearing, accidental floor."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfcsim import (
    CavitySpec,
    FilterSpec,
    Jsi,
    SourceSpec,
    build_comb,
    crosstalk_db,
    filter_bandwidth_hz,
    scan_correlation_matrix,
)
from bfcsim.jsi import FILTER_SHAPES, filter_transmission, floor_fraction
from conftest import ideal_jsi


@pytest.fixture(scope="module")
def flat_comb(cavity_45):
    # Envelope so broad the five bins are uniform to machine precision.
    return build_comb(cavity_45, SourceSpec(phase_matching_fwhm_hz=1e15), n_max=2)


DELTA = FilterSpec(fwhm_hz=0.0)


def _dense_scan(comb, filt, max_bin, pump_power_mw):
    """The scan as per-target filter rows around the dense ideal JSI: the reference."""
    fsr_hz = comb.fsr_rad_s / (2.0 * math.pi)
    targets = np.arange(-max_bin, max_bin + 1)
    rows = np.stack(
        [np.atleast_1d(filter_transmission(filt, comb.bins - t, fsr_hz)) for t in targets]
    )
    values = rows @ ideal_jsi(comb).values @ rows.T
    r = floor_fraction(pump_power_mw)
    if r > 0.0:
        idx = np.arange(2 * max_bin + 1)
        values = values + r / (1.0 - r) * float(values[idx, idx[::-1]].max())
    return values / values.sum()


@st.composite
def _scans(draw):
    fsr_hz = draw(st.floats(1e9, 1e11))
    cavity = CavitySpec(fsr_hz=fsr_hz, linewidth_fwhm_hz=fsr_hz / draw(st.floats(1.5, 100.0)))
    source = SourceSpec(
        phase_matching_fwhm_hz=draw(st.floats(1e10, 1e12)),
        envelope_shape=draw(st.sampled_from(["gaussian", "sinc_squared"])),
    )
    # Within build_comb's span limit, so no test draws its warning.
    span = int(5.0 * source.phase_matching_fwhm_hz / fsr_hz)
    comb = build_comb(cavity, source, n_max=draw(st.integers(0, min(span, 40))))
    filt = FilterSpec(
        fwhm_hz=draw(st.just(0.0) | st.floats(1e8, 1e11)),
        shape=draw(st.sampled_from(FILTER_SHAPES)),
    )
    max_bin = draw(st.integers(0, comb.n_max))
    return comb, filt, max_bin, draw(st.floats(0.0, 8.5))


class TestIdealJsi:
    def test_uniform_three_bin_antidiagonal(self, cavity_45):
        comb = build_comb(cavity_45, SourceSpec(phase_matching_fwhm_hz=1e15), 1)
        jsi = ideal_jsi(comb)
        for n in (-1, 0, 1):
            assert jsi.values[n + 1, -n + 1] == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_gaussian_envelope_ratio(self, cavity_45):
        src = SourceSpec(envelope_shape="gaussian")
        jsi = ideal_jsi(build_comb(cavity_45, src))
        expected = math.exp(-4 * math.log(2) * (2 * 45.32) ** 2 / 245.0**2)
        assert expected == pytest.approx(0.684, abs=1e-3)
        n = jsi.n_max
        assert jsi.values[n + 2, n - 2] / jsi.values[n, n] == pytest.approx(expected, rel=1e-12)

    def test_off_anticorrelation_exactly_zero(self, comb_45):
        jsi = ideal_jsi(comb_45)
        n = jsi.n_max
        for n_s in range(-n, n + 1):
            for n_i in range(-n, n + 1):
                if n_s + n_i != 0:
                    assert jsi.values[n_s + n, n_i + n] == 0.0

    def test_normalized(self, comb_15):
        assert ideal_jsi(comb_15).values.sum() == pytest.approx(1.0, abs=1e-12)


class TestFilterTransmission:
    def test_one_bin_leak_100pm_on_5ghz(self):
        fwhm = filter_bandwidth_hz(100.0)
        filt = FilterSpec(fwhm_hz=fwhm)
        expected = math.exp(-4 * math.log(2) * (5.03e9 / fwhm) ** 2)
        assert expected == pytest.approx(0.79, abs=5e-3)
        assert filter_transmission(filt, 1.0, 5.03e9) == pytest.approx(expected, rel=1e-12)

    def test_one_bin_leak_300pm_on_45ghz(self):
        # Transmission evaluated at one bin spacing of the 45.32 GHz comb.
        fwhm = filter_bandwidth_hz(300.0)
        filt = FilterSpec(fwhm_hz=fwhm)
        expected = math.exp(-4 * math.log(2) * (45.32e9 / fwhm) ** 2)
        assert filter_transmission(filt, 1.0, 45.32e9) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.121, abs=2e-3)

    def test_delta_filter_is_indicator(self):
        assert filter_transmission(DELTA, 0.0, 45.32e9) == 1.0
        assert filter_transmission(DELTA, 1.0, 45.32e9) == 0.0

    def test_lorentzian_half_maximum(self):
        filt = FilterSpec(fwhm_hz=10e9, shape="lorentzian")
        assert filter_transmission(filt, 0.5, 10e9) == pytest.approx(0.5, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterSpec(fwhm_hz=-1.0)
        with pytest.raises(ValueError):
            FilterSpec(shape="boxcar")


class TestScanCells:
    """Single cells of the filtered scan, with no accidental floor."""

    def test_delta_filters_sample_matrix(self, comb_45):
        jsi = ideal_jsi(comb_45)
        scan = scan_correlation_matrix(comb_45, DELTA, comb_45.n_max)
        n = comb_45.n_max
        assert scan.values[n + 2, n - 2] == pytest.approx(jsi.values[n + 2, n - 2], rel=1e-12)

    def test_delta_filters_mismatch_is_zero(self, comb_45):
        scan = scan_correlation_matrix(comb_45, DELTA, comb_45.n_max)
        n = comb_45.n_max
        assert scan.values[n + 1, n] == 0.0

    def test_finite_filters_suppress_mismatch(self, comb_45):
        filt = FilterSpec(fwhm_hz=filter_bandwidth_hz(300.0))
        scan = scan_correlation_matrix(comb_45, filt, 2)
        assert 0.0 < scan.values[3, 2] < scan.values[3, 1]

    def test_out_of_range_target(self, comb_45):
        with pytest.raises(ValueError):
            scan_correlation_matrix(comb_45, DELTA, comb_45.n_max + 1)

    def test_smearing_conserves_weight_for_normalized_filters(self, cavity_45):
        # Bin-normalized transmission: summing the filtered signal over a
        # target grid that covers the filter support recovers each inner
        # cell's weight.
        comb = build_comb(cavity_45, SourceSpec(envelope_shape="gaussian"), n_max=10)
        filt = FilterSpec(fwhm_hz=filter_bandwidth_hz(300.0))
        offsets = np.arange(-40, 41)
        norm = float(np.sum(filter_transmission(filt, offsets, cavity_45.fsr_hz)))
        targets = range(-10, 11)
        # weight recovered for cells at least 4 bins from the scan edge
        for m in (-6, -3, 0, 2, 6):
            sig_mass = sum(
                float(filter_transmission(filt, m - a, cavity_45.fsr_hz)) for a in targets
            )
            idl_mass = sum(
                float(filter_transmission(filt, -m - b, cavity_45.fsr_hz)) for b in targets
            )
            weight = comb.bin_weights[m + comb.n_max]
            recovered = weight * (sig_mass / norm) * (idl_mass / norm)
            assert recovered == pytest.approx(weight, abs=1e-9)


class TestAccidentalModel:
    def test_calibration_anchors(self):
        floor = floor_fraction
        assert floor(0.0) == 0.0
        assert floor(2.0) == pytest.approx(10 ** (-11.71 / 10), rel=1e-12)
        assert floor(4.0) == pytest.approx(10 ** (-6.31 / 10), rel=1e-12)
        assert floor(2.0) == pytest.approx(0.0674, abs=1e-4)
        assert floor(4.0) == pytest.approx(0.2339, abs=1e-4)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            floor_fraction(-1.0)


class TestCrosstalk:
    def test_ideal_matrix_has_none(self, comb_45):
        assert crosstalk_db(ideal_jsi(comb_45)) is None

    @pytest.mark.parametrize(
        "floor,expected_db", [(0.0674528027697922, -11.71), (0.23388372386593548, -6.31)]
    )
    def test_flat_diagonal_with_floor(self, floor, expected_db):
        size = 5
        values = np.full((size, size), floor)
        idx = np.arange(size)
        values[idx, idx[::-1]] = 1.0
        jsi = Jsi(n_max=2, values=values / values.sum())
        assert crosstalk_db(jsi) == pytest.approx(expected_db, abs=1e-9)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            crosstalk_db(Jsi(n_max=1, values=np.zeros((3, 3))))

    def test_monotone_in_floor(self, flat_comb):
        levels = [
            crosstalk_db(scan_correlation_matrix(flat_comb, DELTA, 2, pump_power_mw=p))
            for p in (0.5, 1.0, 2.0, 3.0, 4.0)
        ]
        assert all(a < b for a, b in zip(levels, levels[1:]))


class TestScanCorrelationMatrix:
    def test_calibration_closure_on_flat_comb(self, flat_comb):
        scan2 = scan_correlation_matrix(flat_comb, DELTA, 2, pump_power_mw=2.0)
        scan4 = scan_correlation_matrix(flat_comb, DELTA, 2, pump_power_mw=4.0)
        assert crosstalk_db(scan2) == pytest.approx(-11.71, abs=1e-9)
        assert crosstalk_db(scan4) == pytest.approx(-6.31, abs=1e-9)

    def test_45ghz_preset_crosstalk_bound(self, comb_45):
        # Delta-filter scan of the real preset reports the calibrated level.
        scan = scan_correlation_matrix(comb_45, DELTA, 2, pump_power_mw=2.0)
        assert crosstalk_db(scan) <= -11.71 + 1e-9

    def test_4mw_crosstalk(self, comb_45):
        scan = scan_correlation_matrix(comb_45, DELTA, 2, pump_power_mw=4.0)
        assert crosstalk_db(scan) == pytest.approx(-6.31, abs=0.1)

    def test_5ghz_19x19_diagonal_dominant(self, comb_5):
        filt = FilterSpec(fwhm_hz=filter_bandwidth_hz(100.0))
        scan = scan_correlation_matrix(comb_5, filt, 9, pump_power_mw=2.0)
        assert scan.values.shape == (19, 19)
        size = 19
        for i in range(size):
            assert int(np.argmax(scan.values[i])) == size - 1 - i

    def test_negation_symmetry(self, comb_45):
        filt = FilterSpec(fwhm_hz=filter_bandwidth_hz(300.0))
        scan = scan_correlation_matrix(comb_45, filt, 2, pump_power_mw=2.0)
        flipped = scan.values[::-1, ::-1]
        assert np.max(np.abs(scan.values - flipped)) < 1e-9

    def test_range_validation(self, comb_45):
        with pytest.raises(ValueError):
            scan_correlation_matrix(comb_45, DELTA, comb_45.n_max + 1)

    def test_normalized_output(self, comb_45):
        scan = scan_correlation_matrix(comb_45, DELTA, 2, pump_power_mw=2.0)
        assert scan.values.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        ("preset", "fwhm_pm", "max_bin"), [("45", 300.0, 2), ("15", 100.0, 8), ("5", 100.0, 9)]
    )
    @pytest.mark.parametrize("shape", FILTER_SHAPES)
    def test_presets_equal_the_dense_formula(self, request, preset, fwhm_pm, max_bin, shape):
        comb = request.getfixturevalue(f"comb_{preset}")
        filt = FilterSpec(fwhm_hz=filter_bandwidth_hz(fwhm_pm), shape=shape)
        for pump in (0.0, 2.0):
            scan = scan_correlation_matrix(comb, filt, max_bin, pump_power_mw=pump)
            assert np.array_equal(scan.values, _dense_scan(comb, filt, max_bin, pump))

    @settings(max_examples=40, deadline=None)
    @given(_scans())
    def test_equals_the_dense_formula(self, case):
        comb, filt, max_bin, pump = case
        scan = scan_correlation_matrix(comb, filt, max_bin, pump_power_mw=pump)
        assert np.array_equal(scan.values, _dense_scan(comb, filt, max_bin, pump))

    def test_memory_does_not_grow_with_the_comb(self, cavity_5):
        # The dense ideal JSI of this comb is 4001^2 floats, 128 MB.
        comb = build_comb(cavity_5, SourceSpec(phase_matching_fwhm_hz=5e12), n_max=2000)
        filt = FilterSpec(fwhm_hz=filter_bandwidth_hz(100.0))
        tracemalloc.start()
        try:
            scan_correlation_matrix(comb, filt, 2, pump_power_mw=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


class TestJsiType:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Jsi(n_max=1, values=np.zeros((3, 4)))

    def test_negative_entries_rejected(self):
        for cell in (-0.5, -1e-17, math.nan):
            values = np.zeros((3, 3))
            values[0, 0] = cell
            with pytest.raises(ValueError, match="nonnegative"):
                Jsi(n_max=1, values=values)
