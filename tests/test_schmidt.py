"""Schmidt analysis: decomposition, time-bin closed form, fits, dimensionality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bfcsim import (
    DEFAULT_SOURCE,
    CavitySpec,
    FilterSpec,
    SourceSpec,
    build_comb,
    dimensionality_report,
    dip_visibility_closed_form,
    jsa_from_jsi,
    scan_correlation_matrix,
    schmidt_decompose,
    time_bin_eigenvalues,
    time_bin_spectrum_from_visibilities,
    window_limited_n_max,
)
from bfcsim.jsi import Jsi
from bfcsim.schmidt import fit_decay_parameter, ideal_frequency_spectrum, schmidt_number
from conftest import ideal_jsi


def gram_eigenvalues(matrix):
    """Independent oracle: normalized eigenvalues of the Gram matrix."""
    a = np.asarray(matrix, dtype=float)
    gram = a.T @ a
    w = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
    lam = np.sort(w / w.sum())[::-1]
    return lam


class TestJsaFromJsi:
    def test_point_mass(self):
        m = np.zeros((3, 3))
        m[1, 2] = 0.7
        amp = jsa_from_jsi(Jsi(n_max=1, values=m))
        assert amp[1, 2] == pytest.approx(1.0, rel=1e-12)
        assert np.count_nonzero(amp) == 1

    def test_uniform_three_by_three(self):
        amp = jsa_from_jsi(Jsi(n_max=1, values=np.full((3, 3), 1.0 / 9.0)))
        assert np.allclose(amp, 1.0 / 3.0, atol=1e-12)

    def test_entry_ratios_are_sqrt(self, comb_45):
        jsi = ideal_jsi(comb_45)
        amp = jsa_from_jsi(jsi)
        n = jsi.n_max
        got = amp[2 + n, n - 2] / amp[n, n]
        want = math.sqrt(jsi.values[n + 2, n - 2] / jsi.values[n, n])
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            jsa_from_jsi(Jsi(n_max=1, values=np.zeros((3, 3))))


class TestSchmidtDecompose:
    @pytest.mark.parametrize("d", [2, 5, 19])
    def test_uniform_diagonal_gives_k_equals_d(self, d):
        spec = schmidt_decompose(np.eye(d) / math.sqrt(d))
        assert schmidt_number(spec) == pytest.approx(d, abs=1e-10)

    def test_participation_ratio_by_hand(self):
        amp = np.diag(np.sqrt([0.5, 0.3, 0.2]))
        spec = schmidt_decompose(amp)
        assert np.allclose(spec.eigenvalue, [0.5, 0.3, 0.2], atol=1e-12)
        assert schmidt_number(spec) == pytest.approx(1.0 / 0.38, rel=1e-12)

    def test_rank_one_is_separable(self):
        amp = np.outer([1.0, 2.0, 3.0], [2.0, 1.0, 1.0])
        assert schmidt_number(schmidt_decompose(amp)) == pytest.approx(1.0, abs=1e-12)

    def test_scaling_and_permutation_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.random((12, 12))
        k = schmidt_number(schmidt_decompose(a))
        assert schmidt_number(schmidt_decompose(17.3 * a)) == pytest.approx(k, rel=1e-12)
        perm = rng.permutation(12)
        assert schmidt_number(schmidt_decompose(a[perm][:, perm])) == pytest.approx(k, rel=1e-12)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            schmidt_decompose(np.zeros((5, 5)))

    def test_matches_gram_oracle_random_50(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.random((50, 50))
            spec = schmidt_decompose(a)
            assert np.max(np.abs(spec.eigenvalue - gram_eigenvalues(a))) < 1e-10

    def test_matches_gram_oracle_301(self, comb_5):
        # production-size matrix: the 5 GHz comb's amplitude is 293x293
        amp = jsa_from_jsi(ideal_jsi(comb_5))
        spec = schmidt_decompose(amp)
        assert np.max(np.abs(spec.eigenvalue - gram_eigenvalues(amp))) < 1e-10
        rng = np.random.default_rng(13)
        a = rng.random((301, 301))
        spec = schmidt_decompose(a)
        assert np.max(np.abs(spec.eigenvalue - gram_eigenvalues(a))) < 1e-10

    def test_ideal_jsi_eigenvalues_are_bin_weights(self, comb_45):
        spec = schmidt_decompose(jsa_from_jsi(ideal_jsi(comb_45)))
        expected = np.sort(comb_45.bin_weights)[::-1]
        assert np.max(np.abs(spec.eigenvalue - expected)) < 1e-10


@st.composite
def _intensity_matrices(draw):
    """Non-negative matrices, many cells exactly zero, with at least one positive cell."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cell = st.one_of(st.just(0.0), st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))
    cells = draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))
    values = np.array(cells).reshape(rows, cols)
    values[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] += draw(
        st.floats(1e-6, 1e6)
    )
    return values


def _check_spectrum(spec, weight_of=None):
    """What every builder's spectrum holds.

    Eigenvalues sum to 1, descend, are nonnegative and read-only; each has a
    label, and K lies in [1, nonzero count].  Without `weight_of` the labels
    are the ranks.  With it they are the bins -N..N, and each eigenvalue is
    the normalized weight of its label.
    """
    lam, labels = spec.eigenvalue, spec.n
    assert abs(float(lam.sum()) - 1.0) <= 1e-10
    assert np.all(np.diff(lam) <= 0.0) and float(lam.min()) >= 0.0
    assert labels.shape == lam.shape
    assert not (lam.flags.writeable or labels.flags.writeable)
    if weight_of is None:
        assert labels.tolist() == list(range(lam.size))
    else:
        n_max = lam.size // 2
        assert sorted(labels.tolist()) == list(range(-n_max, n_max + 1))
        weights = weight_of(labels)
        assert np.allclose(lam, weights / weights.sum(), rtol=1e-12, atol=0.0)
    assert 1.0 - 1e-9 <= schmidt_number(spec) <= np.count_nonzero(lam) + 1e-9


@settings(max_examples=30, deadline=None)
@given(_intensity_matrices())
def test_schmidt_spectrum_invariants(values):
    jsa = np.sqrt(values)
    spec = schmidt_decompose(jsa)
    _check_spectrum(spec)
    assert schmidt_number(spec) <= np.linalg.matrix_rank(jsa) + 1e-9


@st.composite
def _cavities(draw):
    fsr_hz = draw(st.floats(1e9, 1e11))
    return CavitySpec(fsr_hz=fsr_hz, linewidth_fwhm_hz=fsr_hz / draw(st.floats(1.001, 1e4)))


@settings(max_examples=30, deadline=None)
@given(_cavities(), st.integers(0, 400))
def test_time_bin_spectrum_invariants(cavity, n_max):
    spec = time_bin_eigenvalues(cavity, n_max)
    _check_spectrum(spec, lambda n: np.exp(-2.0 * math.pi * np.abs(n) / cavity.finesse))


_VISIBILITY_POINTS = st.lists(
    st.tuples(st.integers(-50, 50), st.floats(0.0, 1.0, exclude_min=True)), min_size=2, max_size=8
).filter(lambda points: any(n != 0 for n, _ in points))


@settings(max_examples=30, deadline=None)
@given(_VISIBILITY_POINTS, st.integers(0, 60))
def test_fitted_time_bin_spectrum_invariants(points, n_max):
    spec = time_bin_spectrum_from_visibilities(points, n_max)
    rate = fit_decay_parameter(points)
    _check_spectrum(spec, lambda n: np.exp(-2.0 * rate * np.abs(n)))


@settings(max_examples=30, deadline=None)
@given(_cavities(), st.floats(1e10, 1e12), st.sampled_from(["gaussian", "sinc_squared"]), st.data())
def test_ideal_frequency_spectrum_invariants(cavity, bpm_hz, envelope, data):
    source = SourceSpec(phase_matching_fwhm_hz=bpm_hz, envelope_shape=envelope)
    # Within build_comb's span limit, so no test draws its warning.
    span = int(5.0 * bpm_hz / cavity.fsr_hz)
    comb = build_comb(cavity, source, n_max=data.draw(st.integers(0, min(span, 150))))
    spec = ideal_frequency_spectrum(comb)
    _check_spectrum(spec, lambda n: comb.bin_weights[n + comb.n_max])


class TestTimeBinEigenvalues:
    def test_single_bin(self, cavity_45):
        assert schmidt_number(time_bin_eigenvalues(cavity_45, 0)) == 1.0

    def test_45ghz_schmidt_number(self, cavity_45):
        assert schmidt_number(time_bin_eigenvalues(cavity_45, 30)) == pytest.approx(18.30, abs=0.05)

    def test_5ghz_schmidt_number(self, cavity_5):
        assert schmidt_number(time_bin_eigenvalues(cavity_5, 3)) == pytest.approx(5.16, abs=0.05)

    def test_truncated_geometric_closed_form(self, cavity_15):
        q = math.exp(-2 * math.pi / cavity_15.finesse)
        for n_max in (1, 4, 9, 25):
            s1 = sum(q ** abs(n) for n in range(-n_max, n_max + 1))
            s2 = sum(q ** (2 * abs(n)) for n in range(-n_max, n_max + 1))
            got = schmidt_number(time_bin_eigenvalues(cavity_15, n_max))
            assert got == pytest.approx(s1 * s1 / s2, rel=1e-12)

    def test_infinite_bin_limit(self, cavity_45):
        q = math.exp(-2 * math.pi / cavity_45.finesse)
        limit = (1 + q) ** 3 / ((1 - q) * (1 + q**2))
        n_max = int(10 * cavity_45.finesse)
        k = schmidt_number(time_bin_eigenvalues(cavity_45, n_max))
        assert k == pytest.approx(limit, abs=1e-6)

    def test_eigenvalues_carry_bin_labels(self, cavity_45):
        spec = time_bin_eigenvalues(cavity_45, 3)
        assert spec.n is not None
        assert spec.n[0] == 0  # largest eigenvalue is the central bin


class TestVisibilityFit:
    def test_closed_loop_recovers_theory(self, cavity_45):
        points = [(n, dip_visibility_closed_form(n, cavity_45)) for n in range(1, 31)]
        spec = time_bin_spectrum_from_visibilities(points, 30)
        assert schmidt_number(spec) == pytest.approx(18.30, abs=0.01)

    def test_fitted_rate_is_pi_over_finesse(self, cavity_45):
        points = [(n, dip_visibility_closed_form(n, cavity_45)) for n in (1, 5, 12, 30)]
        rate = fit_decay_parameter(points)
        assert rate == pytest.approx(math.pi / cavity_45.finesse, abs=1e-9)

    def test_noisy_visibilities_near_experimental_value(self, cavity_45):
        rng = np.random.default_rng(1)
        points = []
        for n in range(1, 31):
            v = dip_visibility_closed_form(n, cavity_45) + rng.normal(0.0, 0.01)
            points.append((n, float(np.clip(v, 1e-6, 1.0))))
        spec = time_bin_spectrum_from_visibilities(points, 30)
        assert schmidt_number(spec) == pytest.approx(18.02, abs=0.75)

    def test_no_decay_gives_uniform_spectrum(self):
        spec = time_bin_spectrum_from_visibilities([(0, 1.0), (1, 1.0)], 30)
        assert schmidt_number(spec) == pytest.approx(61.0, rel=1e-12)

    def test_degenerate_fit_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            time_bin_spectrum_from_visibilities([(0, 1.0), (0, 0.9)], 10)
        with pytest.raises(ValueError):
            time_bin_spectrum_from_visibilities([(1, 0.9)], 10)


def _bin_product(cavity) -> float:
    """N_time x N_freq of the default source in `cavity`."""
    return dimensionality_report(1.0, 1.0, cavity, DEFAULT_SOURCE)["product_nt_nomega"]


class TestBinCounts:
    def test_45ghz_counts(self, cavity_45):
        report = dimensionality_report(1.0, 1.0, cavity_45, DEFAULT_SOURCE)
        assert report["n_freq_bins"] == pytest.approx(245.0 / 45.32, rel=1e-12)
        assert report["n_freq_bins"] == pytest.approx(5.41, abs=0.01)
        assert report["n_time_bins"] == pytest.approx(29.05, abs=0.01)
        assert report["product_nt_nomega"] == report["n_time_bins"] * report["n_freq_bins"]

    def test_product_matches_between_similar_linewidths(self, cavity_45, cavity_15):
        assert abs(_bin_product(cavity_15) / _bin_product(cavity_45) - 1.0) <= 0.15

    def test_narrow_linewidth_triples_product(self, cavity_45, cavity_5):
        assert 2.5 <= _bin_product(cavity_5) / _bin_product(cavity_45) <= 4.0

    def test_window_limited_n_max(self, cavity_45, cavity_15, cavity_5):
        assert window_limited_n_max(cavity_45, 340.0) == 30
        assert window_limited_n_max(cavity_15, 340.0) == 10
        assert window_limited_n_max(cavity_5, 340.0) == 3


class TestDimensionality:
    def test_headline_648(self, cavity_45):
        report = dimensionality_report(18.02, 4.31, cavity_45, DEFAULT_SOURCE)
        assert report["total_dimensionality"] == 648
        assert report["total_dimensionality"] // report["polarization_factor"] == 324

    def test_frequency_dimensionality(self, cavity_5):
        report = dimensionality_report(5.16, 11.67, cavity_5, DEFAULT_SOURCE)
        assert report["freq_dimensionality"] == 121

    def test_polarization_only(self, cavity_45):
        report = dimensionality_report(1.0, 1.0, cavity_45, DEFAULT_SOURCE)
        assert report["total_dimensionality"] == 2

    def test_rejects_subunit_k(self, cavity_45):
        with pytest.raises(ValueError):
            dimensionality_report(0.5, 2.0, cavity_45, DEFAULT_SOURCE)


class TestProductAgreement:
    def test_schmidt_product_between_cavities(self, cavity_45, cavity_15, comb_45, comb_15):
        k45 = schmidt_number(time_bin_eigenvalues(cavity_45, 30))
        k15 = schmidt_number(time_bin_eigenvalues(cavity_15, 10))
        kf45 = schmidt_number(ideal_frequency_spectrum(comb_45))
        kf15 = schmidt_number(ideal_frequency_spectrum(comb_15))
        assert abs((k15 * kf15) / (k45 * kf45) - 1.0) <= 0.25

    def test_floor_degrades_schmidt_number(self, comb_45):
        delta = FilterSpec(fwhm_hz=0.0)
        k2 = schmidt_number(
            schmidt_decompose(jsa_from_jsi(scan_correlation_matrix(comb_45, delta, 2, 2.0)))
        )
        k4 = schmidt_number(
            schmidt_decompose(jsa_from_jsi(scan_correlation_matrix(comb_45, delta, 2, 4.0)))
        )
        assert k4 < k2

