"""HOM kernels against their oracles.

Chirp-z vs direct sum, folded vs two-sided quadrature, blocked vs plain
intensity build, and traces vs the closed form.
"""

import numpy as np
import pytest

from bfcsim import DEFAULT_SOURCE, CombSpectrum, build_comb, cavity_preset, hom, simulate_hom_trace

# Chirp-z vs direct on the same quadrature; measured gap is ~1e-13.
KERNEL_TOL = 1e-10

WIDE = np.arange(-340.0, 340.0 + 0.1, 0.2)
ZOOM = np.arange(-12.0, 12.0 + 0.01, 0.02)


def _direct_coincidence(comb, delays, accidental_fraction=0.0):
    step, k, intensity = hom._spectral_intensity(comb)
    visibility = hom._direct_visibility(step * k, intensity, delays * 1e-12)
    return np.clip(1.0 - (1.0 - accidental_fraction) * visibility, 0.0, None)


def _wide_sample(trace, seed):
    """Seeded 200 wide-grid indices plus the sample nearest each revival centre."""
    rng = np.random.default_rng(seed)
    d = trace.delays_ps
    period = trace.revival_period_ps
    n = np.arange(np.ceil(d[0] / period), np.floor(d[-1] / period) + 1)
    centres = np.abs(d[:, None] - n * period).argmin(axis=0)
    return np.union1d(rng.choice(d.size, 200, replace=False), centres)


class TestChirpZMatchesDirect:
    def test_zoom_grid_45ghz_in_full(self, comb_45):
        trace = simulate_hom_trace(comb_45, ZOOM)
        gap = np.max(np.abs(trace.coincidence - _direct_coincidence(comb_45, ZOOM)))
        assert gap <= KERNEL_TOL

    @pytest.mark.parametrize(
        ("fixture", "seed"), [("trace_45", 45), ("trace_15", 15), ("trace_5", 5)]
    )
    def test_wide_grid_sample(self, fixture, seed, request):
        trace = request.getfixturevalue(fixture)
        assert np.array_equal(trace.delays_ps, WIDE)
        idx = _wide_sample(trace, seed)
        direct = _direct_coincidence(trace.comb, WIDE[idx])
        assert np.max(np.abs(trace.coincidence[idx] - direct)) <= KERNEL_TOL

    def test_accidental_floor(self, comb_15):
        a = 0.015
        trace = simulate_hom_trace(comb_15, ZOOM, accidental_fraction=a)
        gap = np.max(np.abs(trace.coincidence - _direct_coincidence(comb_15, ZOOM, a)))
        assert gap <= KERNEL_TOL
        assert trace.coincidence[ZOOM.size // 2] == pytest.approx(a, abs=1e-9)

    def test_nonuniform_grid_takes_direct_path(self, comb_5, monkeypatch):
        grid = 30.0 * np.linspace(-1.0, 1.0, 401) ** 3  # dense near the central dip
        assert hom._uniform_step(grid) is None

        def fail(*args, **kwargs):
            raise AssertionError("chirp-z kernel used on a non-uniform grid")

        monkeypatch.setattr(hom, "_chirp_z_visibility", fail)
        trace = simulate_hom_trace(comb_5, grid)
        assert np.array_equal(trace.coincidence, _direct_coincidence(comb_5, grid))


def _two_sided_coincidence(comb, delays):
    """The unfolded quadrature: a direct sum over k in [-K, K] with bin weights w_m."""
    step, k, _ = hom._spectral_intensity(comb)
    omega = step * np.arange(-k[-1], k[-1] + 1)
    hw = comb.half_width_rad_s
    intensity = np.zeros_like(omega)
    for m, w in zip(comb.bins, comb.bin_weights):
        intensity += w / np.square(hw * hw + np.square(omega - m * comb.fsr_rad_s))
    intensity /= intensity.sum()
    tau = delays * 1e-12
    rows = max(1, 2_000_000 // omega.size)
    visibility = np.concatenate(
        [
            np.cos(2.0 * np.outer(tau[i : i + rows], omega)) @ intensity
            for i in range(0, tau.size, rows)
        ]
    )
    return np.clip(1.0 - visibility, 0.0, None)


class TestFoldedQuadrature:
    """The folded sum over k >= 0 against the two-sided sum it replaces."""

    @pytest.mark.parametrize(
        ("fixture", "seed"), [("trace_45", 45), ("trace_15", 15), ("trace_5", 5)]
    )
    def test_zoom_and_wide_sample(self, fixture, seed, request):
        trace = request.getfixturevalue(fixture)
        comb = trace.comb
        zoom = simulate_hom_trace(comb, ZOOM)
        assert np.max(np.abs(zoom.coincidence - _two_sided_coincidence(comb, ZOOM))) <= KERNEL_TOL
        idx = _wide_sample(trace, seed)
        two_sided = _two_sided_coincidence(comb, WIDE[idx])
        assert np.max(np.abs(trace.coincidence[idx] - two_sided)) <= KERNEL_TOL

    def test_nonuniform_grid(self, comb_5):
        grid = 30.0 * np.linspace(-1.0, 1.0, 401) ** 3
        assert hom._uniform_step(grid) is None
        trace = simulate_hom_trace(comb_5, grid)
        gap = np.max(np.abs(trace.coincidence - _two_sided_coincidence(comb_5, grid)))
        assert gap <= KERNEL_TOL


class TestUniformityRule:
    def test_arange_and_linspace_are_uniform(self):
        assert hom._uniform_step(WIDE) == pytest.approx(0.2, rel=1e-12)
        assert hom._uniform_step(ZOOM) == pytest.approx(0.02, rel=1e-12)
        assert hom._uniform_step(np.linspace(-30.0, 30.0, 301)) == pytest.approx(0.2, rel=1e-12)

    def test_one_moved_delay_is_not_uniform(self):
        grid = np.linspace(-30.0, 30.0, 301)
        grid[137] += 1e-6 * 0.2
        assert hom._uniform_step(grid) is None

    @pytest.mark.parametrize("grid", [[0.0], [-1.0, 2.5]])
    def test_short_grids_take_direct_path(self, comb_45, grid):
        delays = np.array(grid)
        assert hom._uniform_step(delays) is None
        trace = simulate_hom_trace(comb_45, delays)
        assert np.array_equal(trace.coincidence, _direct_coincidence(comb_45, delays))


class TestSpectralIntensity:
    def test_shared_per_comb_and_read_only(self, comb_45):
        first = hom._spectral_intensity(comb_45)
        assert hom._spectral_intensity(comb_45) is first
        step, k, intensity = first
        assert intensity.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            intensity[0] = 0.0
        with pytest.raises(ValueError):
            k[0] = 0

    def test_distinct_combs_do_not_collide(self, comb_45, cavity_45):
        narrow = build_comb(cavity_45, DEFAULT_SOURCE, n_max=3)
        _, k_narrow, _ = hom._spectral_intensity(narrow)
        _, k_full, _ = hom._spectral_intensity(comb_45)
        assert k_narrow.size < k_full.size


def _reference_intensity(comb, step, k, weights=None):
    """The folded build as a plain per-bin loop, with a fresh temporary per step.

    Sums over k >= 0 with bin weights ``w_m + w_{-m}`` (or `weights`) and
    halves k = 0.
    """
    hw = comb.half_width_rad_s
    omega = step * k
    if weights is None:
        weights = comb.bin_weights + comb.bin_weights[::-1]
    intensity = np.zeros_like(omega)
    for m, w in zip(comb.bins, weights):
        line = 1.0 / (hw * hw + np.square(omega - m * comb.fsr_rad_s))
        intensity += w * np.square(line)
    intensity[0] *= 0.5
    return intensity / intensity.sum()


class TestBlockedIntensityIsBitIdentical:
    @pytest.mark.parametrize("fixture", ["comb_45", "comb_15", "comb_5"])
    def test_presets(self, fixture, request):
        comb = request.getfixturevalue(fixture)
        step, k, intensity = hom._spectral_intensity(comb)
        assert k[0] == 0
        assert np.array_equal(intensity, _reference_intensity(comb, step, k))

    def test_asymmetric_weights_fold_as_w_m_plus_w_minus_m(self, cavity_45):
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
        step, k, intensity = hom._spectral_intensity(comb)
        assert np.array_equal(intensity, _reference_intensity(comb, step, k))
        # A build that doubled each weight instead would differ.
        doubled = _reference_intensity(comb, step, k, 2.0 * comb.bin_weights)
        assert not np.array_equal(intensity, doubled)

    # (block, preset, n_max): single-sample blocks, and ragged last blocks on
    # narrow 45ghz combs (a Python-level step per few samples) and the presets.
    @pytest.mark.parametrize(
        ("block", "preset", "n_max"),
        [
            (1, "45ghz", 1),
            (7, "45ghz", 2),
            (7, "45ghz", 3),
            (4_096, "45ghz", None),
            (4_096, "15ghz", None),
            (4_096, "5ghz", None),
        ],
    )
    def test_forced_block_sizes(self, block, preset, n_max, monkeypatch):
        comb = build_comb(cavity_preset(preset), DEFAULT_SOURCE, n_max=n_max)
        monkeypatch.setattr(hom, "_INTENSITY_BLOCK", block)
        hom._spectral_intensity.cache_clear()
        step, k, intensity = hom._spectral_intensity(comb)
        hom._spectral_intensity.cache_clear()
        assert block == 1 or k.size % block != 0
        assert np.array_equal(intensity, _reference_intensity(comb, step, k))


# |C - closed form| allowed on every checked delay, on top of the span
# truncation bound below; on the presets the gap is <= ~8e-9.
CLOSED_FORM_TOL = 1e-6


def _closed_form_coincidence(comb, delays_ps):
    """``C = 1 - sum_m w_m cos(2 m Omega tau) (1 + 2g|tau|) e^{-2g|tau|}``.

    The coincidence of Lorentzian comb bins, with ``Omega`` the FSR and
    ``g = pi * linewidth`` the half-width, both angular.
    """
    tau = np.asarray(delays_ps, dtype=float) * 1e-12
    g = comb.half_width_rad_s
    envelope = (1.0 + 2.0 * g * np.abs(tau)) * np.exp(-2.0 * g * np.abs(tau))
    phases = 2.0 * comb.fsr_rad_s * np.outer(tau, comb.bins)
    return 1.0 - (np.cos(phases) @ comb.bin_weights) * envelope


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


class TestTraceMatchesClosedForm:
    @pytest.mark.parametrize(
        ("fixture", "seed"), [("trace_45", 45), ("trace_15", 15), ("trace_5", 5)]
    )
    def test_wide_sample_and_revival_centres(self, fixture, seed, request):
        trace = request.getfixturevalue(fixture)
        idx = _wide_sample(trace, seed)
        closed = _closed_form_coincidence(trace.comb, trace.delays_ps[idx])
        gap = np.max(np.abs(trace.coincidence[idx] - closed))
        assert gap <= CLOSED_FORM_TOL + _truncation_allowance(trace.comb)

    def test_zoom_45ghz_in_full(self, zoom_trace_45):
        closed = _closed_form_coincidence(zoom_trace_45.comb, zoom_trace_45.delays_ps)
        gap = np.max(np.abs(zoom_trace_45.coincidence - closed))
        assert gap <= CLOSED_FORM_TOL + _truncation_allowance(zoom_trace_45.comb)
