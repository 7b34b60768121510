"""HOM kernels: the chirp-z transform against the direct cosine-sum oracle."""

import numpy as np
import pytest

from bfcsim import DEFAULT_SOURCE, build_comb, hom, simulate_hom_trace

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
