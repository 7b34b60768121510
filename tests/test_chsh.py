"""Bell-test module: fringe law, Poisson counts, correlations, S parameter, noise."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bfcsim import (
    DEFAULT_ANGLES_DEG,
    s_chsh,
    s_fringe_from_visibility,
    simulate_chsh_counts,
    simulate_fringe_scan,
    violation_sigmas,
)
from bfcsim.chsh import S_QUANTUM_MAX, fringe_rate
from bfcsim.config import MAX_CHSH_INTEGRATION

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

    def test_largest_accepted_integration_samples(self):
        # The config's bound leaves every Poisson mean inside numpy's range,
        # at the fringe maximum of visibility 1 too.
        scan = simulate_fringe_scan(50.0, ANGLES, 1.0, MAX_CHSH_INTEGRATION, seed=1)
        assert scan.counts.max() == pytest.approx(MAX_CHSH_INTEGRATION, rel=1e-6)
        result = simulate_chsh_counts(1.0, MAX_CHSH_INTEGRATION, seed=1)
        assert result["s_value"] == pytest.approx(S_QUANTUM_MAX, rel=1e-6)


class TestSimulatedCorrelations:
    def test_many_counts_approach_the_analytic_correlations(self):
        simulated = simulate_chsh_counts(1.0, 1e12, seed=1)["correlations"]
        for e, exact in zip(simulated, s_chsh(1.0)["correlations"]):
            assert e == pytest.approx(exact, abs=1e-5)

    def test_zero_visibility_gives_zero_within_noise(self):
        result = simulate_chsh_counts(0.0, 1e4, seed=4)
        # At V = 0 the four correlation errors are equal, each half of sigma_S.
        for e in result["correlations"]:
            assert abs(e) <= 5.0 * result["s_sigma"] / 2.0

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError, match="zero total counts"):
            simulate_chsh_counts(0.9497, 1e-300, seed=0)

    def test_error_shrinks_with_counts(self):
        small = simulate_chsh_counts(0.9497, 1e4, seed=5)["s_sigma"]
        large = simulate_chsh_counts(0.9497, 1e6, seed=5)["s_sigma"]
        assert large == pytest.approx(small / 10.0, rel=0.05)


class TestSParameter:
    def test_tsirelson_at_unit_visibility(self):
        assert s_chsh(visibility=1.0)["s_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_fringe_s_values(self):
        assert s_fringe_from_visibility(1.0) == pytest.approx(2.828, abs=1e-3)
        assert s_fringe_from_visibility(0.9796) == pytest.approx(2.7707, abs=1e-4)
        assert s_fringe_from_visibility(1.0 / math.sqrt(2.0)) == pytest.approx(2.0, rel=1e-12)

    def test_reference_chsh_value(self):
        assert s_chsh(visibility=0.9497)["s_value"] == pytest.approx(2.686, abs=2e-3)

    def test_linear_in_visibility(self):
        for v in np.linspace(0.0, 1.0, 11):
            assert s_chsh(visibility=v)["s_value"] == pytest.approx(
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
        assert 0.037 / 2 <= result["s_sigma"] <= 0.037 * 2
        assert result["s_value"] == pytest.approx(2.686, abs=3 * result["s_sigma"])

    def test_correlations_bounded(self):
        result = simulate_chsh_counts(0.9, 500.0, seed=9)
        for e in result["correlations"]:
            assert -1.0 <= e <= 1.0

    # 7 of seeds 0-4999 at V = 1 and 1e4 counts: Tsirelson's bound holds for
    # the noiseless S only, and counting noise puts these estimates past it.
    @pytest.mark.parametrize("seed", [743, 1584, 1733, 2356, 2392, 3388, 4891])
    def test_noise_past_tsirelson_is_a_result(self, seed):
        result = simulate_chsh_counts(1.0, 1e4, seed)
        assert result["s_value"] > S_QUANTUM_MAX + 3.0 * result["s_sigma"]


class TestAnglesMustBeFinite:
    # Both CHSH functions take their settings from `_angle_pairs`, the one check.
    @pytest.mark.parametrize(
        ("angles", "named"),
        [
            ((math.nan, 0.0, 0.0, 0.0), "(nan, 0.0, 0.0, 0.0)"),
            ((0.0, 0.0, -math.inf, 0.0), "(0.0, 0.0, -inf, 0.0)"),
            ((1e308, 1e308, 0.0, 0.0), "(1e+308, 1e+308, 0.0, 0.0)"),
            ((-1e308, 0.0, -1e308, 0.0), "(-1e+308, 0.0, -1e+308, 0.0)"),
        ],
    )
    @pytest.mark.parametrize("fn", [s_chsh, simulate_chsh_counts])
    def test_non_finite_angle_or_phase_rejected(self, fn, angles, named):
        args = (0.9, angles) if fn is s_chsh else (0.9, 1e4, 1, angles)
        message = (
            f"{fn.__name__}: angles must be finite, and so must each setting's phase "
            f"2(phi1 + phi2); got {named}"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            fn(*args)

    def test_largest_finite_phases_accepted(self):
        # 2(phi1 + phi2) stays finite at half the float range, also 90 degrees on.
        half = 0.25 * np.finfo(float).max
        angles = (half, -half, half, -half)
        assert 0.0 <= s_chsh(0.9, angles)["s_value"] <= S_QUANTUM_MAX
        assert simulate_chsh_counts(0.9, 1e4, 1, angles)["s_value"] <= 4.0


class TestTsirelsonBound:
    # Only a sampled S can pass 2 sqrt(2) V; the noiseless S stays under it at any angles.
    @given(
        st.floats(0.0, 1.0),
        st.tuples(*[st.floats(-360.0, 360.0)] * 4),
    )
    @example(1.0, DEFAULT_ANGLES_DEG)
    def test_noiseless_s_within_tsirelson(self, visibility, angles):
        result = s_chsh(visibility, angles)
        assert all(abs(e) <= visibility for e in result["correlations"])
        assert result["s_value"] <= S_QUANTUM_MAX * visibility + 1e-12

    # Each sampled E is a ratio of counts, so |E| <= 1 and S <= 4 whatever the noise.
    @given(st.floats(0.0, 1.0), st.floats(50.0, 1e4), st.integers(0, 2**32 - 1))
    def test_sampled_correlations_within_unit_interval(self, visibility, integration, seed):
        result = simulate_chsh_counts(visibility, integration, seed)
        assert all(-1.0 <= e <= 1.0 for e in result["correlations"])
        assert result["s_value"] <= 4.0


# (seed, integration, S, sigma_S, correlations) of simulate_chsh_counts(0.9497, ...),
# recorded to the bit.  Summing variances instead of squared standard errors moves
# sigma_S by an ulp at seeds 0, 2, 3 and 9, so this table catches that reordering.
PINNED_CHSH = [
    (0, 800.0, 2.6726482473407183, 0.037084402198533546,
     (-0.6522301228183581, -0.6549253731343283, -0.6767427513880321, 0.68875)),
    (1, 800.0, 2.6926861286085444, 0.03698994386038887,
     (-0.6718266253869969, -0.6717752234993615, -0.6853233830845771, 0.663760896637609)),
    (2, 800.0, 2.7529935952408446, 0.03622951106995022,
     (-0.6988847583643123, -0.6828193832599119, -0.6868811881188119, 0.6844082654978084)),
    (3, 800.0, 2.7189383093974153, 0.03676054749309652,
     (-0.6892583120204604, -0.667296786389414, -0.6705593116164721, 0.6918238993710691)),
    (4, 800.0, 2.634436644231461, 0.03728980924133811,
     (-0.639736684619988, -0.640251572327044, -0.6689741976085588, 0.6854741896758704)),
    (5, 800.0, 2.6413668229506557, 0.03744569561421875,
     (-0.6512226512226512, -0.6770642201834862, -0.6680799515445185, 0.645)),
    (6, 800.0, 2.6920668515664437, 0.03698295702236853,
     (-0.664804469273743, -0.6473551637279596, -0.6955684007707129, 0.684338817794028)),
    (7, 800.0, 2.674295292261209, 0.037175698581877484,
     (-0.657213316892725, -0.6854219948849105, -0.6695652173913044, 0.6620947630922693)),
    (8, 800.0, 2.74558030941393, 0.03642768789775208,
     (-0.701120797011208, -0.6902654867256637, -0.677893447642376, 0.6763005780346821)),
    (9, 800.0, 2.6786857063820926, 0.03703042679354883,
     (-0.6617826617826618, -0.6548223350253807, -0.6713329275715155, 0.6907477820025348)),
    (0, 10000.0, 2.6650688051238376, 0.010560102812517427,
     (-0.666800764356834, -0.6721846123437268, -0.6596672753093934, 0.6664161531138835)),
    (1, 10000.0, 2.687815387983458, 0.010474312693907632,
     (-0.6716864465941956, -0.6715622170807766, -0.6754193290734825, 0.6691473952350032)),
    (2, 10000.0, 2.7100966279281438, 0.010400736822032478,
     (-0.6792857499127138, -0.6745817052399559, -0.6758400638149367, 0.6803891089605375)),
    (3, 10000.0, 2.6898083246615987, 0.010478806034213306,
     (-0.6764617087652209, -0.6705752655842854, -0.6711115533883969, 0.6716597969236956)),
    (4, 10000.0, 2.6630005472901623, 0.010533660150145122,
     (-0.6620747543573792, -0.6624442998047364, -0.6713328667133287, 0.6671486264147181)),
    (5, 10000.0, 2.6730042702799492, 0.010511771498269496,
     (-0.6658600524299254, -0.6730434782608695, -0.670283930429612, 0.663816809159542)),
    (6, 10000.0, 2.6879842983310906, 0.010474193584994088,
     (-0.6695278969957081, -0.6649125444795269, -0.6782385247140625, 0.6753053321417932)),
    (7, 10000.0, 2.68292525670305, 0.010488754971255421,
     (-0.6675798177018479, -0.6754553688235886, -0.6709252420401237, 0.66896482813749)),
    (8, 10000.0, 2.7031422896412645, 0.010429244700626663,
     (-0.6799520527419838, -0.6767818628680343, -0.6734612707566869, 0.6729471032745592)),
    (9, 10000.0, 2.6870199905998993, 0.010463960414483268,
     (-0.6644541311670299, -0.6722202647606583, -0.6717346233586731, 0.678610971313538)),
]

# simulate_fringe_scan(45.0, 0..350 step 10, 0.9796, 1e4, seed=7).counts
PINNED_FRINGE = [
    5025, 6745, 8095, 9332, 9766, 9750, 9243, 8068, 6701, 4993, 3346, 1851,
    774, 171, 191, 739, 1853, 3348, 4887, 6677, 8112, 9045, 9772, 9924,
    9271, 8195, 6661, 4980, 3498, 1873, 795, 159, 179, 762, 1911, 3336,
]


class TestPinnedDraws:
    """The simulated Bell numbers stay bit for bit, including the last ulp of sigma_S."""

    @pytest.mark.parametrize(
        ("seed", "integration", "s", "sigma", "correlations"),
        PINNED_CHSH,
        ids=[f"seed{row[0]}-{row[1]:g}" for row in PINNED_CHSH],
    )
    def test_chsh_counts(self, seed, integration, s, sigma, correlations):
        result = simulate_chsh_counts(0.9497, integration, seed)
        assert repr(result["correlations"]) == repr(correlations)
        assert (repr(result["s_value"]), repr(result["s_sigma"])) == (repr(s), repr(sigma))

    def test_fringe_scan(self):
        scan = simulate_fringe_scan(45.0, ANGLES, 0.9796, 1e4, seed=7)
        assert scan.counts.tolist() == PINNED_FRINGE
