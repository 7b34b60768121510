"""Hong-Ou-Mandel interferometry of the comb state.

For a frequency-anticorrelated pure two-photon state the balanced
beamsplitter coincidence rate is ``C(tau) = 1 - V(tau)`` with ``V`` the
normalized cosine transform of the biphoton spectral intensity at
``2 * tau``.  With Lorentzian bins of half-width g at spacing Omega and
weights w_m, that transform is closed:

    V(tau) = E(tau) * (1 + 2g|tau|) * exp(-2g|tau|),
    E(tau) = sum_m w_m cos(2 m Omega tau),

the transform of one squared Lorentzian line times the comb factor E.
E = 1 at the revival dips, spaced half a round-trip time apart, so their
depths decay with the index n as ``V_n = exp(-|n| pi/F) * (1 + |n| pi/F)``.

`simulate_hom_trace` evaluates V in this closed form on any delay grid,
summing E by Clenshaw's recurrence.  `quadrature_visibility` is its
independent oracle: a trapezoidal quadrature of the cosine transform
over a sampled spectral intensity, which never uses the closed form.
The two differ by the intensity mass the quadrature's span cuts off.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .comb import CavitySpec, CombSpectrum

# A hard bin cutoff (the bandwidth-limiting filter that sets n_max) rings:
# the coincidence rate overshoots the plateau by up to ~1% near dip
# shoulders for slowly decaying envelopes.  Traces stay within 1e-9 of
# [0, 1] for gaussian envelopes; this is the allowance for the rest.
TRUNCATION_OVERSHOOT_TOL = 0.02


def _check_delays(delays: np.ndarray, owner: str) -> None:
    """Reject a delay grid unless it is nonempty, 1-d, finite and strictly increasing."""
    if delays.ndim != 1 or delays.size == 0:
        raise ValueError(f"{owner}: delay grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(delays)):
        raise ValueError(f"{owner}: delays must be finite")
    if delays.size > 1 and not np.all(np.diff(delays) > 0.0):
        raise ValueError(f"{owner}: delays must be strictly increasing")


@dataclass(frozen=True, eq=False)
class HomTrace:
    """Normalized coincidence rate versus relative delay."""

    delays_ps: np.ndarray
    coincidence: np.ndarray
    comb: CombSpectrum

    def __post_init__(self) -> None:
        d = np.asarray(self.delays_ps, dtype=float)
        c = np.asarray(self.coincidence, dtype=float)
        object.__setattr__(self, "delays_ps", d)
        object.__setattr__(self, "coincidence", c)
        _check_delays(d, "HomTrace")
        if c.shape != d.shape:
            raise ValueError("HomTrace: delays and coincidence must have equal length")
        # Written so that a nan or an inf fails it too.
        if not (float(c.min()) >= -1e-9 and float(c.max()) <= 1.0 + TRUNCATION_OVERSHOOT_TOL):
            raise ValueError(
                f"HomTrace: coincidence must lie in [0, {1.0 + TRUNCATION_OVERSHOOT_TOL}]"
            )
        d.setflags(write=False)
        c.setflags(write=False)

    @property
    def revival_period_ps(self) -> float:
        """Dip spacing: half the cavity round-trip time."""
        return 0.5 * self.comb.round_trip_ps


@dataclass(frozen=True)
class RevivalRecord:
    n: int
    center_ps: float
    visibility: float


# The quadrature oracle samples the spectral intensity this many times per
# cavity linewidth, out to this many bins past the outermost comb bin.
POINTS_PER_LINEWIDTH = 32
PAD_BINS = 2.0


def simulate_hom_trace(
    comb: CombSpectrum, delays_ps, *, accidental_fraction: float = 0.0
) -> HomTrace:
    """Interferogram over an explicit delay grid (ps), in closed form.

    ``V = E(tau) (1 + 2g|tau|) e^{-2g|tau|}`` (see the module docstring),
    with E summed by `_comb_factor` in O(M * n_max) time for M delays.  An
    optional uniform accidental floor rescales V -> V * (1 - a).
    """
    delays = np.atleast_1d(np.asarray(delays_ps, dtype=float))
    _check_delays(delays, "simulate_hom_trace")
    if not (0.0 <= accidental_fraction < 1.0):
        raise ValueError("simulate_hom_trace: accidental_fraction must be in [0, 1)")

    tau = np.abs(delays) * 1e-12
    g = comb.half_width_rad_s
    visibility = _comb_factor(comb, tau) * (1.0 + 2.0 * g * tau) * np.exp(-2.0 * g * tau)
    coincidence = np.clip(1.0 - (1.0 - accidental_fraction) * visibility, 0.0, None)
    return HomTrace(delays_ps=delays, coincidence=coincidence, comb=comb)


def _comb_factor(comb: CombSpectrum, tau: np.ndarray) -> np.ndarray:
    """``E = sum_m w_m cos(2 m Omega tau)``, normalized to E(0) = 1.

    cos is even, so E is the cosine series ``sum_{m >= 0} c_m cos(m theta)``
    in ``theta = 2 Omega tau`` with ``c_0 = w_0`` and ``c_m = w_m + w_{-m}``,
    exact for any weights.  As ``cos(m theta) = T_m(x)`` at
    ``x = cos(theta)``, Clenshaw's recurrence (C. W. Clenshaw, Math. Tables
    Aids Comput. 9, 1955) sums it from the top with one cosine per delay:
    ``b_m = c_m + 2x b_{m+1} - b_{m+2}``, then ``E = c_0 + x b_1 - b_2``.
    """
    n = comb.n_max
    c = comb.bin_weights[n:] + comb.bin_weights[n::-1]
    c[0] *= 0.5
    c /= c.sum()
    x = np.cos(2.0 * comb.fsr_rad_s * tau)
    two_x = 2.0 * x
    b1 = b2 = np.zeros_like(x)
    for c_m in c[:0:-1]:
        b1, b2 = c_m + two_x * b1 - b2, b1
    return c[0] + x * b1 - b2


def quadrature_visibility(comb: CombSpectrum, delays_ps) -> np.ndarray:
    """V at each delay (ps) by trapezoidal quadrature: the closed form's oracle.

    The spectral intensity, squared Lorentzian lines with the comb weights,
    is sampled at ``omega_k = step * k``, k in [-K, K]: `POINTS_PER_LINEWIDTH`
    samples per linewidth over the comb plus `PAD_BINS` bins each side.
    """
    hw = comb.half_width_rad_s
    spacing = comb.fsr_rad_s
    step = 2.0 * hw / POINTS_PER_LINEWIDTH
    k_max = int(math.ceil((comb.n_max + PAD_BINS) * spacing / step))
    omega = step * np.arange(-k_max, k_max + 1)
    intensity = np.zeros_like(omega)
    for m, w in zip(comb.bins, comb.bin_weights):
        intensity += w * np.square(1.0 / (hw * hw + np.square(omega - m * spacing)))
    intensity /= intensity.sum()

    tau = np.atleast_1d(np.asarray(delays_ps, dtype=float)) * 1e-12
    two_omega = 2.0 * omega
    visibility = np.empty(tau.size)
    block = max(1, 4_000_000 // omega.size)
    for i in range(0, tau.size, block):
        phase = np.outer(tau[i : i + block], two_omega)
        visibility[i : i + block] = np.cos(phase, out=phase) @ intensity
    return visibility


def dip_visibility_closed_form(n: int, cavity: CavitySpec) -> float:
    """Closed-form visibility of the n-th revival dip for Lorentzian bins."""
    x = abs(n) * math.pi / cavity.finesse
    return math.exp(-x) * (1.0 + x)


def visibility_to_decay_parameter(v: float | np.ndarray) -> float | np.ndarray:
    """Invert ``v = exp(-x) (1 + x)`` for x >= 0; v is a float or an array.

    The root is unique and equals ``|n| pi / F`` when v is the n-th dip
    visibility.  It is ``-1 - W_{-1}(-v / e)`` (Corless et al., Adv. Comput.
    Math. 5, 1996), found by 8 Newton steps on the concave ``log1p(x) - x =
    log v`` from ``x0 = sqrt(-2 log v) - log v``, which lies at or above the
    root, so the steps fall monotonically onto it, down to subnormal v.  v = 1
    gives +0.0 with no step, which would divide by x.  A float gives a float.
    """
    a = np.asarray(v, dtype=float)
    inside = (a > 0.0) & (a <= 1.0)
    if not inside.all():
        raise ValueError(f"visibility must lie in (0, 1], got {float(a[~inside][0])!r}")
    x = np.zeros(a.shape)
    below = a < 1.0
    log_v = np.log(a[below])
    root = np.sqrt(-2.0 * log_v) - log_v
    for _ in range(8):
        root += (np.log1p(root) - root - log_v) * (1.0 + root) / root
    x[below] = root
    return float(x) if x.ndim == 0 else x


# Dips shallower than this are not reported as revivals.  At low finesse the
# outer revivals fall to ~1e-8, below the plateau ripple that the comb's hard
# bin cutoff leaves (~1e-6 at finesse 3), where a window's minimum is ripple
# rather than a dip.
REVIVAL_VISIBILITY_FLOOR = 1e-2


def _median(values: list[float]) -> float:
    """`np.median` of a nonempty list of floats, none of them nan, bit for bit."""
    s = sorted(values)
    m = len(s) // 2
    return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2.0


def _plateau_medians(delays: np.ndarray, coincidence: np.ndarray, period: float) -> dict[int, float]:
    """Median coincidence over the middle half of each inter-dip interval."""
    k_lo = int(math.floor(delays[0] / period)) - 1
    k_hi = int(math.ceil(delays[-1] / period)) + 1
    ks = np.arange(k_lo, k_hi + 1)
    # The delays increase strictly: bisection finds exactly lo <= d <= hi.
    starts = np.searchsorted(delays, (ks + 0.25) * period, side="left").tolist()
    stops = np.searchsorted(delays, (ks + 0.75) * period, side="right").tolist()
    return {
        k: _median(coincidence[start:stop].tolist())
        for k, start, stop in zip(range(k_lo, k_hi + 1), starts, stops)
        if stop > start
    }


def locate_revivals(trace: HomTrace) -> list[RevivalRecord]:
    """Find revival dips near integer multiples of half the round-trip time.

    Each candidate window of width half a period is searched for a strict
    interior minimum; the plateau reference for the visibility is the
    median coincidence over the middle half of the flanking inter-dip
    intervals.  Dips below `REVIVAL_VISIBILITY_FLOOR` are dropped.
    """
    delays = trace.delays_ps
    c = trace.coincidence
    period = trace.revival_period_ps
    if delays[-1] - delays[0] < period:
        raise ValueError("locate_revivals: trace must span at least one revival period")
    # The span check leaves at least two delays.
    if _median(np.diff(delays).tolist()) > period / 10.0:
        warnings.warn(
            "locate_revivals: delay grid coarser than a tenth of the revival "
            "period; dip centers are unreliable",
            stacklevel=2,
        )

    medians = _plateau_medians(delays, c, period)
    global_plateau = _median(list(medians.values())) if medians else float(c.max())

    # The window of dip n is every delay d with |d - n * period| <= period / 4, for
    # which n = rint(d / period): one pass finds every window, each a contiguous run.
    near = np.rint(delays / period)
    inside = np.flatnonzero(np.abs(delays - near * period) <= period / 4.0)
    n_lo = int(math.ceil(delays[0] / period))
    n_hi = int(math.floor(delays[-1] / period))
    runs = np.searchsorted(near[inside], np.arange(n_lo, n_hi + 2) - 0.5).tolist()
    records: list[RevivalRecord] = []
    for n, first, last in zip(range(n_lo, n_hi + 1), runs, runs[1:]):
        if last - first < 3:
            continue
        start = int(inside[first])
        local = c[start : int(inside[last - 1]) + 1].tolist()
        low = min(local)
        j = local.index(low)
        # Reject window-edge minima: a revival must be an interior dip.
        if not (low < local[0] and low < local[-1]):
            continue
        plateaus = [medians[k] for k in (n - 1, n) if k in medians]
        c_max = sum(plateaus) / len(plateaus) if plateaus else global_plateau
        if c_max <= 0.0:
            continue
        vis = (c_max - low) / c_max
        vis = min(max(vis, 0.0), 1.0)
        if vis < REVIVAL_VISIBILITY_FLOOR:
            continue
        records.append(RevivalRecord(n=n, center_ps=float(delays[start + j]), visibility=vis))
    return records


def central_dip_width(trace: HomTrace, threshold: float = 0.01) -> float:
    """Base-to-base width of the central dip (ps).

    Walks outward from zero delay on each side to the first crossing where
    the visibility ``1 - C/plateau`` falls below `threshold`, with linear
    interpolation between samples.
    """
    if not (0.0 < threshold <= 0.5):
        raise ValueError("central_dip_width: threshold must lie in (0, 0.5]")
    delays = trace.delays_ps
    c = trace.coincidence
    # Plateau level; traces from the simulator are already normalized to 1
    # away from dips, the quantile keeps user-supplied traces honest.
    plateau = float(np.quantile(c, 0.95))
    if plateau <= 0.0:
        raise ValueError("central_dip_width: trace has no plateau")
    vis = 1.0 - c / plateau

    i0 = int(np.argmin(np.abs(delays)))
    if vis[i0] <= threshold:
        raise ValueError("central_dip_width: no dip at zero delay above threshold")

    def crossing(direction: int) -> float:
        j = i0
        while 0 <= j + direction < delays.size and vis[j + direction] >= threshold:
            j += direction
        if not (0 <= j + direction < delays.size):
            raise ValueError("central_dip_width: dip not resolved within the trace")
        a, b = j, j + direction
        frac = (vis[a] - threshold) / (vis[a] - vis[b])
        return float(delays[a] + frac * (delays[b] - delays[a]))

    right = crossing(+1)
    left = crossing(-1)
    inside = np.nonzero((delays > left) & (delays < right))[0]
    if inside.size < 20:
        raise ValueError(
            f"central_dip_width: only {inside.size} samples resolve the central dip; "
            "at least 20 required"
        )
    return right - left
