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
    # Trailing zero weights (an underflowed envelope) leave every b_m above the
    # last nonzero one at +0.0, so dropping them changes no bit.
    c = c[: np.flatnonzero(c)[-1] + 1]
    x = np.cos(2.0 * comb.fsr_rad_s * tau)
    two_x = 2.0 * x
    # Each b_m goes into the buffer of b_{m+3}, in the rounding order of
    # c_m + 2x b_{m+1} - b_{m+2}: three buffers serve the whole loop.
    b1, b2, b = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    for c_m in c[:0:-1]:
        np.multiply(two_x, b1, out=b)
        b += c_m
        b -= b2
        b1, b2, b = b, b1, b2
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


def _median(values: np.ndarray) -> float:
    """`np.median` of a nonempty array of floats, none of them nan, bit for bit.

    Equal values may trade places in the sort, which can change only the
    sign of a zero median.
    """
    s = np.sort(values)
    m = s.size // 2
    return float(s[m] if s.size % 2 else (s[m - 1] + s[m]) / 2.0)


def _by_length(starts: np.ndarray, sizes: np.ndarray):
    """Each set of the runs ``range(start, start + size)`` that share one size.

    Yields the places of the runs in `starts` and a matrix of their indices,
    a row per run: one array operation serves every run of that size.  Runs
    of k distinct sizes hold at least k (k + 1) / 2 indices, so N indices
    make at most sqrt(2 N) sets, and the matrices hold N in all.
    """
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        places = np.flatnonzero(sizes == size)
        yield places, starts[places, None] + np.arange(size)


def _plateau_medians(
    delays: np.ndarray, coincidence: np.ndarray, period: float, ks: np.ndarray
) -> np.ndarray:
    """Median coincidence over the middle half of each inter-dip interval k in `ks`.

    Interval k lies between dips k and k + 1; its median is nan if it holds no
    delay.  Equal values may trade places, as in `_median`.
    """
    # The delays increase strictly: bisection finds exactly lo <= d <= hi.
    starts = np.searchsorted(delays, (ks + 0.25) * period, side="left")
    stops = np.searchsorted(delays, (ks + 0.75) * period, side="right")
    medians = np.full(ks.size, np.nan)
    held = np.flatnonzero(stops > starts)
    for places, idx in _by_length(starts[held], (stops - starts)[held]):
        s = np.sort(coincidence[idx], axis=1)
        m = idx.shape[1] // 2
        medians[held[places]] = s[:, m] if idx.shape[1] % 2 else (s[:, m - 1] + s[:, m]) / 2.0
    return medians


def locate_revivals(trace: HomTrace) -> np.recarray:
    """Find revival dips near integer multiples of half the round-trip time.

    Each candidate window of width half a period is searched for a strict
    interior minimum; the plateau reference for the visibility is the
    median coincidence over the middle half of the flanking inter-dip
    intervals.  Dips below `REVIVAL_VISIBILITY_FLOOR` are dropped.  The
    dips are the rows of a read-only record array with the fields of
    ``revivals.csv``: ``n``, ``center_ps`` and ``visibility``.
    """
    delays = trace.delays_ps
    c = trace.coincidence
    period = trace.revival_period_ps
    if delays[-1] - delays[0] < period:
        raise ValueError("locate_revivals: trace must span at least one revival period")
    # The span check leaves at least two delays.
    if _median(np.diff(delays)) > period / 10.0:
        warnings.warn(
            "locate_revivals: delay grid coarser than a tenth of the revival "
            "period; dip centers are unreliable",
            stacklevel=2,
        )

    n_lo = int(math.ceil(delays[0] / period))
    n_hi = int(math.floor(delays[-1] / period))
    # No delay lies in an interval outside these, so they hold every plateau.
    medians = _plateau_medians(delays, c, period, np.arange(n_lo - 1, n_hi + 1))
    held = medians[~np.isnan(medians)]
    global_plateau = _median(held) if held.size else float(c.max())

    # The window of dip n is every delay d with |d - n * period| <= period / 4, for
    # which n = rint(d / period): one pass finds every window, each a contiguous run.
    near = np.rint(delays / period)
    inside = np.flatnonzero(np.abs(delays - near * period) <= period / 4.0)
    runs = np.searchsorted(near[inside], np.arange(n_lo, n_hi + 2) - 0.5)
    # Dip n_lo + w for each w here; its flanking intervals are medians[w] and medians[w + 1].
    w = np.flatnonzero(np.diff(runs) >= 3)
    first = inside[runs[w]]
    last = inside[runs[w + 1] - 1]
    # The first delay at each window's minimum, as `min` and `list.index` find it.
    j = np.empty(w.size, dtype=np.intp)
    for places, idx in _by_length(first, last + 1 - first):
        j[places] = idx[np.arange(places.size), np.argmin(c[idx], axis=1)]
    low = c[j]

    # The mean of the flanking plateaus that hold delays, else the global plateau.
    before, after = medians[w], medians[w + 1]
    c_max = np.where(np.isnan(before), after, (before + after) / 2.0)
    c_max = np.where(np.isnan(after), before, c_max)
    c_max = np.where(np.isnan(c_max), global_plateau, c_max)
    # Reject window-edge minima: a revival must be an interior dip.
    kept = np.flatnonzero((low < c[first]) & (low < c[last]) & (c_max > 0.0))
    vis = np.clip((c_max[kept] - low[kept]) / c_max[kept], 0.0, 1.0)
    found = vis >= REVIVAL_VISIBILITY_FLOOR
    kept, vis = kept[found], vis[found]
    revivals = np.rec.fromarrays(
        [w[kept] + n_lo, delays[j[kept]], vis],
        dtype=[("n", np.int64), ("center_ps", float), ("visibility", float)],
    )
    revivals.flags.writeable = False
    return revivals


def _quantile(values: np.ndarray, q: float) -> float:
    """`np.quantile(values, q)` of floats, none of them nan, bit for bit, from one sort.

    numpy's default method interpolates linearly at index ``(n - 1) q``,
    from the upper neighbour when the fraction is at least a half.
    """
    s = np.sort(values)
    index = (s.size - 1) * q
    below = math.floor(index)
    t = index - below
    a, b = s[below], s[min(below + 1, s.size - 1)]
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


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
    plateau = _quantile(c, 0.95)
    if plateau <= 0.0:
        raise ValueError("central_dip_width: trace has no plateau")
    vis = 1.0 - c / plateau

    i0 = int(np.argmin(np.abs(delays)))
    if vis[i0] <= threshold:
        raise ValueError("central_dip_width: no dip at zero delay above threshold")
    # The first sample below threshold on each side of zero delay, and the
    # sample before it, walking outward.
    below = np.flatnonzero(vis < threshold)
    side = int(np.searchsorted(below, i0))
    if side == 0 or side == below.size:
        raise ValueError("central_dip_width: dip not resolved within the trace")

    def crossing(a: int, b: int) -> float:
        frac = (vis[a] - threshold) / (vis[a] - vis[b])
        return float(delays[a] + frac * (delays[b] - delays[a]))

    right = crossing(int(below[side]) - 1, int(below[side]))
    left = crossing(int(below[side - 1]) + 1, int(below[side - 1]))
    inside = np.nonzero((delays > left) & (delays < right))[0]
    if inside.size < 20:
        raise ValueError(
            f"central_dip_width: only {inside.size} samples resolve the central dip; "
            "at least 20 required"
        )
    return right - left
