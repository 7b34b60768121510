"""Hong-Ou-Mandel interferometry of the comb state.

For a frequency-anticorrelated pure two-photon state the balanced
beamsplitter coincidence rate is ``C(tau) = 1 - V(tau)`` with ``V`` the
normalized cosine transform of the biphoton spectral intensity at
``2 * Omega * tau``.  The comb structure turns the single dip at zero
delay into a train of revival dips spaced half a round-trip time apart,
whose depths decay with the bin index n as

    V_n = exp(-|n| pi/F) * (1 + |n| pi/F),

the closed form for Lorentzian bins.

`simulate_hom_trace` evaluates the interferogram as a plain quadrature
sum over a sampled spectral intensity, built once per comb.  Two kernels
compute that same sum: a chirp-z transform (Bluestein's algorithm, three
FFTs) for uniform delay grids, and the direct cosine-matrix product for
every other grid, which the tests also use as the reference for the
chirp-z kernel.  Neither kernel uses the closed form above, so the
quadrature and the closed form still validate each other.
"""

from __future__ import annotations

import functools
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
        if d.ndim != 1 or d.size == 0:
            raise ValueError("HomTrace: delay grid must be a nonempty 1-d array")
        if c.shape != d.shape:
            raise ValueError("HomTrace: delays and coincidence must have equal length")
        if d.size > 1 and not np.all(np.diff(d) > 0.0):
            raise ValueError("HomTrace: delays must be strictly increasing")
        if float(c.min()) < -1e-9 or float(c.max()) > 1.0 + TRUNCATION_OVERSHOOT_TOL:
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


# A delay grid is uniform, and takes the chirp-z kernel, when every delay
# lies within this many grid steps of ``d0 + j * step``.
_UNIFORM_GRID_RTOL = 1e-9

# The quadrature samples the spectral intensity this many times per cavity
# linewidth, out to this many bins past the outermost comb bin.
POINTS_PER_LINEWIDTH = 32
PAD_BINS = 2.0

# Samples per block of the spectral-intensity build (256 KB of scratch).
# 32,768 and 65,536 time the same; 8,192 and 16,384 are slower on every
# preset, and a single block of all samples is slower on 5ghz.
_INTENSITY_BLOCK = 32_768


def simulate_hom_trace(
    comb: CombSpectrum, delays_ps, *, accidental_fraction: float = 0.0
) -> HomTrace:
    """Numeric interferogram oracle over an explicit delay grid (ps).

    The biphoton spectral intensity is the squared Lorentzian line
    profile summed over bins with the comb weights; the visibility is its
    normalized cosine transform, a trapezoidal quadrature on a grid of
    `POINTS_PER_LINEWIDTH` samples per cavity linewidth that spans the
    comb plus `PAD_BINS` bins on each side.  An optional uniform
    accidental floor rescales V -> V * (1 - a).

    The delay grid picks the kernel.  A grid of at least 3 delays, each
    within 1e-9 steps of ``d0 + j * step``, is summed by a chirp-z
    transform in O((M + N) log(M + N)) time for M delays and N frequency
    samples.  Any other grid takes the direct O(M * N) cosine sum.  Both
    kernels evaluate the same quadrature sum (they agree to ~1e-13) and
    neither uses the closed-form dip law.
    """
    delays = np.atleast_1d(np.asarray(delays_ps, dtype=float))
    if delays.size == 0:
        raise ValueError("simulate_hom_trace: empty delay grid")
    if delays.size > 1 and not np.all(np.diff(delays) > 0.0):
        raise ValueError("simulate_hom_trace: delay grid must be strictly increasing")
    if not (0.0 <= accidental_fraction < 1.0):
        raise ValueError("simulate_hom_trace: accidental_fraction must be in [0, 1)")

    step, k, intensity = _spectral_intensity(comb)
    delay_step = _uniform_step(delays)
    if delay_step is None:
        visibility = _direct_visibility(step * k, intensity, delays * 1e-12)
    else:
        visibility = _chirp_z_visibility(
            step, k, intensity, delays[0] * 1e-12, delay_step * 1e-12, delays.size
        )

    coincidence = 1.0 - (1.0 - accidental_fraction) * visibility
    coincidence = np.clip(coincidence, 0.0, None)
    return HomTrace(delays_ps=delays, coincidence=coincidence, comb=comb)


@functools.lru_cache(maxsize=2)
def _spectral_intensity(comb: CombSpectrum) -> tuple[float, np.ndarray, np.ndarray]:
    """Quadrature grid step (rad/s), sample indices k and normalized intensity.

    The samples sit at ``omega_k = step * k`` for k in [-K, K].  Cached per
    comb (`CombSpectrum` hashes by identity), so the scans of one comb
    share a build; the arrays are read-only.

    The build walks the samples in blocks of `_INTENSITY_BLOCK` and does
    each bin's arithmetic in place in one scratch buffer, so it allocates
    no per-bin temporaries and each block stays in cache across the bins.
    Every sample still sees the same IEEE operations, in the same bin
    order, as the plain loop ``intensity += w * (1 / (hw^2 + (omega -
    m spacing)^2))^2``, so the array is bit-identical to it (the tests keep
    that loop as the reference).  It must stay so: both HOM kernels and
    every report artifact are pinned byte for byte to this array.
    """
    hw = comb.half_width_rad_s
    spacing = comb.fsr_rad_s
    # Symmetric quadrature grid covering every bin plus PAD_BINS of margin;
    # symmetry keeps the computed trace even in tau to machine precision.
    step = 2.0 * hw / POINTS_PER_LINEWIDTH
    half_span = (comb.n_max + PAD_BINS) * spacing
    k_max = int(math.ceil(half_span / step))
    k = np.arange(-k_max, k_max + 1, dtype=np.int64)
    omega = step * k

    hw2 = hw * hw
    centres = [m * spacing for m in comb.bins]
    intensity = np.zeros_like(omega)
    scratch = np.empty(min(_INTENSITY_BLOCK, omega.size))
    for start in range(0, omega.size, _INTENSITY_BLOCK):
        samples = omega[start : start + _INTENSITY_BLOCK]
        acc = intensity[start : start + _INTENSITY_BLOCK]
        line = scratch[: samples.size]
        for centre, w in zip(centres, comb.bin_weights):
            np.subtract(samples, centre, out=line)
            np.square(line, out=line)
            np.add(line, hw2, out=line)
            np.divide(1.0, line, out=line)
            np.square(line, out=line)
            np.multiply(line, w, out=line)
            acc += line
    intensity /= intensity.sum()

    k.setflags(write=False)
    intensity.setflags(write=False)
    return step, k, intensity


def _uniform_step(delays: np.ndarray) -> float | None:
    """Step of a uniform grid of at least 3 delays, else None."""
    if delays.size < 3:
        return None
    step = (delays[-1] - delays[0]) / (delays.size - 1)
    ideal = delays[0] + step * np.arange(delays.size)
    if np.max(np.abs(delays - ideal)) > _UNIFORM_GRID_RTOL * step:
        return None
    return float(step)


def _direct_visibility(omega: np.ndarray, intensity: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """``sum_k I_k cos(2 tau_j omega_k)`` as blocked cosine-matrix products."""
    visibility = np.empty(tau.size)
    block = max(1, 4_000_000 // omega.size)
    for i in range(0, tau.size, block):
        chunk = tau[i : i + block]
        visibility[i : i + block] = np.cos(2.0 * np.outer(chunk, omega)) @ intensity
    return visibility


def _chirp_z_visibility(
    step: float, k: np.ndarray, intensity: np.ndarray, tau0: float, tau_step: float, m: int
) -> np.ndarray:
    """``sum_k I_k cos(2 tau_j omega_k)`` at ``tau_j = tau0 + j tau_step``, j < m.

    With ``omega_k = step * k`` the phase is ``2 step tau0 k + a j k``,
    ``a = 2 step tau_step``.  Bluestein's identity
    ``j k = (j^2 + k^2 - (j - k)^2) / 2`` turns the sum over k into a
    convolution with the chirp ``exp(-i a l^2 / 2)`` over every lag
    ``l = j - k``, done with FFTs of a power-of-two length.  Squares are
    taken in int64, so each chirp phase is rounded once.
    """
    a = 2.0 * step * tau_step
    j = np.arange(m, dtype=np.int64)
    lags = np.arange(-k[-1], m - k[0], dtype=np.int64)
    size = 1 << int(lags.size - 1).bit_length()
    weighted = intensity * np.exp(1j * (2.0 * step * tau0 * k + 0.5 * a * (k * k)))
    chirp = np.exp(-0.5j * a * (lags * lags))
    conv = np.fft.ifft(np.fft.fft(weighted, size) * np.fft.fft(chirp, size))
    # Lag j - k sits at chirp index j - k + k[-1], so output j lands at j + k.size - 1.
    return (np.exp(0.5j * a * (j * j)) * conv[k.size - 1 : k.size - 1 + m]).real


def dip_visibility_closed_form(n: int, cavity: CavitySpec) -> float:
    """Closed-form visibility of the n-th revival dip for Lorentzian bins."""
    x = abs(n) * math.pi / cavity.finesse
    return math.exp(-x) * (1.0 + x)


def visibility_to_decay_parameter(v: float) -> float:
    """Invert ``v = exp(-x) (1 + x)`` for x >= 0 by bracketed bisection.

    The right-hand side decreases monotonically from 1, so the root is
    unique; it equals ``|n| pi / F`` when v is the n-th dip visibility.
    """
    if not (0.0 < v <= 1.0):
        raise ValueError(f"visibility must lie in (0, 1], got {v!r}")
    if v == 1.0:
        return 0.0

    def f(x: float) -> float:
        return math.exp(-x) * (1.0 + x) - v

    lo, hi = 0.0, 1.0
    while f(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError(f"failed to bracket decay parameter for v={v!r}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _plateau_medians(delays: np.ndarray, coincidence: np.ndarray, period: float) -> dict[int, float]:
    """Median coincidence over the middle half of each inter-dip interval."""
    medians: dict[int, float] = {}
    k_lo = int(math.floor(delays[0] / period)) - 1
    k_hi = int(math.ceil(delays[-1] / period)) + 1
    for k in range(k_lo, k_hi + 1):
        # The delays increase strictly: bisection finds exactly lo <= d <= hi.
        start = np.searchsorted(delays, (k + 0.25) * period, side="left")
        stop = np.searchsorted(delays, (k + 0.75) * period, side="right")
        if stop > start:
            medians[k] = float(np.median(coincidence[start:stop]))
    return medians


def locate_revivals(trace: HomTrace) -> list[RevivalRecord]:
    """Find revival dips near integer multiples of half the round-trip time.

    Each candidate window of width half a period is searched for a strict
    interior minimum; the plateau reference for the visibility is the
    median coincidence over the middle half of the flanking inter-dip
    intervals.
    """
    delays = trace.delays_ps
    c = trace.coincidence
    period = trace.revival_period_ps
    if delays[-1] - delays[0] < period:
        raise ValueError("locate_revivals: trace must span at least one revival period")
    if delays.size > 1:
        grid_step = float(np.median(np.diff(delays)))
        if grid_step > period / 10.0:
            warnings.warn(
                "locate_revivals: delay grid coarser than a tenth of the revival "
                "period; dip centers are unreliable",
                stacklevel=2,
            )

    medians = _plateau_medians(delays, c, period)
    global_plateau = float(np.median(list(medians.values()))) if medians else float(c.max())

    records: list[RevivalRecord] = []
    n_lo = int(math.ceil(delays[0] / period))
    n_hi = int(math.floor(delays[-1] / period))
    for n in range(n_lo, n_hi + 1):
        center = n * period
        # Bisect to a period-wide slice, far past any rounding of the test.
        start = np.searchsorted(delays, center - period / 2.0)
        stop = np.searchsorted(delays, center + period / 2.0)
        idx = start + np.nonzero(np.abs(delays[start:stop] - center) <= period / 4.0)[0]
        if idx.size < 3:
            continue
        local = c[idx]
        j = int(np.argmin(local))
        # Reject window-edge minima: a revival must be an interior dip.
        if j == 0 or j == local.size - 1:
            continue
        if not (local[j] < local[0] and local[j] < local[-1]):
            continue
        plateaus = [medians[k] for k in (n - 1, n) if k in medians]
        c_max = float(np.mean(plateaus)) if plateaus else global_plateau
        if c_max <= 0.0:
            continue
        vis = (c_max - float(local[j])) / c_max
        vis = min(max(vis, 0.0), 1.0)
        records.append(RevivalRecord(n=n, center_ps=float(delays[idx[j]]), visibility=vis))
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
