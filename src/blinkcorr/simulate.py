"""Photon stream simulation and correlation estimation.

The generative model mirrors the analytic one: an alternating renewal
process of light and dark periods, photon emission inside light periods
from the driven two-level transition, and an independent Poisson
background over the whole record.

Randomness comes from counter-based generators keyed on (seed, stream) so
that period structure, molecule photons and background photons draw from
disjoint streams and every output is reproducible from the seed alone.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .correlation import CorrelationSeries
from .errors import DegenerateInputError, InsufficientDataError
from .fileio import _ROW, _ROW_TEXT, _atomic_open, _format_times, _parse_times, format_float, plain_number
from .params import PeriodStatistics, PhotoPhysicalParams

__all__ = [
    "Trajectory",
    "simulate_periods",
    "simulate_photons",
    "estimate_g",
    "light_fraction",
    "read_trajectory",
    "write_trajectory",
]

_STREAM_PERIODS = 0
_STREAM_MOLECULE = 1
_STREAM_BACKGROUND = 2

# estimate_g splits its bins where the two stages' estimated work is least,
# counted in lattice cells visited for one lag; an exact-stage pair, or a
# photon binned onto a lattice, costs this many (17 ns against 0.6 ns on a
# 2-core x86-64 VM).
_PAIR_COST = 30.0
# Elements per block of the temporaries of estimate_g (sources of the exact
# stage, photons and cells of the lattice stage) and of the waits
# simulate_photons draws, and the mantissa bits of the exact stage's delay
# table.
_BLOCK = 1 << 16
# Times per block write_trajectory formats, and read_trajectory parses, at
# once, one block per core.
_WRITE_BLOCK = 1 << 15
_TABLE_BITS = 8
# Header keys a trajectory file sets, with the converters of their values.
_HEADER_FIELDS = {"duration": float, "seed": int}


def _checked_seed(seed) -> int:
    """``seed`` as an int; :class:`ValueError` unless it is an integer, not
    a bool, in [0, 2**63)."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError("seed must be an integer")
    if seed < 0 or seed >= 2**63:
        raise ValueError("seed must lie in [0, 2**63)")
    return int(seed)


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[_checked_seed(seed), int(stream)]))


@dataclass(frozen=True)
class Trajectory:
    """Photon arrival times over a fixed observation window.

    ``times`` are sorted seconds in ``[0, duration]``; ``seed``, the
    simulation's, is None or an integer, not a bool, in [0, 2**63).
    """

    times: np.ndarray
    duration: float
    seed: int | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1:
            raise ValueError("times must be a vector")
        duration = float(self.duration)
        object.__setattr__(self, "duration", duration)
        if not math.isfinite(duration) or duration <= 0.0:
            raise ValueError("duration must be positive and finite")
        if self.seed is not None:
            object.__setattr__(self, "seed", _checked_seed(self.seed))
        if times.size:
            # min and max are NaN if a time is.
            first, last = float(times.min()), float(times.max())
            if not (math.isfinite(first) and math.isfinite(last)):
                raise ValueError("arrival times must be finite")
            if np.any(times[1:] < times[:-1]):
                raise ValueError("arrival times must be sorted")
            if first < 0.0 or last > duration:
                raise ValueError("arrival times must lie within [0, duration]")

    def __len__(self) -> int:
        return int(self.times.size)


class _EmissionSampler:
    """Draws waiting times between consecutive photons of the driven
    transition by inverting the no-jump survival probability.

    Between photon emissions the two-level amplitude evolves under the
    damped drive; the survival probability is the squared norm of that
    conditional state and decreases monotonically. It is tabulated once
    on a dense grid, and interpolating that table inverts it
    (:meth:`table_waits`); this defines the sampler. Draws go through a
    coarse inverse table of the wait at ``u = b / _CELLS``, one index and
    one linear step per draw (the table-lookup inversion of Devroye,
    *Non-Uniform Random Variate Generation* (1986), III.2-3). Cells where
    that step departs from the dense table by more than one grid step
    (the tail and sharp knees of the curve) are served by the dense
    table, so every draw lies within one grid step of it.
    """

    _POINTS = 1 << 19
    _CELLS = 1 << 16
    _TAIL = 1e-26

    def __init__(self, A31: float, Omega31: float) -> None:
        self.A31 = float(A31)
        self.Omega31 = float(Omega31)
        if self.A31 <= 0.0 or self.Omega31 <= 0.0:
            raise ValueError("A31 and Omega31 must be positive")
        a, w = self.A31, self.Omega31
        self.mean_wait = (a * a + 2.0 * w * w) / (a * w * w)

        t_max = 8.0 * self.mean_wait
        while self._survival(np.array([t_max]))[0] > self._TAIL:
            t_max *= 2.0
            if t_max > 1e9 * self.mean_wait:  # pragma: no cover
                break
        grid = np.linspace(0.0, t_max, self._POINTS)
        self.grid_step = float(grid[1])
        surv = self._survival(grid)
        surv = np.minimum.accumulate(surv)
        # Reverse so the abscissa is increasing for interpolation.
        self._surv_rev = surv[::-1].copy()
        self._grid_rev = grid[::-1].copy()

        coarse = self.table_waits(np.arange(self._CELLS + 1) / self._CELLS)
        self._base = coarse[:-1]
        self._slope = np.diff(coarse)
        # Both inversions are piecewise linear and meet at the cell edges,
        # so inside a cell they lie furthest apart at a dense node. With no
        # cell flagged yet, waits() is the coarse table alone.
        self._flagged = np.zeros(self._CELLS, dtype=bool)
        far = np.abs(self.waits(self._surv_rev) - self._grid_rev) > self.grid_step
        cell = (self._surv_rev[far] * self._CELLS).astype(np.intp)
        self._flagged[np.minimum(cell, self._CELLS - 1)] = True

    def _survival(self, t: np.ndarray) -> np.ndarray:
        a, w = self.A31, self.Omega31
        h_sq = 0.25 * a * a - w * w
        decay = np.exp(-0.25 * a * t)
        if h_sq > (1e-6 * a) ** 2:
            # Overdamped: assemble from the two real exponentials; both
            # decay, which keeps large arguments overflow free.
            h = math.sqrt(h_sq)
            e_slow = np.exp((h - 0.5 * a) * 0.5 * t)
            e_fast = np.exp(-(h + 0.5 * a) * 0.5 * t)
            c1 = 0.5 * ((1.0 + 0.5 * a / h) * e_slow + (1.0 - 0.5 * a / h) * e_fast)
            c3_sq = (w / h) ** 2 * 0.25 * (e_slow - e_fast) ** 2
            return c1 * c1 + c3_sq
        if h_sq < -((1e-6 * a) ** 2):
            g = math.sqrt(-h_sq)
            x = 0.5 * g * t
            sinc = _sinc(x)
            c1 = decay * (np.cos(x) + (0.25 * a * t) * sinc)
            c3_sq = decay**2 * (0.5 * w * t) ** 2 * sinc**2
            return c1 * c1 + c3_sq
        # Near the critical drive both branches collapse onto polynomials.
        c1 = decay * (1.0 + 0.25 * a * t)
        c3_sq = decay**2 * (0.5 * w * t) ** 2
        return c1 * c1 + c3_sq

    def table_waits(self, u: np.ndarray) -> np.ndarray:
        """Waits of the uniforms ``u`` by interpolation in the dense
        survival table."""
        return np.interp(u, self._surv_rev, self._grid_rev)

    def waits(self, u: np.ndarray) -> np.ndarray:
        """Waits of the uniforms ``u`` in [0, 1] from the coarse inverse
        table, each within one grid step of :meth:`table_waits`."""
        x = u * self._CELLS
        cell = np.minimum(x.astype(np.intp), self._CELLS - 1)
        t = self._base[cell] + (x - cell) * self._slope[cell]
        slow = np.flatnonzero(self._flagged[cell])
        if slow.size:
            t[slow] = self.table_waits(u[slow])
        return t


def _sinc(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-6
    safe = np.where(small, 1.0, x)
    return np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)


def simulate_periods(
    stats: PeriodStatistics, duration: float, seed: int
) -> np.ndarray:
    """Draw one alternating light/dark period record.

    Returns an array of shape ``(n, 3)`` with rows ``(state, start,
    end)``; state 0 is light, 1 and 2 the dark types. Dwell times are
    exponential, the dark type is drawn from the branching fractions and
    the initial state from the stationary occupation, so time averages
    are unbiased from the start of the record.
    """
    duration = float(duration)
    if not math.isfinite(duration) or duration <= 0.0:
        raise ValueError("duration must be positive and finite")
    rng = _stream_rng(seed, _STREAM_PERIODS)

    ld1, ld2 = stats.p_LD
    dl1, dl2 = stats.p_DL
    sigma_l = ld1 + ld2

    occupation = np.array(
        [stats.P_L, stats.P_L * ld1 / dl1, stats.P_L * ld2 / dl2]
    )
    state = int(np.searchsorted(np.cumsum(occupation), rng.random()))
    state = min(state, 2)

    records = []
    t = 0.0
    while t < duration:
        if state == 0:
            dwell = rng.exponential(1.0 / sigma_l) if sigma_l > 0.0 else math.inf
            end = min(t + dwell, duration)
            records.append((0.0, t, end))
            if end >= duration:
                break
            state = 1 if rng.random() < ld1 / sigma_l else 2
        else:
            rate = dl1 if state == 1 else dl2
            end = min(t + rng.exponential(1.0 / rate), duration)
            records.append((float(state), t, end))
            if end >= duration:
                break
            state = 0
        t = end
    return np.array(records)


def light_fraction(periods: np.ndarray) -> float:
    """Fraction of the record spent in light periods."""
    periods = np.asarray(periods, dtype=float)
    if periods.ndim != 2 or periods.shape[1] != 3 or periods.shape[0] == 0:
        raise ValueError("periods must be a non-empty (n, 3) record")
    span = periods[-1, 2] - periods[0, 1]
    if span <= 0.0:
        raise ValueError("period record spans no time")
    light = periods[periods[:, 0] == 0.0]
    return float((light[:, 2] - light[:, 1]).sum() / span)


def simulate_photons(
    periods: np.ndarray, params: PhotoPhysicalParams, seed: int
) -> Trajectory:
    """Emit photons along a period record.

    Light periods produce molecule photons as a renewal sequence of
    two-level waiting times starting fresh at each dark-to-light
    transition; the wait that overruns a light period is lost, and dark
    periods are silent. Background photons arrive as a homogeneous
    Poisson process at ``params.I_sc`` over the whole record and are
    merged in.

    The arrivals fill one array sized from the expected count, which
    grows by a copy only when a record outruns it. The waits come in
    chunks of ``_BLOCK``, one chunk per core at a time: the calling
    thread draws each chunk's uniforms in stream order, every core turns
    one chunk into waits, and the calling thread walks the periods
    through them in order. The molecule photons come out of the walk in
    order, so they are sorted only when a test finds two out of order;
    background photons are sorted in with them.
    """
    periods = np.asarray(periods, dtype=float)
    if periods.ndim != 2 or periods.shape[1] != 3 or periods.shape[0] == 0:
        raise ValueError("periods must be a non-empty (n, 3) record")
    duration = float(periods[-1, 2])

    rng_mol = _stream_rng(seed, _STREAM_MOLECULE)
    rng_bg = _stream_rng(seed, _STREAM_BACKGROUND)

    sampler = _EmissionSampler(params.A31, params.Omega31)
    light = periods[(periods[:, 0] == 0.0) & (periods[:, 2] > periods[:, 1])]
    starts = light[:, 1]
    spans = light[:, 2] - starts

    n_bg = rng_bg.poisson(params.I_sc * duration) if params.I_sc > 0.0 else 0
    expected = spans.sum() / sampler.mean_wait
    times = np.empty(int(expected + 4.0 * math.sqrt(expected)) + _BLOCK + n_bg)
    filled = 0

    # Waits come in chunks, one running sum per chunk. A light period
    # keeps the waits whose running sum from its own start stays below
    # its span, drops the wait that crosses it, and the next period
    # starts on the wait after; a period that outlasts the chunk carries
    # the time it has run into the next one.
    k = 0
    elapsed = 0.0

    def chunks() -> Iterator[np.ndarray]:
        # Drawn ahead of the walk; the walk skips chunks drawn after the
        # last period, which use up a stream nothing else reads.
        while k < spans.size:
            yield rng_mol.random(_BLOCK)

    def running_sum(u: np.ndarray) -> np.ndarray:
        return np.cumsum(sampler.waits(u))

    def walk(total: np.ndarray) -> None:
        nonlocal k, elapsed, filled, times
        if k == spans.size:
            return
        # Per period met in this chunk, from the first: the end of its
        # kept waits, which start one past the previous period's end, and
        # the running sum its arrivals count from.
        first = k
        stop, origin = [], []
        p = 0
        while k < spans.size and p < total.size:
            base = (total[p - 1] if p else 0.0) - elapsed
            q = int(total.searchsorted(base + spans[k]))
            stop.append(q)
            origin.append(base)
            if q == total.size:
                elapsed = total[-1] - base
            else:
                elapsed = 0.0
                k += 1
            p = q + 1
        # The waits that ended a period are dropped.
        counts = np.diff(stop, prepend=-1) - 1
        kept = np.ones(stop[-1], dtype=bool)
        kept[stop[:-1]] = False
        end = filled + int(counts.sum())
        if end + n_bg > times.size:
            grown = np.empty(2 * (end + n_bg))
            grown[:filled] = times[:filled]
            times = grown
        arrivals = times[filled:end]
        np.compress(kept, total[: stop[-1]], out=arrivals)
        arrivals -= np.repeat(origin, counts)
        arrivals += np.repeat(starts[first : first + len(stop)], counts)
        filled = end

    _in_order(running_sum, chunks(), walk)

    times = times[: filled + n_bg]
    if n_bg:
        times[filled:] = rng_bg.uniform(0.0, duration, n_bg)
    # The walk gives the molecule photons in order, but rounding at a
    # period's end could put two of them one ulp the wrong way round.
    if n_bg or np.any(times[1:] < times[:-1]):
        times.sort()
    return Trajectory(times=times, duration=duration, seed=seed)


def estimate_g(
    trajectory: Trajectory,
    edges: np.ndarray,
    with_windows: bool = False,
):
    """Estimate the normalized intensity correlation from arrival times.

    Counts ordered photon pairs per delay bin and normalizes by the pair
    density of a Poisson process with the record's mean rate, so a flat
    stream estimates one. Bins beyond a tenth of the record length are
    dropped.

    Short-delay bins count pairs exactly on the arrival times, up to the
    split of least estimated work (1e-4 s at 9e4 photons per second): a pair
    ``i < j`` is counted when its delay ``t_j - t_i`` (rounded to float64)
    lies in ``[edges[0], edges[m])``, ``m`` the last exact edge, and falls
    into the bin whose left edge is the largest one not above that delay.
    Pairs are enumerated by neighbour offset ``j - i`` until no source has
    a partner left below ``edges[m]``, in blocks of sources counted on one
    thread per core the process may run on and summed in block order; the
    split and the counts do not depend on the number of cores.

    Longer bins correlate coincidence counts on a lattice of a twentieth
    of the bin's decade: each bin becomes the window of whole lattice
    steps ``[ceil(a / w), ceil(b / w))`` and counts the pairs whose cells
    lie that many steps apart, from cumulative sums of the lattice. A
    bin narrower than one lattice step can hold no step; it is merged
    into the next bin, whose window starts on or after the step it
    rounds to, and only a last such bin is widened to one step. So the
    series can hold fewer points than the grid has bins, and the lattice
    windows, not the requested edges, are what those bins cover.

    The per-bin standard error combines the pair shot noise with the
    uncertainty of the squared-rate normalization; the latter is
    estimated from block counts of the record and floored at its Poisson
    value. For strongly bunched records the normalization term dominates
    in high-count bins and shot noise alone would be far too optimistic
    there.

    Returns a series with one standard error per bin; with
    ``with_windows`` also the actually covered window per bin as an
    ``(n, 2)`` array. A record so sparse, or bins so narrow, that a
    delay, g or a standard error leaves float64's range raises
    :class:`DegenerateInputError`.
    """
    times = trajectory.times
    t_total = trajectory.duration
    n = times.size
    if n < 2:
        raise InsufficientDataError("need at least two photons to correlate")

    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("edges must hold at least two values")
    if np.any(edges <= 0.0) or np.any(np.diff(edges) <= 0.0) or not np.all(
        np.isfinite(edges)
    ):
        raise ValueError("edges must be positive, finite and increasing")
    edges = edges[edges <= 0.1 * t_total]
    if edges.size < 2:
        raise InsufficientDataError(
            "record too short: every requested delay exceeds a tenth of it"
        )

    rate = n / t_total
    nbins = edges.size - 1
    n_exact = _exact_bins(n, t_total, edges)

    counts = np.zeros(nbins)
    windows = np.column_stack([edges[:-1], edges[1:]])
    steps = np.zeros(nbins)
    keep = np.ones(nbins, dtype=bool)
    if n_exact:
        counts[:n_exact] = _exact_counts(times, edges[: n_exact + 1])

    # Lattice bins as (bin, ka, kb), grouped by lattice width in delay order.
    lattices: dict[float, list[tuple[int, int, int]]] = {}
    for i in range(n_exact, nbins):
        width = _lattice_width(edges[i])
        ka = int(math.ceil(edges[i] / width - 1e-9))
        kb = int(math.ceil(edges[i + 1] / width - 1e-9))
        if kb <= ka:
            if i + 1 < nbins:
                keep[i] = False
                continue
            kb = ka + 1
        lattices.setdefault(width, []).append((i, ka, kb))
        windows[i] = (ka * width, kb * width)
        steps[i] = width
    for width, bins in lattices.items():
        bounds = sorted({k for _, ka, kb in bins for k in (ka, kb)})
        sums = dict(zip(bounds, _lattice_sums(times, width, bounds)))
        for i, ka, kb in bins:
            counts[i] = sums[kb] - sums[ka]

    # Pairs a Poisson stream of the record's rate puts into each window: a
    # lattice window [ka w, kb w) sums w (T - k w) over its lags k, which is
    # the exact window's (b - a) (T - (a + b) / 2) with a + b less one w.
    counts, windows, steps = counts[keep], windows[keep], steps[keep]
    lo, hi = windows.T
    # A record too sparse or bins too narrow for float64 give values that
    # are not finite, or delays that round to zero; the series refuses
    # them below.
    with np.errstate(all="ignore"):
        denom = rate * rate * (hi - lo) * (t_total - 0.5 * (lo + hi - steps))
        g = counts / denom
        shot = np.maximum(np.sqrt(counts), 1.0) / denom

        # Normalization term: the estimate divides by rate^2, and for bunched
        # records the rate carries cluster noise well above Poisson. Block
        # counts capture it without any model assumption; the times are
        # sorted, so the counts come from the inner block edges' positions
        # among them.
        k_blocks = 64
        inner = np.linspace(0.0, t_total, k_blocks + 1)[1:-1]
        block_counts = np.diff(np.searchsorted(times, inner), prepend=0, append=n)
        block_rates = block_counts * (k_blocks / t_total)
        var_rate = np.var(block_rates, ddof=1) / k_blocks
        # np.float64 overflows to inf where a float raises; its power calls
        # C pow as float's does, and keeps the floor's bits (x * x rounds
        # apart from pow(x, 2) for about one x in a thousand).
        var_rate = max(var_rate, n / np.float64(t_total) ** 2)
        norm_rel = 2.0 * math.sqrt(var_rate) / rate
        sigma = np.sqrt(shot**2 + (g * norm_rel) ** 2)
        centers = np.sqrt(windows[:, 0] * windows[:, 1])
    try:
        series = CorrelationSeries(tau=centers, g=g, sigma=sigma)
    except ValueError as exc:
        raise DegenerateInputError(
            f"g(tau) of this record on these bins is out of float64 range: {exc}"
        ) from exc
    if with_windows:
        return series, windows
    return series


def _lattice_width(delay: float) -> float:
    # Below about 1e-322 the twentieth of the decade rounds to zero; the
    # smallest positive float stands in, and its lattice costs inf.
    return max(10.0 ** math.floor(math.log10(delay)) / 20.0, 5e-324)


def _exact_bins(n: int, t_total: float, edges: np.ndarray) -> int:
    """Leading bins of ``edges`` that :func:`estimate_g` counts exactly for
    ``n`` photons over ``t_total``: the split of least estimated work. The
    exact stage visits each photon and its ``rate * edges[m]`` partners;
    each lattice width passes once over the photons and over its cells once
    per boundary lag. Counting the bins of its finest width exactly would
    cost less than a lattice of more than ``sqrt(_PAIR_COST * e / (2 *
    width))`` cells per photon, ``e`` their last edge, so none is chosen."""
    # cost[m] prices the split after m bins. A width's photon pass and
    # running sums are paid while its last bin is on a lattice; ties go to
    # the exact stage. A lattice of more cells than float64 counts costs inf.
    with np.errstate(over="ignore"):
        cells = t_total / np.array([_lattice_width(e) for e in edges[:-1]])
        last = np.append(cells[1:] != cells[:-1], True)
        lattice = np.cumsum(np.where(last, cells + (_PAIR_COST * n + cells), cells)[::-1])[::-1]
    cost = _PAIR_COST * n * (n / t_total * edges + 1.0) + np.append(lattice, 0.0)
    cost[0] = lattice[0]
    return int(np.flatnonzero(cost == cost.min())[-1])


def _exact_limit(trajectory: Trajectory, edges: np.ndarray) -> float:
    """Delay where :func:`estimate_g`'s exact stage stops on valid ``edges``."""
    edges = edges[edges <= 0.1 * trajectory.duration]
    return float(edges[_exact_bins(len(trajectory), trajectory.duration, edges)])


def _exact_counts(times: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Pair counts of the exact stage of :func:`estimate_g` per bin of
    ``edges``: a pair counts in the bin that holds its delay ``t_j - t_i``.

    Every source ``i`` meets its neighbours ``j = i + 1, i + 2, ...`` in
    turn, all sources of a block at once, and leaves the block's active
    set once ``t_j - t_i`` reaches the last edge, since later neighbours
    are only farther away. A delay ``d`` is binned without a search: a
    table over the exponent and the top mantissa bits of ``d`` gives the
    number of edges below its cell, and one comparison per edge inside
    the cell corrects it.

    Each block of ``_BLOCK`` sources is counted into its own int64
    histogram, on one thread per core the process may run on, and the
    calling thread adds the histograms in block order. Integer sums do not
    depend on the order they are added in, so neither do the counts.
    """
    nb = edges.size - 1
    n = times.size
    # Codes: the number of edges at or below the delay, so 1..nb are the
    # bins, 0 lies below the grid and `above` past it; one byte each on a
    # grid of fewer than 255 bins.
    above = nb + 1
    shift = 52 - _TABLE_BITS

    # One cell per key, the bits of the delay above the top mantissa bits;
    # keys grow with the delay, which is at most the record's span.
    top = (np.array(times[-1] - times[0]).view(np.int64) >> shift) + 1
    lower = (np.arange(top, dtype=np.int64) << shift).view(np.float64)
    table = np.searchsorted(edges, lower, side="right").astype(np.min_scalar_type(above))
    # Edges strictly inside a cell, each worth one correcting comparison.
    bits = edges.view(np.int64)
    inside = bits >> shift
    inside = inside[(inside < top) & (inside << shift != bits)]
    passes = int(np.bincount(inside).max()) if inside.size else 0
    following = np.append(edges, np.inf)

    def count(start: int) -> np.ndarray:
        hist = np.zeros(nb + 2, dtype=np.int64)
        source = times[start : start + _BLOCK]
        partner = np.arange(start, start + source.size)
        while source.size:
            partner += 1
            if partner[-1] >= n:
                live = int(np.searchsorted(partner, n))
                source, partner = source[:live], partner[:live]
                if not live:
                    break
            d = times[partner] - source
            code = table[d.view(np.int64) >> shift]
            for _ in range(passes):
                code += d >= following[code]
            step = np.bincount(code, minlength=nb + 2)
            hist += step
            if 4 * step[above] >= source.size:
                near = code != above
                source, partner = source[near], partner[near]
        return hist

    counts = np.zeros(nb + 2, dtype=np.int64)
    _in_order(count, range(0, n - 1, _BLOCK), counts.__iadd__)
    return counts[1 : nb + 1].astype(np.float64)


def _lattice_sums(times: np.ndarray, width: float, lags: list[int]) -> np.ndarray:
    """Boundary sums of the lattice stage of :func:`estimate_g`.

    With ``c[j]`` photons in cell ``j`` of the lattice of ``width`` and
    ``S[x]`` photons in the cells below ``x``, returns for each lag ``k``
    of ``lags`` (ascending, all positive) the sum over cells of
    ``c[j] * S[j + k]`` less a term that does not depend on ``k``, so the
    difference of two entries ``ka < kb`` counts the pairs whose cells lie
    ``ka`` to ``kb - 1`` steps apart. The lattice is kept as counts, one
    byte per cell until a cell holds more than 255 photons, and
    worked through in blocks of cells, each with its own running sum, so
    every partial sum is an integer-valued float64 no larger than the
    photon count times the photons of one block and its reach; below
    2**53 the sums are exact in any order.
    """
    inv = 1.0 / width
    m = int(times[-1] * inv) + 1
    cells = np.zeros(m, dtype=np.uint8)
    for start in range(0, times.size, _BLOCK):
        index = (times[start : start + _BLOCK] * inv).astype(np.int64)
        first = np.flatnonzero(np.diff(index, prepend=-1))
        occupied = index[first]
        total = cells[occupied] + np.diff(first, append=index.size)
        if total.max() > np.iinfo(cells.dtype).max:
            cells = cells.astype(np.min_scalar_type(times.size))
        cells[occupied] = total

    reach = lags[-1] - 1
    sums = np.zeros(len(lags))
    running = np.empty(_BLOCK + reach)
    for a in range(0, m, _BLOCK):
        b = min(a + _BLOCK, m)
        weights = cells[a:b].astype(np.float64)
        # running[x] = photons in cells a .. a + x, held at the record's
        # end, so S[j + k] - S[a] = running[j - a + k - 1].
        filled = min(b + reach, m) - a
        np.cumsum(cells[a : a + filled], dtype=np.float64, out=running[:filled])
        running[filled : b - a + reach] = running[filled - 1]
        for slot, k in enumerate(lags):
            sums[slot] += np.dot(weights, running[k - 1 : k - 1 + b - a])
    return sums


def _cores() -> int:
    """The number of cores the process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_order(work: Callable[[Any], Any], blocks: Iterable[Any], take: Callable[[Any], object]) -> None:
    """``take(work(block))`` for each block, in block order, on one thread
    per core the process may run on.

    The blocks go in groups of one per core, and no more threads run than
    the first group has blocks. The calling thread works the first block
    of each group itself, so the process keeps one runnable thread per
    core, and a pool works the rest. Each result is dropped once taken,
    before the next group starts: at most one block per core is in flight,
    and a worker's heap arena stays at one block's working set. ``take``
    runs on the calling thread only, and so does the iteration of
    ``blocks``, each group after the previous group is taken: a generator
    of blocks may stop on what ``take`` has seen, and then the blocks of
    that group after the one that ended the run were worked in vain.
    """
    blocks = iter(blocks)
    group = list(itertools.islice(blocks, _cores()))
    workers = len(group)
    if workers <= 1:
        for block in itertools.chain(group, blocks):
            take(work(block))
        return
    # Imported here: ``import blinkcorr`` does not load the thread pool.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        while group:
            pending = [pool.submit(work, block) for block in group[1:]]
            first = work(group[0])
            del group
            take(first)
            del first
            while pending:
                take(pending.pop(0).result())
            group = list(itertools.islice(blocks, workers))


def write_trajectory(trajectory: Trajectory, path: str) -> None:
    """Write arrival times as text, one per line, after a short header.

    Each time is written as ``'%.16e'`` gives it, so it reads back bit for
    bit, and every time in [1e-99, 1e100) or +0.0 takes a line of 23 bytes.
    The times are formatted in blocks on one thread per core the process
    may run on, and the texts go to the file in block order; at most one
    block per core is in flight, so the text is never held whole in memory.
    """
    header = f"# duration = {format_float(trajectory.duration)}\n"
    if trajectory.seed is not None:
        header += f"# seed = {trajectory.seed}\n"
    times = trajectory.times
    blocks = (times[start : start + _WRITE_BLOCK] for start in range(0, times.size, _WRITE_BLOCK))
    with _atomic_open(path) as handle:
        handle.write(header.encode())
        _in_order(_format_times, blocks, handle.write)


def read_trajectory(path: str) -> Trajectory:
    """Read a trajectory written by :func:`write_trajectory`.

    Blank lines are skipped, and ``# key = value`` lines may stand
    anywhere; of them only ``duration``, which is required, and ``seed``
    are read. A line that is not a finite number, or that holds a ``_``,
    raises :class:`ValueError` naming ``path:lineno``, and times, a
    duration or a seed that :class:`Trajectory` refuses raise it naming
    ``path``.

    The leading ``#`` lines are read one at a time. If the rest of the file
    is whole 23-byte rows as ``'%.16e\\n'`` writes them, one array is sized
    from the file's size and filled by blocks of rows, parsed on one thread
    per core the process may run on by an integer kernel that proves each
    time equal to what ``float()`` reads; the calling thread takes the
    blocks in file order and reads a row the kernel leaves unproven, such
    as zero, with ``float()``. Any other file, such as one with a ``#`` or
    blank line after the first time, is read one line at a time with
    ``float()``. So every time has the bits ``float()`` gives it.
    """
    header: dict[str, float | int] = {}
    with open(path, "rb") as handle:
        leading = []
        while (line := handle.readline()).startswith(b"#"):
            leading.append(line)
        list(_parse_lines(leading, 0, path, header))
        start = handle.tell() - len(line)
        rows, extra = divmod(os.fstat(handle.fileno()).st_size - start, _ROW.itemsize)
        times, filled, whole = np.empty(rows), 0, len(line) == _ROW.itemsize and not extra

        def parse(text: bytes) -> tuple[bytes, np.ndarray, np.ndarray]:
            return (text, *_parse_times(text))

        def take(parsed: tuple[bytes, np.ndarray, np.ndarray]) -> None:
            nonlocal filled, whole
            text, values, proven = parsed
            for i in np.flatnonzero(~proven).tolist():
                row = text[i * _ROW.itemsize : (i + 1) * _ROW.itemsize]
                if not _ROW_TEXT.fullmatch(row):
                    whole = False
                    return
                values[i] = float(row)
            times[filled : filled + values.size] = values
            filled += values.size

        # A row of another shape stops the blocks, and the file is read line by line.
        handle.seek(start)
        _in_order(parse, iter(lambda: handle.read(_WRITE_BLOCK * _ROW.itemsize) if whole else b"", b""), take)
        if not whole:
            handle.seek(start)
            times = np.fromiter(_parse_lines(handle, len(leading), path, header), float)
            filled = times.size
    if "duration" not in header:
        raise ValueError(f"{path}: missing '# duration = ...' header")
    try:
        return Trajectory(
            times=times[:filled],
            duration=header["duration"],
            seed=header.get("seed"),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_lines(
    lines: Iterable[bytes], skipped: int, path: str, header: dict[str, float | int]
) -> Iterator[float]:
    """Arrival times of trajectory lines that follow the first ``skipped``
    lines of the file, one line at a time; ``duration`` and ``seed`` lines
    go to ``header``. A line that is not UTF-8 text, a bad header value or
    a bad arrival time (one with a ``_`` or not finite) raises
    :class:`ValueError` naming ``path:lineno``."""
    for lineno, raw in enumerate(lines, start=skipped + 1):
        what = "text (not UTF-8)"
        try:
            line = raw.decode().strip()
            if line.startswith("#"):
                key, equals, text = line[1:].partition("=")
                key = key.strip()
                if equals and key in _HEADER_FIELDS:
                    what = f"value for {key!r}"
                    header[key] = _HEADER_FIELDS[key](plain_number(text.strip()))
            elif line:
                what = "arrival time"
                value = float(plain_number(line))
                if not math.isfinite(value):
                    raise ValueError(line)
                yield value
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad {what}") from exc
