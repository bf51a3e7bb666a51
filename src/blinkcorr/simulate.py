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
from typing import Any, BinaryIO, Callable, Iterable, Iterator

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
# photon binned onto a lattice width, costs this many (17 ns against 0.6 ns
# on a 2-core x86-64 VM). It stays 30 although both have since got cheaper,
# and every coarse width is still charged a photon pass it no longer makes:
# the split, and with it g, moves with any new price, so one belongs with a
# new pricing of the lattice's set-up.
_PAIR_COST = 30.0
# Elements per block of the temporaries of estimate_g (sources of the exact
# stage, photons and cells of the lattice stage) and of the waits
# simulate_photons draws, and the mantissa bits of the exact stage's delay
# table.
_BLOCK = 1 << 16
# Times per block write_trajectory formats, and the reader parses, at once,
# one block per core; a block the reader parses for the streamed estimate
# is also a block of sources of its exact stage.
_WRITE_BLOCK = 1 << 15
_TABLE_BITS = 8
# The largest double whose square is finite.
_SQUARE_MAX = math.sqrt(np.finfo(float).max)
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
        _check_times(times, duration)

    def __len__(self) -> int:
        return int(self.times.size)


def _check_times(times: np.ndarray, duration: float, previous: float = -math.inf, where: str = "") -> None:
    """Raise the :class:`ValueError` with which :class:`Trajectory` refuses
    the vector ``times`` over ``duration``, its message after ``where``, if
    it does; for a block of a record, ``previous`` is the time before it."""
    if not times.size:
        return
    # min and max are NaN if a time is.
    first, last = float(times.min()), float(times.max())
    if not (math.isfinite(first) and math.isfinite(last)):
        raise ValueError(f"{where}arrival times must be finite")
    if times[0] < previous:
        raise ValueError(f"{where}arrival times must be sorted")
    # In blocks, so no temporary grows with the record.
    for start in range(0, times.size - 1, _BLOCK):
        later = times[start + 1 : start + _BLOCK + 1]
        if np.any(later < times[start : start + later.size]):
            raise ValueError(f"{where}arrival times must be sorted")
    if first < 0.0 or last > duration:
        raise ValueError(f"{where}arrival times must lie within [0, duration]")


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

    The dense table and the check of the coarse one are worked in blocks
    of ``_TABLE_BLOCK`` points, so the set-up holds the tables (about
    9.5 MB) and the dense grid, and no temporary of the survival kernel
    spans the grid. A drive so weak that the table reaches past about
    1e154 s still gives finite entries, and waits that no light period
    holds; a table whose end or drive phase leaves float64's range
    raises :class:`DegenerateInputError`.
    """

    _POINTS = 1 << 19
    _CELLS = 1 << 16
    _TAIL = 1e-26
    _TABLE_BLOCK = 1 << 15

    def __init__(self, A31: float, Omega31: float) -> None:
        self.A31 = float(A31)
        self.Omega31 = float(Omega31)
        if self.A31 <= 0.0 or self.Omega31 <= 0.0:
            raise ValueError("A31 and Omega31 must be positive")
        a, w = self.A31, self.Omega31
        # Computed so, the mean wait needs finite squares and a product
        # A31 Omega31^2 above zero and finite: one that overflows would give
        # a wait of zero, and the search for the table's end below no end.
        self.mean_wait = (a * a + 2.0 * w * w) / (a * w * w) if 0.0 < a * w * w < math.inf else math.inf
        if not math.isfinite(self.mean_wait):
            raise DegenerateInputError(f"no photon can be drawn at A31 = {a!r}, Omega31 = {w!r}: no finite mean wait")

        # The drive's phase 0.5 g t, with g below Omega31, and the table's
        # end must stay finite.
        t_max = 8.0 * self.mean_wait
        while math.isfinite(2.0 * w * t_max) and self._survival(np.array([t_max]))[0] > self._TAIL:
            t_max *= 2.0
            if t_max > 1e9 * self.mean_wait:  # pragma: no cover
                break
        if not math.isfinite(w * t_max):
            raise DegenerateInputError(
                f"no photon can be drawn at A31 = {a!r}, Omega31 = {w!r}: the waits' table ends past float64's range"
            )
        grid = np.linspace(0.0, t_max, self._POINTS)
        self.grid_step = float(grid[1])
        # The running minimum of the survival, reversed so the abscissa is
        # increasing for interpolation.
        self._surv_rev = np.empty(self._POINTS)
        floor = math.inf
        for start in range(0, self._POINTS, self._TABLE_BLOCK):
            surv = self._survival(grid[start : start + self._TABLE_BLOCK])
            np.minimum.accumulate(surv, out=surv)
            np.minimum(surv, floor, out=surv)
            floor = surv[-1]
            self._surv_rev[self._POINTS - start - surv.size : self._POINTS - start] = surv[::-1]
        self._grid_rev = grid[::-1].copy()
        del grid

        coarse = self.table_waits(np.arange(self._CELLS + 1) / self._CELLS)
        self._base = coarse[:-1]
        self._slope = np.diff(coarse)
        # Both inversions are piecewise linear and meet at the cell edges,
        # so inside a cell they lie furthest apart at a dense node. With no
        # cell flagged yet, waits() is the coarse table alone.
        self._flagged = np.zeros(self._CELLS, dtype=bool)
        flagged = np.zeros(self._CELLS, dtype=bool)
        for start in range(0, self._POINTS, self._TABLE_BLOCK):
            surv = self._surv_rev[start : start + self._TABLE_BLOCK]
            far = np.abs(self.waits(surv) - self._grid_rev[start : start + self._TABLE_BLOCK]) > self.grid_step
            cell = (surv[far] * self._CELLS).astype(np.intp)
            flagged[np.minimum(cell, self._CELLS - 1)] = True
        self._flagged = flagged

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
            # Past t of about 1e154 / Omega31 the square of 0.5 Omega31 t
            # overflows, while c3 = 0.5 Omega31 t sinc(x) stays below
            # Omega31 / g; there c3 is squared whole.
            wide = 0.5 * w * t > _SQUARE_MAX
            if not wide.any():
                return c1 * c1 + decay**2 * (0.5 * w * t) ** 2 * sinc**2
            c3_sq = np.empty_like(t)
            narrow = ~wide
            c3_sq[narrow] = decay[narrow] ** 2 * (0.5 * w * t[narrow]) ** 2 * sinc[narrow] ** 2
            c3_sq[wide] = (decay[wide] * (0.5 * w * t[wide]) * sinc[wide]) ** 2
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
    out = np.sin(safe)
    out /= safe
    # The series only where it is taken: the square of a large x overflows.
    out[small] = 1.0 - x[small] * x[small] / 6.0
    return out


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

    The record comes from :class:`_Photons` as sorted blocks, the ones
    ``blinkcorr simulate`` writes as they come; here they fill one array
    sized from the expected count, which grows by a copy only when a
    record outruns it. A block :class:`Trajectory` would refuse in the
    record raises its :class:`ValueError`, and a record whose expected
    count of times no array can index raises
    :class:`DegenerateInputError` before a photon is drawn.
    """
    photons = _Photons(periods, params, seed)
    times = np.empty(int(photons.expected + 4.0 * math.sqrt(photons.expected)) + _BLOCK + photons.background.size)
    filled = 0

    def take(block: np.ndarray) -> None:
        nonlocal times, filled
        end = filled + block.size
        if end > times.size:
            grown = np.empty(2 * end)
            grown[:filled] = times[:filled]
            times = grown
        times[filled:end] = block
        filled = end

    _run_jobs(photons.jobs(take))
    return Trajectory(times=times[:filled], duration=photons.duration, seed=seed)


class _Photons:
    """The photons :func:`simulate_photons` emits along ``periods``, as
    blocks of sorted times that the jobs of :meth:`jobs` pass on in record
    order.

    The waits come in chunks of ``_BLOCK``: the calling thread draws each
    chunk's uniforms in stream order, a pool job turns them into waits and
    their running sum, and the job's handler walks the periods through
    them in order. Each chunk's arrivals, in order but for a rare one-ulp
    swap at a light period's end, then pass on up to a bound that no
    later arrival undercuts: the last arrival of a light period that runs
    on into the next chunk, or else the start of the next light period
    (the least start of the periods left, for a record whose light
    periods overlap). The times above it are held back and merged into
    the next block.

    The background draws are made, and sorted, up front, and each block
    takes those below its bound: they are all that is held besides a
    chunk or two, so the memory grows with the background count only.
    Tied times are equal floats, so which of them comes first changes no
    byte. The record is the one the whole list of times, sorted, gives.
    """

    def __init__(self, periods: np.ndarray, params: PhotoPhysicalParams, seed: int) -> None:
        periods = np.asarray(periods, dtype=float)
        if periods.ndim != 2 or periods.shape[1] != 3 or periods.shape[0] == 0:
            raise ValueError("periods must be a non-empty (n, 3) record")
        self.duration = float(periods[-1, 2])

        self.rng = _stream_rng(seed, _STREAM_MOLECULE)
        rng_bg = _stream_rng(seed, _STREAM_BACKGROUND)

        self.sampler = _EmissionSampler(params.A31, params.Omega31)
        light = periods[(periods[:, 0] == 0.0) & (periods[:, 2] > periods[:, 1])]
        self.starts = light[:, 1]
        self.spans = light[:, 2] - self.starts
        # No arrival of light period k or a later one lies below floor[k].
        self.floor = np.append(np.minimum.accumulate(self.starts[::-1])[::-1], math.inf)

        self.expected = self.spans.sum() / self.sampler.mean_wait
        # A record whose times no array can index is refused up front, by its
        # count, before a draw or an allocation.
        count = self.expected + params.I_sc * self.duration
        if not 8.0 * (count + 4.0 * math.sqrt(count) + _BLOCK) < np.iinfo(np.intp).max:
            raise DegenerateInputError(
                f"a record of about {count:.3g} photons holds more times than an array can index"
            )
        n_bg = rng_bg.poisson(params.I_sc * self.duration) if params.I_sc > 0.0 else 0
        self.background = rng_bg.uniform(0.0, self.duration, n_bg)
        self.background.sort()

        # The walk: the next light period, and the time it has run before
        # the next chunk. The blocks: the times held back, the background
        # times merged so far, and the last time passed on.
        self.k, self.elapsed = 0, 0.0
        self.held, self.merged, self.last = np.empty(0), 0, -math.inf
        self.count = 0

    def jobs(self, emit: Callable[[np.ndarray], None]) -> Iterator[tuple[Callable[[Any], None], Callable[[], Any]]]:
        """The record's jobs for :func:`_run_jobs`, whose handlers pass its
        blocks to ``emit`` in order. A record without a light period is
        passed on as they are drawn; the others are drawn while a light
        period is left to walk."""
        self.emit = emit
        if not self.spans.size:
            self._pass(np.empty(0), math.inf)
        while self.k < self.spans.size:
            # Drawn ahead of the walk; the walk skips chunks drawn after the
            # last period, which use up a stream nothing else reads.
            u = self.rng.random(_BLOCK)
            yield self._walk, lambda u=u: np.cumsum(self.sampler.waits(u))

    def _walk(self, total: np.ndarray) -> None:
        # A light period keeps the waits whose running sum from its own
        # start stays below its span, drops the wait that crosses it, and
        # the next period starts on the wait after; a period that outlasts
        # the chunk carries the time it has run into the next one.
        if self.k == self.spans.size:
            return
        # Per period met in this chunk, from the first: the end of its
        # kept waits, which start one past the previous period's end, and
        # the running sum its arrivals count from.
        first = self.k
        stop, origin = [], []
        p = 0
        while self.k < self.spans.size and p < total.size:
            base = (total[p - 1] if p else 0.0) - self.elapsed
            q = max(int(total.searchsorted(base + self.spans[self.k])), p)
            stop.append(q)
            origin.append(base)
            if q == total.size:
                self.elapsed = total[-1] - base
            else:
                self.elapsed = 0.0
                self.k += 1
            p = q + 1
        # The waits that ended a period are dropped.
        counts = np.diff(stop, prepend=-1) - 1
        kept = np.ones(stop[-1], dtype=bool)
        kept[stop[:-1]] = False
        arrivals = np.compress(kept, total[: stop[-1]])
        arrivals -= np.repeat(origin, counts)
        arrivals += np.repeat(self.starts[first : first + len(stop)], counts)
        # Within a period the arrivals grow, also across chunks, and none
        # lies before its start.
        bound = float(self.floor[self.k])
        if stop[-1] == total.size:
            bound = min(float(arrivals[-1]), float(self.floor[self.k + 1]))
        self._pass(arrivals, bound)

    def _pass(self, arrivals: np.ndarray, bound: float) -> None:
        """Pass on the times held back, ``arrivals`` and the background
        times up to ``bound``, sorted, and hold back the rest; all of them
        at the end of the record, ``bound`` inf."""
        cut = int(self.background.searchsorted(bound, side="right"))
        block = arrivals
        if self.held.size or cut > self.merged:
            block = np.concatenate([self.held, arrivals, self.background[self.merged : cut]])
            self.merged = cut
        # Timsort: one pass over a block in order, and a merge of the runs
        # of the rest.
        block.sort(kind="stable")
        cut = block.size if bound == math.inf else int(block.searchsorted(bound, side="right"))
        self.held = block[cut:].copy()
        block = block[:cut]
        _check_times(block, self.duration, self.last)
        if block.size:
            self.count += block.size
            self.last = float(block[-1])
        # In pieces of a chunk at most, which the background can outgrow.
        for start in range(0, block.size, _BLOCK):
            self.emit(block[start : start + _BLOCK])


def estimate_g(trajectory: Trajectory, edges: np.ndarray, with_windows: bool = False):
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
    a partner left below ``edges[m]``, each source from the first time
    after its own, in blocks of sources counted on one
    thread per core the process may run on and summed in block order; the
    split and the counts do not depend on the number of cores.

    Longer bins correlate coincidence counts on a lattice of a twentieth
    of the bin's decade: each bin becomes the window of whole lattice
    steps ``[ceil(a / w), ceil(b / w))`` and counts the pairs whose cells
    lie that many steps apart, from cumulative sums of the lattice. The
    photons are binned onto the finest lattice only; each coarser lattice
    sums runs of cells of the one before (multi-tau coarsening), so a
    photon's coarse cell is its finest cell divided by the ratio of the
    widths. A bin narrower than one lattice step can hold no step; it is
    merged into the next bin, whose window starts on or after the step it
    rounds to, and only a last such bin is widened to one step. So the
    series can hold fewer points than the grid has bins, and the lattice
    windows, not the requested edges, are what those bins cover.

    Both stages take the times in blocks of ``_BLOCK``, in order, and
    hold no whole-record array of their own (:class:`_Correlator`); the
    blocking does not change a count.

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
    return _correlate(times.size, trajectory.duration, edges, _blocks(times), with_windows=with_windows)[0]


def _blocks(times: np.ndarray) -> Iterator[np.ndarray]:
    """``times`` in blocks of ``_BLOCK``."""
    return (times[start : start + _BLOCK] for start in range(0, times.size, _BLOCK))


def _correlate(
    n: int, duration: float, edges: np.ndarray, blocks: Iterable[Any], parse=None, check=None, with_windows=False
) -> tuple[Any, float]:
    """:func:`estimate_g` of the record of ``n`` times over ``duration``
    that :meth:`_Correlator.run` takes as ``blocks``, ``parse`` and
    ``check``, and the delay where its exact stage stops. Where the
    correlator refuses ``n`` or ``edges`` as too few, the blocks of a
    ``parse`` are parsed and checked first, so a refusal of the record
    comes before it."""
    try:
        correlator = _Correlator(n, duration, edges)
    except InsufficientDataError:
        if parse is not None:
            _in_order(parse, blocks, check)
        raise
    correlator.run(blocks, parse, check)
    return correlator.series(with_windows), correlator.limit


# Blocks of equal length whose photon counts give the spread of the rate.
_RATE_BLOCKS = 64


class _Correlator:
    """:func:`estimate_g` of a record of ``n`` photons over ``duration`` on
    ``edges``, fed the record's times one sorted block at a time by
    :meth:`run`, which takes them as the record's: no block is checked.

    No stage holds the record. The exact stage counts each block's
    sources in a window: the block and the later times that lie less than
    its last edge after the block's last time, copied out once the block
    that passes that reach has come. The lattice stage bins each block
    onto its finest width, and every width works through its cells in
    order with only the cells its longest lag reaches back over
    (:class:`_Lattice`). The block counts of the normalization add up
    block by block. So the memory grows with the photons within the exact
    stage's reach and the cells of the longest lag, not with the record.
    All counts are integers, or integer-valued float64 below 2**53, so no
    blocking changes them.
    """

    def __init__(self, n: int, duration: float, edges: np.ndarray) -> None:
        if n < 2:
            raise InsufficientDataError("need at least two photons to correlate")
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("edges must hold at least two values")
        if np.any(edges <= 0.0) or np.any(np.diff(edges) <= 0.0) or not np.all(
            np.isfinite(edges)
        ):
            raise ValueError("edges must be positive, finite and increasing")
        edges = edges[edges <= 0.1 * duration]
        if edges.size < 2:
            raise InsufficientDataError(
                "record too short: every requested delay exceeds a tenth of it"
            )
        self.n, self.duration, self.edges = n, duration, edges
        nbins = edges.size - 1
        self.n_exact = _exact_bins(n, duration, edges)
        self.limit = float(edges[self.n_exact])

        self.windows = np.column_stack([edges[:-1], edges[1:]])
        self.steps = np.zeros(nbins)
        self.keep = np.ones(nbins, dtype=bool)
        # Lattice bins as (bin, ka, kb), grouped by lattice width in delay order.
        self.lattice_bins: dict[float, list[tuple[int, int, int]]] = {}
        for i in range(self.n_exact, nbins):
            width = _lattice_width(edges[i])
            ka = int(math.ceil(edges[i] / width - 1e-9))
            kb = int(math.ceil(edges[i + 1] / width - 1e-9))
            if kb <= ka:
                if i + 1 < nbins:
                    self.keep[i] = False
                    continue
                kb = ka + 1
            self.lattice_bins.setdefault(width, []).append((i, ka, kb))
            self.windows[i] = (ka * width, kb * width)
            self.steps[i] = width
        self.lattices = _lattices(
            {width: sorted({k for _, ka, kb in bins for k in (ka, kb)}) for width, bins in self.lattice_bins.items()}
        )
        self.finest = next(iter(self.lattices.values()), None)

        self.count = _pair_counter(edges[: self.n_exact + 1], duration) if self.n_exact else None
        self.pairs = np.zeros(self.n_exact + 2, dtype=np.int64)
        # Blocks whose sources wait for the end of their window, then the
        # blocks after them, and the counts ready to run.
        self.sources: list[np.ndarray] = []
        self.ready: list[Callable[[], np.ndarray]] = []
        self.inner = np.linspace(0.0, duration, _RATE_BLOCKS + 1)[1:-1]
        self.rate_counts = np.zeros(_RATE_BLOCKS, dtype=np.int64)
        self.seen, self.last = 0, -math.inf

    def run(self, blocks: Iterable[Any], parse=None, check=None) -> None:
        """Feed the record's ``n`` times in order, as ``blocks`` of times
        or, with ``parse``, as what ``parse`` turns each of ``blocks`` into
        and ``check`` passes on; no block is empty.

        The parses and the exact stage's counts run through one
        :func:`_in_order`, on one thread per core the process may run on;
        the rest, ``check`` among it, runs on the calling thread, as each
        block is taken. The counts of the windows that reach the end of the
        record run there after the last block, if a parse took it. What a
        parse or ``check`` raises ends the run.
        """

        def jobs() -> Iterator[tuple[Callable[[Any], None], Callable[[], Any]]]:
            # The counts made ready so far go after the next block's parse,
            # so the calling thread parses and takes the block while the
            # workers count.
            for block in blocks:
                ready, self.ready = self.ready, []
                if parse is None:
                    self._add(block)
                else:
                    yield (lambda times: self._add(check(times))), lambda block=block: parse(block)
                yield from ((self.pairs.__iadd__, count) for count in ready)
            # Unless the last block is in the group being drawn, it was
            # taken; a take may still queue counts while these are drawn.
            if self.seen == self.n:
                self._dispatch(end=True)
            while self.ready:
                yield self.pairs.__iadd__, self.ready.pop(0)

        _run_jobs(jobs())
        self._dispatch(end=True)
        while self.ready:
            self.pairs += self.ready.pop(0)()
        if self.finest is not None:
            self.finest.close()

    def _add(self, block: np.ndarray) -> None:
        self.seen += block.size
        self.last = float(block[-1])
        self.rate_counts += np.diff(np.searchsorted(block, self.inner), prepend=0, append=block.size)
        if self.finest is not None:
            self.finest.add_times(block)
        if self.count is not None:
            self.sources.append(block)
            self._dispatch(end=False)

    def _dispatch(self, end: bool) -> None:
        """Queue the count of each source block whose window is whole: the
        last block taken lies at least the exact stage's last edge after
        the block's last time, or, with ``end``, the record has ended."""
        while self.sources:
            block = self.sources[0]
            if not (end or self.last - block[-1] >= self.limit):
                return
            parts = [block]
            for later in self.sources[1:]:
                # The kernel bins the delay as this float64 difference.
                cut = int(np.searchsorted(later - block[-1], self.limit))
                parts.append(later[:cut])
                if cut < later.size:
                    break
            window = np.concatenate(parts)
            self.ready.append(lambda window=window, size=block.size: self.count(window, size))
            del self.sources[0]

    def series(self, with_windows: bool = False):
        """The estimate, once :meth:`run` has fed the record; see
        :func:`estimate_g`."""
        t_total, n = self.duration, self.n
        counts = np.zeros(self.edges.size - 1)
        counts[: self.n_exact] = self.pairs[1 : self.n_exact + 1]
        for width, bins in self.lattice_bins.items():
            at = dict(zip(self.lattices[width].lags, self.lattices[width].sums))
            for i, ka, kb in bins:
                counts[i] = at[kb] - at[ka]

        # Pairs a Poisson stream of the record's rate puts into each window: a
        # lattice window [ka w, kb w) sums w (T - k w) over its lags k, which is
        # the exact window's (b - a) (T - (a + b) / 2) with a + b less one w.
        rate = n / t_total
        counts, windows, steps = counts[self.keep], self.windows[self.keep], self.steps[self.keep]
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
            # counts capture it without any model assumption.
            block_rates = self.rate_counts * (_RATE_BLOCKS / t_total)
            var_rate = np.var(block_rates, ddof=1) / _RATE_BLOCKS
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
    width))`` cells per photon, ``e`` their last edge, so none is chosen.

    The pricing is kept although :class:`_Lattice` bins the photons onto
    the finest width only and sums runs of its cells into each coarser
    one: a coarse width is still charged a photon pass it no longer makes,
    and repricing it moves the split, and so g."""
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


def _pair_counter(edges: np.ndarray, duration: float) -> Callable[[np.ndarray, int], np.ndarray]:
    """The exact stage of :func:`estimate_g` on the bins of ``edges`` for
    a record over ``duration``: a function of a window of sorted times and
    the number of its leading times that are sources, which counts each
    pair of a source and a later time of the window into the bin that
    holds its delay ``t_j - t_i``, as an int64 histogram of ``edges.size +
    1`` entries, whose entries 1 to ``edges.size - 1`` are the bins. The
    window must hold every time that lies less than ``edges[-1]`` after a
    source.

    Every source ``i`` meets its neighbours ``j = i + 1, i + 2, ...`` in
    turn, all sources at once, and leaves the active set once ``t_j -
    t_i`` reaches the last edge, since later neighbours are only farther
    away. In a window whose sources hold a repeated time, each source
    starts after the times equal to its own: their delay of zero lies below
    every edge, and a run of ties would otherwise keep its sources active
    for the length of the run. A delay ``d`` is binned without a search: a
    table over the exponent and the top mantissa bits of ``d``, built once
    per record, gives the number of edges below its cell, and one
    comparison per edge inside the cell corrects it.
    """
    nb = edges.size - 1
    # Codes: the number of edges at or below the delay, so 1..nb are the
    # bins, 0 lies below the grid and `above` past it; one byte each on a
    # grid of fewer than 255 bins.
    above = nb + 1
    shift = 52 - _TABLE_BITS

    # One cell per key, the bits of the delay above the top mantissa bits;
    # keys grow with the delay, which is at most the record's duration.
    top = (np.array(duration).view(np.int64) >> shift) + 1
    lower = (np.arange(top, dtype=np.int64) << shift).view(np.float64)
    table = np.searchsorted(edges, lower, side="right").astype(np.min_scalar_type(above))
    del lower
    # Edges strictly inside a cell, each worth one correcting comparison.
    bits = edges.view(np.int64)
    inside = bits >> shift
    inside = inside[(inside < top) & (inside << shift != bits)]
    passes = int(np.bincount(inside).max()) if inside.size else 0
    following = np.append(edges, np.inf)

    def count(times: np.ndarray, sources: int) -> np.ndarray:
        hist = np.zeros(nb + 2, dtype=np.int64)
        n = times.size
        source = times[:sources]
        partner = np.arange(sources)
        # A source meets its ties at delay zero, below edges[0]; in a window
        # whose sources hold a tie, each source starts after its ties.
        after = times[1 : sources + 1]
        if np.any(after == source[: after.size]):
            partner = np.searchsorted(times, source, side="right") - 1
        while source.size:
            partner += 1
            if partner[-1] >= n:
                live = int(np.searchsorted(partner, n))
                source, partner = source[:live], partner[:live]
                if not live:
                    break
            d = times.take(partner)
            d -= source
            code = table.take(d.view(np.int64) >> shift)
            for _ in range(passes):
                code += d >= following.take(code)
            step = np.bincount(code, minlength=nb + 2)
            hist += step
            if 4 * step[above] >= source.size:
                near = code != above
                source, partner = source[near], partner[near]
        return hist

    return count


def _lattices(lags: dict[float, list[int]]) -> dict[float, _Lattice]:
    """The lattices of the widths of ``lags`` (ascending, each a whole
    multiple of the one before), by width, each passing its runs of cells
    to the next; the first is to be fed the photons."""
    lattices, coarser = {}, None
    for width in reversed(lags):
        lattices[width] = coarser = _Lattice(width, lags[width], coarser)
    return dict(reversed(lattices.items()))


class _Lattice:
    """Boundary sums of one lattice width of :func:`estimate_g`, for its
    lags ``lags`` (ascending, all positive), over cells that come in order.

    With ``c[j]`` photons in cell ``j``, the difference of the sums of two
    lags ``ka < kb`` is the sum over cells of ``c[j]`` times the photons
    ``ka`` to ``kb - 1`` cells before it: the pairs whose cells lie that
    many steps apart. The cells come in pieces of any length and are
    worked in blocks of ``_BLOCK`` to ``2 * _BLOCK`` cells, each with the
    ``lags[-1] - 1`` cells before it and its own running sum, so every
    partial sum is an integer-valued float64 no larger than the photons of
    the block times those of the block and the cells before it; below
    2**53 the sums are exact in any order and any blocking. So a lattice
    holds no more than a block and the reach of its longest lag.

    The finest lattice takes the photons (:meth:`add_times`). Each block
    passes the runs of cells it ends on to the ``coarser`` lattice, as
    their photon counts: a cell of the coarser width is a run of whole
    cells of this one, counted from cell 0, and :meth:`close` passes the
    last run on although it is short. So a photon's cell on a coarse width
    is its finest cell divided by the ratio of the widths, which differs
    from its time divided by the width only where that time lies, as a
    double, on a coarse cell's edge.
    """

    def __init__(self, width: float, lags: list[int], coarser: _Lattice | None) -> None:
        self.width, self.lags, self.coarser = width, lags, coarser
        self.ratio = round(coarser.width / width) if coarser is not None else 0
        self.sums = np.zeros(len(lags))
        # The cells before the next block, as many as the longest lag
        # reaches back over, and the pieces of that block.
        self.before = np.zeros(lags[-1] - 1)
        self.queue: list[np.ndarray] = []
        self.queued = 0
        # Cells worked so far, and the photons of the coarser width's
        # unfinished run among them.
        self.cells, self.run = 0, 0.0
        # Of the photons: the first cell not yet queued, which later
        # photons may still join, and its photons so far.
        self.cell, self.open = 0, 0

    def add_times(self, times: np.ndarray) -> None:
        """Take the next photons, sorted: queue the cells below the last
        one's, in pieces of at most ``_BLOCK`` cells, so a gap in the
        record grows no temporary."""
        index = (times * (1.0 / self.width)).astype(np.int64)
        end, at = int(index[-1]), 0
        while self.cell < end:
            stop = min(self.cell + _BLOCK, end)
            cut = int(np.searchsorted(index, stop))
            cells = np.bincount(index[at:cut] - self.cell, minlength=stop - self.cell).astype(np.float64)
            cells[0] += self.open
            self.add(cells)
            self.cell, self.open, at = stop, 0, cut
        self.open += index.size - at

    def add(self, cells: np.ndarray) -> None:
        """Take the next cells, as photon counts, at most ``_BLOCK``."""
        self.queue.append(cells)
        self.queued += cells.size
        if self.queued >= _BLOCK:
            self._work()

    def close(self) -> None:
        """Work what is still held; the record has no further cell."""
        if self.open:
            self.add(np.array([float(self.open)]))
        self._work()
        if self.coarser is not None:
            if self.cells % self.ratio:
                self.coarser.add(np.array([self.run]))
            self.coarser.close()

    def _work(self) -> None:
        if not self.queued:
            return
        reach = self.before.size
        held = np.concatenate([self.before, *self.queue])
        cells = held[reach:]
        self.queue, self.queued = [], 0
        # running[x] = photons in the first x held cells, the cells before
        # the block and then the block, so cell q of the block has the
        # photons at least k cells before it in running[reach + q + 1 - k].
        running = np.zeros(held.size + 1)
        np.cumsum(held, out=running[1:])
        for slot, k in enumerate(self.lags):
            self.sums[slot] -= np.dot(cells, running[reach + 1 - k : reach + 1 - k + cells.size])
        if self.coarser is not None:
            # Runs end where the count of cells is a multiple of the ratio:
            # first the unfinished run, whose photons so far lie below
            # running[reach], then every ratio-th cell.
            first = -self.cells % self.ratio
            ends = running[reach + first :: self.ratio]
            if first:
                ends = np.concatenate([[running[reach] - self.run], ends])
            if ends.size > 1:
                self.coarser.add(np.diff(ends))
            self.run = running[-1] - ends[-1]
        self.cells += cells.size
        self.before = held[cells.size :].copy()


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
    # Imported here: ``import blinkcorr`` does not load the thread pool.
    from concurrent.futures import ThreadPoolExecutor

    blocks = iter(blocks)
    group = list(itertools.islice(blocks, _cores()))
    workers = len(group)
    # A pool starts no thread before a block is submitted to it, so a
    # single block, or a single core, runs on the calling thread alone.
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        while group:
            pending = [pool.submit(work, block) for block in group[1:]]
            first = work(group[0])
            del group
            take(first)
            del first
            while pending:
                take(pending.pop(0).result())
            group = list(itertools.islice(blocks, workers))


def _run_jobs(jobs: Iterable[tuple[Callable[[Any], object], Callable[[], Any]]]) -> None:
    """Run ``jobs`` through :func:`_in_order`: each job is the handler of
    its result, run on the calling thread in job order, and the task that
    makes that result."""
    _in_order(lambda job: (job[0], job[1]()), jobs, lambda done: done[0](done[1]))


def write_trajectory(trajectory: Trajectory, path: str) -> None:
    """Write arrival times as text, one per line, after a short header.

    Each time is written as ``'%.16e'`` gives it, so it reads back bit for
    bit, and every time in [1e-99, 1e100) or +0.0 takes a line of 23 bytes.
    The times are formatted in blocks on one thread per core the process
    may run on, and the texts go to the file in block order; at most one
    block per core is in flight, so the text is never held whole in memory.
    ``blinkcorr simulate`` writes its record through the same writer
    (:func:`_write_times`) as the blocks come from the photon sampler, and
    holds no array of all times.
    """
    _write_times(path, trajectory.duration, trajectory.seed, [trajectory.times])


def _write_times(
    path: str, duration: float, seed: int | None, ready: list[np.ndarray], jobs: Iterable[Any] = ()
) -> None:
    """Write the trajectory file of the blocks of sorted times in
    ``ready``, in order: those in it at the start and those the handlers
    of ``jobs`` (:func:`_run_jobs`) append to it. The blocks are formatted
    in pieces of ``_WRITE_BLOCK`` times by pool jobs among ``jobs``, and
    each is written, and dropped from ``ready``, on the calling thread."""
    header = f"# duration = {format_float(duration)}\n"
    if seed is not None:
        header += f"# seed = {seed}\n"
    with _atomic_open(path) as handle:

        def formats() -> Iterator[tuple[Callable[[bytes], object], Callable[[], bytes]]]:
            while ready:
                block = ready.pop(0)
                for start in range(0, block.size, _WRITE_BLOCK):
                    yield handle.write, lambda piece=block[start : start + _WRITE_BLOCK]: _format_times(piece)

        def all_jobs() -> Iterator[tuple[Callable[[Any], object], Callable[[], Any]]]:
            for job in jobs:
                yield job
                yield from formats()
            yield from formats()

        handle.write(header.encode())
        _run_jobs(all_jobs())
        # The blocks of the takes of the last group.
        for write, text in formats():
            write(text())


def _simulate_record(
    periods: np.ndarray, params: PhotoPhysicalParams, seed: int, path: str, keep: bool
) -> tuple[_Photons, Iterator[np.ndarray]]:
    """Write :func:`simulate_photons` of ``periods``, ``params`` and
    ``seed`` to ``path`` as :func:`write_trajectory` would, byte for byte,
    each block as it comes from the sampler: the waits' chunks and the
    blocks' texts are jobs of one :func:`_in_order`. Returns the photons,
    whose ``count`` and ``duration`` are the record's, and, with ``keep``,
    the record's times as blocks in order, each dropped once it is drawn;
    without, each block is dropped once written."""
    photons = _Photons(periods, params, seed)
    ready: list[np.ndarray] = []
    kept: list[np.ndarray] = []

    def emit(block: np.ndarray) -> None:
        ready.append(block)
        if keep:
            kept.append(block)

    _write_times(path, photons.duration, seed, ready, photons.jobs(emit))
    return photons, (kept.pop(0) for _ in range(len(kept)))


def read_trajectory(path: str) -> Trajectory:
    """Read a trajectory written by :func:`write_trajectory`.

    Blank lines are skipped, and ``# key = value`` lines may stand
    anywhere; of them only ``duration``, which is required, and ``seed``
    are read. A line that is not a finite number, or that holds a ``_``,
    raises :class:`ValueError` naming ``path:lineno``, and times, a
    duration or a seed that :class:`Trajectory` refuses raise it naming
    ``path``.

    A file whose times are whole 23-byte rows as ``'%.16e\\n'`` writes them
    fills one array sized from the file's size with the blocks of
    :class:`_RecordFile`, parsed on one thread per core the process may run
    on and checked in file order; its first fault is raised where it is
    found. Any other file, such as a ``'%.17g'`` record or one with a ``#``
    or blank line among its times, is read one line at a time with
    ``float()`` (:func:`_read_record`). So every time has the bits
    ``float()`` gives it.
    """

    def fill(record: _RecordFile) -> Trajectory:
        times, filled = np.empty(record.rows), 0

        def take(block: np.ndarray) -> None:
            nonlocal filled
            times[filled : filled + block.size] = record.check(block)
            filled += block.size

        _in_order(record.parse, record.texts(), take)
        return _trajectory(path, times, record.header)

    return _read_record(path, fill, lambda trajectory: trajectory)


def _estimate_record(path: str, edges: np.ndarray) -> tuple[CorrelationSeries, float, int, int | None]:
    """:func:`estimate_g` of the trajectory file at ``path`` on ``edges``,
    with the delay where the exact stage stops, the file's photon count and
    the seed. A file of rows is streamed: the blocks of its
    :class:`_RecordFile` go to the correlator, and no array of all times is
    made; the photon count comes from the file's size. Any other file is
    read by the line rule, then correlated (:func:`_read_record`). What the
    reader refuses is raised where it is found, and what the correlator
    refuses of a file of rows after its rows are checked.
    """

    def stream(record: _RecordFile) -> tuple[CorrelationSeries, float, int, int | None]:
        series, limit = _correlate(record.rows, record.duration, edges, record.texts(), record.parse, record.check)
        return series, limit, record.rows, record.seed

    def whole(trajectory: Trajectory) -> tuple[CorrelationSeries, float, int, int | None]:
        series, limit = _correlate(len(trajectory), trajectory.duration, edges, _blocks(trajectory.times))
        return series, limit, len(trajectory), trajectory.seed

    return _read_record(path, stream, whole)


class _LineRoute(Exception):
    """A row of a trajectory file that ``'%.16e\\n'`` does not write and
    the line rule does not refuse, or that is not one line: the file is
    read line by line."""


def _read_record(path: str, stream: Callable[[_RecordFile], Any], whole: Callable[[Trajectory], Any]) -> Any:
    """``stream`` of the trajectory file at ``path`` open as a
    :class:`_RecordFile`, if its times are whole ``'%.16e'`` rows, else
    ``whole`` of the trajectory that :func:`_parse_lines` reads from it.

    The file's layout chooses the route here and nowhere else. A file that
    is not whole 23-byte rows after its leading ``#`` lines goes to the
    line route at once; a file whose rows hold one that ``'%.16e'`` does
    not write goes there at the first such row, and what was streamed
    until then is dropped.
    """
    with open(path, "rb") as handle:
        record = _RecordFile(handle, path)
        if record.rows is not None:
            try:
                return stream(record)
            except _LineRoute:
                pass
        handle.seek(record.start)
        times = np.fromiter(_parse_lines(handle, record.leading, path, record.header), float)
    return whole(_trajectory(path, times, record.header))


def _trajectory(path: str, times: np.ndarray, header: dict[str, float | int]) -> Trajectory:
    """The trajectory of ``times`` and of ``header``, read from the file at
    ``path``; a refusal names ``path``."""
    if "duration" not in header:
        raise ValueError(f"{path}: missing '# duration = ...' header")
    try:
        return Trajectory(times=times, duration=header["duration"], seed=header.get("seed"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


class _RecordFile:
    """The one source of blocks of times of the trajectory file open as
    ``handle``, in file order.

    The leading ``#`` lines are read once, into ``header``. If the rest of
    the file is whole 23-byte rows, ``rows`` is their number, and the
    header's duration and seed are checked at once, as :class:`Trajectory`
    checks them; else ``rows`` is None and the file is left to the line
    route of :func:`_read_record`. The rows go out as texts of
    ``_WRITE_BLOCK`` rows (:meth:`texts`), read as they are drawn, which
    :meth:`parse` turns into times on any thread and :meth:`check` checks
    on the calling thread, in file order. So every refusal is raised where
    it is found, with the message of :func:`read_trajectory`.
    """

    def __init__(self, handle: BinaryIO, path: str) -> None:
        self.handle, self.path, self.header = handle, path, {}
        leading = []
        while (line := handle.readline()).startswith(b"#"):
            leading.append(line)
        list(_parse_lines(leading, 0, path, self.header))
        self.leading, self.start = len(leading), handle.tell() - len(line)
        rows, extra = divmod(os.fstat(handle.fileno()).st_size - self.start, _ROW.itemsize)
        self.rows = rows if len(line) == _ROW.itemsize and not extra else None
        handle.seek(self.start)
        if self.rows is not None:
            record = _trajectory(path, np.empty(0), self.header)
            self.duration, self.seed, self.last = record.duration, record.seed, -math.inf

    def texts(self) -> Iterator[tuple[int, bytes]]:
        """The rows in texts of ``_WRITE_BLOCK``, each with the index of its
        first row."""
        for first in range(0, self.rows, _WRITE_BLOCK):
            yield first, self.handle.read(_WRITE_BLOCK * _ROW.itemsize)

    def parse(self, text: tuple[int, bytes]) -> np.ndarray:
        """The times of a text of :meth:`texts`. An integer kernel
        (:func:`_parse_times`) reads each row and proves its time equal to
        what ``float()`` reads; a row it leaves unproven, such as zero, is
        read with ``float()`` if ``'%.16e'`` writes it. Any other row that is
        one line goes to the line rule, which raises on a bad one, naming its
        line; past such a row, or one that is not one line, the file is not
        rows, and :class:`_LineRoute` is raised."""
        first, rows = text
        values, proven = _parse_times(rows)
        for i in np.flatnonzero(~proven).tolist():
            row = rows[i * _ROW.itemsize : (i + 1) * _ROW.itemsize]
            if not _ROW_TEXT.fullmatch(row):
                if row.find(b"\n") == _ROW.itemsize - 1:
                    list(_parse_lines([row], self.leading + first + i, self.path, {}))
                raise _LineRoute
            values[i] = float(row)
        return values

    def check(self, times: np.ndarray) -> np.ndarray:
        """``times``, the next block of the record, unless
        :class:`Trajectory` would refuse them in the record, which raises
        its :class:`ValueError` naming the file."""
        _check_times(times, self.duration, self.last, f"{self.path}: ")
        self.last = float(times[-1])
        return times


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
