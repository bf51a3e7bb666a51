import math
import os
import tempfile
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blinkcorr import fileio, simulate
from blinkcorr import (
    PhotoPhysicalParams,
    Trajectory,
    estimate_g,
    g_total,
    light_fraction,
    log_grid,
    period_statistics,
    read_trajectory,
    simulate_periods,
    simulate_photons,
    statistics_from_params,
    write_trajectory,
)
from blinkcorr.errors import DegenerateInputError, InsufficientDataError
from blinkcorr.simulate import _EmissionSampler


def poisson_trajectory(rate, duration, seed):
    rng = np.random.Generator(np.random.Philox(key=[seed, 99]))
    n = rng.poisson(rate * duration)
    times = np.sort(rng.uniform(0.0, duration, n))
    return Trajectory(times=times, duration=duration)


def test_trajectory_validation():
    Trajectory(times=np.array([0.1, 0.2]), duration=1.0)
    Trajectory(times=np.empty(0), duration=1.0)
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.2, 0.1]), duration=1.0)
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.1, 1.2]), duration=1.0)
    with pytest.raises(ValueError):
        Trajectory(times=np.array([-0.1, 0.2]), duration=1.0)
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.1]), duration=0.0)
    # A time that is not finite is named as such first, even out of order.
    for times in ([0.1, np.nan], [np.nan, 0.1], [0.5, np.nan, 0.2], [0.1, np.inf], [-np.inf, 0.1], [0.9, -np.inf]):
        with pytest.raises(ValueError, match="arrival times must be finite"):
            Trajectory(times=np.array(times), duration=1.0)
    # A seed is None or one simulate takes: an integer, not a bool, in
    # [0, 2**63); so every seed a Trajectory holds is written and read back.
    assert Trajectory(times=np.empty(0), duration=1.0, seed=np.int64(7)).seed == 7
    for seed, refusal in (
        (-3, "must lie in"), (2**63, "must lie in"), (10**30, "must lie in"),
        (True, "must be an integer"), (1.5, "must be an integer"), ("7", "must be an integer"),
    ):
        with pytest.raises(ValueError, match=f"seed {refusal}"):
            Trajectory(times=np.array([0.1, 0.2]), duration=1.0, seed=seed)


def test_periods_deterministic(reference_stats):
    a = simulate_periods(reference_stats, 5.0, seed=7)
    b = simulate_periods(reference_stats, 5.0, seed=7)
    assert np.array_equal(a, b)
    c = simulate_periods(reference_stats, 5.0, seed=8)
    assert a.shape != c.shape or not np.array_equal(a, c)


def test_periods_record_is_contiguous(reference_stats):
    rec = simulate_periods(reference_stats, 5.0, seed=7)
    assert rec[0, 1] == 0.0
    assert rec[-1, 2] == 5.0
    assert np.max(np.abs(rec[1:, 1] - rec[:-1, 2])) == 0.0
    states = rec[:, 0]
    # Light alternates with some dark type, dark always returns to light.
    for prev, cur in zip(states[:-1], states[1:]):
        if prev == 0.0:
            assert cur in (1.0, 2.0)
        else:
            assert cur == 0.0


def test_period_dwell_statistics(reference_stats):
    rec = simulate_periods(reference_stats, 120.0, seed=123)
    interior = rec[1:-1]
    light = interior[interior[:, 0] == 0.0]
    dwells = light[:, 2] - light[:, 1]
    n = dwells.size
    assert n > 1000
    mean_expected = reference_stats.T_L
    # Exponential dwell: standard error of the mean is mean / sqrt(n).
    z = (dwells.mean() - mean_expected) / (mean_expected / math.sqrt(n))
    assert abs(z) < 3.5

    dark1 = int(np.sum(interior[:, 0] == 1.0))
    dark2 = int(np.sum(interior[:, 0] == 2.0))
    p1_expected = reference_stats.p_LD[0] / sum(reference_stats.p_LD)
    total = dark1 + dark2
    z_branch = (dark1 - total * p1_expected) / math.sqrt(
        total * p1_expected * (1.0 - p1_expected)
    )
    assert abs(z_branch) < 3.5


def test_light_fraction_converges(reference_stats):
    rec = simulate_periods(reference_stats, 120.0, seed=321)
    frac = light_fraction(rec)
    assert frac == pytest.approx(reference_stats.P_L, abs=0.01)
    with pytest.raises(ValueError):
        light_fraction(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        light_fraction(np.zeros((3, 2)))


def test_non_blinking_record_is_one_period():
    st = period_statistics((0.0, 0.0), (430.0, 2400.0))
    rec = simulate_periods(st, 3.0, seed=5)
    assert rec.shape == (1, 3)
    assert rec[0, 0] == 0.0
    assert light_fraction(rec) == 1.0


def test_emission_sampler_mean_wait():
    a, w = 3.3e8, 2.9e8
    sampler = _EmissionSampler(a, w)
    assert sampler.mean_wait == pytest.approx(
        (a * a + 2.0 * w * w) / (a * w * w), rel=1e-12
    )
    rng = np.random.Generator(np.random.Philox(key=[42, 0]))
    draws = sampler.waits(rng.random(200_000))
    z = (draws.mean() - sampler.mean_wait) / (draws.std() / math.sqrt(draws.size))
    assert abs(z) < 4.0
    assert np.all(draws >= 0.0)


def test_emission_sampler_antibunching():
    # Waiting times shorter than a tenth of the decay time are rare
    # compared with a Poisson process of the same mean rate.
    sampler = _EmissionSampler(3.3e8, 2.9e8)
    rng = np.random.Generator(np.random.Philox(key=[43, 0]))
    draws = sampler.waits(rng.random(100_000))
    cut = 0.1 / 3.3e8
    frac_short = np.mean(draws < cut)
    poisson_frac = 1.0 - math.exp(-cut / sampler.mean_wait)
    assert frac_short < 0.2 * poisson_frac


# The benchmark emitter, overdamped, strongly underdamped and critical
# (the polynomial branch).
@pytest.mark.parametrize("a, w", [(3.3e5, 2.9e5), (1e6, 1e5), (1e5, 1e7), (2.0, 1.0)])
def test_emission_sampler_waits_within_one_grid_step_of_table(a, w):
    sampler = _EmissionSampler(a, w)
    edge = 2.0**-16
    u = np.concatenate(
        [
            [0.0, 5e-324, np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)],
            [0.5, 1.0 - 2.0**-53],
            np.random.Generator(np.random.Philox(key=[44, 0])).random(200_000),
        ]
    )
    gap = np.abs(sampler.waits(u) - sampler.table_waits(u))
    assert gap.max() <= sampler.grid_step


def test_emission_sampler_rarely_falls_back_to_table(monkeypatch):
    # Only the flagged cells (the tail and the knees of the curve) may
    # interpolate in the dense table; a lookup fault that flagged every
    # cell would keep the waits and lose the speed.
    sampler = _EmissionSampler(3.3e5, 2.9e5)
    served = []
    table_waits = sampler.table_waits

    def counted(u):
        served.append(u.size)
        return table_waits(u)

    monkeypatch.setattr(sampler, "table_waits", counted)
    rng = np.random.Generator(np.random.Philox(key=[45, 0]))
    sampler.waits(rng.random(1 << 20))
    assert sum(served) < 0.01 * (1 << 20)


def record_molecule_draws(monkeypatch):
    """The chunks of uniforms simulate_photons draws from its molecule
    stream, in draw order; the waits are these uniforms' waits."""
    drawn = []
    stream_rng = simulate._stream_rng

    class Recorded:
        def __init__(self, rng):
            self.rng = rng

        def random(self, n):
            drawn.append(self.rng.random(n))
            return drawn[-1]

    def recorded(seed, stream):
        rng = stream_rng(seed, stream)
        return Recorded(rng) if stream == simulate._STREAM_MOLECULE else rng

    monkeypatch.setattr(simulate, "_stream_rng", recorded)
    return drawn


def slowed_params(I_sc=0.0):
    return PhotoPhysicalParams(
        A31=3.3e5, Omega31=2.9e5, A32=(34.0, 249.0), A21=(430.0, 2400.0), I_sc=I_sc
    )


@pytest.mark.parametrize("switching", [1.0, 100.0])
def test_photons_across_chunk_boundaries(reference_stats, monkeypatch, switching):
    # Chunks of 7 waits: periods end inside a chunk, several share one
    # (about ten photons per light period when switching 100 times
    # faster), and long ones run over many. The reference takes the same
    # waits one period at a time.
    p = slowed_params()
    stats = period_statistics(
        tuple(switching * r for r in reference_stats.p_LD),
        tuple(switching * r for r in reference_stats.p_DL),
    )
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    drawn = record_molecule_draws(monkeypatch)
    rec = simulate_periods(stats, 0.2, seed=12)
    traj = simulate_photons(rec, p, seed=12)

    waits = iter(_EmissionSampler(p.A31, p.Omega31).waits(np.concatenate(drawn)).tolist())
    light = rec[(rec[:, 0] == 0.0) & (rec[:, 2] > rec[:, 1])]
    expected = []
    for start, end in light[:, 1:].tolist():
        elapsed = next(waits)
        while elapsed < end - start:
            expected.append(start + elapsed)
            elapsed += next(waits)
    assert len(traj) == len(expected) > 100
    assert np.max(np.abs(traj.times - expected)) < 1e-12
    assert np.all(np.diff(traj.times) >= 0.0)
    idx = np.searchsorted(light[:, 1], traj.times, side="right") - 1
    assert np.all(idx >= 0)
    assert np.all(traj.times < light[idx, 2])


def test_photons_draw_waits_by_the_chunk(reference_stats, monkeypatch):
    # One batch of waits per chunk, not one per light period. On more
    # cores than one, the chunks of the last group after the one that
    # ends the walk are drawn but never walked.
    drawn = record_molecule_draws(monkeypatch)
    rec = simulate_periods(reference_stats, 2.0, seed=13)
    traj = simulate_photons(rec, slowed_params(), seed=13)
    n_light = int(np.sum(rec[:, 0] == 0.0))
    unread = simulate._cores() - 1
    assert n_light > 100
    assert all(chunk.size == simulate._BLOCK for chunk in drawn)
    assert len(drawn) <= (len(traj) + n_light) // simulate._BLOCK + 1 + unread


@pytest.mark.parametrize("I_sc", [0.0, 2e4])
def test_photons_same_bytes_on_any_core_count(reference_stats, monkeypatch, I_sc):
    # Chunks of 7 waits, so the ~4,000 photons take hundreds of groups.
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    p = slowed_params(I_sc)
    rec = simulate_periods(reference_stats, 0.05, seed=14)
    outputs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        traj = simulate_photons(rec, p, seed=14)
        outputs.append((traj.times.tobytes(), traj.times.size, len(traj)))
    assert outputs[0][1] > 3000
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("I_sc", [0.0, 5e3])
def test_photons_outgrowing_the_expected_count(reference_stats, monkeypatch, I_sc):
    # A mean wait taken 1000 times too long sizes the array for a
    # thousandth of the photons, so it must grow, several times over.
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    p = slowed_params(I_sc)
    rec = simulate_periods(reference_stats, 0.05, seed=15)
    sized = simulate_photons(rec, p, seed=15)
    init = _EmissionSampler.__init__

    def too_long(self, A31, Omega31):
        init(self, A31, Omega31)
        self.mean_wait *= 1000.0

    monkeypatch.setattr(_EmissionSampler, "__init__", too_long)
    grown = simulate_photons(rec, p, seed=15)
    # The array starts at the expected count, four of its sigmas, one
    # chunk and the background photons (here within six sigmas of theirs).
    expected = light_fraction(rec) * 0.05 / (1000.0 * _EmissionSampler(p.A31, p.Omega31).mean_wait)
    n_bg = I_sc * 0.05 + 6.0 * math.sqrt(I_sc * 0.05)
    assert 4 * (expected + 4.0 * math.sqrt(expected) + 7 + n_bg) < len(sized)
    assert grown.times.tobytes() == sized.times.tobytes()
    assert len(grown) == len(sized)


@pytest.mark.parametrize("failing", [1, 2])
def test_photons_failing_chunk_leaves_no_thread(reference_stats, monkeypatch, failing):
    # On two cores the second chunk's waits are a worker's and the
    # third's the calling thread's; either error ends the run with no
    # thread left.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    in_order = simulate._in_order

    def failing_chunk(work, blocks, take):
        def fail(chunk):
            index, block = chunk
            if index == failing:
                raise OSError("chunk failed")
            return work(block)

        in_order(fail, enumerate(blocks), take)

    monkeypatch.setattr(simulate, "_in_order", failing_chunk)
    rec = simulate_periods(reference_stats, 0.01, seed=16)
    threads = threading.active_count()
    with pytest.raises(OSError, match="chunk failed"):
        simulate_photons(rec, slowed_params(), seed=16)
    assert threading.active_count() == threads


def test_photons_working_set(reference_stats, monkeypatch):
    # The times fill one array, so the allocation peak is those times,
    # the order test's one byte per time, the sampler's tables and the
    # chunks in flight (uniforms, waits and their temporaries, and a
    # running sum per core). A 40 s record (about 3.7M photons) keeps the
    # sampler's own set-up peak below that.
    cores = 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    p = slowed_params()
    rec = simulate_periods(reference_stats, 40.0, seed=17)
    sampler = _EmissionSampler(p.A31, p.Omega31)
    tables = sum(a.nbytes for a in vars(sampler).values() if isinstance(a, np.ndarray))
    chunks = 4 * cores * simulate._BLOCK * 8
    del sampler
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        traj = simulate_photons(rec, p, seed=17)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(traj) > 3_000_000
    assert peak <= 1.4 * traj.times.nbytes + tables + chunks


def test_photons_only_in_light_periods(reference_params, reference_stats):
    p = PhotoPhysicalParams(
        A31=3.3e5,
        Omega31=2.9e5,
        A32=reference_params.A32,
        A21=reference_params.A21,
        I_sc=0.0,
    )
    rec = simulate_periods(reference_stats, 2.0, seed=11)
    traj = simulate_photons(rec, p, seed=11)
    assert len(traj) > 1000
    light = rec[rec[:, 0] == 0.0]
    idx = np.searchsorted(light[:, 1], traj.times, side="right") - 1
    assert np.all(idx >= 0)
    assert np.all(traj.times <= light[idx, 2] + 1e-12)


def test_photons_deterministic(reference_stats):
    p = PhotoPhysicalParams(
        A31=3.3e5, Omega31=2.9e5, A32=(34.0, 249.0), A21=(430.0, 2400.0), I_sc=1e4
    )
    rec = simulate_periods(statistics_from_params(p), 2.0, seed=3)
    a = simulate_photons(rec, p, seed=3)
    b = simulate_photons(rec, p, seed=3)
    assert np.array_equal(a.times, b.times)
    c = simulate_photons(rec, p, seed=4)
    assert a.times.size != c.times.size or not np.array_equal(a.times, c.times)


def test_photon_rate_matches_intensity(reference_stats):
    from blinkcorr import light_intensity

    p = PhotoPhysicalParams(
        A31=3.3e5, Omega31=2.9e5, A32=(34.0, 249.0), A21=(430.0, 2400.0), I_sc=0.0
    )
    rec = simulate_periods(reference_stats, 20.0, seed=17)
    traj = simulate_photons(rec, p, seed=17)
    light_time = light_fraction(rec) * 20.0
    expected = light_intensity(p.A31, p.Omega31) * light_time
    z = (len(traj) - expected) / math.sqrt(expected)
    # Renewal counting is sub-Poissonian here, so 4 sigma is generous.
    assert abs(z) < 4.0


def test_estimate_g_flat_for_poisson():
    edges = log_grid(1e-5, 1e-1, 6)
    for rate, seed in ((2e4, 1), (2e5, 2)):
        traj = poisson_trajectory(rate, 20.0, seed)
        series = estimate_g(traj, edges)
        z = (series.g - 1.0) / series.sigma
        assert np.max(np.abs(z)) < 4.0
        assert np.mean(np.abs(z)) < 1.5


def test_estimate_g_sigma_shrinks_with_duration():
    edges = log_grid(1e-5, 1e-2, 5)
    short = estimate_g(poisson_trajectory(5e4, 4.0, 10), edges)
    long = estimate_g(poisson_trajectory(5e4, 16.0, 10), edges)
    ratio = np.median(short.sigma / long.sigma)
    assert 1.4 < ratio < 2.8


def test_estimate_g_recovers_blinking_curve(reference_stats):
    # Slowed copy of the reference system: optical rates scaled by 1e-3,
    # metastable rates by 1e-1, background off. The occupations are
    # unchanged, so the curve keeps its plateau at 1/P_L while both knees
    # move into a cheaply simulable window.
    p = PhotoPhysicalParams(
        A31=3.3e5, Omega31=2.9e5, A32=(3.4, 24.9), A21=(43.0, 240.0), I_sc=0.0
    )
    stats = statistics_from_params(p)
    assert stats.P_L == pytest.approx(reference_stats.P_L, rel=1e-12)

    rec = simulate_periods(stats, 60.0, seed=2024)
    traj = simulate_photons(rec, p, seed=2024)
    series, windows = estimate_g(
        traj, log_grid(3e-4, 3e-2, 10), with_windows=True
    )
    model = np.array(
        [
            np.mean(g_total(np.geomspace(a, b, 9), p))
            for a, b in windows
        ]
    )
    z = (series.g - model) / series.sigma
    assert np.mean(np.abs(z) < 3.0) >= 0.9
    assert np.max(np.abs(z)) < 5.0

    # The plateau region pins the inverse light fraction. The reported
    # sigma carries a normalization term common to all bins, so the
    # weighted mean cannot beat the per-bin error; bound by it.
    plateau = (series.tau > 5e-4) & (series.tau < 3e-3)
    assert plateau.sum() >= 5
    est = np.average(series.g[plateau], weights=series.sigma[plateau] ** -2)
    bound = 3.0 * float(np.median(series.sigma[plateau]))
    assert abs(est - 1.0 / stats.P_L) < bound


def test_estimate_g_validation():
    traj = poisson_trajectory(1e4, 2.0, 5)
    with pytest.raises(ValueError):
        estimate_g(traj, np.array([1e-3]))
    with pytest.raises(ValueError):
        estimate_g(traj, np.array([1e-3, 5e-4]))
    with pytest.raises(ValueError):
        estimate_g(traj, np.array([0.0, 1e-3]))
    with pytest.raises(InsufficientDataError):
        estimate_g(traj, np.array([0.5, 1.0, 2.0]))
    tiny = Trajectory(times=np.array([0.5]), duration=1.0)
    with pytest.raises(InsufficientDataError):
        estimate_g(tiny, log_grid(1e-3, 1e-1, 5))


def test_estimate_g_edge_below_the_smallest_lattice_width():
    # The lattice width of a 5e-324 s edge rounds to zero; it used to leak
    # "divide by zero" from pricing that lattice. The bin's centre is no
    # longer positive, so the record gives the typed error.
    assert simulate._lattice_width(5e-324) > 0.0
    traj = Trajectory(times=np.array([0.1, 0.2, 0.3]), duration=1.0)
    with pytest.raises(DegenerateInputError, match="out of float64 range"):
        estimate_g(traj, np.array([5e-324, 1e-3, 1e-2]))


def test_estimate_g_drops_long_bins():
    traj = poisson_trajectory(1e4, 2.0, 6)
    series = estimate_g(traj, log_grid(1e-4, 10.0, 4))
    assert series.tau[-1] <= 0.2


def all_exact(n, t_total, edges):
    return edges.size - 1


def all_lattice(n, t_total, edges):
    return 0


def test_estimate_g_merges_bins_finer_than_the_lattice(monkeypatch):
    # At 100 bins per decade the bins of [1e-2, 1e-1) are narrower than
    # that decade's lattice step of 5e-4 s; those holding no lattice step
    # used to share their window with the next bin and end in an opaque
    # "tau must be positive and strictly increasing".
    def exact_below_1_25_ms(n, t_total, edges):
        return int(np.searchsorted(edges, 1.25e-3, side="right")) - 1

    monkeypatch.setattr(simulate, "_exact_bins", exact_below_1_25_ms)
    traj = poisson_trajectory(2e4, 2.0, 12)
    edges = log_grid(1e-9, 1e-1, 100)
    series, windows = estimate_g(traj, edges, with_windows=True)
    assert series.tau.size < edges.size - 1
    assert np.all(windows[:, 1] > windows[:, 0])
    assert np.all(windows[1:, 0] >= windows[:-1, 1])
    steps = windows[series.tau > 1e-2] / 5e-4
    assert np.allclose(steps, np.round(steps), rtol=0.0, atol=1e-6)
    z = (series.g - 1.0) / series.sigma
    assert np.max(np.abs(z[series.tau > 1e-3])) < 5.0


def test_estimate_g_lags_past_the_last_photon(monkeypatch):
    # The emitter goes dark for good after 20 ms of a 1 s record, so most
    # lattice lags reach past its last photon; they count no pairs. Such
    # lags used to end in numpy's "shapes (40,) and (0,) not aligned".
    monkeypatch.setattr(simulate, "_exact_bins", all_lattice)
    traj = Trajectory(times=np.linspace(0.0, 0.02, 400), duration=1.0)
    series = estimate_g(traj, log_grid(1e-3, 1e-1, 10))
    assert series.tau.size == 20
    assert np.all(series.g[series.tau > 0.03] == 0.0)
    assert np.all(series.g[series.tau < 0.01] > 0.0)


def test_estimate_g_split_follows_the_rate_not_the_length(monkeypatch):
    # Per photon, the exact stage's work grows with the rate times its last
    # edge and a lattice's with its cells per photon, 1 / (rate * step), so
    # records of one rate split at one delay whatever their length. A fixed
    # pair budget split these two at 1.4e-2 and 1.4e-3 s.
    limits = []
    exact_counts = simulate._exact_counts

    def recorded(times, edges):
        limits.append(edges[-1])
        return exact_counts(times, edges)

    monkeypatch.setattr(simulate, "_exact_counts", recorded)
    edges = log_grid(1e-9, 1e-1, 20)
    for duration in (1.0, 10.0):
        series = estimate_g(poisson_trajectory(1e5, duration, 21), edges)
        assert series.tau[-1] > limits[-1]
    assert limits[0] == limits[1]


@pytest.mark.parametrize("bins_per_decade", [20, 100])
def test_estimate_g_lattice_cells_per_photon_are_bounded(bins_per_decade):
    # On a grid of 20 or more bins per decade the bins on the finest lattice
    # step w end below 200 w * 10**(1/20). A lattice of more than
    # sqrt(_PAIR_COST * 112.2) = 58 cells per photon would then cost more
    # than counting those bins exactly, at 30 cell visits per pair.
    grid = log_grid(1e-9, 1e-1, bins_per_decade)
    worst = 0.0
    for duration in (0.1, 1.0, 10.0, 100.0, 1e3, 1e4):
        edges = grid[grid <= 0.1 * duration]
        for rate in np.geomspace(1.0, 1e7, 57):
            n = int(rate * duration)
            if n < 2:
                continue
            m = simulate._exact_bins(n, duration, edges)
            if m < edges.size - 1:
                cells = duration / simulate._lattice_width(edges[m])
                worst = max(worst, cells / n)
    assert 0.0 < worst <= 58.0


_DYADIC = 2.0**-20


@st.composite
def photon_records(draw):
    """Sorted times in [0, 1 s] with repeated times, bursts and times on
    a dyadic grid, whose differences hit power-of-two edges exactly."""
    base = draw(
        st.lists(
            st.one_of(
                st.floats(0.0, 1.0),
                st.integers(0, 2**20).map(lambda k: k * _DYADIC),
            ),
            min_size=2,
            max_size=80,
        )
    )
    bursts = draw(
        st.lists(
            st.tuples(
                st.sampled_from(base),
                st.integers(1, 8),
                st.sampled_from([0.0, _DYADIC, 2.0**-14, 7e-6]),
            ),
            max_size=5,
        )
    )
    times = list(base)
    for start, count, step in bursts:
        times += [min(start + j * step, 1.0) for j in range(1, count + 1)]
    return Trajectory(times=np.sort(times), duration=1.0)


@st.composite
def delay_edges(draw, smallest):
    """Bin edges between ``smallest`` and 0.1 s: powers of two, a log
    grid, or arbitrary increasing values."""
    kind = draw(st.sampled_from(["dyadic", "log", "free"]))
    low = math.ceil(math.log2(smallest))
    if kind == "dyadic":
        a = draw(st.integers(low, -5))
        b = draw(st.integers(a + 1, -4))
        return 2.0 ** np.arange(a, b + 1)
    if kind == "log":
        lo = draw(st.floats(smallest, 1e-2))
        hi = draw(st.floats(lo * 1.01, 0.1))
        return log_grid(lo, hi, draw(st.integers(1, 120)))
    values = draw(st.lists(st.floats(smallest, 0.1), min_size=2, max_size=30, unique=True))
    return np.array(sorted(values))


def brute_force_pairs(times, edges):
    """Pair counts per bin by the exact stage's rule, over all n^2 pairs."""
    d = times[None, :] - times[:, None]
    which = np.searchsorted(edges, d[(edges[0] <= d) & (d < edges[-1])], side="right") - 1
    return np.bincount(which, minlength=edges.size - 1)


def lattice_reference(times, duration, edges):
    """Quantized windows and pair counts by one np.dot per lattice lag."""
    bins = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        width = 10.0 ** math.floor(math.log10(lo)) / 20.0
        bins.append((width, math.ceil(lo / width - 1e-9), math.ceil(hi / width - 1e-9)))
    windows, counts, norms = [], [], []
    for i, (width, ka, kb) in enumerate(bins):
        if kb <= ka:
            if i + 1 < len(bins):
                continue
            kb = ka + 1
        vec = np.bincount((times * (1.0 / width)).astype(np.int64)).astype(float)
        counts.append(sum(float(np.dot(vec[: max(vec.size - k, 0)], vec[k:])) for k in range(ka, kb)))
        norms.append(sum(width * (duration - k * width) for k in range(ka, kb)))
        windows.append((ka * width, kb * width))
    return np.array(windows), np.array(counts), np.array(norms)


# With blocks of 7 sources a record spans many blocks, so the last block's
# partner cut-off and the shrinking of a block's active set are covered.
@pytest.mark.parametrize("block", [simulate._BLOCK, 7])
@given(traj=photon_records(), edges=delay_edges(smallest=1e-9))
# t_j - t_i rounds below the last edge, although t_i + edges[-1] rounds
# to t_j: the pair counts in the last bin, by its delay.
@example(
    traj=Trajectory(times=np.array([0.3 * 2.0**-56, 2.0**-4]), duration=1.0),
    edges=2.0 ** np.arange(-6, -3),
)
# A delay equal to an edge between two others falls into the bin above.
@example(
    traj=Trajectory(times=np.array([0.0, log_grid(1e-3, 1e-2, 5)[2]]), duration=1.0),
    edges=log_grid(1e-3, 1e-2, 5),
)
# 300 bins need two bytes per code; delays from 1e-4 to 0.1 s fill most.
@example(
    traj=Trajectory(times=np.cumsum(np.geomspace(1e-4, 2e-3, 90)), duration=1.0),
    edges=log_grid(1e-4, 1e-1, 100),
)
def test_estimate_g_exact_stage_counts_every_pair(block, traj, edges):
    # Whatever the number of cores that count the blocks.
    times, t_total = traj.times, traj.duration
    rate = times.size / t_total
    a, b = edges[:-1], edges[1:]
    expected = brute_force_pairs(times, edges) / (rate * rate * (b - a) * (t_total - 0.5 * (a + b)))
    for cores in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
            mp.setattr(simulate, "_exact_bins", all_exact)
            mp.setattr(simulate, "_BLOCK", block)
            series, windows = estimate_g(traj, edges, with_windows=True)
        assert np.array_equal(windows, np.column_stack([a, b]))
        np.testing.assert_allclose(series.g, expected, rtol=1e-12, atol=0.0)


def test_estimate_g_same_bytes_on_any_core_count(monkeypatch):
    # Blocks of 7 sources, so the exact stage's ~1,000 photons span many
    # blocks and groups; the lattice stage runs too.
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    traj = poisson_trajectory(1e5, 0.01, 5)
    edges = log_grid(1e-9, 1e-1, 20)
    outputs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        series = estimate_g(traj, edges)
        limit = simulate._exact_limit(traj, edges)
        outputs.append((series.tau.tobytes(), series.g.tobytes(), series.sigma.tobytes(), limit))
    assert edges[0] < outputs[0][3] < 1e-3
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("failing", [1, 2])
def test_exact_counts_failing_block_leaves_no_thread(monkeypatch, failing):
    # On two cores the second block is a worker's and the third the
    # calling thread's; either error ends the count with no thread left.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    in_order = simulate._in_order

    def failing_block(work, blocks, take):
        def fail(start):
            if start == 7 * failing:
                raise OSError("block failed")
            return work(start)

        in_order(fail, blocks, take)

    monkeypatch.setattr(simulate, "_in_order", failing_block)
    times = np.linspace(0.0, 1.0, 50)
    threads = threading.active_count()
    with pytest.raises(OSError, match="block failed"):
        simulate._exact_counts(times, log_grid(1e-3, 1e-1, 5))
    assert threading.active_count() == threads


def test_exact_counts_working_set():
    # The exact stage counts one block per core at once, so its allocation
    # peak per block source bounds the stage's resident memory. One block
    # of Poisson times at the benchmark record's rate, over its 100 bins.
    rng = np.random.Generator(np.random.Philox(key=[8, 3]))
    times = np.sort(rng.uniform(0.0, simulate._BLOCK / 9.3e4, simulate._BLOCK))
    edges = log_grid(1e-9, 1e-4, 20)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        simulate._exact_counts(times, edges)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 80 * simulate._BLOCK


@given(traj=photon_records(), edges=delay_edges(smallest=2.0**-12))
def test_estimate_g_lattice_stage_matches_per_lag_dots(traj, edges):
    times, t_total = traj.times, traj.duration
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_exact_bins", all_lattice)
        series, windows = estimate_g(traj, edges, with_windows=True)
    rate = times.size / t_total
    want_windows, counts, norms = lattice_reference(times, t_total, edges)
    assert np.array_equal(windows, want_windows)
    np.testing.assert_allclose(series.g, counts / (rate * rate * norms), rtol=1e-12, atol=0.0)


def test_estimate_g_lattice_counts_outgrow_one_byte(monkeypatch):
    # 300 photons share one lattice cell, more than a one-byte count
    # holds, and blocks of 7 times split that cell over many blocks.
    monkeypatch.setattr(simulate, "_exact_bins", all_lattice)
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    times = np.sort(np.concatenate([np.full(300, 0.25), np.linspace(0.0, 1.0, 50)]))
    edges = log_grid(1e-3, 1e-1, 5)
    series, windows = estimate_g(Trajectory(times=times, duration=1.0), edges, with_windows=True)
    rate = times.size / 1.0
    want_windows, counts, norms = lattice_reference(times, 1.0, edges)
    assert np.array_equal(windows, want_windows)
    np.testing.assert_allclose(series.g, counts / (rate * rate * norms), rtol=1e-12, atol=0.0)


def test_trajectory_file_round_trip(tmp_path, reference_stats):
    p = PhotoPhysicalParams(
        A31=3.3e5, Omega31=2.9e5, A32=(34.0, 249.0), A21=(430.0, 2400.0), I_sc=1e4
    )
    rec = simulate_periods(reference_stats, 1.0, seed=9)
    traj = simulate_photons(rec, p, seed=9)
    path = str(tmp_path / "traj.txt")
    write_trajectory(traj, path)
    again = read_trajectory(path)
    assert np.array_equal(again.times, traj.times)
    assert again.duration == traj.duration
    assert again.seed == traj.seed


@given(
    times=st.lists(st.floats(0.0, 50.0), max_size=300).map(sorted),
    seed=st.none() | st.integers(0, 2**63 - 1),
)
def test_trajectory_file_round_trip_is_bit_exact(times, seed):
    traj = Trajectory(times=np.array(times), duration=50.0, seed=seed)
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_WRITE_BLOCK", 7)
        path = os.path.join(directory, "traj.txt")
        write_trajectory(traj, path)
        again = read_trajectory(path)
    assert np.array_equal(again.times.view(np.int64), traj.times.view(np.int64))
    assert (again.duration, again.seed) == (traj.duration, traj.seed)


_LARGEST = float(np.finfo(float).max)
_PINNED_TIMES = sorted(
    # 9.9999999999999995e-05 is the double below 1e-4 and prints as
    # 9.9999999999999991e-05; no double next to 1e-4 carries.
    [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 9.9999999999999995e-05, 0.5, 100.0, 1e-4]
    # Exact ties at the 18th digit, kept by an even 17th and raised from an odd one.
    + [1.0 + 2.0**-17, 1.0 + 3 * 2.0**-17]
    # The largest double below 1e-14 prints as 1e-14: its 17 digits carry.
    + [np.nextafter(1e-14, 0.0)]
    + [float(2**53), _LARGEST]
    # Where the exponent takes a third digit.
    + [v for p in (1e-99, 1e100) for v in (np.nextafter(p, 0.0), p)]
    + [v for e in range(-12, 18) for p in [10.0**e] for v in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))]
)


def _in_kernel_domain(x):
    return (x > 1e-11) & (x < 1e15)


@pytest.mark.parametrize("cores", [1, 2, 3])
@given(times=st.lists(st.floats(min_value=0.0, max_value=_LARGEST), max_size=100).map(sorted))
@example(times=_PINNED_TIMES)
def test_trajectory_file_is_percent_16e_text(cores, times):
    # Byte for byte what '%.16e' gives, not only text that reads back:
    # zero, subnormals, powers of ten and their neighbours, a carry, exact
    # ties, three-digit exponents, and the values left to the per-value
    # route; whatever the number of cores that format the blocks. The
    # header keeps '%.17g'.
    traj = Trajectory(times=np.array(times), duration=_LARGEST)
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        mp.setattr(simulate, "_WRITE_BLOCK", 7)
        path = os.path.join(directory, "traj.txt")
        write_trajectory(traj, path)
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
    assert lines[0] == b"# duration = %.17g" % _LARGEST
    assert lines[1:] == [b"%.16e" % t for t in times] + [b""]


def test_write_trajectory_never_formats_ordinary_times_one_by_one(tmp_path, monkeypatch):
    # A kernel fault that sent every block to the per-value route would
    # keep the bytes and lose the speed; ordinary times must not get there.
    def refuse(values):
        raise AssertionError(f"per-value formatting of {values[:3]}")

    monkeypatch.setattr(fileio, "_format_each", refuse)
    rng = np.random.Generator(np.random.Philox(key=[8, 0]))
    times = np.sort(rng.uniform(0.0, 100.0, 1 << 16))
    # Nor do times across the kernel's domain, or the neighbours of the
    # powers of ten in it, where log10 can be one off.
    wide = np.sort(10.0 ** rng.uniform(-10.99, 14.99, 1 << 12))
    near = [t for t in _PINNED_TIMES if _in_kernel_domain(t)]
    for values in (times, wide, near):
        path = tmp_path / "traj.txt"
        write_trajectory(Trajectory(times=values, duration=1e15), str(path))
        body = path.read_bytes().split(b"\n", 1)[1]
        assert body == b"".join(b"%.16e\n" % t for t in np.asarray(values).tolist())


@pytest.mark.parametrize("failing", [1, 2])
def test_write_trajectory_failing_block_leaves_nothing_behind(tmp_path, monkeypatch, failing):
    # On two cores the second block is a worker's and the third the
    # calling thread's; either error ends the write with the old file in
    # place, no temporary file and no thread left running.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(simulate, "_WRITE_BLOCK", 7)
    times = np.linspace(0.0, 1.0, 50)
    format_times = simulate._format_times

    def fail(block):
        if block[0] == times[7 * failing]:
            raise OSError("block failed")
        return format_times(block)

    monkeypatch.setattr(simulate, "_format_times", fail)
    path = tmp_path / "traj.txt"
    path.write_bytes(b"old record\n")
    threads = threading.active_count()
    with pytest.raises(OSError, match="block failed"):
        write_trajectory(Trajectory(times=times, duration=1.0), str(path))
    assert path.read_bytes() == b"old record\n"
    assert list(tmp_path.glob(".tmp-*~")) == []
    assert threading.active_count() == threads


def test_format_times_working_set():
    # The writer formats one block per core at once, so the formatter's
    # allocation peak per time bounds the writer's resident memory.
    rng = np.random.Generator(np.random.Philox(key=[8, 1]))
    times = np.sort(rng.uniform(0.0, 100.0, 1 << 15))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fileio._format_times(times)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 200 * times.size


def parse_on_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def test_read_trajectory_across_blocks(tmp_path, monkeypatch):
    # Rows in blocks of three, zero and times outside the kernel's domain
    # among them, which float() reads without sending the file line by
    # line, and a hand-written file with comments and blank lines
    # anywhere, whatever the number of cores that parse them.
    monkeypatch.setattr(simulate, "_WRITE_BLOCK", 3)
    parse_lines, line_wise = simulate._parse_lines, []

    def recorded(lines, skipped, path, header):
        line_wise.append(skipped)
        return parse_lines(lines, skipped, path, header)

    monkeypatch.setattr(simulate, "_parse_lines", recorded)
    rows = [0.0, 1e-99, 5e-12, 1e-11] + [k / 7.0 for k in range(1, 40)] + [1e16, 9e99]
    written = tmp_path / "rows.txt"
    written.write_bytes(b"# duration = 1e100\n" + b"".join(b"%.16e\n" % t for t in rows))
    values = [k / 7.0 for k in range(40)]
    lines = ["# written by hand", "# duration = 6.5"] + [repr(v) for v in values]
    lines[10:10] = ["", "# seed = 17", "   "]
    by_hand = tmp_path / "traj.txt"
    by_hand.write_text("\n".join(lines))
    for cores in (1, 2, 3):
        parse_on_cores(monkeypatch, cores)
        line_wise.clear()
        traj = read_trajectory(str(written))
        assert np.array_equal(traj.times.view(np.int64), np.array(rows).view(np.int64))
        assert line_wise == [0]
        traj = read_trajectory(str(by_hand))
        assert np.array_equal(traj.times, values)
        assert (traj.duration, traj.seed) == (6.5, 17)


def test_read_trajectory_reads_percent_17g_records(tmp_path, monkeypatch):
    # Records written as '%.17g' text, before the fixed-width rows, read
    # back bit for bit, with comments and blank lines among their times,
    # whatever the number of cores; a bad line among them is named.
    monkeypatch.setattr(simulate, "_WRITE_BLOCK", 7)
    rng = np.random.Generator(np.random.Philox(key=[8, 3]))
    times = np.sort(np.concatenate([_PINNED_TIMES, rng.uniform(0.0, 100.0, 200), 10.0 ** rng.uniform(-12, 17, 200)]))
    lines = [b"# duration = %.17g" % _LARGEST] + [b"%.17g" % t for t in times.tolist()]
    lines[50:50] = [b"", b"# seed = 5", b"  "]
    path = tmp_path / "traj.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    for cores in (1, 2, 3):
        parse_on_cores(monkeypatch, cores)
        traj = read_trajectory(str(path))
        assert np.array_equal(traj.times.view(np.int64), times.view(np.int64))
        assert (traj.duration, traj.seed) == (_LARGEST, 5)
    lines[300] = b"0.5 0.6"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ValueError, match=r"traj\.txt:301: bad arrival time"):
        read_trajectory(str(path))


def test_read_trajectory_header_only(tmp_path):
    path = tmp_path / "traj.txt"
    path.write_text("# duration = 2.5\n# seed = 4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = read_trajectory(str(path))
    assert len(traj) == 0
    assert (traj.duration, traj.seed) == (2.5, 4)


def test_read_trajectory_rejects_malformed(tmp_path, monkeypatch):
    path = tmp_path / "traj.txt"
    monkeypatch.setattr(simulate, "_WRITE_BLOCK", 7)
    for cores in (1, 2, 3):
        parse_on_cores(monkeypatch, cores)
        path.write_text("0.1\n0.2\n")
        with pytest.raises(ValueError, match="missing '# duration = ...' header"):
            read_trajectory(str(path))
        path.write_text("# duration = 1.0\n0.1\nnope\n")
        with pytest.raises(ValueError, match=r"traj\.txt:3: bad arrival time"):
            read_trajectory(str(path))
        # Two values on one line, after a comment and a blank line, and
        # in a row of the fixed width in any block, the calling thread's
        # or a worker's.
        for row in ("%.17g", "%.16e"):
            body = [row % (k / 100) for k in range(30)]
            for lineno in range(5, 34):
                lines = ["# duration = 1.0", body[0], "# note", ""] + body[1:]
                lines[lineno - 1] = "0.5 0.6".ljust(22)
                path.write_text("\n".join(lines) + "\n")
                with pytest.raises(ValueError, match=rf"traj\.txt:{lineno}: bad arrival time"):
                    read_trajectory(str(path))
            for lineno in range(2, 32):
                lines = ["# duration = 1.0"] + body
                lines[lineno - 1] = "0.5 0.6".ljust(22)
                path.write_text("\n".join(lines) + "\n")
                with pytest.raises(ValueError, match=rf"traj\.txt:{lineno}: bad arrival time"):
                    read_trajectory(str(path))


@pytest.mark.parametrize(
    "lines, where",
    [
        ([b"# duration = 1.0", b"0.1", b"\xff0.2"], r"traj\.txt:3: bad text \(not UTF-8\)"),
        ([b"# duration = nope", b"0.1"], r"traj\.txt:1: bad value for 'duration'"),
        ([b"# duration = 1.0", b"# seed = 1.5", b"0.1"], r"traj\.txt:2: bad value for 'seed'"),
        ([b"# duration = 1.0", b"# seed = -3", b"0.1"], r"traj\.txt: seed must lie in \[0, 2\*\*63\)"),
    ],
    ids=["undecodable", "duration", "seed", "seed-range"],
)
def test_read_trajectory_names_the_bad_line(tmp_path, lines, where):
    path = tmp_path / "traj.txt"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(ValueError, match=where):
        read_trajectory(str(path))


@pytest.mark.parametrize("bad", [b"1_0", b"inf", b" nan", b"-inf"])
def test_read_trajectory_refuses_what_float_alone_accepts(tmp_path, monkeypatch, bad):
    # float() reads these lines; as arrival times they are bad, among
    # '%.17g' lines and, padded to the width, among '%.16e' rows in any
    # block, the calling thread's or a worker's; a '_' in a header value
    # too.
    monkeypatch.setattr(simulate, "_WRITE_BLOCK", 7)
    path = tmp_path / "traj.txt"
    for row in (b"%.17g", b"%.16e"):
        lines = [b"# duration = 1.0"] + [row % (k / 100) for k in range(30)]
        for cores in (1, 2, 3):
            parse_on_cores(monkeypatch, cores)
            for lineno in range(2, 32):
                path.write_bytes(b"\n".join(lines[: lineno - 1] + [bad.ljust(22)] + lines[lineno:]) + b"\n")
                with pytest.raises(ValueError, match=rf"traj\.txt:{lineno}: bad arrival time"):
                    read_trajectory(str(path))
    path.write_bytes(b"# duration = 1.0\n# seed = 1_0\n")
    with pytest.raises(ValueError, match=r"traj\.txt:2: bad value for 'seed'"):
        read_trajectory(str(path))


def test_read_trajectory_never_parses_ordinary_times_one_by_one(tmp_path, monkeypatch):
    # A kernel fault that left rows to float(), or the file to the
    # line-wise route, would keep the times and lose the speed: only the
    # header goes line by line, and the kernel proves every row of times
    # across its domain.
    parse_lines, parse_times, line_wise, unproven = simulate._parse_lines, simulate._parse_times, [], []

    def checked(lines, skipped, path, header):
        line_wise.append(skipped)
        return parse_lines(lines, skipped, path, header)

    def counted(text):
        values, proven = parse_times(text)
        unproven.append(int((~proven).sum()))
        return values, proven

    monkeypatch.setattr(simulate, "_parse_lines", checked)
    monkeypatch.setattr(simulate, "_parse_times", counted)
    rng = np.random.Generator(np.random.Philox(key=[8, 0]))
    for times in (rng.uniform(0.0, 100.0, 1 << 16), 10.0 ** rng.uniform(-10.99, 14.99, 1 << 12)):
        times.sort()
        path = tmp_path / "traj.txt"
        write_trajectory(Trajectory(times=times, duration=1e15), str(path))
        line_wise.clear()
        again = read_trajectory(str(path))
        assert np.array_equal(again.times.view(np.int64), times.view(np.int64))
        assert line_wise == [0]
    assert len(unproven) > 2 and not any(unproven)


@pytest.mark.parametrize("failing", [1, 2])
def test_read_trajectory_failing_block_leaves_no_thread(tmp_path, monkeypatch, failing):
    # On two cores the second block is a worker's and the third the
    # calling thread's; either error ends the read with no thread left.
    monkeypatch.setattr(simulate, "_WRITE_BLOCK", 7)
    path = tmp_path / "traj.txt"
    write_trajectory(Trajectory(times=np.linspace(0.0, 1.0, 50), duration=1.0), str(path))
    parse_times, texts = simulate._parse_times, []

    def record(text):
        texts.append(text)
        return parse_times(text)

    parse_on_cores(monkeypatch, 1)
    monkeypatch.setattr(simulate, "_parse_times", record)
    read_trajectory(str(path))
    assert len(texts) > 4

    def fail(text):
        if text == texts[failing]:
            raise OSError("block failed")
        return parse_times(text)

    parse_on_cores(monkeypatch, 2)
    monkeypatch.setattr(simulate, "_parse_times", fail)
    threads = threading.active_count()
    with pytest.raises(OSError, match="block failed"):
        read_trajectory(str(path))
    assert threading.active_count() == threads


def _finite_bits(sign, exponent, mantissa):
    return float(np.uint64(sign << 63 | exponent << 52 | mantissa).view(np.float64))


def _rows(times):
    """The times of ``times`` whose '%.16e' line has the row's 23 bytes."""
    return np.array([t for t in times if len(b"%.16e" % t) == 22], dtype=np.float64)


@given(
    times=st.lists(
        st.builds(_finite_bits, st.integers(0, 1), st.integers(0, 2046), st.integers(0, 2**52 - 1))
        | st.floats(1e-4, 1e4, exclude_max=True),
        max_size=100,
    )
)
@example(times=_PINNED_TIMES)
def test_parse_times_proves_only_the_written_bits(times):
    # Over every finite exponent and the pinned edge values: a proven row
    # holds the very double that was written, and no time in the kernel's
    # domain is left to float().
    x = _rows(times)
    values, proven = fileio._parse_times(fileio._format_times(x))
    assert proven.size == x.size
    assert np.array_equal(values[proven].view(np.int64), x[proven].view(np.int64))
    assert proven[_in_kernel_domain(x)].all()


_ROW_BYTES = "0123456789.e+-_ \n"


@given(
    rows=st.lists(
        st.text(_ROW_BYTES, min_size=23, max_size=23)
        | st.from_regex(r"\A[0-9]\.[0-9]{16}e[+-][0-9]{2}\Z").map(lambda row: row + "\n")
        | st.builds(
            lambda t, at, byte: (lambda row: row[:at] + byte + row[at + 1 :])("%.16e\n" % t),
            st.floats(1e-11, 1e15),
            st.integers(0, 22),
            st.sampled_from(_ROW_BYTES),
        ).filter(lambda row: len(row) == 23),
        max_size=40,
    )
)
@example(rows=["0.0000000000000000e+00\n", "1.0000000000000000e+16\n", "1.0000000000000000e-12\n"])
@example(rows=["9.9999999999999999e-12\n", "1.0000000000000000e-11\n", "9.9999999999999999e+14\n"])
@example(rows=["1.00000000000000_0e+00\n", " 1.000000000000000e+00\n", "1.0000000000000000e+0\n\n"])
@example(rows=["1.0000000000000000e+005", "0.5417720317552592e-07\n", "0.5163535431278850e-10\n"])
def test_parse_times_proves_only_what_float_reads(rows):
    # Every row the kernel proves is what float() reads, bit for bit.
    values, proven = fileio._parse_times("".join(rows).encode())
    assert proven.size == len(rows)
    for row, value, sure in zip(rows, values.tolist(), proven.tolist()):
        if sure:
            assert math.isfinite(value)
            assert np.float64(float(row)).view(np.int64) == np.float64(value).view(np.int64)


def test_parse_times_working_set():
    # The reader parses one block per core at once, so the kernel's
    # allocation peak per row bounds the reader's resident memory.
    rng = np.random.Generator(np.random.Philox(key=[8, 2]))
    text = fileio._format_times(np.sort(rng.uniform(0.0, 100.0, 1 << 15)))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fileio._parse_times(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 200 * (1 << 15)
