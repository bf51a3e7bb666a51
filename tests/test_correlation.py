import math

import hypothesis.strategies as hs
import numpy as np
import pytest
from hypothesis import example, given

from blinkcorr import (
    CorrelationSeries,
    PhotoPhysicalParams,
    blink_factor,
    eval_curve,
    g2,
    g2_mod,
    g_total,
    light_intensity,
    log_grid,
    p_ll,
    period_statistics,
    read_series,
    statistics_from_params,
    write_series,
)
from blinkcorr.correlation import _blink_factor, _g2, _is_degenerate
from blinkcorr.errors import DegenerateInputError

# Frozen two-level correlation values from a direct high-accuracy
# integration of the driven-pair density-matrix equations (independent
# of the closed forms under test), at A = 3.3e8, W = 2.9e8.
G2_ORACLE = (
    (1e-9, 0.058473519136287365),
    (3e-9, 0.36643329147754644),
    (1e-8, 1.0522324284642433),
    (3e-8, 0.9998096162859413),
    (1e-7, 1.0000000000087805),
)

# Frozen light-survival values from an independent matrix exponential of
# the 3x3 switching generator at the reference rates.
P_LL_ORACLE = (
    (1e-4, 0.9889691546904227),
    (1e-3, 0.9489843135544545),
    (1e-2, 0.9265671552712013),
)

INV_P_L = 1.0796639504759606


def test_g2_against_integrated_density_matrix():
    for tau, expected in G2_ORACLE:
        assert g2(tau, 3.3e8, 2.9e8) == pytest.approx(expected, rel=5e-7)


def test_g2_zero_delay_and_long_delay():
    assert g2(0.0, 3.3e8, 2.9e8) == 0.0
    assert g2(1e-3, 3.3e8, 2.9e8) == pytest.approx(1.0, abs=1e-12)


def test_g2_stays_in_physical_band():
    tau = np.geomspace(1e-12, 1e-3, 400)
    for a, w in ((3.3e8, 2.9e8), (1e9, 1e7), (1e7, 1e9), (4e8, 1e8)):
        vals = g2(tau, a, w)
        assert np.all(vals >= -1e-12)
        assert np.all(vals <= 2.0 + 1e-9)
        assert np.all(np.isfinite(vals))


def test_g2_continuous_at_critical_drive():
    # A = 4W separates oscillatory and overdamped branches.
    w = 1e8
    tau = np.geomspace(1e-10, 1e-6, 200)
    at = g2(tau, 4.0 * w, w)
    above = g2(tau, 4.0 * w * (1.0 + 1e-9), w)
    below = g2(tau, 4.0 * w * (1.0 - 1e-9), w)
    assert np.max(np.abs(above - at)) < 1e-6
    assert np.max(np.abs(below - at)) < 1e-6


def test_g2_overdamped_deep_tail():
    # Strongly overdamped: huge delays must neither overflow nor ring.
    tau = np.geomspace(1e-9, 1.0, 300)
    vals = g2(tau, 1e9, 1e6)
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) >= -1e-12)  # monotone rise, no oscillation
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)


def test_g2_mod_matches_intensity_weighted_form():
    tau = np.geomspace(1e-10, 1e-6, 300)
    a, w, bg = 3.3e8, 2.9e8, 7.7e7
    i_l = light_intensity(a, w)
    direct = (i_l * g2(tau, a, w) + bg) / (i_l + bg)
    assert np.max(np.abs(g2_mod(tau, a, w, bg) - direct)) < 1e-12


def test_g2_mod_zero_background_is_g2():
    tau = np.geomspace(1e-10, 1e-6, 50)
    assert np.array_equal(g2_mod(tau, 3.3e8, 2.9e8, 0.0), g2(tau, 3.3e8, 2.9e8))


def test_p_ll_against_matrix_exponential_oracle(reference_stats):
    for tau, expected in P_LL_ORACLE:
        assert p_ll(tau, reference_stats) == pytest.approx(expected, rel=1e-10)


def test_p_ll_limits(reference_stats):
    assert p_ll(0.0, reference_stats) == pytest.approx(1.0, abs=1e-12)
    assert p_ll(10.0, reference_stats) == pytest.approx(
        reference_stats.P_L, rel=1e-12
    )


def test_p_ll_random_rates_vs_propagator(rng):
    from blinkcorr.markov import build_rate_matrix, propagator, three_state_chain

    tau = np.geomspace(1e-7, 10.0, 120)
    for _ in range(40):
        ld = 10.0 ** rng.uniform(-1.0, 3.0, 2)
        dl = 10.0 ** rng.uniform(0.0, 4.0, 2)
        st = period_statistics((ld[0], ld[1]), (dl[0], dl[1]))
        chain = three_state_chain(st, light_rate=1.0)
        prop = propagator(build_rate_matrix(chain), tau)
        assert np.max(np.abs(p_ll(tau, st) - prop[:, 0, 0])) < 1e-9


def test_blink_factor_zero_delay_is_inverse_occupancy(reference_stats):
    assert blink_factor(0.0, reference_stats) == pytest.approx(
        1.0 / reference_stats.P_L, rel=1e-14
    )
    assert blink_factor(0.0, reference_stats) == pytest.approx(INV_P_L, rel=1e-12)


def test_blink_factor_decays_to_one(reference_stats):
    assert blink_factor(5.0, reference_stats) == pytest.approx(1.0, rel=1e-12)
    tau = np.geomspace(1e-7, 1.0, 200)
    vals = blink_factor(tau, reference_stats)
    assert np.all(np.diff(vals) <= 1e-12)  # monotone decay for this model


def test_blink_factor_without_blinking_is_flat():
    st = period_statistics((0.0, 0.0), (430.0, 2400.0))
    tau = np.geomspace(1e-8, 1.0, 50)
    assert np.max(np.abs(blink_factor(tau, st) - 1.0)) < 1e-14


def test_blink_factor_proportional_to_survival(reference_stats):
    # The bunching factor is the conditional light probability rescaled
    # by the stationary occupancy.
    tau = np.geomspace(1e-7, 1.0, 100)
    st = reference_stats
    expected = p_ll(tau, st) / st.P_L
    assert np.max(np.abs(blink_factor(tau, st) - expected)) < 1e-12


# Log-uniform rates in 1/s; a zero light-to-dark rate removes a dark level.
LOG_RATES = hs.floats(-3.0, 4.0).map(lambda e: 10.0**e)
KERNEL_TAU = np.concatenate(([0.0], np.geomspace(1e-7, 10.0, 80)))


@given(
    ld=hs.tuples(LOG_RATES | hs.just(0.0), LOG_RATES | hs.just(0.0)),
    dl=hs.tuples(LOG_RATES, LOG_RATES),
)
@example(ld=(1.0, 0.0), dl=(2.0, 3.0))  # mu1 == mu2: the expm route
@example(ld=(0.0, 0.0), dl=(430.0, 2400.0))  # never dark: P_L == 1
@example(ld=(34.0, 249.0), dl=(430.0, 2400.0))
def test_blink_kernel_matches_public_route(ld, dl):
    # The fit's residuals call the kernel on plain rates; the public route
    # checks its inputs first and must give the same bits.
    expected = blink_factor(KERNEL_TAU, period_statistics(ld, dl))
    assert np.array_equal(_blink_factor(KERNEL_TAU, *ld, *dl), expected)


def test_blink_kernel_examples_reach_both_special_cases():
    degenerate = period_statistics((1.0, 0.0), (2.0, 3.0))
    assert _is_degenerate(degenerate.mu1, degenerate.mu2)
    assert period_statistics((0.0, 0.0), (430.0, 2400.0)).P_L == 1.0


@given(
    A=hs.floats(5.0, 10.0).map(lambda e: 10.0**e),
    W=hs.floats(4.0, 11.0).map(lambda e: 10.0**e),
)
@example(A=3.3e8, W=2.9e8)  # under-damped: 16 W^2 > A^2
@example(A=1e9, W=1e6)  # over-damped
@example(A=4e8, W=1e8)  # critical: 16 W^2 == A^2
def test_g2_kernel_matches_public_route(A, W):
    tau = np.geomspace(1e-12, 1e-3, 120)
    assert np.array_equal(_g2(tau, A, W), g2(tau, A, W))


@pytest.mark.parametrize("bad", [-1e-9, math.nan, math.inf])
def test_public_evaluators_reject_bad_delays(bad, reference_stats):
    tau = np.array([0.0, 1e-6, bad])
    with pytest.raises(ValueError, match="delays must be finite and non-negative"):
        g2(tau, 3.3e8, 2.9e8)
    with pytest.raises(ValueError, match="delays must be finite and non-negative"):
        blink_factor(tau, reference_stats)


def test_public_evaluators_reject_bad_rates():
    with pytest.raises(ValueError, match="A31 must be positive"):
        g2(1e-9, 0.0, 2.9e8)
    with pytest.raises(ValueError, match="Omega31 must be non-negative"):
        g2(1e-9, 3.3e8, -1.0)
    with pytest.raises(ValueError, match="p_LD_1 must be finite"):
        period_statistics((math.nan, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="light-to-dark rates must be non-negative"):
        period_statistics((-1.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="dark-to-light rates must be positive"):
        period_statistics((1.0, 1.0), (1.0, 0.0))


def product_form(tau, p):
    # g2_mod * p_ll / P_L shares no exponential bookkeeping with g_total.
    st = statistics_from_params(p)
    return g2_mod(tau, p.A31, p.Omega31, p.I_sc) * (p_ll(tau, st) / st.P_L)


def test_g_total_forms_agree(reference_params):
    tau = log_grid(1e-10, 1.0, 60)
    explicit = g_total(tau, reference_params)
    product = product_form(tau, reference_params)
    assert np.max(np.abs(explicit - product) / np.abs(product)) < 1e-10


def test_g_total_forms_agree_random_rates(rng):
    tau = log_grid(1e-10, 1.0, 15)
    for _ in range(100):
        p = PhotoPhysicalParams(
            A31=10.0 ** rng.uniform(7.5, 9.0),
            Omega31=10.0 ** rng.uniform(7.5, 9.0),
            A32=tuple(10.0 ** rng.uniform(0.0, 3.0, 2)),
            A21=tuple(10.0 ** rng.uniform(1.5, 4.0, 2)),
            I_sc=10.0 ** rng.uniform(5.0, 8.0),
        )
        explicit = g_total(tau, p)
        product = product_form(tau, p)
        assert np.max(np.abs(explicit - product) / np.abs(product)) < 1e-10


def test_g_total_plateau(reference_params, reference_stats):
    plateau = g_total(1e-6, reference_params)
    assert plateau == pytest.approx(1.0 / reference_stats.P_L, abs=2e-4)


def test_g_total_tail_is_one(reference_params):
    assert g_total(5.0, reference_params) == pytest.approx(1.0, rel=1e-10)


def test_g_total_dark_label_exchange(reference_params):
    swapped = PhotoPhysicalParams(
        A31=reference_params.A31,
        Omega31=reference_params.Omega31,
        A32=reference_params.A32[::-1],
        A21=reference_params.A21[::-1],
        I_sc=reference_params.I_sc,
    )
    tau = log_grid(1e-10, 1.0, 30)
    a = g_total(tau, reference_params)
    b = g_total(tau, swapped)
    assert np.max(np.abs(a - b)) < 1e-12


def test_log_grid_shape():
    grid = log_grid(1e-9, 1e-3, 10)
    assert grid.size == 61
    assert grid[0] == pytest.approx(1e-9, rel=1e-14)
    assert grid[-1] == pytest.approx(1e-3, rel=1e-14)
    assert np.all(np.diff(np.log(grid)) > 0)
    ratios = grid[1:] / grid[:-1]
    assert np.max(ratios) / np.min(ratios) == pytest.approx(1.0, rel=1e-12)


def test_log_grid_span_out_of_float64_range():
    with pytest.raises(DegenerateInputError, match="too many decades"):
        log_grid(5e-324, 1.0, 1)


@pytest.mark.parametrize(
    "density", [int("9" * 400), 10**200, math.inf, math.nan], ids=["400-nines", "1e200", "inf", "nan"]
)
def test_log_grid_density_out_of_range(density):
    # 400 nines do not fit a float; 1e200 points per decade fit a float
    # but no array index.
    with pytest.raises(DegenerateInputError, match="more points than an array can index"):
        log_grid(1e-10, 1.0, density)


def test_eval_curve_default_grid(reference_params):
    series = eval_curve(reference_params)
    assert len(series) == 601
    assert series.tau[0] == pytest.approx(1e-10, rel=1e-12)
    assert series.tau[-1] == pytest.approx(1.0, rel=1e-12)


def test_series_validation():
    tau = np.array([1e-6, 2e-6, 3e-6])
    g = np.ones(3)
    CorrelationSeries(tau, g)
    with pytest.raises(ValueError):
        CorrelationSeries(tau[::-1].copy(), g)
    with pytest.raises(ValueError):
        CorrelationSeries(np.array([0.0, 1e-6, 2e-6]), g)
    with pytest.raises(ValueError):
        CorrelationSeries(tau, np.array([1.0, math.nan, 1.0]))
    with pytest.raises(ValueError):
        CorrelationSeries(tau, g, sigma=np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        CorrelationSeries(tau, g, sigma=np.ones(2))


def test_series_restrict(reference_params):
    series = eval_curve(reference_params, log_grid(1e-9, 1e-1, 10))
    split = 1.1e-7  # off the grid, so both strict comparisons partition
    sub = series.restrict(tau_min=split)
    assert np.all(sub.tau > split)
    sub2 = series.restrict(tau_max=split)
    assert np.all(sub2.tau < split)
    assert len(sub) + len(sub2) == len(series)
    with pytest.raises(DegenerateInputError):
        series.restrict(tau_min=1.0, tau_max=2.0)


def test_series_file_round_trip(tmp_path, reference_params):
    series = eval_curve(reference_params, log_grid(1e-9, 1e-2, 7))
    path = str(tmp_path / "curve.csv")
    write_series(series, path)
    again = read_series(path)
    assert np.array_equal(again.tau, series.tau)
    assert np.array_equal(again.g, series.g)
    assert again.sigma is None

    noisy = CorrelationSeries(series.tau, series.g, 0.01 * np.abs(series.g))
    write_series(noisy, path)
    again = read_series(path)
    assert np.array_equal(again.sigma, noisy.sigma)


def test_read_series_rejects_malformed(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("wrong,header\n1,2\n")
    with pytest.raises(ValueError):
        read_series(str(path))
    path.write_text("tau_s,g\n1e-6\n")
    with pytest.raises(ValueError):
        read_series(str(path))
