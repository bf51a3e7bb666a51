import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import lsq_linear

from blinkcorr import (
    CorrelationSeries,
    PhotoPhysicalParams,
    eval_curve,
    fitting,
    light_intensity,
    log_grid,
    period_statistics,
    rates_from_statistics,
    saturation_factor,
    statistics_from_params,
)
from blinkcorr.errors import (
    DegenerateFitError,
    DegenerateInputError,
    FitConvergenceError,
    FitError,
    InsufficientDataError,
)
from blinkcorr.fitting import (
    FitConfig,
    fit_fast,
    fit_full,
    fit_isc,
    fit_slow,
    least_squares,
)

RESULT_KEYS = (
    "A31",
    "Omega31",
    "I_sc",
    "A32_1",
    "A32_2",
    "A21_1",
    "A21_2",
    "T_L",
    "T_D1",
    "T_D2",
    "p1",
)


def flatten(result):
    return {
        "A31": result.params.A31,
        "Omega31": result.params.Omega31,
        "I_sc": result.params.I_sc,
        "A32_1": result.params.A32[0],
        "A32_2": result.params.A32[1],
        "A21_1": result.params.A21[0],
        "A21_2": result.params.A21[1],
        "T_L": result.stats.T_L,
        "T_D1": result.stats.T_D[0],
        "T_D2": result.stats.T_D[1],
        "p1": result.stats.p1,
    }


def truth_of(params):
    st = statistics_from_params(params)
    return {
        "A31": params.A31,
        "Omega31": params.Omega31,
        "I_sc": params.I_sc,
        "A32_1": params.A32[0],
        "A32_2": params.A32[1],
        "A21_1": params.A21[0],
        "A21_2": params.A21[1],
        "T_L": st.T_L,
        "T_D1": st.T_D[0],
        "T_D2": st.T_D[1],
        "p1": st.p1,
    }


def well_conditioned_params():
    # Comparable dark components and visible background: every reported
    # parameter bends the curve somewhere.
    return PhotoPhysicalParams(
        A31=3.3e8,
        Omega31=2.9e8,
        A32=(200.0, 300.0),
        A21=(500.0, 3000.0),
        I_sc=7.7e7,
    )


def noisy_series(params, noise, seed, points_per_decade=30):
    clean = eval_curve(params, log_grid(1e-10, 1.0, points_per_decade))
    rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
    sigma = noise * clean.g
    return CorrelationSeries(
        clean.tau, clean.g + sigma * rng.standard_normal(clean.g.size), sigma
    )


def test_least_squares_linear_problem():
    a = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    b = np.array([2.0, 6.0, 3.0])
    res = least_squares(lambda x: a @ x - b, np.zeros(2))
    expected, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert res.converged
    assert res.iterations <= 10
    assert np.max(np.abs(res.x - expected)) < 1e-8


def test_least_squares_rosenbrock():
    def residual(x):
        return np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)])

    res = least_squares(residual, np.array([-1.2, 1.0]))
    assert res.converged
    assert res.iterations <= 200
    assert np.max(np.abs(res.x - 1.0)) < 1e-6
    assert res.cost < 1e-12


def test_least_squares_from_the_smallest_subnormal():
    # 1e-6 times the start rounds to a zero step; the column is taken at
    # unit scale instead of as 0/0, which made the final pinv fail.
    def residual(x):
        return np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = least_squares(residual, np.array([5e-324, 5e-324]))
    assert res.converged
    assert np.max(np.abs(res.x - 1.0)) < 1e-6
    assert np.isfinite(res.cov).all()


def test_least_squares_respects_bounds():
    seen = []

    def residual(x):
        seen.append(x.copy())
        return np.array([x[0] - 2.0])

    res = least_squares(
        residual, np.array([0.5]), bounds=(np.array([0.0]), np.array([1.0]))
    )
    assert res.x[0] == pytest.approx(1.0, abs=1e-12)
    assert all(0.0 <= x[0] <= 1.0 for x in seen)


def test_least_squares_pins_coordinate_on_its_bound():
    # The unbounded optimum has x0 < 0. Once x0 sits on its zero bound
    # with the gradient pushing it outward, x1 must be solved as the
    # one-column problem; steps solved for both columns and then clipped
    # drift towards 0.0053 without meeting the tolerance.
    a = np.array([[1.0, 0.99], [0.99, 1.0], [0.3, -0.1]])
    b = np.array([-1.0, 1.0, 0.0])
    res = least_squares(
        lambda x: a @ x - b,
        np.array([0.5, 0.5]),
        bounds=(np.array([0.0, -10.0]), np.array([10.0, 10.0])),
    )
    column = a[:, 1] @ b / (a[:, 1] @ a[:, 1])
    assert res.converged
    assert res.iterations <= 10
    assert res.x[0] == 0.0
    assert abs(res.x[1] - column) < 1e-10


def test_least_squares_stops_when_every_coordinate_is_pinned():
    res = least_squares(
        lambda x: x - 2.0,
        np.array([1.0, 1.0]),
        bounds=(np.zeros(2), np.ones(2)),
    )
    assert res.converged
    assert res.message == "every coordinate pinned at a bound"
    assert res.iterations == 1
    assert np.all(res.x == 1.0)


def test_least_squares_retries_null_column_near_zero():
    # From 1e-12 the step sized from the start is lost against the
    # residual; without the unit-scale retry the column is null and the
    # solver "converges" at its start.
    res = least_squares(
        lambda x: np.array([x[0] - 1.0, x[0] - 1.0]),
        np.array([1e-12]),
        bounds=(np.array([-1.0]), np.array([2.0])),
    )
    assert res.converged
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_least_squares_leaves_flat_coordinate_alone():
    # A column that stays null at unit scale is flat: no step moves it.
    for flat in (2.5, 1e-12):
        res = least_squares(
            lambda x: np.array([x[0] - 1.0, x[0] + 1.0]), np.array([0.5, flat])
        )
        assert res.converged
        assert res.x[1] == flat
        assert res.x[0] == pytest.approx(0.0, abs=1e-9)


# Box corners and starts on a grid of eighths, so a start is exactly zero
# or at least 1/64 from it. A start within about 1e-10 of zero has its
# own test, test_least_squares_retries_null_column_near_zero.
@st.composite
def bounded_linear_problems(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 8))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    a = draw(arrays(float, (m, n), elements=unit))
    # A unique optimum to compare at 1e-6: no near-null direction.
    assume(np.linalg.svd(a, compute_uv=False)[-1] > 0.05)
    b = 2.0 * draw(arrays(float, m, elements=unit))
    lo = np.array(draw(st.lists(st.integers(-16, 8), min_size=n, max_size=n))) / 8.0
    width = np.array(draw(st.lists(st.integers(1, 24), min_size=n, max_size=n))) / 8.0
    frac = np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))) / 8.0
    return a, b, lo, lo + width, lo + frac * width


@given(bounded_linear_problems())
def test_least_squares_matches_bvls(problem):
    # Only the point is compared: on about 1 in 600 of these problems the
    # iterate reaches the optimum but keeps moving by the finite-difference
    # noise, above the 1e-10 step test, until the iteration cap.
    a, b, lo, hi, x0 = problem
    res = least_squares(lambda x: a @ x - b, x0, bounds=(lo, hi))
    expected = lsq_linear(a, b, bounds=(lo, hi), method="bvls").x
    assert np.max(np.abs(res.x - expected)) < 1e-6


def _mahalanobis(x, y, cov):
    d = x - y
    return math.sqrt(d @ np.linalg.solve(cov, d)) if np.any(d) else 0.0


@given(bounded_linear_problems())
def test_refit_stops_within_a_thousandth_of_a_standard_error(problem):
    # The refit's end point lies within 1e-3 standard errors, under the
    # full run's covariance, of the full run's optimum, and the refit
    # takes no more iterations.
    a, b, lo, hi, x0 = problem
    full = least_squares(lambda x: a @ x - b, x0, bounds=(lo, hi))
    refit = least_squares(lambda x: a @ x - b, x0, bounds=(lo, hi), refit=True)
    assert refit.converged and refit.cov is None
    assert refit.iterations <= full.iterations
    if np.any(refit.x != full.x):
        assert _mahalanobis(refit.x, full.x, full.cov) < 1e-3


# Starts on a grid of eighths, as for the linear problems above.
@given(
    arrays(float, 4, elements=st.floats(-0.5, 0.5)),
    st.lists(st.integers(-16, 16), min_size=2, max_size=2),
)
def test_refit_stops_near_rosenbrock_optimum(offsets, eighths):
    # Two noisy copies of the Rosenbrock residuals: the optimum keeps a
    # residual, so the standard error is not zero.
    x0 = np.array(eighths) / 8.0

    def residual(x):
        u, v = 1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)
        return np.array([u, v, u, v]) + offsets

    full = least_squares(residual, x0)
    refit = least_squares(residual, x0, refit=True)
    assert full.converged and refit.converged
    assert refit.iterations <= full.iterations
    assert _mahalanobis(refit.x, full.x, full.cov) < 1e-3


@st.composite
def stacked_linear_problems(draw):
    """Problems of the kind above sharing one shape and one box, with any
    conditioning: a stack of them, and the box."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 8))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    lo = np.array(draw(st.lists(st.integers(-16, 8), min_size=n, max_size=n))) / 8.0
    width = np.array(draw(st.lists(st.integers(1, 24), min_size=n, max_size=n))) / 8.0
    rows = []
    for _ in range(draw(st.integers(2, 6))):
        a = draw(arrays(float, (m, n), elements=unit))
        b = 2.0 * draw(arrays(float, m, elements=unit))
        frac = np.array(draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))) / 8.0
        rows.append((a, b, lo + frac * width))
    return rows, lo, lo + width


# A row that starts on its lower bound with the gradient pointing into the
# box is not pinned and shares its system with a row already at its
# minimum, which the refit rule stops at once.
_ON_EDGE = (np.array([[1.0], [1.0]]), np.array([0.4, 0.6]))
# One stack of every state a row's system can be in, in the unit box:
# unconstrained minima at b outside it pin the coordinates that start on
# the nearer bound.
_EYE = np.vstack([np.eye(3), np.zeros((1, 3))])
_STATES = (
    [
        # pinned on the first coordinate
        (_EYE, np.array([-1.0, 0.5, 0.5, 0.0]), np.array([0.0, 0.25, 0.25])),
        # pinned on the last
        (_EYE, np.array([0.5, 0.5, 2.0, 0.0]), np.array([0.25, 0.25, 1.0])),
        # one free coordinate
        (_EYE, np.array([-1.0, 2.0, 0.5, 0.0]), np.array([0.0, 1.0, 0.25])),
        # every coordinate pinned
        (_EYE, np.array([-1.0, -1.0, 2.0, 0.0]), np.array([0.0, 0.0, 1.0])),
        # a residual that is not finite, and one whose squares overflow
        (_EYE, np.array([0.5, np.nan, 0.5, 0.0]), np.array([0.25, 0.25, 0.25])),
        (_EYE, np.array([0.5, 1e300, 0.5, 0.0]), np.array([0.25, 0.25, 0.25])),
        # free
        (_EYE, np.array([0.5, 0.5, 0.5, 0.0]), np.array([0.25, 0.25, 0.25])),
    ],
    np.zeros(3),
    np.ones(3),
)


@given(stacked_linear_problems(), st.booleans())
@example(([(*_ON_EDGE, np.array([0.0])), (*_ON_EDGE, np.array([0.5]))], np.zeros(1), np.ones(1)), True)
@example(_STATES, False)
@example(_STATES, True)
def test_stacked_rows_match_the_same_problem_alone(stack, refit):
    # A row's damping, pinned coordinates and stop are its own: solved in
    # a stack, each problem ends where least_squares leaves it alone, in
    # float hex, with the same outcome.
    rows, lo, hi = stack
    x0 = np.array([start for _, _, start in rows])

    def residual(theta, which):
        return np.array([rows[i][0] @ t - rows[i][1] for t, i in zip(theta, which.tolist())])

    x, _, cost, iterations, stops = fitting._solve_stack(residual, x0, lo, hi, 200, refit)
    for (a, b, start), xi, ci, it, stop in zip(rows, x, cost, iterations, stops):
        alone = least_squares(lambda v: a @ v - b, start, bounds=(lo, hi), refit=refit)
        assert list(map(float.hex, xi.tolist())) == list(map(float.hex, alone.x.tolist()))
        assert (float(ci).hex(), int(it)) == (alone.cost.hex(), alone.iterations)
        assert fitting._STOPS[stop] == (alone.message, alone.converged)


@pytest.mark.parametrize("free_amp", [False, True])
def test_stacked_kernels_at_the_corners_of_their_boxes(free_amp):
    # Every corner of the slow and the fast box, as one stack of columns
    # and as narrow stacks of float rows: each residual row is finite or
    # refused as NaN, the same on both routes, and nothing warns.
    tau = np.geomspace(1e-10, 1.0, 300)
    slow_tau, fast_tau = tau[tau > 1e-7], tau[tau < 1e-7]
    slow_table = fitting._SLOW + fitting._AMPLITUDE if free_amp else fitting._SLOW
    for table, residual in (
        (slow_table, fitting._slow_residual(slow_tau, 1.0, np.ones((64, slow_tau.size)), free_amp)),
        (fitting._FAST, fitting._fast_residual(fast_tau, 1.0, np.full((64, fast_tau.size), 1.3), np.ones((64, fast_tau.size)))),
    ):
        corners = np.array(np.meshgrid(*[(lo, hi) for *_, lo, hi in table], indexing="ij")).reshape(len(table), -1).T
        rows = np.arange(len(corners))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wide = residual(corners, rows)
            narrow = np.concatenate([residual(corners[i : i + 2], rows[i : i + 2]) for i in range(0, len(rows), 2)])
        finite = np.isfinite(wide).all(axis=1)
        assert np.all(finite | np.isnan(wide).all(axis=1))
        assert np.array_equal(wide, narrow, equal_nan=True)
        # Only the coincident dark periods on their floor under the
        # longest light period are refused: the propagator's rows there
        # miss unit sum.
        refused = corners[~finite]
        assert np.all(refused[:, :3] == [5.0, -8.0, -8.0])


def test_least_squares_validation():
    with pytest.raises(ValueError):
        least_squares(lambda x: x, np.empty(0))
    with pytest.raises(ValueError):
        least_squares(
            lambda x: x, np.zeros(2), bounds=(np.zeros(2), np.zeros(2))
        )
    with pytest.raises(ValueError):
        least_squares(lambda x: np.zeros((2, 2)), np.zeros(2))


def test_least_squares_rejects_trial_point_the_residual_refuses():
    # The Gauss-Newton step from 0.5 lands on 4.25, where the residual
    # refuses to evaluate; more damping shortens the step below 3.
    refused = []

    def residual(x):
        if x[0] > 3.0:
            refused.append(float(x[0]))
            raise DegenerateInputError("refused")
        return np.array([x[0] ** 2 - 4.0])

    res = least_squares(residual, np.array([0.5]))
    assert refused and refused[0] == pytest.approx(4.25, rel=1e-3)
    assert res.converged
    assert res.x[0] == pytest.approx(2.0, rel=1e-8)


def test_least_squares_stops_on_a_residual_not_finite_at_the_start():
    # pinv's SVD does not converge on a Jacobian that is not finite: the
    # covariance is NaN instead, and the fit stops unconverged.
    res = least_squares(lambda x: np.array([np.nan, 1.0]), np.ones(1))
    assert (res.converged, res.message) == (False, "residual or its Jacobian not finite")
    assert np.isnan(res.cov).all()


def test_least_squares_stops_on_a_cost_that_overflows():
    # Every residual is finite but their sum of squares overflows: the fit
    # stops at once, as on a residual that is not finite, and nothing
    # warns.
    res = least_squares(lambda x: np.array([1e200 * (x[0] - 1.0), 1.0]), np.array([0.0]))
    assert (res.converged, res.message, res.iterations) == (False, "residual or its Jacobian not finite", 0)
    assert res.cost == math.inf
    assert np.isnan(res.cov).all()


def test_least_squares_stops_where_the_normal_equations_overflow():
    # The cost is finite but J^T J overflows: the fit stops after the one
    # Jacobian, as on a residual that is not finite, and nothing warns.
    res = least_squares(lambda x: np.array([1e200 * (x[0] - 1.0), 1.0]), np.array([1.0]))
    assert (res.converged, res.message, res.iterations) == (False, "residual or its Jacobian not finite", 1)
    assert res.cost == 1.0
    assert np.isnan(res.cov).all()


def test_stage_refuses_a_start_the_model_refuses(reference_params):
    # Coincident dark periods on their floor under the longest light
    # period are refused by the propagator (see the box-corner test
    # above): a stage started there stops unconverged.
    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    init = {"T_L": 1e5, "T_D1": 1e-8, "T_D2": 1e-8, "p1": 0.5}
    with pytest.raises(FitConvergenceError, match="residual or its Jacobian not finite"):
        fit_slow(series, FitConfig(bootstrap_resamples=0), init=init)


def test_fit_slow_survives_degenerate_trial_step():
    # On this curve a damped trial step of the slow stage is clipped onto
    # the corner T_D1 = T_D2 = 1e-8 s, where the two dark rates coincide
    # and the propagator refuses them; the fit must end in a result or a
    # FitError, not in that input error.
    clean = eval_curve(
        PhotoPhysicalParams(
            A31=3.3e8, Omega31=2.9e8, A32=(34.0, 249.0), A21=(430.0, 2400.0), I_sc=7.7e7
        ),
        np.geomspace(1e-10, 1.0, 300),
    )
    sigma = 0.01 * clean.g
    noise = np.random.Generator(np.random.Philox(key=[5, 2])).standard_normal(clean.g.size)
    series = CorrelationSeries(clean.tau, 0.9 * (clean.g + sigma * noise), 0.9 * sigma)
    try:
        fit_full(series, FitConfig(bootstrap_resamples=0, free_amplitude=True))
    except FitError:
        pass


def test_least_squares_covariance_linear():
    # For a linear residual the covariance is (A^T A)^-1 times the
    # reduced chi square, exactly.
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    b = np.array([1.0, 2.0, 3.1, -0.9])
    res = least_squares(lambda x: a @ x - b, np.zeros(2))
    dof = 2
    expected = np.linalg.inv(a.T @ a) * res.cost / dof
    assert np.max(np.abs(res.cov - expected)) < 1e-10


def perturbed_guess(truth, factor=0.3):
    guess = {}
    for i, (key, value) in enumerate(truth.items()):
        bump = 1.0 + factor if i % 2 == 0 else 1.0 - factor
        if key == "p1":
            guess[key] = min(max(value * bump, 0.01), 0.95)
        else:
            guess[key] = value * bump
    return guess


def test_noiseless_stage_recovery(reference_params):
    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    truth = truth_of(reference_params)
    guess = perturbed_guess(truth)
    cfg = FitConfig(bootstrap_resamples=0)

    slow = fit_slow(series, cfg, init=guess)
    for key in ("T_L", "T_D1", "T_D2", "p1"):
        assert slow.values[key] == pytest.approx(truth[key], rel=1e-6), key

    stats = statistics_from_params(reference_params)
    fast = fit_fast(
        series, 1.0 / stats.P_L, cfg, init=guess, slow_stats=stats
    )
    for key in ("A31", "Omega31", "I_sc"):
        assert fast.values[key] == pytest.approx(truth[key], rel=1e-6), key

    isc = fit_isc(slow, fast)
    for key in ("A32_1", "A32_2", "A21_1", "A21_2"):
        assert isc.values[key] == pytest.approx(truth[key], rel=1e-6), key


def test_noiseless_full_recovery(reference_params):
    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    truth = truth_of(reference_params)
    res = fit_full(series, FitConfig(bootstrap_resamples=0))
    flat = flatten(res)
    for key in RESULT_KEYS:
        assert flat[key] == pytest.approx(truth[key], rel=1e-6), key
    assert res.stages["slow"].converged
    assert res.stages["fast"].converged
    assert res.stages["isc"].converged


def criterion7_curve(params, seed):
    """Criterion 7's noisy curve: 300 log-spaced delays, 1% noise."""
    clean = eval_curve(params, np.geomspace(1e-10, 1.0, 300))
    sigma = 0.01 * clean.g
    rng = np.random.Generator(np.random.Philox(key=[seed, 2]))
    return CorrelationSeries(clean.tau, clean.g + sigma * rng.standard_normal(clean.g.size), sigma)


def test_isc_block_is_the_map_of_the_statistics(reference_params):
    # A32_i = p_LD_i / saturation_factor(A31, Omega31) and A21_i = p_DL_i of
    # the reported statistics, on every criterion-7 curve. The branching
    # fraction stays inside its box, so no shelving rate is exactly zero.
    for seed in range(20):
        res = fit_full(criterion7_curve(reference_params, seed), FitConfig(bootstrap_resamples=0))
        p, stats = res.params, res.stats
        sat = saturation_factor(p.A31, p.Omega31)
        for i in range(2):
            assert p.A32[i] == pytest.approx(stats.p_LD[i] / sat, rel=1e-12), seed
            assert p.A21[i] == pytest.approx(stats.p_DL[i], rel=1e-12), seed
            assert p.A32[i] > 0.0, seed
        isc = res.stages["isc"]
        assert (isc.iterations, isc.converged) == (0, True)
        assert isc.message == "derived from the slow and fast stages"
        assert (isc.cost, isc.n_points) == (res.stages["slow"].cost, res.stages["slow"].n_points)


def test_isc_sigmas_follow_the_dark_periods(reference_params):
    # A21_i = 1 / T_D_i, so its Jacobian sigma is sigma(T_D_i) / T_D_i**2.
    # Noise seed 13 fits two nearly equal dark rates, so the slow stage's
    # covariance is near-singular.
    res = fit_full(criterion7_curve(reference_params, 13), FitConfig(bootstrap_resamples=0))
    slow = res.stages["slow"]
    for i in (1, 2):
        t_d, sigma_t_d = slow.values[f"T_D{i}"], slow.sigma[f"T_D{i}"]
        assert res.sigma[f"A21_{i}"] == pytest.approx(sigma_t_d / t_d**2, rel=1e-6)


def test_isc_block_follows_the_dark_level_order(reference_params):
    # Started on the mirrored optimum (shorter dark period first), the slow
    # stage ends there and reorders its levels; the isc values and sigmas
    # must match those of the fit that never reordered.
    data = criterion7_curve(reference_params, 0)
    cfg = FitConfig(bootstrap_resamples=0)
    res = fit_full(data, cfg)
    st = res.stats
    mirrored = {"T_L": st.T_L, "T_D1": st.T_D[1], "T_D2": st.T_D[0], "p1": 1.0 - st.p1}
    slow = fit_slow(data, cfg, init=mirrored)
    v = slow.values
    stats = period_statistics(*rates_from_statistics(v["T_L"], (v["T_D1"], v["T_D2"]), v["p1"]))
    fast = fit_fast(data, 1.0 / v["P_L"], cfg, slow_stats=stats)
    mir = fit_isc(slow, fast)
    assert [mir.values["A32_1"], mir.values["A32_2"]] == pytest.approx(res.params.A32, rel=1e-6)
    assert [mir.values["A21_1"], mir.values["A21_2"]] == pytest.approx(res.params.A21, rel=1e-6)
    for key in fitting.STAGE_KEYS["isc"]:
        assert mir.sigma[key] == pytest.approx(res.sigma[key], rel=1e-4), key


def test_monotone_noise_response():
    params = well_conditioned_params()
    truth = truth_of(params)
    clean = eval_curve(params, log_grid(1e-10, 1.0, 30))
    cfg = FitConfig(bootstrap_resamples=0)

    medians = []
    for noise in (0.001, 0.01, 0.03):
        per_seed = []
        for seed in range(20):
            rng = np.random.Generator(np.random.Philox(key=[seed, 1]))
            sigma = noise * clean.g
            data = CorrelationSeries(
                clean.tau,
                clean.g + sigma * rng.standard_normal(clean.g.size),
                sigma,
            )
            try:
                flat = flatten(fit_full(data, cfg))
            except (FitConvergenceError, DegenerateFitError):
                per_seed.append(math.inf)
                continue
            per_seed.append(
                float(
                    np.median(
                        [abs(flat[k] / truth[k] - 1.0) for k in RESULT_KEYS]
                    )
                )
            )
        medians.append(float(np.median(per_seed)))
    assert medians[0] <= medians[1] <= medians[2]
    assert medians[0] < 0.05


def test_canonical_dark_ordering(reference_params):
    swapped = PhotoPhysicalParams(
        A31=reference_params.A31,
        Omega31=reference_params.Omega31,
        A32=reference_params.A32[::-1],
        A21=reference_params.A21[::-1],
        I_sc=reference_params.I_sc,
    )
    series = eval_curve(swapped, log_grid(1e-10, 1.0, 30))
    res = fit_full(series, FitConfig(bootstrap_resamples=0))
    assert res.stats.T_D[0] > res.stats.T_D[1]
    truth = truth_of(reference_params)  # canonical labeling
    flat = flatten(res)
    for key in RESULT_KEYS:
        assert flat[key] == pytest.approx(truth[key], rel=1e-5), key


def test_bootstrap_matches_jacobian_within_factor_two():
    params = well_conditioned_params()
    data = noisy_series(params, 0.01, seed=7)
    res_j = fit_full(data, FitConfig(bootstrap_resamples=0))
    res_b = fit_full(
        data, FitConfig(bootstrap_resamples=40, bootstrap_seed=5)
    )
    for key in RESULT_KEYS:
        ratio = res_b.sigma[key] / res_j.sigma[key]
        assert 0.5 < ratio < 2.0, (key, ratio)
    assert res_b.diagnostics["bootstrap_resamples"] >= 38.0


def test_bootstrap_deterministic():
    params = well_conditioned_params()
    data = noisy_series(params, 0.01, seed=3)
    cfg = FitConfig(bootstrap_resamples=12, bootstrap_seed=11)
    a = fit_full(data, cfg)
    b = fit_full(data, cfg)
    assert a.sigma == b.sigma
    c = fit_full(data, FitConfig(bootstrap_resamples=12, bootstrap_seed=12))
    assert any(a.sigma[k] != c.sigma[k] for k in RESULT_KEYS)


def test_free_amplitude_recovers_scale(reference_params):
    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    scaled = CorrelationSeries(series.tau, 1.17 * series.g)
    truth = truth_of(reference_params)
    res = fit_full(
        scaled, FitConfig(bootstrap_resamples=0, free_amplitude=True)
    )
    assert res.diagnostics["amplitude"] == pytest.approx(1.17, rel=1e-6)
    flat = flatten(res)
    for key in RESULT_KEYS:
        assert flat[key] == pytest.approx(truth[key], rel=1e-5), key


def test_unscaled_data_without_free_amplitude_not_silent(reference_params):
    # The same scaled data without the amplitude knob cannot be explained:
    # the fit must either refuse to converge or return visibly wrong
    # occupancies, never the true parameters as if nothing happened.
    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    scaled = CorrelationSeries(series.tau, 1.17 * series.g)
    truth = truth_of(reference_params)
    try:
        res = fit_full(scaled, FitConfig(bootstrap_resamples=0))
    except FitConvergenceError:
        return
    assert abs(res.stats.T_L / truth["T_L"] - 1.0) > 0.05


def test_initial_guess_pins_starts(reference_params):
    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    truth = truth_of(reference_params)
    init = {k: truth[k] for k in ("T_L", "T_D1", "T_D2", "p1")}
    slow = fit_slow(series, FitConfig(bootstrap_resamples=0), init=init)
    assert slow.values["T_L"] == pytest.approx(truth["T_L"], rel=1e-8)
    # Exact start must converge almost immediately.
    assert slow.iterations <= 25


def test_flat_series_raises_degenerate():
    tau = log_grid(1e-10, 1.0, 15)
    flat = CorrelationSeries(tau, np.ones(tau.size))
    with pytest.raises(DegenerateFitError):
        fit_slow(flat)


def test_insufficient_points():
    tau = log_grid(1e-6, 1e-3, 2)
    series = CorrelationSeries(tau, np.ones(tau.size))
    with pytest.raises(InsufficientDataError):
        fit_slow(series)
    tau_lo = log_grid(1e-10, 1e-8, 1)
    series_lo = CorrelationSeries(tau_lo, np.ones(tau_lo.size))
    with pytest.raises(InsufficientDataError):
        fit_fast(series_lo, 1.1)


def test_fit_fast_validates_plateau(reference_params):
    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    with pytest.raises(ValueError):
        fit_fast(series, 0.5)
    with pytest.raises(ValueError):
        fit_fast(series, math.inf)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(split_tau=0.0)
    # One resample gives no spread: the bootstrap needs two refits.
    for resamples in (-1, 1):
        with pytest.raises(ValueError, match="^bootstrap_resamples must be 0 or at least 2$"):
            FitConfig(bootstrap_resamples=resamples)
    with pytest.raises(ValueError):
        FitConfig(max_iterations=0)
    # Types are checked at the boundary too: a float count would fail
    # later in range(), and a truthy string would free the amplitude.
    for field, value, kind in (
        ("max_iterations", 2.5, "an integer"),
        ("max_iterations", True, "an integer"),
        ("bootstrap_resamples", 2.5, "an integer"),
        ("bootstrap_resamples", False, "an integer"),
        ("free_amplitude", "no", "a bool"),
        ("free_amplitude", 1, "a bool"),
        ("split_tau", "1e-7", "a real number"),
        ("split_tau", None, "a real number"),
        ("split_tau", True, "a real number"),
    ):
        with pytest.raises(ValueError, match=f"^{field} must be {kind}$"):
            FitConfig(**{field: value})
    FitConfig(max_iterations=np.int64(5), bootstrap_resamples=np.int32(0), free_amplitude=np.True_)
    FitConfig(split_tau=np.float32(1e-6))
    FitConfig(split_tau=np.int64(1))
    FitConfig(split_tau=1)
    for knobs in (
        {"split_tau": math.nan},
        {"split_tau": math.inf},
        {"bootstrap_seed": 2**63},
        {"bootstrap_seed": 2**64},
        {"bootstrap_seed": -1},
        {"bootstrap_seed": 1.0},
        {"bootstrap_seed": True},
    ):
        with pytest.raises(ValueError):
            FitConfig(**knobs)
    # The edge of the accepted range.
    FitConfig(bootstrap_seed=2**63 - 1)
    FitConfig(bootstrap_seed=np.uint64(2**63 - 1))


def run_stage_from(series, params, stage, init, cfg=FitConfig(bootstrap_resamples=0)):
    """The slow or fast stage, started from ``init``."""
    if stage == "slow":
        return fit_slow(series, cfg, init=init)
    stats = statistics_from_params(params)
    return fit_fast(series, 1.0 / stats.P_L, cfg, init=init, slow_stats=stats)


@pytest.mark.parametrize("key", ["T_L", "T_D1", "T_D2", "A31", "Omega31"])
def test_log_coordinate_guess_must_be_positive(reference_params, key):
    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    stage = "slow" if key in fitting.STAGE_KEYS["slow"] else "fast"
    truth = {k: v for k, v in truth_of(reference_params).items() if k in fitting.STAGE_KEYS[stage]}
    for value in (0.0, -1.0):
        with pytest.raises(ValueError, match=rf"init\['{key}'\] must be positive"):
            run_stage_from(series, reference_params, stage, {**truth, key: value})
    # Linear coordinates may start at zero.
    zero = "p1" if stage == "slow" else "I_sc"
    assert run_stage_from(series, reference_params, stage, {**truth, zero: 0.0}).converged


@pytest.mark.parametrize("key", ["A32_1", "A32_2", "A21_1", "A21_2"])
def test_isc_key_takes_no_guess_or_bound(reference_params, key):
    # The isc coefficients are derived from the slow and fast stages: no
    # stage declares a box for them, and a start ignores their values.
    assert key not in {name for name, *_ in fitting._SLOW + fitting._AMPLITUDE + fitting._FAST}
    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    truth = truth_of(reference_params)
    for stage in ("slow", "fast"):
        init = {k: v for k, v in truth.items() if k in fitting.STAGE_KEYS[stage]}
        plain = run_stage_from(series, reference_params, stage, init)
        for value in (0.0, 100.0, math.nan):
            assert run_stage_from(series, reference_params, stage, {**init, key: value}) == plain


@pytest.mark.parametrize(
    "stage, missing",
    [("slow", "T_L"), ("slow", "p1"), ("slow", "amplitude"), ("fast", "Omega31"), ("fast", "I_sc")],
)
def test_init_must_name_every_coordinate(reference_params, stage, missing):
    # A start from init is all or nothing: a stage refuses an init that
    # leaves out one of its coordinates, or gives one that is not a finite
    # real number.
    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    cfg = FitConfig(bootstrap_resamples=0, free_amplitude=True)
    init = {**truth_of(reference_params), "amplitude": 1.0}

    def run(init):
        return run_stage_from(series, reference_params, stage, init, cfg)

    assert run(init).converged
    with pytest.raises(ValueError, match=rf"^init must name '{missing}'$"):
        run({k: v for k, v in init.items() if k != missing})
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^init\['{missing}'\] must be finite$"):
            run({**init, missing: value})
    for value in ("0.01", None, True):
        with pytest.raises(ValueError, match=rf"^init\['{missing}'\] must be a real number$"):
            run({**init, missing: value})
    assert run({**init, missing: np.float32(init[missing])}).converged


def test_reported_sigmas_non_negative():
    params = well_conditioned_params()
    data = noisy_series(params, 0.01, seed=2)
    res = fit_full(data, FitConfig(bootstrap_resamples=0))
    assert all(v >= 0.0 for v in res.sigma.values())
    assert set(RESULT_KEYS) <= set(res.sigma)


def test_zero_background_fits_converge(reference_params):
    # With no background the fast stage's ratio fits to its zero bound or
    # just inside it; either way every fit must converge quickly.
    params = replace(reference_params, I_sc=0.0)
    at_bound = 0
    for seed in range(30):
        result = fit_full(
            noisy_series(params, 0.01, seed), FitConfig(bootstrap_resamples=0)
        )
        fast = result.stages["fast"]
        assert fast.converged
        assert fast.iterations <= 30
        assert 0.0 <= fast.values["ratio"] < 1e-4
        at_bound += fast.values["ratio"] == 0.0
    assert at_bound >= 10


def test_fit_residuals_skip_public_checks(reference_params, monkeypatch):
    # Inputs are checked once at the public boundary: the stages' residuals
    # call the model's private kernels. When they went through the public
    # evaluators, this fit made 603 period_statistics, 597 blink_factor,
    # 177 g2 and 774 delay-check calls.
    from blinkcorr import correlation, params

    # Criterion 7's curve, noise seed 0, without the bootstrap.
    clean = eval_curve(reference_params, np.geomspace(1e-10, 1.0, 300))
    sigma = 0.01 * clean.g
    rng = np.random.Generator(np.random.Philox(key=[0, 2]))
    noisy = clean.g + sigma * rng.standard_normal(clean.g.size)
    data = CorrelationSeries(clean.tau, noisy, sigma)

    counts = {}
    for owner, name in (
        (params, "period_statistics"),
        (correlation, "blink_factor"),
        (correlation, "g2"),
        (correlation, "_as_delay_array"),
    ):
        original = getattr(owner, name)
        counts[name] = 0

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "blinkcorr":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)

    fit_full(data, FitConfig(bootstrap_resamples=0))
    assert 0 < counts["period_statistics"] <= 10
    assert 0 < counts["blink_factor"] <= 4
    assert counts["g2"] <= 4
    assert counts["_as_delay_array"] <= 4


def record_stacks(monkeypatch):
    """Start rows, bounds and refit flag of every stack the solver runs,
    and the rows' outcomes: (converged, on a box edge, message) per row."""
    stacks = []
    solve_stack = fitting._solve_stack

    def recording(residual, x0, lo, hi, max_iterations, refit):
        out = solve_stack(residual, x0, lo, hi, max_iterations, refit)
        x, stops = out[0], out[4]
        ends = [
            (fitting._STOPS[stop][1], bool(np.any((row == lo) | (row == hi))), fitting._STOPS[stop][0])
            for row, stop in zip(x, stops)
        ]
        stacks.append((x0.copy(), (lo, hi), refit, ends))
        return out

    monkeypatch.setattr(fitting, "_solve_stack", recording)
    return stacks


def test_stages_try_their_starts(reference_params, monkeypatch):
    # Slow and fast stage solve their four heuristic starts as one stack
    # each and call no least_squares; the isc stage runs no optimizer.
    def refuse(*args, **kwargs):
        raise AssertionError("a stage called least_squares")

    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    stacks = record_stacks(monkeypatch)
    monkeypatch.setattr(fitting, "least_squares", refuse)
    fit_full(series, FitConfig(bootstrap_resamples=0))
    assert [(x0.shape, refit) for x0, _, refit, _ in stacks] == [((4, 4), False), ((4, 3), False)]


def test_guessing_every_coordinate_leaves_one_start(reference_params, monkeypatch):
    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    stats = statistics_from_params(reference_params)
    truth = truth_of(reference_params)
    stacks = record_stacks(monkeypatch)
    cfg = FitConfig(bootstrap_resamples=0)
    fit_slow(series, cfg, init=truth)
    fit_fast(series, 1.0 / stats.P_L, cfg, init=truth, slow_stats=stats)
    assert [x0.shape for x0, *_ in stacks] == [(1, 4), (1, 3)]
    log10 = math.log10
    assert stacks[0][0].tolist() == [
        [log10(truth["T_L"]), log10(truth["T_D1"]), log10(truth["T_D2"]), truth["p1"]]
    ]
    assert stacks[1][0][0, :2].tolist() == [log10(truth["A31"]), log10(truth["Omega31"])]

    # A free amplitude is a coordinate of the slow stage, started from init.
    stacks.clear()
    free = FitConfig(bootstrap_resamples=0, free_amplitude=True)
    fit_slow(series, free, init={**truth, "amplitude": 1.25})
    assert len(stacks) == 1
    assert stacks[0][0][0, 4] == 1.25


@pytest.mark.parametrize("free_amp", [False, True])
def test_stage_keeps_the_best_start_solved_alone(reference_params, monkeypatch, free_amp):
    # Each stage ends, in float hex, where least_squares leaves the start
    # of least cost, every start solved alone on the stage's residual: the
    # same point, cost, covariance, iterations and stop.
    outcomes = []
    best_row = fitting._best_row

    def recording(residual, x0, lo, hi, max_iterations, **kwargs):
        best = best_row(residual, x0, lo, hi, max_iterations, **kwargs)
        outcomes.append((residual, x0, (lo, hi), max_iterations, best))
        return best

    monkeypatch.setattr(fitting, "_best_row", recording)
    for seed in (0, 13):
        fit_full(criterion7_curve(reference_params, seed), FitConfig(bootstrap_resamples=0, free_amplitude=free_amp))
    assert [x0.shape[0] for _, x0, *_ in outcomes] == [4] * 4
    monkeypatch.undo()

    def hexed(res):
        return [list(map(float.hex, a.ravel().tolist())) for a in (res.x, np.array(res.cost), res.cov)]

    for residual, x0, bounds, max_iterations, stage in outcomes:
        alone = [
            least_squares(lambda v: residual(v[None], np.zeros(1, dtype=int))[0], start, bounds, max_iterations=max_iterations)
            for start in x0
        ]
        best = min(alone, key=lambda res: res.cost)
        assert hexed(stage) == hexed(best)
        assert (stage.iterations, stage.converged, stage.message) == (best.iterations, best.converged, best.message)


def test_bootstrap_refits_only_the_slow_and_fast_stages(reference_params, monkeypatch):
    # The main fit solves each stage's four starts as one stack without
    # the refit rule. The bootstrap then solves the slow and the fast stage
    # once each, as a stack of one row per refit: every row starts from the
    # original fit's values and stops within 1e-3 standard errors; the
    # isc block is derived without an optimizer.
    data = criterion7_curve(reference_params, seed=0)
    stacks = record_stacks(monkeypatch)
    res = fit_full(data, FitConfig(bootstrap_resamples=3))
    assert res.diagnostics["bootstrap_failures"] == 0
    assert [(x0.shape, refit) for x0, _, refit, _ in stacks] == (
        [((4, 4), False), ((4, 3), False), ((3, 4), True), ((3, 3), True)]
    )
    slow, fast = res.stages["slow"].values, res.stages["fast"].values
    log10 = math.log10
    start = [log10(slow["T_L"]), log10(slow["T_D1"]), log10(slow["T_D2"]), slow["p1"]]
    assert stacks[2][0].tolist() == [start] * 3
    x0 = stacks[3][0]
    assert x0[:, :2].tolist() == [[log10(fast["A31"]), log10(fast["Omega31"])]] * 3
    assert np.all(x0[:, 2] == fast["I_sc"] / light_intensity(10.0 ** x0[0, 0], 10.0 ** x0[0, 1]))
    assert all(stage.sigma for stage in res.stages.values())


@pytest.mark.parametrize("seed", [0, 13])
def test_bootstrap_leaves_the_main_fit_alone(reference_params, seed):
    data = criterion7_curve(reference_params, seed)
    plain = fit_full(data, FitConfig(bootstrap_resamples=0))
    boot = fit_full(data, FitConfig(bootstrap_resamples=5))
    assert boot.params == plain.params
    assert boot.stats == plain.stats
    for name, stage in plain.stages.items():
        other = boot.stages[name]
        assert (other.values, other.sigma) == (stage.values, stage.sigma), name
        assert (other.cost, other.iterations, other.message) == (
            stage.cost,
            stage.iterations,
            stage.message,
        ), name


def test_bootstrap_counts_refits_on_a_bound(reference_params, monkeypatch):
    # On criterion 7's seed 13 some refits' slow stage ends with T_D2 on
    # its 1e-8 s floor. The slow stage runs one stack of a row per refit;
    # the one failed refit stops at the iteration cap in that stack.
    data = criterion7_curve(reference_params, seed=13)
    stacks = record_stacks(monkeypatch)
    res = fit_full(data, FitConfig(bootstrap_resamples=50))
    ends = [end for x0, _, refit, rows in stacks if refit and x0.shape[1] == 4 for end in rows]
    assert len(ends) == 50
    assert res.diagnostics["bootstrap_failures"] == sum(not ok for ok, *_ in ends) == 1
    assert [message for ok, _, message in ends if not ok] == ["maximum iterations reached"]
    on_bound = sum(ok and edge for ok, edge, _ in ends)
    assert res.diagnostics["bootstrap_on_bound"] == on_bound > 0


def test_bootstrap_draws_equal_refits_through_the_stages(reference_params, monkeypatch):
    # Each stacked refit reports what fit_slow, fit_fast and fit_isc report
    # for its resample refit alone from the main fit's values with the refit
    # stop rule, in float hex; failed and on-bound counts agree too. Seed 13
    # has a failed refit and refits on a bound.
    from blinkcorr.correlation import g_total

    data = criterion7_curve(reference_params, seed=13)
    cfg = FitConfig(bootstrap_resamples=50)
    stages, flat, _ = fitting._pipeline(data, cfg)
    model = g_total(data.tau, PhotoPhysicalParams.from_dict({key: flat[key] for key in RESULT_KEYS[:7]}))
    draws, failures, on_bound = fitting._bootstrap(data, cfg, flat, model)

    solve_stack = fitting._solve_stack

    def refit(residual, x0, lo, hi, max_iterations, _):
        return solve_stack(residual, x0, lo, hi, max_iterations, True)

    monkeypatch.setattr(fitting, "_solve_stack", refit)
    rng = np.random.Generator(np.random.Philox(key=[cfg.bootstrap_seed, 3]))
    resid, npts = data.g - model, len(data)
    rows, edges = [], 0
    for _ in range(cfg.bootstrap_resamples):
        resample = CorrelationSeries(data.tau, model + resid[rng.integers(0, npts, npts)], data.sigma)
        try:
            slow = fit_slow(resample, cfg, init=flat)
            v = slow.values
            stats = period_statistics(*rates_from_statistics(v["T_L"], (v["T_D1"], v["T_D2"]), v["p1"]))
            fast = fit_fast(resample, 1.0 / v["P_L"], cfg, init=flat, slow_stats=stats)
        except (FitConvergenceError, DegenerateFitError, ValueError):
            continue
        edges += slow.on_bound
        alone = {"slow": slow, "fast": fast, "isc": fit_isc(slow, fast)}
        rows.append([alone[name].values[key] for name, keys in fitting.STAGE_KEYS.items() for key in keys])
    assert (failures, on_bound) == (cfg.bootstrap_resamples - len(rows), edges) == (1, edges)
    assert edges > 0
    assert [list(map(float.hex, row)) for row in draws.tolist()] == [list(map(float.hex, row)) for row in rows]


def test_background_guess_sets_each_ratio_start(reference_params, monkeypatch):
    # The ratio start follows from the guessed I_sc and the start's own
    # rates.
    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    stats = statistics_from_params(reference_params)
    stacks = record_stacks(monkeypatch)
    cfg = FitConfig(bootstrap_resamples=0)
    for omega in (2e8, 4e8):
        init = {"A31": 2e8, "Omega31": omega, "I_sc": 5e7}
        fit_fast(series, 1.0 / stats.P_L, cfg, init=init, slow_stats=stats)
    assert [x0.shape for x0, *_ in stacks] == [(1, 3)] * 2
    assert len({x0[0, 2] for x0, *_ in stacks}) > 1
    for (x0,), *_ in stacks:
        assert x0[0] == math.log10(2e8)
        assert x0[2] == 5e7 / light_intensity(10.0 ** x0[0], 10.0 ** x0[1])


def test_bounds_apply_to_stage_coordinates(reference_params, monkeypatch):
    # Every stack of a stage fits in the box the README's table states: log
    # coordinates in log10 of the value, linear ones as given.
    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    stacks = record_stacks(monkeypatch)
    fit_full(series, FitConfig(bootstrap_resamples=0, free_amplitude=True))
    assert [x0.shape for x0, *_ in stacks] == [(4, 5), (4, 3)]
    (_, (lo, hi), *_), (_, (lo_fast, hi_fast), *_) = stacks
    assert lo.tolist() == [-8.0, -8.0, -8.0, 1e-4, 0.1]
    assert hi.tolist() == [5.0, 5.0, 5.0, 1.0 - 1e-4, 10.0]
    assert lo_fast.tolist() == [2.0, 2.0, 0.0]
    assert hi_fast.tolist() == [14.0, 14.0, 1e3]
