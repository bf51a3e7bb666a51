"""Fitting measured correlation curves to the blinking model.

The analytic curve factorizes at a split delay (default 100 ns): above it
only the dark-period bunching survives, below it only the two-level
structure scaled by the bunching plateau. The full protocol therefore
runs three stages:

1. :func:`fit_slow` fits the bunching factor above the split and yields
   the period statistics (mean light period, two mean dark periods,
   branching fraction).
2. :func:`fit_fast` fits the two-level shape below the split, with the
   plateau pinned by stage one, and yields ``A31``, ``Omega31`` and the
   background rate.
3. :func:`fit_isc` maps the period statistics of stage one one to one
   onto the shelving and deshelving coefficients, with ``A31`` and
   ``Omega31`` from stage two; it fits nothing.

:func:`fit_full` chains the stages and optionally wraps them in a
residual bootstrap for uncertainties. The optimizer is a small damped
least-squares routine with box bounds and forward-difference Jacobians;
it is deliberately self-contained so its behaviour is fully pinned by the
tests in this package. A coordinate that sits on its bound while the
gradient pushes it outward takes no step (the active-set rule of
bounded-variable least squares, Stark & Parker, Comput. Stat. 10, 129
(1995)), so a background ratio that fits to zero stops there instead of
crawling along its bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .correlation import CorrelationSeries, _blink_factor, _g2, blink_factor, g_total
from .errors import (
    DegenerateFitError,
    DegenerateInputError,
    FitConvergenceError,
    InsufficientDataError,
)
from .params import (
    PeriodStatistics,
    PhotoPhysicalParams,
    _switching_rates,
    light_intensity,
    period_statistics,
    rates_from_statistics,
    saturation_factor,
)

__all__ = [
    "FitConfig",
    "FitStage",
    "FitResult",
    "LeastSquaresResult",
    "least_squares",
    "fit_slow",
    "fit_fast",
    "fit_isc",
    "fit_full",
    "STAGE_KEYS",
]

# Reported parameters by the stage that fits them, in report order.
STAGE_KEYS = {
    "fast": ("A31", "Omega31", "I_sc"),
    "isc": ("A32_1", "A32_2", "A21_1", "A21_2"),
    "slow": ("T_L", "T_D1", "T_D2", "p1"),
}

# Each stage's coordinates in optimizer order: (name, fit in log10 of the
# value?, lo, hi), the box in coordinate units. ``ratio`` is the
# background-to-signal intensity ratio, which a start sets from I_sc.
_SLOW = (
    ("T_L", True, -8.0, 5.0),
    ("T_D1", True, -8.0, 5.0),
    ("T_D2", True, -8.0, 5.0),
    ("p1", False, 1e-4, 1.0 - 1e-4),
)
_AMPLITUDE = (("amplitude", False, 0.1, 10.0),)
_FAST = (
    ("A31", True, 2.0, 14.0),
    ("Omega31", True, 2.0, 14.0),
    ("ratio", False, 0.0, 1e3),
)

# least_squares' starting damping factor, the largest one it tries before
# it gives up a step, the relative step and cost change below which it
# stops, and the Gauss-Newton step, in standard errors, below which a
# refit stops.
_START_DAMPING = 1e-3
_MAX_DAMPING = 1e12
_REL_TOL = 1e-10
_REFIT_TOL = 1e-3


def _is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy integer or float, not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the fitting protocol.

    ``split_tau`` (a finite, positive real number) separates the fast and
    slow fitting windows. ``free_amplitude``, a bool, adds one overall
    scale factor to absorb data normalization. ``bootstrap_resamples`` of
    zero disables the bootstrap and falls back to Jacobian uncertainties. It,
    ``bootstrap_seed`` (in [0, 2**63)) and ``max_iterations`` are
    integers, not bools. No setting moves a start or a box: a stage
    starts from its heuristics or from the ``init`` of :func:`fit_slow`
    and :func:`fit_fast`, which names every coordinate of the stage.
    """

    split_tau: float = 1e-7
    free_amplitude: bool = False
    bootstrap_resamples: int = 200
    bootstrap_seed: int = 0
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if not isinstance(self.free_amplitude, (bool, np.bool_)):
            raise ValueError("free_amplitude must be a bool")
        for name in ("bootstrap_resamples", "bootstrap_seed", "max_iterations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if not _is_real(self.split_tau):
            raise ValueError("split_tau must be a real number")
        if not 0.0 < self.split_tau < math.inf:
            raise ValueError("split_tau must be finite and positive")
        if self.bootstrap_resamples < 0:
            raise ValueError("bootstrap_resamples must be non-negative")
        if not 0 <= self.bootstrap_seed < 2**63:
            raise ValueError("bootstrap_seed must lie in [0, 2**63)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class LeastSquaresResult:
    """Outcome of :func:`least_squares`; ``cov`` is ``None`` for a refit."""

    x: np.ndarray
    cost: float
    cov: np.ndarray | None
    iterations: int
    converged: bool
    message: str


def least_squares(
    residual,
    x0,
    bounds=None,
    *,
    max_iterations: int = 200,
    refit: bool = False,
) -> LeastSquaresResult:
    """Damped least squares with box bounds.

    ``residual`` maps a parameter vector to a residual vector; the cost
    is its squared norm. Each iteration pins every coordinate that sits on
    its bound while the gradient points out of the box; pinned coordinates
    take no step, and the damped normal equations are solved over the
    free ones. Candidates are clipped into the bounds, the damping shrinks
    on accepted steps and grows on rejected ones; a candidate whose
    residual raises :class:`DegenerateInputError` is rejected like one
    that raises the cost. Convergence requires both the relative step
    and the relative cost change to drop below 1e-10; a state where
    no damping produces any improvement, or where every coordinate is
    pinned, also counts as converged (the iterate cannot be bettered in
    float arithmetic, or within the box).
    ``message`` names the reason the loop stopped. The covariance estimate
    is ``pinv(J^T J)`` over all coordinates, scaled by the reduced chi
    square ``s^2 = cost / dof``.

    ``refit`` is for bootstrap refits, whose spread is the uncertainty
    and whose own covariance is not used. Before each damped step the
    undamped Gauss-Newton step ``delta`` over the free coordinates is
    solved, and the loop stops with "step below 1e-3 standard errors"
    once ``delta^T J^T J delta < (1e-3)^2 s^2``, the distance to the
    minimum that MINUIT estimates (James & Roos, Comput. Phys. Commun.
    10, 343 (1975)); a zero cost, a singular system or a negative
    distance (rounding in a near-singular one) skips the test.
    The final Jacobian is not taken and ``cov`` is ``None``.

    Parameters are never evaluated outside the bounds; the finite
    difference step flips direction at the upper bound, and a null column
    from a step below unit scale is taken again at unit scale.
    """
    x = np.asarray(x0, dtype=float).copy()
    npar = x.size
    if npar == 0:
        raise ValueError("need at least one parameter")
    if bounds is None:
        lo = np.full(npar, -np.inf)
        hi = np.full(npar, np.inf)
    else:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
        if lo.shape != (npar,) or hi.shape != (npar,):
            raise ValueError("bounds must match the parameter vector")
        if np.any(lo >= hi):
            raise ValueError("lower bounds must lie below upper bounds")
        x = np.minimum(np.maximum(x, lo), hi)
    # Finite-difference scale: relative to the start, unit for exact-zero
    # coordinates (a relative step off zero underflows to a null step).
    scale = np.abs(x)
    scale[scale == 0.0] = 1.0
    lo_list, hi_list, scale_list = lo.tolist(), hi.tolist(), scale.tolist()

    def eval_residual(xv: np.ndarray) -> np.ndarray:
        r = np.asarray(residual(xv), dtype=float)
        if r.ndim != 1:
            raise ValueError("residual must return a vector")
        return r

    def jacobian(xv: np.ndarray, rv: np.ndarray) -> np.ndarray:
        jac = np.empty((rv.size, npar))
        for j, (xj, sj, b) in enumerate(zip(xv.tolist(), scale_list, hi_list)):
            size = max(abs(xj), sj)
            # From a start within about 1e-10 of zero the step is lost against
            # the residual, so a null column, or a step that underflows to
            # zero, is taken again at unit scale. A null column at unit scale
            # or above is flat: a smaller retry there would only sample
            # rounding noise.
            for h in (1e-6 * size, 1e-6):
                if h == 0.0:
                    continue
                step = h if xj + h <= b else -h
                xp = xv.copy()
                xp[j] += step
                jac[:, j] = (eval_residual(xp) - rv) / step
                if size >= 1.0 or np.count_nonzero(jac[:, j]):
                    break
        return jac

    r = eval_residual(x)
    cost = float(r @ r)
    dof = max(r.size - npar, 1)
    lam = _START_DAMPING
    converged = False
    message = "maximum iterations reached"
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        jac = jacobian(x, r)
        grad = jac.T @ r
        # A coordinate on its bound whose gradient points out of the box
        # is pinned: it takes no step, and the others are solved without
        # it. The test runs on Python floats, which for a handful of
        # coordinates costs a fraction of the numpy calls it replaces.
        pinned = [
            (xj <= a and gj > 0.0) or (xj >= b and gj < 0.0)
            for xj, gj, a, b in zip(x.tolist(), grad.tolist(), lo_list, hi_list)
        ]
        if not any(pinned):
            free = slice(None)
            jtj, rhs = jac.T @ jac, -grad
        elif all(pinned):
            converged = True
            message = "every coordinate pinned at a bound"
            break
        else:
            free = ~np.array(pinned)
            jac_free = jac[:, free]
            jtj, rhs = jac_free.T @ jac_free, -grad[free]
        if refit and cost > 0.0:
            try:
                distance = float(rhs @ np.linalg.solve(jtj, rhs))
            except np.linalg.LinAlgError:
                distance = math.inf
            # J^T J is positive semidefinite: a negative distance is the
            # rounding of a near-singular system, which skips the test too.
            if 0.0 <= distance < _REFIT_TOL**2 * cost / dof:
                converged = True
                message = "step below 1e-3 standard errors"
                break
        diag = np.maximum(jtj.diagonal(), 1e-300)
        delta = np.zeros(npar)

        accepted = False
        while lam <= _MAX_DAMPING:
            try:
                damped = jtj.copy()
                damped.flat[:: rhs.size + 1] += lam * diag
                delta[free] = np.linalg.solve(damped, rhs)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = np.minimum(np.maximum(x + delta, lo), hi)
            try:
                r_new = eval_residual(x_new)
            except DegenerateInputError:
                lam *= 10.0
                continue
            cost_new = float(r_new @ r_new)
            if math.isfinite(cost_new) and cost_new <= cost:
                accepted = True
                break
            lam *= 10.0

        if not accepted:
            converged = True
            message = "no damping produced further improvement"
            break

        step_rel = float(np.max(np.abs(x_new - x) / np.maximum(np.abs(x_new), scale)))
        cost_rel = (cost - cost_new) / max(cost, 1e-300)
        x, r, cost = x_new, r_new, cost_new
        lam = max(lam / 3.0, 1e-12)
        if step_rel < _REL_TOL and cost_rel < _REL_TOL:
            converged = True
            message = "step and cost change below tolerance"
            break

    cov = None
    if not refit:
        jac = jacobian(x, r)
        cov = np.linalg.pinv(jac.T @ jac) * (cost / dof)
    return LeastSquaresResult(
        x=x,
        cost=cost,
        cov=cov,
        iterations=iterations,
        converged=converged,
        message=message,
    )


@dataclass(frozen=True)
class FitStage:
    """One stage of the protocol: point values, uncertainties, optimizer
    diagnostics. ``sigma`` is empty for a bootstrap refit, and
    ``on_bound`` tells whether a coordinate ended exactly on its box edge."""

    values: dict[str, float]
    sigma: dict[str, float]
    cost: float
    iterations: int
    converged: bool
    message: str
    n_points: int
    on_bound: bool = False


@dataclass(frozen=True)
class FitResult:
    """Assembled outcome of the full three-stage protocol."""

    params: PhotoPhysicalParams
    stats: PeriodStatistics
    sigma: dict[str, float]
    stages: dict[str, FitStage]
    config: FitConfig
    diagnostics: dict[str, float] = field(default_factory=dict)


def _weights(sub: CorrelationSeries) -> np.ndarray:
    if sub.sigma is not None:
        return 1.0 / sub.sigma
    # Unweighted data: give every point the same pull per log interval,
    # which keeps dense regions of a non-uniform grid from dominating.
    dlog = np.gradient(np.log(sub.tau))
    return np.sqrt(dlog / dlog.mean())


def _propagated_sigma(func, theta: np.ndarray, cov: np.ndarray) -> float:
    # Delta method with a central-difference gradient; a forward one errs
    # by a relative amount of the order of its step.
    grad = np.empty(theta.size)
    for j in range(theta.size):
        step = np.zeros(theta.size)
        step[j] = 1e-6 * max(abs(theta[j]), 1e-12)
        grad[j] = (func(theta + step) - func(theta - step)) / (2.0 * step[j])
    var = float(grad @ cov @ grad)
    return math.sqrt(max(var, 0.0))


def _best_start(residual, starts, table, cfg: FitConfig, refit: bool) -> LeastSquaresResult:
    best, bounds = None, _bounds(table)
    for x0 in starts:
        res = least_squares(residual, x0, bounds, max_iterations=cfg.max_iterations, refit=refit)
        if best is None or res.cost < best.cost:
            best = res
    if not best.converged:
        raise FitConvergenceError(
            f"optimizer stopped after {best.iterations} iterations "
            f"at cost {best.cost:.3e}: {best.message}"
        )
    return best


def _bounds(table) -> tuple[np.ndarray, np.ndarray]:
    return np.array([a for _, _, a, _ in table]), np.array([b for _, _, _, b in table])


def _init_start(init: dict[str, float], coords) -> np.ndarray:
    """The start ``init`` gives for ``coords``, (name, log10?) pairs in
    optimizer order. Raises :class:`ValueError` naming a missing key, a
    value that is not a real number (a bool is not) or not finite, or a log
    coordinate's that is not positive."""
    x0 = []
    for name, log in coords:
        if name not in init:
            raise ValueError(f"init must name {name!r}")
        value = init[name]
        if not _is_real(value):
            raise ValueError(f"init[{name!r}] must be a real number")
        if not math.isfinite(value):
            raise ValueError(f"init[{name!r}] must be finite")
        if log and value <= 0.0:
            raise ValueError(f"init[{name!r}] must be positive")
        x0.append(math.log10(value) if log else value)
    return np.array(x0, dtype=float)


def _stage(
    table,
    best: LeastSquaresResult,
    values: dict[str, float],
    n_points: int,
    **propagated,
) -> FitStage:
    """The stage's outcome. Sigmas are in value units: ``value * ln10 * sd``
    for a log coordinate, ``sd`` for a linear one, plus the delta-method
    sigma of each ``propagated`` function of the coordinates; a refit,
    which has no covariance, gets none."""
    lo, hi = _bounds(table)
    on_bound = bool(np.any((best.x == lo) | (best.x == hi)))
    sigma = {}
    if best.cov is not None:
        ln10 = math.log(10.0)
        for pos, (name, log, _, _) in enumerate(table):
            sd = math.sqrt(max(best.cov[pos, pos], 0.0))
            sigma[name] = values[name] * ln10 * sd if log else sd
        for name, func in propagated.items():
            sigma[name] = _propagated_sigma(func, best.x, best.cov)
    return FitStage(
        values, sigma, best.cost, best.iterations, best.converged, best.message, n_points, on_bound
    )


def _slow_rates(theta: np.ndarray) -> tuple[tuple[float, float], tuple[float, float]]:
    # Stage coordinates inside their box always map to valid rates.
    log_tl, log_td1, log_td2, p1 = theta.tolist()[:4]
    return _switching_rates(10.0 ** log_tl, 10.0 ** log_td1, 10.0 ** log_td2, p1)


def _slow_stats(theta: np.ndarray) -> PeriodStatistics:
    return period_statistics(*_slow_rates(theta))


def fit_slow(
    series: CorrelationSeries,
    config: FitConfig | None = None,
    init: dict[str, float] | None = None,
    refit: bool = False,
) -> FitStage:
    """Fit the bunching factor above the split delay.

    Returns mean period durations ``T_L``, ``T_D1``, ``T_D2``, branching
    fraction ``p1`` and the implied ``P_L``, ordered so that ``T_D1`` is
    the longer dark period. The sigmas also carry the four switching
    rates ``p_LD_i`` and ``p_DL_i`` in the same order, which
    :func:`fit_isc` turns into its own. Raises
    :class:`DegenerateFitError` when the data show no bunching to fit.
    ``init`` replaces the four heuristic starts by one at its values. It
    must name ``T_L``, ``T_D1``, ``T_D2``, ``p1``, and ``amplitude`` under
    ``free_amplitude``, all finite and the periods positive, or
    :class:`ValueError` names the key; other keys are ignored. ``refit``
    marks a bootstrap refit (see :func:`least_squares`): the stage stops
    within 1e-3 standard errors and carries no sigmas.
    """
    cfg = config or FitConfig()
    sub = series.restrict(tau_min=cfg.split_tau)
    if len(sub) < 8:
        raise InsufficientDataError("need at least 8 points above the split delay")
    tau, y = sub.tau, sub.g
    w = _weights(sub)
    free_amp = cfg.free_amplitude

    def residual(theta: np.ndarray) -> np.ndarray:
        amp = theta[4] if free_amp else 1.0
        (ld1, ld2), (dl1, dl2) = _slow_rates(theta)
        return w * (amp * _blink_factor(tau, ld1, ld2, dl1, dl2) - y)

    table = _SLOW + _AMPLITUDE if free_amp else _SLOW
    if init is not None:
        starts = [_init_start(init, [(name, log) for name, log, _, _ in table])]
    else:
        head = max(3, len(sub) // 20)
        amp = max(float(np.mean(y[:head])) - 1.0, 1e-8)
        target = 1.0 + amp / math.e
        below = np.nonzero(y < target)[0]
        tau_e = float(tau[below[0]]) if below.size else float(np.median(tau))
        starts = []
        for f1, f2, p in ((1.0, 0.2, 0.3), (2.0, 0.5, 0.1), (0.5, 0.1, 0.5), (3.0, 1.0, 0.15)):
            t_d1 = f1 * tau_e
            t_d2 = f2 * tau_e
            t_l = (p * t_d1 + (1.0 - p) * t_d2) / amp
            x0 = [math.log10(t_l), math.log10(t_d1), math.log10(t_d2), p]
            if free_amp:
                x0.append(1.0)
            starts.append(np.array(x0))

    best = _best_start(residual, starts, table, cfg, refit)
    stats = _slow_stats(best.x)

    amp_fit = float(best.x[4]) if free_amp else 1.0
    # Residual scale in g units, not in weighted units, so the
    # resolvability threshold does not depend on the weighting scheme.
    rms = float(np.sqrt(np.mean((amp_fit * blink_factor(tau, stats) - y) ** 2)))
    bunching = 1.0 / stats.P_L - 1.0
    if bunching < max(1e-4, 3.0 * rms / math.sqrt(len(sub))):
        raise DegenerateFitError(
            "no resolvable bunching above the split delay; the record looks "
            "like a non-blinking emitter"
        )

    values = {
        "T_L": stats.T_L,
        "T_D1": stats.T_D[0],
        "T_D2": stats.T_D[1],
        "p1": stats.p1,
        "P_L": stats.P_L,
    }
    if free_amp:
        values["amplitude"] = amp_fit
    stage = _stage(
        table,
        best,
        values,
        len(sub),
        P_L=lambda t: _slow_stats(t).P_L,
        p_LD_1=lambda t: _slow_rates(t)[0][0],
        p_LD_2=lambda t: _slow_rates(t)[0][1],
        p_DL_1=lambda t: _slow_rates(t)[1][0],
        p_DL_2=lambda t: _slow_rates(t)[1][1],
    )
    sigma = stage.sigma
    if values["T_D1"] < values["T_D2"]:
        values["T_D1"], values["T_D2"] = values["T_D2"], values["T_D1"]
        values["p1"] = 1.0 - values["p1"]
        if sigma:
            for first, second in (("T_D1", "T_D2"), ("p_LD_1", "p_LD_2"), ("p_DL_1", "p_DL_2")):
                sigma[first], sigma[second] = sigma[second], sigma[first]
    return stage


def fit_fast(
    series: CorrelationSeries,
    plateau: float,
    config: FitConfig | None = None,
    init: dict[str, float] | None = None,
    slow_stats: PeriodStatistics | None = None,
    refit: bool = False,
) -> FitStage:
    """Fit the two-level structure below the split delay.

    The bunching plateau enters as a fixed scale determined by the slow
    stage. With ``slow_stats`` the constant is sharpened into the full
    slow-factor shape, which removes the small residual slope the factor
    still has below the split; the full protocol always passes it.
    Returns ``A31``, ``Omega31`` and the background rate ``I_sc``.
    ``init`` replaces the four heuristic starts by one at its values. It
    must name ``A31`` and ``Omega31``, finite and positive, and a finite
    ``I_sc``, which sets the background ratio, or :class:`ValueError`
    names the key; other keys are ignored. ``refit`` works as for
    :func:`fit_slow`.
    """
    cfg = config or FitConfig()
    if not (plateau >= 1.0 and math.isfinite(plateau)):
        raise ValueError("plateau must be finite and at least one")
    sub = series.restrict(tau_max=cfg.split_tau)
    if len(sub) < 6:
        raise InsufficientDataError("need at least 6 points below the split delay")
    tau, y = sub.tau, sub.g
    w = _weights(sub)
    if slow_stats is None:
        envelope = np.full(tau.size, plateau)
    else:
        envelope = plateau * slow_stats.P_L * blink_factor(tau, slow_stats)

    def residual(theta: np.ndarray) -> np.ndarray:
        log_a, log_omega, ratio = theta.tolist()
        model = _g2(tau, 10.0 ** log_a, 10.0 ** log_omega)
        return w * (envelope * (model + ratio) / (1.0 + ratio) - y)

    if init is not None:
        x0 = _init_start(init, (("A31", True), ("Omega31", True), ("I_sc", False)))
        # The ratio coordinate follows from I_sc and the start's own rates.
        x0[2] = x0[2] / light_intensity(10.0 ** x0[0], 10.0 ** x0[1])
        starts = [x0]
    else:
        v0 = min(max(float(y[0]) / plateau, 1e-4), 0.98)
        ratio0 = v0 / (1.0 - v0)
        level = plateau * (v0 + (1.0 - v0) * (1.0 - 1.0 / math.e))
        above = np.nonzero(y >= level)[0]
        tau_r = float(tau[above[0]]) if above.size else float(tau[len(sub) // 2])
        a0 = 4.0 / (3.0 * tau_r)
        starts = [
            np.array([math.log10(a0), math.log10(f * a0), ratio0])
            for f in (0.5, 1.0, 2.0)
        ]
        starts.append(np.array([math.log10(3.0 * a0), math.log10(a0), ratio0]))

    best = _best_start(residual, starts, _FAST, cfg, refit)
    a31 = 10.0 ** best.x[0]
    omega31 = 10.0 ** best.x[1]
    ratio = float(best.x[2])
    i_sc = ratio * light_intensity(a31, omega31)

    def isc_of(theta: np.ndarray) -> float:
        return theta[2] * light_intensity(10.0 ** theta[0], 10.0 ** theta[1])

    values = {"A31": a31, "Omega31": omega31, "I_sc": i_sc, "ratio": ratio}
    return _stage(_FAST, best, values, len(sub), I_sc=isc_of)


def fit_isc(slow: FitStage, fast: FitStage) -> FitStage:
    """Shelving and deshelving coefficients of the slow and fast stages.

    Runs no optimizer: ``A21_i = p_DL_i`` and ``A32_i = p_LD_i /
    saturation_factor(A31, Omega31)``, with the switching rates of the
    slow stage's statistics (longer dark period first) and their sigmas,
    and the fast stage's ``A31`` and ``Omega31``. A bootstrap refit's
    slow stage carries no sigmas, and then neither does this one.
    """
    v, s = slow.values, slow.sigma
    (ld1, ld2), (dl1, dl2) = rates_from_statistics(v["T_L"], (v["T_D1"], v["T_D2"]), v["p1"])
    sat = saturation_factor(fast.values["A31"], fast.values["Omega31"])
    values = {"A32_1": ld1 / sat, "A32_2": ld2 / sat, "A21_1": dl1, "A21_2": dl2}
    sigma = {}
    if s:
        sigma = {
            "A32_1": s["p_LD_1"] / sat,
            "A32_2": s["p_LD_2"] / sat,
            "A21_1": s["p_DL_1"],
            "A21_2": s["p_DL_2"],
        }
    return FitStage(
        values, sigma, slow.cost, 0, True, "derived from the slow and fast stages", slow.n_points
    )


def _flatten(stages: dict[str, FitStage], attr: str) -> dict[str, float]:
    """Reported ``values`` or ``sigma`` of the stages that ran, in report order."""
    return {
        key: getattr(stages[name], attr)[key]
        for name, keys in STAGE_KEYS.items()
        if name in stages
        for key in keys
    }


def _pipeline(
    series: CorrelationSeries,
    cfg: FitConfig,
    init: dict[str, float] | None = None,
    refit: bool = False,
) -> tuple[dict[str, FitStage], dict[str, float], PeriodStatistics]:
    slow = fit_slow(series, cfg, init=init, refit=refit)
    v = slow.values
    amp = v.get("amplitude", 1.0)
    stats = period_statistics(*rates_from_statistics(v["T_L"], (v["T_D1"], v["T_D2"]), v["p1"]))
    fast = fit_fast(series, amp / v["P_L"], cfg, init=init, slow_stats=stats, refit=refit)
    isc = fit_isc(slow, fast)
    stages = {"slow": slow, "fast": fast, "isc": isc}
    flat = _flatten(stages, "values")
    if cfg.free_amplitude:
        flat["amplitude"] = amp
    return stages, flat, stats


def fit_full(
    series: CorrelationSeries, config: FitConfig | None = None
) -> FitResult:
    """Run the three-stage protocol and assemble the full parameter set.

    Uncertainties come from a residual bootstrap (resampling the fit
    residuals onto the fitted curve and refitting) when
    ``config.bootstrap_resamples`` is positive, otherwise from the
    per-stage Jacobians. The bootstrap is deterministic for a fixed
    ``bootstrap_seed``. Its refits stop within 1e-3 standard errors (see
    :func:`least_squares`); ``diagnostics["bootstrap_on_bound"]`` counts
    the successful refits whose slow stage ended with a coordinate on its
    box edge.
    """
    cfg = config or FitConfig()
    stages, flat, stats = _pipeline(series, cfg)
    params = PhotoPhysicalParams.from_dict(
        {key: flat[key] for name in ("fast", "isc") for key in STAGE_KEYS[name]}
    )

    sigma = _flatten(stages, "sigma")
    diagnostics: dict[str, float] = {"bootstrap_resamples": 0.0}
    if cfg.free_amplitude:
        diagnostics["amplitude"] = flat["amplitude"]
        sigma["amplitude"] = stages["slow"].sigma["amplitude"]

    if cfg.bootstrap_resamples > 0:
        model = flat.get("amplitude", 1.0) * g_total(series.tau, params)
        resid = series.g - model
        rng = np.random.Generator(
            np.random.Philox(key=[int(cfg.bootstrap_seed), 3])
        )
        inner = replace(cfg, bootstrap_resamples=0)
        samples: dict[str, list[float]] = {
            key: [] for keys in STAGE_KEYS.values() for key in keys
        }
        failures = on_bound = 0
        npts = len(series)
        for _ in range(cfg.bootstrap_resamples):
            draw = resid[rng.integers(0, npts, npts)]
            try:
                resampled = CorrelationSeries(
                    series.tau, model + draw, series.sigma
                )
                stages_b, flat_b, _ = _pipeline(resampled, inner, init=flat, refit=True)
            except (FitConvergenceError, DegenerateFitError, ValueError):
                failures += 1
                continue
            on_bound += stages_b["slow"].on_bound
            for key, draws in samples.items():
                draws.append(flat_b[key])
        n_ok = cfg.bootstrap_resamples - failures
        diagnostics["bootstrap_resamples"] = float(n_ok)
        diagnostics["bootstrap_failures"] = float(failures)
        diagnostics["bootstrap_on_bound"] = float(on_bound)
        if n_ok >= 2:
            for key, draws in samples.items():
                sigma[key] = float(np.std(draws, ddof=1))
        else:
            raise FitConvergenceError(
                "bootstrap produced fewer than two successful refits"
            )

    return FitResult(
        params=params,
        stats=stats,
        sigma=sigma,
        stages=stages,
        config=cfg,
        diagnostics=diagnostics,
    )
