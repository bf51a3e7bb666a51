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
least-squares routine with box bounds and forward-difference Jacobians
(Levenberg-Marquardt damping, More, Lect. Notes Math. 630, 105 (1978));
it is deliberately self-contained so its behaviour is fully pinned by the
tests in this package. A coordinate that sits on its bound while the
gradient pushes it outward takes no step (the active-set rule of
bounded-variable least squares, Stark & Parker, Comput. Stat. 10, 129
(1995)), so a background ratio that fits to zero stops there instead of
crawling along its bound. It solves a stack of problems at once, each row
with its own damping, pins and stop: a stage's starts are one stack over
its curve, and the bootstrap solves all refits of a stage as one stack,
with one model call for every Jacobian probe of the stack and one batched
solve per damping step. A row's arithmetic is the same in any stack, the
same as :func:`least_squares` gives it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    _relaxation,
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
# The widest stack whose rows a stage's model takes one at a time.
_NARROW = 4


def _is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy integer or float, not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the fitting protocol.

    ``split_tau`` (a finite, positive real number) separates the fast and
    slow fitting windows. ``free_amplitude``, a bool, adds one overall
    scale factor to absorb data normalization. ``bootstrap_resamples`` of
    zero disables the bootstrap and falls back to Jacobian uncertainties;
    one, which gives no spread, is refused. It, ``bootstrap_seed`` (in
    [0, 2**63)) and ``max_iterations`` are integers, not bools. No setting
    moves a start or a box: a stage starts from its heuristics or from the
    ``init`` of :func:`fit_slow` and :func:`fit_fast`, which names every
    coordinate of the stage.
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
        if self.bootstrap_resamples < 0 or self.bootstrap_resamples == 1:
            raise ValueError("bootstrap_resamples must be 0 or at least 2")
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


# Why a row of :func:`_solve_stack` stopped, and whether that converged.
_STOPS = (
    ("maximum iterations reached", False),
    ("every coordinate pinned at a bound", True),
    ("step below 1e-3 standard errors", True),
    ("no damping produced further improvement", True),
    ("step and cost change below tolerance", True),
    ("residual or its Jacobian not finite", False),
)
_CAP, _PINNED, _REFIT, _STUCK, _TOLERANCE, _NOT_FINITE = range(len(_STOPS))
_CONVERGED = np.array([ok for _, ok in _STOPS])


def least_squares(
    residual,
    x0,
    bounds=None,
    *,
    max_iterations: int = 200,
    refit: bool = False,
) -> LeastSquaresResult:
    """Damped least squares with box bounds, on one parameter vector.

    ``residual`` maps a parameter vector to a residual vector; the cost is
    its squared norm. Each iteration pins every coordinate that sits on its
    bound while the gradient points out of the box (the active-set rule
    of bounded-variable least squares); the damped normal equations are
    solved over the free ones. Candidates are clipped into the bounds, the
    damping shrinks on accepted steps and grows on rejected ones; a
    candidate whose residual raises :class:`DegenerateInputError` is
    rejected like one that raises the cost. Convergence requires the
    relative step and cost change below 1e-10; no damping that improves,
    or every coordinate pinned, also counts as converged. A residual that
    is not finite at the iterate or a Jacobian probe stops unconverged, and
    so does a start whose sum of squares overflows, at once. ``message``
    names the reason. ``cov`` is ``pinv(J^T J) * cost / dof``, NaN where
    the Jacobian or the cost is not finite.

    ``refit`` is for bootstrap refits: before each damped step the
    undamped Gauss-Newton step ``delta`` is solved, and the loop stops with
    "step below 1e-3 standard errors" once ``delta^T J^T J delta <
    (1e-3)^2 cost / dof``, the distance to the minimum that MINUIT
    estimates (James & Roos, Comput. Phys. Commun. 10, 343 (1975)); a zero
    cost, a singular system or a negative distance skips the test. ``cov``
    is then ``None``.

    Parameters are never evaluated outside the bounds; the finite
    difference step flips direction at the upper bound, and a null column
    from a step below unit scale is taken again at unit scale. This is
    :func:`_best_row` on a stack of one start.
    """
    x = np.asarray(x0, dtype=float).ravel()
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

    def stacked(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        out = [residual(t.copy()) for t in theta]
        out = np.asarray(out[0], dtype=float)[None] if len(out) == 1 else np.array(out, dtype=float)
        if out.ndim != 2:
            raise ValueError("residual must return a vector")
        return out

    return _best_row(stacked, x[None, :], lo, hi, max_iterations, refit)


def _best_row(residual, x0, lo, hi, max_iterations, refit=False, strict=False) -> LeastSquaresResult:
    """The row of least finite cost, the first of equal costs, of the starts
    ``x0`` clipped into the bounds and solved as one stack. If that row did
    not converge, ``strict`` raises :class:`FitConvergenceError` at once."""
    x0 = np.minimum(np.maximum(x0, lo), hi)
    x, r, cost, iterations, stops = _solve_stack(residual, x0, lo, hi, max_iterations, refit)
    i = int(np.argmin(np.where(np.isfinite(cost), cost, np.inf)))
    message, converged = _STOPS[stops[i]]
    if strict and not converged:
        raise FitConvergenceError(
            f"optimizer stopped after {iterations[i]} iterations at cost {cost[i]:.3e}: {message}"
        )
    cov, row, npar = None, slice(i, i + 1), x.shape[1]
    if not refit:
        # pinv's SVD does not converge on a Jacobian that is not finite, and
        # a row that stopped on one, or on a cost that is not, needs none.
        cov = np.full((npar, npar), np.nan)
        if stops[i] != _NOT_FINITE:
            jac = _jacobian(residual, x[row], r[row], np.array([i]), _fd_scale(x0[row]), hi)[0]
            if np.isfinite(jac).all():
                cov = np.linalg.pinv(jac.T @ jac) * (cost[i] / max(r.shape[1] - npar, 1))
    return LeastSquaresResult(x[i], float(cost[i]), cov, int(iterations[i]), converged, message)


def _fd_scale(x: np.ndarray) -> np.ndarray:
    # Finite-difference scale: relative to the start, unit for exact-zero
    # coordinates (a relative step off zero underflows to a null step).
    scale = np.abs(x)
    scale[scale == 0.0] = 1.0
    return scale


def _sumsq(r: np.ndarray) -> list:
    """Each row's ``r @ r``, by the dot product a single vector gets; a sum
    that overflows is ``inf``."""
    with np.errstate(over="ignore"):
        return (r[:, None, :] @ r[:, :, None]).ravel().tolist()


def _solve_rows(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list]:
    """Each ``a[i]^-1 b[i]``, and the rows whose system is singular, whose
    solutions are NaN."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0], []
    except np.linalg.LinAlgError:
        out, singular = np.full(b.shape, np.nan), []
        for i, (ai, bi) in enumerate(zip(a, b)):
            try:
                out[i] = np.linalg.solve(ai, bi)
            except np.linalg.LinAlgError:
                singular.append(i)
        return out, singular


def _jacobian(residual, x, r, rows, scale, hi) -> np.ndarray:
    """Forward-difference Jacobians ``(m, n, k)`` of the stack's ``rows``
    at ``x`` with residuals ``r``. Steps flip direction where they would
    pass the upper bound; all ``m * k`` probes go to ``residual`` in one
    call."""
    m, k = x.shape
    size = np.maximum(np.abs(x), scale)
    h = 1e-6 * size
    # A step that underflows to zero is taken at unit scale.
    if np.count_nonzero(h) < h.size:
        h[h == 0.0] = 1e-6
    step = np.where(x + h <= hi, h, -h)
    probe = x.repeat(k, axis=0)
    probe.reshape(m, k * k)[:, :: k + 1] += step
    diff = residual(probe, rows.repeat(k)).reshape(m, k, -1)
    diff -= r[:, None, :]
    diff /= step[:, :, None]
    # From a start within about 1e-10 of zero the step is lost against the
    # residual, so a null column is taken again at unit scale. A null
    # column at unit scale or above is flat: a smaller retry there would
    # only sample rounding noise.
    retry = size < 1.0
    if np.count_nonzero(retry):
        retry[retry] = ~np.logical_or.reduce(diff[retry], axis=1)
    jac = np.ascontiguousarray(diff.transpose(0, 2, 1))
    if np.count_nonzero(retry):
        again = retry.any(axis=1)
        redo = _jacobian(residual, x[again], r[again], rows[again], np.ones((np.count_nonzero(again), k)), hi)
        jac[again] = np.where(retry[again][:, None, :], redo, jac[again])
    return jac


def _solve_stack(residual, x0, lo, hi, max_iterations, refit):
    """:func:`least_squares` on a stack of problems in one run.

    ``residual(theta, rows)`` maps parameter rows ``(m, k)`` of the
    stack's problems ``rows`` to their residual rows; a row it refuses is
    NaN, and a :class:`DegenerateInputError` refuses all of a call's rows.
    ``x0`` holds one start per problem, inside the bounds ``lo`` and
    ``hi``. Each problem keeps its own damping, pinned coordinates and
    stop, with the arithmetic it gets when solved alone, and leaves the
    stack when it stops. Each iteration builds one ``(m, k, k)`` system
    from the stack's ``J^T J``: a pinned coordinate gets the identity's row
    and column and a zero right-hand side and damping, so it takes no step
    and the free ones are solved without it, and a stopped row gets the
    whole identity. The Jacobian probes, normal equations, damped solves
    and trial residuals of the stack are one numpy call each; each row's
    control runs on Python floats, which for a handful of coordinates
    costs less than numpy calls on tiny arrays. Returns ``[x, r, cost,
    iterations, stops]``, the last indexing ``_STOPS``.
    """
    nrow, npar = x0.shape
    ids = np.arange(nrow)
    x, scale = x0.copy(), _fd_scale(x0.copy())
    r = residual(x, ids)
    cost = _sumsq(r)
    dof = max(r.shape[1] - npar, 1)
    lam = [_START_DAMPING] * nrow
    eye = np.eye(npar)
    out = [np.empty_like(x), np.empty_like(r), np.empty(nrow), np.full(nrow, max_iterations), np.full(nrow, _CAP)]
    # A start whose cost is not finite stops at once; a live row's cost
    # stays finite, as a step that raises it is refused.
    stop = [0 if math.isfinite(c) else _NOT_FINITE for c in cost]

    for it in range(max_iterations + 1):
        if any(stop):
            done = [i for i, s in enumerate(stop) if s]
            keep = [i for i, s in enumerate(stop) if not s]
            for whole, part in zip(out, (x[done], r[done], [cost[i] for i in done], it, [stop[i] for i in done])):
                whole[ids[done]] = part
            ids, x, r, scale = ids[keep], x[keep], r[keep], scale[keep]
            cost, lam = [cost[i] for i in keep], [lam[i] for i in keep]
        m = ids.size
        if not m or it == max_iterations:
            break
        jac = _jacobian(residual, x, r, ids, scale, hi)
        jt = jac.transpose(0, 2, 1)
        # A sum that overflows is not finite, and its row stops below.
        with np.errstate(over="ignore", invalid="ignore"):
            grad, jtj = (jt @ r[:, :, None])[:, :, 0], jt @ jac
        # A wide stack's Jacobian is its largest array: the next one is
        # built without it.
        del jac, jt
        # A coordinate on its bound whose gradient points out of the box
        # is pinned (the active-set rule), and a row whose gradient or J^T J
        # is not finite or whose every coordinate is pinned stops.
        pinned = ((x <= lo) & (grad > 0.0)) | ((x >= hi) & (grad < 0.0))
        finite = np.isfinite(grad).all(axis=1) & np.isfinite(jtj).all(axis=(1, 2))
        stop = np.where(finite, np.where(pinned.all(axis=1), _PINNED, 0), _NOT_FINITE).tolist()
        free = ~pinned & finite[:, None]
        rhs, diag = -grad, np.maximum(jtj.diagonal(axis1=1, axis2=2), 1e-300)
        if not free.all():
            jtj = np.where(free[:, :, None] & free[:, None, :], jtj, eye)
            rhs[~free] = diag[~free] = 0.0
        diag = diag[:, :, None] * eye
        if refit:
            distance = (rhs[:, None, :] @ _solve_rows(jtj, rhs)[0][:, :, None])[:, 0, 0].tolist()
            for i, d in enumerate(distance):
                # J^T J is positive semidefinite: a negative distance is
                # the rounding of a near-singular system, which skips the
                # test too.
                if not stop[i] and cost[i] > 0.0 and 0.0 <= d < _REFIT_TOL**2 * cost[i] / dof:
                    stop[i] = _REFIT

        # Each row raises its damping until a step does not raise its cost;
        # a live row's cost is finite, so a NaN cost is refused too.
        searching = [i for i in range(m) if not stop[i]]
        moved = [False] * m
        x_new, r_new, cost_new = x, r, cost
        while searching:
            step, singular = _solve_rows(jtj + np.array(lam)[:, None, None] * diag, rhs)
            # A row whose system is singular tries no point.
            if len(searching) == m and not singular:
                trial, x_try, rows = searching, x + step, ids
            else:
                trial = [i for i in searching if i not in singular]
                x_try, rows = x[trial] + step[trial], ids[trial]
            x_try = np.minimum(np.maximum(x_try, lo), hi)
            try:
                r_try = residual(x_try, rows) if trial else r[:0]
            except DegenerateInputError:
                r_try = np.full((len(trial), r.shape[1]), np.nan)
            cost_try = _sumsq(r_try)
            won = [j for j, i in enumerate(trial) if cost_try[j] <= cost[i]]
            if len(won) == m:
                x_new, r_new, cost_new = x_try, r_try, cost_try
                moved = [True] * m
                break
            if won:
                if x_new is x:
                    x_new, r_new, cost_new = x.copy(), r.copy(), list(cost)
                rows = [trial[j] for j in won]
                x_new[rows], r_new[rows] = x_try[won], r_try[won]
                for j, i in zip(won, rows):
                    cost_new[i], moved[i] = cost_try[j], True
                searching = [i for i in searching if not moved[i]]
            for i in searching:
                lam[i] *= 10.0
            searching = [i for i in searching if lam[i] <= _MAX_DAMPING]

        step_rel = np.maximum.reduce(np.abs(x_new - x) / np.maximum(np.abs(x_new), scale), axis=1).tolist()
        for i in range(m):
            if moved[i]:
                lam[i] = max(lam[i] / 3.0, 1e-12)
                cost_rel = (cost[i] - cost_new[i]) / max(cost[i], 1e-300)
                if step_rel[i] < _REL_TOL and cost_rel < _REL_TOL:
                    stop[i] = _TOLERANCE
            elif not stop[i]:
                stop[i] = _STUCK
        x, r, cost = x_new, r_new, cost_new
    for whole, part in zip(out, (x, r, cost)):
        whole[ids] = part
    return out


@dataclass(frozen=True)
class FitStage:
    """One stage of the protocol: point values, uncertainties, optimizer
    diagnostics. ``on_bound`` tells whether a coordinate ended exactly on
    its box edge."""

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


def _propagated_sigma(values, theta: np.ndarray, cov: np.ndarray) -> dict[str, float]:
    """The delta-method sigma of each value ``values(probes)`` gives, one
    entry per row of a stack of coordinate rows, evaluated once on the
    ``2k`` central-difference probes of ``theta``; a forward difference
    errs by a relative amount of the order of its step."""
    k = theta.size
    step = 1e-6 * np.maximum(np.abs(theta), 1e-12)
    shift = np.diag(step)
    sigma = {}
    for name, column in values(np.concatenate([theta + shift, theta - shift])).items():
        column = np.ravel(column)
        grad = (column[:k] - column[k:]) / (2.0 * step)
        sigma[name] = math.sqrt(max(float(grad @ cov @ grad), 0.0))
    return sigma


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
    propagated,
) -> FitStage:
    """The stage's outcome. Sigmas are in value units: ``value * ln10 * sd``
    for a log coordinate, ``sd`` for a linear one, plus the delta-method
    sigma of each value ``propagated`` gives (see
    :func:`_propagated_sigma`)."""
    lo, hi = _bounds(table)
    on_bound = bool(np.any((best.x == lo) | (best.x == hi)))
    sigma = {}
    ln10 = math.log(10.0)
    for pos, (name, log, _, _) in enumerate(table):
        sd = math.sqrt(max(best.cov[pos, pos], 0.0))
        sigma[name] = values[name] * ln10 * sd if log else sd
    sigma.update(_propagated_sigma(propagated, best.x, best.cov))
    return FitStage(
        values, sigma, best.cost, best.iterations, best.converged, best.message, n_points, on_bound
    )


def _coords(theta: np.ndarray) -> list:
    """A coordinate vector's entries as floats, or a stack's ``(m, k)``
    columns as contiguous ``(m, 1)`` arrays."""
    return theta.tolist() if theta.ndim == 1 else list(theta.T.copy()[:, :, None])


def _pow10(v):
    """``10.0 ** v`` by Python's float power, also for each entry of an
    array: numpy's power differs from it in the last bit for about one
    value in twenty, and a stack's rows are to equal a vector's."""
    if isinstance(v, float):
        return 10.0**v
    return np.array([10.0**e for e in v.ravel().tolist()]).reshape(v.shape)


def _slow_rates(theta: np.ndarray):
    # Stage coordinates inside their box always map to valid rates.
    log_tl, log_td1, log_td2, p1 = _coords(theta)[:4]
    return _switching_rates(_pow10(log_tl), _pow10(log_td1), _pow10(log_td2), p1)


def _slow_values(theta: np.ndarray, free_amp: bool) -> dict:
    """The slow stage's values at ``theta`` in coordinate order: the period
    statistics of its rates (as :func:`period_statistics` gives them),
    ``P_L`` and the amplitude; floats for a coordinate vector, ``(m, 1)``
    columns for a stack."""
    (ld1, ld2), (dl1, dl2) = _slow_rates(theta)
    sigma_l = ld1 + ld2
    values = {
        "T_L": 1.0 / sigma_l,
        "T_D1": 1.0 / dl1,
        "T_D2": 1.0 / dl2,
        "p1": ld1 / sigma_l,
        "P_L": _relaxation(ld1, ld2, dl1, dl2)[2],
    }
    if free_amp:
        values["amplitude"] = _coords(theta)[4]
    return values


def _longer_first(values: dict, sigma: dict | None = None) -> dict:
    """``values`` of :func:`_slow_values` reported with the longer dark
    period first: where ``T_D1 < T_D2`` the dark periods trade places, ``p1``
    becomes ``1 - p1`` and the sigmas of each dark pair trade places too."""
    t_d1, t_d2, p1 = values["T_D1"], values["T_D2"], values["p1"]
    swap = t_d1 < t_d2
    if isinstance(swap, np.ndarray):
        values.update(T_D1=np.where(swap, t_d2, t_d1), T_D2=np.where(swap, t_d1, t_d2), p1=np.where(swap, 1.0 - p1, p1))
    elif swap:
        values.update(T_D1=t_d2, T_D2=t_d1, p1=1.0 - p1)
        for first, second in (("T_D1", "T_D2"), ("p_LD_1", "p_LD_2"), ("p_DL_1", "p_DL_2")):
            sigma[first], sigma[second] = sigma[second], sigma[first]
    return values


def _fast_inputs(values: dict):
    """The plateau and the switching rates the fast stage takes from the
    slow stage's reported ``values``."""
    rates = _switching_rates(values["T_L"], values["T_D1"], values["T_D2"], values["p1"])
    return values.get("amplitude", 1.0) / values["P_L"], rates


def _valid_plateau(plateau):
    """Whether a plateau (each entry, for a column) is finite and at least one."""
    return (plateau >= 1.0) & np.isfinite(plateau)


def _fast_values(theta: np.ndarray) -> dict:
    """The fast stage's values at a coordinate vector ``theta``."""
    log_a, log_omega, ratio = theta.tolist()
    a31, omega31 = 10.0**log_a, 10.0**log_omega
    return {"A31": a31, "Omega31": omega31, "I_sc": ratio * light_intensity(a31, omega31), "ratio": ratio}


def _isc_values(rates, sat: float) -> dict:
    """The isc stage's values: ``A32_i = p_LD_i / sat``, ``A21_i = p_DL_i``."""
    (ld1, ld2), (dl1, dl2) = rates
    return {"A32_1": ld1 / sat, "A32_2": ld2 / sat, "A21_1": dl1, "A21_2": dl2}


def _slow_residual(tau: np.ndarray, w, y: np.ndarray, free_amp: bool):
    """The slow stage's weighted residual ``residual(theta, rows)`` of a
    stack's coordinate rows against the curves ``y[rows]``."""

    def model(theta: np.ndarray, rows) -> np.ndarray:
        (ld1, ld2), (dl1, dl2) = _slow_rates(theta)
        out = _blink_factor(tau, ld1, ld2, dl1, dl2)
        if free_amp:
            out *= _coords(theta)[4]
        return out

    return _stacked(model, w, y)


def _stacked(model, w, y: np.ndarray):
    """``w * (model(theta, rows) - y[rows])`` for a stack's rows, a row the
    model refuses as NaN. The model takes the rows as columns, except in
    stacks of at most ``_NARROW`` rows, where its float route is faster
    and gives the same bits."""

    def residual(theta: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if len(rows) > _NARROW:
            out = model(theta, rows)
            out -= y[rows]
            out *= w
            return out
        out = np.empty((len(rows), y.shape[-1]))
        for j, (t, i) in enumerate(zip(theta, rows.tolist())):
            try:
                out[j] = w * (model(t, i) - y[i])
            except DegenerateInputError:
                out[j] = np.nan
        return out

    return residual


def _resolved(tau: np.ndarray, y: np.ndarray, theta: np.ndarray, free_amp: bool, rows: np.ndarray):
    """Whether the slow fit at each of a stack's rows ``theta`` shows
    bunching above the noise of its residual against ``y[rows]`` in g
    units, which does not depend on the weighting scheme."""
    rms = np.sqrt(np.mean(_slow_residual(tau, 1.0, y, free_amp)(theta, rows) ** 2, axis=-1))
    p_l = _relaxation(*(rate for pair in _slow_rates(theta) for rate in pair))[2]
    return np.ravel(1.0 / p_l - 1.0) >= np.maximum(1e-4, 3.0 * rms / math.sqrt(tau.size))


def fit_slow(
    series: CorrelationSeries,
    config: FitConfig | None = None,
    init: dict[str, float] | None = None,
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
    :class:`ValueError` names the key; other keys are ignored.
    """
    cfg = config or FitConfig()
    sub = series.restrict(tau_min=cfg.split_tau)
    if len(sub) < 8:
        raise InsufficientDataError("need at least 8 points above the split delay")
    tau, y = sub.tau, sub.g
    free_amp = cfg.free_amplitude
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

    residual = _slow_residual(tau, _weights(sub), np.broadcast_to(y, (len(starts), y.size)), free_amp)
    best = _best_row(residual, np.array(starts), *_bounds(table), cfg.max_iterations, strict=True)
    if not _resolved(tau, y[None], best.x[None], free_amp, np.zeros(1, dtype=int))[0]:
        raise DegenerateFitError(
            "no resolvable bunching above the split delay; the record looks "
            "like a non-blinking emitter"
        )

    def derived(theta: np.ndarray) -> dict:
        (ld1, ld2), (dl1, dl2) = _slow_rates(theta)
        return {"P_L": _relaxation(ld1, ld2, dl1, dl2)[2], "p_LD_1": ld1, "p_LD_2": ld2, "p_DL_1": dl1, "p_DL_2": dl2}

    stage = _stage(table, best, _slow_values(best.x, free_amp), len(sub), derived)
    _longer_first(stage.values, stage.sigma)
    return stage


def _fast_start(init: dict[str, float]) -> np.ndarray:
    x0 = _init_start(init, (("A31", True), ("Omega31", True), ("I_sc", False)))
    # The ratio coordinate follows from I_sc and the start's own rates.
    x0[2] = x0[2] / light_intensity(10.0 ** x0[0], 10.0 ** x0[1])
    return x0


def _fast_residual(tau: np.ndarray, w: np.ndarray, envelope: np.ndarray, y: np.ndarray):
    """The fast stage's weighted residual, as :func:`_slow_residual`'s: the
    two-level shape over ``envelope[rows]``."""

    def model(theta: np.ndarray, rows) -> np.ndarray:
        log_a, log_omega, ratio = _coords(theta)
        return envelope[rows] * (_g2(tau, _pow10(log_a), _pow10(log_omega)) + ratio) / (1.0 + ratio)

    return _stacked(model, w, y)


def fit_fast(
    series: CorrelationSeries,
    plateau: float,
    config: FitConfig | None = None,
    init: dict[str, float] | None = None,
    slow_stats: PeriodStatistics | None = None,
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
    names the key; other keys are ignored.
    """
    cfg = config or FitConfig()
    if not _valid_plateau(plateau):
        raise ValueError("plateau must be finite and at least one")
    sub = series.restrict(tau_max=cfg.split_tau)
    if len(sub) < 6:
        raise InsufficientDataError("need at least 6 points below the split delay")
    tau, y = sub.tau, sub.g
    if slow_stats is None:
        envelope = np.full(tau.size, plateau)
    else:
        envelope = plateau * slow_stats.P_L * blink_factor(tau, slow_stats)
    if init is not None:
        starts = [_fast_start(init)]
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

    shape = (len(starts), y.size)
    residual = _fast_residual(tau, _weights(sub), np.broadcast_to(envelope, shape), np.broadcast_to(y, shape))
    best = _best_row(residual, np.array(starts), *_bounds(_FAST), cfg.max_iterations, strict=True)
    # I_sc per probe, on floats: light_intensity takes no columns.
    return _stage(_FAST, best, _fast_values(best.x), len(sub), lambda p: {"I_sc": [_fast_values(t)["I_sc"] for t in p]})


def fit_isc(slow: FitStage, fast: FitStage) -> FitStage:
    """Shelving and deshelving coefficients of the slow and fast stages.

    Runs no optimizer: ``A21_i = p_DL_i`` and ``A32_i = p_LD_i /
    saturation_factor(A31, Omega31)``, with the switching rates of the
    slow stage's statistics (longer dark period first) and their sigmas,
    and the fast stage's ``A31`` and ``Omega31``. A slow stage without
    sigmas gives none.
    """
    v, s = slow.values, slow.sigma
    rates = rates_from_statistics(v["T_L"], (v["T_D1"], v["T_D2"]), v["p1"])
    sat = saturation_factor(fast.values["A31"], fast.values["Omega31"])
    values = _isc_values(rates, sat)
    sigma = _isc_values(((s["p_LD_1"], s["p_LD_2"]), (s["p_DL_1"], s["p_DL_2"])), sat) if s else {}
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
    series: CorrelationSeries, cfg: FitConfig
) -> tuple[dict[str, FitStage], dict[str, float], PeriodStatistics]:
    slow = fit_slow(series, cfg)
    plateau, rates = _fast_inputs(slow.values)
    stats = period_statistics(*rates)
    fast = fit_fast(series, plateau, cfg, slow_stats=stats)
    isc = fit_isc(slow, fast)
    stages = {"slow": slow, "fast": fast, "isc": isc}
    flat = _flatten(stages, "values")
    if cfg.free_amplitude:
        flat["amplitude"] = slow.values["amplitude"]
    return stages, flat, stats


def _bootstrap(series: CorrelationSeries, cfg: FitConfig, flat: dict[str, float], model: np.ndarray):
    """Residual-bootstrap refits of the slow and fast stages from the main
    fit's values ``flat``, each stage solved as one stack of refits with the
    refit stop rule (see :func:`least_squares`) and reported by the stage
    functions' own rules. Returns the reported values of the successful
    refits, one row each in ``STAGE_KEYS`` order, the failed count and the
    count of successful refits whose slow stage ended with a coordinate on
    its box edge.

    A refit fails where its stage would raise on its own: either stage
    unconverged, no resolvable bunching, or a slow stage whose amplitude
    over ``P_L`` is no valid plateau."""
    rng = np.random.Generator(np.random.Philox(key=[int(cfg.bootstrap_seed), 3]))
    resid = series.g - model
    npts, free_amp = len(series), cfg.free_amplitude
    g = model + np.array([resid[rng.integers(0, npts, npts)] for _ in range(cfg.bootstrap_resamples)])
    table = _SLOW + _AMPLITUDE if free_amp else _SLOW
    lo, hi = _bounds(table)

    sub = series.restrict(tau_min=cfg.split_tau)
    y = g[:, (series.tau > cfg.split_tau)]
    x0 = _init_start(flat, [(name, log) for name, log, _, _ in table])
    x, _, _, _, stops = _solve_stack(
        _slow_residual(sub.tau, _weights(sub), y, free_amp),
        np.tile(x0, (len(g), 1)), lo, hi, cfg.max_iterations, True,
    )
    ok = np.flatnonzero(_CONVERGED[stops])
    ok = ok[_resolved(sub.tau, y, x[ok], free_amp, ok)]
    on_edge = np.any((x == lo) | (x == hi), axis=1)
    slow = _longer_first(_slow_values(x[ok], free_amp))
    plateau, rates = _fast_inputs(slow)
    valid = _valid_plateau(plateau)[:, 0]
    rates = tuple(tuple(v[valid] for v in pair) for pair in rates)

    # fit_fast's envelope, plateau * P_L * blink_factor, on the kernels.
    fast = series.restrict(tau_max=cfg.split_tau)
    envelope = plateau[valid] * _relaxation(*rates[0], *rates[1])[2] * _blink_factor(fast.tau, *rates[0], *rates[1])
    rows = ok[valid]
    xf, _, _, _, stops = _solve_stack(
        _fast_residual(fast.tau, _weights(fast), envelope, g[rows][:, (series.tau < cfg.split_tau)]),
        np.tile(_fast_start(flat), (rows.size, 1)), *_bounds(_FAST), cfg.max_iterations, True,
    )
    done = np.flatnonzero(_CONVERGED[stops])
    slow = {key: slow[key][valid][:, 0] for key in STAGE_KEYS["slow"]}
    draws = []
    for i, theta in zip(done.tolist(), xf[done]):
        values = _fast_values(theta)
        row_rates = tuple(tuple(float(v[i, 0]) for v in pair) for pair in rates)
        values.update(_isc_values(row_rates, saturation_factor(values["A31"], values["Omega31"])))
        values.update((key, slow[key][i]) for key in STAGE_KEYS["slow"])
        draws.append([values[key] for keys in STAGE_KEYS.values() for key in keys])
    return np.array(draws), len(g) - len(draws), int(np.count_nonzero(on_edge[rows[done]]))


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
        draws, failures, on_bound = _bootstrap(series, cfg, flat, model)
        diagnostics["bootstrap_resamples"] = float(len(draws))
        diagnostics["bootstrap_failures"] = float(failures)
        diagnostics["bootstrap_on_bound"] = float(on_bound)
        if len(draws) < 2:
            raise FitConvergenceError(
                "bootstrap produced fewer than two successful refits"
            )
        keys = [key for keys in STAGE_KEYS.values() for key in keys]
        sigma.update((key, float(np.std(column, ddof=1))) for key, column in zip(keys, draws.T.copy()))

    return FitResult(
        params=params,
        stats=stats,
        sigma=sigma,
        stages=stages,
        config=cfg,
        diagnostics=diagnostics,
    )
