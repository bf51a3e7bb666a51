"""Analytic intensity correlation of a blinking driven emitter.

The full normalized correlation factorizes into a fast part, the
antibunching and Rabi structure of the driven transition, and a slow part,
the bunching hump produced by dark periods. :func:`g_total` evaluates the
product on arbitrary delay grids; the pieces are exposed separately
because the fitting stages work on one factor at a time.

Delays are in seconds, rates in 1/s. All evaluators accept scalars or
arrays and return float arrays of matching shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError
from .fileio import atomic_write_text, format_float, plain_number
from .markov import _DEGENERATE_GAP, build_rate_matrix, propagator, three_state_chain
from .params import (
    PeriodStatistics,
    PhotoPhysicalParams,
    _relaxation,
    light_intensity,
    period_statistics,
    statistics_from_params,
)

__all__ = [
    "CorrelationSeries",
    "g2",
    "g2_mod",
    "p_ll",
    "blink_factor",
    "g_total",
    "eval_curve",
    "log_grid",
    "read_series",
    "write_series",
]


def _as_delay_array(tau) -> np.ndarray:
    tau = np.asarray(tau, dtype=float)
    if tau.size and (not np.all(np.isfinite(tau)) or np.any(tau < 0.0)):
        raise ValueError("delays must be finite and non-negative")
    return tau


def g2(tau, A31: float, Omega31: float) -> np.ndarray:
    """Normalized second-order correlation of the driven two-level
    transition alone.

    Starts at zero (antibunching), relaxes to one with rate 3*A31/4 and,
    for 16*Omega31^2 > A31^2, oscillates at the effective Rabi frequency
    on the way. The over- and critically damped regimes are the analytic
    continuation of the same expression and join it smoothly.
    """
    tau = _as_delay_array(tau)
    A = float(A31)
    W = float(Omega31)
    if A <= 0.0:
        raise ValueError("A31 must be positive")
    if W < 0.0:
        raise ValueError("Omega31 must be non-negative")
    return _g2(tau, A, W)


def _g2(tau: np.ndarray, A, W) -> np.ndarray:
    """:func:`g2` on checked delays and rates (``A > 0``, ``W >= 0``). The
    rates are floats, or columns of shape ``(m, 1)`` holding m rate pairs,
    which give one row of ``m`` by ``tau.size`` each."""
    r = 0.75 * A
    disc = 16.0 * W * W - A * A
    scale = 16.0 * W * W + A * A
    critical = abs(disc) <= 1e-12 * scale
    if not isinstance(disc, np.ndarray):
        regime = "critical" if critical else "under" if disc > 0.0 else "over"
        return 1.0 - _envelope(tau, r, disc, regime)
    out = np.empty((disc.shape[0], tau.size))
    for regime, rows in (
        ("critical", critical),
        ("under", ~critical & (disc > 0.0)),
        ("over", ~critical & (disc <= 0.0)),
    ):
        rows = rows[:, 0]
        if rows.any():
            out[rows] = 1.0 - _envelope(tau, r[rows], disc[rows], regime)
    return out


def _envelope(tau: np.ndarray, r, disc, regime: str) -> np.ndarray:
    """The damped part of :func:`_g2` in one regime of ``disc``."""
    if regime == "critical":
        # Removable point: both trig branches limit to (1 + r*tau).
        return np.exp(-r * tau) * (1.0 + r * tau)
    if regime == "under":
        gamma = 0.25 * np.sqrt(disc)
        return np.exp(-r * tau) * (np.cos(gamma * tau) + (r / gamma) * np.sin(gamma * tau))
    kappa = 0.25 * np.sqrt(-disc)
    c = r / kappa
    x = kappa * tau
    # cosh/sinh are exact for moderate arguments; far out only the slow
    # exponential survives, which avoids overflow in cosh.
    grow = (kappa - r) * tau
    small = x < 20.0
    return np.where(
        small,
        np.exp(-r * tau) * (np.cosh(np.minimum(x, 20.0)) + c * np.sinh(np.minimum(x, 20.0))),
        0.5 * (1.0 + c) * np.exp(grow),
    )


def g2_mod(tau, A31: float, Omega31: float, I_sc: float) -> np.ndarray:
    """Two-level correlation diluted by an uncorrelated background.

    The background adds a flat rate ``I_sc`` on top of the emitter rate,
    so the contrast of the fast structure shrinks by the intensity
    weights: ``(I_L * g2 + I_sc) / (I_L + I_sc)``. With a background, a
    drive so weak that ``I_L`` underflows to zero raises
    :class:`DegenerateInputError`.
    """
    I_sc = float(I_sc)
    if I_sc < 0.0:
        raise ValueError("I_sc must be non-negative")
    base = g2(tau, A31, Omega31)
    if I_sc == 0.0:
        return base
    intensity = light_intensity(A31, Omega31)
    if intensity == 0.0:
        raise DegenerateInputError(
            f"no background ratio at A31 = {A31!r}, Omega31 = {Omega31!r}: the light intensity underflows to zero"
        )
    ratio = I_sc / intensity
    return (base + ratio) / (1.0 + ratio)


def _is_degenerate(mu1: float, mu2: float) -> bool:
    # The two-exponential closed forms divide by the eigenvalue splitting.
    return mu1 - mu2 <= _DEGENERATE_GAP * abs(mu2)


def _three_state_pll_expm(tau: np.ndarray, stats: PeriodStatistics) -> np.ndarray:
    chain = three_state_chain(stats, 1.0)
    prop = propagator(build_rate_matrix(chain), tau)
    return prop[..., 0, 0]


def p_ll(tau, stats: PeriodStatistics) -> np.ndarray:
    """Probability of the emitter being light a delay ``tau`` after a
    moment at which it was light.

    Decays from one to the stationary weight ``stats.P_L`` on the two
    relaxation eigenvalues of the period process. Near-degenerate
    eigenvalues are routed through the matrix exponential instead of the
    closed two-exponential form.
    """
    tau = _as_delay_array(tau)
    if _is_degenerate(stats.mu1, stats.mu2):
        return _three_state_pll_expm(tau, stats)

    ld1, ld2 = stats.p_LD
    dl1, dl2 = stats.p_DL
    mu1, mu2 = stats.mu1, stats.mu2
    split = mu1 - mu2

    def weight(mu: float) -> float:
        return ld1 * (dl2 + mu) + ld2 * (dl1 + mu)

    c1 = -weight(mu1) / (mu1 * split)
    c2 = weight(mu2) / (mu2 * split)
    return stats.P_L + c1 * np.exp(mu1 * tau) + c2 * np.exp(mu2 * tau)


def blink_factor(tau, stats: PeriodStatistics) -> np.ndarray:
    """Slow bunching factor contributed by the dark periods.

    Equals ``p_ll(tau) / P_L``: one at long delays, ``1 / P_L`` at zero
    delay. Written directly in the switching rates so that molecules
    which never blink (infinite ``T_L``) evaluate to exactly one.
    """
    return _blink_factor(_as_delay_array(tau), *stats.p_LD, *stats.p_DL)


def _blink_factor(tau: np.ndarray, ld1, ld2, dl1, dl2) -> np.ndarray:
    """:func:`blink_factor` on checked delays, straight from the four
    switching rates (finite, ``ld_i >= 0``, ``dl_i > 0``). The rates are
    floats, or columns of shape ``(m, 1)`` holding m rate sets, which give
    one row of ``m`` by ``tau.size`` each. Sets with near-degenerate
    eigenvalues take the matrix exponential one at a time; the propagator's
    :class:`DegenerateInputError` there is raised for floats, and turns
    that set's row into NaN for columns. For floats, closed-form
    coefficients that overflow raise it too."""
    mu1, mu2, p_l = _relaxation(ld1, ld2, dl1, dl2)
    degenerate = _is_degenerate(mu1, mu2)
    if not isinstance(degenerate, np.ndarray):
        if degenerate:
            return _degenerate_factor(tau, ld1, ld2, dl1, dl2, p_l)
        return _closed_factor(tau, ld1, ld2, dl1, dl2, mu1, mu2)
    rows = ~degenerate[:, 0]
    if rows.all():
        return _closed_factor(tau, ld1, ld2, dl1, dl2, mu1, mu2)
    out = np.empty((rows.size, tau.size))
    out[rows] = _closed_factor(tau, *(v[rows] for v in (ld1, ld2, dl1, dl2, mu1, mu2)))
    for i in np.flatnonzero(~rows):
        try:
            out[i] = _degenerate_factor(tau, *(float(v[i, 0]) for v in (ld1, ld2, dl1, dl2, p_l)))
        except DegenerateInputError:
            out[i] = np.nan
    return out


def _degenerate_factor(tau, ld1, ld2, dl1, dl2, p_l) -> np.ndarray:
    stats = period_statistics((ld1, ld2), (dl1, dl2))
    return _three_state_pll_expm(tau, stats) / p_l


def _closed_factor(tau, ld1, ld2, dl1, dl2, mu1, mu2) -> np.ndarray:
    gamma = 0.5 * (mu1 - mu2)
    sigma_l = ld1 + ld2
    alpha = ld1 / dl1 + ld2 / dl2
    beta = (
        ld1 * dl2 / dl1
        + ld2 * dl1 / dl2
        - alpha * sigma_l
        - sigma_l
    )
    c_plus = 0.5 * alpha + 0.25 * beta / gamma
    c_minus = 0.5 * alpha - 0.25 * beta / gamma
    # Rates far apart overflow beta's products; floats do so silently.
    if not isinstance(c_plus, np.ndarray) and not (math.isfinite(c_plus) and math.isfinite(c_minus)):
        raise DegenerateInputError(
            f"the blink factor is out of float64 range at p_LD = ({ld1!r}, {ld2!r}), p_DL = ({dl1!r}, {dl2!r}): "
            f"its coefficients are c_plus = {c_plus!r}, c_minus = {c_minus!r}"
        )
    # 1 + c_plus e^(mu1 tau) + c_minus e^(mu2 tau), summed in that order, in
    # place: a wide stack's temporaries outgrow the cache.
    out = np.asarray(mu1 * tau)
    np.exp(out, out=out)
    out *= c_plus
    out += 1.0
    slow = np.asarray(mu2 * tau)
    np.exp(slow, out=slow)
    slow *= c_minus
    out += slow
    return out[()]


def g_total(tau, params: PhotoPhysicalParams) -> np.ndarray:
    """Full normalized intensity correlation of the blinking emitter.

    Multiplies the background-diluted two-level correlation by the
    closed-form bunching factor. The same quantity assembled as
    ``g2_mod * (p_ll / P_L)`` shares no exponential bookkeeping with it
    and serves as an independent check.
    """
    tau = _as_delay_array(tau)
    stats = statistics_from_params(params)
    return g2_mod(tau, params.A31, params.Omega31, params.I_sc) * blink_factor(tau, stats)


def log_grid(tau_min: float, tau_max: float, points_per_decade: int = 60) -> np.ndarray:
    """Logarithmic delay grid with a fixed point density per decade.

    Raises :class:`DegenerateInputError` when the span ``tau_max / tau_min``
    is too large for float64, or the point count for a float64 or an array
    index; the command line's ``--grid`` reports that as an input error."""
    tau_min = float(tau_min)
    tau_max = float(tau_max)
    if not (0.0 < tau_min < tau_max):
        raise ValueError("need 0 < tau_min < tau_max")
    if points_per_decade < 1:
        raise ValueError("points_per_decade must be at least 1")
    decades = math.log10(tau_max / tau_min)
    if not math.isfinite(decades):
        raise DegenerateInputError(
            f"a grid from {tau_min!r} to {tau_max!r} s spans too many decades for float64"
        )
    try:
        points = decades * float(points_per_decade)
    except OverflowError:
        points = math.inf
    # Also refuses a density that is not a number.
    if not points < np.iinfo(np.intp).max:
        raise DegenerateInputError(
            f"a grid from {tau_min!r} to {tau_max!r} s at that density has more points "
            "than an array can index"
        )
    return np.geomspace(tau_min, tau_max, max(2, int(round(points)) + 1))


def eval_curve(params: PhotoPhysicalParams, tau=None) -> "CorrelationSeries":
    """Evaluate :func:`g_total` on a delay grid and wrap it as a series.

    Without an explicit grid a default one spanning 0.1 ns to 1 s at 60
    points per decade is used.
    """
    if tau is None:
        tau = log_grid(1e-10, 1.0, 60)
    tau = np.atleast_1d(_as_delay_array(tau))
    return CorrelationSeries(tau=tau, g=g_total(tau, params))


@dataclass(frozen=True)
class CorrelationSeries:
    """A sampled correlation curve.

    ``tau`` must be strictly increasing and positive; ``sigma`` is an
    optional per-point standard error.
    """

    tau: np.ndarray
    g: np.ndarray
    sigma: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau, dtype=float)
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "g", g)
        if tau.ndim != 1 or g.shape != tau.shape:
            raise ValueError("tau and g must be one-dimensional and equally long")
        if tau.size == 0:
            raise ValueError("series must hold at least one point")
        if not np.all(np.isfinite(tau)) or not np.all(np.isfinite(g)):
            raise ValueError("tau and g must be finite")
        if np.any(tau <= 0.0) or np.any(np.diff(tau) <= 0.0):
            raise ValueError("tau must be positive and strictly increasing")
        if self.sigma is not None:
            sigma = np.asarray(self.sigma, dtype=float)
            object.__setattr__(self, "sigma", sigma)
            if sigma.shape != tau.shape:
                raise ValueError("sigma must match tau in shape")
            if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0.0):
                raise ValueError("sigma must be finite and positive")

    def __len__(self) -> int:
        return int(self.tau.size)

    def restrict(self, tau_min: float = 0.0, tau_max: float = math.inf) -> "CorrelationSeries":
        """Sub-series with ``tau_min < tau < tau_max``."""
        keep = (self.tau > tau_min) & (self.tau < tau_max)
        if not np.any(keep):
            raise DegenerateInputError("no points left in the requested delay window")
        sigma = self.sigma[keep] if self.sigma is not None else None
        return CorrelationSeries(self.tau[keep], self.g[keep], sigma)


def write_series(series: CorrelationSeries, path: str) -> None:
    """Write a series as CSV with header ``tau_s,g`` or ``tau_s,g,sigma``."""
    columns = [series.tau, series.g] + ([] if series.sigma is None else [series.sigma])
    rows = [",".join(["tau_s", "g", "sigma"][: len(columns)])]
    rows += [",".join(map(format_float, row)) for row in zip(*columns)]
    atomic_write_text(path, "\n".join(rows) + "\n")


def read_series(path: str) -> CorrelationSeries:
    """Read a CSV written by :func:`write_series`."""
    with open(path) as handle:
        header = handle.readline().strip()
        if header not in ("tau_s,g", "tau_s,g,sigma"):
            raise ValueError(
                f"{path}: header must be 'tau_s,g' or 'tau_s,g,sigma', got {header!r}"
            )
        ncols = header.count(",") + 1
        rows = []
        for lineno, raw in enumerate(handle, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != ncols:
                raise ValueError(f"{path}:{lineno}: expected {ncols} columns")
            try:
                rows.append([float(plain_number(p)) for p in parts])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad number") from exc
    # Columns tau, g and, when written, sigma.
    try:
        return CorrelationSeries(*np.array(rows).reshape(-1, ncols).T.copy())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
