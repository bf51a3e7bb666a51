"""Generalized blinking: an arbitrary finite chain of emitting periods.

A :class:`PeriodChain` holds per-period mean intensities and the matrix of
switching rates between periods. The correlation of such a process is a
double sum over period pairs weighted by occupation, intensities and the
period-to-period propagator. The two-dark-level model is the three-state
special case, used as a cross-check against the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ReducibleChainError
from .fileio import atomic_write_text, format_float, plain_number
from .params import PeriodStatistics

__all__ = [
    "PeriodChain",
    "build_rate_matrix",
    "propagator",
    "stationary",
    "g_general",
    "three_state_chain",
    "read_chain",
    "write_chain",
]

# Relative eigenvalue gap below which the spectral propagator and the
# two-exponential closed forms in ``correlation`` give way to the
# matrix exponential.
_DEGENERATE_GAP = 1e-8


@dataclass(frozen=True)
class PeriodChain:
    """Mean intensities and switching rates of a multi-period emitter.

    ``rates[i, j]`` is the rate of jumping from period ``i`` to period
    ``j``; diagonal entries must be zero. Intensities are mean photon
    rates while in each period.
    """

    intensities: np.ndarray
    rates: np.ndarray

    def __post_init__(self) -> None:
        intensities = np.asarray(self.intensities, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        object.__setattr__(self, "intensities", intensities)
        object.__setattr__(self, "rates", rates)
        n = intensities.size
        if intensities.ndim != 1 or n == 0:
            raise ValueError("intensities must be a non-empty vector")
        if rates.shape != (n, n):
            raise ValueError("rates must be square and match intensities")
        if not np.all(np.isfinite(intensities)) or not np.all(np.isfinite(rates)):
            raise ValueError("intensities and rates must be finite")
        if np.any(intensities < 0.0):
            raise ValueError("intensities must be non-negative")
        off = rates.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0.0):
            raise ValueError("off-diagonal rates must be non-negative")
        if np.any(np.diag(rates) != 0.0):
            raise ValueError("diagonal rate entries must be zero")

    @property
    def n(self) -> int:
        return int(self.intensities.size)


def build_rate_matrix(chain: PeriodChain) -> np.ndarray:
    """Generator matrix: off-diagonal jump rates, diagonal minus row sums."""
    b = chain.rates.astype(float).copy()
    np.fill_diagonal(b, 0.0)
    np.fill_diagonal(b, -b.sum(axis=1))
    return b


def stationary(b: np.ndarray) -> np.ndarray:
    """Stationary distribution ``pi`` with ``pi @ B == 0`` and unit sum.

    Raises :class:`ReducibleChainError` when the chain has more than one
    closed communicating class, in which case no unique distribution
    exists.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if b.shape != (n, n):
        raise ValueError("rate matrix must be square")
    if n > 1:
        svals = np.linalg.svd(b, compute_uv=False)
        tol = max(svals[0], 1.0) * 1e-12
        if np.sum(svals < tol) > 1:
            raise ReducibleChainError(
                "rate matrix has a multi-dimensional null space; "
                "the chain is reducible"
            )
    bordered = np.vstack([b.T, np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, *_ = np.linalg.lstsq(bordered, rhs, rcond=None)
    if np.any(pi < -1e-10):
        raise ReducibleChainError("stationary solve produced negative weights")
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def propagator(b: np.ndarray, tau):
    """Transition probabilities ``P(tau) = expm(B * tau)``.

    Uses the spectral decomposition ``V diag(exp(lambda tau)) V^-1`` when
    the eigenvalues are well separated and falls back to the
    scaling-and-squaring matrix exponential otherwise. ``tau`` may be a
    scalar (returns ``(n, n)``) or a vector (returns ``(m, n, n)``).
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if b.shape != (n, n):
        raise ValueError("rate matrix must be square")
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    if np.any(tau_arr < 0.0) or not np.all(np.isfinite(tau_arr)):
        raise ValueError("delays must be finite and non-negative")

    eigvals, vecs = np.linalg.eig(b)
    scale = np.max(np.abs(eigvals))
    gaps = np.abs(np.subtract.outer(eigvals, eigvals))
    gap = np.min(gaps[~np.eye(n, dtype=bool)], initial=np.inf)

    out = None
    if gap >= _DEGENERATE_GAP * scale:
        phases = np.exp(np.outer(tau_arr, eigvals))
        out_c = (vecs * phases[:, None, :]) @ np.linalg.inv(vecs)
        if np.max(np.abs(out_c.imag)) <= 1e-10:
            out = out_c.real
    if out is None:
        # Imported here: ``import blinkcorr`` does not load scipy.linalg.
        import scipy.linalg

        out = np.stack([scipy.linalg.expm(b * t) for t in tau_arr])

    row_err = np.max(np.abs(out.sum(axis=2) - 1.0))
    if row_err > 1e-9:
        raise DegenerateInputError(
            f"propagator rows deviate from unit sum by {row_err:.3e}"
        )

    if np.ndim(tau) == 0:
        return out[0]
    return out


def g_general(tau, chain: PeriodChain, g_periods=None) -> np.ndarray:
    """Normalized correlation of a multi-period emitter.

    ``g_periods`` maps each period to its internal normalized correlation
    as a callable of the delay array; entries may be ``None`` (flat, no
    internal structure), and periods with zero intensity never contribute.
    """
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    n = chain.n
    if g_periods is None:
        g_periods = [None] * n
    if len(g_periods) != n:
        raise ValueError("need one correlation entry per period")

    intens = chain.intensities
    b = build_rate_matrix(chain)
    pi = stationary(b)
    mean_rate = float(pi @ intens)
    if mean_rate <= 0.0:
        raise DegenerateInputError("chain emits no light in the stationary state")

    gmat = np.ones((tau_arr.size, n))
    for j, fn in enumerate(g_periods):
        if fn is not None and intens[j] > 0.0:
            gmat[:, j] = np.asarray(fn(tau_arr), dtype=float)

    prop = propagator(b, tau_arr)
    num = np.einsum("i,i,tij,j,tj->t", pi, intens, prop, intens, gmat)
    out = num / mean_rate**2
    if np.ndim(tau) == 0:
        return out[0]
    return out


def three_state_chain(stats: PeriodStatistics, light_rate: float) -> PeriodChain:
    """Light/dark1/dark2 chain equivalent to the two-dark-level model."""
    ld1, ld2 = stats.p_LD
    dl1, dl2 = stats.p_DL
    rates = np.array(
        [
            [0.0, ld1, ld2],
            [dl1, 0.0, 0.0],
            [dl2, 0.0, 0.0],
        ]
    )
    return PeriodChain(
        intensities=np.array([float(light_rate), 0.0, 0.0]), rates=rates
    )


def write_chain(chain: PeriodChain, path: str) -> None:
    """Write a chain as plain text: size, intensity row, rate rows."""
    lines = ["# period chain: n, intensities (1/s), rate matrix rows (1/s)"]
    lines.append(str(chain.n))
    lines.append(" ".join(format_float(v) for v in chain.intensities))
    for row in chain.rates:
        lines.append(" ".join(format_float(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_chain(path: str) -> PeriodChain:
    """Read a chain file written by :func:`write_chain`."""
    rows: list[list[float]] = []
    with open(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                rows.append([float(plain_number(tok)) for tok in line.split()])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad number") from exc
    if not rows:
        raise ValueError(f"{path}: empty chain file")
    if len(rows[0]) != 1 or not rows[0][0].is_integer():
        raise ValueError(f"{path}: first entry must be the period count")
    n = int(rows[0][0])
    if n < 1:
        raise ValueError(f"{path}: period count must be positive")
    if len(rows) != n + 2:
        raise ValueError(f"{path}: expected intensity row plus {n} rate rows")
    if len(rows[1]) != n:
        raise ValueError(f"{path}: intensity row must hold {n} values")
    for k in range(n):
        if len(rows[2 + k]) != n:
            raise ValueError(f"{path}: rate row {k} must hold {n} values")
    return PeriodChain(
        intensities=np.array(rows[1]),
        rates=np.array(rows[2:]),
    )
