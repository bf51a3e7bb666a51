"""Reference model of a blinking four-level emitter, written apart from
blinkcorr.

Every quantity here comes from the model's defining equations, solved
with numpy and scipy only: the two-level optical Bloch equations and the
three-state period generator, both through ``scipy.linalg.expm``; the
no-jump survival of the driven transition from the 2x2 conditional
Hamiltonian; and a record generator that draws light and dark periods
and the photons inside them. The benchmark checks the program's outputs
against these, so nothing in this module imports the program.

Conventions match the program's documented model: the drive couples
ground and excited state with H = (Omega31/2)(|g><e| + |e><g|), the
excited state decays at A31, light periods end at the shelving
coefficients times Omega31^2 / (A31^2 + Omega31^2), and dark periods end
at the deshelving coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

PARAM_KEYS = ("A31", "Omega31", "A32_1", "A32_2", "A21_1", "A21_2", "I_sc")


@dataclass(frozen=True)
class Emitter:
    """Seven rates of the four-level emitter, in 1/s."""

    A31: float
    Omega31: float
    A32_1: float
    A32_2: float
    A21_1: float
    A21_2: float
    I_sc: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {key: float(getattr(self, key)) for key in PARAM_KEYS}


# The emitter the paper's figures are drawn for.
REFERENCE = Emitter(3.3e8, 2.9e8, 34.0, 249.0, 430.0, 2400.0, 7.7e7)
# The same emitter with optical rates slowed 1000x and no background, so a
# 100 s record holds about 9.3M photons.
SLOWED = Emitter(3.3e5, 2.9e5, 34.0, 249.0, 430.0, 2400.0, 0.0)


def light_intensity(A31: float, Omega31: float) -> float:
    """Photon rate of the driven transition while light: A31 rho_ee."""
    return A31 * Omega31**2 / (A31**2 + 2.0 * Omega31**2)


def switching_rates(em: Emitter) -> tuple[np.ndarray, np.ndarray]:
    """Light-to-dark and dark-to-light rates of the period process."""
    sat = em.Omega31**2 / (em.A31**2 + em.Omega31**2)
    return np.array([em.A32_1 * sat, em.A32_2 * sat]), np.array([em.A21_1, em.A21_2])


def period_generator(p_ld: np.ndarray, p_dl: np.ndarray) -> np.ndarray:
    """3x3 generator of the light / dark 1 / dark 2 period process."""
    return np.array(
        [
            [-(p_ld[0] + p_ld[1]), p_ld[0], p_ld[1]],
            [p_dl[0], -p_dl[0], 0.0],
            [p_dl[1], 0.0, -p_dl[1]],
        ]
    )


def period_summary(em: Emitter) -> dict[str, float]:
    """Mean light period, mean dark periods (longer one first), branching
    weight of the longer dark period and stationary light occupation."""
    p_ld, p_dl = switching_rates(em)
    order = np.argsort(p_dl)  # slower recovery = longer dark period first
    p_ld, p_dl = p_ld[order], p_dl[order]
    occupation = np.array([1.0, p_ld[0] / p_dl[0], p_ld[1] / p_dl[1]])
    return {
        "T_L": 1.0 / (p_ld[0] + p_ld[1]),
        "T_D1": 1.0 / p_dl[0],
        "T_D2": 1.0 / p_dl[1],
        "p1": p_ld[0] / (p_ld[0] + p_ld[1]),
        "P_L": 1.0 / occupation.sum(),
    }


def _expm_stack(generator: np.ndarray, tau: np.ndarray) -> np.ndarray:
    return scipy.linalg.expm(generator[None, :, :] * tau[:, None, None])


def bloch_generator(A31: float, Omega31: float) -> np.ndarray:
    """4x4 Liouvillian of the driven two-level transition acting on the
    column-stacked density matrix (index 0 ground, 1 excited)."""
    h = np.array([[0.0, 0.5 * Omega31], [0.5 * Omega31, 0.0]], dtype=complex)
    lower = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    eye = np.eye(2)
    n = lower.conj().T @ lower
    return (
        -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        + A31 * np.kron(lower.conj(), lower)
        - 0.5 * A31 * (np.kron(eye, n) + np.kron(n.T, eye))
    )


def g2_bloch(tau, A31: float, Omega31: float) -> np.ndarray:
    """Two-level correlation: excited population a delay after a photon
    (the emitter starts in the ground state), over its stationary value.

    Every transient of the Bloch equations decays at A31/2 or faster, so
    past 90/A31 the state equals the stationary one to 3e-20; delays are
    capped there, which keeps the exponent's norm small enough for expm
    to stay accurate at delays of seconds.
    """
    tau = np.asarray(tau, dtype=float)
    gen = bloch_generator(A31, Omega31)
    _, _, vh = np.linalg.svd(gen)
    steady = vh[-1].conj()
    steady = steady / (steady[0] + steady[3])
    rho0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    capped = np.minimum(tau.ravel(), 90.0 / A31)
    excited = (_expm_stack(gen, capped) @ rho0)[:, 3].real
    return (excited / steady[3].real).reshape(tau.shape)


def p_ll_expm(tau, em: Emitter) -> np.ndarray:
    """Probability of being light a delay after being light."""
    tau = np.asarray(tau, dtype=float)
    gen = period_generator(*switching_rates(em))
    return _expm_stack(gen, tau.ravel())[:, 0, 0].reshape(tau.shape)


def g_reference(tau, em: Emitter) -> np.ndarray:
    """Full normalized correlation: background-diluted two-level
    correlation times the bunching factor p_LL / P_L."""
    i_l = light_intensity(em.A31, em.Omega31)
    fast = (i_l * g2_bloch(tau, em.A31, em.Omega31) + em.I_sc) / (i_l + em.I_sc)
    return fast * p_ll_expm(tau, em) / period_summary(em)["P_L"]


def window_average(em: Emitter, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mean of the reference over each delay window, at nine log-even
    points."""
    grid = np.geomspace(lo, hi, 9, axis=1)
    return g_reference(grid, em).mean(axis=1)


def mean_waiting_time(A31: float, Omega31: float) -> float:
    """Closed-form mean time between photons of the driven transition."""
    return (A31**2 + 2.0 * Omega31**2) / (A31 * Omega31**2)


@dataclass(frozen=True)
class SurvivalTable:
    """No-jump survival S(t) of the driven transition on a uniform grid."""

    t: np.ndarray
    survival: np.ndarray

    def mean(self) -> float:
        return float(np.sum(0.5 * (self.survival[1:] + self.survival[:-1])) * (self.t[1] - self.t[0]))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Inverse transform: P(wait > t) = S(t), and S falls monotonically.
        u = rng.random(n)
        return np.interp(u, self.survival[::-1], self.t[::-1])


SURVIVAL_POINTS_LOG2 = 16


def survival_table(A31: float, Omega31: float) -> SurvivalTable:
    """Tabulate the survival on 2**SURVIVAL_POINTS_LOG2 points from the
    2x2 conditional Hamiltonian.

    The amplitude evolves under H = [[0, W/2], [W/2, -i A/2]] between
    jumps; one matrix exponential of the grid step, raised to every power
    by repeated doubling, gives the amplitude on the whole grid.
    """
    h = np.array([[0.0, 0.5 * Omega31], [0.5 * Omega31, -0.5j * A31]], dtype=complex)
    t_max = 8.0 * mean_waiting_time(A31, Omega31)
    while True:
        end = scipy.linalg.expm(-1j * h * t_max)[:, 0]
        if float(np.vdot(end, end).real) < 1e-18:
            break
        t_max *= 2.0
    n = 1 << SURVIVAL_POINTS_LOG2
    step = scipy.linalg.expm(-1j * h * (t_max / (n - 1)))
    amps = np.array([[1.0], [0.0]], dtype=complex)
    power = step
    for _ in range(SURVIVAL_POINTS_LOG2):
        amps = np.concatenate([amps, power @ amps], axis=1)
        power = power @ power
    survival = np.minimum.accumulate(np.sum(np.abs(amps) ** 2, axis=0))
    return SurvivalTable(t=np.linspace(0.0, t_max, n), survival=survival)


def make_periods(em: Emitter, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Alternating period record, rows (state, start, end); state 0 is
    light, 1 and 2 the dark levels. Dwell times are exponential, the dark
    type follows the shelving branching, and the first state is drawn
    from the stationary occupation."""
    p_ld, p_dl = switching_rates(em)
    sigma_l = p_ld.sum()
    occupation = np.array([1.0, p_ld[0] / p_dl[0], p_ld[1] / p_dl[1]])
    first = int(np.searchsorted(np.cumsum(occupation / occupation.sum()), rng.random()))
    cycle = 1.0 / sigma_l + (p_ld / sigma_l) @ (1.0 / p_dl)
    n = int(1.5 * duration / cycle) + 64
    while True:
        light = rng.exponential(1.0 / sigma_l, n)
        dark_type = np.where(rng.random(n) < p_ld[0] / sigma_l, 1, 2)
        dark = rng.exponential(1.0, n) / p_dl[dark_type - 1]
        states = np.empty(2 * n)
        states[0::2] = 0.0
        states[1::2] = dark_type
        dwell = np.empty(2 * n)
        dwell[0::2] = light
        dwell[1::2] = dark
        if first:
            states = np.concatenate([[first], states])
            dwell = np.concatenate([[rng.exponential(1.0 / p_dl[first - 1])], dwell])
        end = np.cumsum(dwell)
        if end[-1] >= duration:
            break
        n *= 2
    keep = int(np.searchsorted(end, duration)) + 1
    end = np.minimum(end[:keep], duration)
    start = np.concatenate([[0.0], end[:-1]])
    return np.column_stack([states[:keep], start, end])


def make_photons(periods: np.ndarray, rng: np.random.Generator, table: SurvivalTable) -> np.ndarray:
    """Photon arrival times inside the light periods.

    Each light period restarts the emitter in its ground state, so its
    photons form a renewal sequence of waiting times that starts at the
    period's beginning; the wait that overruns the period end is lost.
    """
    light = periods[periods[:, 0] == 0.0]
    spans = light[:, 2] - light[:, 1]
    expected = spans.sum() / table.mean()
    pool = table.sample(rng, int(expected + 6.0 * math.sqrt(expected) + 2 * light.shape[0] + 64))
    total = np.cumsum(pool)
    first = np.empty(light.shape[0], dtype=np.int64)
    stop = np.empty(light.shape[0], dtype=np.int64)
    base = np.empty(light.shape[0])
    p = 0
    for k, span in enumerate(spans):
        origin = total[p - 1] if p else 0.0
        q = int(np.searchsorted(total, origin + span, side="left"))
        while q >= total.size:
            more = table.sample(rng, total.size)
            total = np.concatenate([total, total[-1] + np.cumsum(more)])
            q = int(np.searchsorted(total, origin + span, side="left"))
        first[k], stop[k], base[k] = p, q, origin
        p = q + 1
    counts = stop - first
    index = np.repeat(first - np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
    index += np.arange(index.size)
    return np.repeat(light[:, 1], counts) + (total[index] - np.repeat(base, counts))


def make_record(em: Emitter, duration: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Photon times and period record of one emitter; the same seed gives
    the same record. Background photons are not modelled (I_sc must be 0)."""
    if em.I_sc != 0.0:
        raise ValueError("the record generator models no background")
    periods = make_periods(em, duration, np.random.Generator(np.random.Philox(key=[seed, 0])))
    table = survival_table(em.A31, em.Omega31)
    times = make_photons(periods, np.random.Generator(np.random.Philox(key=[seed, 1])), table)
    return times, periods


def light_fraction_sigma(em: Emitter, duration: float) -> float:
    """Standard deviation of the time-averaged light fraction over a
    record: sqrt(2/T * integral of P_L (p_LL(tau) - P_L) dtau)."""
    p_ld, p_dl = switching_rates(em)
    gen = period_generator(p_ld, p_dl)
    p_l = period_summary(em)["P_L"]
    pi = p_l * np.array([1.0, p_ld[0] / p_dl[0], p_ld[1] / p_dl[1]])
    # With Pi the stationary projector (every row pi), the integral of
    # expm(B tau) - Pi over [0, inf) is inv(Pi - B) - Pi.
    stationary = np.outer(np.ones(3), pi)
    integral = (np.linalg.inv(stationary - gen) - stationary)[0, 0]
    return math.sqrt(2.0 * p_l * integral / duration)


def random_emitter(rng: np.random.Generator) -> Emitter:
    """A paper-like parameter set without background: Omega31/A31 in
    [0.1, 10], deshelving rates 1e-8 to 1e-4 of min(A31, Omega31), and
    each shelving coefficient 1e-3 to 1 times its deshelving rate, so the
    emitter is light at least a third of the time."""
    a31 = 10.0 ** rng.uniform(5.0, 9.0)
    omega = a31 * 10.0 ** rng.uniform(-1.0, 1.0)
    a21 = min(a31, omega) * 10.0 ** rng.uniform(-8.0, -4.0, 2)
    a32 = a21 * 10.0 ** rng.uniform(-3.0, 0.0, 2)
    return Emitter(a31, omega, a32[0], a32[1], a21[0], a21[1], 0.0)


def converted_rates(em: Emitter) -> np.ndarray:
    """Switching rates the master-equation extraction must return: the
    shelving coefficients times the excited-state occupation
    Omega31^2 / (A31^2 + 2 Omega31^2), and the deshelving coefficients."""
    occupation = em.Omega31**2 / (em.A31**2 + 2.0 * em.Omega31**2)
    return np.array([em.A32_1 * occupation, em.A32_2 * occupation, em.A21_1, em.A21_2])


def random_chain(rng: np.random.Generator, n: int, degenerate: bool) -> tuple[np.ndarray, np.ndarray]:
    """Intensities and rate matrix of an n-period chain.

    A degenerate chain is a star: one light period linked to n-1
    identical dark periods, so the dark recovery rate is an eigenvalue of
    multiplicity n-2. Otherwise every pair of periods is linked by its own
    rate, which keeps the chain irreducible.
    """
    if degenerate:
        if n < 4:
            raise ValueError("a star chain needs four periods for a repeated eigenvalue")
        rates = np.zeros((n, n))
        rates[0, 1:] = 10.0 ** rng.uniform(1.0, 2.5)
        rates[1:, 0] = 10.0 ** rng.uniform(2.0, 3.5)
        intensities = np.zeros(n)
        intensities[0] = 10.0 ** rng.uniform(4.0, 5.0)
        return intensities, rates
    rates = 10.0 ** rng.uniform(1.0, 3.0, (n, n))
    np.fill_diagonal(rates, 0.0)
    intensities = np.where(rng.random(n) < 0.3, 0.0, 10.0 ** rng.uniform(3.0, 5.0, n))
    intensities[0] = 10.0 ** rng.uniform(4.0, 5.0)
    return intensities, rates


def chain_generator(rates: np.ndarray) -> np.ndarray:
    gen = np.array(rates, dtype=float)
    np.fill_diagonal(gen, 0.0)
    np.fill_diagonal(gen, -gen.sum(axis=1))
    return gen


def chain_propagator(rates: np.ndarray, tau: np.ndarray) -> np.ndarray:
    return _expm_stack(chain_generator(rates), np.asarray(tau, dtype=float))


def chain_correlation(intensities: np.ndarray, rates: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """g(tau) of a chain whose periods emit without internal structure:
    sum_ij pi_i I_i P_ij(tau) I_j / (sum_i pi_i I_i)^2."""
    gen = chain_generator(rates)
    _, _, vh = np.linalg.svd(gen.T)
    pi = np.abs(vh[-1])
    pi = pi / pi.sum()
    prop = chain_propagator(rates, tau)
    return np.einsum("i,tij,j->t", pi * intensities, prop, intensities) / (pi @ intensities) ** 2


def relative_crlb(em: Emitter, tau: np.ndarray, sigma: np.ndarray) -> dict[str, float]:
    """Relative Cramer-Rao bound of the seven rates and the four period
    statistics a full fit reports, for a curve of
    ``em`` on ``tau`` with independent Gaussian noise ``sigma``.

    The Fisher information of the seven rates comes from central
    differences of the reference model in the logs of the rates; each
    reported quantity's log is propagated through the same differences.
    """
    keys = (*PARAM_KEYS, "T_L", "T_D1", "T_D2", "p1")
    base = np.log([em.as_dict()[k] for k in PARAM_KEYS])

    def evaluate(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        shifted = Emitter(*np.exp(x))
        values = {**shifted.as_dict(), **period_summary(shifted)}
        return g_reference(tau, shifted) / sigma, np.log([values[k] for k in keys])

    step = 1e-4
    model_grad = np.empty((tau.size, base.size))
    value_grad = np.empty((len(keys), base.size))
    for k in range(base.size):
        shift = np.zeros(base.size)
        shift[k] = step
        m_plus, v_plus = evaluate(base + shift)
        m_minus, v_minus = evaluate(base - shift)
        model_grad[:, k] = (m_plus - m_minus) / (2.0 * step)
        value_grad[:, k] = (v_plus - v_minus) / (2.0 * step)
    cov = np.linalg.inv(model_grad.T @ model_grad)
    return dict(zip(keys, np.sqrt(np.einsum("ik,kl,il->i", value_grad, cov, value_grad))))
