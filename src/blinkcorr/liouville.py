"""Full quantum master equation of the four-level emitter.

Basis ordering: index 0 is the ground state, indices 1 and 2 the two
metastable dark levels, index 3 the driven excited state. Density matrices
are 4x4 complex arrays; superoperators act on their column-stacked
vectorization and are 16x16.

The generator splits into a fast block (drive and spontaneous decay of
the optical transition) and a slow block (shelving and deshelving). The
inter-period switching rates of the blinking process follow from slow
transport between the fast block's invariant states, computed here by two
independent routes: a resolvent correction confined to the complement of
the fast kernel, and numerical differentiation of the exact propagator
over an intermediate timescale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, HierarchyError
from .params import PhotoPhysicalParams

__all__ = [
    "vec",
    "unvec",
    "conditional_hamiltonian",
    "reset_map",
    "Liouvillian",
    "build_liouvillian",
    "steady_state_light",
    "dark_state",
    "validate_density",
    "perturbative_rates",
]

_DIM = 4


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a 4x4 matrix."""
    rho = np.asarray(rho)
    if rho.shape != (_DIM, _DIM):
        raise ValueError("expected a 4x4 matrix")
    return rho.flatten(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    if v.shape != (_DIM * _DIM,):
        raise ValueError("expected a vector of length 16")
    return v.reshape(_DIM, _DIM, order="F")


def _outer(i: int, j: int) -> np.ndarray:
    m = np.zeros((_DIM, _DIM), dtype=complex)
    m[i, j] = 1.0
    return m


def _left_right(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Superoperator of rho -> a @ rho @ b under column stacking.
    return np.kron(b.T, a)


def _commutator_part(h: np.ndarray) -> np.ndarray:
    eye = np.eye(_DIM, dtype=complex)
    return -1j * (_left_right(h, eye) - _left_right(eye, h.conj().T))


def _jump_feed(k: np.ndarray) -> np.ndarray:
    return _left_right(k, k.conj().T)


def conditional_hamiltonian(params: PhotoPhysicalParams) -> np.ndarray:
    """Non-Hermitian Hamiltonian governing evolution between jumps.

    Carries the coherent drive plus imaginary damping of every decaying
    level: the excited state loses amplitude at the total rate out of it
    (spontaneous emission and both shelving channels) and each dark level
    at its deshelving rate.
    """
    a_total = params.A31 + params.A32[0] + params.A32[1]
    h = np.zeros((_DIM, _DIM), dtype=complex)
    h[3, 3] = -0.5j * a_total
    h[1, 1] = -0.5j * params.A21[0]
    h[2, 2] = -0.5j * params.A21[1]
    h[0, 3] = 0.5 * params.Omega31
    h[3, 0] = 0.5 * params.Omega31
    return h


def reset_map(params: PhotoPhysicalParams, rho: np.ndarray) -> np.ndarray:
    """Jump part of the master equation applied to a state.

    Sums the sandwich terms of all six decay channels: emission to the
    ground state, shelving into each dark level, deshelving out of each.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (_DIM, _DIM):
        raise ValueError("expected a 4x4 density matrix")
    out = np.zeros_like(rho)
    out += params.A31 * _outer(0, 3) @ rho @ _outer(3, 0)
    out += params.A32[0] * _outer(1, 3) @ rho @ _outer(3, 1)
    out += params.A32[1] * _outer(2, 3) @ rho @ _outer(3, 2)
    out += params.A21[0] * _outer(0, 1) @ rho @ _outer(1, 0)
    out += params.A21[1] * _outer(0, 2) @ rho @ _outer(2, 0)
    return out


@dataclass(frozen=True)
class Liouvillian:
    """Vectorized generator split into fast and slow blocks.

    ``total == fast + slow`` holds exactly; the split is by parameter:
    ``fast`` carries every term proportional to A31 or Omega31, ``slow``
    every term proportional to a shelving or deshelving coefficient.
    """

    total: np.ndarray
    fast: np.ndarray
    slow: np.ndarray


def build_liouvillian(params: PhotoPhysicalParams) -> Liouvillian:
    """Assemble the 16x16 generator of the four-level master equation."""
    drive = np.zeros((_DIM, _DIM), dtype=complex)
    drive[0, 3] = 0.5 * params.Omega31
    drive[3, 0] = 0.5 * params.Omega31
    h_fast = drive - 0.5j * params.A31 * _outer(3, 3)
    h_slow = (
        -0.5j * (params.A32[0] + params.A32[1]) * _outer(3, 3)
        - 0.5j * params.A21[0] * _outer(1, 1)
        - 0.5j * params.A21[1] * _outer(2, 2)
    )

    fast = _commutator_part(h_fast) + params.A31 * _jump_feed(_outer(0, 3))
    slow = (
        _commutator_part(h_slow)
        + params.A32[0] * _jump_feed(_outer(1, 3))
        + params.A32[1] * _jump_feed(_outer(2, 3))
        + params.A21[0] * _jump_feed(_outer(0, 1))
        + params.A21[1] * _jump_feed(_outer(0, 2))
    )
    return Liouvillian(total=fast + slow, fast=fast, slow=slow)


def steady_state_light(A31: float, Omega31: float) -> np.ndarray:
    """Stationary state of the driven transition with dark levels empty.

    Ground and excited populations in saturation balance plus the
    matching coherence; annihilated by the fast block of the generator.
    """
    a = float(A31)
    w = float(Omega31)
    if a <= 0.0 or w <= 0.0:
        raise ValueError("A31 and Omega31 must be positive")
    denom = a * a + 2.0 * w * w
    rho = np.zeros((_DIM, _DIM), dtype=complex)
    rho[0, 0] = (a * a + w * w) / denom
    rho[3, 3] = w * w / denom
    rho[0, 3] = 1j * a * w / denom
    rho[3, 0] = -1j * a * w / denom
    return rho


def dark_state(index: int) -> np.ndarray:
    """Density matrix of dark level 1 or 2 fully occupied."""
    if index not in (1, 2):
        raise ValueError("dark level index must be 1 or 2")
    rho = np.zeros((_DIM, _DIM), dtype=complex)
    rho[index, index] = 1.0
    return rho


def validate_density(rho: np.ndarray, atol: float = 1e-9) -> None:
    """Raise unless ``rho`` is Hermitian, unit trace and positive."""
    rho = np.asarray(rho)
    if rho.shape != (_DIM, _DIM):
        raise ValueError("expected a 4x4 density matrix")
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > atol or abs(np.trace(rho).imag) > atol:
        raise ValueError("density matrix trace is not one")
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if eigs.min() < -atol:
        raise ValueError("density matrix has a negative eigenvalue")


def _kernel_projector(fast: np.ndarray) -> tuple[np.ndarray, int]:
    # Oblique projector onto the kernel of the fast block along its range,
    # built from the singular vectors of both null spaces.
    u, svals, vh = np.linalg.svd(fast)
    tol = svals[0] * 1e-10
    null = svals < tol
    dim = int(np.sum(null))
    if dim == 0:
        raise HierarchyError("fast generator has no kernel; generator is not trace preserving")
    if np.any((svals >= tol) & (svals < svals[0] * 1e-6)):
        raise HierarchyError("fast generator kernel is not cleanly separated")
    right = vh.conj().T[:, null]
    left = u[:, null]
    proj = right @ np.linalg.solve(left.conj().T @ right, left.conj().T)
    return proj, dim


def _rates_resolvent(params: PhotoPhysicalParams) -> tuple[tuple[float, float], tuple[float, float]]:
    lv = build_liouvillian(params)
    proj, _ = _kernel_projector(lv.fast)
    eye = np.eye(lv.fast.shape[0], dtype=complex)
    comp = eye - proj

    def corrected(rho0: np.ndarray) -> np.ndarray:
        y = comp @ (lv.slow @ vec(rho0))
        x, *_ = np.linalg.lstsq(lv.fast, -y, rcond=None)
        return rho0 + unvec(comp @ x)

    rho_light = corrected(steady_state_light(params.A31, params.Omega31))
    p_ld = tuple(
        float(
            (params.A32[i] * rho_light[3, 3] - params.A21[i] * rho_light[1 + i, 1 + i]).real
        )
        for i in range(2)
    )

    p_dl = []
    for i in range(2):
        rho_dark = corrected(dark_state(1 + i))
        gain = sum(
            (params.A21[a] * rho_dark[1 + a, 1 + a] - params.A32[a] * rho_dark[3, 3]).real
            for a in range(2)
        )
        p_dl.append(float(gain))
    return p_ld, (p_dl[0], p_dl[1])


def _timescale_window(params: PhotoPhysicalParams) -> float:
    fast_scale = 1.0 / min(params.A31, params.Omega31)
    slow_rates = [*params.A32, *params.A21]
    slow_scale = 1.0 / max(r for r in slow_rates if r > 0.0)
    if slow_scale <= 10.0 * fast_scale:
        raise HierarchyError(
            "no intermediate timescale separates the optical dynamics from "
            "the metastable dynamics; rate extraction by finite differences "
            "is undefined here"
        )
    return math.sqrt(fast_scale * slow_scale)


def _population_slopes(total: np.ndarray, dt: float, seeds) -> np.ndarray:
    # Central difference of selected populations of exp(L t) seed at t = dt.
    h = 0.01 * dt
    # Imported here: ``import blinkcorr`` does not load scipy.linalg.
    import scipy.linalg

    prop_plus = scipy.linalg.expm(total * (dt + h))
    prop_minus = scipy.linalg.expm(total * (dt - h))
    out = []
    for seed_rho, weights in seeds:
        vplus = unvec(prop_plus @ vec(seed_rho))
        vminus = unvec(prop_minus @ vec(seed_rho))
        val = 0.0
        for (i, j), w in weights:
            val += w * (vplus[i, j] - vminus[i, j]).real
        out.append(val / (2.0 * h))
    return np.array(out)


def _rates_finite_dt(params: PhotoPhysicalParams) -> tuple[tuple[float, float], tuple[float, float]]:
    lv = build_liouvillian(params)
    dt = _timescale_window(params)

    # Observed slopes: growth of each dark population out of the light
    # state, and total light recovery out of each dark level.
    seeds = [
        (steady_state_light(params.A31, params.Omega31), [((1, 1), 1.0)]),
        (steady_state_light(params.A31, params.Omega31), [((2, 2), 1.0)]),
        (dark_state(1), [((0, 0), 1.0), ((3, 3), 1.0)]),
        (dark_state(2), [((0, 0), 1.0), ((3, 3), 1.0)]),
    ]

    # The slopes carry a bias linear in dt from the slow drift of the
    # reference states; evaluating at dt and dt/2 and extrapolating to
    # zero step removes it.
    slopes_full = _population_slopes(lv.total, dt, seeds)
    slopes_half = _population_slopes(lv.total, 0.5 * dt, seeds)
    slopes = 2.0 * slopes_half - slopes_full

    p_ld = (float(slopes[0]), float(slopes[1]))
    p_dl = (float(slopes[2]), float(slopes[3]))
    return p_ld, p_dl


def perturbative_rates(
    params: PhotoPhysicalParams, method: str = "resolvent"
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Inter-period switching rates extracted from the full generator.

    Returns ``(p_LD, p_DL)`` like
    :func:`blinkcorr.params.transition_rates`, but derived from the 16x16
    master equation rather than from closed formulas. The shelving rates
    come out as ``A32_i`` times the excited-state occupation
    Omega31^2 / (A31^2 + 2 Omega31^2) of the generator's Omega31/2 drive,
    which is the closed-form pair times
    (A31^2 + Omega31^2) / (A31^2 + 2 Omega31^2), because
    :func:`blinkcorr.params.saturation_factor` weights them by
    Omega31^2 / (A31^2 + Omega31^2). The deshelving rates agree with the
    closed form to first order in the slow rates.

    ``method="resolvent"`` solves for the first-order deformation of the
    fast invariant states under the slow block and reads the switching
    rates off the deformed states. ``method="finite_dt"`` differentiates
    the exact propagator at an intermediate time, long against the
    optical transients and short against the blinking, with one
    Richardson step to cancel the leading bias; it requires a clean
    timescale separation and raises :class:`HierarchyError` without one.
    A rate that is not finite raises :class:`DegenerateInputError`.
    """
    if method not in ("resolvent", "finite_dt"):
        raise ValueError(
            f"unknown method {method!r}, expected 'resolvent' or 'finite_dt'"
        )
    if max(*params.A32, *params.A21) == 0.0:
        # No metastable coupling at all, nothing to extract.
        return (0.0, 0.0), (0.0, 0.0)
    # Products of the generator that overflow are named below, not warned of.
    with np.errstate(over="ignore", invalid="ignore"):
        rates = _rates_resolvent(params) if method == "resolvent" else _rates_finite_dt(params)
    if not all(math.isfinite(rate) for pair in rates for rate in pair):
        raise DegenerateInputError(f"switching rates by {method} are not finite, the generator overflows: {rates}")
    return rates
