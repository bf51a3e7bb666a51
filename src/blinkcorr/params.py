"""Photo-physical parameters of a blinking emitter and derived period statistics.

The model is a strongly driven two-level transition (ground state, excited
state with spontaneous rate ``A31`` and Rabi frequency ``Omega31``) coupled
weakly to two metastable dark levels. Shelving coefficients ``A32_i`` feed
the dark levels from the excited state and deshelving coefficients ``A21_i``
return them to the ground state. ``I_sc`` is an uncorrelated background
count rate. Everything here is expressed in angular rates (1/s).

Two layers of description coexist:

* microscopic coefficients (:class:`PhotoPhysicalParams`),
* the alternating light/dark period process they generate
  (:class:`PeriodStatistics`), obtained through :func:`transition_rates`.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

from .errors import DegenerateInputError, HierarchyWarning
from .fileio import atomic_write_text, format_float, read_key_values

__all__ = [
    "PhotoPhysicalParams",
    "PeriodStatistics",
    "light_intensity",
    "saturation_factor",
    "transition_rates",
    "period_statistics",
    "statistics_from_params",
    "rates_from_statistics",
    "read_params",
    "write_params",
    "PARAM_KEYS",
]

# Keys of the flat text representation, in canonical order.
PARAM_KEYS = ("A31", "Omega31", "A32_1", "A32_2", "A21_1", "A21_2", "I_sc")

# Warn when the slow (metastable) rates come within two decades of the
# fast optical rates; the perturbative period picture degrades there.
_HIERARCHY_MARGIN = 1e-2


def _caller_level() -> int:
    """The ``stacklevel`` that points a warning raised by this function's
    caller at the first frame outside the package; the dataclass's
    generated ``__init__`` runs in its module's namespace, so it counts as
    inside."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
        frame, level = frame.f_back, level + 1
    return level


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class PhotoPhysicalParams:
    """Microscopic rates of the four-level emitter plus background.

    Attributes
    ----------
    A31:
        Spontaneous emission rate of the driven transition (1/s), > 0.
    Omega31:
        Rabi frequency of the drive (1/s), > 0.
    A32:
        Pair of shelving coefficients into the two dark levels (1/s), >= 0.
    A21:
        Pair of deshelving coefficients back to the ground state (1/s), >= 0.
    I_sc:
        Uncorrelated background count rate (1/s), >= 0.
    """

    A31: float
    Omega31: float
    A32: tuple[float, float]
    A21: tuple[float, float]
    I_sc: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "A31", _require_finite("A31", self.A31))
        object.__setattr__(self, "Omega31", _require_finite("Omega31", self.Omega31))
        a32 = tuple(_require_finite(f"A32_{i + 1}", v) for i, v in enumerate(self.A32))
        a21 = tuple(_require_finite(f"A21_{i + 1}", v) for i, v in enumerate(self.A21))
        object.__setattr__(self, "A32", a32)
        object.__setattr__(self, "A21", a21)
        object.__setattr__(self, "I_sc", _require_finite("I_sc", self.I_sc))

        if len(a32) != 2 or len(a21) != 2:
            raise ValueError("A32 and A21 must each hold exactly two rates")
        for name, value in (("A31", self.A31), ("Omega31", self.Omega31)):
            if value <= 0.0:
                raise ValueError(f"{name} must be positive")
            # The closed forms square it, and a float power that overflows raises.
            if value * value == math.inf:
                raise ValueError(f"{name} must be small enough that its square is finite, got {value!r}")
        if any(v < 0.0 for v in a32):
            raise ValueError("A32 coefficients must be non-negative")
        if any(v < 0.0 for v in a21):
            raise ValueError("A21 coefficients must be non-negative")
        if self.I_sc < 0.0:
            raise ValueError("I_sc must be non-negative")

        fast = min(self.A31, self.Omega31)
        slow = max(max(a32), max(a21))
        if slow > _HIERARCHY_MARGIN * fast:
            warnings.warn(
                "metastable rates are not small against A31/Omega31; "
                "period statistics derived from these parameters lose accuracy",
                HierarchyWarning,
                stacklevel=_caller_level(),
            )

    def as_dict(self) -> dict[str, float]:
        """Flat mapping with the keys of :data:`PARAM_KEYS`."""
        return {
            "A31": self.A31,
            "Omega31": self.Omega31,
            "A32_1": self.A32[0],
            "A32_2": self.A32[1],
            "A21_1": self.A21[0],
            "A21_2": self.A21[1],
            "I_sc": self.I_sc,
        }

    @classmethod
    def from_dict(cls, data: dict[str, float]) -> "PhotoPhysicalParams":
        missing = [k for k in PARAM_KEYS if k not in data]
        extra = [k for k in data if k not in PARAM_KEYS]
        if missing or extra:
            raise ValueError(
                f"parameter mapping must carry exactly {PARAM_KEYS}; "
                f"missing {missing}, unexpected {extra}"
            )
        return cls(
            A31=data["A31"],
            Omega31=data["Omega31"],
            A32=(data["A32_1"], data["A32_2"]),
            A21=(data["A21_1"], data["A21_2"]),
            I_sc=data["I_sc"],
        )


def light_intensity(A31: float, Omega31: float) -> float:
    """Mean detected photon rate of the driven transition while light.

    Saturates at A31/2 for strong driving and falls off as
    Omega31^2/A31 for weak driving.
    """
    A31 = float(A31)
    Omega31 = float(Omega31)
    if A31 <= 0.0:
        raise ValueError("A31 must be positive")
    if Omega31 < 0.0:
        raise ValueError("Omega31 must be non-negative")
    return A31 * Omega31**2 / (A31**2 + 2.0 * Omega31**2)


def saturation_factor(A31: float, Omega31: float) -> float:
    """Drive-dependent weight converting shelving coefficients into
    light-to-dark switching rates: Omega31^2 / (A31^2 + Omega31^2).

    This is not the excited-state occupation of the master equation in
    :mod:`blinkcorr.liouville`, which drives at Omega31/2 and holds
    ``light_intensity(A31, Omega31) / A31`` = Omega31^2 / (A31^2 +
    2 Omega31^2) in the excited state. The shelving rates of
    :func:`blinkcorr.liouville.perturbative_rates` therefore equal the
    ones from :func:`transition_rates` times
    (A31^2 + Omega31^2) / (A31^2 + 2 Omega31^2). Rates whose squares
    both underflow to zero raise :class:`DegenerateInputError`.
    """
    A31 = float(A31)
    Omega31 = float(Omega31)
    if A31 <= 0.0:
        raise ValueError("A31 must be positive")
    if Omega31 < 0.0:
        raise ValueError("Omega31 must be non-negative")
    squares = A31**2 + Omega31**2
    if squares == 0.0:
        raise DegenerateInputError(
            f"no saturation factor at A31 = {A31!r}, Omega31 = {Omega31!r}: both squares underflow to zero"
        )
    return Omega31**2 / squares


def transition_rates(
    params: PhotoPhysicalParams,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Inter-period switching rates implied by the microscopic coefficients.

    Returns ``(p_LD, p_DL)``: the pair of light-to-dark rates and the pair
    of dark-to-light rates, one entry per dark level. Dark periods end
    independently of the drive, so ``p_DL`` equals the deshelving
    coefficients; light periods end at the shelving coefficients scaled by
    the drive saturation.
    """
    sat = saturation_factor(params.A31, params.Omega31)
    p_ld = (params.A32[0] * sat, params.A32[1] * sat)
    p_dl = (params.A21[0], params.A21[1])
    return p_ld, p_dl


@dataclass(frozen=True)
class PeriodStatistics:
    """Summary of the alternating light/dark period process.

    Attributes
    ----------
    p_LD, p_DL:
        Switching rates out of and back into the light state (1/s).
    T_L:
        Mean light period, ``1 / (p_LD_1 + p_LD_2)``. Infinite when the
        emitter never switches dark.
    T_D:
        Mean dark periods, ``1 / p_DL_i``.
    p1, p2:
        Branching probabilities of a dark period being of type 1 or 2.
    P_L:
        Stationary probability of being in a light period.
    mu1, mu2:
        Relaxation eigenvalues of the three-state period process,
        ``mu2 <= mu1 <= 0``.
    Gamma:
        Half the eigenvalue splitting, ``(mu1 - mu2) / 2``.
    """

    p_LD: tuple[float, float]
    p_DL: tuple[float, float]
    T_L: float
    T_D: tuple[float, float]
    p1: float
    p2: float
    P_L: float
    mu1: float
    mu2: float
    Gamma: float


def _relaxation(
    ld1: float, ld2: float, dl1: float, dl2: float
) -> tuple[float, float, float]:
    """``(mu1, mu2, P_L)`` of four switching rates, unchecked: the caller
    guarantees finite rates, ``ld_i >= 0`` and ``dl_i > 0``. The rates are
    floats, or numpy arrays of equal shape holding one rate set each."""
    # Characteristic polynomial of the reduced two-by-two block:
    # mu^2 + s*mu + q with both roots real and non-positive. The smaller
    # root comes from the stable quadratic branch, the other from the
    # product, which avoids cancellation when the roots are far apart.
    s = dl1 + ld1 + ld2 + dl2
    d = dl1 + ld1 - ld2 - dl2
    disc = d * d + 4.0 * ld1 * ld2
    # numpy takes an array's power 0.5 as its correctly rounded square root.
    root = math.sqrt(disc) if isinstance(disc, float) else disc**0.5
    q = ld1 * dl2 + dl1 * ld2 + dl1 * dl2
    mu2 = -0.5 * (s + root)
    return q / mu2, mu2, dl1 * dl2 / q


def period_statistics(
    p_LD: tuple[float, float], p_DL: tuple[float, float]
) -> PeriodStatistics:
    """Build :class:`PeriodStatistics` from the four switching rates.

    Both dark-to-light rates must be positive; light-to-dark rates may be
    zero (a molecule that never blinks has ``P_L == 1`` exactly). Rates
    whose products leave float64's range raise :class:`ValueError` naming
    a rate: the largest where the product of the relaxation rates ``q =
    mu1 * mu2`` overflows, and the smaller dark-to-light rate where the
    light fraction ``P_L = p_DL_1 * p_DL_2 / q`` underflows to zero.
    """
    ld1, ld2 = (_require_finite(f"p_LD_{i + 1}", v) for i, v in enumerate(p_LD))
    dl1, dl2 = (_require_finite(f"p_DL_{i + 1}", v) for i, v in enumerate(p_DL))
    if ld1 < 0.0 or ld2 < 0.0:
        raise ValueError("light-to-dark rates must be non-negative")
    if dl1 <= 0.0 or dl2 <= 0.0:
        raise ValueError("dark-to-light rates must be positive")
    # q as _relaxation forms it; q is at least p_DL_1 * p_DL_2, so a q that
    # underflows to zero, which it divides by, is caught with P_L.
    if ld1 * dl2 + dl1 * ld2 + dl1 * dl2 == math.inf:
        value, name = max((ld1, "p_LD_1"), (ld2, "p_LD_2"), (dl1, "p_DL_1"), (dl2, "p_DL_2"))
        raise ValueError(f"{name} = {value!r} overflows the product of the relaxation rates q = mu1 * mu2")
    if dl1 * dl2 == 0.0:
        value, name = min((dl1, "p_DL_1"), (dl2, "p_DL_2"))
        raise ValueError(f"{name} = {value!r} underflows the light fraction P_L = p_DL_1 * p_DL_2 / q")

    sigma_l = ld1 + ld2
    t_l = 1.0 / sigma_l if sigma_l > 0.0 else math.inf
    if sigma_l > 0.0:
        p1 = ld1 / sigma_l
        p2 = ld2 / sigma_l
    else:
        p1 = 0.0
        p2 = 0.0

    mu1, mu2, p_l = _relaxation(ld1, ld2, dl1, dl2)

    return PeriodStatistics(
        p_LD=(ld1, ld2),
        p_DL=(dl1, dl2),
        T_L=t_l,
        T_D=(1.0 / dl1, 1.0 / dl2),
        p1=p1,
        p2=p2,
        P_L=p_l,
        mu1=mu1,
        mu2=mu2,
        Gamma=0.5 * (mu1 - mu2),
    )


def statistics_from_params(params: PhotoPhysicalParams) -> PeriodStatistics:
    """Shortcut: period statistics implied by microscopic coefficients."""
    p_ld, p_dl = transition_rates(params)
    return period_statistics(p_ld, p_dl)


def rates_from_statistics(
    T_L: float, T_D: tuple[float, float], p1: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Invert the period summary back to the four switching rates.

    ``T_L`` is the mean light period, ``T_D`` the two mean dark periods
    and ``p1`` the branching fraction of type-1 dark periods.
    """
    T_L = _require_finite("T_L", T_L)
    td1, td2 = (_require_finite(f"T_D_{i + 1}", v) for i, v in enumerate(T_D))
    p1 = _require_finite("p1", p1)
    if T_L <= 0.0 or td1 <= 0.0 or td2 <= 0.0:
        raise ValueError("mean period durations must be positive")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError("p1 must lie in [0, 1]")
    return _switching_rates(T_L, td1, td2, p1)


def _switching_rates(
    T_L: float, td1: float, td2: float, p1: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """:func:`rates_from_statistics` without its checks."""
    sigma_l = 1.0 / T_L
    return (p1 * sigma_l, (1.0 - p1) * sigma_l), (1.0 / td1, 1.0 / td2)


def write_params(params: PhotoPhysicalParams, path: str) -> None:
    """Write parameters as ``key = value`` lines, one per rate."""
    lines = ["# blinking emitter parameters, all rates in 1/s"]
    for key, value in params.as_dict().items():
        lines.append(f"{key} = {format_float(value)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_params(path: str) -> PhotoPhysicalParams:
    """Read a parameter file written by :func:`write_params`.

    The file must define exactly the seven keys of :data:`PARAM_KEYS`,
    one ``key = value`` pair per line. ``#`` starts a comment, blank
    lines are ignored, repeated keys are an error.
    """
    data = read_key_values(path, dict.fromkeys(PARAM_KEYS, float))
    missing = [k for k in PARAM_KEYS if k not in data]
    if missing:
        raise ValueError(f"{path}: missing parameters {missing}")
    return PhotoPhysicalParams.from_dict(data)
