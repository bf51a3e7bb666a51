import math

import numpy as np
import pytest

from blinkcorr import (
    FitConfig,
    PhotoPhysicalParams,
    eval_curve,
    fit_full,
    log_grid,
    light_intensity,
    period_statistics,
    rates_from_statistics,
    read_params,
    saturation_factor,
    statistics_from_params,
    transition_rates,
    write_params,
)
from blinkcorr import params
from blinkcorr.errors import HierarchyWarning

# Frozen from independent arithmetic: A*W^2/(A^2+2W^2) and W^2/(A^2+W^2)
# at A = 3.3e8, W = 2.9e8.
LIGHT_RATE = 100155178.63587153
SATURATION = 0.4357512953367876

# Frozen from an independent 3x3 generator eigendecomposition of the
# light/dark1/dark2 switching process at the reference rates.
P_L_REF = 0.9262141239032372
MU_SLOW = -444.03688367
MU_FAST = -2509.28073291


def test_light_intensity_value():
    assert light_intensity(3.3e8, 2.9e8) == pytest.approx(LIGHT_RATE, rel=1e-12)


def test_saturation_factor_value():
    assert saturation_factor(3.3e8, 2.9e8) == pytest.approx(SATURATION, rel=1e-12)
    # symmetric drive: exactly one half
    assert saturation_factor(7.0e8, 7.0e8) == pytest.approx(0.5, rel=1e-14)


def test_transition_rates(reference_params):
    p_ld, p_dl = transition_rates(reference_params)
    assert p_ld[0] == pytest.approx(34.0 * SATURATION, rel=1e-12)
    assert p_ld[1] == pytest.approx(249.0 * SATURATION, rel=1e-12)
    assert p_dl == (430.0, 2400.0)


def test_shelving_rates_scale_with_saturation():
    half = PhotoPhysicalParams(
        A31=5e8, Omega31=5e8, A32=(40.0, 200.0), A21=(400.0, 2000.0)
    )
    p_ld, _ = transition_rates(half)
    assert p_ld == pytest.approx((20.0, 100.0), rel=1e-12)


def test_period_statistics_frozen(reference_stats):
    st = reference_stats
    assert st.P_L == pytest.approx(P_L_REF, rel=1e-12)
    assert st.mu1 == pytest.approx(MU_SLOW, rel=1e-9)
    assert st.mu2 == pytest.approx(MU_FAST, rel=1e-9)
    assert st.Gamma == pytest.approx(0.5 * (MU_SLOW - MU_FAST), rel=1e-9)


def test_occupancy_identity(reference_stats):
    # P_L must equal the time-share of light periods.
    st = reference_stats
    mean_cycle = st.T_L + st.p1 * st.T_D[0] + st.p2 * st.T_D[1]
    assert st.P_L == pytest.approx(st.T_L / mean_cycle, rel=1e-12)


def test_branching_fractions(reference_stats):
    st = reference_stats
    assert st.p1 + st.p2 == pytest.approx(1.0, rel=1e-14)
    assert st.p1 == pytest.approx(34.0 / (34.0 + 249.0), rel=1e-12)


def test_non_blinking_limit():
    st = period_statistics((0.0, 0.0), (430.0, 2400.0))
    assert st.P_L == 1.0
    assert st.T_L == math.inf
    assert st.p1 == 0.0 and st.p2 == 0.0


def test_zero_shelving_params():
    p = PhotoPhysicalParams(A31=3.3e8, Omega31=2.9e8, A32=(0.0, 0.0), A21=(430.0, 2400.0))
    p_ld, _ = transition_rates(p)
    assert p_ld == (0.0, 0.0)
    assert statistics_from_params(p).P_L == 1.0


def test_rates_from_statistics_inverts():
    p_ld, p_dl = rates_from_statistics(8.2e-3, (2.3e-3, 4.2e-4), 0.12)
    assert p_ld[0] == pytest.approx(0.12 / 8.2e-3, rel=1e-12)
    assert p_ld[1] == pytest.approx(0.88 / 8.2e-3, rel=1e-12)
    assert p_dl[0] == pytest.approx(1.0 / 2.3e-3, rel=1e-12)
    assert p_dl[1] == pytest.approx(1.0 / 4.2e-4, rel=1e-12)

    st = period_statistics(p_ld, p_dl)
    assert st.T_L == pytest.approx(8.2e-3, rel=1e-12)
    assert st.T_D[0] == pytest.approx(2.3e-3, rel=1e-12)
    assert st.T_D[1] == pytest.approx(4.2e-4, rel=1e-12)
    assert st.p1 == pytest.approx(0.12, rel=1e-12)


def test_stable_roots_product_and_sum():
    # Vieta: the two relaxation rates must satisfy the characteristic
    # polynomial exactly, even for badly separated inputs.
    st = period_statistics((1e-3, 2e2), (5e-3, 9e3))
    ld1, ld2 = st.p_LD
    dl1, dl2 = st.p_DL
    s = ld1 + ld2 + dl1 + dl2
    q = ld1 * dl2 + dl1 * ld2 + dl1 * dl2
    assert st.mu1 + st.mu2 == pytest.approx(-s, rel=1e-12)
    assert st.mu1 * st.mu2 == pytest.approx(q, rel=1e-12)
    assert st.mu1 > st.mu2


def test_params_validation():
    with pytest.raises(ValueError):
        PhotoPhysicalParams(A31=0.0, Omega31=2.9e8, A32=(1.0, 1.0), A21=(1.0, 1.0))
    with pytest.raises(ValueError):
        PhotoPhysicalParams(A31=3.3e8, Omega31=-1.0, A32=(1.0, 1.0), A21=(1.0, 1.0))
    with pytest.raises(ValueError):
        PhotoPhysicalParams(A31=3.3e8, Omega31=2.9e8, A32=(-1.0, 1.0), A21=(1.0, 1.0))
    with pytest.raises(ValueError):
        PhotoPhysicalParams(
            A31=3.3e8, Omega31=2.9e8, A32=(1.0, 1.0), A21=(1.0, 1.0), I_sc=-5.0
        )
    with pytest.raises(ValueError):
        PhotoPhysicalParams(A31=math.nan, Omega31=2.9e8, A32=(1.0, 1.0), A21=(1.0, 1.0))
    # zero deshelving is allowed at construction time
    PhotoPhysicalParams(A31=3.3e8, Omega31=2.9e8, A32=(0.0, 0.0), A21=(0.0, 0.0))


def test_hierarchy_warning(monkeypatch, reference_params):
    # The warning points at the first caller outside the package, not at
    # the dataclass's generated __init__ or the package's frames between:
    # for a direct construction, from_dict and the fit that calls it.
    with pytest.warns(HierarchyWarning) as record:
        PhotoPhysicalParams(A31=1e4, Omega31=1e4, A32=(500.0, 1.0), A21=(1.0, 1.0))
    with pytest.warns(HierarchyWarning) as record_dict:
        PhotoPhysicalParams.from_dict(
            {"A31": 1e4, "Omega31": 1e4, "A32_1": 500.0, "A32_2": 1.0, "A21_1": 1.0, "A21_2": 1.0, "I_sc": 0.0}
        )
    series = eval_curve(reference_params, log_grid(1e-10, 1.0, 30))
    # Any metastable rate against the fitted optical rates warns.
    monkeypatch.setattr(params, "_HIERARCHY_MARGIN", 0.0)
    with pytest.warns(HierarchyWarning) as record_fit:
        fit_full(series, FitConfig(bootstrap_resamples=0))
    assert [w.filename for w in [*record, *record_dict, *record_fit]] == [__file__] * 3


def test_period_statistics_requires_finite_dark_periods():
    with pytest.raises(ValueError):
        period_statistics((1.0, 2.0), (0.0, 5.0))


def test_dict_round_trip(reference_params):
    again = PhotoPhysicalParams.from_dict(reference_params.as_dict())
    assert again == reference_params
    with pytest.raises(ValueError):
        PhotoPhysicalParams.from_dict({"A31": 1.0})
    bad = reference_params.as_dict()
    bad["extra"] = 1.0
    with pytest.raises(ValueError):
        PhotoPhysicalParams.from_dict(bad)


def test_file_round_trip(tmp_path, reference_params):
    path = str(tmp_path / "params.txt")
    write_params(reference_params, path)
    assert read_params(path) == reference_params


def test_read_params_errors(tmp_path):
    path = tmp_path / "bad.txt"

    path.write_text("A31 = 1e8\n")
    with pytest.raises(ValueError, match="missing"):
        read_params(str(path))

    path.write_text("A31 = 1e8\nA31 = 2e8\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_params(str(path))

    path.write_text("bogus = 1\n")
    with pytest.raises(ValueError, match="unknown"):
        read_params(str(path))

    path.write_text("A31 = pony\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        read_params(str(path))


def test_read_params_refuses_digit_separators(tmp_path, reference_params):
    # float() reads 3_3e8 as 3.3e9; no number in an input file holds a '_'.
    path = tmp_path / "bad.txt"
    write_params(reference_params, str(path))
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("A31"))
    lines[at] = "A31 = 3_3e8"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"bad\.txt:{at + 1}: bad value for 'A31'"):
        read_params(str(path))


def test_read_params_comments_and_spacing(tmp_path, reference_params):
    path = tmp_path / "commented.txt"
    lines = ["# header", ""]
    for key, value in reference_params.as_dict().items():
        lines.append(f"  {key}   =   {value!r}   # trailing note")
    path.write_text("\n".join(lines) + "\n")
    assert read_params(str(path)) == reference_params
