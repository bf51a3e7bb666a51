"""The benchmark's reference model against properties the physics fixes."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from blinkbench import reference as ref  # noqa: E402

BARE = ref.Emitter(3.3e8, 2.9e8, 34.0, 249.0, 430.0, 2400.0, 0.0)


def test_antibunching_at_zero_delay():
    assert abs(ref.g2_bloch(np.array([0.0]), BARE.A31, BARE.Omega31)[0]) < 1e-12
    # With background the zero-delay value is the background's share,
    # raised by the bunching factor.
    i_l = ref.light_intensity(ref.REFERENCE.A31, ref.REFERENCE.Omega31)
    p_l = ref.period_summary(ref.REFERENCE)["P_L"]
    expected = ref.REFERENCE.I_sc / (i_l + ref.REFERENCE.I_sc) / p_l
    assert ref.g_reference(np.array([0.0]), ref.REFERENCE)[0] == pytest.approx(expected, rel=1e-12)


def test_long_delay_limit_is_one():
    g = ref.g_reference(np.array([1.0, 10.0, 100.0]), ref.REFERENCE)
    assert np.all(np.abs(g - 1.0) < 1e-9)


def test_hump_height_is_inverse_light_fraction():
    # Between the optical relaxation (~ns) and the blinking (~ms) the
    # curve sits on the plateau 1 / P_L.
    p_l = ref.period_summary(BARE)["P_L"]
    assert ref.g_reference(np.array([1e-7]), BARE)[0] == pytest.approx(1.0 / p_l, rel=1e-4)
    assert ref.p_ll_expm(np.array([0.0]), BARE)[0] == 1.0


def test_bloch_correlation_matches_textbook_form():
    a, w = BARE.A31, BARE.Omega31
    tau = np.geomspace(1e-11, 1e-6, 200)
    gamma = np.sqrt(w * w - a * a / 16.0)
    textbook = 1.0 - np.exp(-0.75 * a * tau) * (np.cos(gamma * tau) + 0.75 * a / gamma * np.sin(gamma * tau))
    assert np.max(np.abs(ref.g2_bloch(tau, a, w) - textbook)) < 1e-9


@pytest.mark.parametrize("em", [ref.REFERENCE, ref.SLOWED, ref.Emitter(1e6, 1e5, 1, 1, 1, 1)])
def test_mean_waiting_time(em):
    expected = (em.A31**2 + 2.0 * em.Omega31**2) / (em.A31 * em.Omega31**2)
    assert expected == pytest.approx(ref.mean_waiting_time(em.A31, em.Omega31), rel=1e-15)
    table = ref.survival_table(em.A31, em.Omega31)
    assert table.mean() == pytest.approx(expected, rel=1e-6)
    waits = table.sample(np.random.Generator(np.random.Philox(key=[5, 5])), 400_000)
    assert abs(waits.mean() / expected - 1.0) < 5.0 * waits.std() / expected / np.sqrt(waits.size)


def test_record_statistics_and_determinism():
    times, periods = ref.make_record(ref.SLOWED, 20.0, 11)
    again, _ = ref.make_record(ref.SLOWED, 20.0, 11)
    other, _ = ref.make_record(ref.SLOWED, 20.0, 12)
    assert np.array_equal(times, again)
    assert not np.array_equal(times[:1000], other[:1000])
    assert np.all(np.diff(times) >= 0.0) and times[0] >= 0.0 and times[-1] <= 20.0
    assert periods[0, 1] == 0.0 and periods[-1, 2] == 20.0
    assert np.all(periods[1:, 1] == periods[:-1, 2])
    summary = ref.period_summary(ref.SLOWED)
    light = periods[periods[:, 0] == 0.0]
    fraction = float((light[:, 2] - light[:, 1]).sum() / 20.0)
    assert abs(fraction - summary["P_L"]) < 5.0 * ref.light_fraction_sigma(ref.SLOWED, 20.0)
    rate = ref.light_intensity(ref.SLOWED.A31, ref.SLOWED.Omega31)
    assert times.size / (fraction * 20.0) == pytest.approx(rate, rel=5e-3)
    # No photon falls in a dark period.
    dark = periods[periods[:, 0] != 0.0]
    inside = np.searchsorted(times, dark[:, 2]) - np.searchsorted(times, dark[:, 1], side="right")
    assert inside.sum() == 0


def test_light_fraction_sigma_matches_dwell_simulation():
    rng = np.random.Generator(np.random.Philox(key=[3, 3]))
    fractions = []
    for _ in range(200):
        periods = ref.make_periods(ref.SLOWED, 1.0, rng)
        light = periods[periods[:, 0] == 0.0]
        fractions.append((light[:, 2] - light[:, 1]).sum())
    assert np.std(fractions) == pytest.approx(ref.light_fraction_sigma(ref.SLOWED, 1.0), rel=0.2)


def test_random_emitters_keep_the_documented_ranges():
    rng = np.random.Generator(np.random.Philox(key=[0, 7]))
    for _ in range(200):
        em = ref.random_emitter(rng)
        assert 0.1 <= em.Omega31 / em.A31 <= 10.0
        fast = min(em.A31, em.Omega31)
        assert max(em.A32_1, em.A32_2, em.A21_1, em.A21_2) <= 1e-4 * fast
        assert ref.period_summary(em)["P_L"] >= 1.0 / 3.0


def test_degenerate_chain_has_a_repeated_eigenvalue():
    rng = np.random.Generator(np.random.Philox(key=[0, 8]))
    for n in range(4, 9):
        _, rates = ref.random_chain(rng, n, degenerate=True)
        eig = np.sort(np.linalg.eigvals(ref.chain_generator(rates)).real)
        gaps = np.diff(eig)
        assert np.sum(gaps < 1e-9 * np.abs(eig).max()) >= 1
    with pytest.raises(ValueError):
        ref.random_chain(rng, 3, degenerate=True)


def test_chain_correlation_of_three_state_chain():
    # Periods without internal structure: g = p_LL / P_L for a chain that
    # only emits while light.
    p_ld, p_dl = ref.switching_rates(BARE)
    rates = ref.period_generator(p_ld, p_dl)
    tau = np.geomspace(1e-6, 1.0, 50)
    g = ref.chain_correlation(np.array([1.0, 0.0, 0.0]), rates, tau)
    assert np.max(np.abs(g - ref.p_ll_expm(tau, BARE) / ref.period_summary(BARE)["P_L"])) < 1e-12


def test_median_quantile_of_criterion_seven():
    # 99.9th percentile of the median of twenty |N(0, 1)| draws.
    rng = np.random.Generator(np.random.Philox(key=[0, 9]))
    medians = np.median(np.abs(rng.standard_normal((200_000, 20))), axis=1)
    assert np.quantile(medians, 0.999) == pytest.approx(1.27, abs=0.03)


def test_crlb_of_criterion_seven():
    tau = np.geomspace(1e-10, 1.0, 300)
    sigma = 0.01 * ref.g_reference(tau, ref.REFERENCE)
    bound = ref.relative_crlb(ref.REFERENCE, tau, sigma)
    # The relative bounds the acceptance suite quotes for this protocol.
    for key, quoted in {"A31": 0.025, "Omega31": 0.0071, "T_L": 0.169, "T_D1": 0.54, "p1": 0.99}.items():
        assert bound[key] == pytest.approx(quoted, rel=0.05)
