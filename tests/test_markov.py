import math

import numpy as np
import pytest
import scipy.linalg

from blinkcorr import g_total, statistics_from_params
from blinkcorr.errors import DegenerateInputError, ReducibleChainError
from blinkcorr.markov import (
    PeriodChain,
    build_rate_matrix,
    g_general,
    propagator,
    read_chain,
    stationary,
    three_state_chain,
    write_chain,
)


def random_chain(rng, n):
    rates = 10.0 ** rng.uniform(0.0, 3.0, (n, n))
    np.fill_diagonal(rates, 0.0)
    intensities = 10.0 ** rng.uniform(3.0, 6.0, n)
    return PeriodChain(intensities=intensities, rates=rates)


def test_chain_validation():
    with pytest.raises(ValueError):
        PeriodChain(intensities=np.array([]), rates=np.zeros((0, 0)))
    with pytest.raises(ValueError):
        PeriodChain(intensities=np.ones(2), rates=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        PeriodChain(intensities=np.array([1.0, -1.0]), rates=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PeriodChain(
            intensities=np.ones(2), rates=np.array([[0.0, -1.0], [1.0, 0.0]])
        )
    with pytest.raises(ValueError):
        PeriodChain(
            intensities=np.ones(2), rates=np.array([[1.0, 1.0], [1.0, 0.0]])
        )


def test_rate_matrix_rows_sum_to_zero(rng):
    chain = random_chain(rng, 4)
    b = build_rate_matrix(chain)
    assert np.max(np.abs(b.sum(axis=1))) < 1e-9
    off = b.copy()
    np.fill_diagonal(off, 0.0)
    assert np.array_equal(off, chain.rates)


def test_stationary_three_state_closed_form(reference_stats):
    # Star topology: detailed balance gives pi_D = pi_L * p_LD / p_DL.
    ld1, ld2 = reference_stats.p_LD
    dl1, dl2 = reference_stats.p_DL
    pi_l = 1.0 / (1.0 + ld1 / dl1 + ld2 / dl2)
    expected = np.array([pi_l, pi_l * ld1 / dl1, pi_l * ld2 / dl2])

    chain = three_state_chain(reference_stats, light_rate=1e8)
    pi = stationary(build_rate_matrix(chain))
    assert np.max(np.abs(pi - expected)) < 1e-12
    assert pi[0] == pytest.approx(reference_stats.P_L, rel=1e-12)


def test_stationary_matches_long_time_propagator(rng):
    for n in (2, 3, 5):
        chain = random_chain(rng, n)
        b = build_rate_matrix(chain)
        pi = stationary(b)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(pi @ b)) < 1e-8
        # Every row of the long-time propagator converges to pi.
        long = propagator(b, 1e4 / np.max(np.abs(b)))
        assert np.max(np.abs(long - pi[None, :])) < 1e-9


def test_stationary_rejects_reducible():
    b = np.array(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -2.0, 2.0],
            [0.0, 0.0, 2.0, -2.0],
        ]
    )
    with pytest.raises(ReducibleChainError):
        stationary(b)


def test_propagator_identity_at_zero(rng):
    chain = random_chain(rng, 3)
    b = build_rate_matrix(chain)
    assert np.max(np.abs(propagator(b, 0.0) - np.eye(3))) < 1e-12
    # A chain without switching stays put at every delay.
    for n in (1, 3):
        assert np.array_equal(propagator(np.zeros((n, n)), 7.0), np.eye(n))


def test_propagator_semigroup(rng):
    chain = random_chain(rng, 4)
    b = build_rate_matrix(chain)
    t1, t2 = 3.7e-4, 9.1e-4
    p1 = propagator(b, t1)
    p2 = propagator(b, t2)
    p12 = propagator(b, t1 + t2)
    assert np.max(np.abs(p1 @ p2 - p12)) < 1e-10


def count_expm_calls(monkeypatch):
    calls = []
    expm = scipy.linalg.expm

    def counted(*args, **kwargs):
        calls.append(args)
        return expm(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    return calls


def test_propagator_routes_agree(rng, monkeypatch):
    # Well-separated spectrum takes the spectral route; it must agree
    # with the direct matrix exponential.
    chain = random_chain(rng, 3)
    b = build_rate_matrix(chain)
    tau = np.geomspace(1e-5, 1.0, 40)
    direct = np.stack([scipy.linalg.expm(b * t) for t in tau])
    calls = count_expm_calls(monkeypatch)
    out = propagator(b, tau)
    assert len(calls) == 0
    assert np.max(np.abs(out - direct)) < 1e-10


def test_propagator_degenerate_spectrum_falls_back(monkeypatch):
    # Unidirectional cascade with equal rates has a repeated eigenvalue.
    b = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]])
    tau = np.array([0.1, 0.5, 2.0])
    direct = np.stack([scipy.linalg.expm(b * t) for t in tau])
    calls = count_expm_calls(monkeypatch)
    out = propagator(b, tau)
    assert len(calls) == tau.size
    assert np.max(np.abs(out - direct)) < 1e-12


def test_propagator_shapes(rng):
    chain = random_chain(rng, 3)
    b = build_rate_matrix(chain)
    assert propagator(b, 1e-3).shape == (3, 3)
    assert propagator(b, np.array([1e-3, 1e-2])).shape == (2, 3, 3)
    with pytest.raises(ValueError):
        propagator(b, -1.0)


def test_g_general_two_state_closed_form():
    # On/off blinker: g(tau) = 1 + (1 - pi_on)/pi_on * exp(-(k_on + k_off) tau).
    k_off, k_on = 37.0, 143.0
    chain = PeriodChain(
        intensities=np.array([1e5, 0.0]),
        rates=np.array([[0.0, k_off], [k_on, 0.0]]),
    )
    pi_on = k_on / (k_on + k_off)
    tau = np.geomspace(1e-5, 1.0, 80)
    expected = 1.0 + (1.0 - pi_on) / pi_on * np.exp(-(k_on + k_off) * tau)
    got = g_general(tau, chain)
    assert np.max(np.abs(got - expected)) < 1e-10


def test_g_general_matches_two_dark_closed_form(reference_params):
    from blinkcorr.correlation import g2_mod

    from blinkcorr import light_intensity

    stats = statistics_from_params(reference_params)
    light = light_intensity(reference_params.A31, reference_params.Omega31)
    chain = three_state_chain(stats, light_rate=light + reference_params.I_sc)

    def light_g(tau):
        return g2_mod(
            tau,
            reference_params.A31,
            reference_params.Omega31,
            reference_params.I_sc,
        )

    tau = np.geomspace(1e-10, 1.0, 100)
    got = g_general(tau, chain, g_periods=[light_g, None, None])
    expected = g_total(tau, reference_params)
    assert np.max(np.abs(got - expected) / expected) < 1e-10


def test_g_general_label_permutation(rng):
    chain = random_chain(rng, 4)
    tau = np.geomspace(1e-4, 1.0, 30)
    base = g_general(tau, chain)
    perm = rng.permutation(4)
    permuted = PeriodChain(
        intensities=chain.intensities[perm],
        rates=chain.rates[np.ix_(perm, perm)],
    )
    assert np.max(np.abs(g_general(tau, permuted) - base)) < 1e-10


def test_g_general_flat_periods_give_unit_tail(rng):
    chain = random_chain(rng, 3)
    scale = np.max(np.abs(build_rate_matrix(chain)))
    tail = g_general(1e3 / scale, chain)
    assert tail == pytest.approx(1.0, rel=1e-9)


def test_g_general_dark_chain_rejected():
    chain = PeriodChain(
        intensities=np.array([0.0, 0.0]),
        rates=np.array([[0.0, 1.0], [1.0, 0.0]]),
    )
    with pytest.raises(DegenerateInputError):
        g_general(1e-3, chain)


def test_g_general_needs_matching_periods(rng):
    chain = random_chain(rng, 3)
    with pytest.raises(ValueError):
        g_general(1e-3, chain, g_periods=[None])


def test_chain_file_round_trip(tmp_path, rng):
    chain = random_chain(rng, 3)
    path = str(tmp_path / "chain.txt")
    write_chain(chain, path)
    again = read_chain(path)
    assert np.array_equal(again.intensities, chain.intensities)
    assert np.array_equal(again.rates, chain.rates)


def test_read_chain_rejects_malformed(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("")
    with pytest.raises(ValueError):
        read_chain(str(path))
    path.write_text("2\n1.0 0.0\n0.0 1.0\n")
    with pytest.raises(ValueError):
        read_chain(str(path))
    path.write_text("2\n1.0 0.0\n0.0 1.0\n1.0 0.0\n2.0\n")
    with pytest.raises(ValueError):
        read_chain(str(path))
    path.write_text("2\n1.0 oops\n0.0 1.0\n1.0 0.0\n")
    with pytest.raises(ValueError, match="bad number"):
        read_chain(str(path))
