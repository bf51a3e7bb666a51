import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import blinkcorr
from blinkcorr import (
    FitConfig,
    Trajectory,
    eval_curve,
    log_grid,
    read_series,
    transition_rates,
    write_series,
    write_trajectory,
)
from blinkcorr import cli, simulate
from blinkcorr.cli import main
from blinkcorr.errors import HierarchyWarning

PARAMS_TEXT = """\
# reference emitter
A31 = 3.3e8
Omega31 = 2.9e8
A32_1 = 34.0
A32_2 = 249.0
A21_1 = 430.0
A21_2 = 2400.0
I_sc = 7.7e7
"""

# Same system with the optical rates slowed 1000x: identical occupations
# at a photon rate cheap enough for trajectory tests.
SLOW_PARAMS_TEXT = """\
A31 = 3.3e5
Omega31 = 2.9e5
A32_1 = 34.0
A32_2 = 249.0
A21_1 = 430.0
A21_2 = 2400.0
I_sc = 0.0
"""


@pytest.fixture()
def params_file(tmp_path):
    path = tmp_path / "params.txt"
    path.write_text(PARAMS_TEXT)
    return str(path)


@pytest.fixture()
def slow_params_file(tmp_path):
    path = tmp_path / "slow.txt"
    path.write_text(SLOW_PARAMS_TEXT)
    return str(path)


def read_manifest(path):
    with open(path + ".manifest.json") as handle:
        return json.load(handle)


def test_eval_round_trip(tmp_path, params_file, reference_params):
    out = str(tmp_path / "curve.csv")
    assert main(["eval", "--params", params_file, "--grid", "1e-9:1e-2:10", "--out", out]) == 0
    series = read_series(out)
    expected = eval_curve(reference_params, log_grid(1e-9, 1e-2, 10))
    assert np.array_equal(series.tau, expected.tau)
    assert np.max(np.abs(series.g - expected.g)) < 1e-15

    doc = read_manifest(out)
    assert doc["subcommand"] == "eval"
    assert doc["version"] == blinkcorr.__version__
    assert params_file in doc["inputs"]
    assert len(doc["inputs"][params_file]) == 64
    assert doc["params"]["A31"] == 3.3e8


def test_eval_chain(tmp_path):
    chain_path = tmp_path / "chain.txt"
    chain_path.write_text("2\n1e5 0.0\n0.0 37.0\n143.0 0.0\n")
    out = str(tmp_path / "chain_curve.csv")
    assert main(["eval", "--chain", str(chain_path), "--grid", "1e-4:1:10", "--out", out]) == 0
    series = read_series(out)
    # Two-state blinker closed form.
    pi_on = 143.0 / 180.0
    expected = 1.0 + (1.0 - pi_on) / pi_on * np.exp(-180.0 * series.tau)
    assert np.max(np.abs(series.g - expected)) < 1e-10


@pytest.mark.parametrize("count", ["inf", "1e400", "nan", "2.5"])
def test_eval_chain_count_must_be_an_integer(tmp_path, capsys, count):
    chain_path = tmp_path / "chain.txt"
    chain_path.write_text(f"{count}\n1e5 0.0\n0.0 37.0\n143.0 0.0\n")
    out = str(tmp_path / "chain_curve.csv")
    assert main(["eval", "--chain", str(chain_path), "--out", out]) == 2
    assert f"{chain_path}: first entry must be the period count" in capsys.readouterr().err


def test_eval_requires_exactly_one_source(tmp_path, params_file):
    out = str(tmp_path / "x.csv")
    assert main(["eval", "--out", out]) == 2
    assert main(["eval", "--params", params_file, "--chain", params_file, "--out", out]) == 2


def test_eval_rejects_bad_grid(tmp_path, params_file):
    out = str(tmp_path / "x.csv")
    assert main(["eval", "--params", params_file, "--grid", "1:2", "--out", out]) == 2
    assert main(["eval", "--params", params_file, "--grid", "5:1:10", "--out", out]) == 2
    assert main(["eval", "--params", params_file, "--grid", "1e-9:1e-3:0", "--out", out]) == 2


@pytest.mark.parametrize("command", ["eval", "estimate-g"])
def test_grid_whose_span_overflows_is_an_input_error(tmp_path, capsys, params_file, command):
    # 1 / 5e-324 overflows float64; the grid used to end in a bare
    # OverflowError traceback.
    out = str(tmp_path / "x.csv")
    if command == "eval":
        source = ["--params", params_file]
    else:
        traj_path = str(tmp_path / "traj.txt")
        write_trajectory(Trajectory(times=np.array([0.1, 0.2, 0.3]), duration=1.0), traj_path)
        source = ["--traj", traj_path]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, *source, "--grid", "5e-324:1:1", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: grid bounds MAX / MIN must not overflow")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["eval", "estimate-g"])
@pytest.mark.parametrize("density", ["9" * 400, "1" + "0" * 200], ids=["400-nines", "1e200"])
def test_grid_too_dense_to_index_is_an_input_error(tmp_path, capsys, params_file, command, density):
    # 400 nines overflow a float and used to end in a bare OverflowError
    # traceback; 1e200 points per decade left numpy's bare "Maximum
    # allowed size exceeded".
    out = str(tmp_path / "x.csv")
    if command == "eval":
        source = ["--params", params_file]
    else:
        traj_path = str(tmp_path / "traj.txt")
        write_trajectory(Trajectory(times=np.array([0.1, 0.2, 0.3]), duration=1.0), traj_path)
        source = ["--traj", traj_path]
    assert main([command, *source, "--grid", f"1e-10:1:{density}", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid POINTS_PER_DECADE is too large")
    assert "more points than an array can index" in err
    assert not os.path.exists(out)


def test_eval_missing_params_file(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["eval", "--params", str(tmp_path / "nope.txt"), "--out", out]) == 2


def test_eval_malformed_params_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("A31 = 3.3e8\nA31 = 1.0\n")
    out = str(tmp_path / "x.csv")
    assert main(["eval", "--params", str(bad), "--out", out]) == 2


def test_rates_table_and_out(tmp_path, params_file, reference_params, capsys):
    out = str(tmp_path / "rates.txt")
    assert main(["rates", "--params", params_file, "--out", out]) == 0
    stdout = capsys.readouterr().out
    for label in ("shelving_1", "shelving_2", "deshelving_1", "deshelving_2"):
        assert label in stdout

    closed = transition_rates(reference_params)
    values = {}
    for line in open(out):
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, text = line.partition("=")
            values[key.strip()] = float(text)
    assert values["closed_shelving_1"] == pytest.approx(closed[0][0], rel=1e-12)
    assert values["closed_deshelving_2"] == pytest.approx(closed[1][1], rel=1e-12)
    assert values["perturbative_deshelving_1"] == pytest.approx(430.0, rel=1e-3)
    # The generator-derived shelving rates sit well below the closed form.
    assert values["rel_dev_shelving_1"] > 0.2


def test_rates_zero_metastable(tmp_path, capsys):
    path = tmp_path / "nometa.txt"
    path.write_text(
        "A31 = 3.3e8\nOmega31 = 2.9e8\nA32_1 = 0\nA32_2 = 0\n"
        "A21_1 = 0\nA21_2 = 0\nI_sc = 0\n"
    )
    out = str(tmp_path / "rates.txt")
    assert main(["rates", "--params", str(path), "--out", out]) == 0
    for line in open(out):
        line = line.split("#", 1)[0].strip()
        if line:
            _, _, text = line.partition("=")
            assert float(text) == 0.0


def test_rates_finite_dt_without_hierarchy(tmp_path):
    path = tmp_path / "flat.txt"
    path.write_text(
        "A31 = 1e6\nOmega31 = 1e6\nA32_1 = 5e5\nA32_2 = 5e5\n"
        "A21_1 = 5e5\nA21_2 = 5e5\nI_sc = 0\n"
    )
    with pytest.warns(Warning):
        code = main(["rates", "--params", str(path), "--method", "finite-dt"])
    assert code == 1


def test_rates_resolvent_outside_hierarchy(tmp_path, capsys):
    # A weak drive leaves no clean gap in the fast generator's spectrum:
    # the resolvent route fails with a numerical error, the finite-dt
    # route still returns rates.
    path = tmp_path / "weak.txt"
    path.write_text(
        "A31 = 3.3e8\nOmega31 = 4.2e5\nA32_1 = 34\nA32_2 = 249\n"
        "A21_1 = 430\nA21_2 = 2400\nI_sc = 0\n"
    )
    assert main(["rates", "--params", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["rates", "--params", str(path), "--method", "finite-dt"]) == 0


def params_text(**rates):
    """PARAMS_TEXT with the named rates replaced."""
    values = dict(line.split(" = ") for line in PARAMS_TEXT.splitlines() if " = " in line)
    values.update((key, repr(value)) for key, value in rates.items())
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def run_refused(argv, capsys):
    """``main(argv)``'s exit code, its stderr, which must be one ``error:``
    line, and the categories of the warnings the run raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return code, err, [w.category for w in seen]


@pytest.mark.parametrize("command", ["eval", "simulate"])
@pytest.mark.parametrize("key", ["A31", "Omega31"])
def test_optical_rate_whose_square_overflows_is_an_input_error(tmp_path, capsys, command, key):
    # 1e308 ** 2 in the closed forms used to end in a bare OverflowError.
    path = tmp_path / "params.txt"
    path.write_text(params_text(**{key: 1e308}))
    out = tmp_path / "out"
    argv = [command, "--params", str(path), "--out", str(out)]
    if command == "simulate":
        argv += ["--duration", "0.01", "--seed", "1"]
    code, err, seen = run_refused(argv, capsys)
    assert (code, seen) == (2, [])
    assert err == f"error: {key} must be small enough that its square is finite, got 1e+308\n"
    assert not out.exists()


def test_simulate_without_a_finite_mean_wait_is_a_numerical_error(tmp_path, capsys):
    # Omega31^2 underflows to zero, and the sampler's mean wait used to end
    # in a bare ZeroDivisionError; a drive this weak is far below the dark
    # rates, which the hierarchy warning says. Optical rates of 1e154 have
    # finite squares, but the mean wait's sum and product overflow to
    # inf / inf = NaN, which used to end in an IndexError in the sampler's
    # table. At A31 = 1e154, Omega31 = 1e100 only the product A31 Omega31^2
    # overflows: the mean wait came out as 0.0, and the search for the end
    # of the sampler's table never ended. The curve still evaluates at a
    # weak drive.
    path = tmp_path / "params.txt"
    out = tmp_path / "traj.txt"
    argv = ["simulate", "--params", str(path), "--duration", "0.01", "--seed", "1", "--out", str(out)]
    for rates, warned, named in (
        (dict(Omega31=5e-324), [HierarchyWarning], "A31 = 330000000.0, Omega31 = 5e-324"),
        (dict(A31=1e154, Omega31=1e154), [], "A31 = 1e+154, Omega31 = 1e+154"),
        (dict(A31=1e154, Omega31=1e100), [], "A31 = 1e+154, Omega31 = 1e+100"),
    ):
        path.write_text(params_text(**rates))
        code, err, seen = run_refused(argv, capsys)
        assert (code, seen) == (1, warned)
        assert err == f"error: no photon can be drawn at {named}: no finite mean wait\n"
        assert not out.exists()
    path.write_text(params_text(Omega31=1e-300, I_sc=0.0))
    with pytest.warns(HierarchyWarning):
        assert main(["eval", "--params", str(path), "--out", str(tmp_path / "g.csv")]) == 0
    assert np.isfinite(read_series(str(tmp_path / "g.csv")).g).all()


def test_simulate_of_more_photons_than_an_array_can_index_is_a_numerical_error(tmp_path, capsys):
    # About 3e96 photons in a millisecond: np.empty used to refuse the
    # array with "Maximum allowed dimension exceeded", an input error that
    # named no count. Nothing is drawn or allocated before the refusal.
    path = tmp_path / "params.txt"
    path.write_text(params_text(A31=1e100, Omega31=1e100))
    out = tmp_path / "traj.txt"
    argv = ["simulate", "--params", str(path), "--duration", "0.001", "--seed", "1", "--out", str(out)]
    code, err, seen = run_refused(argv, capsys)
    assert (code, seen) == (1, [])
    assert err == "error: a record of about 3.33e+96 photons holds more times than an array can index\n"
    assert not out.exists()


def test_simulate_whose_waits_swamp_the_light_periods_writes_an_empty_record(tmp_path, capsys):
    # At A31 = 1e-30 the waits' running sums reach about 1e30 s, far
    # coarser than a light period, so a period's span added to its base
    # rounded to the base and the walk found the previous period's stop:
    # the sampler ended in an IndexError. No wait ends inside a period,
    # so the record holds no photon.
    path = tmp_path / "params.txt"
    path.write_text(params_text(A31=1e-30, I_sc=0.0))
    out = tmp_path / "traj.txt"
    argv = ["simulate", "--params", str(path), "--duration", "0.01", "--seed", "1", "--out", str(out)]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [w.category for w in seen] == [HierarchyWarning]
    stdout, err = capsys.readouterr()
    assert stdout.startswith("simulated 0 photons over 0.01 s")
    assert err == ""
    record = blinkcorr.read_trajectory(str(out))
    assert (len(record), record.duration, record.seed) == (0, 0.01, 1)
    assert read_manifest(str(out))["seed"] == 1


@pytest.mark.parametrize(
    "command, rates, message",
    [
        ("eval", dict(A31=1e-300, Omega31=1e-300), "no saturation factor at A31 = 1e-300, Omega31 = 1e-300"),
        ("rates", dict(A31=1e-300, Omega31=1e-300), "no saturation factor at A31 = 1e-300, Omega31 = 1e-300"),
        ("eval", dict(Omega31=1e-300, I_sc=100.0), "no background ratio at A31 = 330000000.0, Omega31 = 1e-300"),
    ],
    ids=["eval-squares", "rates-squares", "eval-background"],
)
def test_drive_that_underflows_is_a_numerical_error(tmp_path, capsys, command, rates, message):
    # Both squares of the optical rates, or the light intensity under a
    # background, underflow to zero: the closed forms used to divide by it
    # and end in a bare ZeroDivisionError. A drive this weak is far below
    # the dark rates, which the hierarchy warning says.
    path = tmp_path / "params.txt"
    path.write_text(params_text(**rates))
    out = tmp_path / "out"
    code, err, seen = run_refused([command, "--params", str(path), "--out", str(out)], capsys)
    assert (code, seen) == (1, [HierarchyWarning])
    assert err.startswith(f"error: {message}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "rates, warned",
    [
        # Optical rates of 1e154 overflow the generator's products: the
        # rates came out NaN, printed with exit code 0.
        (dict(A31=1e154, Omega31=1e154, A32_1=1e151, A32_2=1e150, A21_1=1e151, A21_2=1e150), []),
        # A dark rate of 1e308: inf and NaN after a RuntimeWarning, and the
        # hierarchy warning these rates call for.
        (dict(A21_2=1e308), [HierarchyWarning]),
    ],
    ids=["1e154", "A21_2-1e308"],
)
def test_rates_that_are_not_finite_are_a_numerical_error(tmp_path, capsys, rates, warned):
    path = tmp_path / "params.txt"
    path.write_text(params_text(**rates))
    out = tmp_path / "rates.txt"
    code, err, seen = run_refused(["rates", "--params", str(path), "--out", str(out)], capsys)
    assert (code, seen) == (1, warned)
    assert err.startswith("error: switching rates by resolvent are not finite")
    assert not out.exists()


@pytest.mark.parametrize(
    "rates, warned, message",
    [
        # Dark rates of the smallest subnormal: q underflows to zero, and
        # P_L = p_DL_1 p_DL_2 / q ended in a ZeroDivisionError.
        (
            dict(A32_1=0.3, A21_1=0.3, A32_2=5e-324, A21_2=5e-324),
            [],
            "p_DL_2 = 5e-324 underflows the light fraction P_L = p_DL_1 * p_DL_2 / q",
        ),
        # A dark rate of 1e308: q overflows, and P_L = inf / inf made g NaN,
        # refused as "tau and g must be finite".
        (
            dict(A21_2=1e308),
            [HierarchyWarning],
            "p_DL_2 = 1e+308 overflows the product of the relaxation rates q = mu1 * mu2",
        ),
    ],
    ids=["q-underflows", "q-overflows"],
)
def test_relaxation_out_of_float64_range_is_an_input_error(tmp_path, capsys, rates, warned, message):
    values = dict(line.split(" = ") for line in SLOW_PARAMS_TEXT.splitlines())
    values.update((key, repr(value)) for key, value in rates.items())
    path = tmp_path / "params.txt"
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    out = tmp_path / "curve.csv"
    code, err, seen = run_refused(["eval", "--params", str(path), "--out", str(out)], capsys)
    assert (code, err, seen) == (2, f"error: {message}\n", warned)
    assert not out.exists()


def test_simulate_deterministic(tmp_path, slow_params_file):
    out_a = str(tmp_path / "a.txt")
    out_b = str(tmp_path / "b.txt")
    out_c = str(tmp_path / "c.txt")
    base = ["simulate", "--params", slow_params_file, "--duration", "0.5"]
    assert main(base + ["--seed", "5", "--out", out_a]) == 0
    assert main(base + ["--seed", "5", "--out", out_b]) == 0
    assert main(base + ["--seed", "6", "--out", out_c]) == 0
    assert open(out_a).read() == open(out_b).read()
    assert open(out_a).read() != open(out_c).read()
    doc = read_manifest(out_a)
    assert doc["seed"] == 5
    assert doc["subcommand"] == "simulate"


def test_simulate_requires_seed(tmp_path, slow_params_file):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--params", slow_params_file, "--duration", "0.5",
              "--out", str(tmp_path / "x.txt")])
    assert info.value.code == 2


def test_simulate_refuses_the_grid_before_it_draws(tmp_path, slow_params_file, capsys, monkeypatch):
    # A --grid the estimate of --g-out refuses is refused before a period
    # or a photon is drawn: no record, no estimate and no manifest.
    def drawn(*args):
        raise AssertionError("a period was drawn")

    monkeypatch.setattr(cli, "simulate_periods", drawn)
    out, g_out = str(tmp_path / "traj.txt"), str(tmp_path / "g.csv")
    argv = ["simulate", "--params", slow_params_file, "--duration", "0.5", "--seed", "1", "--out", out,
            "--g-out", g_out, "--grid", "1e-3:1e-4:5"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: grid bounds must satisfy 0 < MIN < MAX\n")
    assert sorted(os.listdir(tmp_path)) == ["slow.txt"]


def test_simulate_rejects_bad_duration(tmp_path, slow_params_file):
    out = str(tmp_path / "x.txt")
    assert main(["simulate", "--params", slow_params_file, "--duration", "-1",
                 "--seed", "1", "--out", out]) == 2


def record_exact_limits(monkeypatch):
    """Last edge of each exact stage the correlator sets up, once per
    estimate that has one, as the CLI prints it."""
    limits = []
    pair_counter = simulate._pair_counter

    def recorded(edges, duration):
        limits.append(f"{edges[-1]:g}")
        return pair_counter(edges, duration)

    monkeypatch.setattr(simulate, "_pair_counter", recorded)
    return limits


def estimate_line(bins, photons, limits, first_edge):
    # With no exact-stage call the exact stage stops at the first edge.
    limit = limits.pop() if limits else first_edge
    return f"estimated {bins} bins from {photons} arrivals, pairs counted exactly below {limit} s"


def test_simulate_with_estimate(tmp_path, slow_params_file, capsys, monkeypatch):
    limits = record_exact_limits(monkeypatch)
    out = str(tmp_path / "traj.txt")
    g_out = str(tmp_path / "est.csv")
    assert main(["simulate", "--params", slow_params_file, "--duration", "2",
                 "--seed", "9", "--out", out, "--g-out", g_out,
                 "--grid", "1e-5:1e-1:8"]) == 0
    stdout = capsys.readouterr().out
    assert "photons" in stdout and "light fraction" in stdout
    series = read_series(g_out)
    assert stdout.splitlines()[-1] == estimate_line(
        len(series), simulated_photons(stdout), limits, "1e-05"
    )
    assert series.sigma is not None
    assert len(series) > 10
    doc = read_manifest(g_out)
    assert set(doc["outputs"]) == {out, g_out}


def slow_params_with(path, **values):
    """Writes SLOW_PARAMS_TEXT with the named values, given as text, to
    ``path``, and returns ``path`` as a string."""
    fields = dict(line.split(" = ") for line in SLOW_PARAMS_TEXT.splitlines())
    fields.update(values)
    path.write_text("".join(f"{key} = {value}\n" for key, value in fields.items()))
    return str(path)


def simulate_whole(periods, params, seed, path, keep):
    """``cli._simulate_record`` by the record drawn whole by
    simulate_photons and then written by write_trajectory: the reference
    for the streamed record."""
    trajectory = simulate.simulate_photons(periods, params, seed)
    write_trajectory(trajectory, path)
    photons = types.SimpleNamespace(count=len(trajectory), duration=trajectory.duration)
    return photons, [trajectory.times] if keep else []


def on_grid(values, step):
    return np.round(np.asarray(values) / step) * step


# Light periods that overlap the one before, so a period's first arrivals
# lie below the last ones of the period before; in the refused record the
# second runs past the record's end.
OVERLAPPING = [[0.0, 0.0, 0.02], [0.0, 0.015, 0.035], [0.0, 0.03, 0.045], [1.0, 0.045, 0.05]]
PAST_THE_END = [[0.0, 0.0, 0.02], [0.0, 0.015, 0.07], [1.0, 0.02, 0.05]]


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("case", ["ties", "overlapping", "dark", "no-photon", "refused"])
def test_simulate_streams_what_simulate_photons_and_write_trajectory_give(
    tmp_path, capsys, monkeypatch, cores, case
):
    # Chunks of 7 waits and texts of 5 rows. The streamed record, stdout,
    # manifests, exit code and, in two cases, estimate are those of the
    # record drawn whole and then written, byte for byte: with background
    # photons that tie with each other and with the molecule's, light
    # periods whose arrivals interleave across chunks, a record of
    # background photons alone, one of no photon (whose estimate is
    # refused), and one whose later block runs past the record's end.
    monkeypatch.setattr(simulate, "_BLOCK", 7)
    monkeypatch.setattr(simulate, "_WRITE_BLOCK", 5)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    values = {}
    periods = cli.simulate_periods
    if case == "ties":
        # Waits on a grid of 2**-16 s, periods and background on one of 2**-10 s.
        values["I_sc"] = "2e4"
        waits, stream_rng = simulate._EmissionSampler.waits, simulate._stream_rng

        class Coarse:
            def __init__(self, rng):
                self.poisson, self.rng = rng.poisson, rng

            def uniform(self, low, high, size):
                return on_grid(self.rng.uniform(low, high, size), 2.0**-10)

        monkeypatch.setattr(simulate._EmissionSampler, "waits", lambda self, u: on_grid(waits(self, u), 2.0**-16))
        background = simulate._STREAM_BACKGROUND
        monkeypatch.setattr(
            simulate,
            "_stream_rng",
            lambda seed, stream: Coarse(stream_rng(seed, stream)) if stream == background else stream_rng(seed, stream),
        )
        monkeypatch.setattr(cli, "simulate_periods", lambda *args: on_grid(periods(*args), 2.0**-10))
    elif case in ("overlapping", "refused"):
        record = np.array(OVERLAPPING if case == "overlapping" else PAST_THE_END)
        monkeypatch.setattr(cli, "simulate_periods", lambda *args: record)
    elif case == "dark":
        values["I_sc"] = "2e4"
        monkeypatch.setattr(cli, "simulate_periods", lambda *args: np.array([[1.0, 0.0, 0.05]]))
    else:
        values["A31"] = "1e-30"
    params = slow_params_with(tmp_path / "params.txt", **values)
    out, g_out = str(tmp_path / "traj.txt"), str(tmp_path / "g.csv")
    argv = ["simulate", "--params", params, "--duration", "0.05", "--seed", "3", "--out", out]
    if case in ("ties", "no-photon"):
        argv += ["--g-out", g_out, "--grid", "1e-5:1e-3:5"]

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HierarchyWarning)
            code = main(argv)
        files = []
        for path in (out, out + ".manifest.json", g_out, g_out + ".manifest.json"):
            files.append(open(path, "rb").read() if os.path.exists(path) else None)
            if os.path.exists(path):
                os.remove(path)
        return (code, *capsys.readouterr(), *files)

    streamed = run()
    monkeypatch.setattr(cli, "_simulate_record", simulate_whole)
    assert run() == streamed
    code, stdout, err, record = streamed[:4]
    expected = {"ties": 0, "overlapping": 0, "dark": 0, "no-photon": 1, "refused": 2}[case]
    assert code == expected, err
    if case == "refused":
        assert (err, record) == ("error: arrival times must lie within [0, duration]\n", None)
        return
    times = np.array([float(line) for line in record.split(b"\n")[2:-1]])
    assert simulated_photons(stdout) == times.size
    if case == "ties":
        assert np.unique(times).size < times.size - 100
    elif case == "overlapping":
        assert times.size > 1000
    elif case == "dark":
        assert 600 < times.size < 1400
    else:
        assert times.size == 0 and err == "error: need at least two photons to correlate\n"


def test_simulate_memory_does_not_grow_with_the_record(tmp_path, monkeypatch, slow_params_file):
    # Records of 4 s and 8 s of the benchmark emitter, about 370,000 and
    # 740,000 photons: the streamed record's allocation peak is the same
    # for both (5.7 and 5.8 MB on a 2-core x86-64 VM), where drawing the
    # record whole grew it by the 3 MB more times and a half (8.1 to 11.2 MB). The sampler's
    # dense table has 2**14 points, so its set-up, 13 MB at 2**19 points,
    # does not hide the times. On one core, so the peak does not depend on
    # how the blocks in flight overlap, and after a first run that does
    # the imports.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(simulate._EmissionSampler, "_POINTS", 1 << 14)
    peaks = []
    for seconds in ("4", "4", "8"):
        tracemalloc.start()
        try:
            argv = ["simulate", "--params", slow_params_file, "--duration", seconds, "--seed", "2"]
            assert main(argv + ["--out", str(tmp_path / "traj.txt")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[2] - peaks[1]) < 0.1 * peaks[1], peaks


@pytest.mark.parametrize("a31", ["1e-100", "1e-200", "1e-250", "1e-280", "1e-300"])
def test_simulate_whose_drive_overflows_its_squares_writes_an_empty_record(tmp_path, capsys, a31):
    # Below A31 of about 1e-150 the sampler's table reaches so far that
    # the square of 0.5 Omega31 t overflowed and the survival came out NaN
    # or inf: RuntimeWarnings, and from 1e-200 an IndexError in the lookup.
    # The table is finite now, its waits swamp every light period, and the
    # record holds no photon, as at A31 = 1e-30.
    path = slow_params_with(tmp_path / "params.txt", A31=a31)
    out = tmp_path / "traj.txt"
    argv = ["simulate", "--params", path, "--duration", "0.01", "--seed", "1", "--out", str(out)]
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [w.category for w in seen] == [HierarchyWarning]
    stdout, err = capsys.readouterr()
    assert stdout.startswith("simulated 0 photons over 0.01 s")
    assert err == ""
    assert len(blinkcorr.read_trajectory(str(out))) == 0


def test_simulate_whose_waits_table_ends_past_float64_is_a_numerical_error(tmp_path, capsys):
    # At A31 = 1e-303 the mean wait, 7e302 s, is finite, but the drive's
    # phase over the table's end is not.
    path = slow_params_with(tmp_path / "params.txt", A31="1e-303")
    out = tmp_path / "traj.txt"
    argv = ["simulate", "--params", path, "--duration", "0.01", "--seed", "1", "--out", str(out)]
    code, err, seen = run_refused(argv, capsys)
    assert (code, seen) == (1, [HierarchyWarning])
    assert err == (
        "error: no photon can be drawn at A31 = 1e-303, Omega31 = 290000.0: the waits' table ends past float64's range\n"
    )
    assert not out.exists()


def test_blink_factor_out_of_float64_range_is_a_numerical_error(tmp_path, capsys):
    # A32_1 = 1e154 against A21_1 = 0.0013: beta's product alpha * sigma_L
    # overflows, so c_plus = -inf and c_minus = inf; the curve came out
    # NaN after RuntimeWarnings and was refused as an input error, "tau
    # and g must be finite".
    path = slow_params_with(tmp_path / "params.txt", A32_1="1e154", A21_1="0.0013")
    out = tmp_path / "curve.csv"
    code, err, seen = run_refused(["eval", "--params", path, "--out", str(out)], capsys)
    assert (code, seen) == (1, [HierarchyWarning])
    assert err.startswith("error: the blink factor is out of float64 range at p_LD = (4.357512953367876e+153, ")
    assert err.endswith("its coefficients are c_plus = -inf, c_minus = inf\n")
    assert not out.exists()


def test_written_files_get_the_mode_open_gives(tmp_path, slow_params_file):
    # New files get 0o666 less the umask, as with open(); mkstemp alone
    # would leave them owner-only (0o600).
    out = str(tmp_path / "traj.txt")
    g_out = str(tmp_path / "est.csv")
    args = ["simulate", "--params", slow_params_file, "--duration", "0.5",
            "--seed", "3", "--out", out, "--g-out", g_out, "--grid", "1e-4:1e-1:4"]
    written = [out, g_out, out + ".manifest.json", g_out + ".manifest.json"]
    old = os.umask(0o022)
    try:
        assert main(args) == 0
        assert [os.stat(path).st_mode & 0o777 for path in written] == [0o644] * 4
        # Written again under another umask, the files keep their mode.
        os.umask(0o077)
        assert main(args) == 0
        assert [os.stat(path).st_mode & 0o777 for path in written] == [0o644] * 4
    finally:
        os.umask(old)


def test_replaced_files_keep_their_mode(tmp_path, slow_params_file):
    out = str(tmp_path / "traj.txt")
    args = ["simulate", "--params", slow_params_file, "--duration", "0.5",
            "--seed", "3", "--out", out]
    old = os.umask(0o022)
    try:
        assert main(args) == 0
        os.chmod(out, 0o640)
        os.chmod(out + ".manifest.json", 0o604)
        assert main(args) == 0
    finally:
        os.umask(old)
    assert os.stat(out).st_mode & 0o777 == 0o640
    assert os.stat(out + ".manifest.json").st_mode & 0o777 == 0o604


def simulated_photons(stdout):
    return int(stdout.split("simulated ")[1].split()[0])


def test_estimate_g_from_file(tmp_path, slow_params_file, capsys, monkeypatch):
    traj_path = str(tmp_path / "traj.txt")
    assert main(["simulate", "--params", slow_params_file, "--duration", "2",
                 "--seed", "12", "--out", traj_path]) == 0
    photons = simulated_photons(capsys.readouterr().out)
    limits = record_exact_limits(monkeypatch)
    out = str(tmp_path / "g.csv")
    assert main(["estimate-g", "--traj", traj_path, "--grid", "1e-5:1e-1:8",
                 "--out", out]) == 0
    series = read_series(out)
    assert np.all(series.sigma > 0.0)
    assert capsys.readouterr().out == estimate_line(len(series), photons, limits, "1e-05") + "\n"
    doc = read_manifest(out)
    assert doc["seed"] == 12  # carried through the trajectory header
    # A grid from 1e-7 s starts below the split, so both stages run.
    assert main(["estimate-g", "--traj", traj_path, "--grid", "1e-7:1e-1:8",
                 "--out", out]) == 0
    assert len(limits) == 1
    line = estimate_line(len(read_series(out)), photons, limits, "1e-07")
    assert capsys.readouterr().out == line + "\n"


def test_estimate_g_insufficient_data(tmp_path):
    traj_path = str(tmp_path / "lonely.txt")
    write_trajectory(Trajectory(times=np.array([0.5]), duration=1.0), traj_path)
    out = str(tmp_path / "g.csv")
    assert main(["estimate-g", "--traj", traj_path, "--out", out]) == 1


@pytest.mark.parametrize(
    "record, grid",
    [
        # Lattices of more cells than float64 counts, and a pair density
        # that underflows: on the default grid and on a fine one.
        ("# duration = 1e300\n0.5\n1\n", "1e-9:1e-1:20"),
        ("# duration = 1e300\n0.5\n1\n", "1e-3:1e-2:2000"),
        # Bins so narrow that their standard errors overflow and their
        # centres round to zero.
        ("# duration = 1\n0.1\n0.2\n0.3\n", "1e-300:1e-1:1"),
    ],
    ids=["sparse-default-grid", "sparse-fine-grid", "narrow-bins"],
)
def test_estimate_g_out_of_float64_range(tmp_path, capsys, record, grid):
    # A record the reader accepts gives a series or a numerical error,
    # never a traceback or a warning.
    traj_path = tmp_path / "traj.txt"
    traj_path.write_text(record)
    out = str(tmp_path / "g.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["estimate-g", "--traj", str(traj_path), "--grid", grid, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: g(tau) of this record on these bins is out of float64 range")
    assert not os.path.exists(out)


def streamed_records():
    """Records over 1 s, by name: with ties, with a gap of 0.8 s, with more
    than 255 photons in one lattice cell, and of 40 photons, fewer than
    one block of rows."""
    rng = np.random.Generator(np.random.Philox(key=[8, 7]))
    poisson = np.sort(rng.uniform(0.0, 1.0, 3000))
    return {
        "ties": np.sort(np.concatenate([poisson, np.repeat(poisson[::10], 3)])),
        "gap": np.concatenate([poisson[poisson < 0.1], 0.9 + poisson[poisson < 0.1]]),
        "crowded-cell": np.sort(np.concatenate([poisson, np.full(300, 0.5)])),
        "short": poisson[:40],
    }


def run_estimate(path, out, capsys):
    """stdout, output and manifest of ``estimate-g`` on ``path``."""
    assert main(["estimate-g", "--traj", path, "--grid", "1e-6:1e-1:5", "--out", out]) == 0
    with open(out, "rb") as series, open(out + ".manifest.json", "rb") as manifest:
        return capsys.readouterr().out, series.read(), manifest.read()


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_estimate_g_streams_what_the_record_read_whole_gives(tmp_path, capsys, monkeypatch, cores):
    # Blocks of 50 rows and pieces of 256 lattice cells; the streamed
    # route reads no record whole, and its stdout, estimate and manifest
    # are those of estimate_g on the record read whole in process, byte for
    # byte.
    monkeypatch.setattr(simulate, "_WRITE_BLOCK", 50)
    monkeypatch.setattr(simulate, "_BLOCK", 256)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    read_whole = []
    monkeypatch.setattr(cli, "read_trajectory", lambda path: read_whole.append(path) or simulate.read_trajectory(path))
    edges = cli._parse_grid("1e-6:1e-1:5")
    for name, times in streamed_records().items():
        path, out = str(tmp_path / f"{name}.traj"), str(tmp_path / f"{name}.csv")
        write_trajectory(Trajectory(times=times, duration=1.0, seed=8), path)
        stdout, written, manifest = run_estimate(path, out, capsys)
        assert read_whole == []
        whole = simulate.read_trajectory(path)
        expected = simulate.estimate_g(whole, edges)
        limit = simulate._correlate(len(whole), whole.duration, edges, [whole.times])[1]
        write_series(expected, str(tmp_path / "expected.csv"))
        assert written == (tmp_path / "expected.csv").read_bytes(), name
        assert stdout == (
            f"estimated {len(expected)} bins from {len(whole)} arrivals, pairs counted exactly below {limit:g} s\n"
        ), name
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        doc = json.loads(manifest)
        assert (doc["subcommand"], doc["inputs"], doc["outputs"]) == ("estimate-g", {path: digest}, [out])
        assert doc["seed"] == 8


# Bad rows of the ties record by kind, each the one fault of its record,
# as (index in its lines, row): in the first block, a middle one and the
# last. The middle one is the first row of a block of 50, so a time out of
# order there is out of order only with the block before. A time out of
# range can be the one fault only at either end; the negative one is no
# '%.16e' row, so its record takes the line route.
BAD_ROWS = {
    "malformed": [(3, b"0.5 0.6"), (1951, b"0.5 0.6"), (-3, b"0.5 0.6")],
    "not-finite": [(3, b"nan"), (1951, b"nan"), (-1, b"nan")],
    "unsorted": [(3, 0.25), (1951, 0.25), (-3, 0.25)],
    "out-of-range": [(1, -1e-3), (-1, 1.5)],
}


def bad_record(layout, index, row):
    """The ties record over 1 s as ``layout`` lines after its header, with
    ``row`` at ``index`` of its lines, a row of the fixed width if the
    layout is '%.16e'; and the line number of that row."""
    lines = [b"# duration = 1.0"] + [layout % t for t in streamed_records()["ties"].tolist()]
    bad = layout % row if isinstance(row, float) else row
    lines[index] = bad.ljust(22) if layout == b"%.16e" else bad
    return b"\n".join(lines) + b"\n", index % len(lines) + 1


@pytest.mark.parametrize(
    "kind, message",
    [
        ("malformed", ":{lineno}: bad arrival time"),
        ("not-finite", ":{lineno}: bad arrival time"),
        ("unsorted", ": arrival times must be sorted"),
        ("out-of-range", ": arrival times must lie within [0, duration]"),
    ],
    ids=["malformed", "not-finite", "unsorted", "out-of-range"],
)
def test_estimate_g_refuses_a_bad_row_of_the_last_block(tmp_path, capsys, monkeypatch, kind, message):
    # The last block of rows is streamed after the others were counted, the
    # first before any; a bad row in either, or in a block between, is
    # refused with the exit code and the message of the reader, nothing is
    # written and no thread is left, whatever the number of cores. So is
    # the same row among '%.17g' lines, which take the line route, and so
    # it is on a grid whose every delay the estimator refuses as beyond a
    # tenth of the record: the rows are checked first.
    monkeypatch.setattr(simulate, "_WRITE_BLOCK", 50)
    path, out = tmp_path / "traj.txt", str(tmp_path / "g.csv")
    for layout in (b"%.16e", b"%.17g"):
        for index, row in BAD_ROWS[kind]:
            text, lineno = bad_record(layout, index, row)
            path.write_bytes(text)
            for cores, grid in [(1, "0.2:0.5:5"), (1, None), (2, None), (3, None)]:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
                threads = threading.active_count()
                argv = ["estimate-g", "--traj", str(path), "--out", out] + (["--grid", grid] if grid else [])
                code, err, _ = run_refused(argv, capsys)
                expected = f"error: {path}" + message.format(lineno=lineno) + "\n"
                assert (code, err) == (2, expected), (layout, index, grid)
                assert threading.active_count() == threads
                assert not os.path.exists(out)


@pytest.mark.parametrize("kind", ["malformed", "unsorted", "out-of-range"])
def test_estimate_g_reads_a_refused_record_once(tmp_path, capsys, monkeypatch, kind):
    # A bad row in the last of 78 blocks of rows: the stream that refuses
    # it parses each block once, and the record is not read again, whole or
    # line by line, to raise the message, whatever the number of cores. The
    # line rule reads the header and the bad row alone.
    monkeypatch.setattr(simulate, "_WRITE_BLOCK", 50)
    index, row = BAD_ROWS[kind][-1]
    text, _ = bad_record(b"%.16e", index, row)
    path = tmp_path / "traj.txt"
    path.write_bytes(text)
    parse_times, parse_lines = simulate._parse_times, simulate._parse_lines
    parsed, line_reads, read_whole = [], [], []
    monkeypatch.setattr(simulate, "_parse_times", lambda rows: parsed.append(rows) or parse_times(rows))
    # What the line rule reads: a list of the header's lines or of a bad
    # row, or the open file on the line route.
    monkeypatch.setattr(
        simulate, "_parse_lines", lambda lines, *args: line_reads.append(type(lines)) or parse_lines(lines, *args)
    )
    monkeypatch.setattr(cli, "read_trajectory", lambda path: read_whole.append(path) or simulate.read_trajectory(path))
    # The rows after the header line.
    blocks = -(-(text.count(b"\n") - 1) // 50)
    assert blocks == 78
    for cores in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        parsed.clear()
        line_reads.clear()
        code, _, _ = run_refused(["estimate-g", "--traj", str(path), "--out", str(tmp_path / "g.csv")], capsys)
        assert code == 2
        assert (len(parsed), len(set(parsed)), read_whole) == (blocks, blocks, [])
        assert set(line_reads) == {list}


def test_estimate_g_memory_does_not_grow_with_the_record(tmp_path, monkeypatch):
    # Records of 4 s and 8 s at the benchmark record's rate, 8.6 and 17 MB,
    # on a grid that ends below a tenth of either: the streamed estimate's
    # allocation peak is the same for both, where reading the record whole
    # grew it by the 3 MB more times. On one core, so the peak does not
    # depend on how the blocks in flight overlap, and after a first run
    # that does the imports.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    rng = np.random.Generator(np.random.Philox(key=[8, 8]))
    peaks = []
    for seconds in (4.0, 4.0, 8.0):
        path = str(tmp_path / f"{seconds}.traj")
        if not os.path.exists(path):
            times = np.sort(rng.uniform(0.0, seconds, int(9.3e4 * seconds)))
            write_trajectory(Trajectory(times=times, duration=seconds), path)
            del times
        tracemalloc.start()
        try:
            assert main(["estimate-g", "--traj", path, "--grid", "1e-9:1e-2:20", "--out", str(tmp_path / "g.csv")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[2] - peaks[1]) < 0.1 * peaks[1], peaks


@pytest.mark.parametrize(
    "record, code",
    [
        # The last time is out of order, so the record is refused after the
        # whole file was read.
        ("# duration = 1\n" + "".join(f"{t!r}\n" for t in np.linspace(0.0, 1.0, 3000)) + "0.5\n", 2),
        ("# duration = 1\n0.5\n", 1),
        (None, 2),
    ],
    ids=["unsorted", "one-photon", "missing"],
)
def test_failing_estimate_g_leaves_no_hashing_thread(tmp_path, capsys, monkeypatch, record, code):
    # The record is hashed for the manifest while it is read; a command
    # that fails stops and joins the hashing thread and writes no manifest.
    monkeypatch.setattr(cli, "_HASH_CHUNK", 64)
    traj_path = tmp_path / "traj.txt"
    if record is not None:
        traj_path.write_text(record)
    out = str(tmp_path / "g.csv")
    threads = threading.active_count()
    assert main(["estimate-g", "--traj", str(traj_path), "--out", out]) == code
    assert threading.active_count() == threads
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(out)
    assert not os.path.exists(out + ".manifest.json")


class StopAfter:
    """A stop event that reads as set once it has been asked ``reads`` times."""

    def __init__(self, reads):
        self.reads = reads

    def is_set(self):
        self.reads -= 1
        return self.reads < 0


@pytest.mark.parametrize("reads", [0, 2])
def test_digests_read_no_buffer_once_stopped(tmp_path, monkeypatch, reads):
    # A failing command sets the stop event; the hashing reads no further
    # buffer of any file, so it ends at once instead of hashing the rest.
    monkeypatch.setattr(cli, "_HASH_CHUNK", 64)
    data = bytes(range(256)) * 4
    paths = [str(tmp_path / name) for name in ("a", "b")]
    for path in paths:
        with open(path, "wb") as handle:
            handle.write(data)
    if reads:
        stop = StopAfter(reads)
    else:
        stop = threading.Event()
        stop.set()
    digests = cli._digests(paths, stop)
    assert digests == {
        paths[0]: hashlib.sha256(data[: 64 * reads]).hexdigest(),
        paths[1]: hashlib.sha256(b"").hexdigest(),
    }


def test_manifest_digests_are_sha256_of_the_inputs(tmp_path, params_file, slow_params_file, monkeypatch):
    # Files are hashed 64 bytes at a time, so each takes several reads into
    # the one buffer; every command's digests are those of hashlib over the
    # whole file, and no hashing thread outlives a command.
    monkeypatch.setattr(cli, "_HASH_CHUNK", 64)
    chain = tmp_path / "chain.txt"
    chain.write_text("2\n1e5 0.0\n0.0 37.0\n143.0 0.0\n")
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("bootstrap_resamples = 0\n")
    curve, traj = str(tmp_path / "curve.csv"), str(tmp_path / "traj.txt")
    commands = [
        ["eval", "--params", params_file, "--grid", "1e-10:1:20", "--out", curve],
        ["eval", "--chain", str(chain), "--grid", "1e-4:1:10", "--out", str(tmp_path / "chain.csv")],
        ["rates", "--params", params_file, "--out", str(tmp_path / "rates.txt")],
        ["simulate", "--params", slow_params_file, "--duration", "0.2", "--seed", "3", "--out", traj],
        ["estimate-g", "--traj", traj, "--grid", "1e-5:1e-2:5", "--out", str(tmp_path / "g.csv")],
        ["fit", "--data", curve, "--config", str(cfg), "--out", str(tmp_path / "fit.txt")],
    ]
    for argv in commands:
        threads = threading.active_count()
        assert main(argv) == 0
        assert threading.active_count() == threads
        paths = [argv[i + 1] for i, flag in enumerate(argv) if flag in ("--params", "--chain", "--traj", "--data", "--config")]
        with open(argv[-1] + ".manifest.json") as handle:
            digests = json.load(handle)["inputs"]
        want = {}
        for path in paths:
            with open(path, "rb") as handle:
                want[path] = hashlib.sha256(handle.read()).hexdigest()
        assert digests == want
    assert os.path.getsize(traj) > 100 * 64


def test_fit_full_report(tmp_path, params_file, reference_params):
    data = str(tmp_path / "data.csv")
    assert main(["eval", "--params", params_file, "--grid", "1e-10:1:20",
                 "--out", data]) == 0
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("bootstrap_resamples = 0\n")
    out = str(tmp_path / "report.txt")
    json_out = str(tmp_path / "report.json")
    curve_out = str(tmp_path / "fitcurve.csv")
    assert main(["fit", "--data", data, "--config", str(cfg), "--out", out,
                 "--json-out", json_out, "--curve-out", curve_out]) == 0

    text = open(out).read()
    for key in ("A31", "Omega31", "I_sc", "T_L", "T_D1", "T_D2", "p1", "P_L"):
        assert f"{key} = " in text

    doc = json.load(open(json_out))
    assert doc["values"]["A31"] == pytest.approx(reference_params.A31, rel=1e-4)
    assert doc["values"]["T_L"] == pytest.approx(8.107e-3, rel=1e-3)
    assert doc["stages"]["slow"]["converged"] is True
    # Each stage states why its optimizer stopped, in both reports.
    for name, stage in doc["stages"].items():
        assert stage["message"] in (
            "step and cost change below tolerance",
            "no damping produced further improvement",
            "every coordinate pinned at a bound",
            "derived from the slow and fast stages",
        )
        line = (
            f"# stage {name}: cost = {stage['cost']:.6g}, "
            f"iterations = {stage['iterations']}, points = {stage['n_points']}, "
            f"stop = {stage['message']}\n"
        )
        assert line in text

    curve = read_series(curve_out)
    assert curve.tau[0] == pytest.approx(1e-10, rel=1e-9)
    assert curve.tau[-1] == pytest.approx(1.0, rel=1e-9)

    doc = read_manifest(out)
    assert set(doc["inputs"]) == {data, str(cfg)}
    assert set(doc["outputs"]) == {out, json_out, curve_out}


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.25 s and 15 MB at import; the package
    # and its command line must not pull it in.
    src = os.path.dirname(os.path.dirname(blinkcorr.__file__))
    code = (
        "import sys, blinkcorr, blinkcorr.cli; "
        "print('scipy.optimize' in sys.modules, 'concurrent.futures.thread' in sys.modules, "
        "'scipy.linalg' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    # Nor the thread pool, which the writer, the reader and the correlator
    # import when they first run on more than one core, nor scipy.linalg,
    # which only the matrix-exponential routes import, when they run.
    assert out.stdout.split() == ["False", "False", "False"]


def test_fit_report_counts_bootstrap_failures(tmp_path, params_file):
    data = str(tmp_path / "data.csv")
    assert main(["eval", "--params", params_file, "--grid", "1e-10:1:20",
                 "--out", data]) == 0
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("bootstrap_resamples = 3\n")
    out = str(tmp_path / "report.txt")
    json_out = str(tmp_path / "report.json")
    assert main(["fit", "--data", data, "--config", str(cfg), "--out", out,
                 "--json-out", json_out]) == 0
    diagnostics = json.load(open(json_out))["diagnostics"]
    ok, failed = diagnostics["bootstrap_resamples"], diagnostics["bootstrap_failures"]
    assert ok + failed == 3
    line = f"# uncertainties: residual bootstrap, {ok:.0f} resamples ({failed:.0f} failed)\n"
    assert line in open(out).read()


def test_fit_report_counts_refits_on_a_bound(tmp_path, params_file):
    data = str(tmp_path / "data.csv")
    assert main(["eval", "--params", params_file, "--grid", "1e-10:1:20",
                 "--out", data]) == 0
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("bootstrap_resamples = 3\n")
    out = str(tmp_path / "report.txt")
    json_out = str(tmp_path / "report.json")
    assert main(["fit", "--data", data, "--config", str(cfg), "--out", out,
                 "--json-out", json_out]) == 0
    on_bound = json.load(open(json_out))["diagnostics"]["bootstrap_on_bound"]
    line = f"# bootstrap refits with a slow-stage coordinate on its bound: {on_bound:.0f}\n"
    lines = open(out).read().splitlines(keepends=True)
    assert lines[lines.index(line) - 1].startswith("# uncertainties: residual bootstrap, ")


def test_fit_partial_slow_only(tmp_path, params_file, capsys):
    full = str(tmp_path / "full.csv")
    assert main(["eval", "--params", params_file, "--grid", "1e-6:1:20",
                 "--out", full]) == 0
    out = str(tmp_path / "report.txt")
    curve_out = str(tmp_path / "curve.csv")
    assert main(["fit", "--data", full, "--out", out,
                 "--curve-out", curve_out]) == 0
    captured = capsys.readouterr()
    text = open(out).read()
    assert "partial" in text
    assert "fast stage: skipped" in text
    assert "T_L = " in text and "A31" not in text
    assert "skipping --curve-out" in captured.err
    assert not os.path.exists(curve_out)


@pytest.mark.parametrize(
    "command, text, refusal",
    [
        ("estimate-g", "# duration = 1\n0.5\n0.25\n", "arrival times must be sorted"),
        ("estimate-g", "# duration = 1\n1.5\n", "arrival times must lie within [0, duration]"),
        ("estimate-g", "# duration = 0\n", "duration must be positive and finite"),
        ("estimate-g", "# duration = 1\n# seed = -3\n0.5\n", "seed must lie in [0, 2**63)"),
        ("fit", "tau_s,g\n", "series must hold at least one point"),
    ],
)
def test_refused_input_names_its_file(tmp_path, capsys, command, text, refusal):
    path = tmp_path / "input.txt"
    path.write_text(text)
    source = "--traj" if command == "estimate-g" else "--data"
    out = str(tmp_path / "out.csv")
    assert main([command, source, str(path), "--out", out]) == 2
    assert f"error: {path}: {refusal}" in capsys.readouterr().err


def test_fit_stops_on_a_cost_that_overflows(tmp_path, capsys):
    # g above 1 ms is finite, but its squares overflow: the slow stage
    # stops at once with a numerical error, not at its iteration cap, and
    # nothing warns.
    tau = np.geomspace(1e-9, 1.0, 100)
    g = np.where(tau > 1e-3, 1e300, 1.0 + 0.5 * np.exp(-tau / 1e-2))
    data = tmp_path / "g.csv"
    data.write_text("tau_s,g\n" + "".join(f"{t!r},{v!r}\n" for t, v in zip(tau.tolist(), g.tolist())))
    assert main(["fit", "--data", str(data), "--out", str(tmp_path / "fit.txt")]) == 1
    err = capsys.readouterr().err
    assert err == "error: optimizer stopped after 0 iterations at cost inf: residual or its Jacobian not finite\n"


def test_fit_config_file_sets_every_scalar_field(tmp_path):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(
        "split_tau = 1e-6\nfree_amplitude = yes\nbootstrap_resamples = 7\n"
        "bootstrap_seed = 11\nmax_iterations = 50\n"
    )
    assert cli._load_fit_config(str(cfg)) == FitConfig(
        split_tau=1e-6,
        free_amplitude=True,
        bootstrap_resamples=7,
        bootstrap_seed=11,
        max_iterations=50,
    )


def test_fit_config_file_refuses_digit_separators(tmp_path):
    # int() reads 1_0 as 10 and float() 1_0e-6 as 1e-5; no number in an
    # input file holds a '_'.
    cfg = tmp_path / "fit.cfg"
    for text in ("max_iterations = 1_0", "split_tau = 1_0e-6"):
        cfg.write_text(f"# settings\n{text}\n")
        key = text.split()[0]
        with pytest.raises(ValueError, match=rf"fit\.cfg:2: bad value for '{key}'"):
            cli._load_fit_config(str(cfg))


def test_fit_file_accepts_exactly_the_fit_config_fields(tmp_path, monkeypatch):
    accepted = {}

    def reading(path, fields):
        accepted.update(fields)
        return {}

    monkeypatch.setattr(cli, "read_key_values", reading)
    assert cli._load_fit_config(str(tmp_path / "fit.cfg")) == FitConfig()
    assert set(accepted) == {field.name for field in dataclasses.fields(FitConfig)}


def test_fit_config_errors(tmp_path, params_file):
    data = str(tmp_path / "data.csv")
    assert main(["eval", "--params", params_file, "--out", data]) == 0
    cfg = tmp_path / "bad.cfg"
    out = str(tmp_path / "r.txt")
    cfg.write_text("mystery = 1\n")
    assert main(["fit", "--data", data, "--config", str(cfg), "--out", out]) == 2
    cfg.write_text("free_amplitude = maybe\n")
    assert main(["fit", "--data", data, "--config", str(cfg), "--out", out]) == 2
    cfg.write_text("split_tau\n")
    assert main(["fit", "--data", data, "--config", str(cfg), "--out", out]) == 2
    cfg.write_text("split_tau = 1e-7\nsplit_tau = 1e-6\n")
    assert main(["fit", "--data", data, "--config", str(cfg), "--out", out]) == 2
    # Values the key reader takes but the fit cannot use: no point left in
    # a window, a seed the bootstrap generator would refuse, or one
    # resample, which leaves no spread to take a sigma from. Starting
    # values, such as a zero T_L, are no setting, and the solver's damping
    # and tolerance are constants: the file refuses their keys.
    for text in (
        "T_L = 0",
        "lambda0 = 1e13",
        "lambda0 = inf",
        "convergence_tol = nan",
        "split_tau = nan",
        "split_tau = inf",
        "bootstrap_seed = 18446744073709551616",
        "bootstrap_resamples = 1",
    ):
        cfg.write_text(text + "\n")
        assert main(["fit", "--data", data, "--config", str(cfg), "--out", out]) == 2
    assert not os.path.exists(out)


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    stdout = capsys.readouterr().out
    assert "9/9 checks passed" in stdout


def test_selftest_failing_check_exits_one(monkeypatch, capsys):
    def one_failing_check(rng):
        yield ("a check past its tolerance", 2.0, 1.0)

    monkeypatch.setattr(cli, "_selftest_checks", one_failing_check)
    assert main(["selftest"]) == 1
    stdout = capsys.readouterr().out
    assert "FAIL" in stdout
    assert "selftest: 0/1 checks passed" in stdout


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert blinkcorr.__version__ in capsys.readouterr().out
