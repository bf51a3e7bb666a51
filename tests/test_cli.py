import dataclasses
import json
import os
import subprocess
import sys
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
    write_trajectory,
)
from blinkcorr import cli, simulate
from blinkcorr.cli import main

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


def test_simulate_rejects_bad_duration(tmp_path, slow_params_file):
    out = str(tmp_path / "x.txt")
    assert main(["simulate", "--params", slow_params_file, "--duration", "-1",
                 "--seed", "1", "--out", out]) == 2


def record_exact_limits(monkeypatch):
    """Last edge of each exact-stage call of estimate_g, as the CLI prints it."""
    limits = []
    exact_counts = simulate._exact_counts

    def recorded(times, edges):
        limits.append(f"{edges[-1]:g}")
        return exact_counts(times, edges)

    monkeypatch.setattr(simulate, "_exact_counts", recorded)
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
        "print('scipy.optimize' in sys.modules, 'concurrent.futures.thread' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    # Nor the thread pool, which the writer, the reader and the correlator
    # import when they first run on more than one core.
    assert out.stdout.split() == ["False", "False"]


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
