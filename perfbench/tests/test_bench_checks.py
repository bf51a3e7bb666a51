"""Each output check passes on a sound output and fails on a broken one."""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import blinkcorr  # noqa: E402
from blinkbench import checks  # noqa: E402
from blinkbench import reference as ref  # noqa: E402
from blinkbench import workloads as wl  # noqa: E402

DURATION = 5.0


@pytest.fixture(scope="module")
def record():
    times, _ = ref.make_record(ref.SLOWED, DURATION, 3)
    return times


def test_record_check_passes_on_a_sound_record(record):
    assert checks.check_record(record, DURATION, ref.SLOWED) == []


@pytest.mark.parametrize(
    "broken, message",
    [
        (lambda t: t[::2], "photons against"),
        (lambda t: t[::-1], "not sorted"),
        (lambda t: t + 0.5, "leave [0, 5]"),
        (lambda t: np.sort(np.random.Generator(np.random.Philox(key=[1, 1])).uniform(0, DURATION, t.size)), "shorter than"),
    ],
    ids=["half_the_photons", "unsorted", "outside_window", "poisson_stream"],
)
def test_record_check_fails_on_a_broken_record(record, broken, message):
    errors = checks.check_record(broken(record), DURATION, ref.SLOWED)
    assert any(message in e for e in errors), errors


def test_trajectory_text_round_trip(tmp_path, record):
    path = str(tmp_path / "r.traj")
    blinkcorr.write_trajectory(blinkcorr.Trajectory(times=record, duration=DURATION, seed=4), path)
    header, times = checks.read_trajectory_text(path)
    assert header == {"duration": "5", "seed": "4"}
    assert np.array_equal(times, record)


def _series(scale=1.0):
    edges = np.geomspace(1e-6, 1e-2, 81)
    tau = np.sqrt(edges[1:] * edges[:-1])
    model = ref.window_average(ref.SLOWED, edges[:-1], edges[1:])
    sigma = np.full(tau.size, 0.01)
    noise = np.random.Generator(np.random.Philox(key=[2, 2])).standard_normal(tau.size)
    return {"tau_s": tau, "g": scale * (model + sigma * noise), "sigma": sigma}


def test_estimate_check():
    assert checks.check_estimate(_series(), ref.SLOWED, 20) == []
    errors = checks.check_estimate(_series(scale=1.05), ref.SLOWED, 20)
    assert errors and "within 3 sigma" in errors[0]


def _report(**changes):
    truth = {"A31": ref.SLOWED.A31, "Omega31": ref.SLOWED.Omega31, **ref.period_summary(ref.SLOWED)}
    values = {key: truth[key] * 1.01 for key in checks.FIT_KEYS}
    sigma = {key: 0.01 * truth[key] for key in checks.FIT_KEYS}
    values.update(changes)
    return {"values": values, "sigma": sigma}


def test_fit_report_check():
    assert checks.check_fit_report(_report(), ref.SLOWED) == []
    errors = checks.check_fit_report(_report(T_L=2.0 * ref.period_summary(ref.SLOWED)["T_L"]), ref.SLOWED)
    assert errors and errors[0].startswith("T_L")
    errors = checks.check_fit_report(_report(p1=float("nan")), ref.SLOWED)
    assert errors and "not a finite fit" in errors[0]


def test_curve_fit_check():
    truth = {**ref.REFERENCE.as_dict(), **ref.period_summary(ref.REFERENCE)}
    crlb = dict.fromkeys(wl.CurveFit.REPORTED, 0.01)
    rng = np.random.Generator(np.random.Philox(key=[4, 4]))
    fits = [{k: truth[k] * (1.0 + 0.02 * rng.standard_normal()) for k in crlb} for _ in range(20)]
    assert checks.check_curve_fits(fits, ref.REFERENCE, crlb) == []
    for fit in fits:
        fit["A21_2"] *= 1.2
    errors = checks.check_curve_fits(fits, ref.REFERENCE, crlb)
    assert len(errors) == 1 and errors[0].startswith("A21_2")


def test_close_check():
    want = np.array([1e-9, 1.0, 10.0])
    assert checks.check_close("x", want * (1 + 1e-12), want, 1e-10, "relative") == []
    assert checks.check_close("x", want + 1e-11, want, 1e-10, "unit") == []
    assert checks.check_close("x", want + 1e-11, want, 1e-10, "relative")
    assert checks.check_close("x", want[:2], want, 1.0, "absolute")[0].startswith("x: shape")


def test_simulate_check_compares_later_records_with_the_first(tmp_path, record):
    workload = wl.SimulateRecord(4, str(tmp_path))
    first, second = str(tmp_path / "a.traj"), str(tmp_path / "b.traj")
    blinkcorr.write_trajectory(blinkcorr.Trajectory(times=record, duration=DURATION, seed=4), first)
    blinkcorr.write_trajectory(blinkcorr.Trajectory(times=record[1:], duration=DURATION, seed=4), second)
    workload.first_digest = checks.file_digest(first)
    assert workload.check([first]) == []
    assert workload.check([second]) == ["record differs from the first operation's with the same seed"]


def test_model_scan_check(tmp_path):
    workload = wl.ModelScan(5, str(tmp_path))
    workload.prepare()
    outputs = [op() for op in workload.round()]
    assert workload.check(outputs) == []
    again = [dict(out) for out in outputs]
    assert workload.check(again) == []
    again[2]["g_total"] = again[2]["g_total"] * (1.0 + 1e-15)
    assert workload.check(again) == ["set 2: g_total differs from the first round"]

    fresh = wl.ModelScan(5, str(tmp_path))
    fresh.prepare()
    broken = [dict(out) for out in outputs]
    broken[0]["propagator"] = broken[0]["propagator"].copy()
    broken[0]["propagator"][-1, 0, 0] += 1e-8
    broken[1]["rates_finite_dt"] = broken[1]["rates_finite_dt"] * 1.01
    broken[4]["g_general_n"] = broken[4]["g_general_n"] * (1.0 + 1e-8)
    broken[5]["g_total"] = broken[5]["g_total"] + 1e-8
    errors = fresh.check(broken)
    assert [e.split(":")[0] for e in errors] == [
        "set 0 propagator",
        "set 1 finite_dt rates",
        "set 4 7-period g_general",
        "set 5 g_total",
        "set 5 three-state g_general",
    ]
