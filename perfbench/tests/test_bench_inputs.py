"""Inputs depend only on the seed and the benchmark's code."""

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import blinkcorr  # noqa: E402
from blinkbench import checks  # noqa: E402
from blinkbench import reference as ref  # noqa: E402
from blinkbench import workloads as wl  # noqa: E402


def test_written_record_is_byte_identical_for_one_key(tmp_path):
    digests = []
    for name in ("a", "b"):
        times, _ = ref.make_record(ref.SLOWED, 2.0, wl.RECORD_KEY)
        path = str(tmp_path / f"{name}.traj")
        blinkcorr.write_trajectory(blinkcorr.Trajectory(times=times, duration=2.0), path)
        digests.append(checks.file_digest(path))
    assert digests[0] == digests[1]


def test_curve_bank_repeats_and_follows_criterion_seven():
    tau, sigma, noisy = wl.curve_bank()
    again = wl.curve_bank()
    assert all(np.array_equal(a, b) for a, b in zip(noisy, again[2]))
    assert len(noisy) == 20 and tau.size == 300
    # The draws are criterion 7's: key (k, 2), 1% of the clean curve.
    clean = ref.g_reference(tau, ref.REFERENCE)
    first = np.random.Generator(np.random.Philox(key=[0, 2])).standard_normal(300)
    assert np.allclose((noisy[0] - clean) / sigma, first, rtol=0, atol=1e-9)


def test_model_scan_inputs_follow_the_seed(tmp_path):
    def inputs(seed):
        workload = wl.ModelScan(seed, str(tmp_path))
        workload.prepare()
        return [em.as_dict() for em in workload.emitters], workload.chain_inputs

    first, second, other = inputs(3), inputs(3), inputs(4)
    assert first[0] == second[0] and first[0] != other[0]
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(first[1], second[1]))
    sizes = [rates.shape[0] for _, rates in first[1]]
    assert sizes == [3 + i % 6 for i in range(wl.SCAN_ROUND)]


def test_params_file_is_read_back_exactly(tmp_path):
    path = tmp_path / "emitter.txt"
    path.write_text(wl.params_text(ref.SLOWED))
    assert blinkcorr.read_params(str(path)).as_dict() == ref.SLOWED.as_dict()
