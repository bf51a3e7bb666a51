"""Criterion 7's fit protocol over many noise seeds, one JSON line each.

    python3 scripts/fit_sweep.py

For each ``free_amplitude`` setting and each of the noise seeds 0 ..
SEEDS - 1 it fits criterion 7's curve, as tests/test_acceptance.py sets
it up (the reference emitter on 300 log-spaced delays from 1e-10 to 1 s,
1% noise, noise drawn from ``Philox(key=[seed, 2])``), with ``fit_full``
and prints one line: the main fit's stages (cost, iterations, stop
message, values and Jacobian sigmas; the isc stage fits nothing and
carries the slow stage's cost) and the relative error of each reported
quantity, or the error a failed main fit raised. Seeds below
BOOTSTRAP_SEEDS also run a residual bootstrap of RESAMPLES refits and add
its failed and on-bound refit counts; the bootstrap does not move the
main fit. After the seeds of a setting, one ``summary`` line gives the
failed main fits, the refit counts and each quantity's median relative
error, with a failed fit counted as an infinite error, as criterion 7
counts it.

Floats are written exactly (shortest round-trip repr), and the run is
deterministic, so the lines show every fit a change moves: the script
compares its 402 lines with scripts/fit_sweep.txt, prints the lines that
differ and then exits with 1 (see scripts/recorded.py). Run from the root
of a checkout: the program is imported from ./src and the protocol from
./tests. It takes about 25 s on a 2-core x86-64 machine.
"""

import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import recorded  # noqa: E402
from blinkcorr import statistics_from_params  # noqa: E402
from blinkcorr.fitting import FitConfig  # noqa: E402
from test_acceptance import (  # noqa: E402
    REFERENCE,
    RESULT_KEYS,
    criterion_7_curve,
    criterion_7_data,
    criterion_7_fit,
    reported_quantities,
)

SEEDS = 200
BOOTSTRAP_SEEDS = 100
RESAMPLES = 50


def sweep_line(res, errors: dict) -> dict:
    """One seed's fit, or the failure it raised, as its JSON record."""
    if isinstance(res, Exception):
        return {"error": f"{type(res).__name__}: {res}"}
    line = {
        "stages": {
            name: {
                "cost": stage.cost,
                "iterations": stage.iterations,
                "message": stage.message,
                "values": stage.values,
                "sigma": stage.sigma,
            }
            for name, stage in res.stages.items()
        },
        "rel_error": errors,
    }
    if "bootstrap_failures" in res.diagnostics:
        line["bootstrap_failures"] = int(res.diagnostics["bootstrap_failures"])
        line["bootstrap_on_bound"] = int(res.diagnostics["bootstrap_on_bound"])
    return line


def main() -> int:
    lines = []
    truth = reported_quantities(REFERENCE, statistics_from_params(REFERENCE))
    clean, sigma = criterion_7_curve()
    for free_amp in (False, True):
        errors = {key: [] for key in RESULT_KEYS}
        failed, refits_failed, refits_on_bound = [], 0, 0
        for seed in range(SEEDS):
            cfg = FitConfig(free_amplitude=free_amp, bootstrap_resamples=RESAMPLES if seed < BOOTSTRAP_SEEDS else 0)
            res, err = criterion_7_fit(criterion_7_data(clean, sigma, seed), cfg, truth)
            line = sweep_line(res, err)
            if "error" in line:
                failed.append(seed)
            for key in RESULT_KEYS:
                errors[key].append(err[key])
            refits_failed += line.get("bootstrap_failures", 0)
            refits_on_bound += line.get("bootstrap_on_bound", 0)
            lines.append(json.dumps({"free_amplitude": free_amp, "seed": seed, **line}))
        summary = {
            "failed_main_fits": failed,
            "bootstrap_failures": refits_failed,
            "bootstrap_on_bound": refits_on_bound,
            "median_rel_error": {key: float(np.median(values)) for key, values in errors.items()},
        }
        lines.append(json.dumps({"free_amplitude": free_amp, "summary": summary}))
    return recorded.check(os.path.join(ROOT, "scripts", "fit_sweep.txt"), lines)


if __name__ == "__main__":
    sys.exit(main())
