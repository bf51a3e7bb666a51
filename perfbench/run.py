"""Benchmark of the blinkcorr record-to-parameters pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload on the default seed

Run from the root of a checkout: the program is imported from ./src. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record of the run
(operation times, set-up parts, spans of a traced run) goes to
perfbench/results/. Without ``--workload`` every workload runs in its own
process and a table of the end-to-end metrics is printed.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# One thread for BLAS: with the RSS sampler, each run uses two threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
NAMES = ("simulate_record", "analyse_record", "curve_fit", "model_scan")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a process of its own; prints a summary table."""
    rows = []
    for name in NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"{name}: exited with code {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 2
        print(f"{name}: {lines[-1]}")
        rows.append((name, json.loads(lines[-1])))
    print()
    print(f"{'workload':<17}{'correct':>8}{'attempted':>10}{'failed':>7}  metrics")
    for name, result in rows:
        shown = ", ".join(f"{key} {m['value']:.6g} {m['unit']}" for key, m in result["metrics"].items())
        print(f"{name:<17}{str(result['correct']):>8}{result['attempted']:>10}{result['failed']:>7}  {shown}")
    return 0 if all(result["correct"] for _, result in rows) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SOURCE, "blinkcorr", "__init__.py")):
        print(f"error: no program source at {SOURCE}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)

    sys.path[:0] = [SOURCE, HERE]
    from blinkbench import runner

    result = runner.run(args.workload, args.seed, args.seconds, bool(args.trace), STARTED, HERE)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
