"""SHA-256 digests of everything the command line writes, one line each.

    python3 scripts/record_digests.py

Runs, through ``blinkcorr.cli.main`` in a temporary directory and with
paths relative to it, so that the manifests are reproducible too:

- ``simulate`` of criterion 6's emitter (the reference emitter with its
  optical rates slowed 1000x, no background) for 100 s at seed 20260816,
  and prints the digest of the record it writes;
- ``estimate-g`` on that record, and the digest of its CSV;
- ``estimate-g`` on the benchmark's ``analyse_record`` record, which
  perfbench's own generator makes (``make_record(SLOWED, 100, 20260816)``)
  and ``write_trajectory`` writes, and the digest of its CSV;
- ``eval`` of the reference emitter by ``--params`` and of a three-period
  chain by ``--chain``, ``rates --out`` by both methods, ``fit`` on
  criterion 6's estimate with ``analyse_record``'s settings (with
  ``--json-out`` and ``--curve-out``), ``estimate-g`` of criterion 6's
  record on a grid above its antibunching, ``1e-4:1e-1:20``, and ``fit``
  of that estimate with ``split_tau`` below every delay (the partial,
  slow-stage-only report), ``fit`` of the reference curve,
  ``selftest``, ``simulate`` of criterion 6 as in the first line but
  without ``--g-out`` (the route that streams the record to the file,
  whose record's digest equals the first line's), and ``simulate`` of
  criterion 6's emitter with a background of ``I_sc = 1e4`` for 10 s;
- ``estimate-g`` on two rewrites of that 10 s record that the reader
  takes line by line: its times as ``'%.17g'`` lines, as records were
  written before the fixed-width rows, and its rows with a 23-byte
  ``# seed = ...`` row in the middle.

The first three lines are those digests. Then, for every command (the
three above included), one line for its stdout and one for each output
file and its ``.manifest.json``. The outputs are fixed by the seeds, so
equal digests show that a change kept the records, the correlator, the
fitter, the reports and the manifests byte for byte. The script compares
its 59 lines with scripts/record_digests.txt, prints the lines that
differ and then exits with 1 (see scripts/recorded.py). Run from the
root of a checkout: the program is imported from ./src and the generator
from ./perfbench. It takes about 10 s and 0.5 GB of memory on a 2-core
x86-64 machine.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import recorded  # noqa: E402
from blinkbench.reference import SLOWED, make_record  # noqa: E402
from blinkbench.workloads import ANALYSE_FIT  # noqa: E402
from blinkcorr.cli import main as cli  # noqa: E402
from blinkcorr.simulate import Trajectory, write_trajectory  # noqa: E402

SECONDS = 100.0
SEED = 20260816
CRITERION_6 = "A31 = 3.3e5\nOmega31 = 2.9e5\nA32_1 = 34.0\nA32_2 = 249.0\nA21_1 = 430.0\nA21_2 = 2400.0\nI_sc = 0.0\n"
REFERENCE = "A31 = 3.3e8\nOmega31 = 2.9e8\nA32_1 = 34.0\nA32_2 = 249.0\nA21_1 = 430.0\nA21_2 = 2400.0\nI_sc = 7.7e7\n"
# A light period and two dark ones, with the reference emitter's slow rates.
CHAIN = "3\n1e5 0 0\n0 34 249\n430 0 0\n2400 0 0\n"
# Delays from 0.1 ms, where criterion 6's emitter shows only its blinking,
# and a split delay below all of them: the fit reports the slow stage alone.
SLOW_GRID = "1e-4:1e-1:20"
PARTIAL_FIT = {"split_tau": 1e-9}
INPUTS = {
    "criterion6.txt": CRITERION_6,
    "background.txt": CRITERION_6.replace("I_sc = 0.0", "I_sc = 1e4"),
    "reference.txt": REFERENCE,
    "chain.txt": CHAIN,
    "fit.cfg": "".join(f"{key} = {value}\n" for key, value in ANALYSE_FIT.items()),
    "partial.cfg": "".join(f"{key} = {value}\n" for key, value in PARTIAL_FIT.items()),
}
# Commands after the first three, which run on the files above and on
# criterion 6's record and its estimate g.csv.
COMMANDS = [
    ("eval", "--params", "reference.txt", "--out", "eval.csv"),
    ("eval", "--chain", "chain.txt", "--out", "chain.csv"),
    ("rates", "--params", "reference.txt", "--out", "rates-resolvent.txt"),
    ("rates", "--params", "reference.txt", "--method", "finite-dt", "--out", "rates-finite-dt.txt"),
    ("fit", "--data", "g.csv", "--config", "fit.cfg", "--out", "fit.txt",
     "--json-out", "fit.json", "--curve-out", "fit-curve.csv"),
    ("estimate-g", "--traj", "record.traj", "--grid", SLOW_GRID, "--out", "slow-g.csv"),
    ("fit", "--data", "slow-g.csv", "--config", "partial.cfg", "--out", "partial.txt", "--json-out", "partial.json"),
    ("fit", "--data", "eval.csv", "--out", "eval-fit.txt", "--json-out", "eval-fit.json"),
    ("selftest",),
    ("simulate", "--params", "criterion6.txt", "--duration", str(SECONDS), "--seed", str(SEED),
     "--out", "streamed.traj"),
    ("simulate", "--params", "background.txt", "--duration", "10.0", "--seed", str(SEED), "--out", "background.traj"),
]
# The rewrites of background.traj, and estimate-g on each.
LINE_ROUTE = [
    ("estimate-g", "--traj", "background-17g.traj", "--out", "background-17g-g.csv"),
    ("estimate-g", "--traj", "background-comment.traj", "--out", "background-comment-g.csv"),
]
OUTPUT_FLAGS = ("--out", "--g-out", "--json-out", "--curve-out")


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def rewrite_record(path: str) -> None:
    """Write the rewrites of the record at ``path`` that LINE_ROUTE reads."""
    with open(path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    header = [line for line in lines if line.startswith(b"#")]
    rows = lines[len(header) :]
    with open("background-17g.traj", "wb") as handle:
        handle.writelines(header + [b"%.17g\n" % float(row) for row in rows])
    middle = len(rows) // 2
    with open("background-comment.traj", "wb") as handle:
        handle.writelines(header + rows[:middle] + [(b"# seed = %d" % SEED).ljust(22) + b"\n"] + rows[middle:])


def run(*argv: str) -> tuple[tuple[str, ...], str]:
    """The command and its stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli(list(argv))
    if code:
        raise SystemExit(f"blinkcorr {argv[0]} exited with {code}")
    return argv, out.getvalue()


def main() -> int:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, text in INPUTS.items():
            with open(name, "w") as handle:
                handle.write(text)
        runs = [
            run("simulate", "--params", "criterion6.txt", "--duration", str(SECONDS), "--seed", str(SEED),
                "--out", "record.traj", "--g-out", "simulate-g.csv"),
        ]
        lines.append(f"{sha256('record.traj')}  simulate criterion 6, seed {SEED}")
        runs.append(run("estimate-g", "--traj", "record.traj", "--out", "g.csv"))
        lines.append(f"{sha256('g.csv')}  estimate-g on that record")

        times, _ = make_record(SLOWED, SECONDS, SEED)
        write_trajectory(Trajectory(times=times, duration=SECONDS), "analyse.traj")
        del times
        runs.append(run("estimate-g", "--traj", "analyse.traj", "--out", "analyse-g.csv"))
        lines.append(f"{sha256('analyse-g.csv')}  estimate-g on analyse_record's record")

        runs += [run(*argv) for argv in COMMANDS]
        rewrite_record("background.traj")
        runs += [run(*argv) for argv in LINE_ROUTE]
        for argv, stdout in runs:
            command = " ".join(argv)
            lines.append(f"{hashlib.sha256(stdout.encode()).hexdigest()}  stdout of {command}")
            for flag, path in zip(argv, argv[1:]):
                if flag in OUTPUT_FLAGS:
                    lines.append(f"{sha256(path)}  {path}")
                    lines.append(f"{sha256(path + '.manifest.json')}  {path}.manifest.json")
        os.chdir(ROOT)
    return recorded.check(os.path.join(ROOT, "scripts", "record_digests.txt"), lines)


if __name__ == "__main__":
    sys.exit(main())
