"""SHA-256 digests of the photon-record path's outputs, one line each.

    python3 scripts/record_digests.py

Runs, through ``blinkcorr.cli.main`` in a temporary directory:

- ``simulate`` of criterion 6's emitter (the reference emitter with its
  optical rates slowed 1000x, no background) for 100 s at seed 20260816,
  and prints the digest of the record it writes;
- ``estimate-g`` on that record, and the digest of its CSV;
- ``estimate-g`` on the benchmark's ``analyse_record`` record, which
  perfbench's own generator makes (``make_record(SLOWED, 100, 20260816)``)
  and ``write_trajectory`` writes, and the digest of its CSV.

The outputs are fixed by the seed, so equal digests on two trees show
that a change kept the record, the correlator and the writer byte for
byte. Run from the root of a checkout: the program is imported from ./src
and the generator from ./perfbench. It takes about 7 s and 0.5 GB of
memory on a 2-core x86-64 machine.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from blinkbench.reference import SLOWED, make_record  # noqa: E402
from blinkcorr.cli import main as cli  # noqa: E402
from blinkcorr.simulate import Trajectory, write_trajectory  # noqa: E402

SECONDS = 100.0
SEED = 20260816
CRITERION_6 = "A31 = 3.3e5\nOmega31 = 2.9e5\nA32_1 = 34.0\nA32_2 = 249.0\nA21_1 = 430.0\nA21_2 = 2400.0\nI_sc = 0.0\n"


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli(list(argv))
    if code:
        raise SystemExit(f"blinkcorr {argv[0]} exited with {code}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        params, record, g = (os.path.join(tmp, name) for name in ("params.txt", "record.traj", "g.csv"))
        with open(params, "w") as handle:
            handle.write(CRITERION_6)
        run("simulate", "--params", params, "--duration", str(SECONDS), "--seed", str(SEED), "--out", record)
        print(f"{sha256(record)}  simulate criterion 6, seed {SEED}")
        run("estimate-g", "--traj", record, "--out", g)
        print(f"{sha256(g)}  estimate-g on that record")

        times, _ = make_record(SLOWED, SECONDS, SEED)
        write_trajectory(Trajectory(times=times, duration=SECONDS), record)
        del times
        run("estimate-g", "--traj", record, "--out", g)
        print(f"{sha256(g)}  estimate-g on analyse_record's record")
    return 0


if __name__ == "__main__":
    sys.exit(main())
