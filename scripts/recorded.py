"""The end of scripts/record_digests.py and scripts/fit_sweep.py: their run
compared with the run recorded next to them.

The recorded file opens with the line :func:`versions` gives, then holds
the run's lines. The digests and the fits depend on libm and on numpy's
SIMD paths, so on other versions a difference asks for a new recording;
it does not show that the program changed. A run that differs prints the
lines that differ as a unified diff, writes the whole run to a temporary
file, whose name goes to stderr, and fails; copy that file over the
recorded one in the change that moves the lines.
"""

import difflib
import platform
import sys
import tempfile

import numpy
import scipy


def versions() -> str:
    """The first line of a recorded run."""
    return (
        f"# Python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
        f"{platform.system()} {platform.machine()}; on others a difference asks for a new recording"
    )


def check(path: str, lines: list[str]) -> int:
    """0 if the run of ``lines`` is the one recorded at ``path``, else 1
    after printing the lines that differ."""
    run = [versions(), *lines]
    with open(path) as handle:
        recorded = handle.read().splitlines()
    diff = list(difflib.unified_diff(recorded, run, path, "this run", n=0, lineterm=""))
    if not diff:
        print(f"{len(lines)} lines equal to {path}")
        return 0
    print("\n".join(diff))
    with tempfile.NamedTemporaryFile("w", prefix="run-", suffix=".txt", delete=False) as out:
        out.write("\n".join(run) + "\n")
    print(f"the whole run: {out.name}", file=sys.stderr)
    return 1
