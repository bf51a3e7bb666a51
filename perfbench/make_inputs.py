"""Write every workload's inputs for one seed to a directory and print
their SHA-256 digests; two calls with the same seed print the same
digests.

    python3 perfbench/make_inputs.py --seed 1 --out perfbench/inputs

The trajectory is written by the program's own ``write_trajectory``, so
this needs the program source in ./src like the benchmark does.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=os.path.join(HERE, "inputs"))
    args = parser.parse_args()
    sys.path[:0] = [SOURCE, HERE]
    from blinkbench import checks
    from blinkbench import workloads as wl

    written = []
    for name, cls in wl.WORKLOADS.items():
        workdir = os.path.join(args.out, name)
        os.makedirs(workdir, exist_ok=True)
        workload = cls(args.seed, workdir)
        workload.prepare()
        workload.install()
        written += workload.input_files()
        if name == "curve_fit":
            path = os.path.join(workdir, "curves.json")
            doc = {
                "tau": workload.curves[0].tau.tolist(),
                "sigma": workload.sigma.tolist(),
                "g": [curve.g.tolist() for curve in workload.curves],
                "bootstrap_resamples": workload.config.bootstrap_resamples,
                "bootstrap_seed": workload.config.bootstrap_seed,
            }
        elif name == "model_scan":
            path = os.path.join(workdir, "scan.json")
            doc = {
                "emitters": [em.as_dict() for em in workload.emitters],
                "chains": [
                    {"intensities": i.tolist(), "rates": r.tolist()} for i, r in workload.chain_inputs
                ],
            }
        else:
            continue
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=1)
        written.append(path)

    for path in written:
        print(f"{checks.file_digest(path)}  {os.path.relpath(path, args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
