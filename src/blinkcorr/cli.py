"""Command line front end for the blinking-emitter correlation toolkit.

Subcommands: ``eval`` (analytic curve to CSV), ``rates`` (closed-form vs
generator-derived switching rates), ``simulate`` (photon trajectory),
``estimate-g`` (correlation estimate from arrivals), ``fit`` (parameter
extraction from a measured curve) and ``selftest`` (cross-module
consistency battery). Every output file gets a ``.manifest.json``
sidecar recording inputs, seeds and the tool version, enough to
reproduce the file exactly.

Exit codes: 0 success, 1 numerical failure (non-convergence, broken
rate hierarchy, degenerate inputs, failed selftest), 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
import threading

import numpy as np

from . import __version__
from .correlation import (
    CorrelationSeries,
    blink_factor,
    eval_curve,
    g2,
    g2_mod,
    g_total,
    log_grid,
    p_ll,
    read_series,
    write_series,
)
from .errors import (
    DegenerateInputError,
    FitError,
    HierarchyError,
    InsufficientDataError,
    ReducibleChainError,
)
from .fileio import atomic_write_text, format_float, read_key_values
from .fitting import STAGE_KEYS, FitConfig, FitStage, fit_full, fit_slow
from .liouville import perturbative_rates
from .markov import build_rate_matrix, g_general, propagator, read_chain, three_state_chain
from .params import (
    PhotoPhysicalParams,
    light_intensity,
    read_params,
    statistics_from_params,
    transition_rates,
    write_params,
)
from .simulate import (
    _EmissionSampler,
    _correlate,
    _estimate_record,
    _simulate_record,
    light_fraction,
    read_trajectory,
    simulate_periods,
)

_DEFAULT_EVAL_GRID = "1e-10:1:60"
_DEFAULT_ESTIMATE_GRID = "1e-9:1e-1:20"

# Exceptions that mean the computation itself failed on valid input.
_NUMERICAL_ERRORS = (
    HierarchyError,
    DegenerateInputError,
    ReducibleChainError,
    InsufficientDataError,
    FitError,
    np.linalg.LinAlgError,
)


def _parse_grid(text: str) -> np.ndarray:
    """The delay grid that ``MIN:MAX:POINTS_PER_DECADE`` names, built by
    :func:`log_grid`. Every refusal is a ``ValueError`` (exit code 2),
    including a grid too dense to build, which :func:`log_grid` refuses
    with a :class:`DegenerateInputError`."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be MIN:MAX:POINTS_PER_DECADE, got {text!r}")
    try:
        lo, hi, ppd = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad grid specification {text!r}") from exc
    if not (0.0 < lo < hi) or not math.isfinite(hi):
        raise ValueError("grid bounds must satisfy 0 < MIN < MAX")
    if not math.isfinite(hi / lo):
        raise ValueError("grid bounds MAX / MIN must not overflow float64")
    if ppd < 1:
        raise ValueError("grid needs at least one point per decade")
    try:
        return log_grid(lo, hi, ppd)
    except DegenerateInputError as exc:
        raise ValueError(f"grid POINTS_PER_DECADE is too large: {exc}") from None


# Bytes the input digests read at a time, into one reused buffer.
_HASH_CHUNK = 1 << 20


# ``Future`` in the annotations is concurrent.futures.Future; :func:`main`
# imports the pool that makes it when it runs.
def _digests(paths: list[str], stop: threading.Event) -> dict[str, str]:
    """SHA-256 digests of a command's input files, by path.

    :func:`main` runs this on a one-worker pool's thread while the command
    works, and the manifests take the future's result. Each file is read
    through one reused buffer; once ``stop`` is set no further buffer is
    read, so a command that failed does not wait for the hashing.
    """
    digests = {}
    buffer = bytearray(_HASH_CHUNK)
    view = memoryview(buffer)
    for path in paths:
        digest = hashlib.sha256()
        with open(path, "rb", buffering=0) as handle:
            while not stop.is_set() and (size := handle.readinto(buffer)):
                digest.update(view[:size])
        digests[path] = digest.hexdigest()
    return digests


def _write_manifests(
    subcommand: str,
    argv: list[str],
    inputs: Future[dict[str, str]],
    outputs: list[str],
    snapshot: dict[str, float] | None = None,
    seed: int | None = None,
) -> None:
    doc = {
        "subcommand": subcommand,
        "argv": list(argv),
        "version": __version__,
        "inputs": inputs.result(),
        "outputs": list(outputs),
        "params": snapshot,
        "seed": seed,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    for path in outputs:
        atomic_write_text(path + ".manifest.json", text)


def _cmd_eval(args: argparse.Namespace, argv: list[str], inputs: Future[dict[str, str]]) -> int:
    if (args.params is None) == (args.chain is None):
        raise ValueError("exactly one of --params or --chain is required")
    grid = _parse_grid(args.grid)
    if args.chain is not None:
        chain = read_chain(args.chain)
        series = CorrelationSeries(grid, g_general(grid, chain))
        snapshot = None
    else:
        params = read_params(args.params)
        series = eval_curve(params, grid)
        snapshot = params.as_dict()
    write_series(series, args.out)
    _write_manifests("eval", argv, inputs, [args.out], snapshot)
    return 0


_RATE_LABELS = ("shelving_1", "shelving_2", "deshelving_1", "deshelving_2")


def _cmd_rates(args: argparse.Namespace, argv: list[str], inputs: Future[dict[str, str]]) -> int:
    params = read_params(args.params)
    method = args.method.replace("-", "_")
    closed = transition_rates(params)
    derived = perturbative_rates(params, method=method)
    flat_closed = (*closed[0], *closed[1])
    flat_derived = (*derived[0], *derived[1])

    rows = []
    for label, a, b in zip(_RATE_LABELS, flat_closed, flat_derived):
        scale = max(abs(a), abs(b))
        rel = abs(a - b) / scale if scale > 0.0 else 0.0
        rows.append((label, a, b, rel))

    print(f"switching rates, closed form vs generator ({method}), in 1/s")
    print(f"{'rate':<14}{'closed':>16}{'perturbative':>16}{'rel_dev':>12}")
    for label, a, b, rel in rows:
        print(f"{label:<14}{a:>16.8e}{b:>16.8e}{rel:>12.3e}")

    if args.out is not None:
        lines = [f"# switching rates for {args.params}, method = {method}"]
        for label, a, b, rel in rows:
            lines.append(f"closed_{label} = {format_float(a)}")
            lines.append(f"perturbative_{label} = {format_float(b)}")
            lines.append(f"rel_dev_{label} = {format_float(rel)}")
        atomic_write_text(args.out, "\n".join(lines) + "\n")
        _write_manifests("rates", argv, inputs, [args.out], params.as_dict())
    return 0


def _cmd_simulate(args: argparse.Namespace, argv: list[str], inputs: Future[dict[str, str]]) -> int:
    params = read_params(args.params)
    # A bad grid for the estimate is refused before anything is drawn or written.
    edges = None if args.g_out is None else _parse_grid(args.grid)
    stats = statistics_from_params(params)
    periods = simulate_periods(stats, args.duration, args.seed)
    # The record is written block by block as the sampler draws it; the
    # estimate, which needs the photon count first, takes the kept blocks.
    photons, blocks = _simulate_record(periods, params, args.seed, args.out, keep=edges is not None)
    print(
        f"simulated {photons.count} photons over {photons.duration:g} s "
        f"({len(periods)} periods, light fraction {light_fraction(periods):.4f})"
    )
    outputs = [args.out]
    if edges is not None:
        series, limit = _correlate(photons.count, photons.duration, edges, blocks)
        _write_estimate(series, photons.count, limit, args.g_out)
        outputs.append(args.g_out)
    _write_manifests(
        "simulate", argv, inputs, outputs, params.as_dict(), args.seed
    )
    return 0


def _write_estimate(series: CorrelationSeries, photons: int, limit: float, out: str) -> None:
    write_series(series, out)
    print(
        f"estimated {len(series)} bins from {photons} arrivals, "
        f"pairs counted exactly below {limit:g} s"
    )


def _cmd_estimate_g(args: argparse.Namespace, argv: list[str], inputs: Future[dict[str, str]]) -> int:
    try:
        edges = _parse_grid(args.grid)
    except ValueError:
        # A record the reader refuses is named first, as it is read first.
        read_trajectory(args.traj)
        raise
    series, limit, photons, seed = _estimate_record(args.traj, edges)
    _write_estimate(series, photons, limit, args.out)
    _write_manifests("estimate-g", argv, inputs, [args.out], seed=seed)
    return 0


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _load_fit_config(path: str | None) -> FitConfig:
    if path is None:
        return FitConfig()
    # The file sets every FitConfig field. Their annotations are strings,
    # as fitting.py postpones the evaluation of annotations.
    readers = {"float": float, "int": int, "bool": _parse_bool}
    fields = {field.name: readers[field.type] for field in dataclasses.fields(FitConfig)}
    return FitConfig(**read_key_values(path, fields))


def _fit_report(
    stages: dict[str, FitStage],
    values: dict[str, float],
    sigma: dict[str, float],
    diagnostics: dict[str, float] | None,
    n_points: int,
    split_tau: float,
) -> tuple[str, dict]:
    """Text and JSON report of the stages that ran.

    ``values`` and ``sigma`` carry the reported parameters of those
    stages; ``values`` also carries ``P_L``, whose sigma comes from the
    slow stage. ``diagnostics`` is ``None`` for a slow-only fit.
    """
    keys = [key for name, names in STAGE_KEYS.items() if name in stages for key in names]
    p_l = (values["P_L"], stages["slow"].sigma["P_L"])
    doc = {
        "values": {key: values[key] for key in keys},
        "sigma": {key: sigma[key] for key in keys},
    }
    if diagnostics is None:
        title = "# three-stage correlation fit (partial)"
        doc["partial"] = True
        doc["values"]["P_L"], doc["sigma"]["P_L"] = p_l
        notes = [
            "# fast stage: skipped, no delays below split_tau",
            "# isc stage: skipped, needs the fast-stage rates",
        ]
    else:
        title = "# three-stage correlation fit"
        doc["derived"] = {"P_L": p_l[0], "P_L_sigma": p_l[1]}
        doc["stages"] = {
            name: {
                "cost": stage.cost,
                "iterations": stage.iterations,
                "converged": stage.converged,
                "message": stage.message,
                "n_points": stage.n_points,
            }
            for name, stage in stages.items()
        }
        doc["diagnostics"] = diagnostics
        notes = [
            f"# stage {name}: cost = {stage['cost']:.6g}, iterations = {stage['iterations']}, "
            f"points = {stage['n_points']}, stop = {stage['message']}"
            for name, stage in doc["stages"].items()
        ]
        if diagnostics["bootstrap_resamples"] > 0:
            notes.append(
                "# uncertainties: residual bootstrap, "
                f"{diagnostics['bootstrap_resamples']:.0f} resamples "
                f"({diagnostics['bootstrap_failures']:.0f} failed)"
            )
            notes.append(
                "# bootstrap refits with a slow-stage coordinate on its bound: "
                f"{diagnostics['bootstrap_on_bound']:.0f}"
            )
        else:
            notes.append("# uncertainties: per-stage Jacobian estimates")
    lines = [
        title,
        f"# points = {n_points}, split_tau = {split_tau:g}",
        *notes,
        *(f"{key} = {values[key]:.9g} ± {sigma[key]:.4g}" for key in keys),
        f"P_L = {p_l[0]:.9g} ± {p_l[1]:.4g}",
    ]
    return "\n".join(lines) + "\n", doc


def _cmd_fit(args: argparse.Namespace, argv: list[str], inputs: Future[dict[str, str]]) -> int:
    series = read_series(args.data)
    cfg = _load_fit_config(args.config)

    if np.any(series.tau < cfg.split_tau):
        result = fit_full(series, cfg)
        values = {
            **result.params.as_dict(),
            "T_L": result.stats.T_L,
            "T_D1": result.stats.T_D[0],
            "T_D2": result.stats.T_D[1],
            "p1": result.stats.p1,
            "P_L": result.stats.P_L,
        }
        text, doc = _fit_report(
            result.stages, values, result.sigma, result.diagnostics, len(series), cfg.split_tau
        )
        snapshot, seed = result.params.as_dict(), cfg.bootstrap_seed
    else:
        # Nothing resolves the antibunching region: report the blinking
        # stage alone and say so instead of failing outright.
        slow = fit_slow(series, cfg)
        text, doc = _fit_report(
            {"slow": slow}, slow.values, slow.sigma, None, len(series), cfg.split_tau
        )
        result = snapshot = seed = None

    atomic_write_text(args.out, text)
    outputs = [args.out]
    if args.json_out is not None:
        atomic_write_text(args.json_out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        outputs.append(args.json_out)
    if args.curve_out is not None:
        if result is None:
            print("note: skipping --curve-out, partial fit has no fast parameters", file=sys.stderr)
        else:
            grid = log_grid(float(series.tau[0]), float(series.tau[-1]), 60)
            write_series(eval_curve(result.params, grid), args.curve_out)
            outputs.append(args.curve_out)
    _write_manifests("fit", argv, inputs, outputs, snapshot, seed)
    print(text, end="")
    return 0


def _selftest_checks(rng: np.random.Generator):
    """Yield (name, measured deviation, tolerance) consistency checks."""
    params = PhotoPhysicalParams(
        A31=3.3e8, Omega31=2.9e8, A32=(34.0, 249.0), A21=(430.0, 2400.0), I_sc=7.7e7
    )
    stats = statistics_from_params(params)
    tau = log_grid(1e-10, 1.0, 40)

    explicit = g_total(tau, params)
    product = g2_mod(tau, params.A31, params.Omega31, params.I_sc) * (p_ll(tau, stats) / stats.P_L)
    yield (
        "explicit vs factored curve",
        float(np.max(np.abs(explicit - product) / np.abs(product))),
        1e-10,
    )

    worst = 0.0
    tau_slow = np.geomspace(1e-6, 1.0, 80)
    for _ in range(30):
        scale = 10.0 ** rng.uniform(0.0, 4.0, 4)
        st = statistics_from_params(
            PhotoPhysicalParams(
                A31=3.3e8,
                Omega31=2.9e8,
                A32=(scale[0], scale[1]),
                A21=(scale[2], scale[3]),
            )
        )
        chain = three_state_chain(st, light_rate=1.0)
        props = propagator(build_rate_matrix(chain), tau_slow)
        worst = max(worst, float(np.max(np.abs(p_ll(tau_slow, st) - props[:, 0, 0]))))
    yield ("light survival vs matrix exponential", worst, 1e-9)

    bare = PhotoPhysicalParams(
        A31=3.3e8, Omega31=2.9e8, A32=(34.0, 249.0), A21=(430.0, 2400.0)
    )
    chain = three_state_chain(stats, light_intensity(bare.A31, bare.Omega31))
    def light_g(t):
        return g2(t, bare.A31, bare.Omega31)

    g_chain = g_general(tau, chain, g_periods=[light_g, None, None])
    g_ref = g_total(tau, bare)
    yield (
        "chain correlation vs factored curve",
        float(np.max(np.abs(g_chain - g_ref) / np.abs(g_ref))),
        1e-10,
    )

    closed = transition_rates(params)
    derived = perturbative_rates(params, method="resolvent")
    dev = max(
        abs(a - b) / abs(a) for a, b in zip(closed[1], derived[1])
    )
    yield ("deshelving rates, closed vs generator", dev, 1e-3)

    finite = perturbative_rates(params, method="finite_dt")
    flat_r = (*derived[0], *derived[1])
    flat_f = (*finite[0], *finite[1])
    dev = max(abs(a - b) / abs(a) for a, b in zip(flat_r, flat_f))
    yield ("switching rates, resolvent vs finite-dt", dev, 1e-2)

    plateau = float(blink_factor(np.array([0.0]), stats)[0])
    yield (
        "zero-delay hump vs inverse light fraction",
        abs(plateau * stats.P_L - 1.0),
        1e-12,
    )

    sampler = _EmissionSampler(params.A31, params.Omega31)
    surv = sampler._surv_rev[::-1]
    grid = sampler._grid_rev[::-1]
    grid_mean = float(np.sum(0.5 * (surv[1:] + surv[:-1]) * np.diff(grid)))
    yield (
        "tabulated waiting time vs analytic mean",
        abs(grid_mean - sampler.mean_wait) / sampler.mean_wait,
        1e-6,
    )
    # In grid steps of the survival table, on a fixed grid of uniforms
    # that does not line up with the lookup's cells.
    u = np.linspace(0.0, 1.0, 1_000_003)
    gap = np.max(np.abs(sampler.waits(u) - sampler.table_waits(u)))
    yield ("wait lookup vs survival table", float(gap) / sampler.grid_step, 1.0)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "params.txt")
        write_params(params, path)
        dev = max(
            abs(a - b)
            for a, b in zip(
                params.as_dict().values(), read_params(path).as_dict().values()
            )
        )
    yield ("parameter file round trip", dev, 0.0)


def _cmd_selftest(args: argparse.Namespace, argv: list[str], inputs: Future[dict[str, str]]) -> int:
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    print(f"{'check':<44}{'measured':>12}{'tolerance':>12}  status")
    failures = 0
    total = 0
    for name, measured, tol in _selftest_checks(rng):
        total += 1
        ok = measured <= tol
        failures += not ok
        print(
            f"{name:<44}{measured:>12.3e}{tol:>12.3e}  "
            f"{'pass' if ok else 'FAIL'}"
        )
    print(f"selftest: {total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blinkcorr",
        description="intensity correlation toolkit for blinking single emitters",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eval", help="evaluate the analytic correlation to CSV")
    p.add_argument("--params", help="parameter file (key = value)")
    p.add_argument("--chain", help="n-period chain file instead of --params")
    p.add_argument("--grid", default=_DEFAULT_EVAL_GRID, help="MIN:MAX:PPD delay grid")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_eval, inputs=("params", "chain"))

    p = sub.add_parser("rates", help="closed-form vs generator-derived switching rates")
    p.add_argument("--params", required=True)
    p.add_argument("--method", choices=("resolvent", "finite-dt"), default="resolvent")
    p.add_argument("--out", help="optional machine-readable key = value output")
    p.set_defaults(func=_cmd_rates, inputs=("params",))

    p = sub.add_parser("simulate", help="draw a photon arrival trajectory")
    p.add_argument("--params", required=True)
    p.add_argument("--duration", type=float, required=True, help="record length in s")
    p.add_argument("--seed", type=int, required=True, help="random seed (mandatory)")
    p.add_argument("--out", required=True, help="output trajectory path")
    p.add_argument("--g-out", help="also estimate the correlation to this CSV")
    p.add_argument("--grid", default=_DEFAULT_ESTIMATE_GRID, help="bins for --g-out")
    p.set_defaults(func=_cmd_simulate, inputs=("params",))

    p = sub.add_parser("estimate-g", help="correlation estimate from a trajectory")
    p.add_argument("--traj", required=True, help="trajectory file")
    p.add_argument("--grid", default=_DEFAULT_ESTIMATE_GRID, help="MIN:MAX:PPD bins")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_estimate_g, inputs=("traj",))

    p = sub.add_parser("fit", help="extract parameters from a correlation CSV")
    p.add_argument("--data", required=True, help="input CSV (tau_s,g[,sigma])")
    p.add_argument("--config", help="fit options file (key = value)")
    p.add_argument("--out", required=True, help="report path (name = value ± sigma)")
    p.add_argument("--json-out", help="machine-readable report path")
    p.add_argument("--curve-out", help="fitted curve CSV for overlay plots")
    p.set_defaults(func=_cmd_fit, inputs=("data", "config"))

    p = sub.add_parser("selftest", help="run the cross-module consistency battery")
    p.set_defaults(func=_cmd_selftest, inputs=())
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    # Imported here: ``import blinkcorr.cli`` does not load the thread pool.
    from concurrent.futures import ThreadPoolExecutor

    # The input files a command names, hashed for its manifests while it
    # works. A command that fails stops the hashing at the next buffer, and
    # leaving the pool joins its thread, so none outlives the command.
    paths = [getattr(args, name) for name in args.inputs if getattr(args, name) is not None]
    stop = threading.Event()
    with ThreadPoolExecutor(1) as pool:
        inputs = pool.submit(_digests, paths, stop)
        try:
            return args.func(args, argv, inputs)
        except _NUMERICAL_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            stop.set()


if __name__ == "__main__":
    sys.exit(main())
