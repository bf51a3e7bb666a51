"""Checks of the program's outputs against the reference model or against
properties the method must have. Each check returns a list of failure
messages; an empty list means the output passed."""

from __future__ import annotations

import hashlib
import math

import numpy as np

from . import reference as ref

# 99.9th percentile of the median of twenty |N(0, 1)| draws: the largest
# twenty-curve median relative error of an efficient unbiased estimator,
# in units of its Cramer-Rao bound (criterion 7's gate).
EFFICIENT_MEDIAN_QUANTILE = 1.27
MEDIAN_FLOOR = 0.05

# The photon count may sit this many standard deviations from P_L I_L T.
COUNT_Z_MAX = 5.0

# Photons closer than a quarter of 1/A31 are antibunched: a Poisson
# stream of the same rate has about sixty times more such gaps.
ANTIBUNCHING_FRACTION = 0.25
ANTIBUNCHING_MAX_RATIO = 0.1

# A fitted value may sit this many reported sigmas from the truth. The
# residual bootstrap treats the bins of an estimated curve as independent
# while neighbouring bins share photon pairs, so its sigma understates the
# scatter between records: fits of other 100 s records of this emitter
# sat up to 4.4 sigma out (A31), analyse_record's record sits within 1.7.
FIT_SIGMA_BOUND = 6.0
FIT_KEYS = ("T_L", "T_D1", "T_D2", "p1", "A31", "Omega31")


def read_trajectory_text(path: str) -> tuple[dict[str, str], np.ndarray]:
    """Header fields and arrival times of a trajectory file, parsed
    without the program."""
    with open(path, "rb") as handle:
        data = handle.read()
    header: dict[str, str] = {}
    pos = 0
    while data.startswith(b"#", pos):
        end = data.index(b"\n", pos)
        key, _, value = data[pos + 1 : end].decode("ascii").partition("=")
        header[key.strip()] = value.strip()
        pos = end + 1
    times = np.fromstring(data[pos:].decode("ascii"), dtype=np.float64, sep="\n")
    return header, times


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 22), b""):
            digest.update(block)
    return digest.hexdigest()


def read_csv(path: str) -> dict[str, np.ndarray]:
    """Columns of a CSV file with a header row, parsed without the program."""
    with open(path) as handle:
        names = handle.readline().strip().split(",")
        table = np.loadtxt(handle, delimiter=",", ndmin=2)
    return {name: table[:, k] for k, name in enumerate(names)}


def check_record(times: np.ndarray, duration: float, em: ref.Emitter) -> list[str]:
    """Photon record of ``em`` over ``duration`` seconds: sorted times in
    [0, T], a photon count within the blinking variance of P_L I_L T, and
    far fewer antibunched gaps than a Poisson stream of the same rate."""
    errors = []
    if times.size < 2:
        return [f"record holds {times.size} photons"]
    if np.any(np.diff(times) < 0.0):
        errors.append("arrival times are not sorted")
    if times[0] < 0.0 or times[-1] > duration:
        errors.append(f"arrival times leave [0, {duration:g}]: {times[0]:.6g}..{times[-1]:.6g}")

    i_l = ref.light_intensity(em.A31, em.Omega31)
    p_l = ref.period_summary(em)["P_L"]
    expected = p_l * i_l * duration
    sigma = math.hypot(i_l * duration * ref.light_fraction_sigma(em, duration), math.sqrt(expected))
    z = (times.size - expected) / sigma
    if abs(z) > COUNT_Z_MAX:
        errors.append(
            f"{times.size} photons against {expected:.0f} +- {sigma:.0f} expected (z = {z:+.2f})"
        )

    cutoff = ANTIBUNCHING_FRACTION / em.A31
    observed = float(np.mean(np.diff(times) < cutoff))
    poisson = -math.expm1(-times.size / duration * cutoff)
    if observed > ANTIBUNCHING_MAX_RATIO * poisson:
        errors.append(
            f"{observed:.3e} of gaps are shorter than {cutoff:.3g} s, "
            f"against {poisson:.3e} for a Poisson stream (limit ratio {ANTIBUNCHING_MAX_RATIO})"
        )
    return errors


def check_estimate(series: dict[str, np.ndarray], em: ref.Emitter, bins_per_decade: int) -> list[str]:
    """At least 95% of the estimated bins lie within three standard
    errors of the reference averaged over each bin (criterion 6's rule)."""
    tau, g, sigma = series["tau_s"], series["g"], series["sigma"]
    half = 10.0 ** (0.5 / bins_per_decade)
    model = ref.window_average(em, tau / half, tau * half)
    z = (g - model) / sigma
    within = float(np.mean(np.abs(z) <= 3.0))
    if within < 0.95:
        return [f"{100.0 * within:.1f}% of {tau.size} bins within 3 sigma of the reference (need 95%)"]
    return []


def check_fit_report(report: dict, em: ref.Emitter) -> list[str]:
    """Fitted period statistics and optical rates match the emitter that
    made the record, within FIT_SIGMA_BOUND of the fit's own sigma."""
    truth = {"A31": em.A31, "Omega31": em.Omega31, **ref.period_summary(em)}
    errors = []
    for key in FIT_KEYS:
        value = report["values"][key]
        sigma = report["sigma"][key]
        if not (math.isfinite(value) and math.isfinite(sigma) and sigma > 0.0):
            errors.append(f"{key} = {value!r} +- {sigma!r} is not a finite fit")
        elif abs(value - truth[key]) > FIT_SIGMA_BOUND * sigma:
            errors.append(
                f"{key} = {value:.6g} +- {sigma:.3g} is {abs(value - truth[key]) / sigma:.1f} "
                f"sigma from the record's {truth[key]:.6g} (bound {FIT_SIGMA_BOUND:g})"
            )
    return errors


def check_curve_fits(fitted: list[dict[str, float]], em: ref.Emitter, crlb: dict[str, float]) -> list[str]:
    """Criterion 7's rule over a set of fits: each quantity's median
    relative error stays within max(5%, 1.27 x its relative CRLB)."""
    truth = {**em.as_dict(), **ref.period_summary(em)}
    errors = []
    for key, bound in crlb.items():
        median = float(np.median([abs(f[key] / truth[key] - 1.0) for f in fitted]))
        gate = max(MEDIAN_FLOOR, EFFICIENT_MEDIAN_QUANTILE * bound)
        if not median <= gate:
            errors.append(
                f"{key}: median relative error {100 * median:.2f}% over {len(fitted)} fits "
                f"exceeds {100 * gate:.2f}% (CRLB {100 * bound:.2f}%)"
            )
    return errors


def check_close(name: str, got: np.ndarray, want: np.ndarray, tol: float, scale: str) -> list[str]:
    """Largest deviation of ``got`` from ``want``: absolute, relative, or
    relative to max(|want|, 1) ("unit"), which keeps values near zero,
    such as g at zero delay, from turning rounding into a failure."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    dev = np.abs(got - want)
    if scale == "relative":
        dev = dev / np.abs(want)
    elif scale == "unit":
        dev = dev / np.maximum(np.abs(want), 1.0)
    worst = float(np.max(dev)) if dev.size else 0.0
    if not worst <= tol:
        return [f"{name}: max {scale} deviation {worst:.3e} exceeds {tol:.0e}"]
    return []
