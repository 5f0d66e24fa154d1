"""Output checks, one rule per command, each valid on any workload seed.

A rule takes the job, its output directory and the output directories of
the jobs run before it in the same round, and returns the reasons the job
failed (an empty list when it passed). Reference values are computed here
with plain numpy, never through ucrlab.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import Job, h_bits

SOLVER_ORACLE_TOL = 5e-3   # acceptance criterion 03, one-sided here
CURVE_TOL = 1e-9
MC_SIGMAS = 4.0            # a fresh seed trips this with probability < 1e-4
SPECTRUM_MEAN_TOL = 0.01
MIXTURE_MASS_TOL = 0.05
CLOSED_FORM_TOL = 1e-6


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _ucr_ceiling(probs: np.ndarray, c_bits: float) -> float:
    """min(H(X), C + I(X;Y)): no auxiliary can beat either bound."""
    h_x = h_bits(probs.sum(axis=1))
    i_xy = h_x + h_bits(probs.sum(axis=0)) - h_bits(probs)
    return min(h_x, c_bits + i_xy)


def _mixture(achiever: dict, weight: float = 1.0) -> list[tuple[float, np.ndarray]]:
    """Flatten an achiever document into (weight, P(u|x) rows) pairs."""
    if achiever["kind"] == "time_shared":
        lam = achiever["weight"]
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"time-share weight {lam} outside [0, 1]")
        return (_mixture(achiever["first"], weight * lam)
                + _mixture(achiever["second"], weight * (1.0 - lam)))
    return [(weight, np.array(achiever["rows"], dtype=float))]


def _certify(doc: dict, probs: np.ndarray, c_bits: float) -> list[str]:
    """Recompute I(U;X) and I(U;X) - I(U;Y) of the reported achiever.

    The spend is held to the requested budget c_bits, not to the budget the
    output echoes back.
    """
    if doc["c_bits"] != c_bits:
        return [f"output reports budget {doc['c_bits']}, requested {c_bits}"]
    value = gap = 0.0
    p_x, p_y = probs.sum(axis=1), probs.sum(axis=0)
    for weight, rows in _mixture(doc["achiever"]):
        if rows.min() < 0.0 or np.abs(rows.sum(axis=1) - 1.0).max() > CURVE_TOL:
            return [f"achiever rows are not conditional pmfs: {rows.tolist()}"]
        p_u = p_x @ rows
        i_ux = h_bits(p_u) + h_bits(p_x) - h_bits(p_x[:, None] * rows)
        i_uy = h_bits(p_u) + h_bits(p_y) - h_bits(rows.T @ probs)
        value += weight * i_ux
        gap += weight * (i_ux - i_uy)
    fails = []
    if abs(value - doc["value_bits"]) > CURVE_TOL:
        fails.append(f"achiever gives I(U;X) = {value}, reported {doc['value_bits']}")
    if gap > c_bits + CURVE_TOL:
        fails.append(f"achiever spends {gap} bits, budget {c_bits}")
    return fails


def check_ucr(job: Job, out: Path, done: dict[str, Path]) -> list[str]:
    probs = np.array(job.expect["probs"])
    c_bits = job.expect["c_bits"]
    doc = _json(out / "ucr.json")
    value = doc["value_bits"]
    fails = _certify(doc, probs, c_bits)
    if value > _ucr_ceiling(probs, c_bits) + CURVE_TOL:
        fails.append(f"value {value} above min(H(X), C + I(X;Y))")
    solver = job.expect.get("solver")
    if solver is not None:
        # The solver may beat the grid oracle: its value is certified above.
        # Falling short of the oracle is the solver's failure.
        ref = _json(done[solver] / "ucr.json")["value_bits"]
        if value - ref > SOLVER_ORACLE_TOL:
            fails.append(f"solver {ref} falls {value - ref:.3e} short of oracle {value}")
    if job.expect["grid"]:
        rows = _csv_rows(out / "ucr_curve.csv")
        grid = [float(r["c_bits"]) for r in rows]
        values = [float(r["value_bits"]) for r in rows]
        if grid != job.expect["grid"]:
            fails.append(f"curve budgets {grid} != requested {job.expect['grid']}")
        if any(b < a - CURVE_TOL for a, b in zip(values, values[1:])):
            fails.append(f"curve decreases: {values}")
        for c, v in zip(grid, values):
            if v > _ucr_ceiling(probs, c) + CURVE_TOL:
                fails.append(f"curve value {v} at C = {c} above its ceiling")
    return fails


def check_simulate(job: Job, out: Path, done: dict[str, Path]) -> list[str]:
    doc = _json(out / "simulate.json")
    fails = []
    if not 0.0 <= doc["p_disagree"] <= 1.0:
        fails.append(f"P[K != L] = {doc['p_disagree']} outside [0, 1]")
    if doc["mode"] == "exact":
        return fails
    trials = job.expect["trials"]
    if doc["trials"] != trials:
        fails.append(f"ran {doc['trials']} trials, asked for {trials}")
    bad = {k: v for k, v in doc["event_counts"].items() if not 0 <= v <= trials}
    if bad:
        fails.append(f"event counts outside [0, {trials}]: {bad}")
    if len(_csv_rows(out / "trials.csv")) != trials:
        fails.append("trials.csv does not hold one row per trial")
    exact = job.expect.get("exact")
    if exact is not None:
        p = _json(done[exact] / "simulate.json")["p_disagree"]
        se = math.sqrt(p * (1.0 - p) / trials)
        if abs(doc["p_disagree"] - p) > MC_SIGMAS * se:
            fails.append(f"Monte Carlo P[K != L] = {doc['p_disagree']} is more than "
                         f"{MC_SIGMAS:g} standard errors from exact {p}")
    return fails


def check_spectrum(job: Job, out: Path, done: dict[str, Path]) -> list[str]:
    ns = job.expect["ns"]
    samples = job.expect["samples"]
    fails = []
    rows = _csv_rows(out / "spectrum.csv")
    if len(rows) != samples * len(ns):
        fails.append(f"spectrum.csv holds {len(rows)} rows, expected {samples * len(ns)}")
    top = np.array([float(r["density_bits"]) for r in rows if int(r["n"]) == ns[-1]])
    if top.size != samples:
        return fails + [f"{top.size} samples at n = {ns[-1]}, expected {samples}"]
    if "mean_ref" in job.expect:
        ref = job.expect["mean_ref"]
        if abs(top.mean() - ref) > SPECTRUM_MEAN_TOL:
            fails.append(f"mean density {top.mean()} at n = {ns[-1]} vs "
                         f"I(uniform; W) = {ref}")
    if "useless_weight" in job.expect:
        mass = float((top <= 0.1).mean())
        ref = job.expect["useless_weight"]
        if abs(mass - ref) > MIXTURE_MASS_TOL:
            fails.append(f"mass below 0.1 is {mass}, useless-branch weight {ref}")
    return fails


def check_capacity(job: Job, out: Path, done: dict[str, Path]) -> list[str]:
    doc = _json(out / "capacity.json")
    lo, value, hi = doc["lower_bits"], doc["value_bits"], doc["upper_bits"]
    fails = []
    if not lo <= value <= hi:
        fails.append(f"bracket [{lo}, {hi}] does not contain {value}")
    if hi - lo > job.expect["tol"]:
        fails.append(f"bracket width {hi - lo} wider than tol {job.expect['tol']}")
    closed = job.expect["closed_form"]
    if closed is not None and abs(value - closed) > CLOSED_FORM_TOL:
        fails.append(f"capacity {value} vs closed form {closed}")
    return fails


def check_lemmas(job: Job, out: Path, done: dict[str, Path]) -> list[str]:
    doc = _json(out / "lemmas.json")
    fails = []
    interval = doc["interval"]
    if not interval["all_pass"] or interval["valid_draws"] != job.expect["instances"]:
        fails.append(f"interval chain: {interval}")
    tele = doc["telescoping"]
    if tele["max_gap"] > tele["tolerance"]:
        fails.append(f"telescoping gap {tele['max_gap']} over {tele['tolerance']}")
    return fails


def check_replay(job: Job, out: Path, done: dict[str, Path]) -> list[str]:
    first = done[job.replay_of]
    outputs = _json(first / "manifest.json")["outputs"]
    return [f"{rel} differs from the first run"
            for rel in sorted(outputs.values())
            if (out / rel).read_bytes() != (first / rel).read_bytes()]


RULES = {
    "ucr": check_ucr,
    "simulate": check_simulate,
    "spectrum": check_spectrum,
    "capacity": check_capacity,
    "lemmas": check_lemmas,
    "replay": check_replay,
}


def check_job(job: Job, out: Path, done: dict[str, Path]) -> list[str]:
    """Run the job's rule; a missing or malformed output is a failure too."""
    try:
        return RULES[job.check](job, out, done)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
