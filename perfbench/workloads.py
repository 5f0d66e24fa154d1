"""Seeded inputs and job lists for the three benchmark workloads.

A workload is a list of groups; a group is a fixed set of `ucrlab`
command lines over freshly drawn spec and descriptor files. Every input is
drawn from (workload seed, group index), so a seed names the same job list
on every commit. Nothing here imports ucrlab: the program under test sees
only the generated files.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Wall seconds of one group on a 2-core x86 box at the baseline commit,
# rounded up. A run holds seconds // GROUP_SECONDS groups (at least one).
GROUP_SECONDS = {"ucr-certify": 12.0, "protocol": 7.0, "spectrum-lemmas": 7.0}

_WORKLOAD_TAG = {"ucr-certify": 1, "protocol": 2, "spectrum-lemmas": 3}


@dataclass
class Job:
    """One `ucrlab` command line and what its checks need.

    kind names the metric family the job's latency feeds. replay_of names
    the job whose manifest this one replays; check names the rule in
    checks.py that validates the output, and expect carries its inputs.
    """

    name: str
    kind: str
    argv: list[str]
    check: str
    expect: dict = field(default_factory=dict)
    replay_of: str | None = None


def h_bits(p) -> float:
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def h2(p: float) -> float:
    return h_bits([p, 1.0 - p])


def mutual_info_uniform(rows: np.ndarray) -> float:
    """I(X;Z) in bits for uniform X through the row-stochastic matrix rows."""
    px = np.full(rows.shape[0], 1.0 / rows.shape[0])
    return h_bits(px @ rows) - float(px @ [h_bits(r) for r in rows])


def _dump(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _noisy_source(rng, nx: int) -> np.ndarray:
    """Dirichlet joint law on nx x nx, redrawn until H(X|Y) >= 0.02 bits."""
    while True:
        probs = rng.dirichlet(np.ones(nx * nx)).reshape(nx, nx)
        if h_bits(probs) - h_bits(probs.sum(axis=0)) >= 0.02:
            return probs


def _dsbs(p: float) -> list[float]:
    return [(1.0 - p) / 2.0, p / 2.0, p / 2.0, (1.0 - p) / 2.0]


def _cli_seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31))


def _ucr_group(rng, d: Path, g: int) -> list[Job]:
    """Criterion 03's mix: two binary sources at |U|=3 per ternary at |U|=2."""
    jobs = []
    for k, (nx, u_card) in enumerate(((2, 3), (2, 3), (3, 2))):
        probs = _noisy_source(rng, nx)
        h_cond = h_bits(probs) - h_bits(probs.sum(axis=0))
        c_bits = float(rng.uniform(0.0, h_cond))
        grid = sorted(float(v) for v in rng.uniform(0.0, h_cond, size=3))
        seed = _cli_seed(rng)
        src = _dump(d / f"g{g}-src{k}.json",
                    {"alphabet_x": nx, "alphabet_y": nx, "probs": probs.ravel().tolist()})
        common = ["ucr", src, "--C", repr(c_bits), "--u-card", str(u_card),
                  "--seed", str(seed)]
        expect = {"probs": probs.tolist(), "c_bits": c_bits}
        solve = f"g{g}-s{k}-solve"
        jobs.append(Job(solve, "ucr_solve",
                        common + ["--grid", ",".join(repr(c) for c in grid)],
                        "ucr", dict(expect, grid=grid)))
        jobs.append(Job(f"g{g}-s{k}-oracle", "ucr_oracle",
                        common + ["--oracle", "--grid-step", "0.02"],
                        "ucr", dict(expect, grid=[], solver=solve)))
    return jobs


def _simulate_desc(source: list[float], aux: dict, n: int, mu: float,
                   theta: float, seed: int) -> dict:
    return {"source": {"alphabet_x": 2, "alphabet_y": 2, "probs": source},
            "aux": aux, "n": n, "mu": mu, "theta": theta, "eps_typ": 0.15,
            "seed": seed}


def _protocol_group(rng, d: Path, g: int) -> list[Job]:
    jobs = []
    # exact law and its Monte Carlo estimate on one codebook, identity aux
    for n in (8, 10):
        p = float(rng.uniform(0.08, 0.12))
        theta = float(rng.uniform(0.0, 0.05))
        desc = _dump(d / f"g{g}-exact{n}.json", _simulate_desc(
            _dsbs(p), {"kind": "identity"}, n, 0.1, theta, _cli_seed(rng)))
        exact = f"g{g}-n{n}-exact"
        jobs.append(Job(exact, "simulate_exact", ["simulate", desc, "--exact"],
                        "simulate"))
        jobs.append(Job(f"g{g}-n{n}-mc", "mc", ["simulate", desc, "--trials", "2000"],
                        "simulate", {"trials": 2000, "exact": exact}))
    # BSC test channel as the auxiliary: every encode scans the codebook.
    # mu puts n1 * n2 near 2^12 words whatever the drawn crossover.
    n = 20
    p = float(rng.uniform(0.04, 0.06))
    a = float(rng.uniform(0.09, 0.11))
    mu = 12.0 / n - (1.0 - h2(a))
    desc = _dump(d / f"g{g}-scan.json", _simulate_desc(
        _dsbs(p), {"kind": "matrix", "rows": [[1.0 - a, a], [a, 1.0 - a]]}, n, mu,
        float(rng.uniform(0.0, 0.05)), _cli_seed(rng)))
    jobs.append(Job(f"g{g}-scan-mc", "mc", ["simulate", desc, "--trials", "1500"],
                    "simulate", {"trials": 1500}))
    # desk scale: past the materialization guard, statistical engine
    desc = _dump(d / f"g{g}-desk.json", _simulate_desc(
        _dsbs(float(rng.uniform(0.04, 0.06))), {"kind": "identity"}, 1000, 0.1,
        float(rng.uniform(0.005, 0.02)), _cli_seed(rng)))
    jobs.append(Job(f"g{g}-desk-mc", "mc", ["simulate", desc, "--trials", "3000"],
                    "simulate", {"trials": 3000}))
    for job in [j for j in jobs if j.name.endswith(("n8-mc", "n10-mc", "scan-mc"))]:
        jobs.append(_replay(job))
    return jobs


def _replay(job: Job) -> Job:
    return Job(job.name + "-t2", job.kind + "_t2", ["--threads", "2"], "replay",
               replay_of=job.name)


def _spectrum_group(rng, d: Path, g: int) -> list[Job]:
    jobs = []
    p = float(rng.uniform(0.05, 0.2))
    dmc = 0.7 * rng.dirichlet(np.ones(3), size=3) + 0.1
    w = float(rng.uniform(0.3, 0.7))
    bsc_rows = [[1.0 - p, p], [p, 1.0 - p]]
    spectra = [
        ("bsc", {"kind": "bsc", "payload": {"p": p}}, "100,400", 1000,
         {"mean_ref": mutual_info_uniform(np.array(bsc_rows))}),
        ("dmc", {"kind": "dmc", "payload": {"rows": dmc.tolist()}}, "100,400", 1000,
         {"mean_ref": mutual_info_uniform(dmc)}),
        ("mix", {"kind": "mixed", "payload": {"components": [
            {"weight": w, "channel": {"kind": "bsc", "payload": {"p": 0.0}}},
            {"weight": 1.0 - w, "channel": {"kind": "bsc", "payload": {"p": 0.5}}}]}},
         "32,128", 2000, {"useless_weight": 1.0 - w}),
    ]
    for tag, spec, ns, samples, expect in spectra:
        path = _dump(d / f"g{g}-{tag}.json", spec)
        job = Job(f"g{g}-{tag}-spectrum", "spectrum",
                  ["spectrum", path, "--n", ns, "--samples", str(samples),
                   "--seed", str(_cli_seed(rng))],
                  "spectrum", dict(expect, samples=samples,
                                   ns=[int(v) for v in ns.split(",")]))
        jobs += [job, _replay(job)]
    e = float(rng.uniform(0.05, 0.5))
    for tag, spec, closed in (
            ("bsc", {"kind": "bsc", "payload": {"p": p}}, 1.0 - h2(p)),
            ("bec", {"kind": "bec", "payload": {"e": e}}, 1.0 - e),
            ("dmc", {"kind": "dmc", "payload": {"rows": dmc.tolist()}}, None)):
        path = _dump(d / f"g{g}-cap-{tag}.json", spec)
        jobs.append(Job(f"g{g}-{tag}-capacity", "capacity",
                        ["capacity", path, "--tol", "1e-9"], "capacity",
                        {"tol": 1e-9, "closed_form": closed}))
    jobs.append(Job(f"g{g}-lemmas", "lemmas",
                    ["lemmas", "--instances", "2000", "--telescoping", "20",
                     "--seed", str(_cli_seed(rng))],
                    "lemmas", {"instances": 2000}))
    return jobs


_BUILDERS = {"ucr-certify": _ucr_group, "protocol": _protocol_group,
             "spectrum-lemmas": _spectrum_group}


def group_count(workload: str, seconds: float) -> int:
    return max(1, math.floor(seconds / GROUP_SECONDS[workload]))


def build_jobs(workload: str, seed: int, groups: int, inputs: Path) -> list[Job]:
    """Write the workload's input files under inputs and return its jobs."""
    inputs.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []
    for g in range(groups):
        rng = np.random.default_rng([seed, _WORKLOAD_TAG[workload], g])
        jobs += _BUILDERS[workload](rng, inputs, g)
    return jobs
