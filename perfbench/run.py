"""Benchmark of the ucrlab command line on one workload.

    python3 perfbench/run.py --workload ucr-certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
src/. The run generates the workload's inputs from --seed, sizing the job
list to --seconds, then runs that list once through `ucrlab.cli.main` in
this one process. It checks every output, prints each metric by name with its unit, writes a stamped result file to
.bench_out/results/, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the run
times one untraced round, then the same round with timing wrappers on every
public ucrlab function, and reports the per-layer metrics; the spans go to
.bench_out/traces/. See perfbench/README.md for what each metric measures.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 15
TRACE_SHARE = 2.5   # a traced run sizes each of its two rounds to seconds / this

# Reported and recorded with every run next to the gated metrics that
# BENCHMARK.json lists, but not gated: not every workload runs every
# command, and fail_frac is 0 on a correct run.
REPORTED = {
    "fail_frac": "fraction",
    "ucr_solve_p50_s": "s",
    "ucr_oracle_p50_s": "s",
    "capacity_p50_s": "s",
    "simulate_exact_p50_s": "s",
    "lemmas_p50_s": "s",
    "mc_materialized_trials_per_s": "1/s",
    "mc_materialized_t2_trials_per_s": "1/s",
    "mc_statistical_trials_per_s": "1/s",
    "spectrum_samples_per_s": "1/s",
    "spectrum_t2_samples_per_s": "1/s",
}
LATENCY_KINDS = {"ucr_solve": "ucr_solve_p50_s", "ucr_oracle": "ucr_oracle_p50_s",
                 "capacity": "capacity_p50_s", "simulate_exact": "simulate_exact_p50_s",
                 "lemmas": "lemmas_p50_s"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ucr-certify", "protocol", "spectrum-lemmas"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program():
    """Import ucrlab from this checkout's src/, never from site-packages."""
    if not (SRC / "ucrlab" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'ucrlab'} not found; run from a ucrlab checkout")
    sys.path.insert(0, str(SRC))
    import ucrlab.cli
    if SRC not in Path(ucrlab.cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported ucrlab from {ucrlab.cli.__file__}, not {SRC}")
    return ucrlab


def _probe_setup(args) -> None:
    """Child process: import and generate inputs, then report the clock."""
    _import_program()
    workloads.build_jobs(args.workload, args.seed,
                         workloads.group_count(args.workload, args.seconds),
                         Path(args.probe_setup))
    print(repr(time.monotonic()), flush=True)


def _setup_seconds(args, scratch: Path) -> list[float]:
    """Interpreter start to first-job readiness, once per fresh process."""
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--probe-setup", str(scratch / f"probe{i}")]
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
        shutil.rmtree(scratch / f"probe{i}")
    return samples


def _stamp(args) -> dict:
    import numpy
    import scipy
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except OSError:
            pass
    return {
        "commit": commit or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_start": _loadavg(),
    }


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


class Round:
    """One pass over the job list: latencies, outputs and failures."""

    def __init__(self, jobs, out_dir: Path):
        self.jobs = jobs
        self.out_dir = out_dir
        self.latency: dict[str, float] = {}
        self.failures: dict[str, list[str]] = {}
        self.docs: dict[str, dict] = {}
        self.wall = 0.0

    def run(self, ucrlab, tracer=None) -> None:
        """Run every job through ucrlab.cli.main; the round's wall excludes checks."""
        t_round = time.perf_counter()
        for job in self.jobs:
            argv = list(job.argv)
            if job.replay_of is not None:
                argv = ["replay", str(self.out(job.replay_of) / "manifest.json")] + argv
            argv += ["--out-dir", str(self.out(job.name))]
            if tracer is not None:
                tracer.job = job.name
            log = io.StringIO()
            t0 = time.perf_counter()
            try:
                with redirect_stdout(log), redirect_stderr(log):
                    code = ucrlab.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crashing job is a failed job; the round goes on
                code = "exception"
                log.write(traceback.format_exc())
            self.latency[job.name] = time.perf_counter() - t0
            if code != 0:
                self.failures[job.name] = [f"exit {code}: {log.getvalue()[-500:]}"]
        self.wall = time.perf_counter() - t_round
        if tracer is not None:
            tracer.job = None

    def out(self, name: str) -> Path:
        return self.out_dir / name

    def check(self) -> None:
        """Check every job that exited cleanly; read the simulate summaries."""
        outs = {job.name: self.out(job.name) for job in self.jobs}
        for job in self.jobs:
            if job.name not in self.failures:
                fails = checks.check_job(job, outs[job.name], outs)
                if fails:
                    self.failures[job.name] = fails
            summary = outs[job.name] / "simulate.json"
            if summary.is_file():
                self.docs[job.name] = json.loads(summary.read_text(encoding="utf-8"))


def failures(rounds: list[Round]) -> dict[str, list[str]]:
    """Failed jobs of every round, keyed round/job."""
    return {f"{r.out_dir.name}/{name}": why for r in rounds
            for name, why in r.failures.items()}


def fail_frac(rounds: list[Round]) -> float:
    """Failed jobs over jobs attempted: non-zero exit, exception or failed check."""
    return len(failures(rounds)) / sum(len(r.jobs) for r in rounds)


def _tail(samples: list[float]) -> str:
    """Sample count and the highest percentile with ten samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(samples)
            return f"n={n} p{p}={ordered[min(n - 1, int(n * p / 100))]:.6g}"
    return f"n={n} (no percentile has ten samples beyond it)"


def _job_metrics(rnd: Round) -> tuple[dict, dict]:
    """End-to-end job metrics of one round: values and sample notes."""
    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    by_kind: dict[str, list[float]] = {}
    rate: dict[str, list[float]] = {}
    by_name = {j.name: j for j in rnd.jobs}
    for job in rnd.jobs:
        lat = rnd.latency[job.name]
        by_kind.setdefault(job.kind, []).append(lat)
        origin = by_name[job.replay_of or job.name]
        suffix = "_t2" if job.replay_of else ""
        if origin.kind == "spectrum":
            key = "spectrum" + suffix
            work = origin.expect["samples"] * len(origin.expect["ns"])
        elif origin.kind == "mc" and origin.name in rnd.docs:
            key = f"mc_{rnd.docs[origin.name]['engine']}{suffix}"
            work = origin.expect["trials"]
        else:
            continue
        acc = rate.setdefault(key, [0.0, 0.0])
        acc[0] += work
        acc[1] += lat
    for kind, metric in LATENCY_KINDS.items():
        if kind in by_kind:
            values[metric] = statistics.median(by_kind[kind])
            notes[metric] = _tail(by_kind[kind])
    for key, metric in (("mc_materialized", "mc_materialized_trials_per_s"),
                        ("mc_materialized_t2", "mc_materialized_t2_trials_per_s"),
                        ("mc_statistical", "mc_statistical_trials_per_s"),
                        ("spectrum", "spectrum_samples_per_s"),
                        ("spectrum_t2", "spectrum_t2_samples_per_s")):
        if key in rate:
            work, seconds = rate[key]
            values[metric] = work / seconds
            notes[metric] = f"{work:.0f} units in {seconds:.3f} s"
    return values, notes


def units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        raise SystemExit("error: --seconds must be positive and --seed nonnegative")
    if args.probe_setup is not None:
        _probe_setup(args)
        return 0
    ucrlab = _import_program()

    stamp = _stamp(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / "work" / tag
    shutil.rmtree(scratch, ignore_errors=True)
    setup = _setup_seconds(args, scratch)
    share = TRACE_SHARE if args.trace else 1.0
    groups = workloads.group_count(args.workload, args.seconds / share)
    jobs = workloads.build_jobs(args.workload, args.seed, groups, scratch / "inputs")
    print(f"workload {args.workload} seed {args.seed}: {groups} groups, "
          f"{len(jobs)} jobs per round")

    untraced = Round(jobs, scratch / "untraced")
    untraced.run(ucrlab)
    untraced.check()
    rounds = [untraced]
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = Round(jobs, scratch / "traced")
            traced.run(ucrlab, tracer)
        finally:
            tracer.uninstall()
        traced.check()
        rounds.append(traced)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(len(r.jobs) for r in rounds)
    failed = failures(rounds)
    for where, why in failed.items():
        print(f"FAILED {where}: {'; '.join(why)}")

    values, notes = _job_metrics(untraced)
    values.update(setup_s=statistics.median(setup), wall_s=untraced.wall,
                  peak_rss_mib=peak_rss, fail_frac=fail_frac(rounds))
    notes.update(setup_s=_tail(setup), wall_s=f"n=1: one pass over {len(jobs)} jobs",
                 fail_frac=f"{len(failed)} of {attempted} jobs")
    gated = units("end_to_end")
    all_units = dict(gated, **REPORTED)
    for name, unit in all_units.items():
        if name in values:
            print(f"metric {name} {values[name]:.6g} {unit} [{notes.get(name, '')}]")
        else:
            print(f"metric {name} n/a {unit} [this workload does not run that command]")

    if args.trace:
        layer = tracer.metrics()
        layer["trace.overhead_s"] = traced.wall - untraced.wall
        layer_units = units("per_layer")
        for name, value in layer.items():
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"layer {name} {shown} {layer_units[name]}")
        print("layers traced: " + ", ".join(sorted(tracer.layers_seen())))
        tracer.write(OUT / "traces" / f"{tag}.csv.gz")
        reported = {k: {"value": v, "unit": layer_units[k]} for k, v in layer.items()}
    else:
        reported = {k: {"value": values[k], "unit": u} for k, u in gated.items()}

    stamp["loadavg_end"] = _loadavg()
    result = {
        "stamp": stamp,
        "metrics": {k: {"value": values[k], "unit": u, "samples": notes.get(k, "")}
                    for k, u in all_units.items() if k in values},
        "per_layer": reported if args.trace else None,
        "setup_samples_s": setup,
        "wall_s": untraced.wall,
        "jobs": [{"traced": i == 1, "name": j.name, "kind": j.kind, "argv": j.argv,
                  "latency_s": r.latency[j.name], "failures": r.failures.get(j.name, [])}
                 for i, r in enumerate(rounds) for j in r.jobs],
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
