"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/spread.py --seeds 1 --trace 1 --out traced.json

Runs perfbench/run.py once per (workload, seed), one run at a time, on
every workload of BENCHMARK.json for its run_seconds, and prints for every metric the median, the first and third quartiles
(statistics.quantiles with n=4) and the spread (q3 - q1) / median. The
metrics of each run's last line come first (gated ones, or per-layer ones
with --trace 1), then the reported end-to-end ones from its result file.
--out writes the table together with every run's stamp.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a range lo-hi or a list a,b,c")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    table: dict[str, dict] = {}
    stamps = []
    for workload in workloads:
        first: dict[str, list[float]] = {}
        reported: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600, check=True)
            last = json.loads(done.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                print(done.stdout, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: {last['failed']} failed jobs")
            for name, m in last["metrics"].items():
                first.setdefault(name, []).append(m["value"])
            result = json.loads((ROOT / ".bench_out" / "results" /
                                 f"{workload}-seed{seed}-trace{args.trace}.json").read_text())
            stamps.append(result["stamp"])
            for name, m in result["metrics"].items():
                if name not in last["metrics"]:
                    reported.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {result['stamp']['loadavg_start']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if k in bounds), flush=True)
        rows = {}
        for name, values in list(first.items()) + list(reported.items()):
            row = _summary(values) if len(values) >= 2 else {"median": values[0], "n": 1}
            if name in bounds:
                row["bound"] = bounds[name]
            rows[name] = row
        table[workload] = rows

    print(f"\n{'workload':16} {'metric':34} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for workload, rows in table.items():
        for name, row in rows.items():
            if row["n"] == 1:
                print(f"{workload:16} {name:34} {row['median']:11.5g}")
                continue
            bound = f"{row['bound']:.3f}" if "bound" in row else "-"
            print(f"{workload:16} {name:34} {row['median']:11.5g} {row['q1']:11.5g} "
                  f"{row['q3']:11.5g} {row['spread']:7.4f} {bound:>6}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": seconds, "seeds": _seeds(args.seeds), "trace": args.trace,
             "metrics": table, "runs": stamps}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
