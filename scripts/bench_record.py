"""Record paired perfbench runs of a parent and a change as BENCH_<pr>.json.

Reads the result files that `perfbench/run.py` writes (one per run, under
.bench_out/results/) for both sides, pairs the i-th parent file with the
i-th change file, and writes one JSON summary: for each workload and seed
and each metric the files carry, the unit, the number of pairs, each
side's median and quartiles, and the pairs the change won, judged by the
metric's `better` field in BENCHMARK.json. Metrics that BENCHMARK.json
does not list are summarised without a win count. The summary also keeps
both sides' commits and the machine stamp of the runs.

Absolute medians drift between sessions on the same machine, so a record
can carry anchor runs: result files of one fixed commit, taken in the same
session as the pairs. Each workload and seed of the pairs must have anchor
runs, and the anchor no others. For each metric the record then holds the
anchor's median and quartiles and each side's median as a ratio to the
anchor's median, which compare across BENCH files.

Usage:
    python scripts/bench_record.py --pr N \
        --parent p1.json p2.json ... --change c1.json c2.json ... \
        [--anchor a1.json a2.json ...] [--benchmark BENCHMARK.json] [--out-dir .]
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# stamp fields that describe one run rather than the machine
RUN_FIELDS = ("commit", "workload", "seed", "seconds", "trace", "loadavg_start",
              "loadavg_end")


def _load(path: str) -> dict:
    result = json.loads(Path(path).read_text(encoding="utf-8"))
    values = dict(result["metrics"])
    values.update(result.get("per_layer") or {})
    return {"stamp": result["stamp"], "metrics": values}


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(parents: list[dict], changes: list[dict], better: dict,
              anchors: list[dict] | None = None) -> dict:
    """The record of paired runs; better maps a metric to "lower" or "higher".

    With anchors (runs of one commit), every workload and seed of the pairs
    must have anchor runs and no other may; each metric gains the anchor's
    spread and each side's median over the anchor's median.
    """
    if len(parents) != len(changes) or not parents:
        raise ValueError(f"need as many parent as change files, and at least one; "
                         f"got {len(parents)} and {len(changes)}")
    groups: dict[tuple, list] = {}
    for p, c in zip(parents, changes):
        key = (p["stamp"]["workload"], p["stamp"]["seed"])
        if key != (c["stamp"]["workload"], c["stamp"]["seed"]):
            raise ValueError(f"parent run {key} is paired with change run "
                             f"{(c['stamp']['workload'], c['stamp']['seed'])}")
        groups.setdefault(key, []).append((p, c))
    anchored: dict[tuple, list] = {}
    for a in anchors or []:
        anchored.setdefault((a["stamp"]["workload"], a["stamp"]["seed"]), []).append(a)
    if anchors:
        commits = sorted({a["stamp"]["commit"] for a in anchors})
        if len(commits) != 1:
            raise ValueError(f"anchor runs must come from one commit, got {commits}")
        if set(anchored) != set(groups):
            raise ValueError(f"anchor runs cover {sorted(anchored)}, "
                             f"the pairs {sorted(groups)}")
    runs = []
    for (workload, seed), pairs in groups.items():
        metrics = {}
        for name in pairs[0][0]["metrics"]:
            if not all(name in p["metrics"] and name in c["metrics"] for p, c in pairs):
                continue
            before = [p["metrics"][name]["value"] for p, _ in pairs]
            after = [c["metrics"][name]["value"] for _, c in pairs]
            side = better.get(name)
            won = sum(b < a if side == "lower" else b > a for a, b in zip(before, after))
            metrics[name] = {
                "unit": pairs[0][0]["metrics"][name]["unit"],
                "better": side,
                "pairs": len(pairs),
                "parent": _spread(before),
                "change": _spread(after),
                "pairs_won": won if side else None,
            }
            base = [a["metrics"][name]["value"] for a in anchored.get((workload, seed), [])
                    if name in a["metrics"]]
            if base:
                anchor = _spread(base)
                metrics[name]["anchor"] = dict(anchor, runs=len(base))
                for which in ("parent", "change"):
                    median = metrics[name][which]["median"]
                    metrics[name][f"{which}_to_anchor"] = (
                        median / anchor["median"] if anchor["median"] else None)
        runs.append({"workload": workload, "seed": seed, "metrics": metrics})
    first = parents[0]["stamp"]
    record = {
        "parent_commits": sorted({p["stamp"]["commit"] for p in parents}),
        "change_commits": sorted({c["stamp"]["commit"] for c in changes}),
        "machine": {k: v for k, v in first.items() if k not in RUN_FIELDS},
        "seconds": sorted({r["stamp"]["seconds"] for r in parents + changes}),
        "runs": runs,
    }
    if anchors:
        record["anchor_commit"] = anchors[0]["stamp"]["commit"]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", nargs="+", required=True, metavar="FILE")
    parser.add_argument("--change", nargs="+", required=True, metavar="FILE")
    parser.add_argument("--anchor", nargs="+", default=[], metavar="FILE",
                        help="runs of one fixed commit from the same session")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--out-dir", default=str(ROOT))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for section in ("end_to_end", "per_layer")
              for m in spec[section]}
    try:
        record = summarise([_load(f) for f in args.parent], [_load(f) for f in args.change],
                           better, [_load(f) for f in args.anchor])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out_dir) / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
