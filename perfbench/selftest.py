"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. A short run (--seconds 1) of every workload, untraced and traced, must
   exit 0 with a correct result line holding exactly the metrics
   BENCHMARK.json names, with their units, and must print every end-to-end
   metric the workload's commands feed. The traced runs together must
   cover all seven layers.
2. Deliberately corrupted outputs must be caught and counted in fail_frac:
   an oracle value shifted by 1e-2 and one flipped byte in a --threads 2
   replay.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# end-to-end metrics each workload must report with a value
EXPECTED = {
    "ucr-certify": {"ucr_solve_p50_s", "ucr_oracle_p50_s"},
    "protocol": {"simulate_exact_p50_s", "mc_materialized_trials_per_s",
                 "mc_materialized_t2_trials_per_s", "mc_statistical_trials_per_s"},
    "spectrum-lemmas": {"capacity_p50_s", "lemmas_p50_s", "spectrum_samples_per_s",
                        "spectrum_t2_samples_per_s"},
}
COMMON = {"setup_s", "wall_s", "peak_rss_mib", "fail_frac"}


def _short_run(workload: str, trace: int, spec: dict) -> set[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, last
    want = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in last["metrics"].items()}, last["metrics"].keys()
    printed = {}
    for line in lines:
        parts = line.split()
        if parts[0] == "metric":
            printed[parts[1]] = (parts[2], parts[3])
    for name in COMMON | EXPECTED[workload]:
        value, unit = printed[name]
        assert value != "n/a", f"{workload}: {name} not measured"
        assert unit == {**run.units("end_to_end"), **run.REPORTED}[name], (name, unit)
    layers = set()
    for line in lines:
        if line.startswith("layers traced: "):
            layers = set(line[len("layers traced: "):].split(", "))
    print(f"ok  {workload} trace {trace}: {len(last['metrics'])} metrics, "
          f"{last['attempted']} jobs")
    return layers


def _corruption() -> None:
    ucrlab = run._import_program()
    out = run.OUT / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    ucr = workloads.build_jobs("ucr-certify", 3, 1, out / "inputs")
    spec = workloads.build_jobs("spectrum-lemmas", 3, 1, out / "inputs")
    # the ternary source keeps the oracle cheap; bsc spectrum plus its replay
    jobs = [j for j in ucr if "-s2-" in j.name] + [j for j in spec if "-bsc-spectrum" in j.name]
    rnd = run.Round(jobs, out / "round")
    rnd.run(ucrlab)
    rnd.check()
    assert not rnd.failures, rnd.failures

    oracle = rnd.out("g0-s2-oracle") / "ucr.json"
    doc = json.loads(oracle.read_text())
    doc["value_bits"] += 1e-2
    oracle.write_text(json.dumps(doc))
    replay = rnd.out("g0-bsc-spectrum-t2") / "spectrum.csv"
    data = bytearray(replay.read_bytes())
    data[len(data) // 2] ^= 0x01
    replay.write_bytes(bytes(data))

    rnd.failures.clear()
    rnd.check()
    assert set(rnd.failures) == {"g0-s2-oracle", "g0-bsc-spectrum-t2"}, rnd.failures
    frac = run.fail_frac([rnd])
    assert frac == 2 / len(jobs), frac
    for name, why in rnd.failures.items():
        print(f"ok  corrupted {name} caught: {why[0]}")
    print(f"ok  fail_frac = {frac:.3f} (2 of {len(jobs)} jobs)")
    shutil.rmtree(out)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers: set[str] = set()
    for workload in EXPECTED:
        _short_run(workload, 0, spec)
        layers |= _short_run(workload, 1, spec)
    from tracer import LAYERS
    assert layers == set(LAYERS), f"traced layers {sorted(layers)}"
    print(f"ok  traced layers: {', '.join(sorted(layers))}")
    _corruption()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
