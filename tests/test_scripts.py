"""Smoke runs of the study scripts, and the benchmark recorder on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, rows", [
    ("capacity_curve", ["--flips", "0.1,0.2", "--step", "0.25", "--max-budget", "0.5"], 6),
    ("lemma_floors", ["--n", "4", "--gammas", "1.0,0.5"], 2),
    ("protocol_sweep", ["--ns", "12,16", "--trials", "20"], 2),
    ("spectrum_study", ["--ns", "8,16", "--samples", "64"], 4),
])
def test_script_writes_its_csv(tmp_path, name, argv, rows):
    out = tmp_path / "results" / f"{name}.csv"
    assert load_script(name).main(argv + ["--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == rows + 1


def _result_file(path, commit, workload, seed, values):
    stamp = {"commit": commit, "nproc": 2, "python": "3.11", "numpy": "2.4",
             "scipy": "1.16", "workload": workload, "seed": seed, "seconds": 30.0,
             "trace": 0, "loadavg_start": "0 0 0", "loadavg_end": "0 0 0"}
    metrics = {name: {"value": v, "unit": unit, "samples": ""}
               for name, (v, unit) in values.items()}
    path.write_text(json.dumps({"stamp": stamp, "metrics": metrics, "per_layer": None}))
    return str(path)


def test_bench_record_pairs_runs_in_order(tmp_path):
    rss = ([105.0, 106.0, 104.0], [57.0, 58.0, 110.0])
    files = {"parent": [], "change": []}
    for side, commit, column in (("parent", "aaa", 0), ("change", "bbb", 1)):
        for i in range(3):
            files[side].append(_result_file(
                tmp_path / f"{side}{i}.json", commit, "protocol", 1,
                {"peak_rss_mib": (rss[column][i], "MiB"), "wall_s": (2.0, "s"),
                 "mc_statistical_trials_per_s": (100.0 + i + column, "1/s")}))
    argv = ["--pr", "99", "--out-dir", str(tmp_path),
            "--parent", *files["parent"], "--change", *files["change"]]
    assert load_script("bench_record").main(argv) == 0
    record = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert (record["parent_commits"], record["change_commits"]) == (["aaa"], ["bbb"])
    assert record["machine"] == {"nproc": 2, "python": "3.11", "numpy": "2.4",
                                 "scipy": "1.16"}
    (run,) = record["runs"]
    assert (run["workload"], run["seed"]) == ("protocol", 1)
    peak = run["metrics"]["peak_rss_mib"]
    assert (peak["unit"], peak["better"], peak["pairs"], peak["pairs_won"]) == (
        "MiB", "lower", 3, 2)
    assert peak["parent"] == {"median": 105.0, "q1": 104.5, "q3": 105.5}
    assert peak["change"]["median"] == 58.0
    assert run["metrics"]["wall_s"]["pairs_won"] == 0       # ties count for neither
    unlisted = run["metrics"]["mc_statistical_trials_per_s"]
    assert unlisted["better"] is None and unlisted["pairs_won"] is None
    # without --anchor the record carries no anchor figures
    assert "anchor_commit" not in record
    assert not {"anchor", "parent_to_anchor", "change_to_anchor"} & set(peak)


def test_bench_record_refuses_mismatched_pairs(tmp_path):
    parent = _result_file(tmp_path / "p.json", "aaa", "protocol", 1, {"wall_s": (1.0, "s")})
    change = _result_file(tmp_path / "c.json", "bbb", "protocol", 2, {"wall_s": (1.0, "s")})
    argv = ["--pr", "99", "--out-dir", str(tmp_path), "--parent", parent, "--change", change]
    assert load_script("bench_record").main(argv) == 2
    assert not (tmp_path / "BENCH_99.json").exists()


def test_bench_record_writes_medians_over_the_anchor(tmp_path):
    walls = {"parent": [2.0, 2.2, 2.4], "change": [1.0, 1.1, 1.2], "anchor": [4.0, 4.4, 5.0]}
    files = {side: [_result_file(tmp_path / f"{side}{i}.json", side[0] * 3, "ucr-certify", 1,
                                 {"wall_s": (wall, "s"), "fail_frac": (0.0, "fraction")})
                    for i, wall in enumerate(values)]
             for side, values in walls.items()}
    argv = ["--pr", "99", "--out-dir", str(tmp_path), "--parent", *files["parent"],
            "--change", *files["change"], "--anchor", *files["anchor"]]
    assert load_script("bench_record").main(argv) == 0
    record = json.loads((tmp_path / "BENCH_99.json").read_text())
    assert record["anchor_commit"] == "aaa"
    (run,) = record["runs"]
    wall = run["metrics"]["wall_s"]
    assert wall["anchor"] == {"median": 4.4, "q1": 4.2, "q3": 4.7, "runs": 3}
    assert wall["parent_to_anchor"] == pytest.approx(2.2 / 4.4)
    assert wall["change_to_anchor"] == pytest.approx(1.1 / 4.4)
    # a metric whose anchor median is 0 has no ratio
    zero = run["metrics"]["fail_frac"]
    assert zero["anchor"]["median"] == 0.0
    assert zero["parent_to_anchor"] is None and zero["change_to_anchor"] is None


@pytest.mark.parametrize("pair_keys, anchor_keys", [
    ([("protocol", 1)], [("protocol", 2)]),                       # other seed
    ([("protocol", 1)], [("spectrum-lemmas", 1)]),                # other workload
    ([("protocol", 1), ("protocol", 2)], [("protocol", 1)]),      # one key missing
    ([("protocol", 1)], [("protocol", 1), ("protocol", 2)]),      # one key extra
], ids=["seed", "workload", "missing", "extra"])
def test_bench_record_refuses_an_anchor_off_the_pairs(tmp_path, pair_keys, anchor_keys):
    def files(side, keys):
        return [_result_file(tmp_path / f"{side}{i}.json", side[0] * 3, workload, seed,
                             {"wall_s": (1.0, "s")})
                for i, (workload, seed) in enumerate(keys)]

    argv = ["--pr", "99", "--out-dir", str(tmp_path),
            "--parent", *files("parent", pair_keys), "--change", *files("change", pair_keys),
            "--anchor", *files("anchor", anchor_keys)]
    assert load_script("bench_record").main(argv) == 2
    assert not (tmp_path / "BENCH_99.json").exists()


def test_bench_record_refuses_anchor_runs_of_two_commits(tmp_path):
    def run(name, commit):
        return _result_file(tmp_path / name, commit, "protocol", 1, {"wall_s": (1.0, "s")})

    argv = ["--pr", "99", "--out-dir", str(tmp_path), "--parent", run("p.json", "ppp"),
            "--change", run("c.json", "ccc"),
            "--anchor", run("a0.json", "aaa"), run("a1.json", "abc")]
    assert load_script("bench_record").main(argv) == 2
    assert not (tmp_path / "BENCH_99.json").exists()
