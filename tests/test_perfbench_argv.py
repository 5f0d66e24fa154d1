"""Every command line the benchmark passes still parses: a flag that
perfbench/workloads.py builds may only be dropped after the benchmark stops
passing it, or each of its jobs would fail."""

import importlib.util
import sys
from pathlib import Path

import pytest

from ucrlab.cli import build_parser

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", sorted(workloads.GROUP_SECONDS))
def test_every_benchmark_command_line_parses(tmp_path, workload, seed):
    jobs = workloads.build_jobs(workload, seed, 2, tmp_path / "inputs")
    assert jobs
    parser = build_parser()
    for job in jobs:
        argv = list(job.argv)
        if job.replay_of is not None:
            # as perfbench/run.py runs a replay: the first run's manifest
            argv = ["replay", str(tmp_path / job.replay_of / "manifest.json")] + argv
        args = parser.parse_args(argv + ["--out-dir", str(tmp_path / job.name)])
        assert args.command == argv[0], job.name
