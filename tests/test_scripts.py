"""Smoke runs of the study scripts: each main() exits 0 and writes its CSV."""

import importlib.util
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
