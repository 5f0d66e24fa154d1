"""Command-line surface: documents on disk, exit codes, replay fidelity."""

import json
from pathlib import Path

import pytest

from ucrlab.cli import EXIT_GUARD, EXIT_OK, EXIT_VALIDATION, main
from ucrlab.serialize import load_json

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def outputs_of(out_dir: Path) -> dict[str, bytes]:
    manifest = read_json(out_dir / "manifest.json")
    return {name: (out_dir / rel).read_bytes()
            for name, rel in manifest["outputs"].items()}


class TestCapacityCommand:
    def test_writes_the_result_document(self, tmp_path):
        out = tmp_path / "run"
        code = main(["capacity", str(CONFIGS / "bsc011.json"),
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        doc = read_json(out / "capacity.json")
        assert doc["value_bits"] == pytest.approx(0.500084041835472, abs=1e-6)
        assert doc["upper_bits"] - doc["lower_bits"] <= 1e-9
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "capacity"
        assert manifest["config"]["channel"]["kind"] == "bsc"

    def test_mixed_channel_is_rejected(self, tmp_path):
        code = main(["capacity", str(CONFIGS / "mixed_half.json"),
                     "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION


class TestUcrCommand:
    def test_explicit_budget_with_curve(self, tmp_path):
        out = tmp_path / "run"
        code = main(["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.6",
                     "--grid", "0.5,0.6,0.7", "--out-dir", str(out)])
        assert code == EXIT_OK
        doc = read_json(out / "ucr.json")
        assert doc["value_bits"] == pytest.approx(1.0, abs=1e-9)
        curve = (out / "ucr_curve.csv").read_bytes()
        assert curve.startswith(b"c_bits,value_bits,constraint_slack,method\r\n")
        assert len(curve.strip().splitlines()) == 4

    def test_budget_from_a_channel_spec(self, tmp_path):
        out = tmp_path / "run"
        code = main(["ucr", str(CONFIGS / "dsbs010.json"), "--channel",
                     str(CONFIGS / "bsc011.json"), "--out-dir", str(out)])
        assert code == EXIT_OK
        doc = read_json(out / "ucr.json")
        assert doc["c_bits"] == pytest.approx(0.500084041835472, abs=1e-6)
        assert doc["value_bits"] == pytest.approx(1.0, abs=1e-9)

    def test_oracle_guard_maps_to_the_guard_exit_code(self, tmp_path):
        code = main(["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2",
                     "--oracle", "--grid-step", "0.002", "--u-card", "3",
                     "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_GUARD

    def test_oracle_grid_step_off_a_reciprocal_is_rejected(self, tmp_path):
        code = main(["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2",
                     "--oracle", "--grid-step", "0.03",
                     "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION


class TestSimulateCommand:
    def test_exact_mode_reproduces_the_reference_triple(self, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", str(CONFIGS / "protocol_small.json"),
                     "--exact", "--out-dir", str(out)])
        assert code == EXIT_OK
        doc = read_json(out / "simulate.json")
        assert doc["mode"] == "exact"
        assert doc["p_disagree"] == pytest.approx(70 / 256, abs=1e-12)
        assert doc["entropy_k_bits"] == pytest.approx(2.5223299263043213,
                                                      abs=1e-9)
        assert doc["conditions"]["theta_pairing_ok"] is True

    def test_monte_carlo_mode_writes_the_trial_table(self, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", str(CONFIGS / "protocol_small.json"),
                     "--trials", "200", "--out-dir", str(out)])
        assert code == EXIT_OK
        doc = read_json(out / "simulate.json")
        assert doc["mode"] == "monte_carlo"
        assert doc["trials"] == 200
        table = (out / "trials.csv").read_bytes()
        assert table.startswith(b"trial,i_sent,i_received,k_is_fallback,agreed\r\n")
        assert len(table.strip().splitlines()) == 201

    def test_missing_descriptor_file(self, tmp_path):
        code = main(["simulate", str(tmp_path / "nope.json"), "--exact",
                     "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION

    def test_broken_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n "n": 8\n "mu": 0.3\n}\n')
        code = main(["simulate", str(bad), "--exact",
                     "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION
        assert "bad.json:3:2" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "run"
        code = main(["spectrum", str(CONFIGS / "mixed_half.json"),
                     "--n", "8,16", "--samples", "48", "--out-dir", str(out)])
        assert code == EXIT_OK
        doc = read_json(out / "spectrum.json")
        assert [e["n"] for e in doc["per_n"]] == [8, 16]
        assert "inf_info_rate" in doc
        table = (out / "spectrum.csv").read_text(encoding="utf-8")
        assert len(table.strip().splitlines()) == 1 + 2 * 48

    def test_non_increasing_block_lengths_fail(self, tmp_path):
        code = main(["spectrum", str(CONFIGS / "bsc011.json"),
                     "--n", "16,8", "--samples", "8",
                     "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION


class TestLemmasCommand:
    def test_small_sweep_all_pass(self, tmp_path):
        out = tmp_path / "run"
        code = main(["lemmas", "--instances", "64", "--telescoping", "6",
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        doc = read_json(out / "lemmas.json")
        assert doc["interval"]["valid_draws"] == 64
        assert doc["interval"]["passes"] == 64
        assert doc["interval"]["all_pass"] is True
        assert doc["telescoping"]["instances"] == 6
        assert doc["telescoping"]["max_gap"] <= 1e-10
        assert any(not e["applicable"] for e in doc["variance"])
        assert doc["set_bounds"]["l_holds"] and doc["set_bounds"]["d_holds"]


class TestThreadsFlag:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "mixed_half.json", "--n", "8", "--samples", "8"],
        ["simulate", "protocol_small.json", "--exact"],
    ])
    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_non_positive_thread_counts_exit_2(self, tmp_path, capsys, argv, threads):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_info:
            main([argv[0], str(CONFIGS / argv[1])] + argv[2:]
                 + ["--threads", threads, "--out-dir", str(out)])
        assert exit_info.value.code == EXIT_VALIDATION
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()


class TestReplay:
    @pytest.mark.parametrize("argv", [
        ["capacity", "bsc011.json"],
        ["spectrum", "mixed_half.json", "--n", "8,16", "--samples", "32"],
        ["simulate", "protocol_small.json", "--trials", "64"],
    ])
    def test_byte_identical_outputs(self, tmp_path, argv):
        cmd = [argv[0], str(CONFIGS / argv[1])] + argv[2:]
        first = tmp_path / "first"
        assert main(cmd + ["--out-dir", str(first)]) == EXIT_OK
        baseline = outputs_of(first)
        for run, threads in (("again", "1"), ("threaded", "4")):
            out = tmp_path / run
            code = main(["replay", str(first / "manifest.json"),
                         "--out-dir", str(out), "--threads", threads])
            assert code == EXIT_OK
            assert outputs_of(out) == baseline

    def test_replay_survives_config_file_deletion(self, tmp_path):
        spec = tmp_path / "chan.json"
        spec.write_text((CONFIGS / "bsc011.json").read_text())
        first = tmp_path / "first"
        assert main(["capacity", str(spec), "--out-dir", str(first)]) == EXIT_OK
        spec.unlink()
        out = tmp_path / "second"
        assert main(["replay", str(first / "manifest.json"),
                     "--out-dir", str(out)]) == EXIT_OK
        assert outputs_of(out) == outputs_of(first)
