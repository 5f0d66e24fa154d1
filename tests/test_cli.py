"""Command-line surface: documents on disk, exit codes, replay fidelity."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucrlab import __version__, channelcap, cli, protocol, ucrcap
from ucrlab.cli import EXIT_GUARD, EXIT_OK, EXIT_VALIDATION, main
from ucrlab.serialize import load_json, source_from_dict

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

    def test_step_limit_exits_3_without_a_result(self, tmp_path, capsys, monkeypatch):
        # the Z-channel's optimum is not uniform: its third point reaches it
        spec = tmp_path / "z.json"
        spec.write_text(json.dumps({"kind": "dmc",
                                    "payload": {"rows": [[1.0, 0.0], [0.5, 0.5]]}}),
                        encoding="utf-8")
        monkeypatch.setattr(channelcap, "CAPACITY_STEP_LIMIT", 2)
        out = tmp_path / "capped"
        assert main(["capacity", str(spec), "--out-dir", str(out)]) == EXIT_GUARD
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("infeasible: ")] == err and err
        assert not (out / "capacity.json").exists()
        monkeypatch.undo()
        out = tmp_path / "run"
        assert main(["capacity", str(spec), "--out-dir", str(out)]) == EXIT_OK
        assert read_json(out / "capacity.json")["iterations"] == 3

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

    def test_a_point_mass_source_writes_positive_zero(self, tmp_path):
        # H(X) of a point mass is +0.0; a -0.0 was written as "-0.0"
        src = tmp_path / "point.json"
        src.write_text(json.dumps({"alphabet_x": 2, "alphabet_y": 2, "probs": [1, 0, 0, 0]}),
                       encoding="utf-8")
        out = tmp_path / "run"
        code = main(["ucr", str(src), "--C", "0.5", "--grid", "0.1,0.3", "--out-dir", str(out)])
        assert code == EXIT_OK
        doc = (out / "ucr.json").read_text(encoding="utf-8")
        assert '"value_bits": 0.0' in doc and "-0.0" not in doc
        curve = (out / "ucr_curve.csv").read_text(encoding="utf-8")
        assert [row.split(",")[1] for row in curve.splitlines()[1:]] == ["0.0", "0.0"]

    def test_budget_and_curve_share_one_search(self, tmp_path, monkeypatch):
        calls = []
        collect = ucrcap._collect_points

        def counted(*args, **kwargs):
            calls.append(1)
            return collect(*args, **kwargs)

        monkeypatch.setattr(ucrcap, "_collect_points", counted)
        out = tmp_path / "run"
        code = main(["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2", "--u-card", "3",
                     "--grid", "0.1,0.3", "--seed", "5", "--out-dir", str(out)])
        assert code == EXIT_OK
        assert len(calls) == 1
        source = source_from_dict(load_json(CONFIGS / "dsbs010.json"))
        sol = ucrcap.ucr_capacity_solve(source, 0.2, 3)
        doc = read_json(out / "ucr.json")
        assert (doc["value_bits"], doc["constraint_slack"]) == (
            sol.value_bits, sol.constraint_slack)
        rows = (out / "ucr_curve.csv").read_text(encoding="utf-8").splitlines()[1:]
        got = [tuple(float(v) for v in row.split(",")[:3]) for row in rows]
        assert got == [(c, s.value_bits, s.constraint_slack)
                       for c, s in ucrcap.ucr_curve(source, [0.1, 0.3], 3)]

    def test_solver_output_does_not_depend_on_the_seed(self, tmp_path):
        # --seed seeds only the oracle's draws; the solver draws no random numbers
        written = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            code = main(["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2", "--u-card", "3",
                         "--grid", "0.1,0.3", "--seed", seed, "--out-dir", str(out)])
            assert code == EXIT_OK
            written.append([(out / name).read_bytes() for name in ("ucr.json", "ucr_curve.csv")])
        assert written[0] == written[1]

    @pytest.mark.parametrize("oracle", [[], ["--oracle", "--grid-step", "0.1"]])
    def test_negative_curve_budget_exits_2_before_any_file(self, tmp_path, oracle):
        out = tmp_path / "run"
        code = main(["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2", "--u-card", "2",
                     "--grid", "-0.1", "--out-dir", str(out)] + oracle)
        assert code == EXIT_VALIDATION
        assert not (out / "ucr.json").exists()

    def test_non_numeric_curve_budget_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_info:
            main(["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2",
                  "--grid", "0.1,abc", "--out-dir", str(out)])
        assert exit_info.value.code == EXIT_VALIDATION
        assert "--grid" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_from_a_channel_spec(self, tmp_path):
        out = tmp_path / "run"
        code = main(["ucr", str(CONFIGS / "dsbs010.json"), "--channel",
                     str(CONFIGS / "bsc011.json"), "--out-dir", str(out)])
        assert code == EXIT_OK
        doc = read_json(out / "ucr.json")
        assert doc["c_bits"] == pytest.approx(0.500084041835472, abs=1e-6)
        assert doc["value_bits"] == pytest.approx(1.0, abs=1e-9)

    def test_oracle_guard_maps_to_the_guard_exit_code(self, tmp_path, monkeypatch):
        def built(*args):
            raise AssertionError("the oracle enumerated matrices past its guard")

        monkeypatch.setattr(ucrcap, "_grid_block", built)
        code = main(["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2",
                     "--oracle", "--grid-step", "0.002", "--u-card", "3",
                     "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_GUARD

    def test_solver_map_guard_maps_to_the_guard_exit_code(self, tmp_path, monkeypatch):
        def built(*args):
            raise AssertionError("the skeleton was built past the map guard")

        monkeypatch.setattr(ucrcap, "_grid_block", built)
        probs = np.random.default_rng(7).dirichlet(np.ones(49))
        src = tmp_path / "x7.json"
        src.write_text(json.dumps({"alphabet_x": 7, "alphabet_y": 7,
                                   "probs": probs.tolist()}), encoding="utf-8")
        code = main(["ucr", str(src), "--C", "0.0", "--out-dir", str(tmp_path / "run")])
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

    def test_csv_format_echoes_the_trial_table_once(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["simulate", str(CONFIGS / "protocol_small.json"), "--trials", "50",
                     "--format", "csv", "--out-dir", str(out)])
        assert code == EXIT_OK
        table = (out / "trials.csv").read_text(encoding="utf-8")
        assert capsys.readouterr().out.count(table) == 1

    @pytest.mark.parametrize("config, mode, hashes", [
        ("protocol_small.json", ["--trials", "500"],
         {"trials.csv": "a3c53dd1f532dade14ba26d8b791a294627133914d3b0463aadc0ee65444c552",
          "simulate.json": "d6428c5795f3f18305d295e47682a63438d42c526bae6beef69f5df22662c9b1"}),
        ("protocol_desk.json", ["--trials", "300"],
         {"trials.csv": "102086f412a49630f54839abddcd6237d17a7ab79eef1e2fca0d704736cd7da4",
          "simulate.json": "9b24f92d47e84f651534d02b4d9e2187cd7971dc876ce9c053978dec14496f55"}),
        ("protocol_small.json", ["--exact"],
         {"simulate.json": "5c5cbd85fb8b003049562a747ecbf2ed9dd449a54ae24087220f1df81613ff28"}),
    ], ids=["materialized", "statistical", "exact"])
    def test_monte_carlo_output_bytes_are_pinned(self, tmp_path, config, mode, hashes):
        # the outputs of the trial-substream engines and of the exact
        # analyzer with dict-numbered value classes: batching trials and
        # indexing values in numpy must not move a byte; no file holds a
        # timing field
        out = tmp_path / "run"
        assert main(["simulate", str(CONFIGS / config), *mode,
                     "--out-dir", str(out)]) == EXIT_OK
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in hashes}
        assert got == hashes

    @pytest.mark.parametrize("doc, mode, hashes", [
        ({"source": {"alphabet_x": 2, "alphabet_y": 2, "probs": [0.375, 0.125, 0.125, 0.375]},
          "n": 8, "mu": 0.1, "theta": 0.02, "seed": 5,
          "index_channel": {"kind": "bsc", "payload": {"p": 0.01}}, "mu_prime": 0.05,
          "conditions": {"alpha": 0.3, "beta": 1.1, "epsilon": 0.2}}, ["--exact"],
         {"simulate.json": "b877c5f02a61d9bcab20ae25a75b512440dda92f335eedce42f254f682e916c9"}),
        ({"source": {"alphabet_x": 2, "alphabet_y": 2, "probs": [0.45, 0.05, 0.05, 0.45]},
          "n": 8, "mu": 0.3, "theta": 0.05, "seed": 3,
          "index_channel": {"kind": "bec", "payload": {"e": 0.1}},
          "conditions": {"c": 2.0, "delta": 0.5, "h_target": 0.9, "epsilon": 0.1}},
         ["--trials", "400"],
         {"simulate.json": "f8ce3fdcb8630a863f9f4dca80ab2275b1f7b2298c1daf4f3d8b1129890c9ff6",
          "trials.csv": "e5f8a736b45a99844d2a32fe94703e50f3e24a6e4160c994e180c3fc21ee07ac"}),
    ], ids=["exact-remark", "monte-carlo"])
    def test_condition_and_rate_check_bytes_are_pinned(self, tmp_path, doc, mode, hashes):
        # every target given or defaulted, the entropy remark, and the index
        # channel's rate check, as simulate.json stores them
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"aux": {"kind": "identity"}, "eps_typ": 0.15,
                                    "allow_degenerate_rate": True, **doc}), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["simulate", str(spec), *mode, "--out-dir", str(out)]) == EXIT_OK
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in hashes}
        assert got == hashes

    @pytest.mark.parametrize("config, mode, engine", [
        ("protocol_small.json", ["--exact"], "exact_analyze"),
        ("protocol_small.json", ["--trials", "200"], "run_monte_carlo"),
        ("protocol_desk.json", ["--trials", "100"], "run_monte_carlo"),
    ], ids=["exact", "materialized", "statistical"])
    def test_document_is_the_config_keys_and_the_result_fields(
            self, tmp_path, monkeypatch, config, mode, engine):
        # what was run comes from the config, what was measured from the
        # result, each under its own name and each once
        results = []
        run = getattr(cli, engine)

        def recorded(*args, **kwargs):
            results.append(run(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(cli, engine, recorded)
        out = tmp_path / "run"
        assert main(["simulate", str(CONFIGS / config), *mode,
                     "--out-dir", str(out)]) == EXIT_OK
        doc = read_json(out / "simulate.json")
        (res,) = results
        measured = {f.name for f in dataclasses.fields(res)} - {"joint_ky", "outcomes"}
        config_keys = {"schema_version", "n", "n1", "n2", "log2_k_cardinality",
                       "cardinality_bound_log2", "cardinality_ok", "theta", "seed"}
        assert not config_keys & measured
        assert set(doc) == config_keys | measured | {"mode", "diagnostics", "conditions"}
        assert {name: doc[name] for name in measured} == {
            name: getattr(res, name) for name in measured}
        assert all(isinstance(v, (int, float, str, bool, dict)) for v in doc.values())

    def test_diagnostics_put_the_key_rate_against_its_target(self, tmp_path):
        for args, keys in ((["--exact"], {"rate_bits", "target_rate_bits"}),
                           (["--trials", "200"], {"rate_bits", "target_rate_bits",
                                                  "encoder_fallback_fraction"})):
            out = tmp_path / args[0]
            assert main(["simulate", str(CONFIGS / "protocol_small.json"), *args,
                         "--out-dir", str(out)]) == EXIT_OK
            doc = read_json(out / "simulate.json")
            diag = doc["diagnostics"]
            assert set(diag) == keys
            assert diag["rate_bits"] == doc["entropy_k_bits"] / doc["n"]
            assert diag["target_rate_bits"] == pytest.approx(1.0, abs=1e-12)
        assert diag["encoder_fallback_fraction"] == (
            doc["event_counts"]["encoder_fallback"] / 200)

    def test_exact_scan_guard_exits_3_without_drawing_a_codebook(
            self, tmp_path, monkeypatch, capsys):
        def no_codebook(cfg):
            raise AssertionError("build_codebook called")
        monkeypatch.setattr(protocol, "build_codebook", no_codebook)
        desc = read_json(CONFIGS / "protocol_small.json")
        desc.update(n=10, mu=0.5)
        path = tmp_path / "desc.json"
        path.write_text(json.dumps(desc), encoding="utf-8")
        code = main(["simulate", str(path), "--exact", "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_GUARD
        assert "word/sequence cells" in capsys.readouterr().err

    def test_exact_class_guard_exits_3_without_drawing_a_codebook(
            self, tmp_path, monkeypatch, capsys):
        # a 4-symbol auxiliary at n = 10: 17,277 words pass the scan guard,
        # but up to 17,278 value classes x 2**10 sequences pass the class guard
        def no_codebook(cfg):
            raise AssertionError("build_codebook called")
        monkeypatch.setattr(protocol, "build_codebook", no_codebook)
        desc = read_json(CONFIGS / "protocol_small.json")
        desc.update(n=10, mu=0.45, eps_typ=0.5, aux={
            "kind": "matrix", "rows": [[0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]]})
        path = tmp_path / "desc.json"
        path.write_text(json.dumps(desc), encoding="utf-8")
        out = tmp_path / "run"
        code = main(["simulate", str(path), "--exact", "--out-dir", str(out)])
        assert code == EXIT_GUARD
        assert "17278 value classes x 1024 sequences" in capsys.readouterr().err
        assert not (out / "simulate.json").exists()
        assert 17277 * 2 ** 10 <= protocol.EXACT_SCAN_GUARD

    @pytest.mark.parametrize("seed",["-1", str(2 ** 64), str(2 ** 64 + 1)])
    def test_seed_flag_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", str(CONFIGS / "protocol_small.json"), "--trials", "5",
                  "--seed", seed, "--out-dir", str(out)])
        assert exit_info.value.code == EXIT_VALIDATION
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    @pytest.mark.parametrize("mode", [["--trials", "5"], ["--exact"]])
    def test_descriptor_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed, mode):
        desc = read_json(CONFIGS / "protocol_small.json")
        desc["seed"] = seed
        path = tmp_path / "desc.json"
        path.write_text(json.dumps(desc), encoding="utf-8")
        code = main(["simulate", str(path), *mode, "--out-dir", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION
        assert "seed must lie in [0, 2**64)" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        ({"mu": None}, "'mu'"),
        ({"n": None}, "'n'"),
        ({"theta": None}, "'theta'"),
        ({"eps_typ": None}, "'eps_typ'"),
        ({"n": "ten"}, "'n' must be an integer"),
        ({"trials": "many"}, "'trials' must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"n": 8.7}, "'n' must be an integer"),
        ({"allow_degenerate_rate": "false"}, "'allow_degenerate_rate' must be true or false"),
        ({"seed": True}, "seed must be an integer, got bool"),
    ], ids=["no-mu", "no-n", "no-theta", "no-eps", "n-text", "trials-text", "seed-float",
            "n-float", "flag-text", "seed-bool"])
    def test_bad_descriptor_fields_exit_2(self, tmp_path, capsys, edit, message):
        desc = read_json(CONFIGS / "protocol_small.json")
        for key, value in edit.items():
            if value is None:
                del desc[key]
            else:
                desc[key] = value
        path = tmp_path / "desc.json"
        path.write_text(json.dumps(desc), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["simulate", str(path), "--out-dir", str(out)]) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_largest_seed_runs(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", str(CONFIGS / "protocol_small.json"), "--trials", "5",
                     "--seed", str(2 ** 64 - 1), "--out-dir", str(out)]) == EXIT_OK
        assert read_json(out / "simulate.json")["seed"] == 2 ** 64 - 1

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

    def test_non_integer_block_length_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_info:
            main(["spectrum", str(CONFIGS / "bsc011.json"), "--n", "100,abc",
                  "--out-dir", str(out)])
        assert exit_info.value.code == EXIT_VALIDATION
        assert "--n" in capsys.readouterr().err
        assert not out.exists()


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
        assert set(doc) == {"schema_version", "seed", "interval", "telescoping"}

    @pytest.mark.parametrize("flag", ["--instances", "--telescoping"])
    @pytest.mark.parametrize("count", ["0", "-3", "two"])
    def test_non_positive_counts_exit_2(self, tmp_path, capsys, flag, count):
        # a sweep over no draws would report "all_pass" vacuously
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exit_info:
            main(["lemmas", flag, count, "--out-dir", str(out)])
        assert exit_info.value.code == EXIT_VALIDATION
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestSpecFields:
    @pytest.mark.parametrize("argv, spec, path, value, message", [
        (["ucr", "--C", "0.2"], "dsbs010.json", ["alphabet_x"], 2.7,
         "'alphabet_x' must be an integer"),
        (["simulate", "--exact"], "protocol_small.json", ["aux", "u_card"], 2.9,
         "'u_card' must be an integer"),
        (["capacity"], "bsc011.json", ["payload", "p"], "0.1", "'p' must be a number"),
        (["capacity"], "bsc011.json", ["payload", "p"], True, "'p' must be a number"),
        (["spectrum", "--n", "8", "--samples", "8"], "mixed_half.json",
         ["payload", "components", 0, "weight"], "0.5", "'weight' must be a number"),
        (["spectrum", "--n", "8", "--samples", "8"], "mixed_half.json",
         ["payload", "components", 0], 0.5, "mixed component: must be a JSON object"),
        (["simulate", "--exact"], "protocol_small.json", ["conditions"], {"alpha": "0.1"},
         "'alpha' must be a number"),
        (["capacity"], "bsc011.json", ["payload", "p"], math.nan, "NaN is not a JSON number"),
        (["ucr", "--C", "0.2"], "dsbs010.json", ["probs", 0], -math.inf,
         "-Infinity is not a JSON number"),
        (["capacity"], "bsc011.json", ["payload", "p"], 10 ** 400, "'p' must be a number"),
    ], ids=["alphabet-float", "u-card-float", "crossover-text", "crossover-bool",
            "weight-text", "component-number", "target-text", "crossover-nan",
            "probs-infinity", "crossover-past-float"])
    def test_mistyped_spec_fields_exit_2(self, tmp_path, capsys, argv, spec, path, value,
                                         message):
        # these were truncated by int(), coerced by float() or died with a TypeError before
        doc = read_json(CONFIGS / spec)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        edited = tmp_path / spec
        edited.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "run"
        assert main(argv[:1] + [str(edited)] + argv[1:] + ["--out-dir", str(out)]) == (
            EXIT_VALIDATION)
        assert message in capsys.readouterr().err
        assert not any(out.glob("*.json"))

    @pytest.mark.parametrize("argv, message", [
        (["ucr", "dsbs010.json", "--C", "nan"], "'c_bits' must be a number, got nan"),
        (["ucr", "dsbs010.json", "--C", "inf"], "'c_bits' must be a number, got inf"),
        (["ucr", "dsbs010.json", "--C", "0.2", "--grid", "0.1,nan"],
         "'grid' must be a list, each item a number, got [0.1, nan]"),
        (["capacity", "bsc011.json", "--tol", "nan"], "'tol' must be a number, got nan"),
    ], ids=["budget-nan", "budget-inf", "grid-nan", "tol-nan"])
    def test_non_finite_flags_exit_2(self, tmp_path, capsys, argv, message):
        # JSON has no NaN or infinity, so neither may reach a result document
        out = tmp_path / "run"
        code = main(argv[:1] + [str(CONFIGS / argv[1])] + argv[2:] + ["--out-dir", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not any(out.iterdir())


class TestFormatFlag:
    @pytest.mark.parametrize("argv, documents", [
        (["capacity", "bsc011.json"], {"json": "capacity.json"}),
        (["ucr", "dsbs010.json", "--C", "0.6"], {"json": "ucr.json"}),
        (["ucr", "dsbs010.json", "--C", "0.6", "--grid", "0.5,0.6,0.7"],
         {"json": "ucr.json", "csv": "ucr_curve.csv"}),
        (["simulate", "protocol_small.json", "--trials", "50"],
         {"json": "simulate.json", "csv": "trials.csv"}),
        (["simulate", "protocol_small.json", "--exact"], {"json": "simulate.json"}),
        (["spectrum", "bsc011.json", "--n", "8,16", "--samples", "8"],
         {"json": "spectrum.json", "csv": "spectrum.csv"}),
        (["lemmas", "--instances", "5", "--telescoping", "2"], {"json": "lemmas.json"}),
    ], ids=["capacity", "ucr", "ucr-grid", "monte-carlo", "exact", "spectrum", "lemmas"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_format_echoes_the_document_last(self, tmp_path, capsys, argv, documents, fmt):
        cmd = argv[:1] + [str(CONFIGS / a) if a.endswith(".json") else a for a in argv[1:]]
        assert main(cmd + ["--out-dir", str(tmp_path / "plain")]) == EXIT_OK
        lines = capsys.readouterr().out
        out = tmp_path / "echoed"
        assert main(cmd + ["--format", fmt, "--out-dir", str(out)]) == EXIT_OK
        document = (out / documents[fmt]).read_text(encoding="utf-8") if fmt in documents else ""
        assert capsys.readouterr().out == lines + document


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


class TestParserReuse:
    CALLS = [
        ["capacity", str(CONFIGS / "bsc011.json"), "--format", "json"],
        ["--version"],
        ["simulate", str(CONFIGS / "protocol_small.json"), "--trials", "64"],
        ["simulate", str(CONFIGS / "protocol_small.json"), "--trials", "64", "--bogus"],
        ["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2", "--u-card", "2"],
        ["lemmas", "--instances", "5", "--telescoping", "2"],
        ["capacity", str(CONFIGS / "bsc011.json")],
        ["simulate", str(CONFIGS / "protocol_small.json"), "--exact"],
    ]

    def run_calls(self, root: Path, capsys) -> list:
        """Each call's exit code, stdout, stderr and result files, in order,
        all in this one process."""
        seen = []
        for k, argv in enumerate(self.CALLS):
            out = root / str(k)
            try:
                code = main(argv + ["--out-dir", str(out)])
            except SystemExit as exc:
                code = exc.code
            printed = capsys.readouterr()
            seen.append((code, printed.out, printed.err,
                         outputs_of(out) if out.exists() else None))
        return seen

    def test_calls_in_one_process_match_a_parser_built_per_call(
            self, tmp_path, capsys, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        shared = self.run_calls(tmp_path / "shared", capsys)
        assert [code for code, *_ in shared] == [EXIT_OK, 0, EXIT_OK, EXIT_VALIDATION,
                                                EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
        assert shared[1][1] == f"ucrlab {__version__}\n"
        assert "unrecognized arguments: --bogus" in shared[3][2] and shared[3][3] is None
        # --format json echoes the document once, and not into the next call
        assert '"value_bits"' in shared[0][1] and '"value_bits"' not in shared[6][1]
        assert shared[0][3] == shared[6][3]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert self.run_calls(tmp_path / "fresh", capsys) == shared


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

    @pytest.mark.parametrize("probs, u_card", [
        ([0.45, 0.05, 0.05, 0.45], "3"),
        ([0.02, 0.15, 0.05, 0.12, 0.2, 0.06, 0.25, 0.05, 0.1], "2"),
    ], ids=["dsbs", "ternary"])
    def test_solver_replay_is_byte_identical(self, tmp_path, monkeypatch, probs, u_card):
        climbs = []
        climb = ucrcap._climb

        def counted(*args):
            climbs.append(1)
            return climb(*args)

        monkeypatch.setattr(ucrcap, "_climb", counted)
        side = math.isqrt(len(probs))
        spec = tmp_path / "source.json"
        spec.write_text(json.dumps({"alphabet_x": side, "alphabet_y": side, "probs": probs}),
                        encoding="utf-8")
        first = tmp_path / "first"
        assert main(["ucr", str(spec), "--C", "0.2", "--grid", "0.05,0.1,0.3",
                     "--u-card", u_card, "--out-dir", str(first)]) == EXIT_OK
        assert climbs
        again = tmp_path / "again"
        assert main(["replay", str(first / "manifest.json"),
                     "--out-dir", str(again)]) == EXIT_OK
        for name in ("ucr.json", "ucr_curve.csv"):
            assert (again / name).read_bytes() == (first / name).read_bytes()

    @pytest.mark.parametrize("argv, edit", [
        (["lemmas", "--instances", "5", "--telescoping", "2"],
         {"interval_draws": 0, "telescoping_instances": -2}),
        (["lemmas", "--instances", "5", "--telescoping", "2"], {"interval_draws": 0}),
        (["lemmas", "--instances", "5", "--telescoping", "2"], {"telescoping_instances": -2}),
        (["simulate", str(CONFIGS / "protocol_small.json"), "--trials", "16"], {"trials": 0}),
        (["spectrum", str(CONFIGS / "bsc011.json"), "--n", "8", "--samples", "8"],
         {"samples": 0}),
    ])
    def test_replay_of_a_vacuous_count_exits_2(self, tmp_path, argv, edit):
        # the parser refuses these counts; an edited manifest must not slip past
        first = tmp_path / "first"
        assert main(argv + ["--out-dir", str(first)]) == EXIT_OK
        manifest = read_json(first / "manifest.json")
        manifest["config"].update(edit)
        (first / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / "again"
        code = main(["replay", str(first / "manifest.json"), "--out-dir", str(out)])
        assert code == EXIT_VALIDATION
        assert not any(out.glob("*.json"))

    @pytest.mark.parametrize("argv, edit, message", [
        (["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2", "--u-card", "2"],
         {"oracle": "false"}, "'oracle' must be true or false"),
        (["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2", "--u-card", "2"],
         {"c_bits": "0.2"}, "'c_bits' must be a number"),
        (["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2", "--u-card", "2"],
         {"grid": ["0.1"]}, "'grid' must be a list, each item a number"),
        (["capacity", str(CONFIGS / "bsc011.json")], {"tol": "1e-9"}, "'tol' must be a number"),
        (["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2", "--u-card", "2"],
         {"c_bits": math.nan}, "NaN is not a JSON number"),
        (["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2", "--u-card", "2"],
         {"grid": [0.1, math.inf]}, "Infinity is not a JSON number"),
        (["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2", "--u-card", "2"],
         {"c_bits": -10 ** 400}, "'c_bits' must be a number"),
        (["capacity", str(CONFIGS / "bsc011.json")], {"tol": math.nan},
         "NaN is not a JSON number"),
    ], ids=["oracle-text", "budget-text", "grid-text", "tol-text", "budget-nan",
            "grid-infinity", "budget-past-float", "tol-nan"])
    def test_replay_of_a_mistyped_field_exits_2(self, tmp_path, capsys, argv, edit, message):
        # "false" is truthy and float() reads text: a replay must not coerce them
        first = tmp_path / "first"
        assert main(argv + ["--out-dir", str(first)]) == EXIT_OK
        manifest = read_json(first / "manifest.json")
        manifest["config"].update(edit)
        (first / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / "again"
        code = main(["replay", str(first / "manifest.json"), "--out-dir", str(out)])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not any(out.glob("*.json"))

    @pytest.mark.parametrize("argv", [
        ["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2", "--u-card", "2"],
        ["spectrum", str(CONFIGS / "bsc011.json"), "--n", "8", "--samples", "8"],
        ["lemmas", "--instances", "5", "--telescoping", "2"],
        ["simulate", str(CONFIGS / "protocol_small.json"), "--trials", "16"],
    ], ids=["ucr", "spectrum", "lemmas", "simulate"])
    @pytest.mark.parametrize("where", ["config", "manifest"])
    @pytest.mark.parametrize("seed", [1.5, True])
    def test_replay_of_a_non_integer_seed_exits_2(self, tmp_path, capsys, argv, where,
                                                  seed):
        first = tmp_path / "first"
        assert main(argv + ["--out-dir", str(first)]) == EXIT_OK
        manifest = read_json(first / "manifest.json")
        if where == "manifest":
            manifest["seed"] = seed
        elif argv[0] == "simulate":
            manifest["config"]["descriptor"]["seed"] = seed
        else:
            manifest["config"]["seed"] = seed
        (first / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / "again"
        code = main(["replay", str(first / "manifest.json"), "--out-dir", str(out)])
        assert code == EXIT_VALIDATION
        assert "seed must be an integer" in capsys.readouterr().err
        assert not any(out.glob("*.json"))

    @pytest.mark.parametrize("argv, edit, message", [
        (["capacity", str(CONFIGS / "bsc011.json")],
         lambda m: m["config"].pop("channel"), "missing required key 'channel'"),
        (["capacity", str(CONFIGS / "bsc011.json")],
         lambda m: m.update(config=[m["config"]]), "'config' must be a JSON object"),
        (["capacity", str(CONFIGS / "bsc011.json")],
         lambda m: m.update(outputs=5), "'outputs' must be a JSON object"),
        (["capacity", str(CONFIGS / "bsc011.json")],
         lambda m: m.update(duration_seconds="x"), "'duration_seconds' must be a number"),
        (["ucr", str(CONFIGS / "dsbs010.json"), "--C", "0.2", "--u-card", "2"],
         lambda m: m["config"].pop("source"), "missing required key 'source'"),
        (["spectrum", str(CONFIGS / "bsc011.json"), "--n", "8", "--samples", "8"],
         lambda m: m["config"].pop("channel"), "missing required key 'channel'"),
        (["capacity", str(CONFIGS / "bsc011.json")],
         lambda m: m.update(schema_version=True), "'schema_version' must be an integer"),
        (["simulate", str(CONFIGS / "protocol_small.json"), "--trials", "16"],
         lambda m: m.update(schema_version=1.0), "'schema_version' must be an integer"),
    ], ids=["capacity-no-channel", "config-list", "outputs-number", "duration-text",
            "ucr-no-source", "spectrum-no-channel", "version-true", "version-float"])
    def test_replay_of_a_malformed_manifest_exits_2(self, tmp_path, capsys, argv, edit,
                                                    message):
        first = tmp_path / "first"
        assert main(argv + ["--out-dir", str(first)]) == EXIT_OK
        manifest = read_json(first / "manifest.json")
        edit(manifest)
        (first / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / "again"
        capsys.readouterr()
        code = main(["replay", str(first / "manifest.json"), "--out-dir", str(out)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not any(out.glob("*"))

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


# the place in an argv where the edited document's file goes
SPEC = "<spec>"
# a value that deletes its key or list item instead of replacing it
DROP = "<drop>"
SIMULATE_DOC = {
    "source": {"alphabet_x": 2, "alphabet_y": 2, "probs": [0.45, 0.05, 0.05, 0.45]},
    "aux": {"kind": "matrix", "rows": [[0.9, 0.1], [0.1, 0.9]]},
    "n": 8, "mu": 0.3, "theta": 0.0, "eps_typ": 0.15, "trials": 20, "seed": 0,
    "allow_degenerate_rate": True,
    "index_channel": {"kind": "bsc", "payload": {"p": 0.01}}, "mu_prime": 0.0,
    "conditions": {"alpha": 0.1, "beta": 1.5, "delta": 1.0},
}


def run_edited(argv: list, doc: dict, edits: list, work: Path) -> tuple[int, str, list]:
    """Run argv with SPEC naming doc after edits, each a (key path, value)
    pair; returns the exit code, stderr and the files left in the out-dir."""
    doc = copy.deepcopy(doc)
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    spec, out = work / "spec.json", work / "out"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([str(spec) if a == SPEC else a for a in argv] + ["--out-dir", str(out)])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue(), sorted(out.iterdir()) if out.exists() else []


def assert_refused(code: int, err: str, left: list) -> None:
    """Exit 2 or 3 says why on an error: or infeasible: line and writes nothing."""
    head = {EXIT_VALIDATION: "error: ", EXIT_GUARD: "infeasible: "}[code]
    assert any(line.startswith(head) for line in err.splitlines()), err
    assert left == []


# a value that replaces one in a valid document: first the twelve kinds of
# bad value (text, null, a bool, empty and mixed containers, numbers out of
# range or past any guard, a ragged matrix, a fraction), or a dropped key;
# then small JSON values, kept small so that no edit asks for a long run
EDITS = st.sampled_from(["x", None, True, [], {}, [1, "a"], -1, 0, 10 ** 30, 1e300,
                         [[0.5, 0.5], [0.1]], 2.5, DROP]) | st.recursive(
    st.none() | st.booleans() | st.integers(-2, 40) | st.floats(-2.0, 2.0) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=4)


class TestExitCodeContract:
    """No input exits 1: a bad one exits 2 or 3, says why and writes no result."""

    @pytest.mark.parametrize("argv, doc, edits, code", [
        (["ucr", SPEC, "--C", "0.3"], "dsbs010.json", [(["probs"], ["a", "b", "c", "d"])],
         EXIT_VALIDATION),
        (["ucr", SPEC, "--C", "0.3"], "dsbs010.json", [(["probs"], [[0.45, 0.05], [0.5]])],
         EXIT_VALIDATION),
        (["capacity", SPEC], "bsc011.json",
         [(["kind"], "dmc"), (["payload"], {"rows": [[0.9, 0.1], [0.2]]})], EXIT_VALIDATION),
        (["simulate", SPEC], "protocol_small.json", [(["aux"], {"kind": "matrix", "rows": "x"})],
         EXIT_VALIDATION),
        (["ucr", SPEC, "--C", "0.3"], "dsbs010.json", [(["probs"], [True, 0, 0, 0])],
         EXIT_VALIDATION),
        (["simulate", SPEC], "protocol_small.json",
         [(["aux"], {"kind": "matrix", "rows": [[True, 0], [0, True]]})], EXIT_VALIDATION),
        (["spectrum", str(CONFIGS / "bsc011.json"), "--input", SPEC, "--n", "8",
          "--samples", "8"], {"probs": ["0.5", "0.5"]}, [], EXIT_VALIDATION),
        (["simulate", SPEC], "protocol_small.json", [(["n"], 10 ** 30)], EXIT_GUARD),
        (["simulate", SPEC, "--trials", "5"], "protocol_desk.json", [(["n"], 100000)],
         EXIT_GUARD),
        (["simulate", SPEC], "protocol_small.json",
         [(["index_channel"], {"kind": "mixed", "payload": {"components": [
             {"weight": 1.0, "channel": {"kind": "bsc", "payload": {"p": 0.1}}}]}})],
         EXIT_VALIDATION),
        (["simulate", SPEC], "protocol_small.json",
         [(["index_channel"], {"kind": "bsc", "payload": {"p": 0.1}}), (["mu_prime"], -1)],
         EXIT_VALIDATION),
        (["spectrum", SPEC, "--n", str(10 ** 30), "--samples", "2"], "bsc011.json", [],
         EXIT_GUARD),
        (["ucr", SPEC, "--C", "2", "--u-card", str(10 ** 30)], "dsbs010.json", [], EXIT_GUARD),
        (["ucr", SPEC, "--C", "0.3", "--oracle", "--grid-step", "5e-324"], "dsbs010.json", [],
         EXIT_VALIDATION),
        (["simulate", SPEC], "protocol_small.json", [(["aux", "u_card"], 10 ** 30)], EXIT_GUARD),
        (["simulate", SPEC], "protocol_small.json", [(["aux"], {"kind": "constant", "u_card": 0})],
         EXIT_VALIDATION),
        (["replay", SPEC], {"schema_version": 1, "command": "lemmas", "seed": 0, "config": {
            "interval_draws": 10 ** 30, "telescoping_instances": 2, "seed": 0}}, [],
         EXIT_VALIDATION),
        (["replay", SPEC], {"schema_version": 1, "command": "spectrum", "seed": 0, "config": {
            "channel": {"kind": "bsc", "payload": {"p": 0.1}}, "ns": [8], "samples": 10 ** 30,
            "seed": 0}}, [], EXIT_VALIDATION),
    ], ids=["probs-text", "probs-ragged", "dmc-rows-ragged", "aux-rows-text", "probs-bool",
            "aux-matrix-bool", "input-text", "n-1e30", "desk-n-100000",
            "index-channel-mixed", "mu-prime-negative", "block-length-1e30",
            "u-card-1e30-fast-path", "grid-step-denormal", "aux-u-card-1e30",
            "aux-constant-u-card-0", "replay-draws-1e30", "replay-samples-1e30"])
    def test_bad_input_exits_2_or_3_without_a_result(self, tmp_path, argv, doc, edits, code):
        # each used to exit 1, exit 0, run for days or leave trials.csv behind
        doc = read_json(CONFIGS / doc) if isinstance(doc, str) else doc
        got = run_edited(argv, doc, edits, tmp_path)
        assert got[0] == code, got[1]
        assert_refused(*got)

    @pytest.mark.parametrize("edits, named", [
        ([(["conditions"], {"alpha": 0.1, "alhpa": 0.01})], "'alhpa'"),
        ([(["mu_prime"], -1)], "mu_prime"),
    ], ids=["conditions-unknown-key", "mu-prime-negative-without-index-channel"])
    def test_simulate_refuses_a_key_it_would_ignore(self, tmp_path, edits, named):
        # each ran and exited 0: the misspelt target was never read, and
        # mu_prime was read only next to an index_channel
        doc = read_json(CONFIGS / "protocol_small.json")
        assert "index_channel" not in doc
        code, err, left = run_edited(["simulate", SPEC, "--exact"], doc, edits, tmp_path)
        assert code == EXIT_VALIDATION, err
        assert_refused(code, err, left)
        assert any(line.startswith("error: ") and named in line for line in err.splitlines())

    @pytest.fixture(scope="class")
    def documents(self, tmp_path_factory) -> dict:
        """{name: (argv, valid document)}: spec files, and a manifest of each command."""
        docs = {
            "capacity": (["capacity", SPEC],
                         {"kind": "dmc", "payload": {"rows": [[0.9, 0.1], [0.2, 0.8]]}}),
            "ucr": (["ucr", SPEC, "--C", "0.3", "--grid-step", "0.25"],
                    read_json(CONFIGS / "dsbs010.json")),
            "simulate": (["simulate", SPEC], SIMULATE_DOC),
            "simulate-exact": (["simulate", SPEC, "--exact"],
                               dict(SIMULATE_DOC, aux={"kind": "identity", "u_card": 2})),
            "spectrum-channel": (["spectrum", SPEC, "--n", "8,16", "--samples", "16"],
                                 read_json(CONFIGS / "mixed_half.json")),
            "spectrum-input": (["spectrum", str(CONFIGS / "bsc011.json"), "--input", SPEC,
                                "--n", "8,16", "--samples", "16"], {"probs": [0.3, 0.7]}),
        }
        lemmas = (["lemmas", "--instances", "16", "--telescoping", "2"], {})
        for name, (argv, doc) in [*docs.items(), ("lemmas", lemmas)]:
            work = tmp_path_factory.mktemp(name)
            assert run_edited(argv, doc, [], work)[0] == EXIT_OK
            docs[f"replay-{name}"] = (["replay", SPEC], read_json(work / "out" / "manifest.json"))
        return docs

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_edit_exits_0_2_or_3(self, documents, data):
        argv, doc = documents[data.draw(st.sampled_from(sorted(documents)))]
        path = data.draw(st.sampled_from(list(key_paths(doc))))
        with tempfile.TemporaryDirectory() as work:
            code, err, left = run_edited(argv, doc, [(path, data.draw(EDITS))], Path(work))
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_GUARD), err
        if code != EXIT_OK:
            assert_refused(code, err, left)


def key_paths(node, path=()):
    """The key path of every value under node, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, path + (key,))
