"""JSON/CSV document schemas and the run manifest."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import dsbs, source_to_dict, write_csv_rows
from ucrlab.channelcap import MixedChannel
from ucrlab.errors import DimensionError, ValidationError
from ucrlab.probspace import ConditionalPmf
from ucrlab.serialize import (
    RunManifest,
    SCHEMA_VERSION,
    aux_from_dict,
    channel_from_dict,
    json_field,
    load_json,
    pmf_from_dict,
    source_from_dict,
    _CSV_BLOCK,
    write_csv,
    write_json,
)


class TestJsonDocuments:
    def test_load_reports_line_and_column(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{\n  "a": 1\n  "b": 2\n}\n')
        with pytest.raises(ValidationError, match=r"broken\.json:3:3"):
            load_json(bad)

    def test_load_requires_an_object(self, tmp_path):
        f = tmp_path / "arr.json"
        f.write_text("[1, 2]\n")
        with pytest.raises(ValidationError, match="top-level"):
            load_json(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_json(tmp_path / "absent.json")

    @pytest.mark.parametrize("text", ['{"n": ' + "9" * 5000 + "}",
                                      '{"n": ' + "[" * 10 ** 5 + "]" * 10 ** 5 + "}"],
                             ids=["digits", "depth"])
    def test_json_past_what_json_loads_reads(self, tmp_path, text):
        # past CPython's 4,300 digits or its recursion limit, json.loads
        # raises a bare ValueError or RecursionError
        f = tmp_path / "long.json"
        f.write_text(text + "\n")
        with pytest.raises(ValidationError, match="long.json"):
            load_json(f)

    def test_write_json_is_deterministic(self, tmp_path):
        f = tmp_path / "doc.json"
        write_json(f, {"b": 2, "a": [1.5, True]})
        text = f.read_text()
        assert text == '{\n  "a": [\n    1.5,\n    true\n  ],\n  "b": 2\n}\n'
        assert json.loads(text) == {"a": [1.5, True], "b": 2}

    def test_write_json_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "nan.json", {"x": float("nan")})


# fields that need quoting, a lone empty field, and plain text
_TEXT = st.text(alphabet='ab ,"\r\n\'', max_size=5)

_CELLS = {
    "float": st.floats() | st.sampled_from([-0.0, 1e-300, 5e-324, 0.1]),
    "np_float64": st.floats().map(np.float64),
    "np_float32": st.floats(width=32).map(np.float32),
    "int": st.integers(-2**70, 2**70),
    "np_int": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "np_bool": st.booleans().map(np.bool_),
    "none": st.none(),
    "str": _TEXT,
}

# the kinds a column may also come as, a numpy array of this dtype
_ARRAY_DTYPES = {"float": np.float64, "np_float64": np.float64, "np_float32": np.float32,
                 "np_int": np.int64, "bool": np.bool_, "np_bool": np.bool_, "str": np.str_}


# cell values of run-length columns by dtype; floats put 0.0 next to -0.0,
# NaNs of both signs and infinities among the draws
_SIGNED = st.sampled_from([0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf")])
_RUN_VALUES = {
    "float64": _SIGNED | st.floats(),
    "float32": _SIGNED | st.floats(width=32),
    "int64": st.integers(-2**63, 2**63 - 1),
    "uint8": st.integers(0, 255),
    "bool": st.booleans(),
}


class TestCsv:
    def test_rfc4180_line_endings_and_cell_forms(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["idx", "flag", "val"], [[1, 2], [True, False], [0.1, 2.0]])
        raw = f.read_bytes()
        assert raw == (b"idx,flag,val\r\n"
                       b"1,true,0.1\r\n"
                       b"2,false,2.0\r\n")

    def test_quoting_of_embedded_commas(self, tmp_path):
        f = tmp_path / "q.csv"
        write_csv(f, ["name"], [["a,b"]])
        assert f.read_bytes() == b'name\r\n"a,b"\r\n'

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_columns_write_the_bytes_of_the_row_writer(self, tmp_path_factory, data):
        rows = data.draw(st.integers(0, 6), label="rows")
        kinds = data.draw(st.lists(st.sampled_from(sorted(_CELLS) + ["mixed"]),
                                   min_size=1, max_size=4), label="kinds")
        columns = []
        for kind in kinds:
            cells = _CELLS.get(kind, st.one_of(*_CELLS.values()))
            column = data.draw(st.lists(cells, min_size=rows, max_size=rows), label=kind)
            if kind in _ARRAY_DTYPES and data.draw(st.booleans(), label="as array"):
                column = np.array(column, dtype=_ARRAY_DTYPES[kind])
            columns.append(column)
        header = data.draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds)),
                           label="header")
        folder = tmp_path_factory.mktemp("csv")
        write_csv(folder / "columns.csv", header, columns)
        write_csv_rows(folder / "rows.csv", header, zip(*columns))
        assert (folder / "columns.csv").read_bytes() == (folder / "rows.csv").read_bytes()

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_columns_of_runs_write_the_bytes_of_the_row_writer(self, tmp_path_factory, data):
        columns = []
        for _ in range(data.draw(st.integers(1, 3), label="columns")):
            dtype = data.draw(st.sampled_from(sorted(_RUN_VALUES)), label="dtype")
            values = data.draw(st.lists(_RUN_VALUES[dtype], min_size=1, max_size=8),
                               label="values")
            counts = data.draw(st.lists(st.integers(1, 700), min_size=len(values),
                                        max_size=len(values)), label="counts")
            columns.append(np.repeat(np.array(values, dtype=dtype), counts))
        rows = min(map(len, columns))
        columns = [column[:rows] for column in columns]
        header = [f"c{i}" for i in range(len(columns))]
        folder = tmp_path_factory.mktemp("runs")
        write_csv(folder / "columns.csv", header, columns)
        write_csv_rows(folder / "rows.csv", header, zip(*columns))
        assert (folder / "columns.csv").read_bytes() == (folder / "rows.csv").read_bytes()

    def test_blocks_of_rows_write_the_bytes_of_the_row_writer(self, tmp_path):
        rows = 2 * _CSV_BLOCK + 5
        rng = np.random.default_rng(18)
        tables = {
            "mixed": [np.arange(rows), rng.normal(size=rows), rng.random(rows) < 0.5,
                      [None if i % 7 == 0 else f'a,"{i}"' for i in range(rows)]],
            # one column whose last block alone holds a lone empty field
            "lone": [["x"] * (rows - 1) + [""]],
        }
        for name, columns in tables.items():
            header = [f"c{i}" for i in range(len(columns))]
            write_csv(tmp_path / f"{name}-columns.csv", header, columns)
            write_csv_rows(tmp_path / f"{name}-rows.csv", header, zip(*columns))
            assert ((tmp_path / f"{name}-columns.csv").read_bytes()
                    == (tmp_path / f"{name}-rows.csv").read_bytes()), name

    def test_ragged_columns_are_refused(self, tmp_path):
        with pytest.raises(DimensionError):
            write_csv(tmp_path / "r.csv", ["a", "b"], [[1, 2], [3]])
        with pytest.raises(DimensionError):
            write_csv(tmp_path / "r.csv", ["a", "b"], [[1, 2]])


class TestSourceSpecs:
    def test_flat_and_matrix_probs_agree(self):
        flat = source_from_dict({"alphabet_x": 2, "alphabet_y": 2,
                                 "probs": [0.45, 0.05, 0.05, 0.45]})
        mat = source_from_dict({"alphabet_x": 2, "alphabet_y": 2,
                                "probs": [[0.45, 0.05], [0.05, 0.45]]})
        assert np.array_equal(flat.probs, mat.probs)
        assert np.array_equal(flat.probs, dsbs(0.1).probs)

    def test_round_trip(self):
        src = dsbs(0.05)
        again = source_from_dict(source_to_dict(src))
        assert np.array_equal(src.probs, again.probs)

    def test_entry_count_mismatch(self):
        with pytest.raises(ValidationError, match="entries"):
            source_from_dict({"alphabet_x": 2, "alphabet_y": 2,
                              "probs": [0.5, 0.5]})

    def test_missing_key(self):
        with pytest.raises(ValidationError, match="alphabet_y"):
            source_from_dict({"alphabet_x": 2, "probs": [1.0]})

    def test_pmf_spec(self):
        assert pmf_from_dict({"probs": [0.25, 0.75]}).probs.tolist() == [0.25, 0.75]

    @pytest.mark.parametrize("probs", [
        [[0.45, 0.05, 0.05, 0.45]], [[0.45], [0.05], [0.05], [0.45]],
        [[0.45, 0.05, 0.05], [0.45]], [0.45, [0.05, 0.05, 0.45]],
    ], ids=["one-row", "four-rows", "ragged", "mixed"])
    def test_rows_must_match_the_alphabets(self, probs):
        with pytest.raises(ValidationError, match="probs"):
            source_from_dict({"alphabet_x": 2, "alphabet_y": 2, "probs": probs})

    def test_spec_arrays_read_as_float64(self):
        # integers read as float64, nested or flat
        src = source_from_dict({"alphabet_x": 2, "alphabet_y": 2, "probs": [[1, 0], [0, 0]]})
        assert src.probs.dtype == np.float64 and src.probs.tolist() == [[1.0, 0.0], [0.0, 0.0]]
        pmf = pmf_from_dict({"probs": [1, 0]})
        assert pmf.probs.dtype == np.float64 and pmf.probs.tolist() == [1.0, 0.0]


class TestJsonField:
    @pytest.mark.parametrize("value", [
        [], [[0.5, 0.5], [0.1]], [[0.5, 0.5], 0.5], [[True, 0.0]], [["0.5", 0.5]],
        [[0.5, None]], [[10 ** 400, 0.0]], "x", [0.5, 0.5], {"0": [0.5]},
    ], ids=["empty", "ragged", "mixed", "bool", "text", "null", "past-float", "text-matrix",
            "flat", "object"])
    def test_matrix_refuses(self, value):
        with pytest.raises(ValidationError, match="'rows'"):
            json_field({"rows": value}, "rows", "spec", list[list[float]])

    def test_matrix_reads_equal_rows_of_numbers(self):
        rows = json_field({"rows": [[1, 0.5], [0, 2]]}, "rows", "spec", list[list[float]])
        assert rows == [[1.0, 0.5], [0.0, 2.0]]
        assert all(type(v) is float for row in rows for v in row)

    @pytest.mark.parametrize("read", [
        lambda v: pmf_from_dict({"probs": v}),
        lambda v: channel_from_dict({"kind": "dmc", "payload": {"rows": [v, v]}}),
        lambda v: aux_from_dict({"kind": "matrix", "rows": [v, v]}, x_card=2),
        lambda v: source_from_dict({"alphabet_x": 1, "alphabet_y": 2, "probs": v}),
    ], ids=["pmf", "dmc", "aux", "source"])
    @pytest.mark.parametrize("row", [[True, False], ["0.5", "0.5"], [0.5, None]],
                             ids=["bool", "text", "null"])
    def test_every_spec_array_refuses_non_numbers(self, read, row):
        with pytest.raises(ValidationError, match="must be a"):
            read(row)


class TestChannelSpecs:
    def test_bsc_kind(self):
        w = channel_from_dict({"kind": "bsc", "payload": {"p": 0.11}})
        assert isinstance(w, ConditionalPmf)
        assert w.rows[0, 1] == pytest.approx(0.11)

    def test_bec_kind(self):
        w = channel_from_dict({"kind": "bec", "payload": {"e": 0.3}})
        assert w.n_out == 3

    def test_dmc_kind(self):
        w = channel_from_dict({"kind": "dmc",
                               "payload": {"rows": [[0.9, 0.1], [0.2, 0.8]]}})
        assert w.rows[1, 0] == pytest.approx(0.2)

    def test_mixed_kind(self):
        spec = {"kind": "mixed", "payload": {"components": [
            {"weight": 0.5, "channel": {"kind": "bsc", "payload": {"p": 0.0}}},
            {"weight": 0.5, "channel": {"kind": "bsc", "payload": {"p": 0.5}}},
        ]}}
        k = channel_from_dict(spec)
        assert isinstance(k, MixedChannel)
        assert len(k.components) == 2

    def test_nested_mixture_is_rejected(self):
        inner = {"kind": "mixed", "payload": {"components": [
            {"weight": 1.0, "channel": {"kind": "bsc", "payload": {"p": 0.1}}},
        ]}}
        spec = {"kind": "mixed", "payload": {"components": [
            {"weight": 1.0, "channel": inner},
        ]}}
        with pytest.raises(ValidationError, match="nest"):
            channel_from_dict(spec)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown kind"):
            channel_from_dict({"kind": "awgn", "payload": {}})


class TestAuxSpecs:
    def test_identity_defaults_to_square(self):
        aux = aux_from_dict({"kind": "identity"}, x_card=2)
        assert (aux.x_card, aux.u_card) == (2, 2)

    def test_matrix_kind_checks_the_input_alphabet(self):
        with pytest.raises(ValidationError, match="input rows"):
            aux_from_dict({"kind": "matrix", "rows": [[0.5, 0.5]]}, x_card=2)

    def test_matrix_kind_keeps_its_floats(self):
        aux = aux_from_dict({"kind": "matrix", "rows": [[0.9, 0.1], [0, 1]]}, x_card=2)
        assert aux.cond.rows.dtype == np.float64
        assert aux.cond.rows.tolist() == [[0.9, 0.1], [0.0, 1.0]]

    def test_constant_kind(self):
        aux = aux_from_dict({"kind": "constant"}, x_card=3)
        assert aux.u_card == 1


class TestManifest:
    def test_round_trip(self, tmp_path):
        m = RunManifest(command="capacity", config={"tol": 1e-9}, seed=7,
                        outputs={"result": "capacity.json"},
                        duration_seconds=0.25)
        path = tmp_path / "manifest.json"
        m.write(path)
        again = RunManifest.load(path)
        assert again.command == "capacity"
        assert again.config == {"tol": 1e-9}
        assert again.seed == 7
        assert again.outputs == {"result": "capacity.json"}
        assert again.schema_version == SCHEMA_VERSION

    def test_schema_version_gate(self, tmp_path):
        m = RunManifest(command="capacity", config={}, seed=0, outputs={},
                        duration_seconds=0.0)
        doc = m.to_dict()
        doc["schema_version"] = SCHEMA_VERSION + 1
        path = tmp_path / "manifest.json"
        write_json(path, doc)
        with pytest.raises(ValidationError, match="schema_version"):
            RunManifest.load(path)
