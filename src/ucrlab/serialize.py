"""JSON/CSV persistence: input specs, run descriptors, and run manifests.

All files are UTF-8. JSON is written sorted and indented so identical
payloads serialize byte-identically; CSV follows RFC 4180 (CRLF rows,
quoting only where needed) with floats rendered by repr for lossless
round-trips; it is written from columns, each formatted in one pass.
Parse failures carry file/line/column context.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DimensionError, ValidationError
from .channelcap import MixedChannel, DmcProduct, bec, bsc
from .probspace import ConditionalPmf, JointPmf, Pmf, check_seed
from .ucrcap import AuxiliaryChannel

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "load_json",
    "json_text",
    "write_json",
    "write_csv",
    "source_from_dict",
    "pmf_from_dict",
    "channel_from_dict",
    "aux_from_dict",
    "json_field",
    "RunManifest",
]


def load_json(path) -> dict:
    """Parse a UTF-8 JSON file; errors carry path:line:column."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc

    def refuse(name: str):
        # json.loads reads NaN, Infinity and -Infinity, which JSON lacks
        raise ValidationError(f"{path}: {name} is not a JSON number")
    try:
        data = json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # too many digits, or too deep
        raise ValidationError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top-level JSON value must be an object")
    return data


def json_text(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, trailing \\n."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    """Write json_text(obj) to path as UTF-8."""
    Path(path).write_text(json_text(obj), encoding="utf-8")


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _quote(field: str) -> str:
    """The field as csv.writer writes it: quoted, with its quotes doubled,
    when it holds a comma, a quote or a line break."""
    if _NEEDS_QUOTES.search(field) is None:
        return field
    return '"' + field.replace('"', '""') + '"'


# the formatter of a column whose cells all have one of these exact types;
# none of them writes a field that needs quotes
_PLAIN = {float: repr, int: str, bool: {True: "true", False: "false"}.__getitem__}


def _cell_fields(cells: list) -> list[str]:
    kinds = set(map(type, cells))
    plain = _PLAIN.get(kinds.pop()) if len(kinds) == 1 else None
    if plain is not None:
        return list(map(plain, cells))
    return [_quote(_cell(v)) for v in cells]


def _run_fields(column: np.ndarray) -> list[str]:
    """The fields of a 1-D bool or numeric array, each run of equal
    consecutive cells formatted once. Cells are equal when their bits are,
    so 0.0 next to -0.0, and NaNs, keep their own repr."""
    bits = column.view(f"u{column.itemsize}")
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    heads = _cell_fields(column[np.concatenate(([0], starts))].tolist())
    if len(heads) == len(column):
        return heads
    counts = np.diff(starts, prepend=0, append=len(column)).tolist()
    return list(chain.from_iterable(map(repeat, heads, counts)))


def _fields(column) -> list[str]:
    if (isinstance(column, np.ndarray) and column.ndim == 1 and column.size
            and column.dtype.kind in "biuf" and column.itemsize in (1, 2, 4, 8)):
        return _run_fields(column)
    return _cell_fields(column.tolist() if isinstance(column, np.ndarray) else list(column))


def _lines(fields: list[list[str]]) -> str:
    """The CRLF-ended rows of columns of formatted fields."""
    lines = map(",".join, zip(*fields))
    if len(fields) == 1:
        # csv.writer quotes a lone empty field, so the row is not blank
        lines = (line or '""' for line in lines)
    return "\r\n".join(lines) + "\r\n"


# rows formatted at a time, so that one block's strings are all a write holds
_CSV_BLOCK = 1024


def write_csv(path, header: list[str], columns) -> None:
    """RFC 4180 CSV of a header row and one sequence or array per column.

    A column whose cells share one type is formatted in one pass: floats
    by repr, ints by str and bools as true/false; a numpy array counts by
    its tolist(), and a 1-D bool or numeric one formats each run of equal
    consecutive cells once. Other columns go cell by cell, numpy floats by
    the repr of their float, None and strings by str, and their fields are
    quoted as csv.writer quotes them. Rows end in CRLF.
    """
    columns = list(columns)
    lengths = {len(column) for column in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise DimensionError(
            f"csv needs one column per header name, all of one length; got "
            f"{len(header)} names and column lengths {[len(c) for c in columns]}")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(_lines([[_quote(name)] for name in header]))
        for lo in range(0, max(lengths, default=0), _CSV_BLOCK):
            f.write(_lines([_fields(column[lo:lo + _CSV_BLOCK]) for column in columns]))


def _need(d: dict, key: str, what: str):
    if not isinstance(d, dict):
        raise ValidationError(f"{what}: must be a JSON object, got {d!r}")
    if key not in d:
        raise ValidationError(f"{what}: missing required key {key!r}")
    return d[key]


_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"),
          bool: (bool, "true or false")}


def _is_json(value, kind: type) -> bool:
    """Whether value is of kind; a number must be finite as a float."""
    return (isinstance(value, bool) == (kind is bool) and isinstance(value, _KINDS[kind][0])
            and (kind is not float or abs(value) <= sys.float_info.max))


def json_field(d: dict, key: str, what: str, kind, default=None):
    """d[key] as kind, required unless a default is given. int takes a JSON
    integer, float any JSON number and bool only true or false; a bool is
    neither an integer nor a number, and a string is none of them.
    list[int] and list[float] take a JSON array of such items, and
    list[list[float]] a non-empty array of equal-length arrays of numbers."""
    if default is None or not isinstance(d, dict):
        value = _need(d, key, what)
    else:
        value = d.get(key, default)
    item = getattr(kind, "__args__", (None,))[0]
    if item is None:
        if not _is_json(value, kind):
            raise ValidationError(f"{what}: {key!r} must be {_KINDS[kind][1]}, got {value!r}")
        return kind(value)
    if item not in _KINDS:  # list[list[...]], each row read as item
        if not (isinstance(value, list) and value and all(
                isinstance(row, list) and len(row) == len(value[0]) for row in value)):
            raise ValidationError(f"{what}: {key!r} must be a non-empty list of equal-length "
                                  f"lists, got {value!r}")
        return [json_field({key: row}, key, what, item) for row in value]
    if not isinstance(value, list) or not all(_is_json(v, item) for v in value):
        raise ValidationError(
            f"{what}: {key!r} must be a list, each item {_KINDS[item][1]}, got {value!r}")
    return [item(v) for v in value]


def source_from_dict(d: dict) -> JointPmf:
    """{alphabet_x, alphabet_y, probs flat row-major or one row per x} -> joint law."""
    nx = json_field(d, "alphabet_x", "source spec", int)
    ny = json_field(d, "alphabet_y", "source spec", int)
    probs = _need(d, "probs", "source spec")
    nested = isinstance(probs, list) and any(isinstance(v, list) for v in probs)
    probs = json_field(d, "probs", "source spec", list[list[float]] if nested else list[float])
    if min(nx, ny) < 1 or np.shape(probs) not in ((nx * ny,), (nx, ny)):
        raise ValidationError(
            f"source spec: probs has {np.size(probs)} entries in shape {np.shape(probs)}, "
            f"need {nx * ny} in shape ({nx * ny},) or ({nx}, {ny})")
    return JointPmf(np.reshape(probs, (nx, ny)))


def pmf_from_dict(d: dict) -> Pmf:
    """{probs: [...]} -> pmf."""
    return Pmf(json_field(d, "probs", "pmf spec", list[float]))


def channel_from_dict(d: dict) -> ConditionalPmf | MixedChannel:
    """{kind, payload} -> single-letter kernel or block mixture.

    Kinds: dmc (payload {rows}), bsc (payload {p}), bec (payload {e}),
    mixed (payload {components: [{weight, channel}, ...]}).
    """
    kind = _need(d, "kind", "channel spec")
    payload = _need(d, "payload", "channel spec")
    if not isinstance(payload, dict):
        raise ValidationError("channel spec: payload must be an object")
    if kind == "dmc":
        return ConditionalPmf(json_field(payload, "rows", "dmc payload", list[list[float]]))
    if kind == "bsc":
        return bsc(json_field(payload, "p", "bsc payload", float))
    if kind == "bec":
        return bec(json_field(payload, "e", "bec payload", float))
    if kind == "mixed":
        comps = _need(payload, "components", "mixed payload")
        if not isinstance(comps, list) or not comps:
            raise ValidationError("mixed payload: components must be a non-empty list")
        pairs = []
        for comp in comps:
            w = json_field(comp, "weight", "mixed component", float)
            sub = channel_from_dict(_need(comp, "channel", "mixed component"))
            if isinstance(sub, MixedChannel):
                raise ValidationError("mixed components cannot nest mixtures")
            pairs.append((w, DmcProduct(sub)))
        return MixedChannel(tuple(pairs))
    raise ValidationError(f"channel spec: unknown kind {kind!r}")


def aux_from_dict(d: dict, x_card: int) -> AuxiliaryChannel:
    """{kind: identity|constant|matrix, ...} -> auxiliary channel on X."""
    kind = _need(d, "kind", "aux spec")
    if kind == "identity":
        return AuxiliaryChannel.identity(x_card, json_field(d, "u_card", "aux spec", int, x_card))
    if kind == "constant":
        return AuxiliaryChannel.constant(x_card, json_field(d, "u_card", "aux spec", int, 1))
    if kind == "matrix":
        aux = AuxiliaryChannel.from_matrix(json_field(d, "rows", "aux spec", list[list[float]]))
        if aux.x_card != x_card:
            raise ValidationError(
                f"aux spec: matrix has {aux.x_card} input rows, source has "
                f"{x_card} symbols")
        return aux
    raise ValidationError(f"aux spec: unknown kind {kind!r}")


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one CLI run byte-for-byte.

    config embeds the fully resolved inputs (parsed spec contents, not
    file paths), so replay does not depend on the original files still
    existing. duration_seconds is informational and excluded from the
    reproducibility contract.
    """

    command: str
    config: dict
    seed: int
    outputs: dict[str, str]
    duration_seconds: float
    tool_version: str = __version__
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "command": self.command,
            "seed": self.seed,
            "config": self.config,
            "outputs": self.outputs,
            "duration_seconds": self.duration_seconds,
        }

    def write(self, path) -> None:
        write_json(path, self.to_dict())

    @staticmethod
    def load(path) -> "RunManifest":
        d = load_json(path)
        version = json_field(d, "schema_version", "manifest", int)
        if version != SCHEMA_VERSION:
            raise ValidationError(
                f"manifest schema_version {version} unsupported "
                f"(this build reads {SCHEMA_VERSION})")
        config, outputs = _need(d, "config", "manifest"), d.get("outputs", {})
        for key, value in (("config", config), ("outputs", outputs)):
            if not isinstance(value, dict):
                raise ValidationError(f"manifest: {key!r} must be a JSON object, got {value!r}")
        return RunManifest(
            command=str(_need(d, "command", "manifest")),
            config=config,
            seed=check_seed(_need(d, "seed", "manifest")),
            outputs=outputs,
            duration_seconds=json_field(d, "duration_seconds", "manifest", float, 0.0),
            tool_version=str(d.get("tool_version", __version__)),
        )
