"""JSON and CSV interchange for graphs, rates, policies, and reports.

File formats:
  graph   {"nodes": p, "edges": [[i, j], ...]}          1-based indices
  rates   {"rates": [r1, ..., rp]}
  policy  {"kind": "priority", "order": {"1": [2, 3], ...}}
          {"kind": "ml"} | {"kind": "uniform"}
  trace   CSV with columns t, class, matched (0 = none), q_1..q_p
  growth  CSV with columns n, matched_count, unmatched_1..unmatched_p
  matching {"pairs": [[u, v], ...]}  0-based node ids, u < v, sorted by u

Infinite values are encoded as the string "inf" so the emitted JSON stays
strictly standard.

The trace, growth and matching files are formatted in blocks of rows by one
numpy formatter, _format_rows, into the bytes that the csv module's writer
and json.dumps(indent=2) write. A time t is rounded half-even on its exact
binary value at the 9th decimal, which gives the bytes of f"{t:.9f}". A
block that holds a time that is not finite or has |t| >= 2**63 (its integer
part does not fit an int64), or a negative int (the digit table holds no
sign), is formatted by Python cell by cell instead.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from itertools import islice
from pathlib import Path
from typing import Any

import numpy as np

from .errors import InputFormatError, NotConnectedError
from .graphs import Graph
from .policies import PRIORITY, Policy, priority_policy
from .simulate import SimTrace, hitting_time
from .stability import StabilityVerdict, UnstableInstance


def _require(obj: dict, key: str, context: str) -> Any:
    if key not in obj:
        raise InputFormatError(f"{context}: missing key {key!r}")
    return obj[key]


def _is_number(x) -> bool:
    """x is a JSON number: a bool or a string is not one."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _int(x) -> int:
    """x as an int; anything but a number with no fractional part is refused."""
    if not _is_number(x) or isinstance(x, float) and not x.is_integer():
        raise ValueError(f"expected an integer, got {x!r}")
    return int(x)


def _float(x) -> float:
    if not _is_number(x):
        raise ValueError(f"expected a number, got {x!r}")
    return float(x)


def _node_key(key: str) -> int:
    """An order key as a node index, written only as str(index) writes it."""
    if key != str(int(key)):
        raise ValueError(f"expected a node index as an order key, got {key!r}")
    return int(key)


def _list(x, length=None) -> list:
    """x, which must be a JSON array (of the given length, if any)."""
    if not isinstance(x, list) or length is not None and len(x) != length:
        size = "" if length is None else f" of {length}"
        raise ValueError(f"expected an array{size}, got {x!r}")
    return x


# -- graphs -------------------------------------------------------------------


def graph_to_obj(graph: Graph) -> dict:
    return {"nodes": graph.node_count, "edges": [list(e) for e in graph.edges]}


def graph_from_obj(obj: dict) -> Graph:
    try:
        nodes = _int(_require(obj, "nodes", "graph"))
        edges = _list(_require(obj, "edges", "graph"))
        # refused before Graph builds a table with one entry per node
        if nodes > len(edges) + 1:
            raise NotConnectedError(f"graph: {nodes} nodes need at least {nodes - 1} "
                                    f"edges to be connected, got {len(edges)}")
        return Graph(nodes, [tuple(map(_int, _list(e, 2))) for e in edges])
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"graph: {exc}") from exc


# -- rates --------------------------------------------------------------------


def rates_to_obj(rates) -> dict:
    return {"rates": [float(r) for r in rates]}


def rates_from_obj(obj: dict) -> tuple[float, ...]:
    try:
        return tuple(map(_float, _list(_require(obj, "rates", "rates"))))
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"rates: {exc}") from exc


# -- policies -----------------------------------------------------------------


def policy_to_obj(policy: Policy) -> dict:
    if policy.kind == PRIORITY:
        return {
            "kind": PRIORITY,
            "order": {str(k): list(v) for k, v in sorted(policy.order.items())},
        }
    return {"kind": policy.kind}


def policy_from_obj(obj: dict) -> Policy:
    try:
        kind = _require(obj, "kind", "policy")
        if kind == PRIORITY:
            order = _require(obj, "order", "policy")
            return priority_policy(
                {_node_key(k): tuple(map(_int, _list(v))) for k, v in order.items()}
            )
        if "order" in obj:
            raise ValueError(f"a {kind} policy takes no order")
        return Policy(kind)
    except (TypeError, ValueError, AttributeError) as exc:
        raise InputFormatError(f"policy: {exc}") from exc


# -- instances and reports ------------------------------------------------------


def _num(x: float):
    return "inf" if math.isinf(x) else x


def instance_to_obj(instance: UnstableInstance) -> dict:
    return {
        "graph": graph_to_obj(instance.graph),
        "rates": rates_to_obj(instance.rates),
        "policy": policy_to_obj(instance.policy),
        "node": instance.node,
        "drift": instance.drift,
        "family": instance.family,
        "eps": instance.eps,
        "notes": _jsonable(instance.notes),
    }


def fluid_report_to_obj(report) -> dict:
    return _jsonable(asdict(report))


def verdict_to_obj(verdict: StabilityVerdict) -> dict:
    return {
        "verdict": verdict.verdict,
        "inequalities": [
            {
                "name": iq.name,
                "lhs": iq.lhs,
                "rhs": iq.rhs,
                "satisfied": iq.satisfied,
                "margin": iq.margin,
            }
            for iq in verdict.inequalities
        ],
        "evidence": _jsonable(verdict.evidence),
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float):
        return _num(value)
    if hasattr(value, "item"):  # numpy scalars
        return _jsonable(value.item())
    return value


def classification_to_obj(cls) -> dict:
    out = {"kind": cls.kind}
    if cls.coloring is not None:
        out["coloring"] = {str(k): v for k, v in sorted(cls.coloring.items())}
    if cls.order is not None:
        out["order"] = cls.order
        out["partition"] = [sorted(part) for part in cls.partition]
    if cls.witness is not None:
        out["witness_kind"] = cls.witness_kind
        out["witness"] = list(cls.witness)
    return out


def trace_summary_to_obj(trace: SimTrace, node=None, drift=None) -> dict:
    out = {
        "seed": trace.seed,
        "n": trace.scale,
        "horizon": trace.horizon,
        "end_time_scaled": trace.end_time / trace.scale,
        "events": trace.n_events,
        "final_state": list(trace.final_state),
        "arrivals": [int(a) for a in trace.arrivals[1:]],
    }
    if node is not None:
        out["node"] = node
        out["hitting_time"] = _num(hitting_time(trace, node))
    if drift is not None:
        out["drift"] = {
            "slope": drift.slope,
            "stderr": drift.stderr,
            "window": list(drift.window),
            "samples": drift.samples,
        }
    return out


# Rows formatted per block; a block's cells are alive at once, so memory
# stays flat however long the file is.
_TRACE_BLOCK = 4096


# -- block formatting -------------------------------------------------------------
#
# _format_rows lays a block of rows out as a table of 4-byte cells, each a run
# of ASCII padded with NUL bytes, and drops the padding when it reads the
# table out row by row. An int column is cut into 3-digit groups, each a cell
# gathered from _GROUPS: row g holds g zero-padded ("007"), row 1000 + g holds
# g without leading zeros ("7", and "0" for 0), and row 2000 is all padding,
# for a group in front of a value's first digit. A group fills the last three
# bytes of its cell; the first byte is spare and carries the byte of text just
# in front of the column, such as the "," between cells.


def _group_table() -> np.ndarray:
    g = np.arange(1000)
    padded = np.zeros((1000, 4), dtype=np.uint8)
    padded[:, 1:] = np.stack([g // 100, g // 10 % 10, g % 10], axis=1) + ord("0")
    bare = padded.copy()
    bare[g < 100, 1] = 0
    bare[g < 10, 2] = 0
    blank = np.zeros((1, 4), dtype=np.uint8)
    return np.concatenate([padded, bare, blank]).view("<u4").ravel()


_GROUPS = _group_table()
_MINUS = ord("-") << 8  # a sign cell's second byte; its first is the spare byte
_POINT = ord(".")


def _text_cells(text: bytes) -> list[int]:
    return [int.from_bytes(text[i:i + 4], "little") for i in range(0, len(text), 4)]


def _decimal_cells(col: np.ndarray, lead: int) -> list:
    """The cells of a nonnegative int column, most significant group first,
    with lead (a byte, or 0 for none) in the first cell's spare byte."""
    cells, prefix = [], col  # prefix: the value of this group and all above it
    while True:
        if prefix.max() < 1000:  # no group above this one
            rest, idx = None, prefix + 1000
        else:
            rest = prefix // 1000
            idx = prefix - 1000 * rest + 1000 * (rest == 0)
        if cells:  # above the units, a value that has ended leaves a blank
            idx += 1000 * (prefix == 0)
        cells.append(_GROUPS[idx])
        if rest is None:
            break
        prefix = rest
    cells.reverse()
    cells[0] += lead
    return cells


def _nine_decimals(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sign, integer part and 9 decimals that f"{t:.9f}" writes for a
    float64 array of finite times with |t| < 2**63: the exact binary value
    rounded half-even at the 9th decimal, a carry going into the integer part."""
    a = np.abs(t)
    whole = np.floor(a)
    frac = a - whole  # exact
    p = frac * 1e9
    digits = np.rint(p)
    tie = np.abs(p - digits) == 0.5
    if tie.any():
        # p is a rounded product that lies on a tie. Dekker's two-product
        # gives its error exactly (1e9 has 21 significant bits, so it needs
        # no split and no FMA), and the error's sign says which way the
        # exact frac * 1e9 lies; an exact tie keeps rint's even digit
        f, q = frac[tie], p[tie]
        c = f * 134217729.0  # 2**27 + 1
        hi = c - (c - f)
        err = (hi * 1e9 - q) + (f - hi) * 1e9
        digits[tie] = np.where(err > 0, q + 0.5, np.where(err < 0, q - 0.5, digits[tie]))
    carry = digits == 1e9
    return np.signbit(t), whole.astype(np.int64) + carry, (digits - 1e9 * carry).astype(np.int64)


def _python_rows(parts: list) -> bytes:
    """The rows of _format_rows formatted by Python cell by cell: the route
    for a block that the integer route cannot write."""
    rows = len(next(p for p in parts if not isinstance(p, str)))
    cells = [[p] * rows if isinstance(p, str)
             else [f"{t:.9f}" for t in p.tolist()] if p.dtype.kind == "f"
             else map(str, p.tolist()) for p in parts]
    return "".join(map("".join, zip(*cells))).encode()


def _format_rows(parts: list) -> bytes:
    """One block of rows as bytes. Each part is fixed text (a str) or a
    column with one value per row: an int64 column is written in decimal, a
    float64 column as f"{t:.9f}" writes it. A block with a time that is not
    finite or has |t| >= 2**63, or with a negative int, goes to _python_rows."""
    columns = [p for p in parts if not isinstance(p, str)]
    if not all((np.abs(c) < 2.0**63).all() if c.dtype.kind == "f" else c.min() >= 0
               for c in columns):
        return _python_rows(parts)
    cells, text = [], b""
    for part in parts:
        if isinstance(part, str):
            text += part.encode()
            continue
        cells += _text_cells(text[:-1])
        lead = text[-1] if text else 0
        if part.dtype.kind == "f":
            sign, whole, frac = _nine_decimals(part)
            if sign.any():
                cells.append(np.where(sign, lead + _MINUS, lead).astype("<u4"))
                lead = 0
            cells += _decimal_cells(whole, lead)
            millions, thousands = frac // 1_000_000, frac // 1000
            cells += [_GROUPS[millions] + _POINT, _GROUPS[thousands - 1000 * millions],
                      _GROUPS[frac - 1000 * thousands]]
        else:
            cells += _decimal_cells(part, lead)
        text = b""
    cells += _text_cells(text)
    # filled a cell at a time and read out row by row; one bytes.translate
    # pass deletes the NUL padding at less than half a boolean mask's cost
    table = np.empty((len(cells), len(columns[0])), dtype="<u4")
    for j, cell in enumerate(cells):
        table[j] = cell
    return table.T.tobytes().translate(None, b"\0")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """header, then one row per entry of the columns, with CRLF line ends
    and no quoting (the bytes the csv module's writer gives), _TRACE_BLOCK
    rows at once."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for lo in range(0, len(columns[0]), _TRACE_BLOCK):
            rows = slice(lo, lo + _TRACE_BLOCK)
            parts = [columns[0][rows]]
            for col in columns[1:]:
                parts += [",", col[rows]]
            fh.write(_format_rows(parts + ["\r\n"]))


def write_trace_csv(trace: SimTrace, path: Path) -> None:
    """The trace as CSV: a header, then one row per snapshot, times as
    %.9f raw clock values."""
    _write_csv(path,
               ["t", "class", "matched"] + [f"q_{i}" for i in range(1, trace.node_count + 1)],
               [trace.times, trace.classes, trace.matched, *trace.states.T])


def write_growth_csv(result, path: Path) -> None:
    """The growth checkpoints as CSV: n, matched_count, unmatched_1..p."""
    p = result.template.node_count
    table = np.array([(n, matched, *queue) for n, matched, queue in result.checkpoints],
                     dtype=np.int64).reshape(-1, p + 2)
    _write_csv(path, ["n", "matched_count"] + [f"unmatched_{i}" for i in range(1, p + 1)],
               list(table.T))


def write_matching_json(result, path: Path) -> None:
    """{"pairs": [[u, v], ...]} with the bytes dump_json writes, formatted
    from the partner array _TRACE_BLOCK pairs at a time."""
    u, v = result.matching_arrays()
    with open(path, "wb") as fh:
        if not len(u):
            fh.write(b'{\n  "pairs": []\n}\n')
            return
        fh.write(b'{\n  "pairs": [\n')
        for lo in range(0, len(u), _TRACE_BLOCK):
            rows = slice(lo, lo + _TRACE_BLOCK)
            block = _format_rows(["    [\n      ", u[rows], ",\n      ", v[rows], "\n    ],\n"])
            # the last pair takes no comma
            fh.write(block if rows.stop < len(u) else block[:-2])
        fh.write(b"\n  ]\n}\n")


# -- files and manifests ----------------------------------------------------------


def load_json(path: str | Path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc}")


_JSON_BLOCK = 16384  # tokens per write; about 1 MB of them held at once


def dump_json(obj: dict, path: str | Path) -> None:
    # the encoder's tokens joined and written in blocks: json.dump writes
    # each token on its own, and json.dumps holds every token at once
    tokens = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    with open(path, "w") as fh:
        while block := "".join(islice(tokens, _JSON_BLOCK)):
            fh.write(block)
        fh.write("\n")


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def manifest(command: str, argv: list[str], inputs: list[str | Path], seed=None,
             outputs: list[str] | None = None) -> dict:
    from . import __version__

    return {
        "command": command,
        "argv": list(argv),
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "seed": seed,
        "outputs": outputs or [],
        "package": {"name": "matchq", "version": __version__},
    }
