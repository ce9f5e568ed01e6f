"""JSON and CSV interchange for graphs, rates, policies, and reports.

File formats:
  graph   {"nodes": p, "edges": [[i, j], ...]}          1-based indices
  rates   {"rates": [r1, ..., rp]}
  policy  {"kind": "priority", "order": {"1": [2, 3], ...}}
          {"kind": "ml"} | {"kind": "uniform"}
  trace   CSV with columns t, class, matched (0 = none), q_1..q_p
  matching {"pairs": [[u, v], ...]}  0-based node ids, u < v, sorted by u

Infinite values are encoded as the string "inf" so the emitted JSON stays
strictly standard.
"""

from __future__ import annotations

import csv
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
# stays flat however long the trace is.
_TRACE_BLOCK = 4096


def _int_cells(column: np.ndarray) -> list[str]:
    """Decimal strings of an integer column, each distinct value formatted once."""
    values, inverse = np.unique(column, return_inverse=True)
    return np.array([str(v) for v in values.tolist()], dtype=object)[inverse].tolist()


def write_trace_csv(trace: SimTrace, path: Path) -> None:
    """The trace as CSV: a header, then one row per snapshot, times as
    %.9f raw clock values and CRLF line ends (the bytes csv.writer gives).
    Cells are formatted a column at a time, _TRACE_BLOCK rows at once."""
    header = ["t", "class", "matched"] + [f"q_{i}" for i in range(1, trace.node_count + 1)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(trace.times), _TRACE_BLOCK):
            rows = slice(lo, lo + _TRACE_BLOCK)
            columns = [[f"{t:.9f}" for t in trace.times[rows].tolist()]]
            columns += [
                _int_cells(col)
                for col in (trace.classes[rows], trace.matched[rows], *trace.states[rows].T)
            ]
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def write_growth_csv(result, path: Path) -> None:
    p = result.template.node_count
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "matched_count"] + [f"unmatched_{i}" for i in range(1, p + 1)]
        )
        for n, matched, queue in result.checkpoints:
            writer.writerow([n, matched] + list(queue))


# One pair as json.dumps(indent=2) lays it out inside {"pairs": [...]}.
_PAIR = "    [\n      {},\n      {}\n    ]"


def write_matching_json(result, path: Path) -> None:
    """{"pairs": [[u, v], ...]} with the bytes dump_json writes, formatted
    from the partner array _TRACE_BLOCK pairs at a time."""
    u, v = result.matching_arrays()
    with open(path, "w") as fh:
        if not len(u):
            fh.write('{\n  "pairs": []\n}\n')
            return
        fh.write('{\n  "pairs": [\n')
        for lo in range(0, len(u), _TRACE_BLOCK):
            rows = slice(lo, lo + _TRACE_BLOCK)
            if lo:
                fh.write(",\n")
            fh.write(",\n".join(map(_PAIR.format, u[rows].tolist(), v[rows].tolist())))
        fh.write("\n  ]\n}\n")


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
