"""The benchmark's traced run wraps matchq functions at the names their
callers look them up by (bench/workloads.py, TRACE). A rename in the
package would make `bench/run.py --trace 1` fail; this catches it here.
bench/ is only imported, with bytecode writing off."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads():
    sys.path.insert(0, str(BENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(BENCH))
    return workloads


WORKLOADS = _workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_traced_name_resolves_to_a_callable(name):
    trace = WORKLOADS[name].TRACE
    assert trace
    for owner, attr, span, _ in trace:
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr}"
