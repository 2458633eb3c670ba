"""The benchmark's correctness gate, run once as a test.

The ``verify`` workload of ``perfbench`` compares each operation's checks
with ``perfbench/reference.json``: the same verdicts, and residuals that
agree to rounding (1e-3 relative for the finite-difference checks).  Running
its seven operations here makes a drift in those residuals fail the test
suite, not only a benchmark run.  ``perfbench/workloads.py`` is loaded from
its file and used as it is.
"""

import importlib.util
import json
import sys
from pathlib import Path

from mkdvsurf import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while being defined
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_verify_workload_matches_the_benchmark_reference(tmp_path, monkeypatch):
    wl = _workloads(monkeypatch)
    reference = json.loads(wl.REFERENCE.read_text())["verify"]
    ops = wl.operations("verify", tmp_path)
    assert len(ops) == 7
    bad = {}
    for op in ops:
        outcome = wl.execute(cli, op)
        assert outcome.error == "", (op.key, outcome.error)
        found = wl.mismatches(wl.observe(op, outcome), reference[op.key])
        if found:
            bad[op.key] = found
    assert not bad
