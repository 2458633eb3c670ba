"""The benchmark's correctness gate, run once as a test.

The ``verify`` and ``frame`` workloads of ``perfbench`` compare each
operation's checks with ``perfbench/reference.json``: the same verdicts, and
residuals that agree to rounding (1e-3 relative for the finite-difference
checks).  The ``export`` workload compares the sha256 of each file written.
Running the six ``export`` operations, the seven ``verify`` operations and
all 44 ``frame`` operations (those of the checks that multiply 2x2
matrices, of those that read the closed-form curvatures, and of those that
evaluate the frames on jets of xi alone) here makes a changed byte or a
drift in those residuals fail the test suite, not only a benchmark run.
``perfbench/workloads.py`` is loaded from its file and used as it is.
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


def _mismatches(wl, workload, ops):
    reference = json.loads(wl.REFERENCE.read_text())[workload]
    bad = {}
    for op in ops:
        outcome = wl.execute(cli, op)
        assert outcome.error == "", (op.key, outcome.error)
        found = wl.mismatches(wl.observe(op, outcome), reference[op.key])
        if found:
            bad[op.key] = found
    return bad


def test_export_workload_matches_the_benchmark_reference(tmp_path, monkeypatch):
    wl = _workloads(monkeypatch)
    ops = wl.operations("export", tmp_path)
    assert len(ops) == 6
    (tmp_path / wl.WORK_DIR).mkdir()
    assert not _mismatches(wl, "export", ops)


def test_verify_workload_matches_the_benchmark_reference(tmp_path, monkeypatch):
    wl = _workloads(monkeypatch)
    ops = wl.operations("verify", tmp_path)
    assert len(ops) == 7
    assert not _mismatches(wl, "verify", ops)


def test_frame_matrix_checks_match_the_benchmark_reference(tmp_path, monkeypatch):
    # lax and consistency are the frame checks that multiply Phi by 2x2 matrices
    wl = _workloads(monkeypatch)
    ops = [op for op in wl.operations("frame", tmp_path)
           if op.key.split("/")[1] in ("lax", "consistency")]
    assert len(ops) == 14
    assert not _mismatches(wl, "frame", ops)


def test_frame_curvature_checks_match_the_benchmark_reference(tmp_path, monkeypatch):
    # forms and weingarten compare against the closed-form curvatures of Family
    wl = _workloads(monkeypatch)
    ops = [op for op in wl.operations("frame", tmp_path)
           if op.key.split("/")[1] in ("forms", "weingarten")]
    assert len(ops) == 11
    assert not _mismatches(wl, "frame", ops)


def test_frame_xi_checks_match_the_benchmark_reference(tmp_path, monkeypatch):
    # zerocurv, compat and sphere evaluate their frames only on jets of xi
    wl = _workloads(monkeypatch)
    ops = [op for op in wl.operations("frame", tmp_path)
           if op.key.split("/")[1] in ("zerocurv", "compat", "sphere")]
    assert len(ops) == 19
    assert not _mismatches(wl, "frame", ops)
