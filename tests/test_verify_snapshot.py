"""The verify snapshot (scripts/verify_snapshot.py) runs end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "verify_snapshot.py"


def test_verify_snapshot_prints_one_run_a_line():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(SCRIPT)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(runs) > 100
    for argv, code, out, err in runs:
        assert argv[0] == "verify" and code in (0, 1, 2), (argv, code, err)
        assert isinstance(out, str) and isinstance(err, str)
    # passes, failures and configuration errors alike
    assert {code for _, code, _, _ in runs} == {0, 1, 2}
