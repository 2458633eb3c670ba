"""The verify and generate snapshot (scripts/verify_snapshot.py) runs end to end."""

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
    for argv, code, out, err, *written in runs:
        # no run raises: each exits with a code
        assert argv[0] in ("verify", "generate") and code in (0, 1, 2), (argv, code, err)
        assert isinstance(out, str) and isinstance(err, str)
        # a generate run adds its file's sha256, written exactly when it exits 0
        assert len(written) == (argv[0] == "generate"), argv
        if written:
            assert (code == 0) == isinstance(written[0], str), (argv, code, err)
    # passes, failures and configuration errors alike
    assert {code for _, code, *_ in runs} == {0, 1, 2}
    assert {argv[0] for argv, *_ in runs} == {"verify", "generate"}
