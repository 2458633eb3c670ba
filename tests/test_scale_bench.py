"""The scale harness (scripts/scale_bench.py) runs end to end."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scale_bench.py"


def test_scale_bench_runs_every_command_at_a_small_grid():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--sizes", "11"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)["runs"]
    assert [(r["command"], r["n"]) for r in runs] == [
        ("verify ex2 all", 11), ("generate ex7 json", 11), ("generate ex7 obj", 11)]
    for r in runs:
        assert r["exit"] == 0 and r["peak_rss_mb"] > 0, r
