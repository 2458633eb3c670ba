"""The scale harness (scripts/scale_bench.py) runs end to end."""

import importlib.util
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
        ("verify ex2 all", 11), ("verify ex2 shape", 11), ("verify ex2 willmore", 11),
        ("verify ex7 lax", 11),
        ("verify ex7 consistency", 11), ("verify ex2 consistency", 11),
        ("verify ex4 compat", 11), ("verify ex4 zerocurv", 11), ("generate ex7 json", 11),
        ("generate ex7 obj", 11), ("generate ex4 obj", 11), ("generate ex4 csv", 11),
        ("generate ex4 json", 11),
        ("generate spectral3 k1 1.7 csv", 11), ("generate spectral3 k1 1.7 json", 11)]
    for r in runs:
        assert r["exit"] == 0 and r["peak_rss_mb"] > 0, r
        assert r["minor_faults"] >= 0 and r["cpu_s"] >= 0, r


def _load_script():
    spec = importlib.util.spec_from_file_location("scale_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_child_environment_does_not_depend_on_the_caller(tmp_path, monkeypatch):
    # a stand-in CLI writes the environment it was started with; the caller's
    # extra variables and the checkout's path leave it unchanged
    scale_bench = _load_script()
    seen = []
    for name, extra in (("a", {}), ("a-much-longer-checkout-name", {"PAD": "x" * 1000}),
                        ("b", {"PAD": "", "OTHER": "y" * 40})):
        root = tmp_path / name
        (root / "src" / "mkdvsurf").mkdir(parents=True)
        (root / "src" / "mkdvsurf" / "__init__.py").write_text("")
        (root / "src" / "mkdvsurf" / "cli.py").write_text(
            "import json, os\n"
            "with open('env.json', 'w') as f:\n"
            "    json.dump(dict(os.environ), f)\n")
        for key, value in extra.items():
            monkeypatch.setenv(key, value)
        run = scale_bench.run_once(root, [])
        assert run["exit"] == 0, run
        seen.append(json.loads((root / "env.json").read_text()))
    assert seen[0] == seen[1] == seen[2]
    assert seen[0]["PYTHONPATH"] == "src" and "PAD" not in seen[0]
