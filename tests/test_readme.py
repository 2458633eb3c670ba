"""The README's library quickstart runs as written."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(tmp_path, monkeypatch):
    # an API the block uses that goes away fails here, not only in the README
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)  # the block writes ex7.obj
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
    assert (tmp_path / "ex7.obj").stat().st_size > 0
    assert namespace["report"].checks
