import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md quick start (library)", "exec"), {})
    assert (tmp_path / "runs" / "lib" / "manifest.json").exists()
    accuracy, attribution = capsys.readouterr().out.splitlines()
    assert 0.0 <= float(accuracy) <= 1.0 and "'unit': 4" in attribution
