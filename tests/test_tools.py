"""The repository's own tools."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_code_lines_counts_a_directory_as_its_python_files(capsys):
    code_lines = runpy.run_path(str(ROOT / "tools" / "code_lines.py"))
    src = ROOT / "src" / "qbalance"
    code_lines["main"]([str(p) for p in sorted(src.glob("*.py"))])
    by_file = capsys.readouterr().out
    code_lines["main"]([str(src)])
    assert capsys.readouterr().out == by_file
    assert by_file.splitlines()[-1].endswith("code lines  total")
