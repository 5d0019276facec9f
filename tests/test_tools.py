"""The repository's own tools."""

import ast
import runpy
from decimal import Decimal
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


def test_rho_reference_prints_reference_library_and_error(capsys):
    rho_reference = runpy.run_path(str(ROOT / "tests" / "rho_reference.py"))
    rho_reference["main"](["--scheme", "b", "-n", "64", "-q", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["reference", "library", "rel."]
    want, got = Decimal(lines[0].split()[1]), float(lines[1].split()[1])
    assert want == rho_reference["rho_reference"]("b", 64, 2)
    assert got == rho_reference["rho_b"](64, 2)
    assert float(lines[2].split()[-1]) <= 1e-14


def test_every_python_file_parses_as_the_oldest_supported_python():
    # pyproject's requires-python = ">=3.10"; no newer grammar (except*, PEP 695, nested-quote f-strings)
    files = [p for d in ("src", "tests", "tools") for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_stream_times_prints_each_step_per_code(capsys):
    stream_times = runpy.run_path(str(ROOT / "tools" / "stream_times.py"))
    codes = ROOT / "perfbench" / "codes"
    stream_times["main"]([str(codes / "simplex7.code"), str(codes / "golay23.code")])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["simplex7", "[7,3]"], ["golay23", "[23,12]"]]
    for line in lines:
        cells = line.split("per frame: ")[1].split(" (")[0].split(", ")
        steps = dict(cell.rsplit(" ", 1) for cell in cells)
        assert list(steps) == ["encode", "unpack", "decode", "decode t flips"]
        assert all(float(us) > 0 for us in steps.values())


def test_codec_times_prints_encode_and_decode_per_cell(capsys):
    codec_times = runpy.run_path(str(ROOT / "tools" / "codec_times.py"))
    codec_times["main"]([])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [[s, f"q={q}"] for s in "AB" for q in (0, 2, 6)]
    for line in lines:
        assert line.split(": ")[0].endswith("at n = 16 / 64 / 256 / 1024")
        steps = dict(cell.split(" ", 1) for cell in line.split(": ", 1)[1].split(" (")[0].split(", "))
        assert list(steps) == ["encode", "decode"]
        assert all(len(us.split(" / ")) == 4 and all(float(u) > 0 for u in us.split(" / ")) for us in steps.values())


def test_rho_times_prints_each_rho_and_the_batch(capsys):
    rho_times = runpy.run_path(str(ROOT / "tools" / "rho_times.py"))
    rho_times["main"]([])
    *rows, batch = capsys.readouterr().out.splitlines()
    labels = ["rho_a_bound q=0", "rho_a_bound q=6", "rho_b q=0", "rho_b q=6", "rho_c_fullspace"]
    assert [row.split(" us per call")[0] for row in rows] == labels
    for row in rows:
        assert row.split(": ")[0].endswith("at n = " + " / ".join(f"2^{e}" for e in range(8, 17)))
        cells = row.split(": ", 1)[1].split(" (")[0].split(" / ")
        assert len(cells) == 9 and all(float(us) > 0 for us in cells)
    cells = dict(cell.rsplit(" ", 1) for cell in batch.split(": ", 1)[1].split(" (best")[0].split("; "))
    assert list(cells) == ["rho_c_fullspace(4096)", "rho_b(65536, 0)"] and all(float(us) > 0 for us in cells.values())


def test_trellis_times_prints_each_build(capsys):
    trellis_times = runpy.run_path(str(ROOT / "tools" / "trellis_times.py"))
    trellis_times["main"]([])
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("trellis build ms per call: ") and line.endswith(" (best of 5 runs of 20 ms or one build)")
    cells = line.split(": ", 1)[1].split(" (best")[0].split("; ")
    names = [cell.split()[:2] for cell in cells]
    assert names == [
        ["bch15", "[15,7]"], ["bch31", "[31,21]"], ["full127", "[127,127]"],
        ["golay23", "[23,12]"], ["simplex7", "[7,3]"], ["bch63", "[63,51]"],
    ]
    assert all(float(cell.split()[2]) > 0 for cell in cells)


def test_cli_times_prints_import_parse_and_run(capsys):
    cli_times = runpy.run_path(str(ROOT / "tools" / "cli_times.py"))
    cli_times["main"]([])
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("cli ms in a fresh process: import ") and line.endswith(" (median of 5 processes each)")
    first, *cells = line.split(": ", 1)[1].split(" (median")[0].split("; ")
    assert float(first.split()[1]) > 0
    assert [cell.rsplit(" parse ", 1)[0] for cell in cells] == ["--table1", "--table2", "trellis simplex7"]
    for cell in cells:
        parse, run = cell.rsplit(" parse ", 1)[1].split(" run ")
        assert float(parse) > 0 and float(run) > 0
