"""The repository's own tools."""

import ast
import contextlib
import io
import runpy
from decimal import Decimal
from pathlib import Path

import pytest

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


@pytest.fixture(scope="module")
def layer_times():
    """One in-process run of tools/layer_times.py: the tool's globals, its heading
    lines and its rows as {layer: [(label, unit, cell names)]}, every cell > 0."""
    tool = runpy.run_path(str(ROOT / "tools" / "layer_times.py"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        tool["main"]()
    lines = out.getvalue().splitlines()
    heading, lines = lines[:4], lines[4:]
    table = {}
    for line in lines:
        layer, label, unit, cells = line.strip("| ").split(" | ")
        cells = dict(cell.rsplit(" ", 1) for cell in cells.split("; "))
        assert all(float(value) > 0 for value in cells.values()), line
        table.setdefault(layer, []).append((label, unit, list(cells)))
    return tool, heading, table


def test_layer_times_prints_each_layer_row_with_positive_cells(layer_times):
    tool, (rules, blank, columns, rule), table = layer_times
    assert rules.startswith(f"In-process cells: best of {tool['REPEAT']} timeit runs of ")
    assert rules.endswith(f"median of {tool['PROCESSES']} new interpreters.")
    assert (blank, columns, rule) == ("", "| layer | row | unit | cells |", "|---|---|---|---|")
    assert list(table) == ["walks", "codec", "rho", "stream", "trellis", "compile", "cli"]
    modules = len(list((ROOT / "src" / "qbalance").glob("*.py")))
    assert table["compile"] == [("src/qbalance", "ms per call", [f"{modules} modules"])]


def test_walk_times_prints_each_walk_per_length(layer_times):
    ns = [f"n={n}" for n in (16, 64, 256, 1024)]
    walks = ["level_walk hit", "select_walk"]
    assert layer_times[2]["walks"] == [(walk, "us per call", ns) for walk in walks]


def test_codec_times_prints_encode_and_decode_per_cell(layer_times):
    ns = [f"n={n}" for n in (16, 64, 256, 1024)]
    assert layer_times[2]["codec"] == [
        (f"{s} q={q} {step}", "us per message", ns) for s in "AB" for q in (0, 2, 6) for step in ("encode", "decode")
    ]


def test_rho_times_prints_each_rho_and_the_batch(layer_times):
    # the paper-tables batch's rho_c_fullspace(4096) and rho_b(65536, 0) are the cells n=2^12 and n=2^16
    rhos = ["rho_a_bound q=0", "rho_a_bound q=6", "rho_b q=0", "rho_b q=6", "rho_c_fullspace"]
    assert layer_times[2]["rho"] == [(label, "us per call", [f"n=2^{e}" for e in range(8, 17)]) for label in rhos]


def test_stream_times_prints_each_step_per_code(layer_times):
    codes = ["simplex7 [7,3] t=1", "bch15 [15,7] t=2", "golay23 [23,12] t=3", "bch31 [31,21] t=2"]
    steps = ["encode", "unpack", "decode", "decode t flips"]
    warm = ["encode", "decode", "decode t flips"]  # unpack reads no memo
    assert layer_times[2]["stream"] == [
        row for label in codes for row in ((f"{label} cold", "us per frame", steps), (f"{label} warm", "us per frame", warm))
    ]


def test_trellis_times_prints_each_build(layer_times):
    builds = ["bch15 [15,7]", "bch31 [31,21]", "full127 [127,127]", "golay23 [23,12]", "simplex7 [7,3]", "bch63 [63,51]"]
    assert layer_times[2]["trellis"] == [("build_and_count", "ms per build", builds)]


def test_cli_times_prints_import_parse_and_run(layer_times):
    jobs = ["--table1", "--table2", "trellis simplex7"]
    assert layer_times[2]["cli"] == [(label, "ms per process", ["import", "parse", "run"]) for label in jobs]
