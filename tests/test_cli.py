import contextlib
import csv
import hashlib
import io
import json
import math
import random
import re
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qbalance import cli, oracle, scheme_a, scheme_b, scheme_c, trellis
from qbalance.scheme_a import encode_a
from qbalance.words import BitWord

from fresh_process import CLI, ENV, run_fresh
from test_scheme_c import BCH63_39_SPEC

SIMPLEX_SPEC = "n = 7\nk = 3\ngenerator = 1,0,1,1,1\n"
ROOT = Path(__file__).resolve().parent.parent
PERFBENCH_CODES = ROOT / "perfbench" / "codes"
# a valid H of the simplex code pinned by parity_row_* keys, which are unknown keys now
STALE_H_SPEC = (
    "n = 7\ngenerator = 1,0,1,1,1\nparity_row_1 = 1,1,0,1,0,0,0\nparity_row_2 = 0,1,1,0,1,0,0\n"
    "parity_row_3 = 0,0,1,1,0,1,0\nparity_row_4 = 0,0,0,1,1,0,1\n"
)


@pytest.fixture
def code_file(tmp_path):
    path = tmp_path / "simplex.code"
    path.write_text(SIMPLEX_SPEC)
    return str(path)


def run_cli(capsys, *argv):
    status = cli.run(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


def run_json(capsys, *argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == 0, err
    return json.loads(out)


@contextlib.contextmanager
def long_int_strings():
    """Lift Python's limit of 4,300 digits on int/str conversion (3.10.7
    on) for this block, to parse the exact counts the CLI prints."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def run_long(capsys, parse, *argv):
    """parse(out) of an in-process run whose output may hold integers past
    the limit: cli.run must print them and leave the limit as it found it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    status, out, err = run_cli(capsys, *argv)
    assert status == 0, err
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    with long_int_strings():
        return parse(out)


def run_timed(capsys, timeout, *argv):
    """run_cli, failing when the call takes `timeout` seconds or more."""
    start = time.perf_counter()
    result = run_cli(capsys, *argv)
    assert time.perf_counter() - start < timeout, argv
    return result


def run_csv(capsys, *argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == 0, err
    return list(csv.DictReader(io.StringIO(out)))


class TestEncodeDecode:
    def test_scheme_a_worked_example(self, capsys):
        obj = run_json(capsys, "encode", "--scheme", "a", "-q", "2", "--input", "11100000")
        assert obj["codeword"] == "10011111"
        assert obj["prefix"] == "00001"
        assert obj["classification"] == "type-0-good"
        assert obj["tau"] == 1

    def test_scheme_a_matches_library(self, capsys):
        obj = run_json(capsys, "encode", "--scheme", "a", "-q", "2", "--input", "01100110")
        res = encode_a(BitWord.from_str("01100110"), 2)
        assert obj["codeword"] == str(res.codeword)
        assert obj["prefix"] == str(res.prefix)

    def test_scheme_a_decode(self, capsys):
        obj = run_json(
            capsys,
            "decode", "--scheme", "a", "-q", "2",
            "--codeword", "10011111", "--prefix", "00001",
        )
        assert obj["message"] == "11100000"

    def test_scheme_b_roundtrip(self, capsys):
        enc = run_json(capsys, "encode", "--scheme", "b", "-q", "0", "--input", "0000000")
        assert enc["codeword"] == "11100001"
        dec = run_json(
            capsys,
            "decode", "--scheme", "b", "-q", "0",
            "--codeword", enc["codeword"], "--prefix", enc["prefix"],
        )
        assert dec["message"] == "0000000"

    def test_scheme_c(self, capsys, code_file):
        enc = run_json(
            capsys, "encode", "--scheme", "c", "--code", code_file, "--input", "1011100"
        )
        assert enc["codeword"] == "10101100"
        assert enc["prefix"] == "01"
        dec = run_json(
            capsys,
            "decode", "--scheme", "c", "--code", code_file,
            "--codeword", "10101100", "--prefix", "10",
        )
        assert dec["message"] == "0111001"

    def test_malformed_bits_exit_1(self, capsys):
        status, _, err = run_cli(capsys, "encode", "--scheme", "a", "--input", "01x0")
        assert status == 1
        assert "error" in err

    def test_wrong_weight_codeword_exit_1(self, capsys):
        status, _, err = run_cli(capsys, "decode", "--scheme", "a", "-q", "2", "--codeword", "10111111", "--prefix", "00001")
        assert status == 1
        assert "codeword weight 7 != target 6" in err

    def test_unknown_flag_exit_1(self, capsys):
        status, _, _ = run_cli(capsys, "encode", "--scheme", "a", "--bogus", "1")
        assert status == 1

    def test_scheme_b_even_message_names_its_length(self, capsys):
        status, out, err = run_cli(capsys, "encode", "--scheme", "b", "--input", "0110")
        assert status == 1 and out == ""
        assert err == "error: message length 4 must be odd (n-1)\n"


class TestAnalyze:
    def test_table1_rows(self, capsys):
        rows = run_csv(capsys, "analyze", "redundancy", "--table1")
        first = rows[0]
        assert first["n"] == "8"
        assert first["scheme_b_q0"] == "2.01"
        assert first["optimal"] == "1.87"
        assert first["scheme_a_q0"] == "1.90"
        assert [r["scheme_b_q0"] for r in rows] == [
            "2.01", "2.52", "3.02", "3.52", "4.02", "4.53", "5.03",
        ]

    def test_table2_shape(self, capsys):
        rows = run_csv(capsys, "analyze", "redundancy", "--table2")
        assert [r["n"] for r in rows] == ["16", "32", "64", "128", "256", "512", "1000"]
        assert float(rows[2]["scheme_a"]) == pytest.approx(8.03, abs=0.05)
        assert float(rows[0]["prior_lower_bound"]) == pytest.approx(0.18, abs=0.01)

    @pytest.mark.parametrize(
        "argv",
        [
            ["redundancy", "--scheme", "a", "-n", "1000000"],
            ["redundancy", "--scheme", "b", "-n", "1000000"],
            ["redundancy", "--scheme", "c", "-n", "1000000"],
            ["gamma", "--scheme", "b", "-n", "200000"],
            ["badwords", "-n", "4000000", "-q", "3"],
        ],
        ids=["rho-a", "rho-b", "rho-c", "gamma-b", "badwords"],
    )
    def test_past_analysis_guards(self, capsys, argv):
        # each once ended in a MemoryError traceback or ran for minutes
        status, out, err = run_cli(capsys, "analyze", *argv)
        assert status == 1 and out == ""
        assert err.startswith("error: n=") and "guard" in err

    def test_table2_and_rho_take_no_census(self, capsys, monkeypatch):
        """rho reads the bad-word share in closed float form, so Table 2 (q = 6)
        and rho_a_bound and rho_b at q >= 2 step no residue class of a row."""
        calls = []
        for module, name in [(scheme_a, "count_bad"), (scheme_b, "count_bad_b"), (scheme_a, "_binom_class")]:
            monkeypatch.setattr(module, name, lambda *args, name=name: calls.append((name, args)))
        rows = run_csv(capsys, "analyze", "redundancy", "--table2")
        assert [r["n"] for r in rows] == ["16", "32", "64", "128", "256", "512", "1000"]
        for n, q in [(8, 2), (64, 3), (1000, 6), (65536, 3)]:
            scheme_a.rho_a_bound(n, q)
            scheme_b.rho_b(n, q)
        assert calls == []

    @pytest.mark.parametrize("flag", ["--table1", "--table2"])
    def test_table_is_byte_identical_to_golden(self, capsys, flag):
        # the benchmark's recorded tables; criteria 01-04 check them only to +-0.005
        golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())["tables"][flag]
        status, out, err = run_cli(capsys, "analyze", "redundancy", flag)
        assert status == 0, err
        assert out == golden

    def test_optimal_single_value(self, capsys):
        obj = run_json(
            capsys, "analyze", "redundancy", "--scheme", "optimal", "-n", "8", "-q", "0"
        )
        assert obj["value"] == pytest.approx(1.8707, abs=1e-4)

    def test_scheme_b_decomposition(self, capsys):
        obj = run_json(capsys, "analyze", "redundancy", "--scheme", "b", "-n", "8", "-q", "0")
        assert obj["value"] == pytest.approx(2.008, abs=1e-3)
        assert obj["decomposition"]["flag"] == 1.0

    def test_gamma_csv(self, capsys):
        rows = run_csv(capsys, "analyze", "gamma", "--scheme", "b", "-n", "8", "-q", "0")
        assert [(r["i"], r["count"]) for r in rows] == [
            ("1", "28"), ("2", "28"), ("3", "12"), ("4", "2"),
        ]

    def test_gamma_counts_past_4300_digits(self, tmp_path):
        """Scheme C's largest counts have more than 4,300 digits from n = 14294.
        Run as a command: its 30 MB CSV in this process would raise the peak
        RSS that the bounded-memory probes of other tests inherit."""
        n = 14336
        path = tmp_path / "gamma.csv"
        with open(path, "w") as fh:
            run_fresh(CLI, "analyze", "gamma", "--scheme", "c", "-n", str(n), stdout=fh)
        with open(path) as fh, long_int_strings():
            total = sum(int(row["count"]) for row in csv.DictReader(fh))
        assert total == math.comb(n, n // 2)

    def test_gamma_csv_at_16384_in_bounded_memory(self, tmp_path):
        """The CSV goes out row by row: built whole in a buffer first, the text took the peak to 113 MB."""
        path = tmp_path / "gamma.csv"
        with open(path, "w") as fh:
            child = run_fresh(CLI, "analyze", "gamma", "--scheme", "a", "-n", "16384", stdout=fh, timeout=30)
        assert child.peak_kib < 80 * 1024
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "f03f00c1777eeb67a4bafbc40da3a91c2912c0190b8313c38a300b333ede9b18"

    def test_badwords(self, capsys):
        obj = run_json(capsys, "analyze", "badwords", "-n", "8", "-q", "2")
        assert obj["scheme_a_bad"] == 32
        assert obj["scheme_b_bad"] == 2

    @pytest.mark.parametrize("n", [1024, 4096, 18024])
    def test_badwords_past_float_range(self, capsys, n):
        """2^n overflows a float from n = 1024; the fractions are exact quotients.
        From n = 18024 a census has more than 4,300 digits."""
        obj = run_long(capsys, json.loads, "analyze", "badwords", "-n", str(n), "-q", "3")
        assert obj["scheme_a_bad"] == scheme_a.count_bad(n, 3)
        assert obj["scheme_b_bad"] == scheme_b.count_bad_b(n, 3)
        assert obj["scheme_a_fraction"] == obj["scheme_a_bad"] / (1 << n)
        assert obj["scheme_b_fraction"] == obj["scheme_b_bad"] / (1 << (n - 1))

    @pytest.mark.parametrize("command", ["gamma", "redundancy"])
    @pytest.mark.parametrize("q", ["-1", "9"])
    def test_scheme_b_q_out_of_range(self, capsys, command, q):
        status, out, err = run_cli(capsys, "analyze", command, "--scheme", "b", "-n", "8", "-q", q)
        assert status == 1 and out == ""
        assert err.startswith("error:") and f"q={q}" in err and "0..4" in err

    @pytest.mark.parametrize(
        "analysis,scheme",
        [pytest.param("redundancy", s, id=s) for s in ("a", "b", "c", "optimal")]
        + [pytest.param("gamma", s, id=f"gamma-{s}") for s in ("a", "b", "c")],
    )
    @pytest.mark.parametrize("n", ["0", "-4"])
    def test_block_length_below_two(self, capsys, analysis, scheme, n):
        status, out, err = run_cli(capsys, "analyze", analysis, "--scheme", scheme, "-n", n, "-q", "0")
        assert status == 1 and out == ""
        assert err.startswith("error:") and f"n={n}" in err

    def test_one_table_at_a_time(self, capsys):
        status, out, _ = run_cli(capsys, "analyze", "redundancy", "--table1", "--table2")
        assert status == 1 and out == ""

    @pytest.mark.parametrize("n,q", [(8, 0), (16, 6)])
    def test_scheme_b_operational(self, capsys, n, q):
        obj = run_json(capsys, "analyze", "redundancy", "--scheme", "b", "-n", str(n), "-q", str(q))
        assert obj["operational"] == sum(scheme_b.rho_b_parts(n, q)[1].values())
        assert obj["operational"] >= obj["value"]

    def test_scheme_c_operational(self, capsys):
        obj = run_json(capsys, "analyze", "redundancy", "--scheme", "c", "-n", "16")
        assert obj["operational"] == sum(scheme_c.rho_c_parts(16)[1].values())
        assert obj["operational"] >= obj["value"]


class TestTrellisCommand:
    def test_default_json(self, capsys, code_file):
        obj = run_json(capsys, "trellis", "--code", code_file)
        assert obj["rho"] == pytest.approx(2.25)
        assert obj["codebook_size"] == 4
        assert obj["gamma"] == {"1": 2, "2": 1, "4": 1}

    def test_one_pass_per_report(self, capsys, code_file, monkeypatch):
        calls = []
        real = trellis.build_and_count

        def counted(code):
            calls.append(code)
            return real(code)

        monkeypatch.setattr(trellis, "build_and_count", counted)
        run_cli(capsys, "trellis", "--code", code_file)
        assert len(calls) == 1


def test_in_process_runs_share_one_parser(capsys, code_file):
    """The first `run` builds the parser; later ones reuse it, after a usage error too."""
    cli._build_parser.cache_clear()
    report = {"n": 7, "k": 3, "rho": pytest.approx(2.25), "codebook_size": 4, "gamma": {"1": 2, "2": 1, "4": 1}}
    assert run_json(capsys, "trellis", "--code", code_file) == report
    assert run_cli(capsys, "trellis", "--no-such-flag")[0] == 1
    assert run_json(capsys, "trellis", "--code", code_file) == report
    assert cli._build_parser.cache_info().misses == 1


class TestOracleCommand:
    def test_verify_ok(self, capsys):
        status, out, _ = run_cli(capsys, "oracle", "verify", "--scheme", "a", "-n", "8", "-q", "2")
        assert status == 0
        assert json.loads(out)["ok"] is True

    def test_verify_scheme_c(self, capsys, code_file):
        status, out, _ = run_cli(capsys, "oracle", "verify", "--scheme", "c", "--code", code_file)
        assert status == 0
        assert json.loads(out)["ok"] is True

    def test_verify_prints_the_same_keys_for_every_scheme(self, capsys, code_file):
        c = run_json(capsys, "oracle", "verify", "--scheme", "c", "--code", code_file)
        a = run_json(capsys, "oracle", "verify", "--scheme", "a", "-n", "8", "-q", "2")
        assert list(c) == list(a)
        assert c["q"] == 0 and c["bad_match"] is True and c["n"] == 8

    @pytest.mark.parametrize("scheme", ["a", "b"])
    def test_verify_without_n_is_a_domain_error(self, capsys, scheme):
        status, _, err = run_cli(capsys, "oracle", "verify", "--scheme", scheme)
        assert status == 1
        assert err.startswith("error:") and "-n" in err

    def test_verify_failure_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(
            oracle, "verify_scheme", lambda *a, **k: {"ok": False, "roundtrip": False}
        )
        status, out, _ = run_cli(capsys, "oracle", "verify", "--scheme", "a", "-n", "8", "-q", "0")
        assert status == 2


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("encode", "--code", None, "--input", "1011100"), id="encode"),
        pytest.param(("decode", "--code", None, "--codeword", "10101100", "--prefix", "01"), id="decode"),
        pytest.param(("analyze", "redundancy", "-n", "8"), id="analyze-redundancy"),
        pytest.param(("analyze", "gamma", "-n", "8"), id="analyze-gamma"),
        pytest.param(("oracle", "verify", "--code", None), id="oracle-verify"),
    ],
)
def test_scheme_c_rejects_q(capsys, code_file, argv):
    """Scheme C has no imbalance parameter; a nonzero -q is an error, not ignored."""
    argv = [code_file if a is None else a for a in argv]
    status, out, err = run_cli(capsys, *argv, "--scheme", "c", "-q", "2")
    assert status == 1 and out == ""
    assert err.startswith("error:") and "q=2" in err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("encode", "--input", "1011100"), id="encode"),
        pytest.param(("decode", "--codeword", "10101100", "--prefix", "01"), id="decode"),
        pytest.param(("oracle", "verify"), id="oracle-verify"),
    ],
)
def test_scheme_c_needs_a_code_file(capsys, argv):
    """The code file fixes Scheme C's block length; without one the command
    fails with an error naming the option."""
    status, out, err = run_cli(capsys, *argv, "--scheme", "c")
    assert status == 1 and out == ""
    assert err == "error: this command needs --code FILE\n"


@pytest.mark.parametrize(
    "argv,flag",
    [
        pytest.param(("oracle", "verify", "--scheme", "c", "--code", None, "-n", "99"), "-n", id="verify-c-n"),
        # the code file fixes the block length, so even the matching one is refused
        pytest.param(("oracle", "verify", "--scheme", "c", "--code", None, "-n", "8"), "-n", id="verify-c-matching-n"),
        pytest.param(("oracle", "verify", "--scheme", "c", "--code", None, "-q", "1"), "q=1", id="verify-c-q"),
        pytest.param(("oracle", "verify", "--scheme", "a", "-n", "8", "--code", "/nonexistent"), "--code", id="verify-a-code"),
        pytest.param(("encode", "--scheme", "a", "--input", "11100000", "--code", "/nonexistent"), "--code", id="encode-a-code"),
        pytest.param(
            ("decode", "--scheme", "a", "-q", "2", "--codeword", "10011111", "--prefix", "00001", "--code", "/nonexistent"),
            "--code",
            id="decode-a-code",
        ),
        pytest.param(
            ("decode", "--scheme", "b", "--codeword", "11100001", "--code", "/nonexistent"), "--code", id="decode-b-code"
        ),
        pytest.param(
            ("analyze", "redundancy", "--table1", "--scheme", "a", "-n", "8", "-q", "3"), "--scheme", id="table1-all"
        ),
        pytest.param(("analyze", "redundancy", "--table1", "--scheme", "a"), "--scheme", id="table1-scheme"),
        pytest.param(("analyze", "redundancy", "--table1", "-n", "8"), "-n", id="table1-n"),
        pytest.param(("analyze", "redundancy", "--table2", "-q", "3"), "-q", id="table2-q"),
    ],
)
def test_flag_the_command_would_ignore_is_an_error(capsys, code_file, argv, flag):
    """A flag that does not apply fails with an error naming it, instead of being dropped."""
    argv = [code_file if a is None else a for a in argv]
    status, out, err = run_cli(capsys, *argv)
    assert status == 1 and out == ""
    assert err.startswith("error:") and flag in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        pytest.param(("encode", "--scheme", "a", "-n", "8", "-q", "2", "--input", "11100000"), "-n", id="encode-n"),
        pytest.param(
            ("decode", "--scheme", "a", "-n", "8", "-q", "2", "--codeword", "10011111", "--prefix", "00001"),
            "-n",
            id="decode-n",
        ),
        pytest.param(
            ("decode", "--scheme", "c", "--code", None, "--codeword", "10101100", "--prefix", "01", "-n", "99"),
            "-n",
            id="decode-c-n",
        ),
        pytest.param(("trellis", "--code", None, "--gamma"), "--gamma", id="trellis-gamma"),
        pytest.param(("trellis", "--code", None, "--rho"), "--rho", id="trellis-rho"),
        pytest.param(("trellis", "--code", None, "--size"), "--size", id="trellis-size"),
    ],
)
def test_option_that_restates_the_input_is_unrecognized(capsys, code_file, argv, flag):
    """The bit string or code file fixes n, and `trellis` prints one report:
    argparse names the option, and `run` maps its exit 2 to 1."""
    argv = [code_file if a is None else a for a in argv]
    status, out, err = run_cli(capsys, *argv)
    assert status == 1 and out == ""
    assert "error:" in err and flag in err


class TestStreamCommands:
    def test_roundtrip_via_container(self, capsys, code_file, tmp_path):
        container = tmp_path / "frames.bin"
        enc = run_json(
            capsys,
            "stream", "encode", "--code", code_file,
            "--input", "0001011", "--out", str(container),
        )
        assert enc["frames"][:3] == ["11110000", "10101100", "10101100"]
        dec = run_json(
            capsys, "stream", "decode", "--code", code_file, "--in", str(container)
        )
        assert dec["payload"] == "0001011"

    def test_roundtrip_with_error_injection(self, capsys, code_file, tmp_path):
        container = tmp_path / "frames.bin"
        run_json(
            capsys,
            "stream", "encode", "--code", code_file, "--input", "110100101101",
            "--out", str(container), "--flip-per-block", "1", "--seed", "9",
        )
        dec = run_json(
            capsys, "stream", "decode", "--code", code_file, "--in", str(container)
        )
        assert dec["payload"] == "110100101101"

    @pytest.mark.parametrize("flips", ["-1", "9"])
    def test_flip_per_block_out_of_range(self, capsys, code_file, flips):
        status, _, err = run_cli(
            capsys, "stream", "encode", "--code", code_file, "--input", "101",
            "--flip-per-block", flips,
        )
        assert status == 1
        assert err.startswith("error:") and "--flip-per-block" in err and "0..8" in err

    @pytest.mark.parametrize("flips", [(), ("--flip-per-block", "0")])
    def test_seed_without_flips_is_an_error(self, capsys, code_file, flips):
        status, out, err = run_cli(
            capsys, "stream", "encode", "--code", code_file, "--input", "0001011", "--seed", "7", *flips
        )
        assert (status, out) == (1, "")
        assert err.startswith("error:") and "--seed" in err

    def test_flips_without_seed_use_seed_zero(self, capsys, code_file):
        argv = ("stream", "encode", "--code", code_file, "--input", "110100101101", "--flip-per-block", "1")
        assert run_json(capsys, *argv) == run_json(capsys, *argv, "--seed", "0")

    def test_missing_code_file(self, capsys):
        status, _, err = run_cli(
            capsys, "stream", "encode", "--code", "/nonexistent", "--input", "101"
        )
        assert status == 1

    @pytest.mark.parametrize(
        "spec",
        [
            "n = 7\nn = 15\ngenerator = 1\n",
            "n = 7\ngenerator = 1,1,0,1\nparity_row_1 = 2,0,1,1,1,0,0\n"
            "parity_row_2 = 0,1,0,1,1,1,0\nparity_row_3 = 0,0,1,0,1,1,1\n",
            "n = 7\ngenerator = 0\nparity_row_1 = 1,0,1,1,1,0,0\n",
            # past the block-length guard: once built, with a 57 MB byte table on the first encode
            "generator = 1\nn = 4096\n",
            STALE_H_SPEC,
        ],
    )
    def test_bad_code_file_says_where(self, capsys, tmp_path, spec):
        path = tmp_path / "bad.code"
        path.write_text(spec)
        status, _, err = run_cli(capsys, "stream", "encode", "--code", str(path), "--input", "101")
        assert status == 1
        assert err.startswith("error: line ")
        if spec == STALE_H_SPEC:
            assert "unknown key" in err

    def test_block_length_guard_fires_before_any_large_allocation(self, tmp_path):
        """n = 65535 once needed about 11 GB of byte tables: under a 1 GB
        address-space cap the guard must fail it first, with no traceback."""
        path = tmp_path / "long.code"
        path.write_text("n = 65535\ngenerator = 1\n")
        argv = ["stream", "encode", "--code", str(path), "--input", "101"]
        child = run_fresh(CLI, *argv, as_limit_kib=1_000_000, timeout=10, check=False)
        assert child.status == 1
        assert child.err.startswith("error: line 1: n: ") and "Traceback" not in child.err

    @pytest.mark.parametrize(
        "code,payload,flips",
        [
            # 200 fixed payload bits that encode without a flush cycle; two flips in every block
            pytest.param(
                "bch31",
                "00100100000001111100010111011100000010011011010110001001001001100101010110111100"
                "00001000011110100000001000110100000101010001100111001010111001101100110100011100"
                "0101100000001011101011010000110100000010",
                2,
                id="bch31-2-flips",
            ),
            # 2,000 seeded payload bits that encode without a flush cycle on both codes, t flips per
            # block; the byte tables read a 7-bit word in one byte and a 23-bit word in three
            pytest.param("simplex7", format(random.Random(1).getrandbits(2000), "02000b"), 1, id="simplex7-1-flip"),
            pytest.param("golay23", format(random.Random(1).getrandbits(2000), "02000b"), 3, id="golay23-3-flips"),
            # past both guards, a clean block decodes through its zero syndrome alone
            pytest.param("bch63_39", format(random.Random(2).getrandbits(500), "0500b"), 0, id="bch63_39-clean"),
        ],
    )
    def test_round_trip_through_a_container(self, capsys, tmp_path, code, payload, flips):
        path = tmp_path / f"{code}.code"
        path.write_text(BCH63_39_SPEC if code == "bch63_39" else (PERFBENCH_CODES / path.name).read_text())
        container = str(tmp_path / "s.bin")
        argv = ["stream", "encode", "--code", str(path), "--input", payload, "--out", container]
        status, _, err = run_timed(capsys, 10, *argv, *(("--flip-per-block", str(flips)) if flips else ()))
        assert status == 0, err
        status, out, err = run_timed(capsys, 10, "stream", "decode", "--code", str(path), "--in", container)
        assert status == 0, err
        assert json.loads(out)["payload"] == payload


def test_cli_import_does_not_load_numpy():
    """Every CLI start pays for what `qbalance.cli` imports; numpy alone costs more than all of it."""
    assert run_fresh("import sys, qbalance.cli; print('numpy' in sys.modules)").out.strip() == "False"


def seeded_bits(k):
    return format(random.Random(k).getrandbits(k), f"0{k}b")


@pytest.mark.parametrize(
    "scheme,message,classification",
    [
        # seeded messages, read with 0-7 zero bits filling the last 8-bit chunk: A at n = 1024
        # (no fill) and 1026 (6 fill bits), B at n = 1024 (1 fill bit) and 1026 (7 fill bits)
        pytest.param("a", seeded_bits(1024), None, id="a-1024"),
        pytest.param("a", seeded_bits(1026), None, id="a-1026"),
        pytest.param("b", seeded_bits(1023), None, id="b-1024"),
        pytest.param("b", seeded_bits(1025), None, id="b-1026"),
        # bad words, whose replacement tail is walked again at full length
        pytest.param("a", "10" * 512, "type-0-bad", id="a-bad"),
        pytest.param("b", "10" * 511 + "1", "type-1-bad", id="b-bad"),
    ],
)
def test_long_word_round_trip(capsys, scheme, message, classification):
    status, out, err = run_timed(capsys, 10, "encode", "--scheme", scheme, "-q", "2", "--input", message)
    assert status == 0, err
    enc = json.loads(out)
    assert classification in (None, enc["classification"])
    argv = ["decode", "--scheme", scheme, "-q", "2", "--codeword", enc["codeword"], "--prefix", enc["prefix"]]
    status, out, err = run_timed(capsys, 10, *argv)
    assert status == 0, err
    assert json.loads(out)["message"] == message


@pytest.mark.parametrize(
    "module,name,argv",
    [
        pytest.param(scheme_b, "encode_b", ("encode", "--scheme", "b", "-q", "2", "--input", "1110000"), id="encode-b"),
        pytest.param(
            scheme_c,
            "decode_c",
            ("decode", "--scheme", "c", "--code", None, "--codeword", "10101100", "--prefix", "10"),
            id="decode-c",
        ),
        pytest.param(
            scheme_c, "gamma_counts_fullspace", ("analyze", "gamma", "--scheme", "c", "-n", "8"), id="gamma-c"
        ),
    ],
)
def test_scheme_table_calls_the_module_attribute(capsys, monkeypatch, code_file, module, name, argv):
    """oracle.SCHEMES looks each function up on its scheme module when called,
    so the CLI runs a patched (or traced) attribute, once; a table bound at
    import would run the original."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    status, _, err = run_cli(capsys, *[code_file if a is None else a for a in argv])
    assert status == 0, err
    assert len(calls) == 1


def readme_block(heading, lang):
    """The first ```lang block after the line that starts with `heading` in README.md."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(heading))
    first = next(i for i in range(start, len(lines)) if lines[i].startswith("```" + lang)) + 1
    end = next(i for i in range(first, len(lines)) if lines[i].startswith("```"))
    return "\n".join(lines[first:end]) + "\n"


# {argv: sha256 of stdout} of the README's CLI block and of outputs that tests
# otherwise check only in part; an output that changes on purpose edits the file
GOLDEN = json.loads((ROOT / "tests" / "golden_outputs.json").read_text())


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    """A working directory that holds the README's simplex.code and frames.bin,
    and perfbench's code files under perfbench/codes."""
    root = tmp_path_factory.mktemp("golden")
    shutil.copytree(PERFBENCH_CODES, root / "perfbench" / "codes")
    simplex = root / "simplex.code"
    simplex.write_text(SIMPLEX_SPEC)
    argv = ["--code", str(simplex), "--input", "0001011", "--out", str(root / "frames.bin")]
    assert cli.run(["stream", "encode", *argv, "--flip-per-block", "1", "--seed", "7"]) == 0
    return root


@pytest.mark.parametrize("command", list(GOLDEN))
def test_output_matches_golden(capsys, monkeypatch, golden_dir, command):
    monkeypatch.chdir(golden_dir)
    status, out, err = run_timed(capsys, 20, *shlex.split(command))
    assert status == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


class TestReadme:
    def test_golden_outputs_cover_the_cli_block(self):
        script = readme_block("## CLI", "sh").replace("\\\n", " ")
        lines = [shlex.split(line, comments=True) for line in script.splitlines()]
        commands = [shlex.join(argv[1:]) for argv in lines if argv[:1] == ["qbalance"]]
        assert len(commands) == 14
        assert set(commands) <= set(GOLDEN)

    def test_cli_block_runs(self, tmp_path):
        """Each `qbalance` line run as a module, under bash -e in an empty directory."""
        qbalance = f"{shlex.quote(sys.executable)} -m qbalance.cli "
        script = re.sub(r"(?m)^qbalance ", qbalance, readme_block("## CLI", "sh"))
        proc = subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=ENV, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_library_block_runs(self):
        run_fresh(readme_block("## Library quick reference", "python"))
