import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import qbalance
from qbalance import cli, oracle, scheme_a, scheme_b, trellis
from qbalance.scheme_a import encode_a
from qbalance.words import BitWord

SIMPLEX_SPEC = "n = 7\nk = 3\ngenerator = 1,0,1,1,1\n"


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

    def test_table2_counts_each_census_once(self, capsys, monkeypatch):
        calls = []
        real = scheme_a.count_bad
        monkeypatch.setattr(scheme_a, "count_bad", lambda n, q: calls.append(n) or real(n, q))
        rows = run_csv(capsys, "analyze", "redundancy", "--table2")
        assert calls == [int(r["n"]) for r in rows]

    @pytest.mark.parametrize("flag", ["--table1", "--table2"])
    def test_table_is_byte_identical_to_golden(self, capsys, flag):
        # the benchmark's recorded tables; criteria 01-04 check them only to +-0.005
        path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "golden.json")
        with open(path) as fh:
            golden = json.load(fh)["tables"][flag]
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
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qbalance.__file__)))
        path = tmp_path / "gamma.csv"
        with open(path, "w") as fh:
            argv = ["analyze", "gamma", "--scheme", "c", "-n", str(n)]
            subprocess.run([sys.executable, "-m", "qbalance.cli", *argv], env=env, stdout=fh, check=True)
        with open(path) as fh, long_int_strings():
            total = sum(int(row["count"]) for row in csv.DictReader(fh))
        assert total == math.comb(n, n // 2)

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
    "argv,flag",
    [
        pytest.param(("oracle", "verify", "--scheme", "c", "--code", None, "-n", "99"), "-n", id="verify-c-n"),
        # the code file fixes the block length, so even the matching one is refused
        pytest.param(("oracle", "verify", "--scheme", "c", "--code", None, "-n", "8"), "-n", id="verify-c-matching-n"),
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
        ],
    )
    def test_bad_code_file_says_where(self, capsys, tmp_path, spec):
        path = tmp_path / "bad.code"
        path.write_text(spec)
        status, _, err = run_cli(capsys, "stream", "encode", "--code", str(path), "--input", "101")
        assert status == 1
        assert err.startswith("error: line ")


def test_cli_import_does_not_load_numpy():
    """Every CLI start pays for what `qbalance.cli` imports; numpy alone costs more than all of it."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qbalance.__file__)))
    probe = "import sys, qbalance.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
