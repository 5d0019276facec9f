"""Bad input through the in-process CLI, as a tested contract.

Every call exits 0, 1 or 2 and raises nothing, and an exit of 1 prints
`error:` on stderr.  The argv lists are drawn from fixed seeds, a few
dozen for each command: boundary and non-numeric -n and -q, malformed
bit strings, damaged code files, damaged QBS2 containers cut from a
real simplex7 encode, and in a few draws the options that encode, decode
and trellis do not take.  Each call stays fast: the oracle runs at
n <= 12 or past its guard, the analyses at n <= 4096 or past every
guard, and the trellis only on codes with n - k <= 12.  A group of its
own reshapes such draws by the rules of the argv reader: a help flag
anywhere, `--name=value`, a trailing option with no value, `--`, an
unknown or partial command path, an abbreviated long option.
"""

import random

import pytest

from qbalance import cli
from qbalance.cyclic_code import BLOCK_MAX_N
from qbalance.scheme_a import encode_a
from qbalance.scheme_b import encode_b
from qbalance.words import BitWord

# name -> (spec, k); every n - k is at most 12
CODES = {
    "simplex7": ("# [7,3,4] simplex\nn = 7\nk = 3\ngenerator = 1,0,1,1,1\n", 3),
    "hamming7": ("n = 7\ngenerator = 1,1,0,1\n", 4),
    "bch15": ("n = 15\nk = 7\ngenerator = 1,0,0,0,1,0,1,1,1\n", 7),
    "golay23": ("n = 23\ngenerator = 1,0,1,0,1,1,1,0,0,0,1,1\n", 12),
}

NOT_NUMBERS = ["", "x", "1.5", "0x10", "1e3", "-", "--", "+", "nan", "٣", " 8 ", "8_0", "9" * 30 + "x"]
BAD_BITS = ["2", "01x1", "0b101", "-1", "1.0", "１０", "0\t1", "01\n", "\x00", "1" * 20 + "2"]
PAST = [1 << 18, (1 << 18) + 1, 1 << 20, 1 << 40, 10**23]  # past every analysis guard and the oracle's
SMALL_Q = [-3, -1, 0, 0, 0, 1, 2, 3, 6, 7]
ORACLE_N = [-2, 0, 1, 2, 3, 4, 5, 6, 8, 10, 11, 12, 24, 25, 31]
ANALYSIS_N = [-4, -1, 0, 1, 2, 3, 4, 5, 8, 16, 17, 64, 256, 1000, 4095, 4096]
CALLS = 60  # per command


def number(rng, small, past=PAST):
    """An -n or -q value: mostly one of `small`, else past the guards or not a number."""
    r = rng.random()
    if r < 0.75:
        return str(rng.choice(small))
    return str(rng.choice(past)) if r < 0.9 else rng.choice(NOT_NUMBERS)


def bits(rng, length=None):
    """A bit string, of `length` bits when given, or a malformed one."""
    if rng.random() < 0.15:
        return rng.choice(BAD_BITS)
    length = rng.randint(0, 20) if length is None else length
    return "".join(rng.choice("01") for _ in range(length))


def damaged_spec(rng):
    """A code file that each parse must reject: repeated or unknown keys,
    non-bit coefficients, n past BLOCK_MAX_N, or no 'key = value' shape."""
    spec, _ = CODES[rng.choice(sorted(CODES))]
    lines = spec.splitlines()
    damage = rng.randrange(7)
    if damage == 0:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines[-2:]))  # a key set twice
    elif damage == 1:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["parity_row_0 = 1,0,1", "d = 4", "N = 7", "= 1"]))
    elif damage == 2:
        coeffs = lines[-1].split("=")[1].split(",")
        coeffs[rng.randrange(len(coeffs))] = rng.choice(["2", "-1", "x", "", "1.0", "0b1"])
        lines[-1] = "generator = " + ",".join(coeffs)
    elif damage == 3:
        n = rng.choice([BLOCK_MAX_N + 1, BLOCK_MAX_N + 2, 1 << 13, 10**23])
        lines = [f"n = {n}", "generator = 1,1"]
    elif damage == 4:
        lines[-1] = lines[-1].replace("=", rng.choice(["", ":", " "]))
    elif damage == 5:
        lines = [line for line in lines if not line.startswith(rng.choice(["n ", "generator"]))]
    else:
        lines = [rng.choice(["n = 0", "n = 1", "n = -7", "n = x", "n = 7", "k = 99"])] + lines[1:]
    return "\n".join(lines) + "\n"


def make_files(root):
    """Paths of the good and damaged code files and of the containers,
    written under the directory `root` (a pathlib.Path)."""
    rng = random.Random(2911)
    out = {"root": root, "codes": {}, "damaged": [], "containers": []}
    for name, (spec, k) in CODES.items():
        path = root / f"{name}.code"
        path.write_text(spec)
        out["codes"][str(path)] = k
    for i in range(30):
        path = root / f"damaged{i}.code"
        path.write_text(damaged_spec(rng))
        out["damaged"].append(str(path))
    binary = root / "binary.code"
    binary.write_bytes(bytes(rng.getrandbits(8) for _ in range(64)))
    out["damaged"] += [str(binary), str(root / "missing.code"), str(root)]

    simplex, real = str(root / "simplex7.code"), root / "real.qbs"
    payload = "".join(rng.choice("01") for _ in range(60))
    assert cli.run(["stream", "encode", "--code", simplex, "--input", payload, "--out", str(real)]) == 0
    blob = real.read_bytes()
    blobs = [b"", b"QBS2", blob + b"\x00", blob[:4] + bytes(len(blob) - 4)]
    blobs += [bytes(rng.getrandbits(8) for _ in range(rng.randrange(80))) for _ in range(5)]
    blobs += [blob[: rng.randrange(len(blob))] for _ in range(8)]
    for _ in range(20):
        flipped = bytearray(blob)
        for _ in range(rng.randint(1, 3)):
            flipped[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        blobs.append(bytes(flipped))
    for i, b in enumerate(blobs):
        path = root / f"container{i}.qbs"
        path.write_bytes(b)
        out["containers"].append(str(path))
    out["containers"] += [str(real), str(root / "missing.qbs"), str(root)]
    out["simplex"] = simplex
    return out


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return make_files(tmp_path_factory.mktemp("bad-input"))


def code_arg(rng, files):
    """(path, k) of a good code file, or of a damaged one with k None."""
    if rng.random() < 0.6:
        path = rng.choice(sorted(files["codes"]))
        return path, files["codes"][path]
    return rng.choice(files["damaged"]), None


def options(rng, argv, n, q, given=0.8):
    """argv with -n (with chance `given`) and -q each given or left out at random."""
    if rng.random() < given:
        argv += ["-n", n]
    if rng.random() < 0.7:
        argv += ["-q", q]
    return argv


def draw_encode(rng, files):
    scheme = rng.choice("abc")
    argv = ["encode", "--scheme", scheme]
    length = None
    if scheme == "c" or rng.random() < 0.1:  # a stray --code is an error for a and b
        path, length = code_arg(rng, files)
        argv += ["--code", path]
    argv += ["--input", bits(rng, length if rng.random() < 0.8 else None)]
    # -n is no encode option: a few draws pass it as bad input
    return options(rng, argv, number(rng, ANALYSIS_N[:12]), number(rng, SMALL_Q), given=0.05)


def draw_decode(rng, files):
    scheme = rng.choice("abc")
    argv = ["decode", "--scheme", scheme]
    if scheme == "c":
        path, _ = code_arg(rng, files)
        argv += ["--code", path]
    q = rng.choice([0, 1, 2, 3])
    codeword, prefix = bits(rng), bits(rng)
    if scheme != "c" and rng.random() < 0.5:
        # a real pair, then maybe one bit of it flipped or cut off
        n = 2 * rng.randint(max(1, q), 8)
        x = BitWord(rng.getrandbits(n - (scheme == "b")), n - (scheme == "b"))
        res = (encode_a if scheme == "a" else encode_b)(x, q)
        codeword, prefix = str(res.codeword), str(res.prefix)
        damage = rng.randrange(3)
        if damage == 1 and prefix:
            i = rng.randrange(len(prefix))
            prefix = prefix[:i] + "10"[int(prefix[i])] + prefix[i + 1 :]
        elif damage == 2:
            prefix = prefix[: rng.randrange(len(prefix) + 1)]
    argv += ["--codeword", codeword, "--prefix", prefix]
    q = str(q) if rng.random() < 0.8 else number(rng, SMALL_Q)
    # the codeword fixes n: a few draws pass -n as bad input
    return options(rng, argv, number(rng, ANALYSIS_N[:12]), q, given=0.05)


def draw_analyze_redundancy(rng, files):
    argv = ["analyze", "redundancy"]
    if rng.random() < 0.1:
        argv.append(rng.choice(["--table1", "--table2"]))
    if rng.random() < 0.8:
        argv += ["--scheme", rng.choice(["a", "b", "c", "optimal", "d"])]
    return options(rng, argv, number(rng, ANALYSIS_N), number(rng, SMALL_Q))


def draw_analyze_gamma(rng, files):
    argv = ["analyze", "gamma"]
    if rng.random() < 0.9:
        argv += ["--scheme", rng.choice(["a", "b", "c", "optimal"])]
    return options(rng, argv, number(rng, ANALYSIS_N), number(rng, SMALL_Q))


def draw_analyze_badwords(rng, files):
    return options(rng, ["analyze", "badwords"], number(rng, ANALYSIS_N), number(rng, SMALL_Q))


def draw_trellis(rng, files):
    path, _ = code_arg(rng, files)
    argv = ["trellis", "--code", path]
    if rng.random() < 0.1:  # an option trellis does not take, as bad input
        argv.append(rng.choice(["--gamma", "--rho", "--size"]))
    return argv


def draw_oracle_verify(rng, files):
    scheme = rng.choice("abc")
    argv = ["oracle", "verify", "--scheme", scheme]
    if scheme == "c" or rng.random() < 0.1:
        path, _ = code_arg(rng, files)
        argv += ["--code", path]
    return options(rng, argv, number(rng, ORACLE_N), number(rng, SMALL_Q))


def draw_stream_encode(rng, files):
    path, _ = code_arg(rng, files)
    argv = ["stream", "encode", "--code", path, "--input", bits(rng, rng.randint(0, 40))]
    if rng.random() < 0.3:
        root = files["root"]
        argv += ["--out", str(rng.choice([root / "out.qbs", root, root / "missing" / "out.qbs"]))]
    if rng.random() < 0.4:
        argv += ["--flip-per-block", number(rng, [-1, 0, 1, 2, 3, 8, 24], [10**23])]
    if rng.random() < 0.2:
        argv += ["--seed", number(rng, [-1, 0, 7], [10**23])]
    return argv


def draw_stream_decode(rng, files):
    path = files["simplex"] if rng.random() < 0.6 else code_arg(rng, files)[0]
    return ["stream", "decode", "--code", path, "--in", rng.choice(files["containers"])]


DRAWS = {
    "encode": draw_encode,
    "decode": draw_decode,
    "analyze-redundancy": draw_analyze_redundancy,
    "analyze-gamma": draw_analyze_gamma,
    "analyze-badwords": draw_analyze_badwords,
    "trellis": draw_trellis,
    "oracle-verify": draw_oracle_verify,
    "stream-encode": draw_stream_encode,
    "stream-decode": draw_stream_decode,
}


def check(capsys, argv):
    """One call under the contract; returns its exit status."""
    try:
        status = cli.run(argv)
    except Exception as exc:  # the contract allows no exception out of run
        pytest.fail(f"{argv!r} raised {exc!r}")
    err = capsys.readouterr().err
    assert status in (0, 1, 2), (argv, status)
    if status == 1:
        assert "error:" in err, (argv, err)
    return status


# 21 seed sets of 60 draws for each of the nine commands; the first set's ids are the bare command names
@pytest.mark.parametrize(
    "extra,command",
    [pytest.param(extra, c, id=f"{c}-{extra}" if extra else c) for extra in range(21) for c in sorted(DRAWS)],
)
def test_drawn_argv_keeps_the_exit_contract(files, capsys, extra, command):
    rng = random.Random(sorted(DRAWS).index(command) + extra * len(DRAWS))
    for _ in range(CALLS):
        check(capsys, DRAWS[command](rng, files))


VALUE_OPTIONS = "--scheme -n -q --code --input --codeword --prefix --out --flip-per-block --seed --in".split()
LONG_OPTIONS = [name for name in VALUE_OPTIONS + ["--table1", "--table2"] if name.startswith("--")]


def reshape(rng, argv):
    """argv, drawn for some command, reshaped by one rule of the parser:
    (new argv, the exit status it must give, or None for argv's own)."""
    shape = rng.choice(["help", "equals", "trailing", "dashdash", "path", "abbreviation"])
    at = rng.randint(0, len(argv))
    longs = [i for i, token in enumerate(argv) if token in LONG_OPTIONS]
    if shape == "help":  # anywhere: the help of the deepest command named
        return argv[:at] + [rng.choice(["-h", "--help"])] + argv[at:], 0
    if shape == "equals":  # --name=value reads as --name value
        out, i = [], 0
        while i < len(argv):
            joined = argv[i] in VALUE_OPTIONS and i + 1 < len(argv) and rng.random() < 0.7
            out.append(f"{argv[i]}={argv[i + 1]}" if joined else argv[i])
            i += 2 if joined else 1
        return out, None
    if shape == "dashdash":  # no positional follows "--"
        return argv[:at] + ["--"] + argv[at:], 1
    if shape == "path":  # an unknown or partial command path
        depth = 2 if argv[0] in ("analyze", "oracle", "stream") else 1
        word = argv[depth - 1]
        broken = rng.choice([word[: rng.randrange(len(word))], word + "s", word.upper(), "bogus", None])
        return argv[: depth - 1] + ([] if broken is None else [broken]) + argv[depth:], 1
    if shape == "abbreviation" and longs:  # a unique prefix is no longer a name
        i = rng.choice(longs)
        cuts = [argv[i][:k] for k in range(3, len(argv[i])) if argv[i][:k] not in VALUE_OPTIONS]
        return argv[:i] + [rng.choice(cuts)] + argv[i + 1 :], 1
    return argv + [rng.choice(VALUE_OPTIONS)], 1  # trailing, or an abbreviation with no long option: no value


def outcome(capsys, argv):
    """One call under check's contract; returns its exit status and stdout."""
    try:
        status = cli.run(argv)
    except Exception as exc:  # the contract allows no exception out of run
        pytest.fail(f"{argv!r} raised {exc!r}")
    out, err = capsys.readouterr()
    assert status in (0, 1, 2), (argv, status)
    assert status != 1 or "error:" in err, (argv, err)
    return status, out


# a group of its own, so that the seeded draws above stay as they are: each
# call reshapes a draw of a random command, and the help, "--", path and
# no-value shapes fix the exit status whatever the draw was
@pytest.mark.parametrize("seed", range(8))
def test_parser_shapes_keep_the_exit_contract(files, capsys, seed):
    rng = random.Random(10_000 + seed)
    for _ in range(CALLS):
        argv = DRAWS[rng.choice(sorted(DRAWS))](rng, files)
        shaped, want = reshape(rng, argv)
        status, out = outcome(capsys, shaped)
        if want is None:
            assert (status, out) == outcome(capsys, argv), (shaped, argv)
        else:
            assert status == want, (shaped, status)
        if want == 0:
            assert out.startswith("usage: qbalance"), (shaped, out)


@pytest.mark.parametrize("scheme", ["a", "b"])
@pytest.mark.parametrize("n", [1 << 40, 10**23])
def test_oracle_n_past_any_message_space(capsys, scheme, n):
    # the guard built 1 << n to compare it: a MemoryError at 2^40, an OverflowError at 10^23
    assert check(capsys, ["oracle", "verify", "--scheme", scheme, "-n", str(n)]) == 1


@pytest.mark.parametrize("scheme,n", [("a", -4), ("b", 0), ("b", 7)])
def test_oracle_names_a_bad_block_length(capsys, scheme, n):
    # n is checked before the guard and all_words read it; the message names the block length
    assert cli.run(["oracle", "verify", "--scheme", scheme, "-n", str(n)]) == 1
    assert "block length" in capsys.readouterr().err
