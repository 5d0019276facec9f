"""Command-line surface: encode/decode, table reports, trellis, verification.

Single results print as JSON objects, tables as CSV; `trellis` prints
one JSON object of n, k, rho, |C*| and the |Gamma| histogram.  Bit
strings are ASCII 0/1 with the leftmost character at position 1, and
`encode`/`decode` read the block length off them or off the code file.
Every command that takes --scheme reads the scheme's row of
`oracle.SCHEMES`, the one place where a scheme's codec, formulas and rho
are bound.
argv is read from one command table, `COMMANDS`, which maps each
command path to its handler, its help and its options; `-h`/`--help`
prints that help at every level, `--name=value` reads as `--name value`,
and option names are written in full.
Exit status: 0 on success (and after help), 1 on domain errors (bad
flags, malformed bits, capacity guards), 2 when `oracle verify` finds a
formula/oracle mismatch.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
from types import SimpleNamespace
from typing import Iterable, List, Optional

from . import oracle, scheme_a, scheme_b, scheme_c, trellis
from .cyclic_code import CyclicCode, parse_code_file
from .errors import CodingError
from .words import BitWord

TABLE1_N = (8, 16, 32, 64, 128, 256, 512)
TABLE2_N = (16, 32, 64, 128, 256, 512, 1000)
TABLE2_Q = 6


def _load_code(args) -> CyclicCode:
    """The --code file's code, which fixes the block length n + 1."""
    if args.code is None:
        raise ValueError("this command needs --code FILE")
    with open(args.code) as fh:
        return parse_code_file(fh.read())


def _code(args) -> Optional[CyclicCode]:
    """Scheme C's code; schemes A and B read none."""
    return _load_code(args) if args.scheme == "c" else None


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _emit_csv(header: List[str], rows: Iterable[Iterable[object]]) -> None:
    for row in [header, *rows]:
        print(",".join(map(str, row)))


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_encode(args) -> int:
    x = BitWord.from_str(args.input)
    res = oracle.SCHEMES[args.scheme].encode(x, args.q, _code(args))
    _emit_json(
        {
            "scheme": args.scheme,
            "codeword": str(res.codeword),
            "prefix": str(res.prefix),
            "classification": res.classification.value if res.classification else None,
            "tau": res.tau,
        }
    )
    return 0


def _cmd_decode(args) -> int:
    c = BitWord.from_str(args.codeword)
    p = BitWord.from_str(args.prefix)
    msg = oracle.SCHEMES[args.scheme].decode(c, p, args.q, _code(args))
    _emit_json({"scheme": args.scheme, "message": str(msg)})
    return 0


def _table1_rows() -> List[List[object]]:
    rows = []
    for n in TABLE1_N:
        rows.append(
            [
                n,
                f"{scheme_a.rho_a_bound(n, 0):.2f}",
                f"{scheme_b.rho_b(n, 0):.2f}",
                f"{scheme_c.rho_c_fullspace(n):.2f}",
                f"{scheme_a.optimal_redundancy(n, 0):.2f}",
                "analytical",
            ]
        )
    return rows


def _table2_rows() -> List[List[object]]:
    rows = []
    q = TABLE2_Q
    for n in TABLE2_N:
        a, a_ceil = scheme_a.rho_a_parts(n, q)
        # the prior reads the bad-word share off rho_A's bad term, bad/2^n * (2q + log2 n)
        prior = (1.0 - a["bad"] / (2 * q + math.log2(n))) * math.log2(n)
        parts = (a, a_ceil, *scheme_b.rho_b_parts(n, q))  # scheme_a, scheme_a_ceil, scheme_b, scheme_b_ceil
        rows.append(
            [
                n,
                f"{prior:.2f}",
                *(f"{scheme_a.left_sum(p.values()):.2f}" for p in parts),
                f"{scheme_a.optimal_redundancy(n, q):.2f}",
            ]
        )
    return rows


def _cmd_analyze_redundancy(args) -> int:
    if args.table1:
        _emit_csv(
            ["n", "scheme_a_q0", "scheme_b_q0", "scheme_c_fullspace", "optimal", "convention"],
            _table1_rows(),
        )
        return 0
    if args.table2:
        _emit_csv(
            [
                "n",
                "prior_lower_bound",
                "scheme_a",
                "scheme_a_ceil",
                "scheme_b",
                "scheme_b_ceil",
                "optimal",
            ],
            _table2_rows(),
        )
        return 0
    if args.n is None:
        raise ValueError("analyze redundancy needs -n (or --table1/--table2)")
    n, q, scheme = args.n, args.q, args.scheme or "b"
    optimal = scheme_a.optimal_redundancy(n, q)  # first: its guard bounds n for every scheme
    if scheme == "optimal":
        _emit_json({"scheme": "optimal", "n": n, "q": q, "value": optimal})
        return 0
    parts, ceil = oracle.SCHEMES[scheme].rho(n, q)  # scheme c over the full space
    _emit_json(
        {
            "scheme": scheme,
            "n": n,
            "q": q,
            "value": scheme_a.left_sum(parts.values()),
            "decomposition": parts,
            "operational": scheme_a.left_sum(ceil.values()),
            "optimal": optimal,
            "convention": "analytical",
        }
    )
    return 0


def _cmd_analyze_gamma(args) -> int:
    gamma = oracle.SCHEMES[args.scheme].gamma(args.n, args.q, None)  # scheme c over the full space
    _emit_csv(["i", "count"], gamma.items())
    return 0


def _cmd_analyze_badwords(args) -> int:
    n, q = args.n, args.q
    out = {"n": n, "q": q}
    for scheme in "ab":
        row = oracle.SCHEMES[scheme]
        out[f"scheme_{scheme}_bad"] = bad = row.bad(n, q)
        out[f"scheme_{scheme}_fraction"] = bad / (1 << (n - row.appended))
    _emit_json(out)
    return 0


def _cmd_trellis(args) -> int:
    code = _load_code(args)
    report = trellis.build_and_count(code)
    _emit_json(
        {
            "n": code.n,
            "k": code.k,
            "rho": report.rho,
            "codebook_size": report.codebook_size,
            "gamma": report.gamma,
        }
    )
    return 0


def _cmd_oracle_verify(args) -> int:
    code = _code(args)
    result = oracle.verify_scheme(args.scheme, args.n, args.q, code)
    _emit_json(result)
    return 0 if result["ok"] else 2


def _cmd_stream_encode(args) -> int:
    code = _load_code(args)
    if not 0 <= args.flip_per_block <= code.n + 1:
        raise ValueError(f"--flip-per-block {args.flip_per_block} out of range 0..{code.n + 1}")
    enc = scheme_c.stream_encode(code, BitWord.from_str(args.input))
    if args.flip_per_block:
        rng = random.Random(args.seed or 0)
        frames = []
        for frame in enc.frames:
            value = frame.codeword.value
            for pos in rng.sample(range(frame.codeword.length), args.flip_per_block):
                value ^= 1 << pos
            frames.append(dataclasses.replace(frame, codeword=BitWord(value, frame.codeword.length)))
        enc = dataclasses.replace(enc, frames=tuple(frames))
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(scheme_c.pack_stream(enc))
    _emit_json(
        {
            "frames": [str(f.codeword) for f in enc.frames],
            "payload_frames": enc.payload_frames,
            "final_pad": enc.final_pad,
            "flips_per_block": args.flip_per_block,
        }
    )
    return 0


def _cmd_stream_decode(args) -> int:
    code = _load_code(args)
    with open(args.infile, "rb") as fh:
        enc = scheme_c.unpack_stream(fh.read())
    payload = scheme_c.stream_decode(code, enc)
    _emit_json({"payload": str(payload), "frames": len(enc.frames)})
    return 0


# ---------------------------------------------------------------------------
# Command table

# command path -> (handler, one-line help, {option: (kind, default[, help])});
# a kind is int, str, bool for a flag, or a tuple of choices, and a default
# of ... marks a required option.  A path whose handler is None groups the
# commands below it.  A command's flags name alternatives: it takes one at most.
_SCHEME = {"--scheme": (("a", "b", "c"), ...), "-q": (int, 0)}
_CODEC = {**_SCHEME, "--code": (str, None, "code-spec file (scheme c)")}
_CODE = {"--code": (str, ..., "code-spec file")}
COMMANDS = {
    ("encode",): (_cmd_encode, "encode one message", {**_CODEC, "--input": (str, ..., "message bits")}),
    ("decode",): (_cmd_decode, "decode a codeword+prefix", {**_CODEC, "--codeword": (str, ...), "--prefix": (str, "")}),
    ("analyze",): (None, "redundancy tables and censuses", {}),
    ("analyze", "redundancy"): (_cmd_analyze_redundancy, "rho of one scheme as JSON, or Table 1 or 2 as CSV", {
        "--scheme": (("a", "b", "c", "optimal"), None, "default b"), "-n": (int, None), "-q": (int, 0),
        "--table1": (bool, False, "balanced comparison table (q=0)"), "--table2": (bool, False, "q=6 comparison table"),
    }),
    ("analyze", "gamma"): (_cmd_analyze_gamma, "|Gamma| histogram as CSV", {**_SCHEME, "-n": (int, ...)}),
    ("analyze", "badwords"): (_cmd_analyze_badwords, "bad-word census of A, B", {"-n": (int, ...), "-q": (int, ...)}),
    ("trellis",): (_cmd_trellis, "gamma/rho/|C*| of a cyclic code", _CODE),
    ("oracle",): (None, "brute-force verification", {}),
    ("oracle", "verify"): (_cmd_oracle_verify, "check formulas", {**_CODEC, "-n": (int, None, "block length (a, b)")}),
    ("stream",): (None, "prefix-chained stream codec", {}),
    ("stream", "encode"): (_cmd_stream_encode, "encode a payload into frames", {
        **_CODE, "--input": (str, ..., "payload bits"), "--out": (str, None, "container file"),
        "--flip-per-block": (int, 0), "--seed": (int, None, "flip positions (default 0)"),
    }),
    ("stream", "decode"): (_cmd_stream_decode, "decode a container", {**_CODE, "--in": (str, ..., "container file")}),
}


def _cmd_help(args) -> int:
    """Print the help of the command at args.path, the root's at ()."""
    handler, text, options = COMMANDS.get(args.path, (None, "variable-length balancing codecs and reports", {}))
    rows = [(key[-1], COMMANDS[key][1]) for key in COMMANDS if key[:-1] == args.path] + [("-h, --help", "this help")]
    for name, (kind, default, *note) in options.items():
        meta = " {" + ",".join(kind) + "}" if isinstance(kind, tuple) else {int: " N", str: " TEXT", bool: ""}[kind]
        if default is not None and kind is not bool:
            note.append("(required)" if default is ... else f"(default {default!r})")
        rows.append((name + meta, " ".join(note)))
    title = f"usage: {' '.join(('qbalance', *args.path))} {'[options]' if handler else 'COMMAND [options]'}\n\n{text}\n"
    print("\n".join([title, *(f"  {left:<28}{right}".rstrip() for left, right in rows)]))
    return 0


def _read_argv(argv: List[str]) -> SimpleNamespace:
    """The handler and option values that argv names, read from COMMANDS;
    the help of the deepest command named when -h or --help follows it.

    An option's value is the next token, which may not start with "-"
    unless a digit follows, or follows "=" in the option's own token.  The
    last of a repeated option wins; every name is written in full.
    """
    path, rest = (), list(argv)
    while rest and (*path, rest[0]) in COMMANDS:
        path += (rest.pop(0),)
    if "-h" in rest or "--help" in rest:
        return SimpleNamespace(func=_cmd_help, path=path)
    prog = " ".join(("qbalance", *path))
    handler, _, options = COMMANDS.get(path, (None, "", {}))
    if handler is None and not rest:
        raise ValueError(f"{prog} needs a command: {', '.join(key[-1] for key in COMMANDS if key[:-1] == path)}")
    given = {name: spec[1] for name, spec in options.items()}  # the defaults, ... where required
    while rest:
        name, eq, value = (token := rest.pop(0)).partition("=")
        kind = options.get(name, (None,))[0]
        if kind is None or (kind is bool and eq):
            raise ValueError(f"{prog}: unrecognized argument {token!r}")
        if kind is not bool and not eq:
            if not rest or (rest[0][:1] == "-" and not rest[0][1:2].isdecimal()):
                raise ValueError(f"{name} needs a value")
            value = rest.pop(0)
        try:
            given[name] = True if kind is bool else int(value) if kind is int else value
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"{name} {value!r}: choose from {', '.join(kind)}")
    missing = [name for name, value in given.items() if value is ...]
    flags = [name for name, value in given.items() if value is True]
    if missing or len(flags) > 1:
        raise ValueError(f"{prog} needs {', '.join(missing)}" if missing else f"{flags[0]} excludes {flags[1]}")
    # `in` is a keyword, so --in is read as args.infile
    args = {"infile" if name == "--in" else name.strip("-").replace("-", "_"): value for name, value in given.items()}
    return SimpleNamespace(command=path[0], func=handler, **args)


def _reject_unused_flags(args) -> None:
    """A flag the command would ignore is an error, not a silent no-op."""
    scheme = getattr(args, "scheme", None)
    if scheme in ("a", "b") and getattr(args, "code", None) is not None:
        raise ValueError(f"--code is for scheme c; scheme {scheme} reads no code file")
    if scheme == "c" and args.q:
        raise ValueError(f"q={args.q}: scheme c has no imbalance parameter q")
    if scheme == "c" and args.command == "oracle" and args.n is not None:
        raise ValueError(f"-n {args.n}: scheme c takes its block length from the code file")
    if getattr(args, "seed", None) is not None and not args.flip_per_block:
        raise ValueError("--seed places the flips of --flip-per-block; it has none to place")
    table = "--table1" if getattr(args, "table1", False) else "--table2" if getattr(args, "table2", False) else None
    if table:
        for flag, value in (("--scheme", scheme), ("-n", args.n), ("-q", args.q or None)):
            if value is not None:
                raise ValueError(f"{table} prints a fixed table; drop {flag}")


def run(argv: Optional[List[str]] = None) -> int:
    # the exact counts run past the 4,300 digits that str(int) takes by
    # default (Python 3.10.7+); the old limit comes back for in-process callers
    digits = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    try:
        args = _read_argv(sys.argv[1:] if argv is None else argv)
        if digits is not None:
            sys.set_int_max_str_digits(0)
        _reject_unused_flags(args)
        return args.func(args)
    except (ValueError, CodingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
