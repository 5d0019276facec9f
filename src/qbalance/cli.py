"""Command-line surface: encode/decode, table reports, trellis, verification.

Single results print as JSON objects, tables as CSV; `trellis` prints
one JSON object of n, k, rho, |C*| and the |Gamma| histogram.  Bit
strings are ASCII 0/1 with the leftmost character at position 1, and
`encode`/`decode` read the block length off them or off the code file.
Every command that takes --scheme reads the scheme's row of
`oracle.SCHEMES`, the one place where a scheme's codec, |Gamma| sizer,
formulas and rho are bound.
Exit status: 0 on success, 1 on domain errors (bad flags, malformed
bits, capacity guards), 2 when `oracle verify` finds a formula/oracle
mismatch.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import random
import sys
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
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


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
                *(f"{sum(p.values()):.2f}" for p in parts),
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
            "value": sum(parts.values()),
            "decomposition": parts,
            "operational": sum(ceil.values()),
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
    if code is None and args.n is None:
        raise ValueError(f"oracle verify --scheme {args.scheme} needs -n")
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
# Parser


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser: built on the first `run`, reused by later in-process calls."""
    parser = argparse.ArgumentParser(prog="qbalance", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scheme_opts(p, schemes):
        p.add_argument("--scheme", choices=schemes, required=True)
        p.add_argument("-q", type=int, default=0)
        p.add_argument("--code", default=None, help="code-spec file (scheme c)")

    p = sub.add_parser("encode", help="encode one message")
    add_scheme_opts(p, ("a", "b", "c"))
    p.add_argument("--input", required=True, help="message bits")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode one codeword+prefix pair")
    add_scheme_opts(p, ("a", "b", "c"))
    p.add_argument("--codeword", required=True)
    p.add_argument("--prefix", default="")
    p.set_defaults(func=_cmd_decode)

    analyze = sub.add_parser("analyze", help="redundancy tables and censuses")
    asub = analyze.add_subparsers(dest="analysis", required=True)

    p = asub.add_parser("redundancy")
    p.add_argument("--scheme", choices=("a", "b", "c", "optimal"), default=None, help="default b")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("-q", type=int, default=0)
    tables = p.add_mutually_exclusive_group()
    tables.add_argument("--table1", action="store_true", help="balanced comparison table (q=0)")
    tables.add_argument("--table2", action="store_true", help="q=6 comparison table")
    p.set_defaults(func=_cmd_analyze_redundancy)

    p = asub.add_parser("gamma")
    p.add_argument("--scheme", choices=("a", "b", "c"), required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-q", type=int, default=0)
    p.set_defaults(func=_cmd_analyze_gamma)

    p = asub.add_parser("badwords")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.set_defaults(func=_cmd_analyze_badwords)

    p = sub.add_parser("trellis", help="gamma/rho/|C*| of a cyclic code")
    p.add_argument("--code", required=True)
    p.set_defaults(func=_cmd_trellis)

    o = sub.add_parser("oracle", help="brute-force verification")
    osub = o.add_subparsers(dest="oracle_cmd", required=True)
    p = osub.add_parser("verify")
    add_scheme_opts(p, ("a", "b", "c"))
    p.add_argument("-n", type=int, default=None, help="block length (schemes a and b)")
    p.set_defaults(func=_cmd_oracle_verify)

    s = sub.add_parser("stream", help="prefix-chained stream codec")
    ssub = s.add_subparsers(dest="stream_cmd", required=True)
    p = ssub.add_parser("encode")
    p.add_argument("--code", required=True)
    p.add_argument("--input", required=True, help="payload bits")
    p.add_argument("--out", default=None, help="container file")
    p.add_argument("--flip-per-block", type=int, default=0)
    p.add_argument("--seed", type=int, default=None, help="flip positions (default 0)")
    p.set_defaults(func=_cmd_stream_encode)
    p = ssub.add_parser("decode")
    p.add_argument("--code", required=True)
    p.add_argument("--in", dest="infile", required=True, help="container file")
    p.set_defaults(func=_cmd_stream_decode)

    return parser


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract reserves 2 for
        # verification failures, so remap.
        return 0 if exc.code == 0 else 1
    # the exact counts run past the 4,300 digits that str(int) takes by
    # default (Python 3.10.7+); the old limit comes back for in-process callers
    digits = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    try:
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
