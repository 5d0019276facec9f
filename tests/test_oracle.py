import dataclasses
import math
import random
import re
import statistics

import pytest

from qbalance import oracle, scheme_a, scheme_b, scheme_c, trellis, words
from qbalance.cyclic_code import full_space, xor_bytes
from qbalance.errors import CapacityError
from qbalance.oracle import (
    census_bad_a,
    census_bad_b,
    count_paths_brute,
    definitional_gamma,
    exhaustive_redundancy,
    verify_scheme,
)
from qbalance.scheme_a import (
    Classification,
    count_bad,
    encode_a,
    gamma_set_a,
    histogram_sum,
    rank_width,
    rho_a_bound,
    rho_a_parts,
    rho_parts,
)
from qbalance.scheme_b import count_bad_b, encode_b, gamma_set_b, rho_b, rho_b_parts
from qbalance.scheme_c import rho_c_parts
from qbalance.words import BitWord, all_words, weight


class TestExhaustiveRedundancy:
    def test_scheme_b_analytical_matches_formula(self):
        report = exhaustive_redundancy("b", 8, 0)
        assert report.analytical == pytest.approx(rho_b(8, 0), abs=1e-12)
        assert report.analytical == pytest.approx(2.008, abs=1e-3)

    def test_scheme_a_bad_count_matches_census(self):
        report = exhaustive_redundancy("a", 8, 2)
        assert report.bad_words == count_bad(8, 2) == census_bad_a(8, 2)

    def test_scheme_a_q0_analytical_matches_bound(self):
        report = exhaustive_redundancy("a", 10, 0)
        assert report.analytical == pytest.approx(rho_a_bound(10, 0), abs=1e-12)

    def test_simplex_histogram(self, simplex):
        report = exhaustive_redundancy("c", 8, code=simplex)
        assert report.gamma == {1: 2, 2: 1, 4: 1}
        assert report.analytical == pytest.approx(2.25)

    def test_fullspace_gamma(self):
        report = exhaustive_redundancy("c", 8)
        assert report.gamma == {1: 40, 2: 12, 3: 8, 4: 10}

    def test_operational_dominates_analytical(self):
        for scheme, n, q in [("a", 8, 0), ("a", 8, 2), ("b", 8, 0), ("b", 10, 2)]:
            report = exhaustive_redundancy(scheme, n, q)
            assert report.analytical <= report.operational + 1e-12

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            exhaustive_redundancy("a", 30, 0)


def _estimate_gap(scheme, n, q, operational):
    """What the A/B estimates leave out of the mean at q > 0, in bits per message.

    The good term charges w(|Gamma|) to Type-1-good words only, so each
    Type-0-good word's w(|Gamma|) is missing, and a bad word is charged
    w(n) where it sends w(|Gamma|); w = log2, or ceil(log2) when
    operational.  Every word is Type-1-good at q = 0, so the gap is 0.
    """
    k = n if scheme == "a" else n - 1
    w = rank_width if operational else math.log2
    total = 0.0
    for x in all_words(k):
        if scheme == "a":
            res = encode_a(x, q)
            size = len(gamma_set_a(res.codeword, q))
        else:
            res = encode_b(x, q)
            size = len(gamma_set_b(res.codeword.prefix(n - 1), q))
        if res.classification is Classification.TYPE0_GOOD:
            total += w(size)
        elif res.classification.is_bad:
            total += w(size) - w(n)
    return total / (1 << k)


def _fold_cases():
    for scheme in ("a", "b"):
        for n, q in ((8, 0), (10, 0), (12, 0), (8, 2), (10, 2), (12, 3)):
            for op in (False, True):
                yield pytest.param(scheme, n, q, op, id=f"{scheme}-{n}-{q}-{'ceil' if op else 'log2'}")
    for op in (False, True):
        suffix = "-ceil" if op else ""
        for code in ("simplex", "hamming", "bch15", "golay23"):
            yield pytest.param(code, 0, 0, op, id=f"trellis-{code}{suffix}")
        for n in range(8, 17, 2):
            yield pytest.param("fullspace", n, 0, op, id=f"c-fullspace-{n}{suffix}")


def _total(parts, operational):
    """The analytical or operational total of an (analytical, operational) parts pair."""
    return sum(parts[1 if operational else 0].values())


@pytest.mark.parametrize("scheme,n,q,operational", _fold_cases())
def test_histogram_formula_matches_exhaustive(request, scheme, n, q, operational):
    """Every rho read off a |Gamma| histogram equals the mean over all messages."""
    if scheme in ("a", "b"):
        report = exhaustive_redundancy(scheme, n, q)
        estimate = _total((rho_a_parts if scheme == "a" else rho_b_parts)(n, q), operational)
        formula = estimate + _estimate_gap(scheme, n, q, operational)
    elif scheme == "fullspace":
        report = exhaustive_redundancy("c", n)
        formula = _total(rho_c_parts(n), operational)
    else:
        code = request.getfixturevalue(scheme)
        report = exhaustive_redundancy("c", code.n + 1, code=code)
        counted = trellis.build_and_count(code)
        formula = _total(rho_parts(1, histogram_sum(counted.gamma.items(), counted.code.k)), operational)
        if not operational:
            assert formula == counted.rho
    measured = report.operational if operational else report.analytical
    assert measured == pytest.approx(formula, rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "scheme,n,count",
    [("a", 64, 20_000), ("a", 1024, 50_000), ("a", 4096, 5_000), ("b", 64, 20_000), ("b", 1024, 50_000),
     ("b", 4096, 5_000), ("golay23", 0, 20_000), ("bch31", 0, 20_000)],
)
def test_mean_bits_sent_match_operational_rho(request, scheme, n, count):
    """Past the exhaustive oracle, a seeded sample of messages through the
    public encoders: the mean bits sent (the prefix, plus the appended bit
    of B and C) is within 5 standard errors of the operational rho at
    q = 0, so a codec that sends a bit too many on some class shows even
    though it round-trips."""
    rng = random.Random(n or scheme)
    if scheme in ("a", "b"):
        k, encode, appended = (n, encode_a, 0) if scheme == "a" else (n - 1, encode_b, 1)
        rho = _total((rho_a_parts if scheme == "a" else rho_b_parts)(n, 0), True)
        sent = [appended + encode(BitWord(rng.getrandbits(k), k), 0).prefix.length for _ in range(count)]
    else:
        code = request.getfixturevalue(scheme)
        rho = _total(rho_parts(1, histogram_sum(trellis.build_and_count(code).gamma.items(), code.k)), True)
        drawn = (BitWord(xor_bytes(code.encode_rows, rng.getrandbits(code.k), code.k), code.n) for _ in range(count))
        sent = [1 + scheme_c.encode_c(code, x).prefix.length for x in drawn]
    z = (statistics.fmean(sent) - rho) / (statistics.stdev(sent) / math.sqrt(count))
    assert abs(z) < 5, (statistics.fmean(sent), rho, z)


class TestRoundtrip:
    def test_scheme_a(self):
        assert exhaustive_redundancy("a", 12, 2).counterexample is None

    def test_scheme_b(self):
        assert exhaustive_redundancy("b", 12, 3).counterexample is None

    def test_scheme_c(self, simplex):
        assert exhaustive_redundancy("c", 8, code=simplex).counterexample is None


class TestDefinitionalGamma:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            definitional_gamma("z", BitWord.from_str("0101"))

    def test_scheme_a_small(self):
        assert definitional_gamma("a", BitWord.from_str("10011111"), 2) == [0, 1, 3, 6, 7, 8]

    @pytest.mark.parametrize("scheme", ["a", "b"])
    def test_references_share_no_walk_with_the_codec(self, monkeypatch, scheme):
        """With the 8-bit chunk walks broken, the definitional Gamma sets and the
        bad-word censuses still run and agree with the codec's, n <= 10, every q."""
        if scheme == "a":
            gamma_set, count, census, k = gamma_set_a, count_bad, census_bad_a, 0
        else:
            gamma_set, count, census, k = gamma_set_b, count_bad_b, census_bad_b, 1
        want = {}
        for n in range(2, 11, 2):
            for q in range(n // 2 + 1):
                weights = (n // 2 + q - k, n // 2 + q)
                gammas = {c: gamma_set(c, q) for c in all_words(n - k) if weight(c) in weights}
                want[n, q] = count(n, q), gammas

        def broken(*args):
            raise AssertionError("a reference reached an 8-bit chunk walk")

        monkeypatch.setattr(words, "level_walk", broken)
        monkeypatch.setattr(words, "fresh_walk", broken)
        for (n, q), (bad, gammas) in want.items():
            assert census(n, q) == bad, (n, q)
            for c, gamma in gammas.items():
                assert definitional_gamma(scheme, c, q) == gamma, (c, q)


class TestVerify:
    def test_scheme_a_passes(self):
        result = verify_scheme("a", 10, 2)
        assert result["ok"] and result["roundtrip"] and result["gamma_match"]

    def test_scheme_b_passes(self):
        result = verify_scheme("b", 10, 1)
        assert result["ok"]

    @pytest.mark.parametrize("n", [None, 8])
    def test_scheme_c_prints_the_same_keys(self, simplex, n):
        result = verify_scheme("c", n, code=simplex)
        assert list(result) == list(verify_scheme("a", 8, 2))
        assert result["ok"] and result["n"] == 8 and result["q"] == 0 and result["bad_match"]

    def test_scheme_c_full_space(self):
        result = verify_scheme("c", 10)
        assert result["ok"] and result["n"] == 10

    def test_scheme_c_rejects_an_n_the_code_does_not_have(self, simplex):
        with pytest.raises(ValueError, match="n=99"):
            verify_scheme("c", 99, code=simplex)

    @pytest.mark.parametrize(
        "scheme,n,q,code,error",
        [
            ("a", None, 0, None, "scheme a needs a block length n"),
            ("b", None, 0, None, "scheme b needs a block length n"),
            ("c", None, 0, None, "scheme c needs a block length n or a code"),
            ("c", 0, 0, None, "block length n=0 must be at least 2"),
            ("c", 9, 0, None, "block length 9 must be even"),
            ("c", None, 3, "simplex", "scheme c has no imbalance parameter; q=3 must be 0"),
            ("a", 8, 0, "simplex", "scheme a takes no code"),
            ("z", 8, 0, None, "unknown scheme 'z'"),
        ],
        ids=["a-no-n", "b-no-n", "c-no-n", "c-n0", "c-n9", "c-q3", "a-code", "unknown"],
    )
    @pytest.mark.parametrize("walk", [exhaustive_redundancy, verify_scheme])
    def test_each_input_is_checked_before_the_walk(self, request, walk, scheme, n, q, code, error):
        """What the CLI screens out is refused by the oracle itself, with the
        input named, rather than failing inside the walk or being dropped."""
        code = code and request.getfixturevalue(code)
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            walk(scheme, n, q, code)


def _histogram_sources():
    for n in range(2, 13, 2):
        for q in range(n // 2 + 1):
            for scheme in ("a", "b"):
                yield pytest.param(scheme, n, q, id=f"{scheme}-{n}-{q}")
    for n in range(8, 17, 2):
        yield pytest.param("c", n, 0, id=f"c-fullspace-{n}")


@pytest.mark.parametrize("scheme,n,q", _histogram_sources())
def test_every_histogram_has_one_shape(monkeypatch, scheme, n, q):
    """Every |Gamma| histogram, formula or walk, is a dict of the nonzero
    counts in ascending size, so verify_scheme compares them as they are."""
    walks = []
    walk = oracle.exhaustive_redundancy
    monkeypatch.setattr(oracle, "exhaustive_redundancy", lambda *args: walks.append(walk(*args)) or walks[-1])
    result = verify_scheme(scheme, n, q)
    if scheme == "c":
        formulas = [scheme_c.gamma_counts_fullspace(n), trellis.build_and_count(full_space(n - 1)).gamma]
    else:
        formulas = [scheme_a.gamma_counts_a(n, q) if scheme == "a" else scheme_b.gamma_counts_b(n, q)]
    (report,) = walks
    for gamma in formulas + [report.gamma]:
        assert type(gamma) is dict
        assert list(gamma) == sorted(gamma) and all(gamma.values())
    assert result["gamma_match"]
    for gamma in formulas:
        assert list(gamma.items()) == list(report.gamma.items())


BROKEN = BitWord.from_str("01100110")


def _break(monkeypatch, module, name, corrupt):
    """Replace module.name by a wrapper that passes `corrupt` the call and its result."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: corrupt(args, real(*args)))


class TestVerifyCatchesBrokenCodec:
    def test_wrong_decode(self, monkeypatch):
        flip_last = lambda args, msg: BitWord(msg.value ^ 1, msg.length) if msg == BROKEN else msg
        _break(monkeypatch, scheme_a, "decode_a", flip_last)
        result = verify_scheme("a", 8, 2)
        assert result["roundtrip"] is False and result["ok"] is False
        assert result["counterexample"] == str(BROKEN)

    @pytest.mark.parametrize("scheme,broken", [("a", BROKEN), ("b", BROKEN.prefix(7))], ids=["a", "b"])
    def test_wrong_weight_codeword(self, monkeypatch, scheme, broken):
        def heavier(args, res):
            if args[0] != broken:
                return res
            return dataclasses.replace(res, codeword=BitWord((1 << res.codeword.length) - 1, res.codeword.length))

        module, encoder = (scheme_a, "encode_a") if scheme == "a" else (scheme_b, "encode_b")
        _break(monkeypatch, module, encoder, heavier)
        result = verify_scheme(scheme, 8, 2)  # no ValueError from gamma_set_*
        assert result["roundtrip"] is False and result["ok"] is False
        assert result["counterexample"] == str(broken)

    @pytest.mark.parametrize("scheme,k", [("a", 8), ("b", 7)])
    def test_one_encode_per_message(self, monkeypatch, scheme, k):
        # one public encode and one public decode per message, so the walk checks the codec callers use
        module = scheme_a if scheme == "a" else scheme_b
        calls = {"encode": [], "decode": []}
        for name, seen in calls.items():
            _break(monkeypatch, module, f"{name}_{scheme}", lambda args, res, seen=seen: seen.append(args) or res)
        assert verify_scheme(scheme, 8, 2)["ok"]
        assert {args[0] for args in calls["encode"]} == set(all_words(k))
        assert len(calls["encode"]) == len(calls["decode"]) == 1 << k

    @pytest.mark.parametrize("scheme", ["a", "b"])
    def test_one_gamma_walk_per_codeword(self, monkeypatch, scheme):
        module, sizer = (scheme_a, "gamma_set_a") if scheme == "a" else (scheme_b, "gamma_set_b")
        calls = []
        _break(monkeypatch, module, sizer, lambda args, res: calls.append(args) or res)
        assert verify_scheme(scheme, 8, 2)["ok"]  # so the walk's histogram is the formula's
        gamma = scheme_a.gamma_counts_a(8, 2) if scheme == "a" else scheme_b.gamma_counts_b(8, 2)
        assert len(calls) == sum(gamma.values())  # one per distinct codeword: 28 for A


@pytest.mark.parametrize("scheme,broken", [("a", BROKEN), ("b", BROKEN.prefix(7))], ids=["a", "b"])
def test_wrong_length_codeword_is_a_counterexample(monkeypatch, scheme, broken):
    """Each row's decode reads n off the codeword, so the walk checks the
    length itself: a longer codeword of the right weight is named."""

    def longer(args, res):
        if args[0] != broken:
            return res
        return dataclasses.replace(res, codeword=BitWord(res.codeword.value, res.codeword.length + 2))

    module, encoder = (scheme_a, "encode_a") if scheme == "a" else (scheme_b, "encode_b")
    _break(monkeypatch, module, encoder, longer)
    result = verify_scheme(scheme, 8, 2)
    assert result["roundtrip"] is False and result["ok"] is False
    assert result["counterexample"] == str(broken)


class TestBrutePathCounts:
    def test_free(self):
        assert count_paths_brute((0, 0), (3, 3)) == 20

    def test_band_excludes_endpoint(self):
        from qbalance.lattice import PathBand

        assert count_paths_brute((0, 5), (2, 6), band=PathBand(-1, 1)) == 0
