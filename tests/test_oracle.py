import pytest

from qbalance.errors import CapacityError
from qbalance.oracle import (
    census_bad_a,
    count_paths_brute,
    definitional_gamma,
    exhaustive_redundancy,
    roundtrip_all,
    verify_scheme,
)
from qbalance.scheme_a import count_bad, rho_a_bound
from qbalance.scheme_b import rho_b
from qbalance.words import BitWord


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
        report = exhaustive_redundancy("c-code", 8, code=simplex)
        assert report.gamma == {1: 2, 2: 1, 4: 1}
        assert report.analytical == pytest.approx(2.25)

    def test_fullspace_gamma(self):
        report = exhaustive_redundancy("c-fullspace", 8)
        assert report.gamma == {1: 40, 2: 12, 3: 8, 4: 10}

    def test_operational_dominates_analytical(self):
        for scheme, n, q in [("a", 8, 0), ("a", 8, 2), ("b", 8, 0), ("b", 10, 2)]:
            report = exhaustive_redundancy(scheme, n, q)
            assert report.analytical <= report.operational + 1e-12

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            exhaustive_redundancy("a", 30, 0)


class TestRoundtrip:
    def test_scheme_a(self):
        assert roundtrip_all("a", 12, 2) == (True, None)

    def test_scheme_b(self):
        assert roundtrip_all("b", 12, 3) == (True, None)

    def test_scheme_c(self, simplex):
        assert roundtrip_all("c", 8, code=simplex) == (True, None)


class TestDefinitionalGamma:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            definitional_gamma("z", BitWord.from_str("0101"))

    def test_scheme_a_small(self):
        assert definitional_gamma("a", BitWord.from_str("10011111"), 2) == [0, 1, 3, 6, 7, 8]


class TestVerify:
    def test_scheme_a_passes(self):
        result = verify_scheme("a", 10, 2)
        assert result["ok"] and result["roundtrip"] and result["gamma_match"]

    def test_scheme_b_passes(self):
        result = verify_scheme("b", 10, 1)
        assert result["ok"]


class TestBrutePathCounts:
    def test_free(self):
        assert count_paths_brute((0, 0), (3, 3)) == 20

    def test_band_excludes_endpoint(self):
        from qbalance.lattice import PathBand

        assert count_paths_brute((0, 5), (2, 6), band=PathBand(-1, 1)) == 0
