import pytest

from qbalance.cyclic_code import from_generator, poly_from_coeffs


@pytest.fixture(scope="session")
def simplex():
    """[7,3,4] simplex code generated by 1 + X^2 + X^3 + X^4."""
    return from_generator(7, poly_from_coeffs([1, 0, 1, 1, 1]))


@pytest.fixture(scope="session")
def hamming():
    """[7,4,3] Hamming code generated by 1 + X + X^3."""
    return from_generator(7, poly_from_coeffs([1, 1, 0, 1]))


@pytest.fixture(scope="session")
def hamming15():
    """[15,11,3] Hamming code generated by 1 + X + X^4."""
    return from_generator(15, poly_from_coeffs([1, 1, 0, 0, 1]))


@pytest.fixture(scope="session")
def bch15():
    """[15,7,5] BCH code generated by 1 + X^4 + X^6 + X^7 + X^8."""
    return from_generator(15, poly_from_coeffs([1, 0, 0, 0, 1, 0, 1, 1, 1]))


@pytest.fixture(scope="session")
def golay23():
    """[23,12,7] binary Golay code generated by 1 + X^2 + X^4 + X^5 + X^6 + X^10 + X^11."""
    return from_generator(23, poly_from_coeffs([1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]))


@pytest.fixture(scope="session")
def bch31():
    """[31,21,5] BCH code generated by 1 + X^3 + X^5 + X^6 + X^8 + X^9 + X^10."""
    return from_generator(31, poly_from_coeffs([1, 0, 0, 1, 0, 1, 1, 0, 1, 1, 1]))


@pytest.fixture(scope="session")
def hamming63():
    """[63,57,3] Hamming code generated by the primitive 1 + X + X^6."""
    return from_generator(63, poly_from_coeffs([1, 1, 0, 0, 0, 0, 1]))


@pytest.fixture(scope="session")
def hamming127():
    """[127,120,3] Hamming code generated by the primitive 1 + X + X^7."""
    return from_generator(127, poly_from_coeffs([1, 1, 0, 0, 0, 0, 0, 1]))


@pytest.fixture(scope="session")
def bch63():
    """[63,51,5] BCH code: (1 + X + X^6)(1 + X + X^2 + X^4 + X^6), the minimal
    polynomials of alpha and alpha^3, multiplied out."""
    return from_generator(63, poly_from_coeffs([1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 1]))
