"""Ring laws of LaurentPolynomial and the exact_div round trip, as properties.

Random small Laurent polynomials in three variables, with signed
coefficients and negative exponents, drawn by hypothesis (derandomized,
so every run draws the same examples).
"""

import pytest

from gencluster.polyring import LaurentPolynomial, VariableTable

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

TABLE = VariableTable(["x", "y", "z"])
SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True)

monomial = st.tuples(*[st.integers(-2, 3)] * 3)
coefficient = st.integers(-3, 3).filter(bool)
polynomials = st.dictionaries(monomial, coefficient, max_size=6).map(
    lambda terms: LaurentPolynomial(TABLE, terms)
)
nonzero = polynomials.filter(bool)


@SETTINGS
@hypothesis.given(polynomials, polynomials, polynomials)
def test_multiplication_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@SETTINGS
@hypothesis.given(polynomials, polynomials, polynomials)
def test_multiplication_distributes_over_addition(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@SETTINGS
@hypothesis.given(polynomials, polynomials)
def test_addition_and_multiplication_commute(a, b):
    assert a * b == b * a
    assert a + b == b + a


@SETTINGS
@hypothesis.given(polynomials, nonzero)
def test_exact_div_undoes_multiplication(a, b):
    assert (a * b).exact_div(b) == a
