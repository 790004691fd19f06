import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsegre import GaussRat, MalformedInput

small_fracs = st.builds(
    Fraction, st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=12)
)
gaussrats = st.builds(GaussRat, small_fracs, small_fracs)


def test_basic_arithmetic():
    a = GaussRat(Fraction(1, 2), Fraction(3, 4))
    b = GaussRat(2, -1)
    assert a + b == GaussRat(Fraction(5, 2), Fraction(-1, 4))
    assert a * b == GaussRat(Fraction(7, 4), 1)
    assert (a / b) * b == a
    assert -a + a == GaussRat(0)
    assert a.conjugate().conjugate() == a


def test_string_parts_follow_the_fraction_literal_rule():
    assert GaussRat("1/2", "-3") == GaussRat(Fraction(1, 2), -3)
    # an exponent is refused before Fraction expands it into a 3.3M-bit denominator
    start = time.perf_counter()
    for text, match in (("x", "re: bad fraction literal"), ("1/0", "re: bad fraction literal"),
                        ("1e-1000000", "re: exponent not allowed")):
        with pytest.raises(MalformedInput, match=match):
            GaussRat(text)
    with pytest.raises(MalformedInput, match="im: exponent"):
        GaussRat(0, "1E5")
    assert time.perf_counter() - start < 0.1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussRat(1) / GaussRat(0)


def test_abs_sq_is_exact():
    z = GaussRat(Fraction(3, 5), Fraction(4, 5))
    assert z.abs_sq() == Fraction(1)
    assert abs(z) == 1.0
    assert complex(z) == complex(0.6, 0.8)


def test_integer_interop():
    z = GaussRat(1, 2)
    assert 2 * z == GaussRat(2, 4)
    assert z + 1 == GaussRat(2, 2)
    assert 1 - z == GaussRat(0, -2)
    # every exponent against repeated multiplication, past e = 100, where CPython's complex ** changes method
    for w in (z, GaussRat(Fraction(-2, 3), Fraction(5, 7))):
        product = GaussRat(1)
        for e in range(131):
            assert w ** e == product
            product = product * w


def test_a_bool_is_not_an_exact_scalar():
    # the one exact-scalar rule, gaussrat.exact_scalar: states and evaluate refuse a bool too
    z = GaussRat(1)
    for op in (lambda: z + True, lambda: True + z, lambda: z * False, lambda: z - True, lambda: z / True,
               lambda: True / z, lambda: z ** True):
        with pytest.raises(TypeError):
            op()
    assert z != True  # noqa: E712
    assert z == 1 and z == Fraction(1)


def test_hash_agrees_with_equality():
    # a GaussRat equal to an int or a Fraction hashes as it does, so a set or dict key holds them once
    for q in (0, 1, -7, 2**70, Fraction(1, 3), Fraction(-22, 7), Fraction(10**40, 3)):
        assert GaussRat(q) == q and hash(GaussRat(q)) == hash(q)
    assert len({GaussRat(1), 1, Fraction(1)}) == 1


def test_str_forms():
    assert str(GaussRat(0)) == "0"
    assert str(GaussRat(Fraction(1, 2))) == "1/2"
    assert str(GaussRat(0, Fraction(-3, 4))) == "-3/4*i"
    assert str(GaussRat(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4*i"
    assert str(GaussRat(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"


@given(gaussrats, gaussrats, gaussrats)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussrats)
def test_multiplicative_inverse(z):
    if z:
        assert z / z == GaussRat(1)
        assert (GaussRat(1) / z) * z == GaussRat(1)


@given(gaussrats, gaussrats)
def test_conjugation_and_modulus(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a * b).abs_sq() == a.abs_sq() * b.abs_sq()
    assert (a * a.conjugate()) == GaussRat(a.abs_sq())

