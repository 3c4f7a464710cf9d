import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from altrank.fields import FieldCtx, is_prime, prime_below
from altrank.matrices import Matrix


def test_is_prime_small():
    primes = [n for n in range(2, 40) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def test_is_prime_and_prime_below_match_a_sieve():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for d in range(2, 45):
        sieve[d * d :: d] = [False] * len(sieve[d * d :: d])
    assert [n for n in range(2000) if is_prime(n)] == [n for n in range(2000) if sieve[n]]
    below = [max(m for m in range(n) if sieve[m]) for n in range(3, 2000)]
    assert [prime_below(n) for n in range(3, 2000)] == below
    # the first primes rational rank profiles take, 2^31 - 1 being a Mersenne prime
    assert prime_below(1 << 31) == 2_147_483_647 and prime_below(2_147_483_647) == 2_147_483_629
    assert not is_prime(46_337 * 46_327)  # a product of the two largest primes below isqrt(2^31)


def test_prime_ctx_rejects_composites():
    with pytest.raises(ValueError):
        FieldCtx.prime(6)
    with pytest.raises(ValueError):
        FieldCtx.prime(1)


def test_parse_round_trip():
    for text in ("Fp:3", "Fp:101", "Q"):
        assert FieldCtx.parse(text).to_str() == text
    with pytest.raises(ValueError):
        FieldCtx.parse("Fp:4")
    with pytest.raises(ValueError):
        FieldCtx.parse("R")


def test_equality_and_hash():
    assert FieldCtx.prime(5) == FieldCtx.prime(5)
    assert FieldCtx.prime(5) != FieldCtx.prime(7)
    assert FieldCtx.rational() == FieldCtx.rational()
    assert len({FieldCtx.prime(5), FieldCtx.prime(5), FieldCtx.rational()}) == 2


def test_cardinality_at_least():
    f5 = FieldCtx.prime(5)
    assert f5.cardinality_at_least(5)
    assert not f5.cardinality_at_least(6)
    assert FieldCtx.rational().cardinality_at_least(10**9)


def test_normalize_prime():
    f7 = FieldCtx.prime(7)
    assert f7.normalize(9) == 2
    assert f7.normalize(-1) == 6
    assert f7.normalize(Fraction(1, 2)) == f7.inv(2)


@pytest.mark.parametrize(
    "x, residue",
    [(True, 1), (np.int64(-3), 2), (-3, 2), (Fraction(10, 5), 2), (Fraction(1, 2), 3)],
)
def test_normalize_coerces_int_like_and_fraction_inputs(x, residue):
    got = FieldCtx.prime(5).normalize(x)
    assert got == residue and type(got) is int
    got = FieldCtx.rational().normalize(x)
    assert got == Fraction(x) and type(got) is Fraction


def test_normalize_rational_keeps_numpy_integers_exact():
    q = FieldCtx.rational()
    got = q.normalize(np.int64(-3))
    assert got == -3 and type(got.numerator) is int
    big = q.normalize(np.int64(2**62))
    assert type(big.numerator) is int
    assert big * 4 == Fraction(2**64)


def test_normalize_rejects_denominator_divisible_by_p():
    with pytest.raises(ZeroDivisionError):
        FieldCtx.prime(5).normalize(Fraction(1, 5))


@pytest.mark.parametrize("x", [2.5, 0.1, 3.0, np.float64(2.0), Decimal("1.5"), 1j, None])
@pytest.mark.parametrize("field", ["Fp:7", "Q"])
def test_normalize_rejects_inexact_values(field, x):
    # over F_7, int(2.5) would read 2 where 5/2 is 6; over Q, Fraction(0.1)
    # is the binary fraction 3602879701896397/36028797018963968
    ctx = FieldCtx.parse(field)
    with pytest.raises(ValueError, match=re.escape(repr(x))):
        ctx.normalize(x)
    with pytest.raises(ValueError):
        Matrix(ctx, [[1, x]])


def test_normalize_rational():
    q = FieldCtx.rational()
    assert q.normalize(3) == Fraction(3)
    assert q.normalize("2/5") == Fraction(2, 5)


def test_inverse_prime():
    f11 = FieldCtx.prime(11)
    for a in range(1, 11):
        assert f11.mul(a, f11.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f11.inv(0)


def test_element_str_round_trip():
    f7 = FieldCtx.prime(7)
    for a in range(7):
        assert f7.parse_element(f7.element_to_str(a)) == a
    q = FieldCtx.rational()
    x = Fraction(-3, 7)
    assert q.parse_element(q.element_to_str(x)) == x


@pytest.mark.parametrize(
    "field, text",
    [("Q", "1/2/3"), ("Q", "1e5"), ("Q", "1/0"), ("Q", "x"), ("Fp:5", "1/2"), ("Fp:5", "")],
)
def test_malformed_element_names_the_text_and_the_field(field, text):
    with pytest.raises(ValueError) as exc:
        FieldCtx.parse(field).parse_element(text)
    assert str(exc.value) == f"malformed element {text!r} for {field}"


@pytest.mark.parametrize("text", ["Fp:x", "Fp:", "Fp:-5", "Fp:1.5"])
def test_malformed_field_spec_names_it(text):
    with pytest.raises(ValueError) as exc:
        FieldCtx.parse(text)
    assert str(exc.value) == f"unrecognized field spec {text!r}"


@given(st.integers(), st.integers())
def test_field_axioms_f13(a, b):
    f = FieldCtx.prime(13)
    a, b = f.normalize(a), f.normalize(b)
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.sub(a, b) == f.add(a, f.neg(b))
    if b != 0:
        assert f.mul(f.div(a, b), b) == a


@given(st.fractions(), st.fractions())
def test_field_axioms_rational(a, b):
    q = FieldCtx.rational()
    assert q.add(a, b) == a + b
    assert q.mul(a, b) == a * b
    if b != 0:
        assert q.div(a, b) == a / b
