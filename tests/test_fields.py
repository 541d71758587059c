"""The fields: the primality test, the field descriptor, the canonical
form of rationals, and exact coercion."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakcp.fields import GF, MR_BOUND, QQ, _is_prime, field_from_descriptor
from weakcp.fixtures import q_twist, truncated_polynomial_algebra
from weakcp.kernel import from_rows


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 10**5 - 1))
def test_miller_rabin_matches_trial_division(n):
    assert _is_prime(n) == trial_division(n)


@pytest.mark.parametrize("n", [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
])
def test_strong_pseudoprimes_are_composite(n):
    # each fools Miller-Rabin to a shorter prefix of the 13 bases
    assert not _is_prime(n)


def test_large_prime_resolves_at_once():
    t0 = time.perf_counter()
    assert GF(1000000000000000003).p == 1000000000000000003
    assert time.perf_counter() - t0 < 1


def test_beyond_proven_bound_rejected():
    with pytest.raises(ValueError, match="too large"):
        GF(MR_BOUND)
    with pytest.raises(ValueError, match="too large"):
        GF(2**89 - 1)  # a Mersenne prime above the bound


@pytest.mark.parametrize("p", ["7", 7.0, True, None])
def test_descriptor_p_must_be_an_integer(p):
    with pytest.raises(ValueError, match="integer"):
        field_from_descriptor({"type": "Fp", "p": p})


def _canonical(x):
    """A rational in canonical form: an int, or a Fraction that is not whole."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


# Rationals in canonical form: whole ones (ints), fractions, and zero.
rationals = st.one_of(st.integers(-10**30, 10**30), st.fractions()).map(QQ.coerce)


@settings(max_examples=500, deadline=None)
@given(rationals, rationals)
def test_rational_field_ops_canonical_and_exact(a, b):
    assert _canonical(a) and _canonical(b)
    fa, fb = Fraction(a), Fraction(b)
    results = [
        (QQ.zero(), Fraction(0)),
        (QQ.one(), Fraction(1)),
        (QQ.add(a, b), fa + fb),
        (QQ.sub(a, b), fa - fb),
        (QQ.mul(a, b), fa * fb),
        (QQ.neg(a), -fa),
        (QQ.coerce(fa), fa),
    ]
    if b:
        results += [(QQ.inv(b), 1 / fb), (QQ.div(a, b), fa / fb)]
    else:
        for op in (lambda: QQ.inv(b), lambda: QQ.div(a, b)):
            with pytest.raises(ZeroDivisionError):
                op()
    for got, want in results:
        assert _canonical(got)
        assert got == want
    assert QQ.fmt(a) == str(fa)


# Strings from the pieces Fraction's parser treats specially: signs,
# spaces, digit-group underscores, slashes, points, exponents, a Unicode
# digit and a superscript that is a digit to str.isdigit but not to int.
scalar_strings = st.one_of(
    st.text(st.sampled_from(list(" \t+-_/.eE0179٣²")), max_size=8),
    st.sampled_from(["1" * 5000, "-" + "2" * 5000, "٣" * 5000, "1" * 4300]),
)


@settings(max_examples=1000, deadline=None)
@given(scalar_strings)
def test_rational_coerce_matches_fraction(s):
    try:
        want = Fraction(s)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            QQ.coerce(s)
        assert str(got.value) == str(exc)
    else:
        got = QQ.coerce(s)
        assert _canonical(got)
        assert got == want


@pytest.mark.parametrize("p,x,want", [
    (5, Fraction(1, 2), 3),
    (5, Fraction(-1, 2), 2),
    (7, Fraction(-3, 4), 1),
    (3, Fraction(10, 4), 1),  # 5/2, reduced first
    (5, Fraction(6, 1), 1),
    (5, -7, 3),
    (5, "12", 2),
    (5, True, 1),
])
def test_prime_coerce_is_exact(p, x, want):
    assert GF(p).coerce(x) == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 101]), st.fractions())
def test_prime_coerce_inverts_the_denominator(p, x):
    f = GF(p)
    if x.denominator % p == 0:
        with pytest.raises(ValueError, match="divides its denominator"):
            f.coerce(x)
    else:
        got = f.coerce(x)
        assert 0 <= got < p
        assert got * x.denominator % p == x.numerator % p


@pytest.mark.parametrize("p,x", [(5, Fraction(1, 5)), (5, Fraction(3, 10)),
                                 (2, Fraction(1, 2))])
def test_prime_coerce_rejects_a_multiple_of_p_below(p, x):
    with pytest.raises(ValueError, match=f"{p} divides its denominator"):
        GF(p).coerce(x)


@pytest.mark.parametrize("field", [GF(5), QQ], ids=["GF5", "Q"])
@pytest.mark.parametrize("x", [2.7, 0.1, 3.0, -0.0, float("inf")])
def test_coerce_rejects_floats(field, x):
    with pytest.raises(TypeError, match="float"):
        field.coerce(x)
    with pytest.raises(TypeError, match="float"):
        from_rows([[1, x]], field)


def test_q_twist_takes_a_fraction_over_a_prime_field():
    a = truncated_polynomial_algebra("A", 2, GF(5))
    b = truncated_polynomial_algebra("B", 2, GF(5))
    half = q_twist(b, a, Fraction(1, 2))
    assert half.mat == q_twist(b, a, 3).mat
    assert half.mat != q_twist(b, a, 0).mat
