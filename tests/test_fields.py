"""Prime fields: the primality test and the field descriptor."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakcp.fields import GF, MR_BOUND, _is_prime, field_from_descriptor


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
