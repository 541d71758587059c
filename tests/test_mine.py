"""The miner against the brute-force reference path: the exchange-law
test, the expansion of DL1 and DL3 and the walk over it."""

import collections
import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakcp import mine
from weakcp.fdvect import compose, identity
from weakcp.fields import GF
from weakcp.fixtures import (
    cyclic_group_algebra,
    diagonal_algebra,
    truncated_polynomial_algebra,
)
from weakcp.kernel import mat_eq
from weakcp.mine import (
    SearchTooLarge,
    _dl_polynomials,
    _exchange_law,
    _law_space,
    _least_nullity,
    _mine,
    _walk,
    _wdl_predicate,
    law_from_code,
    mine_wdl,
)

# Exhaustive search over GF(3) with both monoids the two-dimensional
# diagonal algebra: 3^8 = 6,561 of the 3^16 candidates satisfy the
# exchange law.  Confirmed independently: evaluating the exchange law
# with numpy on all 3^16 candidates gives the same 6,561 codes, and the
# brute-force classifier gives the same laws on them.
GF3_TOTAL = 27
GF3_WEAK = 19
GF3_NONDEGENERATE = 18
GF3_FIRST_CODES = [0, 1, 729, 730, 19683]


def pair(p, s, t):
    return diagonal_algebra("S", s, GF(p)), diagonal_algebra("T", t, GF(p))


def summary(result):
    return [(law.code, law.nabla_rank, law.self_yang_baxter)
            for law in result.laws]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_linear_test_matches_composites(data):
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    s = data.draw(st.sampled_from([1, 2]), label="s")
    t = data.draw(st.sampled_from([1, 2, 3]), label="t")
    a, b = pair(p, s, t)
    exchange, _ = _wdl_predicate(a, b)
    law = _exchange_law(*_law_space(a, b), exchange)
    n = law.entries
    mode = data.draw(st.sampled_from(["uniform", "solution", "perturbed"]))
    if mode == "uniform":
        digits = data.draw(st.lists(st.integers(0, p - 1),
                                    min_size=n, max_size=n))
    else:
        coeffs = data.draw(st.lists(st.integers(0, p - 1),
                                    min_size=law.basis.cols,
                                    max_size=law.basis.cols))
        digits = [sum(c * law.basis[i, j] for j, c in enumerate(coeffs)) % p
                  for i in range(n)]
        if mode == "perturbed":
            k = data.draw(st.integers(0, n - 1))
            digits[k] = (digits[k] + data.draw(st.integers(1, p - 1))) % p
    code = sum(d * p ** k for k, d in enumerate(digits))
    composites_agree = mat_eq(*exchange(law_from_code(a, b, code)))
    assert law.holds(code) == composites_agree
    if mode == "solution":
        assert composites_agree


@pytest.mark.parametrize("p,s,t,nullity", [
    (2, 2, 2, 8), (3, 2, 2, 8), (2, 2, 3, 18), (2, 3, 3, 45),
])
def test_exchange_law_nullity(p, s, t, nullity):
    a, b = pair(p, s, t)
    law = _exchange_law(*_law_space(a, b), _wdl_predicate(a, b)[0])
    assert law.basis.cols == nullity


@pytest.fixture(scope="module")
def gf3_exhaustive():
    return mine_wdl(*pair(3, 2, 2))


def test_gf3_exhaustive_regression(gf3_exhaustive):
    r = gf3_exhaustive
    assert (r.total, r.weak, r.nondegenerate) == \
        (GF3_TOTAL, GF3_WEAK, GF3_NONDEGENERATE)
    codes = [law.code for law in r.laws]
    assert codes[:5] == GF3_FIRST_CODES
    assert codes == sorted(codes)


def test_null_space_path_matches_brute_force(gf3_exhaustive):
    """On a prefix of the GF(3) (2,2) space, the null-space walk and the
    linear-filtered range find exactly what the full predicate finds on
    every code."""
    a, b = pair(3, 2, 2)
    limit = 20000
    brute = _mine(a, b, lambda law, quadratic: range(limit))
    assert len(brute.laws) == 6
    fast = [law for law in summary(gf3_exhaustive) if law[0] < limit]
    assert summary(brute) == fast
    assert summary(mine_wdl(a, b, limit=limit)) == summary(brute)


def test_exhaustive_search_is_capped(monkeypatch):
    a, b = pair(2, 3, 3)
    t0 = time.perf_counter()
    with pytest.raises(SearchTooLarge, match=r"2\^45"):
        mine_wdl(a, b)
    assert time.perf_counter() - t0 < 1
    # the walk over the 2^8 solutions at GF(2) (2,2) tries 120 assignments
    monkeypatch.setattr(mine, "EXHAUSTIVE_CAP", 119)
    with pytest.raises(SearchTooLarge, match=r"2\^8 candidates"):
        mine_wdl(*pair(2, 2, 2))
    monkeypatch.setattr(mine, "EXHAUSTIVE_CAP", 120)
    assert mine_wdl(*pair(2, 2, 2)).total == mine.REFERENCE_TOTAL
    # a bounded search of the same space still runs
    assert [law.code for law in mine_wdl(a, b, limit=100).laws] == [0, 1]


def test_expansion_is_capped(monkeypatch):
    """The n^2 composites per axiom of the expansion count against the cap
    before the walk starts, so a large nullity is refused at once."""
    t0 = time.perf_counter()
    with pytest.raises(SearchTooLarge, match=r"2\^260 .* 260\^2 = 67600"):
        mine_wdl(*pair(2, 4, 5))
    assert time.perf_counter() - t0 < 1
    monkeypatch.setattr(mine, "EXHAUSTIVE_CAP", 63)
    with pytest.raises(SearchTooLarge, match=r"2\^8 candidates .* 8\^2 = 64"):
        mine_wdl(*pair(2, 2, 2))


# (p, s, t, nullity) with p^nullity <= 6,561 for p in 2, 3, 5 and dims in
# {1,2} x {1,2,3}: small enough to run accept on every solution
ORACLE_CASES = [
    (2, 1, 1, 1), (2, 1, 2, 2), (2, 1, 3, 3), (2, 2, 1, 2), (2, 2, 2, 8),
    (3, 1, 1, 1), (3, 1, 2, 2), (3, 1, 3, 3), (3, 2, 1, 2), (3, 2, 2, 8),
    (5, 1, 1, 1), (5, 1, 2, 2), (5, 1, 3, 3), (5, 2, 1, 2),
]


def _walk_and_oracle(a, b):
    """The walk's survivors, before accept, and the solutions of the
    exchange law that pass the full predicate."""
    exchange, accept = _wdl_predicate(a, b)
    law = _exchange_law(*_law_space(a, b), exchange)
    oracle = [code for code in law.codes()
              if accept(law_from_code(a, b, code))]
    return law, _walk(law, accept.quadratic), oracle


@pytest.mark.parametrize("p,s,t,nullity", ORACLE_CASES)
def test_walk_matches_null_space_oracle(p, s, t, nullity):
    law, walk, oracle = _walk_and_oracle(*pair(p, s, t))
    assert law.basis.cols == nullity
    assert walk == oracle


ALGEBRAS = {"diagonal": diagonal_algebra,
            "truncated": truncated_polynomial_algebra,
            "cyclic": cyclic_group_algebra}


@pytest.mark.parametrize("p,kind_a,kind_b", [
    (2, *kinds) for kinds in itertools.product(ALGEBRAS, repeat=2)
    if kinds != ("diagonal", "diagonal")] + [(3, "truncated", "cyclic")])
def test_walk_matches_oracle_on_other_algebras(p, kind_a, kind_b):
    """Two-dimensional algebras whose multiplications are not selections,
    so that the polynomials differ from the diagonal ones."""
    a = ALGEBRAS[kind_a]("S", 2, GF(p))
    b = ALGEBRAS[kind_b]("T", 2, GF(p))
    _, walk, oracle = _walk_and_oracle(a, b)
    assert walk == oracle


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_least_nullity_is_a_lower_bound(data):
    """The bound that refuses a search before the exchange law is solved
    never exceeds the law's nullity, whatever the monoids."""
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    s, t = (data.draw(st.integers(1, 3), label=x) for x in "st")
    kind_a, kind_b = (data.draw(st.sampled_from(sorted(ALGEBRAS)), label=x)
                      for x in ("A", "B"))
    a = ALGEBRAS[kind_a]("S", s, GF(p))
    b = ALGEBRAS[kind_b]("T", t, GF(p))
    exchange, _ = _wdl_predicate(a, b)
    law = _exchange_law(*_law_space(a, b), exchange)
    assert _least_nullity(s, t) <= law.basis.cols


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_polynomials_match_composites(data):
    """At every coordinate, each DL1 and DL3 polynomial evaluated at x is
    the defect left(lam) - q(lam) o p(lam) of lam = sum_i x_i b_i."""
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    s = data.draw(st.sampled_from([1, 2]), label="s")
    t = data.draw(st.sampled_from([1, 2, 3]), label="t")
    kind_a, kind_b = (data.draw(st.sampled_from(sorted(ALGEBRAS)), label=x)
                      for x in ("A", "B"))
    a = ALGEBRAS[kind_a]("S", s, GF(p))
    b = ALGEBRAS[kind_b]("T", t, GF(p))
    exchange, accept = _wdl_predicate(a, b)
    law = _exchange_law(*_law_space(a, b), exchange)
    n = law.basis.cols
    x = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                  label="x")
    digits = [sum(c * law.basis[i, j] for j, c in enumerate(x)) % p
              for i in range(law.entries)]
    lam = law_from_code(a, b, sum(d * p ** k for k, d in enumerate(digits)))
    y = [1] + x
    for (left, q, right), polys in zip(accept.quadratic,
                                      _dl_polynomials(law, accept.quadratic)):
        lhs, rhs = left(lam).mat, compose(q(lam), right(lam)).mat
        for r, (u, v) in enumerate(zip(lhs.entries, rhs.entries)):
            value = sum(c * y[i] * y[j] for (i, j), c in
                        polys.get(r, {}).items())
            assert value % p == (u - v) % p, r


def test_whiskers_built_once_per_search(monkeypatch):
    """eta_B (x) A, B (x) eta_A, B (x) mu_A and mu_B (x) A are built once
    per search, so one accept of a passing law builds only the six
    tensors that contain the law."""
    built = collections.Counter()
    original = mine.tensor

    def spy(f, g):
        built[f, g] += 1
        return original(f, g)

    monkeypatch.setattr(mine, "tensor", spy)
    a, b = pair(2, 2, 2)
    assert mine_wdl(a, b).total == mine.REFERENCE_TOTAL
    ida, idb = identity(a.obj, a.field), identity(b.obj, b.field)
    for key in [(b.unit, ida), (idb, a.unit), (idb, a.mul), (b.mul, ida)]:
        assert built[key] == 1, key
    s, lam = mine.mined_law()
    _, accept = _wdl_predicate(s, s)
    built.clear()
    assert accept(lam)
    assert sum(built.values()) == 6
