"""The miner against the brute-force reference path: the exchange-law
test, the expansion of DL1 and DL3 and the walk over it."""

import collections
import itertools
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakcp import fixtures, mine
from weakcp.fdvect import compose
from weakcp.fields import GF
from weakcp.fixtures import (
    MonoidPair,
    check_wdl,
    cyclic_group_algebra,
    diagonal_algebra,
    truncated_polynomial_algebra,
)
from weakcp.kernel import mat_eq
from weakcp.mine import (
    SearchTooLarge,
    _dl_polynomials,
    _exchange_law,
    _least_nullity,
    _mine,
    _walk,
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
    monoids = MonoidPair(a, b)
    law = _exchange_law(monoids)
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
    composites_agree = mat_eq(*(side.mat for side in
                                monoids.exchange(law_from_code(a, b, code))))
    assert law.holds(code) == composites_agree
    if mode == "solution":
        assert composites_agree


@pytest.mark.parametrize("p,s,t,nullity", [
    (2, 2, 2, 8), (3, 2, 2, 8), (2, 2, 3, 18), (2, 3, 3, 45),
])
def test_exchange_law_nullity(p, s, t, nullity):
    a, b = pair(p, s, t)
    law = _exchange_law(MonoidPair(a, b))
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
    brute = _mine(a, b, lambda law, axioms: range(limit))
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
    monoids = MonoidPair(a, b)
    law = _exchange_law(monoids)
    oracle = [code for code in law.codes()
              if monoids.holds(law_from_code(a, b, code))]
    return law, _walk(law, monoids.products), oracle


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
    law = _exchange_law(MonoidPair(a, b))
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
    monoids = MonoidPair(a, b)
    law = _exchange_law(monoids)
    n = law.basis.cols
    x = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                  label="x")
    digits = [sum(c * law.basis[i, j] for j, c in enumerate(x)) % p
              for i in range(law.entries)]
    lam = law_from_code(a, b, sum(d * p ** k for k, d in enumerate(digits)))
    y = [1] + x
    for (_, left, q, right), polys in zip(
            monoids.products, _dl_polynomials(law, monoids.products)):
        lhs, rhs = left(lam).mat, compose(q(lam), right(lam)).mat
        for r, (u, v) in enumerate(zip(lhs.entries, rhs.entries)):
            value = sum(c * y[i] * y[j] for (i, j), c in
                        polys.get(r, {}).items())
            assert value % p == (u - v) % p, r


def test_whiskers_built_once_per_search(monkeypatch):
    """The six whiskers of the monoids that the axioms compose a law with
    are built once per search, by its one MonoidPair, so one full check
    of a passing law builds only the six tensors that contain the law."""
    built = collections.Counter()
    original = fixtures.tensor

    def spy(*fs):
        built[fs] += 1
        return original(*fs)

    monkeypatch.setattr(fixtures, "tensor", spy)
    a, b = pair(2, 2, 2)
    assert mine_wdl(a, b).total == mine.REFERENCE_TOTAL
    for key in [(b.unit, a.obj), (b.obj, a.unit), (b.obj, a.mul),
                (b.mul, a.obj), (a.mul, b.obj), (a.obj, b.mul)]:
        assert built[key] == 1, key
    s, lam = mine.mined_law()
    monoids = MonoidPair(s, s)
    assert monoids.holds(lam)
    built.clear()
    assert monoids.holds(lam)
    assert sum(built.values()) == 6


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_check_wdl_agrees_with_full_check(data):
    """check-wdl passes DL1, DL3 and idem=idem on a law exactly when the
    miner's full check accepts it; both read the table of MonoidPair."""
    p = data.draw(st.sampled_from([2, 3, 5]), label="p")
    s = data.draw(st.sampled_from([1, 2]), label="s")
    t = data.draw(st.sampled_from([1, 2, 3]), label="t")
    kind_a, kind_b = (data.draw(st.sampled_from(sorted(ALGEBRAS)), label=x)
                      for x in ("A", "B"))
    a = ALGEBRAS[kind_a]("S", s, GF(p))
    b = ALGEBRAS[kind_b]("T", t, GF(p))
    monoids = MonoidPair(a, b)
    law = _exchange_law(monoids)
    if data.draw(st.booleans(), label="on the exchange law"):
        # a random solution of the exchange law, where DL1 and DL3 decide
        x = data.draw(st.lists(st.integers(0, p - 1), min_size=law.basis.cols,
                               max_size=law.basis.cols), label="x")
        digits = [sum(c * law.basis[i, j] for j, c in enumerate(x)) % p
                  for i in range(law.entries)]
    else:
        digits = data.draw(st.lists(st.integers(0, p - 1),
                                    min_size=law.entries,
                                    max_size=law.entries), label="digits")
    lam = law_from_code(a, b, sum(d * p ** k for k, d in enumerate(digits)))
    rep = check_wdl(a, b, lam)
    verdicts = {item.label: item.passed for item in rep.items}
    axioms = verdicts["DL1"] and verdicts["DL3"] and verdicts["idem=idem"]
    assert axioms == monoids.holds(lam)


def test_random_search_memory_does_not_grow_with_budget():
    # the search once kept every code it drew, 17 MB at 200,000 draws
    # and 84 MB at 1,000,000; now it keeps only the laws it reports
    a, b = pair(3, 2, 2)
    tracemalloc.start()
    try:
        mine.mine_wdl_random(a, b, seed=7, tries=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
