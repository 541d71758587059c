"""The example checkers (wreaths, laws, unital data) and the miner."""

import pytest

from weakcp.fdvect import identity, tensor
from weakcp.fields import GF, QQ
from weakcp.fixtures import (
    MonoidPair,
    check_brzezinski,
    check_distributive_law,
    check_dp,
    check_triple_formulas,
    check_wdl,
    check_wreath,
    check_yang_baxter,
    cyclic_group_algebra,
    diagonal_algebra,
    q_twist,
    quadruple_from_dl,
    quadruple_from_wdl,
    quantum_plane_triple,
    skew_group_double,
    skew_group_quadruple,
    triple_setup,
    truncated_polynomial_algebra,
    wdl_triple_from_law,
)
from weakcp.kernel import identity_mat, mat_eq, rank
from weakcp.mine import (
    REFERENCE_CODE,
    REFERENCE_NONDEGENERATE,
    REFERENCE_TOTAL,
    REFERENCE_WEAK,
    law_from_code,
    mine_wdl,
    mine_wdl_random,
    mined_law,
)
from weakcp.wcp import check_quadruple


# ---------------------------------------------------------------------------
# Distributive laws and wreaths
# ---------------------------------------------------------------------------


def test_quantum_plane_laws_are_strict():
    t = quantum_plane_triple()
    assert check_distributive_law(t.a, t.b, t.l1).ok
    assert check_distributive_law(t.a, t.c, t.l3).ok
    assert check_distributive_law(t.b, t.c, t.l2).ok


def test_quantum_plane_hexagon():
    t = quantum_plane_triple()
    assert check_yang_baxter(t.a, t.b, t.c, t.l1, t.l2, t.l3).passed is True


def test_wreath_from_distributive_law():
    t = quantum_plane_triple()
    tau = tensor(t.a.unit, t.b.unit)
    v = tensor(t.a.unit, t.b.mul)
    rep = check_wreath(t.a, t.b, t.l1, tau, v)
    assert rep.ok, rep.render()
    assert [i.label for i in rep.items] == ["W1", "W2", "W3", "W4", "W5", "W6"]


def test_q_twist_degree_zero_is_flip_block():
    b = truncated_polynomial_algebra("B", 2, GF(5))
    a = truncated_polynomial_algebra("A", 2, GF(5))
    lam = q_twist(b, a, 1)
    from weakcp.fdvect import swap

    assert mat_eq(lam.mat, swap(b.obj, a.obj, GF(5)).mat)


def test_strict_law_gives_quadruple_with_identity_nabla():
    t = quantum_plane_triple()
    q = quadruple_from_dl(t.a, t.b, t.l1)
    assert check_quadruple(q).ok
    assert mat_eq(q.nabla.mat, identity_mat(q.a.dim * q.v.dim, GF(5)))


# ---------------------------------------------------------------------------
# Weak distributive laws
# ---------------------------------------------------------------------------


def test_mined_law_is_wdl():
    a, lam = mined_law()
    rep = check_wdl(a, a, lam)
    assert rep.ok, rep.render()
    rep = MonoidPair(a, a).check_wdl_derived(lam)
    assert rep.ok, rep.render()


def test_mined_law_quadruple_and_rank():
    a, lam = mined_law()
    q = quadruple_from_wdl(a, a, lam)
    assert check_quadruple(q).ok
    assert rank(MonoidPair(a, a).nabla(lam).mat) == 3


def test_wdl_sigma_and_preunit_shapes():
    a, lam = mined_law()
    pair = MonoidPair(a, a)
    sig = pair.sigma(lam)
    nu = pair.preunit(lam)
    assert sig.mat.rows == a.dim * a.dim
    assert nu.mat.cols == 1
    # the preunit is the idempotent applied to eta (x) eta
    from weakcp.fdvect import compose

    assert mat_eq(nu.mat, compose(pair.nabla(lam),
                                  tensor(a.unit, a.unit)).mat)


def test_triple_closed_forms_weak():
    a, lam = mined_law()
    t = wdl_triple_from_law(a, lam)
    rep = check_triple_formulas(t)
    assert rep.ok, rep.render()


def test_triple_closed_forms_strict():
    rep = check_triple_formulas(quantum_plane_triple())
    assert rep.ok, rep.render()


# ---------------------------------------------------------------------------
# Unital (Brzezinski-type) data and its iteration
# ---------------------------------------------------------------------------


def test_skew_group_is_unital():
    q, eta_v = skew_group_quadruple()
    rep = check_brzezinski(q, eta_v)
    assert rep.ok, rep.render()
    assert mat_eq(q.nabla.mat, identity_mat(4, GF(3)))


def test_skew_group_double_pair_conditions():
    fix = skew_group_double()
    _, eta_v = skew_group_quadruple()
    from weakcp.fdvect import FMor, UNIT

    eta_w = FMor(UNIT, fix.setup.qw.v, eta_v.mat)
    rep = check_dp(fix.setup, eta_v, eta_w)
    assert rep.ok, rep.render()
    labels = [i.label for i in rep.items]
    assert labels.count("DP1") == 2 and labels.count("DP2") == 2


def test_group_algebra_is_brzezinski_over_itself():
    # C2 acting trivially on k: quadruple with V the group, sigma trivial
    q, eta_v = skew_group_quadruple(GF(5))
    assert check_brzezinski(q, eta_v).ok


# ---------------------------------------------------------------------------
# The miner
# ---------------------------------------------------------------------------


def test_law_encoding_is_positional():
    a = diagonal_algebra("S", 2, GF(2))
    lam = law_from_code(a, a, 1)
    assert lam.mat.entries[0] == 1
    assert sum(lam.mat.entries) == 1
    lam = law_from_code(a, a, 2)
    assert lam.mat.entries[1] == 1


def test_exhaustive_mine_reference_counts():
    a = diagonal_algebra("S", 2, GF(2))
    b = diagonal_algebra("T", 2, GF(2))
    result = mine_wdl(a, b)
    assert result.total == REFERENCE_TOTAL
    assert result.weak == REFERENCE_WEAK
    assert result.nondegenerate == REFERENCE_NONDEGENERATE
    codes = [law.code for law in result.laws]
    assert codes == sorted(codes)
    assert REFERENCE_CODE in codes


def test_reference_law_properties():
    a, lam = mined_law()
    info = next(
        law for law in mine_wdl(a, a).laws if law.code == REFERENCE_CODE
    )
    assert info.nabla_rank == 3
    assert info.self_yang_baxter
    assert mat_eq(info.law.mat, lam.mat)


def test_random_mine_is_deterministic():
    a = diagonal_algebra("S", 2, GF(2))
    b = diagonal_algebra("T", 2, GF(2))
    r1 = mine_wdl_random(a, b, seed=123, tries=3000)
    r2 = mine_wdl_random(a, b, seed=123, tries=3000)
    assert [law.code for law in r1.laws] == [law.code for law in r2.laws]
    assert (r1.total, r1.weak, r1.nondegenerate) == \
        (r2.total, r2.weak, r2.nondegenerate)


def test_mine_rejects_rationals():
    a = diagonal_algebra("S", 2, QQ)
    with pytest.raises(ValueError):
        mine_wdl(a, a, limit=1)


def test_flip_law_on_group_algebra_is_strict():
    a = cyclic_group_algebra("G", 2, GF(3))
    b = cyclic_group_algebra("H", 2, GF(3))
    from weakcp.fdvect import swap

    assert check_distributive_law(a, b, swap(b.obj, a.obj, GF(3))).ok
