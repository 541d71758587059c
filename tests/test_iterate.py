"""Iteration of two weak crossed products over a common monoid."""

import pytest

from conftest import trivial_extension, trivial_quadruple
from weakcp.fdvect import identity, swap
from weakcp.fields import GF, QQ
from weakcp.fixtures import (
    flip_fixture,
    quantum_plane_triple,
    skew_group_double,
    triple_setup,
    wdl_triple_from_law,
)
from weakcp.iterate import (
    IterSetup,
    build_iterated,
    check_iterated_preunit_hypotheses,
    check_link,
    check_sigma_conditions,
    check_twisting,
    iterated_preunit,
)
from weakcp.kernel import mat_eq, rank
from weakcp.mine import mined_law
from weakcp.preunit import Preunit
from weakcp.wcp import PreconditionError, check_quadruple


def all_doubles():
    for fix in (flip_fixture(QQ, "flip-Q"), flip_fixture(GF(3), "flip-F3"),
                skew_group_double(GF(3))):
        yield fix.name, fix.setup, fix.nu_v, fix.nu_w
    t = quantum_plane_triple()
    yield "quantum-plane", triple_setup(t), *t.preunits
    t = wdl_triple_from_law(*mined_law())
    yield "mined-577", triple_setup(t), *t.preunits


@pytest.fixture(params=list(all_doubles()), ids=lambda t: t[0])
def double(request):
    return request.param


def test_link_conditions(double):
    _, s, _, _ = double
    rep = check_link(s)
    assert rep.ok, rep.render()


def test_twisting_conditions(double):
    _, s, _, _ = double
    rep = check_twisting(s)
    assert rep.ok, rep.render()


def test_sigma_conditions(double):
    _, s, _, _ = double
    rep = check_sigma_conditions(s)
    assert rep.ok, rep.render()


def test_build_iterated(double):
    _, s, _, _ = double
    qvw, rep = build_iterated(s)
    assert rep.ok, rep.render()
    assert check_quadruple(qvw).ok
    assert qvw is s.qvw


def test_iterated_preunit(double):
    _, s, nu_v, nu_w = double
    qvw = s.qvw
    hyp = check_iterated_preunit_hypotheses(s, nu_v, nu_w)
    assert hyp.ok, hyp.render()
    pre, rep = iterated_preunit(s, Preunit(s.qv, nu_v), Preunit(s.qw, nu_w))
    assert rep.ok, rep.render()
    assert pre.quad is qvw
    assert all(i.passed for i in pre.system)
    # the kept items are the reported ones
    assert rep["iterated-preunit"].passed is pre.axioms.passed is True
    assert rep.items[-4:] == list(pre.system)


def test_iterated_preunit_rejects_preunits_of_other_quadruples():
    fix = flip_fixture(GF(3), "flip")
    s = fix.setup
    with pytest.raises(ValueError, match="setup's quadruples"):
        iterated_preunit(s, Preunit(s.qw, fix.nu_w), Preunit(s.qv, fix.nu_v))


def test_mined_idempotent_is_weak():
    a, lam = mined_law()
    t = wdl_triple_from_law(a, lam)
    s = triple_setup(t)
    nab = s.qvw.nabla
    assert rank(nab.mat) < nab.dom.dim


def test_collapse_second_factor_trivial(double):
    # W = K: the combined product is exactly the product on A (x) V
    _, s, _, _ = double
    q = s.qv
    ext = trivial_extension(q)
    qvw, rep = build_iterated(ext)
    assert rep.ok
    assert mat_eq(qvw.product.mat, q.product.mat)


def test_collapse_both_factors_trivial():
    from weakcp.fixtures import diagonal_algebra

    a = diagonal_algebra("A", 2, GF(5))
    qt = trivial_quadruple(a)
    ext = trivial_extension(qt, "K2")
    qkk, rep = build_iterated(ext)
    assert rep.ok
    assert mat_eq(qkk.product.mat, a.mul.mat)


def test_setup_validation():
    s = flip_fixture(GF(3), "flip").setup
    with pytest.raises(ValueError):
        # tau must be W (x) V -> V (x) W, not an endomap of V
        IterSetup(s.qv, s.qw, s.delta, identity(s.qv.v, GF(3)))


def test_build_iterated_rejects_broken_link():
    fix = flip_fixture(GF(3), "flip")
    s = fix.setup
    # a delta that is not a link morphism for this pair
    bad_delta = swap(s.qv.v, s.qw.v, GF(3))
    from weakcp.fdvect import FMor

    bad = IterSetup(s.qv, s.qw,
                    FMor(s.delta.dom, s.delta.cod, bad_delta.mat), s.tau)
    with pytest.raises(PreconditionError):
        build_iterated(bad)
