"""Preunits, the induced unit, and recovery of (psi, sigma)."""

import pytest

from conftest import trivial_preunit, trivial_quadruple
from weakcp.fdvect import UNIT, check_monoid, compose, identity, tensor
from weakcp.fields import GF, QQ
from weakcp.fixtures import (
    flip_fixture,
    skew_group_double,
)
from weakcp.kernel import Mat, mat_eq
from weakcp.preunit import Preunit, build_unital, derive_psi_sigma
from weakcp.wcp import PreconditionError, build_crossed_product


def unital_fixtures():
    for fix in (flip_fixture(QQ, "flip-Q"), flip_fixture(GF(3), "flip-F3"),
                skew_group_double(GF(3))):
        yield fix.name, fix.setup.qv, fix.nu_v


@pytest.fixture(params=list(unital_fixtures()), ids=lambda t: t[0])
def preunital(request):
    return request.param


def test_pre_system(preunital):
    _, q, nu = preunital
    system = Preunit(q, nu).system
    assert [i.label for i in system] == [
        "pre1-wcp", "pre2-wcp", "pre3-wcp", "preunit-idemp"]
    assert all(i.passed for i in system), [i.render() for i in system]


def test_preunit_axioms_for_product(preunital):
    _, q, nu = preunital
    item = Preunit(q, nu).axioms
    assert (item.label, item.passed, item.note) == ("preunit", True, "")


def test_nu_idempotent_equals_nabla(preunital):
    _, q, nu = preunital
    assert mat_eq(Preunit(q, nu).nabla.mat, q.nabla.mat)


def test_build_unital_monoid(preunital):
    _, q, nu = preunital
    ucp = build_unital(build_crossed_product(q), Preunit(q, nu))
    assert ucp.report.ok, ucp.report.render()
    assert check_monoid(ucp.monoid).ok
    # the unit is the projected preunit
    assert mat_eq(ucp.unit.mat, compose(ucp.cp.proj, nu).mat)


def test_beta_is_multiplicative(preunital):
    _, q, nu = preunital
    beta = Preunit(q, nu).beta
    mu_big = q.product
    assert mat_eq(compose(mu_big, tensor(beta, beta)).mat,
                  compose(beta, q.monoid.mul).mat)


def test_round_trip_recovery(preunital):
    _, q, nu = preunital
    q2, rep = derive_psi_sigma(q.monoid, q.v, q.product, nu)
    assert rep.ok, rep.render()
    assert mat_eq(q2.product.mat, q.product.mat)


def test_trivial_quadruple_unit():
    from weakcp.fixtures import diagonal_algebra

    a = diagonal_algebra("A", 3, QQ)
    qt = trivial_quadruple(a)
    ucp = build_unital(build_crossed_product(qt),
                       Preunit(qt, trivial_preunit(qt)))
    # the crossed product of A with a point is A itself
    assert ucp.monoid.dim == a.dim
    assert mat_eq(ucp.monoid.mul.mat, type(ucp.monoid.mul)(
        ucp.monoid.mul.dom, ucp.monoid.mul.cod, a.mul.mat
    ).mat)


def test_build_unital_rejects_bad_preunit():
    fix = flip_fixture(GF(3), "flip")
    q, nu = fix.setup.qv, fix.nu_v
    entries = list(nu.mat.entries)
    entries[0] = (entries[0] + 1) % 3
    bad = type(nu)(UNIT, nu.cod, Mat(nu.mat.rows, 1, tuple(entries), GF(3)))
    cp = build_crossed_product(q)
    # unverified: build_unital requires the preunit axioms first ...
    with pytest.raises(PreconditionError) as exc:
        build_unital(cp, Preunit(q, bad))
    assert exc.value.report.failed_labels() == ["preunit"]
    # ... then the preunit system: the zero map passes the axioms only
    zero = type(nu)(UNIT, nu.cod, Mat(nu.mat.rows, 1, (0,) * 4, GF(3)))
    with pytest.raises(PreconditionError) as exc:
        build_unital(cp, Preunit(q, zero))
    assert exc.value.report.failed_labels() == ["pre1-wcp", "pre2-wcp"]


def test_build_unital_rejects_preunit_of_another_quadruple():
    fix = flip_fixture(GF(3), "flip")
    s = fix.setup
    with pytest.raises(ValueError, match="another quadruple"):
        build_unital(build_crossed_product(s.qv), Preunit(s.qw, fix.nu_w))


def test_derive_rejects_nonassociative_product():
    fix = flip_fixture(QQ, "flip")
    q, nu = fix.setup.qv, fix.nu_v
    mu = q.product
    entries = list(mu.mat.entries)
    entries[0] = entries[0] + 1
    bad = type(mu)(mu.dom, mu.cod,
                   Mat(mu.mat.rows, mu.mat.cols, tuple(entries), QQ))
    with pytest.raises(PreconditionError):
        derive_psi_sigma(q.monoid, q.v, bad, nu)
