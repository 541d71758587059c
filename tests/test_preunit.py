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
from weakcp.preunit import (
    beta_nu,
    build_unital,
    check_pre_system,
    check_preunit_axioms,
    derive_psi_sigma,
    nabla_nu,
)
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
    rep = check_pre_system(q, nu)
    assert rep.ok, rep.render()


def test_preunit_axioms_for_product(preunital):
    _, q, nu = preunital
    item = check_preunit_axioms(q.product, nu, q.idav)
    assert item.passed is True


def test_nu_idempotent_equals_nabla(preunital):
    _, q, nu = preunital
    assert mat_eq(nabla_nu(q.product, nu, q.idav).mat, q.nabla.mat)


def test_build_unital_monoid(preunital):
    _, q, nu = preunital
    ucp = build_unital(build_crossed_product(q), nu)
    assert ucp.report.ok, ucp.report.render()
    assert check_monoid(ucp.monoid).ok
    # the unit is the projected preunit
    assert mat_eq(ucp.unit.mat, compose(ucp.cp.proj, nu).mat)


def test_beta_is_multiplicative(preunital):
    _, q, nu = preunital
    beta = beta_nu(q, nu)
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
    ucp = build_unital(build_crossed_product(qt), trivial_preunit(qt))
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
    with pytest.raises(PreconditionError):
        build_unital(build_crossed_product(q), bad)


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
