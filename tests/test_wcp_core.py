"""Quadruples, the idempotent, and the weak crossed product."""

import pytest

from conftest import dense_mat
from weakcp.fdvect import compose, identity, tensor
from weakcp.fields import GF, QQ
from weakcp.fixtures import flip_quadruple, skew_group_quadruple
from weakcp.kernel import mat_eq, rank
from weakcp.wcp import (
    PreconditionError,
    Quadruple,
    build_crossed_product,
    check_derived_identities,
    check_quadruple,
)


@pytest.fixture(params=["flip-Q", "flip-F3", "skew-F3"])
def quad(request):
    if request.param == "flip-Q":
        return flip_quadruple(QQ)
    if request.param == "flip-F3":
        return flip_quadruple(GF(3))
    return skew_group_quadruple(GF(3))[0]


def test_quadruple_axioms(quad):
    rep = check_quadruple(quad)
    assert rep.ok, rep.render()
    labels = [i.label for i in rep.items]
    assert labels == ["wmeas-wcp", "twis-wcp", "cocy2-wcp",
                      "idemp-sigma-inv", "idem-wcp", "nabla-left-linear"]


def test_nabla_idempotent(quad):
    nab = quad.nabla
    assert mat_eq(compose(nab, nab).mat, nab.mat)


def test_derived_identities(quad):
    rep = check_derived_identities(quad)
    assert rep.ok, rep.render()
    assert all(i.passed is True for i in rep.items)


def test_normalize_sigma_is_stable(quad):
    q2 = Quadruple(quad.monoid, quad.v, quad.psi,
                   compose(quad.nabla, quad.sigma))
    assert q2.normalized.passed
    assert mat_eq(compose(q2.nabla, q2.sigma).mat, q2.sigma.mat)


def test_build_crossed_product(quad):
    cp = build_crossed_product(quad)
    assert cp.report.ok, cp.report.render()
    assert cp.rank == rank(quad.nabla.mat)
    # mul is associative on the image
    obj_id = identity(cp.obj, quad.field)
    assert mat_eq(
        compose(cp.mul, tensor(cp.mul, obj_id)).mat,
        compose(cp.mul, tensor(obj_id, cp.mul)).mat,
    )
    # proj o inj = id
    assert mat_eq(compose(cp.proj, cp.inj).mat, obj_id.mat)


def test_product_mu_normalized(quad):
    mu = quad.product
    nab = quad.nabla
    ida = identity(quad.a, quad.field)
    idv = identity(quad.v, quad.field)
    av = tensor(ida, idv)
    # the product absorbs the idempotent on either input
    assert mat_eq(compose(mu, tensor(nab, av)).mat, mu.mat)
    assert mat_eq(compose(mu, tensor(av, nab)).mat, mu.mat)


def corrupted_flip(field):
    q = flip_quadruple(field)
    entries = list(q.sigma.mat.entries)
    entries[1] = field.add(entries[1], field.one())
    sigma = type(q.sigma)(q.sigma.dom, q.sigma.cod,
                          dense_mat(q.sigma.mat.rows, q.sigma.mat.cols,
                                    tuple(entries), field))
    return Quadruple(q.monoid, q.v, q.psi, sigma)


def test_build_rejects_bad_quadruple():
    bad = corrupted_flip(GF(3))
    with pytest.raises(PreconditionError) as exc:
        build_crossed_product(bad)
    assert exc.value.report.failed_labels()


def test_derived_identities_not_applicable():
    # when the twisted condition fails, c1/aw/c11/aw1 must be n/a, not FAIL
    bad = corrupted_flip(GF(3))
    rep = check_derived_identities(bad)
    by_label = {i.label: i for i in rep.items}
    if by_label["c1"].passed is None:
        assert by_label["aw"].passed is None
    assert by_label["c11"].passed is None or by_label["c11"].passed is True


def test_quadruple_shape_validation():
    from weakcp.fdvect import vobj

    q = flip_quadruple(QQ)
    with pytest.raises(Exception):
        # V claims dimension 3, psi/sigma are sized for dimension 2
        Quadruple(q.monoid, vobj("V", 3), q.psi, q.sigma)
