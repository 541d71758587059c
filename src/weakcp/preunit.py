"""Preunits and unital crossed products.

A preunit is a map nu : K -> A (x) V that plays the role of a unit for the
crossed-product multiplication on A (x) V even though A (x) V itself is
not a monoid; it induces a genuine unit on the split image.  This module
decides the preunit system for a quadruple, builds the resulting monoid,
and runs the converse direction: recovering (psi, sigma) from an abstract
associative product with preunit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fdvect import (
    FMor,
    FObj,
    MonoidData,
    check_equal,
    compose,
    identity,
    tensor,
)
from .report import Report, ReportItem
from .wcp import CrossedProduct, PreconditionError, Quadruple, require


def beta_nu(q: Quadruple, nu: FMor) -> FMor:
    """beta = (mu (x) V) o (A (x) nu) : A -> A (x) V."""
    return compose(q.muv, tensor(q.monoid.id, nu))


def nabla_nu(m: FMor, nu: FMor, id_av: FMor) -> FMor:
    """The idempotent m o (A (x) V (x) nu) induced by a preunit, where
    ``id_av`` is the identity of the codomain A (x) V of m."""
    if m.dom.dim != m.cod.dim * m.cod.dim:
        raise ValueError("product must be a binary operation on its codomain")
    return compose(m, tensor(id_av, nu))


def check_preunit_axioms(m: FMor, nu: FMor, id_av: FMor,
                         label: str = "preunit") -> ReportItem:
    """nu is a preunit for m: right and left absorption agree and equal
    absorption of nu*nu.  ``id_av`` is the identity of m's codomain."""
    right = nabla_nu(m, nu, id_av)
    left = compose(m, tensor(nu, id_av))
    square = compose(m, tensor(id_av, compose(m, tensor(nu, nu))))
    item = check_equal(label, right, left, note="right vs left")
    if item.passed:
        item = check_equal(label, right, square, note="vs squared preunit")
    if item.passed:
        item = ReportItem(label, True)
    return item


def check_pre_system(q: Quadruple, nu: FMor) -> Report:
    """The three compatibility equations tying nu to (psi, sigma)."""
    ida, idv = q.monoid.id, q.idv
    nab = q.nabla
    target = compose(nab, tensor(q.monoid.unit, idv))
    rep = Report()
    rep.add(check_equal(
        "pre1-wcp",
        compose(q.musigma, tensor(q.psi, idv), tensor(idv, nu)),
        target,
    ))
    rep.add(check_equal(
        "pre2-wcp",
        compose(q.musigma, tensor(nu, idv)),
        target,
    ))
    rep.add(check_equal(
        "pre3-wcp",
        compose(q.mupsi, tensor(nu, ida)),
        beta_nu(q, nu),
    ))
    rep.add(check_equal("preunit-idemp", compose(nab, nu), nu))
    return rep


@dataclass(frozen=True)
class UnitalCrossedProduct:
    """A weak crossed product with preunit: a monoid on the split image."""

    cp: CrossedProduct
    nu: FMor
    unit: FMor
    monoid: MonoidData
    report: Report


def build_unital(cp: CrossedProduct, nu: FMor) -> UnitalCrossedProduct:
    """Extend a built crossed product to a monoid by a verified preunit.

    The caller has verified nu's preunit system for ``cp.quad`` and its
    preunit axioms for ``cp.quad.product``; in ``iso`` these are checks
    of :func:`~weakcp.iterate.iterated_preunit` and
    :func:`~weakcp.iso.build_iso`.  This checks what follows from them:
    the idempotents of psi and of nu coincide, the induced unit is a unit
    on the image (associativity there is ``cp``'s own ``assoc`` check),
    and beta transported to the image is a monoid morphism.
    """
    q = cp.quad
    unit = compose(cp.proj, nu)
    axv = MonoidData(cp.obj.factors[0][0], cp.obj, cp.mul, unit)

    rep = Report()
    rep.add(check_equal("nu-nabla", nabla_nu(q.product, nu, q.idav), q.nabla))
    idx = cp.id
    rep.add(check_equal(
        "product-unit-left", compose(cp.mul, tensor(unit, idx)), idx
    ))
    rep.add(check_equal(
        "product-unit-right", compose(cp.mul, tensor(idx, unit)), idx
    ))

    beta = beta_nu(q, nu)
    beta_mu = compose(beta, q.monoid.mul)
    rep.add(check_equal("beta-eta", compose(beta, q.monoid.unit), nu))
    rep.add(check_equal(
        "beta-mult", compose(q.product, tensor(beta, beta)), beta_mu
    ))
    rep.add(check_equal(
        "beta-linear",
        beta_mu,
        compose(q.muv, tensor(q.monoid.id, beta)),
    ))
    beta_bar = compose(cp.proj, beta)
    rep.add(check_equal(
        "beta-bar-mult",
        compose(cp.mul, tensor(beta_bar, beta_bar)),
        compose(beta_bar, q.monoid.mul),
    ))
    rep.add(check_equal("beta-bar-unit", compose(beta_bar, q.monoid.unit), unit))
    require(rep, "unital construction postconditions failed")
    return UnitalCrossedProduct(cp=cp, nu=nu, unit=unit, monoid=axv, report=rep)


def derive_psi_sigma(a: MonoidData, v: FObj, m: FMor, nu: FMor):
    """Recover (psi, sigma) from an abstract product with preunit.

    Given an associative, left A-linear product m on A (x) V that is
    normalized with respect to the idempotent induced by its preunit nu,
    returns a quadruple whose canonical crossed-product multiplication
    reproduces m, together with the report of all hypothesis checks.
    """
    field = a.field
    av = m.cod
    id_av = identity(av, field)
    ida, idv = a.id, identity(v, field)
    muv = tensor(a.mul, idv)

    hyp = Report()
    hyp.add(check_equal(
        "product-assoc",
        compose(m, tensor(m, id_av)),
        compose(m, tensor(id_av, m)),
    ))
    hyp.add(check_equal(
        "product-linear",
        compose(m, tensor(muv, id_av)),
        compose(muv, tensor(ida, m)),
    ))
    hyp.add(check_preunit_axioms(m, nu, id_av))
    nab = nabla_nu(m, nu, id_av)
    hyp.add(check_equal("product-normal-left", compose(nab, m), m))
    hyp.add(check_equal(
        "product-normal-right", compose(m, tensor(nab, nab)), m
    ))
    require(hyp, "product fails recovery hypotheses")

    beta = compose(muv, tensor(ida, nu))
    psi = compose(m, tensor(a.unit, idv, beta))
    sigma = compose(m, tensor(a.unit, idv, a.unit, idv))
    psi = FMor(v @ a.obj, a.obj @ v, psi.mat)
    sigma = FMor(v @ v, a.obj @ v, sigma.mat)
    q = Quadruple(a, v, psi, sigma)

    hyp.add(check_equal("fi-wcp", q.product, m, note="round trip"))
    if not hyp.ok:
        raise PreconditionError("recovered quadruple does not reproduce the product", hyp)
    return q, hyp
