"""Preunits and unital crossed products.

A preunit is a map nu : K -> A (x) V that plays the role of a unit for the
crossed-product multiplication on A (x) V even though A (x) V itself is
not a monoid; it induces a genuine unit on the split image.  A
:class:`Preunit` owns one (quadruple, preunit) pair and decides its
preunit axioms and preunit system once.  This module builds the resulting
monoid and runs the converse direction: recovering (psi, sigma) from an
abstract associative product with preunit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fdvect import (
    FMor,
    FObj,
    MonoidData,
    check_equal,
    check_equal_all,
    compose,
    tensor,
)
from .report import Report, ReportItem
from .wcp import CrossedProduct, PreconditionError, Quadruple, require


def check_preunit_axioms(m: FMor, nu: FMor, nab: FMor) -> ReportItem:
    """nu is a preunit for m: right absorption ``nab`` = m o (X (x) nu),
    where X is m's codomain, equals left absorption and absorption of
    nu*nu."""
    return check_equal_all(
        "preunit",
        (nab, compose(m, tensor(nu, m.cod)), "right vs left"),
        (nab, compose(m, tensor(m.cod, compose(m, tensor(nu, nu)))),
         "vs squared preunit"),
    )


@dataclass(frozen=True)
class Preunit:
    """A candidate preunit nu : K -> A (x) V of the quadruple ``quad``.

    ``nabla`` = mu_{A(x)V} o (A (x) V (x) nu), ``beta`` =
    (mu (x) V) o (A (x) nu) : A -> A (x) V, the item ``axioms`` (nu is a
    preunit for ``quad.product``) and the items ``system`` of the preunit
    system are built on first use and then kept, so each is built and
    verified once.  Callers copy the items into reports of their own.
    """

    quad: Quadruple
    nu: FMor

    @cached_property
    def nabla(self) -> FMor:
        return compose(self.quad.product, tensor(self.quad.a, self.quad.v, self.nu))

    @cached_property
    def beta(self) -> FMor:
        return compose(self.quad.muv, tensor(self.quad.a, self.nu))

    @cached_property
    def axioms(self) -> ReportItem:
        q = self.quad
        return check_preunit_axioms(q.product, self.nu, self.nabla)

    @cached_property
    def system(self) -> tuple:
        """The three compatibility equations tying nu to (psi, sigma),
        and ``quad.nabla`` o nu = nu."""
        q, nu = self.quad, self.nu
        v, nab, target = q.v, q.nabla, q.nabla_eta
        return (
            check_equal(
                "pre1-wcp",
                compose(q.musigma, tensor(q.psi, v), tensor(v, nu)),
                target,
            ),
            check_equal("pre2-wcp", compose(q.musigma, tensor(nu, v)), target),
            check_equal(
                "pre3-wcp", compose(q.mupsi, tensor(nu, q.a)), self.beta
            ),
            check_equal("preunit-idemp", compose(nab, nu), nu),
        )


@dataclass(frozen=True)
class UnitalCrossedProduct:
    """A weak crossed product with preunit: a monoid on the split image."""

    cp: CrossedProduct
    pre: Preunit
    unit: FMor
    monoid: MonoidData
    report: Report


def build_unital(cp: CrossedProduct, pre: Preunit) -> UnitalCrossedProduct:
    """Extend a built crossed product to a monoid by a preunit of its
    quadruple.

    Requires ``pre``'s preunit axioms, then its preunit system; ``pre``
    verifies each once and keeps it, so a preunit that its caller has
    already verified costs nothing here.  Then checks what follows from
    them: the idempotents of psi and of nu coincide, the induced unit is
    a unit on the image (associativity there is ``cp``'s own ``assoc``
    check), and beta transported to the image is a monoid morphism.
    """
    q = cp.quad
    if pre.quad is not q:
        raise ValueError("the preunit belongs to another quadruple")
    require(Report([pre.axioms]), "not a preunit for its product")
    require(Report(list(pre.system)), "preunit system fails")
    unit = compose(cp.proj, pre.nu)
    axv = MonoidData(cp.obj.factors[0][0], cp.obj, cp.mul, unit)

    rep = Report()
    rep.add(check_equal("nu-nabla", pre.nabla, q.nabla))
    rep.add(check_equal(
        "product-unit-left", compose(cp.mul, tensor(unit, cp.obj)), cp.id
    ))
    rep.add(check_equal(
        "product-unit-right", compose(cp.mul, tensor(cp.obj, unit)), cp.id
    ))

    beta = pre.beta
    beta_mu = compose(beta, q.monoid.mul)
    rep.add(check_equal("beta-eta", compose(beta, q.monoid.unit), pre.nu))
    rep.add(check_equal(
        "beta-mult", compose(q.product, tensor(beta, beta)), beta_mu
    ))
    rep.add(check_equal(
        "beta-linear",
        beta_mu,
        compose(q.muv, tensor(q.a, beta)),
    ))
    beta_bar = compose(cp.proj, beta)
    rep.add(check_equal(
        "beta-bar-mult",
        compose(cp.mul, tensor(beta_bar, beta_bar)),
        compose(beta_bar, q.monoid.mul),
    ))
    rep.add(check_equal("beta-bar-unit", compose(beta_bar, q.monoid.unit), unit))
    require(rep, "unital construction postconditions failed")
    return UnitalCrossedProduct(cp=cp, pre=pre, unit=unit, monoid=axv, report=rep)


def derive_psi_sigma(a: MonoidData, v: FObj, m: FMor, nu: FMor):
    """Recover (psi, sigma) from an abstract product with preunit.

    Given an associative, left A-linear product m on A (x) V that is
    normalized with respect to the idempotent induced by its preunit nu,
    returns a quadruple whose canonical crossed-product multiplication
    reproduces m, together with the report of all hypothesis checks.
    """
    av = m.cod
    muv = tensor(a.mul, v)

    hyp = Report()
    hyp.add(check_equal(
        "product-assoc",
        compose(m, tensor(m, av)),
        compose(m, tensor(av, m)),
    ))
    hyp.add(check_equal(
        "product-linear",
        compose(m, tensor(muv, av)),
        compose(muv, tensor(a.obj, m)),
    ))
    nab = compose(m, tensor(av, nu))
    hyp.add(check_preunit_axioms(m, nu, nab))
    hyp.add(check_equal("product-normal-left", compose(nab, m), m))
    hyp.add(check_equal(
        "product-normal-right", compose(m, tensor(nab, nab)), m
    ))
    require(hyp, "product fails recovery hypotheses")

    beta = compose(muv, tensor(a.obj, nu))
    psi = compose(m, tensor(a.unit, v, beta))
    sigma = compose(m, tensor(a.unit, v, a.unit, v))
    psi = FMor(v @ a.obj, a.obj @ v, psi.mat)
    sigma = FMor(v @ v, a.obj @ v, sigma.mat)
    q = Quadruple(a, v, psi, sigma)

    hyp.add(check_equal("fi-wcp", q.product, m, note="round trip"))
    if not hyp.ok:
        raise PreconditionError("recovered quadruple does not reproduce the product", hyp)
    return q, hyp
