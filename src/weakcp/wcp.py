"""Weak crossed products.

The central datum is a quadruple (A, V, psi, sigma): a monoid A, a space V,
a weak measuring psi : V (x) A -> A (x) V and a cocycle-like map
sigma : V (x) V -> A (x) V.  From these the engine builds the canonical
idempotent on A (x) V, the crossed product on its split image, and decides
every defining and derived identity by exact matrix comparison.
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
    identity,
    tensor,
    vobj,
)
from .kernel import split_idempotent
from .report import Report, ReportItem


class PreconditionError(ValueError):
    """A construction was attempted on data failing its preconditions.

    Carries the report whose failing items explain which identities broke.
    """

    def __init__(self, message, report: Report):
        super().__init__(message)
        self.report = report


def require(rep: Report, what: str) -> Report:
    """Return ``rep`` if no item failed, else raise a PreconditionError
    naming the failed labels after ``what``."""
    if not rep.ok:
        raise PreconditionError(f"{what}: " + ", ".join(rep.failed_labels()), rep)
    return rep


@dataclass(frozen=True)
class Quadruple:
    """A quadruple (A, V, psi, sigma).

    ``psi`` must be a map V (x) A -> A (x) V and ``sigma`` a map
    V (x) V -> A (x) V; shapes are validated on construction.

    Whiskers name the objects ``a`` and ``v``, which stand for their
    identities.  ``muv`` = mu (x) V, ``mupsi`` = muv o (A (x) psi),
    ``musigma`` = muv o (A (x) sigma), the canonical idempotent ``nabla``
    and ``nabla_eta`` = nabla o (eta (x) V), the product
    ``product`` on A (x) V and the four defining conditions ``wmeas``,
    ``twisted``, ``cocycle`` and ``normalized`` are computed on first use
    and then kept, so every construction over one quadruple shares them.
    """

    monoid: MonoidData
    v: FObj
    psi: FMor
    sigma: FMor

    def __post_init__(self):
        a, v = self.monoid.obj, self.v
        if (self.psi.dom.dim, self.psi.cod.dim) != ((v @ a).dim, (a @ v).dim):
            raise ValueError(
                f"psi has shape {self.psi.dom!r} -> {self.psi.cod!r}, "
                f"expected {v @ a!r} -> {a @ v!r}"
            )
        if (self.sigma.dom.dim, self.sigma.cod.dim) != ((v @ v).dim, (a @ v).dim):
            raise ValueError(
                f"sigma has shape {self.sigma.dom!r} -> {self.sigma.cod!r}, "
                f"expected {v @ v!r} -> {a @ v!r}"
            )

    @property
    def field(self):
        return self.monoid.field

    @property
    def a(self) -> FObj:
        return self.monoid.obj

    @cached_property
    def muv(self) -> FMor:
        """mu (x) V : A (x) A (x) V -> A (x) V."""
        return tensor(self.monoid.mul, self.v)

    @cached_property
    def mupsi(self) -> FMor:
        """(mu (x) V) o (A (x) psi) : A (x) V (x) A -> A (x) V."""
        return compose(self.muv, tensor(self.a, self.psi))

    @cached_property
    def musigma(self) -> FMor:
        """(mu (x) V) o (A (x) sigma) : A (x) V (x) V -> A (x) V."""
        return compose(self.muv, tensor(self.a, self.sigma))

    @cached_property
    def nabla(self) -> FMor:
        """The canonical idempotent on A (x) V.

        nabla = (mu (x) V) o (A (x) psi) o (A (x) V (x) eta).
        """
        return compose(self.mupsi, tensor(self.a, self.v, self.monoid.unit))

    @cached_property
    def nabla_eta(self) -> FMor:
        """nabla o (eta (x) V) : V -> A (x) V."""
        return compose(self.nabla, tensor(self.monoid.unit, self.v))

    @cached_property
    def product(self) -> FMor:
        """The crossed-product multiplication on A (x) V.

        mu_{A(x)V} = (mu (x) V) o (mu (x) sigma) o (A (x) psi (x) V).
        """
        return compose(
            self.muv,
            tensor(self.monoid.mul, self.sigma),
            tensor(self.a, self.psi, self.v),
        )

    @cached_property
    def wmeas(self) -> ReportItem:
        """Weak measuring: (mu(x)V) o (A(x)psi) o (psi(x)A) = psi o (V(x)mu)."""
        return check_equal(
            "wmeas-wcp",
            compose(self.mupsi, tensor(self.psi, self.a)),
            compose(self.psi, tensor(self.v, self.monoid.mul)),
        )

    @cached_property
    def twisted(self) -> ReportItem:
        """Twisted condition relating psi and sigma."""
        v = self.v
        return check_equal(
            "twis-wcp",
            compose(self.mupsi, tensor(self.sigma, self.a)),
            compose(self.musigma, tensor(self.psi, v), tensor(v, self.psi)),
        )

    @cached_property
    def cocycle(self) -> ReportItem:
        """2-cocycle condition for sigma."""
        v = self.v
        return check_equal(
            "cocy2-wcp",
            compose(self.musigma, tensor(self.sigma, v)),
            compose(self.musigma, tensor(self.psi, v), tensor(v, self.sigma)),
        )

    @cached_property
    def normalized(self) -> ReportItem:
        """nabla o sigma = sigma."""
        return check_equal(
            "idemp-sigma-inv", compose(self.nabla, self.sigma), self.sigma
        )

    def conditions(self) -> Report:
        """The four defining conditions, in registry order."""
        return Report([self.wmeas, self.twisted, self.cocycle, self.normalized])


def check_quadruple(q: Quadruple) -> Report:
    """All defining conditions plus the idempotency of nabla.

    The idempotency and left A-linearity of nabla are consequences of the
    weak measuring condition, but they are re-checked rather than trusted.
    """
    rep = q.conditions()
    nab = q.nabla
    rep.add(check_equal("idem-wcp", compose(nab, nab), nab))
    rep.add(check_equal(
        "nabla-left-linear",
        compose(nab, q.muv),
        compose(q.muv, tensor(q.a, nab)),
    ))
    return rep


def check_derived_identities(q: Quadruple) -> Report:
    """Consequences of the defining conditions, with applicability tracking.

    The first identity needs only the weak measuring condition; the next
    two hold under the twisted condition; the last two additionally need
    sigma normalized.  Identities whose hypotheses fail on the given data
    are reported as not applicable instead of being asserted.
    """
    a, v = q.a, q.v
    nab = q.nabla
    rep = Report()

    base = q.mupsi
    rep.add(check_equal_all(
        "fi-nab",
        (compose(base, tensor(nab, a)), base, ""),
        (base, compose(nab, base), ""),
    ))

    twisted = q.twisted.passed
    sig_part = compose(q.musigma, tensor(q.psi, v))
    if twisted:
        rep.add(check_equal(
            "c1",
            compose(sig_part, tensor(v, nab)),
            compose(nab, sig_part),
        ))
        rep.add(check_equal(
            "aw",
            compose(nab, q.musigma, tensor(nab, v)),
            compose(nab, q.musigma),
        ))
    else:
        note = "requires the twisted condition, which fails on this data"
        rep.add(ReportItem("c1", None, note=note))
        rep.add(ReportItem("aw", None, note=note))

    if twisted and q.normalized.passed:
        rep.add(check_equal(
            "c11",
            compose(sig_part, tensor(v, nab)),
            sig_part,
        ))
        rep.add(check_equal(
            "aw1",
            compose(q.musigma, tensor(nab, v)),
            q.musigma,
        ))
    else:
        note = "requires the twisted condition and a normalized sigma"
        rep.add(ReportItem("c11", None, note=note))
        rep.add(ReportItem("aw1", None, note=note))
    return rep


@dataclass(frozen=True)
class CrossedProduct:
    """A built weak crossed product.

    ``obj`` is the split image of ``quad.nabla`` with injection ``inj``
    and projection ``proj``; ``mul`` is the associative product that
    ``quad.product`` induces on the image, and ``id`` the identity of
    the image.  ``report`` records the defining conditions and the
    post-construction verifications.
    """

    quad: Quadruple
    obj: FObj
    inj: FMor
    proj: FMor
    mul: FMor
    id: FMor
    report: Report

    @property
    def rank(self) -> int:
        return self.obj.dim


def build_crossed_product(q: Quadruple) -> CrossedProduct:
    """Construct the weak crossed product, verifying everything.

    Preconditions (weak measuring, twisted, cocycle and a normalized
    sigma) are checked first; on failure a PreconditionError carrying the
    offending report is raised.  After the construction the associativity
    and normalization of the product are re-verified and the results
    recorded in the returned report.
    """
    rep = require(q.conditions(), "quadruple fails")

    s = split_idempotent(q.nabla.mat)
    av = q.a @ q.v
    vname = ".".join(n for n, _ in q.v.factors) or "K"
    obj = vobj(f"({q.monoid.name}x{vname})", s.rank)
    inj = FMor(obj, av, s.inj)
    proj = FMor(av, obj, s.proj)
    nab, mu_big = q.nabla, q.product
    mul = compose(proj, mu_big, tensor(inj, inj))

    rep.add(check_equal(
        "assoc-big",
        compose(mu_big, tensor(mu_big, av)),
        compose(mu_big, tensor(av, mu_big)),
    ))
    rep.add(check_equal("normal-left", compose(nab, mu_big), mu_big))
    rep.add(check_equal(
        "normal-right", compose(mu_big, tensor(nab, nab)), mu_big
    ))
    rep.add(check_equal(
        "otra-prop", compose(mu_big, tensor(nab, av)), mu_big
    ))
    rep.add(check_equal(
        "vieja-proof", compose(mu_big, tensor(av, nab)), mu_big
    ))
    rep.add(check_equal(
        "assoc",
        compose(mul, tensor(mul, obj)),
        compose(mul, tensor(obj, mul)),
    ))
    require(rep, "construction postconditions failed")
    return CrossedProduct(quad=q, obj=obj, inj=inj, proj=proj, mul=mul,
                          id=identity(obj, q.field), report=rep)
