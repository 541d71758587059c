"""Example structures: wreaths, distributive laws, and concrete fixtures.

The first half of this module implements the classical sources of
quadruples — wreaths, (weak) distributive laws between two monoids, and
their three-monoid iterations — together with full checkers for their
axioms and derived identities.  The second half provides a set of small
concrete fixtures over exact fields that exercise every construction in
the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fdvect import (
    FMor,
    MonoidData,
    UNIT,
    algebra,
    check_equal,
    check_equal_all,
    compose,
    identity,
    mor_from_map,
    swap,
    tensor,
    vobj,
)
from .fields import GF, QQ
from .iterate import IterSetup, iterated_preunit, twisting_sides
from .kernel import identity_mat, mat_eq
from .preunit import Preunit
from .report import Report, ReportItem
from .wcp import Quadruple


# ---------------------------------------------------------------------------
# Wreaths and distributive laws between two monoids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonoidPair:
    """Two monoids A and B, for laws lam : B (x) A -> A (x) B.

    The whiskers that the law axioms compose a law with do not depend on
    the law, so each is built on first use and then kept: one pair serves
    every law it checks, and when A is B the whiskers of mu_B are those
    of mu_A.  ``products`` is the one table of DL1 and DL3 that
    ``check_distributive_law``, ``check_wdl`` and the miner read.
    """

    a: MonoidData
    b: MonoidData

    @cached_property
    def mua_b(self) -> FMor:  # mu_A (x) B
        return tensor(self.a.mul, self.b.obj)

    @cached_property
    def a_mub(self) -> FMor:  # A (x) mu_B
        return tensor(self.a.obj, self.b.mul)

    @cached_property
    def etab_a(self) -> FMor:  # eta_B (x) A
        return tensor(self.b.unit, self.a.obj)

    @cached_property
    def b_etaa(self) -> FMor:  # B (x) eta_A
        return tensor(self.b.obj, self.a.unit)

    @cached_property
    def mub_a(self) -> FMor:  # mu_B (x) A
        return self.mua_b if self.a is self.b else tensor(self.b.mul, self.a.obj)

    @cached_property
    def b_mua(self) -> FMor:  # B (x) mu_A
        return self.a_mub if self.a is self.b else tensor(self.b.obj, self.a.mul)

    @cached_property
    def products(self) -> tuple:
        """DL1 and DL3, the two axioms of a distributive law on the
        products, which a weak distributive law keeps, as
        ``(label, left, q, p)``: lam satisfies the axiom when
        ``left(lam) = q(lam) o p(lam)``.  The left side is linear in lam
        and ``q(lam1) o p(lam2)`` is bilinear, which is what lets the
        miner expand them.

        DL1: lam (mu_B (x) A) = (A (x) mu_B)(lam (x) B)(B (x) lam);
        DL3: lam (B (x) mu_A) = (mu_A (x) B)(A (x) lam)(lam (x) A).
        """
        return (
            ("DL1",
             lambda lam: compose(lam, self.mub_a),
             lambda lam: compose(self.a_mub, tensor(lam, self.b.obj)),
             lambda lam: tensor(self.b.obj, lam)),
            ("DL3",
             lambda lam: compose(lam, self.b_mua),
             lambda lam: compose(self.mua_b, tensor(self.a.obj, lam)),
             lambda lam: tensor(lam, self.a.obj)),
        )

    def check_products(self, lam: FMor) -> list:
        """DL1 and DL3 on lam, as witnessed items."""
        return [check_equal(label, left(lam), compose(q(lam), p(lam)))
                for label, left, q, p in self.products]

    def exchange(self, lam: FMor):
        """The two sides of the exchange law, which ``check-wdl`` labels
        ``idem=idem``: (A (x) mu_B)(lam(eta_B (x) A) (x) B) on the left
        and (mu_A (x) B)(A (x) lam(B (x) eta_A)) = ``nabla(lam)`` on the
        right."""
        left = compose(self.a_mub,
                       tensor(compose(lam, self.etab_a), self.b.obj))
        return left, self.nabla(lam)

    def check_wdl(self, lam: FMor) -> Report:
        """Axioms of a weak distributive law: DL1, DL3 and the exchange
        law (``idem=idem``).

        The two unit-replacement identities are checked as well; they are
        equivalent to the exchange law, so all three are reported.
        """
        a, b = self.a, self.b
        rep = Report(self.check_products(lam))
        rep.add(check_equal("idem=idem", *self.exchange(lam)))
        corner = compose(lam, tensor(b.unit, a.unit))
        rep.add(check_equal(
            "WDL1",
            compose(lam, self.etab_a),
            compose(self.mua_b, tensor(a.obj, corner)),
        ))
        rep.add(check_equal(
            "WDL2",
            compose(lam, self.b_etaa),
            compose(self.a_mub, tensor(corner, b.obj)),
        ))
        return rep

    def check_wdl_derived(self, lam: FMor) -> Report:
        """Derived identities of a weak distributive law.

        These are consequences of the axioms; failing data would signal a
        bug either in the axioms checker or in the constructions that
        rely on these identities, so they are regression-tested on every
        fixture.
        """
        a, b = self.a, self.b
        nab = self.nabla(lam)
        sig = self.sigma(lam)
        rep = Report()
        mid = compose(nab, tensor(a.unit, b.mul))
        rep.add(check_equal_all(
            "equ-idem",
            (sig, mid, "first equality"),
            (mid, compose(lam, tensor(b.mul, a.unit)), "second equality"),
        ))
        rep.add(check_equal(
            "new-nabla",
            compose(self.a_mub, tensor(lam, b.obj), tensor(b.obj, nab)),
            compose(self.a_mub, tensor(lam, b.obj)),
        ))
        rep.add(check_equal(
            "tech2",
            compose(self.mua_b, tensor(a.obj, lam), tensor(nab, a.obj)),
            compose(self.mua_b, tensor(a.obj, lam)),
        ))
        rep.add(check_equal("tech3", sig, compose(lam, tensor(b.mul, a.unit))))
        return rep

    def holds(self, lam: FMor) -> bool:
        """Whether lam satisfies the exchange law, DL1 and DL3: the
        cheapest comparison first, and no witnesses."""
        if not mat_eq(*(side.mat for side in self.exchange(lam))):
            return False
        return all(mat_eq(left(lam).mat, compose(q(lam), p(lam)).mat)
                   for _, left, q, p in self.products)

    def nabla(self, lam: FMor) -> FMor:
        """The idempotent (mu_A (x) B) o (A (x) (lam o (B (x) eta_A)))."""
        return compose(self.mua_b,
                       tensor(self.a.obj, compose(lam, self.b_etaa)))

    def sigma(self, lam: FMor) -> FMor:
        """sigma = (A (x) mu_B) o ((lam o (B (x) eta_A)) (x) B)."""
        return compose(self.a_mub,
                       tensor(compose(lam, self.b_etaa), self.b.obj))

    def preunit(self, lam: FMor) -> FMor:
        """nu = nabla o (eta_A (x) eta_B)."""
        return compose(self.nabla(lam), tensor(self.a.unit, self.b.unit))


def check_wreath(a: MonoidData, b: MonoidData, lam: FMor, tau: FMor, v: FMor) -> Report:
    """The six wreath axioms for (lam, tau, v) over the monoids a and b.

    Here lam : B (x) A -> A (x) B, tau : K -> A (x) B and
    v : B (x) B -> A (x) B.
    """
    pair = MonoidPair(a, b)
    muab = pair.mua_b
    target = tensor(a.unit, b.obj)
    rep = Report()
    rep.add(check_equal(
        "W1",
        compose(muab, tensor(a.obj, lam), tensor(lam, a.obj)),
        compose(lam, pair.b_mua),
    ))
    rep.add(check_equal("W2", compose(lam, pair.b_etaa), target))
    rep.add(check_equal(
        "W3",
        compose(muab, tensor(a.obj, tau)),
        compose(muab, tensor(a.obj, lam), tensor(tau, a.obj)),
    ))
    rep.add(check_equal(
        "W4",
        compose(muab, tensor(a.obj, v), tensor(lam, b.obj), tensor(b.obj, lam)),
        compose(muab, tensor(a.obj, lam), tensor(v, a.obj)),
    ))
    rep.add(check_equal(
        "W5",
        compose(muab, tensor(a.obj, v), tensor(v, b.obj)),
        compose(muab, tensor(a.obj, v), tensor(lam, b.obj), tensor(b.obj, v)),
    ))
    rep.add(check_equal_all(
        "W6",
        (compose(muab, tensor(a.obj, v), tensor(tau, b.obj)), target, "left half"),
        (target, compose(muab, tensor(a.obj, v), tensor(lam, b.obj),
                         tensor(b.obj, tau)), "right half"),
    ))
    return rep


def check_distributive_law(a: MonoidData, b: MonoidData, lam: FMor) -> Report:
    """The four axioms of a distributive law lam : B (x) A -> A (x) B."""
    pair = MonoidPair(a, b)
    dl1, dl3 = pair.check_products(lam)
    rep = Report()
    rep.add(dl1)
    rep.add(check_equal("DL2", compose(lam, pair.etab_a), tensor(a.obj, b.unit)))
    rep.add(dl3)
    rep.add(check_equal("DL4", compose(lam, pair.b_etaa), tensor(a.unit, b.obj)))
    return rep


def check_wdl(a: MonoidData, b: MonoidData, lam: FMor) -> Report:
    """The axioms of a weak distributive law lam : B (x) A -> A (x) B;
    see :meth:`MonoidPair.check_wdl`."""
    return MonoidPair(a, b).check_wdl(lam)


def quadruple_from_wdl(a: MonoidData, b: MonoidData, lam: FMor) -> Quadruple:
    """The quadruple (A, B, lam, sigma) induced by a weak distributive law."""
    psi = FMor(b.obj @ a.obj, a.obj @ b.obj, lam.mat)
    sig = MonoidPair(a, b).sigma(lam)
    return Quadruple(a, b.obj, psi, FMor(b.obj @ b.obj, a.obj @ b.obj, sig.mat))


def check_yang_baxter(a: MonoidData, b: MonoidData, c: MonoidData,
                      l1: FMor, l2: FMor, l3: FMor) -> ReportItem:
    """The hexagon relation for l1 : B(x)A -> A(x)B, l2 : C(x)B -> B(x)C,
    l3 : C(x)A -> A(x)C."""
    return check_equal(
        "YB-Comp",
        compose(tensor(a.obj, l2), tensor(l3, b.obj), tensor(c.obj, l1)),
        compose(tensor(l1, c.obj), tensor(b.obj, l3), tensor(l2, a.obj)),
    )


@dataclass(frozen=True)
class LawTriple:
    """Three monoids with pairwise weak distributive laws; an honest law
    is the case nabla = id.  ``weak=False`` declares all three honest, and
    raises ``ValueError`` naming a law whose nabla is not the identity."""

    a: MonoidData  # the common outer monoid
    b: MonoidData
    c: MonoidData
    l1: FMor  # B (x) A -> A (x) B
    l2: FMor  # C (x) B -> B (x) C
    l3: FMor  # C (x) A -> A (x) C
    weak: bool  # False: all three laws are declared honest

    def __post_init__(self):
        if self.weak:
            return
        for name, x, y, lam in (("l1", self.a, self.b, self.l1),
                                ("l2", self.b, self.c, self.l2),
                                ("l3", self.a, self.c, self.l3)):
            nab = MonoidPair(x, y).nabla(lam)
            if not mat_eq(nab.mat, identity_mat(nab.mat.rows, x.field)):
                raise ValueError(f"LawTriple(weak=False): the law {name} on "
                                 f"({x.name}, {y.name}) has nabla != id")

    @property
    def preunits(self) -> tuple:
        """(nu_V, nu_W), each nabla o (eta (x) eta) of its law."""
        a, b, c = self.a, self.b, self.c
        return (MonoidPair(a, b).preunit(self.l1),
                MonoidPair(a, c).preunit(self.l3))


def triple_setup(t: LawTriple) -> IterSetup:
    """The iteration data induced by a triple of weak laws.

    The quadruples come from :func:`quadruple_from_wdl`, the link
    morphism is the idempotent nabla of the inner pair (B, C, l2), the
    identity for an honest l2, and the twisting morphism is l2.
    """
    qv = quadruple_from_wdl(t.a, t.b, t.l1)
    qw = quadruple_from_wdl(t.a, t.c, t.l3)
    bc = t.b.obj @ t.c.obj
    delta = FMor(bc, bc, MonoidPair(t.b, t.c).nabla(t.l2).mat)
    tau = FMor(t.c.obj @ t.b.obj, bc, t.l2.mat)
    return IterSetup(qv, qw, delta, tau)


def check_triple_formulas(t: LawTriple) -> Report:
    """Closed forms for the iterated structure of a law triple.

    The generic combined psi, sigma, product and preunit must coincide
    with their closed forms in l1, l2, l3, the link delta and the nabla
    of (A, B, l1); on honest laws these are the honest closed forms.
    """
    a, b, c = t.a, t.b, t.c
    s = triple_setup(t)
    qvw = s.qvw
    rep = Report()
    rep.add(check_yang_baxter(a, b, c, t.l1, t.l2, t.l3))

    psi_closed = compose(tensor(t.l1, c.obj), tensor(b.obj, t.l3),
                         tensor(s.delta, a.obj))
    sigma_closed = compose(
        tensor(t.l1, c.mul),
        tensor(b.mul, t.l3, c.obj),
        tensor(b.obj, t.l2, a.unit, c.obj),
    )
    mu_closed = compose(
        tensor(a.mul, b.mul, c.mul),
        tensor(a.obj, compose(
            tensor(t.l1, t.l2),
            tensor(b.obj, t.l3, b.obj),
            tensor(s.delta, s.qv.nabla),
        ), c.obj),
    )
    nu_closed = compose(
        tensor(t.l1, c.obj), tensor(b.obj, t.l3), tensor(t.l2, a.obj),
        tensor(c.unit, b.unit, a.unit),
    )

    nu_v, nu_w = t.preunits
    pre, _ = iterated_preunit(s, Preunit(s.qv, nu_v), Preunit(s.qw, nu_w))
    for label, built, closed in (("falso-idemp2", qvw.psi, psi_closed),
                                 ("def-sigma", qvw.sigma, sigma_closed),
                                 ("product1", qvw.product, mu_closed),
                                 ("iterated-preunit", pre.nu, nu_closed)):
        rep.add(check_equal(label, built, FMor(built.dom, built.cod, closed.mat),
                            note="closed form"))
    return rep


# ---------------------------------------------------------------------------
# Brzezinski crossed products and the Daus-Panaite iteration
# ---------------------------------------------------------------------------


def check_brzezinski(q: Quadruple, eta_v: FMor) -> Report:
    """Unitality axioms making a quadruple a crossed product with unit.

    eta_v : K -> V is the distinguished element; when these hold the
    idempotent is the identity and eta_A (x) eta_V is a genuine unit.
    """
    rep = Report()
    rep.add(check_equal(
        "brz1", compose(q.psi, tensor(eta_v, q.a)), tensor(q.a, eta_v)
    ))
    rep.add(check_equal(
        "brz2", compose(q.psi, tensor(q.v, q.monoid.unit)),
        tensor(q.monoid.unit, q.v),
    ))
    target = tensor(q.monoid.unit, q.v)
    rep.add(check_equal_all(
        "brz3",
        (compose(q.sigma, tensor(eta_v, q.v)), target, "left half"),
        (compose(q.sigma, tensor(q.v, eta_v)), target, "right half"),
    ))
    rep.add(check_equal(
        "idem-wcp", q.nabla, identity(q.a @ q.v, q.field),
        note="trivial idempotent",
    ))
    return rep


def check_dp(s: IterSetup, eta_v: FMor, eta_w: FMor) -> Report:
    """The twisting-morphism axioms in the unital (trivial link) setting.

    Besides the four axioms, the two recovery identities are checked:
    composing the general twisting compatibility with the units on either
    side must give back the first two axioms.
    """
    a, v, w = s.qv.a, s.qv.v, s.qw.v
    tau = s.tau
    psi_v, psi_w = s.qv.psi, s.qw.psi
    sig_v, sig_w = s.qv.sigma, s.qw.sigma
    rep = Report()
    rep.add(check_equal(
        "DP1",
        compose(tensor(a, tau), tensor(psi_w, v), tensor(w, sig_v)),
        compose(tensor(sig_v, w), tensor(v, tau), tensor(tau, v)),
    ))
    rep.add(check_equal(
        "DP2",
        compose(tensor(psi_v, w), tensor(v, sig_w), tensor(tau, w),
                tensor(w, tau)),
        compose(tensor(a, tau), tensor(sig_w, v)),
    ))
    rep.add(check_equal(
        "DP3", compose(tau, tensor(eta_w, v)), tensor(v, eta_w)
    ))
    rep.add(check_equal(
        "DP4", compose(tau, tensor(w, eta_v)), tensor(eta_v, w)
    ))

    lhs, rhs = twisting_sides(s)
    plug1 = tensor(w, v, eta_w, v)
    rep.add(check_equal(
        "DP1", compose(lhs, plug1), compose(rhs, plug1),
        note="recovered from the general compatibility",
    ))
    plug2 = tensor(w, eta_v, w, v)
    rep.add(check_equal(
        "DP2", compose(lhs, plug2), compose(rhs, plug2),
        note="recovered from the general compatibility",
    ))
    return rep


# ---------------------------------------------------------------------------
# Concrete algebra builders
# ---------------------------------------------------------------------------


def diagonal_algebra(name: str, n: int, field) -> MonoidData:
    """The split semisimple algebra k^n with componentwise product."""
    return algebra(name, n, lambda i, j: {i: 1} if i == j else {},
                   dict.fromkeys(range(n), 1), field)


def truncated_polynomial_algebra(name: str, n: int, field) -> MonoidData:
    """k[x]/(x^n) with basis 1, x, ..., x^(n-1)."""
    return algebra(name, n, lambda i, j: {i + j: 1} if i + j < n else {},
                   {0: 1}, field)


def cyclic_group_algebra(name: str, n: int, field) -> MonoidData:
    """The group algebra of Z/n with basis the group elements."""
    return algebra(name, n, lambda i, j: {(i + j) % n: 1}, {0: 1}, field)


def q_twist(b: MonoidData, a: MonoidData, q) -> FMor:
    """The grading twist B (x) A -> A (x) B, y^i (x) x^j -> q^(ij) x^j (x) y^i.

    Both algebras must be graded with basis vector t in degree t (as the
    truncated polynomial and cyclic group algebras are).
    """
    field = a.field
    na, nb = a.dim, b.dim
    qq = field.coerce(q)

    def act(m):
        i, j = m
        coeff = field.one()
        for _ in range(i * j):
            coeff = field.mul(coeff, qq)
        return {(j, i): coeff}

    return mor_from_map(b.obj @ a.obj, a.obj @ b.obj, act, field)


# ---------------------------------------------------------------------------
# Named fixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubleFixture:
    """An iteration fixture: setup plus preunits for both factors."""

    name: str
    setup: IterSetup
    nu_v: FMor
    nu_w: FMor


def flip_quadruple(field, vname="V"):
    """Commutative toy quadruple: psi the flip, sigma from a product on V."""
    a = diagonal_algebra("A", 2, field)
    v = vobj(vname, 2)
    psi = swap(v, a.obj, field)
    gamma = mor_from_map(v @ v, v,
                         lambda m: {m[:1]: 1} if m[0] == m[1] else {}, field)
    sigma = compose(tensor(a.unit, v), gamma)
    return Quadruple(a, v, psi, sigma)


def flip_fixture(field, name) -> DoubleFixture:
    qv = flip_quadruple(field, "V")
    qw = flip_quadruple(field, "W")
    s = IterSetup(qv, qw, identity(qv.v @ qw.v, field),
                  swap(qw.v, qv.v, field))
    nu = mor_from_map(UNIT, qv.a @ qv.v, lambda m: dict.fromkeys(
        [(i, j) for i in range(2) for j in range(2)], 1), field)
    return DoubleFixture(name, s, nu, nu)


def quantum_plane_triple(field=GF(5), q=2) -> LawTriple:
    """Three truncated polynomial algebras with grading twists.

    The three pairwise twists are honest distributive laws, and the
    hexagon relation holds because all twists are diagonal on the
    monomial basis.
    """
    a = truncated_polynomial_algebra("A", 2, field)
    b = truncated_polynomial_algebra("B", 2, field)
    c = truncated_polynomial_algebra("C", 2, field)
    return LawTriple(
        a, b, c,
        l1=q_twist(b, a, q), l2=q_twist(c, b, q), l3=q_twist(c, a, q),
        weak=False,
    )


def skew_group_quadruple(field=GF(3)):
    """The group Z/2 acting on k[x]/(x^2 - 1) by x -> -x.

    psi moves a group element past an algebra element by acting on it;
    sigma is the trivial cocycle valued in the unit.  Returns the
    quadruple together with the distinguished unit of V (the neutral
    group element), making this a crossed product with trivial
    idempotent.
    """
    # basis of A: 1, x with x^2 = 1; basis of V: group elements e, g
    a = cyclic_group_algebra("A", 2, field)
    v = vobj("G", 2)

    def psi_map(m):
        g, i = m  # group element g acts on basis element x^i
        sign = field.coerce((-1) ** (g * i))
        return {(i, g): sign}

    psi = mor_from_map(v @ a.obj, a.obj @ v, psi_map, field)

    def sigma_map(m):
        g, h = m
        return {(0, (g + h) % 2): 1}

    sigma = mor_from_map(v @ v, a.obj @ v, sigma_map, field)
    eta_v = mor_from_map(UNIT, v, lambda m: {(0,): 1}, field)
    return Quadruple(a, v, psi, sigma), eta_v


def skew_group_double(field=GF(3)) -> DoubleFixture:
    """Two copies of the skew group quadruple linked by the plain flip."""
    qv, eta_v = skew_group_quadruple(field)
    base, _ = skew_group_quadruple(field)
    h = vobj("H", 2)
    qw = Quadruple(qv.monoid, h,
                   FMor(h @ qv.a, qv.a @ h, base.psi.mat),
                   FMor(h @ h, qv.a @ h, base.sigma.mat))
    s = IterSetup(qv, qw, identity(qv.v @ qw.v, field),
                  swap(qw.v, qv.v, field))
    nu_v = tensor(qv.monoid.unit, eta_v)
    nu_w = tensor(qv.monoid.unit, FMor(UNIT, h, eta_v.mat))
    return DoubleFixture("skew-group", s, nu_v, nu_w)


def wdl_triple_from_law(a: MonoidData, lam: FMor) -> LawTriple:
    """A law triple using one weak distributive law for all three slots.

    Requires the law to be compatible with itself under the hexagon
    relation, which is checked by the triple verifiers downstream.
    """
    return LawTriple(a, a, a, l1=lam, l2=lam, l3=lam, weak=True)
