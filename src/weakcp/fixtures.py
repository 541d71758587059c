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

from .fdvect import (
    FMor,
    FObj,
    MonoidData,
    UNIT,
    check_equal,
    compose,
    identity,
    monoid_from_structure,
    mor,
    mor_from_map,
    swap,
    tensor,
    vobj,
)
from .fields import GF, QQ
from .iterate import IterSetup, iterated_preunit
from .report import Report, ReportItem
from .wcp import Quadruple


# ---------------------------------------------------------------------------
# Wreaths and distributive laws between two monoids
# ---------------------------------------------------------------------------


def check_wreath(a: MonoidData, b: MonoidData, lam: FMor, tau: FMor, v: FMor) -> Report:
    """The six wreath axioms for (lam, tau, v) over the monoids a and b.

    Here lam : B (x) A -> A (x) B, tau : K -> A (x) B and
    v : B (x) B -> A (x) B.
    """
    ida, idb = identity(a.obj, a.field), identity(b.obj, b.field)
    mu = a.mul
    muab = tensor(mu, idb)
    rep = Report()
    rep.add(check_equal(
        "W1",
        compose(muab, tensor(ida, lam), tensor(lam, ida)),
        compose(lam, tensor(idb, mu)),
    ))
    rep.add(check_equal("W2", compose(lam, tensor(idb, a.unit)), tensor(a.unit, idb)))
    rep.add(check_equal(
        "W3",
        compose(muab, tensor(ida, tau)),
        compose(muab, tensor(ida, lam), tensor(tau, ida)),
    ))
    rep.add(check_equal(
        "W4",
        compose(muab, tensor(ida, v), tensor(lam, idb), tensor(idb, lam)),
        compose(muab, tensor(ida, lam), tensor(v, ida)),
    ))
    rep.add(check_equal(
        "W5",
        compose(muab, tensor(ida, v), tensor(v, idb)),
        compose(muab, tensor(ida, v), tensor(lam, idb), tensor(idb, v)),
    ))
    left = compose(muab, tensor(ida, v), tensor(tau, idb))
    right = compose(muab, tensor(ida, v), tensor(lam, idb), tensor(idb, tau))
    target = tensor(a.unit, idb)
    item = check_equal("W6", left, target, note="left half")
    if item.passed:
        item = check_equal("W6", target, right, note="right half")
    if item.passed:
        item = ReportItem("W6", True)
    rep.add(item)
    return rep


def _check_dl_products(a: MonoidData, b: MonoidData, lam: FMor):
    """DL1 and DL3, the two axioms of a distributive law on the products,
    which a weak distributive law keeps."""
    ida, idb = identity(a.obj, a.field), identity(b.obj, b.field)
    dl1 = check_equal(
        "DL1",
        compose(lam, tensor(b.mul, ida)),
        compose(tensor(ida, b.mul), tensor(lam, idb), tensor(idb, lam)),
    )
    dl3 = check_equal(
        "DL3",
        compose(lam, tensor(idb, a.mul)),
        compose(tensor(a.mul, idb), tensor(ida, lam), tensor(lam, ida)),
    )
    return [dl1, dl3]


def check_distributive_law(a: MonoidData, b: MonoidData, lam: FMor) -> Report:
    """The four axioms of a distributive law lam : B (x) A -> A (x) B."""
    ida, idb = identity(a.obj, a.field), identity(b.obj, b.field)
    dl1, dl3 = _check_dl_products(a, b, lam)
    rep = Report()
    rep.add(dl1)
    rep.add(check_equal("DL2", compose(lam, tensor(b.unit, ida)), tensor(ida, b.unit)))
    rep.add(dl3)
    rep.add(check_equal("DL4", compose(lam, tensor(idb, a.unit)), tensor(a.unit, idb)))
    return rep


def wdl_nabla(a: MonoidData, b: MonoidData, lam: FMor) -> FMor:
    """The idempotent (mu (x) B) o (A (x) (lam o (B (x) eta)))."""
    ida, idb = identity(a.obj, a.field), identity(b.obj, b.field)
    return compose(
        tensor(a.mul, idb),
        tensor(ida, compose(lam, tensor(idb, a.unit))),
    )


def wdl_sigma(a: MonoidData, b: MonoidData, lam: FMor) -> FMor:
    """sigma = (A (x) mu_B) o ((lam o (B (x) eta_A)) (x) B)."""
    ida, idb = identity(a.obj, a.field), identity(b.obj, b.field)
    return compose(
        tensor(ida, b.mul),
        tensor(compose(lam, tensor(idb, a.unit)), idb),
    )


def wdl_preunit(a: MonoidData, b: MonoidData, lam: FMor) -> FMor:
    """nu = nabla o (eta_A (x) eta_B)."""
    return compose(wdl_nabla(a, b, lam), tensor(a.unit, b.unit))


def check_wdl(a: MonoidData, b: MonoidData, lam: FMor) -> Report:
    """Axioms of a weak distributive law: DL1, DL3 and the exchange law.

    The two unit-replacement identities are checked as well; they are
    equivalent to the exchange law, so all three are reported.
    """
    ida, idb = identity(a.obj, a.field), identity(b.obj, b.field)
    rep = Report(_check_dl_products(a, b, lam))
    rep.add(check_equal(
        "idem=idem",
        compose(tensor(ida, b.mul),
                tensor(compose(lam, tensor(b.unit, ida)), idb)),
        compose(tensor(a.mul, idb),
                tensor(ida, compose(lam, tensor(idb, a.unit)))),
    ))
    corner = compose(lam, tensor(b.unit, a.unit))
    rep.add(check_equal(
        "WDL1",
        compose(lam, tensor(b.unit, ida)),
        compose(tensor(a.mul, idb), tensor(ida, corner)),
    ))
    rep.add(check_equal(
        "WDL2",
        compose(lam, tensor(idb, a.unit)),
        compose(tensor(ida, b.mul), tensor(corner, idb)),
    ))
    return rep


def check_wdl_derived(a: MonoidData, b: MonoidData, lam: FMor) -> Report:
    """Derived identities of a weak distributive law.

    These are consequences of the axioms; failing data would signal a bug
    either in the axioms checker or in the constructions that rely on
    these identities, so they are regression-tested on every fixture.
    """
    ida, idb = identity(a.obj, a.field), identity(b.obj, b.field)
    nab = wdl_nabla(a, b, lam)
    sig = wdl_sigma(a, b, lam)
    rep = Report()
    mid = compose(nab, tensor(a.unit, b.mul))
    item = check_equal("equ-idem", sig, mid, note="first equality")
    if item.passed:
        item = check_equal(
            "equ-idem", mid, compose(lam, tensor(b.mul, a.unit)),
            note="second equality",
        )
    if item.passed:
        item = ReportItem("equ-idem", True)
    rep.add(item)
    rep.add(check_equal(
        "new-nabla",
        compose(tensor(ida, b.mul), tensor(lam, idb), tensor(idb, nab)),
        compose(tensor(ida, b.mul), tensor(lam, idb)),
    ))
    rep.add(check_equal(
        "tech2",
        compose(tensor(a.mul, idb), tensor(ida, lam), tensor(nab, ida)),
        compose(tensor(a.mul, idb), tensor(ida, lam)),
    ))
    rep.add(check_equal(
        "tech3",
        compose(tensor(ida, b.mul),
                tensor(compose(lam, tensor(idb, a.unit)), idb)),
        compose(lam, tensor(b.mul, a.unit)),
    ))
    return rep


def quadruple_from_wdl(a: MonoidData, b: MonoidData, lam: FMor) -> Quadruple:
    """The quadruple (A, B, lam, sigma) induced by a weak distributive law."""
    psi = FMor(b.obj @ a.obj, a.obj @ b.obj, lam.mat)
    sig = wdl_sigma(a, b, lam)
    return Quadruple(a, b.obj, psi, FMor(b.obj @ b.obj, a.obj @ b.obj, sig.mat))


def quadruple_from_dl(a: MonoidData, b: MonoidData, lam: FMor) -> Quadruple:
    """The quadruple induced by an honest distributive law: sigma = eta (x) mu."""
    sig = tensor(a.unit, b.mul)
    psi = FMor(b.obj @ a.obj, a.obj @ b.obj, lam.mat)
    return Quadruple(a, b.obj, psi, FMor(b.obj @ b.obj, a.obj @ b.obj, sig.mat))


def check_yang_baxter(a: MonoidData, b: MonoidData, c: MonoidData,
                      l1: FMor, l2: FMor, l3: FMor) -> ReportItem:
    """The hexagon relation for l1 : B(x)A -> A(x)B, l2 : C(x)B -> B(x)C,
    l3 : C(x)A -> A(x)C."""
    ida = identity(a.obj, a.field)
    idb = identity(b.obj, b.field)
    idc = identity(c.obj, c.field)
    return check_equal(
        "YB-Comp",
        compose(tensor(ida, l2), tensor(l3, idb), tensor(idc, l1)),
        compose(tensor(l1, idc), tensor(idb, l3), tensor(l2, ida)),
    )


@dataclass(frozen=True)
class LawTriple:
    """Three monoids with pairwise (weak) distributive laws."""

    a: MonoidData  # the common outer monoid
    b: MonoidData
    c: MonoidData
    l1: FMor  # B (x) A -> A (x) B
    l2: FMor  # C (x) B -> B (x) C
    l3: FMor  # C (x) A -> A (x) C
    weak: bool  # True: weak distributive laws; False: honest ones


def triple_setup(t: LawTriple) -> IterSetup:
    """The iteration data induced by a triple of (weak) laws.

    The link morphism is the identity for honest laws and the idempotent
    of the inner pair (B, C, l2) in the weak case; the twisting morphism
    is l2 in both cases.
    """
    qv = (quadruple_from_wdl if t.weak else quadruple_from_dl)(t.a, t.b, t.l1)
    qw = (quadruple_from_wdl if t.weak else quadruple_from_dl)(t.a, t.c, t.l3)
    bc = t.b.obj @ t.c.obj
    if t.weak:
        delta = FMor(bc, bc, wdl_nabla(t.b, t.c, t.l2).mat)
    else:
        delta = identity(bc, t.a.field)
    tau = FMor(t.c.obj @ t.b.obj, bc, t.l2.mat)
    return IterSetup(qv, qw, delta, tau)


def check_triple_formulas(t: LawTriple) -> Report:
    """Closed forms for the iterated structure of a law triple.

    The generic combined psi, sigma, product and preunit must coincide
    with their advertised closed forms in terms of l1, l2, l3.
    """
    a, b, c = t.a, t.b, t.c
    ida = identity(a.obj, a.field)
    idb = identity(b.obj, b.field)
    idc = identity(c.obj, c.field)
    s = triple_setup(t)
    qvw = s.qvw
    rep = Report()
    rep.add(check_yang_baxter(a, b, c, t.l1, t.l2, t.l3))

    if t.weak:
        nab_bc = wdl_nabla(b, c, t.l2)
        psi_closed = compose(tensor(t.l1, idc), tensor(idb, t.l3),
                             tensor(nab_bc, ida))
        sigma_closed = compose(
            tensor(t.l1, c.mul),
            tensor(b.mul, t.l3, idc),
            tensor(idb, t.l2, a.unit, idc),
        )
        nab_ab = wdl_nabla(a, b, t.l1)
        mu_closed = compose(
            tensor(a.mul, b.mul, c.mul),
            tensor(ida, compose(
                tensor(t.l1, t.l2),
                tensor(idb, t.l3, idb),
                tensor(nab_bc, nab_ab),
            ), idc),
        )
        nu_v = wdl_preunit(a, b, t.l1)
        nu_w = wdl_preunit(a, c, t.l3)
        nu_closed = compose(
            tensor(t.l1, idc), tensor(idb, t.l3), tensor(t.l2, ida),
            tensor(c.unit, b.unit, a.unit),
        )
    else:
        psi_closed = compose(tensor(t.l1, idc), tensor(idb, t.l3))
        sigma_closed = compose(
            tensor(a.unit, b.mul, c.mul),
            tensor(idb, t.l2, idc),
        )
        mu_closed = compose(
            tensor(a.mul, b.mul, c.mul),
            tensor(ida, compose(
                tensor(t.l1, t.l2),
                tensor(idb, t.l3, idb),
            ), idc),
        )
        nu_v = tensor(a.unit, b.unit)
        nu_w = tensor(a.unit, c.unit)
        nu_closed = tensor(a.unit, b.unit, c.unit)

    rep.add(check_equal("falso-idemp2", qvw.psi, FMor(
        qvw.psi.dom, qvw.psi.cod, psi_closed.mat
    ), note="closed form"))
    rep.add(check_equal("def-sigma", qvw.sigma, FMor(
        qvw.sigma.dom, qvw.sigma.cod, sigma_closed.mat
    ), note="closed form"))
    rep.add(check_equal("product1", qvw.product, FMor(
        qvw.product.dom, qvw.product.cod, mu_closed.mat
    ), note="closed form"))
    nu_vw, _ = iterated_preunit(s, nu_v, nu_w)
    rep.add(check_equal("iterated-preunit", nu_vw, FMor(
        nu_vw.dom, nu_vw.cod, nu_closed.mat
    ), note="closed form"))
    return rep


# ---------------------------------------------------------------------------
# Brzezinski crossed products and the Daus-Panaite iteration
# ---------------------------------------------------------------------------


def check_brzezinski(q: Quadruple, eta_v: FMor) -> Report:
    """Unitality axioms making a quadruple a crossed product with unit.

    eta_v : K -> V is the distinguished element; when these hold the
    idempotent is the identity and eta_A (x) eta_V is a genuine unit.
    """
    ida, idv = q.ids()
    rep = Report()
    rep.add(check_equal(
        "brz1", compose(q.psi, tensor(eta_v, ida)), tensor(ida, eta_v)
    ))
    rep.add(check_equal(
        "brz2", compose(q.psi, tensor(idv, q.monoid.unit)),
        tensor(q.monoid.unit, idv),
    ))
    left = compose(q.sigma, tensor(eta_v, idv))
    target = tensor(q.monoid.unit, idv)
    item = check_equal("brz3", left, target, note="left half")
    if item.passed:
        item = check_equal(
            "brz3", compose(q.sigma, tensor(idv, eta_v)), target,
            note="right half",
        )
    if item.passed:
        item = ReportItem("brz3", True)
    rep.add(item)
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
    ida, idv, idw = s.ids()
    tau = s.tau
    psi_v, psi_w = s.qv.psi, s.qw.psi
    sig_v, sig_w = s.qv.sigma, s.qw.sigma
    mu = s.qv.monoid.mul
    rep = Report()
    rep.add(check_equal(
        "DP1",
        compose(tensor(ida, tau), tensor(psi_w, idv), tensor(idw, sig_v)),
        compose(tensor(sig_v, idw), tensor(idv, tau), tensor(tau, idv)),
    ))
    rep.add(check_equal(
        "DP2",
        compose(tensor(psi_v, idw), tensor(idv, sig_w), tensor(tau, idw),
                tensor(idw, tau)),
        compose(tensor(ida, tau), tensor(sig_w, idv)),
    ))
    rep.add(check_equal(
        "DP3", compose(tau, tensor(eta_w, idv)), tensor(idv, eta_w)
    ))
    rep.add(check_equal(
        "DP4", compose(tau, tensor(idw, eta_v)), tensor(eta_v, idw)
    ))

    lhs = compose(
        tensor(mu, idv, idw),
        tensor(ida, sig_v, idw),
        tensor(psi_v, tau),
        tensor(idv, sig_w, idv),
        tensor(tau, idw, idv),
    )
    rhs = compose(
        tensor(mu, idv, idw),
        tensor(ida, psi_v, idw),
        tensor(ida, idv, sig_w),
        tensor(ida, tau, idw),
        tensor(psi_w, idv, idw),
        tensor(idw, sig_v, idw),
        tensor(idw, idv, tau),
    )
    plug1 = tensor(idw, idv, eta_w, idv)
    rep.add(check_equal(
        "DP1", compose(lhs, plug1), compose(rhs, plug1),
        note="recovered from the general compatibility",
    ))
    plug2 = tensor(idw, eta_v, idw, idv)
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
    structure = [
        [[1 if i == j and k == i else 0 for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    return monoid_from_structure(name, structure, [1] * n, field)


def truncated_polynomial_algebra(name: str, n: int, field) -> MonoidData:
    """k[x]/(x^n) with basis 1, x, ..., x^(n-1)."""
    structure = [
        [[1 if k == i + j else 0 for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    return monoid_from_structure(name, structure, [1] + [0] * (n - 1), field)


def cyclic_group_algebra(name: str, n: int, field) -> MonoidData:
    """The group algebra of Z/n with basis the group elements."""
    structure = [
        [[1 if k == (i + j) % n else 0 for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    return monoid_from_structure(name, structure, [1] + [0] * (n - 1), field)


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
    gamma = mor(v @ v, v, [[1, 0, 0, 0], [0, 0, 0, 1]], field)
    sigma = compose(tensor(a.unit, identity(v, field)), gamma)
    return Quadruple(a, v, psi, sigma)


def flip_fixture(field, name) -> DoubleFixture:
    qv = flip_quadruple(field, "V")
    qw = flip_quadruple(field, "W")
    s = IterSetup(qv, qw, identity(qv.v @ qw.v, field),
                  swap(qw.v, qv.v, field))
    nu = mor(UNIT, qv.a @ qv.v, [[1], [1], [1], [1]], field)
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
    a = monoid_from_structure(
        "A", [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0], field
    )
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
    eta_v = mor(UNIT, v, [[1], [0]], field)
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


def trivial_quadruple(a: MonoidData, vname: str = "K") -> Quadruple:
    """The quadruple on a one-dimensional V where everything collapses.

    psi is the identity of A (up to the invisible factor) and sigma is
    the unit of A, so the crossed product of A with this V is A itself.
    """
    v = vobj(vname, 1)
    psi = FMor(v @ a.obj, a.obj @ v, identity(a.obj, a.field).mat)
    sigma = FMor(v @ v, a.obj @ v, a.unit.mat)
    return Quadruple(a, v, psi, sigma)


def trivial_extension(q: Quadruple, vname: str = "K") -> IterSetup:
    """Extend a quadruple by a one-dimensional second factor.

    The combined product on A (x) V (x) K must coincide with the product
    on A (x) V, which is what the degeneration tests assert.  The first
    factor must come with a preunit; pass it as ``nu_v`` downstream.
    """
    qt = trivial_quadruple(q.monoid, vname)
    field = q.field
    vk = q.v @ qt.v
    delta = identity(vk, field)
    tau = FMor(qt.v @ q.v, vk, identity(q.v, field).mat)
    return IterSetup(q, qt, delta, tau)


def trivial_preunit(q: Quadruple) -> FMor:
    """The preunit eta_A (x) 1 of a trivial (one-dimensional V) quadruple."""
    return FMor(UNIT, q.a @ q.v, q.monoid.unit.mat)


def wdl_triple_from_law(a: MonoidData, lam: FMor, name: str = "mined") -> LawTriple:
    """A law triple using one weak distributive law for all three slots.

    Requires the law to be compatible with itself under the hexagon
    relation, which is checked by the triple verifiers downstream.
    """
    return LawTriple(a, a, a, l1=lam, l2=lam, l3=lam, weak=True)
