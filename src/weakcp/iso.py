"""The associativity isomorphism for iterated crossed products.

Given two linked, twisted quadruples over a common monoid A with preunits,
the double crossed product can be formed in two ways: all at once on
A (x) (V (x) W), or in two stages, crossing A with V first and then the
result with W.  This module constructs both, builds the comparison map
omega between them, and verifies that omega is an isomorphism of monoids.

The two-stage monoid is obtained by transporting the product on
A (x) V (x) W along the splittings: first to (A x V) (x) W through the
inner projection/injection pair, then to the image of the restricted
idempotent.  Associativity and unitality of the result are re-verified
rather than inherited.

:func:`build_iso` is one pipeline that builds each of the three crossed
products once and stops at the first stage whose checks fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fdvect import (
    FMor,
    MonoidData,
    check_equal,
    check_monoid,
    compose,
    identity,
    tensor,
    vobj,
)
from .kernel import split_idempotent
from .iterate import IterSetup, build_iterated, iterated_preunit
from .preunit import Preunit, UnitalCrossedProduct, build_unital
from .report import Report, ReportItem
from .wcp import build_crossed_product, require


def check_newit(s: IterSetup, nu_w: FMor) -> Report:
    """The three extra identities that make the two-stage product work."""
    a, v, w = s.qv.a, s.qv.v, s.qw.v
    psi_v, psi_w = s.qv.psi, s.qw.psi
    sig_v, sig_w = s.qv.sigma, s.qw.sigma
    nab = s.qvw.nabla
    rep = Report()
    inner1 = compose(s.qv.mupsi, tensor(sig_v, a))
    rep.add(check_equal(
        "new-it-1",
        compose(nab, tensor(inner1, w), tensor(v, v, nu_w)),
        compose(nab, s.musigma_w, tensor(psi_v, s.tau),
                tensor(v, nu_w, v)),
    ))
    rep.add(check_equal(
        "new-it-2",
        compose(nab, tensor(sig_v, w)),
        compose(s.mupsi_w, tensor(sig_v, psi_w),
                tensor(v, s.delta, s.qv.monoid.unit)),
    ))
    rep.add(check_equal(
        "new-it-3",
        compose(nab, tensor(psi_v, w), tensor(v, sig_w)),
        compose(tensor(psi_v, w), tensor(v, sig_w), tensor(s.delta, w)),
    ))
    return rep


@dataclass(frozen=True)
class IsoBundle:
    """Everything :func:`build_iso` built, all of it verified.

    ``report`` holds every check of the comparison in the order it ran.
    """

    ucp_v: UnitalCrossedProduct  # the monoid A x V
    ucp_w: UnitalCrossedProduct  # the monoid A x W
    ucp_vw: UnitalCrossedProduct  # the monoid A x (V (x) W)
    i_axv: FMor  # A x V -> A x (V (x) W)
    i_w: FMor  # W -> A x (V (x) W)
    nabla_axv_w: FMor  # restricted idempotent on (A x V) (x) W
    outer: MonoidData  # the monoid (A x V) x W
    omega: FMor  # (A x V) x W -> A x (V (x) W)
    omega_inv: FMor
    report: Report


def build_iso(s: IterSetup, nu_v: FMor, nu_w: FMor) -> IsoBundle:
    """Build both iterated monoids and verify that omega is an isomorphism.

    Each of nu_v, nu_w and the combined preunit has one
    :class:`~weakcp.preunit.Preunit` owner, which verifies each of its
    identities once and keeps its nabla and beta.  Stages, each verified
    before the next: the combined quadruple; the combined preunit, where
    :func:`~weakcp.iterate.iterated_preunit` requires the preunit axioms
    of nu_v and nu_w and verifies the combined preunit; the three unital
    crossed products A x (V (x) W), A x V and A x W, where
    :func:`~weakcp.preunit.build_unital` requires each preunit's axioms
    and system; the three extra identities; the embedding of A x V (a
    monoid morphism) and the restricted idempotent on (A x V) (x) W
    (idempotent and linear over A x V); omega and its inverse from the
    splitting of that idempotent; and the monoid (A x V) x W, with omega
    a monoid isomorphism onto A x (V (x) W) and the two sides of equal
    dimension.
    """
    w = s.qw.v
    pre_v, pre_w = Preunit(s.qv, nu_v), Preunit(s.qw, nu_w)
    qvw, _ = build_iterated(s)
    pre_vw, _ = iterated_preunit(s, pre_v, pre_w)
    ucp_vw, ucp_v, ucp_w = (build_unital(build_crossed_product(pre.quad), pre)
                            for pre in (pre_vw, pre_v, pre_w))
    cp_v, cp_vw = ucp_v.cp, ucp_vw.cp

    rep = require(check_newit(s, nu_w), "extra identities fail")

    # the embeddings and the restricted idempotent
    i_axv = compose(cp_vw.proj, s.mupsi_w, tensor(cp_v.inj, nu_w))
    rep.add(check_equal(
        "i-axv-mult",
        compose(i_axv, cp_v.mul),
        compose(cp_vw.mul, tensor(i_axv, i_axv)),
    ))
    rep.add(check_equal("i-axv-unit", compose(i_axv, ucp_v.unit), ucp_vw.unit))

    i_w = compose(cp_vw.proj, tensor(nu_v, w))

    # (A x V) (x) W <-> A (x) V (x) W
    inj_w, proj_w = tensor(cp_v.inj, w), tensor(cp_v.proj, w)
    nab_small = compose(proj_w, qvw.nabla, inj_w)
    rep.add(check_equal(
        "nabla-axvw-idem", compose(nab_small, nab_small), nab_small
    ))
    mul_w = tensor(cp_v.mul, w)
    rep.add(check_equal(
        "nabla-axvw-linear",
        compose(nab_small, mul_w),
        compose(mul_w, tensor(cp_v.obj, nab_small)),
    ))
    require(rep, "embedding verification failed")

    # omega and its inverse, and the two-stage monoid: the big product
    # and the preunit, transported
    sp = split_idempotent(nab_small.mat)
    outer_obj = vobj(f"({cp_v.obj.factors[0][0]}xW)", sp.rank)
    inj = FMor(outer_obj, nab_small.dom, sp.inj)
    proj = FMor(nab_small.dom, outer_obj, sp.proj)
    mu_mid = compose(proj_w, qvw.product, tensor(inj_w, inj_w))
    proj_big = compose(proj, proj_w)  # A (x) V (x) W -> (A x V) x W
    outer = MonoidData(outer_obj.factors[0][0], outer_obj,
                       compose(proj, mu_mid, tensor(inj, inj)),
                       compose(proj_big, pre_vw.nu))

    omega = compose(cp_vw.proj, inj_w, inj)
    omega_inv = compose(proj_big, cp_vw.inj)
    rep.add(check_equal("omega-right-inv", compose(omega, omega_inv), cp_vw.id))
    rep.add(check_equal("omega-left-inv", compose(omega_inv, omega),
                        identity(outer_obj, s.field)))
    rep.add(check_equal(
        "omega-compat",
        compose(omega, proj),
        compose(cp_vw.mul, tensor(i_axv, i_w)),
    ))
    require(rep, "omega verification failed")

    rep.extend(check_monoid(outer, prefix="outer-"))
    rep.add(check_equal(
        "omega-mult",
        compose(omega, outer.mul),
        compose(cp_vw.mul, tensor(omega, omega)),
    ))
    rep.add(check_equal("omega-unit", compose(omega, outer.unit), ucp_vw.unit))
    # both dimensions are ranks of split idempotents: nab_small's here and
    # qvw.nabla's in build_crossed_product
    rep.add(ReportItem("rank-match", outer_obj.dim == cp_vw.obj.dim))
    require(rep, "isomorphism verification failed")
    return IsoBundle(
        ucp_v=ucp_v, ucp_w=ucp_w, ucp_vw=ucp_vw, i_axv=i_axv, i_w=i_w,
        nabla_axv_w=nab_small, outer=outer, omega=omega, omega_inv=omega_inv,
        report=rep,
    )
