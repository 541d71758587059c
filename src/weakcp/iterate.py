"""Iteration of weak crossed products over a common monoid.

Two quadruples (A, V, psi_V, sigma_V) and (A, W, psi_W, sigma_W) sharing
the monoid A can be combined into a quadruple on V (x) W when a link
morphism Delta : V (x) W -> V (x) W and a twisting morphism
tau : W (x) V -> V (x) W satisfying the compatibility conditions below
are supplied.  This module builds the combined quadruple and its preunit,
checking every hypothesis and every claimed consequence along the way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .fdvect import FMor, check_equal, compose, tensor
from .preunit import Preunit
from .report import Report
from .wcp import Quadruple, check_quadruple, require


@dataclass(frozen=True)
class IterSetup:
    """Two quadruples over one monoid, with link and twisting morphisms.

    Whiskers name the objects ``qv.a``, ``qv.v`` and ``qw.v``.  ``qvw``,
    the combined quadruple on V (x) W, ``mupsi_w`` = (mu (x) V (x) W) o
    (A (x) psi_V (x) W) and ``musigma_w`` = (mu (x) V (x) W) o (A (x)
    sigma_V (x) W) are built on first use and kept; the ``psi``,
    ``sigma``, ``nabla`` and ``product`` of ``qvw`` are the combined maps.
    """

    qv: Quadruple
    qw: Quadruple
    delta: FMor  # V (x) W -> V (x) W
    tau: FMor  # W (x) V -> V (x) W

    def __post_init__(self):
        if self.qv.monoid != self.qw.monoid:
            raise ValueError("the two quadruples must share the same monoid")
        v, w = self.qv.v, self.qw.v
        if (self.delta.dom.dim, self.delta.cod.dim) != ((v @ w).dim,) * 2:
            raise ValueError("link morphism must be an endomap of V (x) W")
        if (self.tau.dom.dim, self.tau.cod.dim) != ((w @ v).dim, (v @ w).dim):
            raise ValueError("twisting morphism must map W (x) V to V (x) W")

    @property
    def field(self):
        return self.qv.field

    @cached_property
    def mupsi_w(self) -> FMor:
        return tensor(self.qv.mupsi, self.qw.v)

    @cached_property
    def musigma_w(self) -> FMor:
        return tensor(self.qv.musigma, self.qw.v)

    @cached_property
    def qvw(self) -> Quadruple:
        """The combined quadruple on V (x) W (without any checking).

        psi = (psi_V (x) W) o (V (x) psi_W) o (Delta (x) A), and sigma is
        built from sigma_V, sigma_W and the twisting.
        """
        qv, qw = self.qv, self.qw
        a, v, w = qv.a, qv.v, qw.v
        psi = compose(tensor(qv.psi, w), tensor(v, qw.psi), tensor(self.delta, a))
        sigma = compose(
            self.mupsi_w,
            tensor(qv.sigma, qw.sigma),
            tensor(v, self.tau, w),
        )
        vw = v @ w
        return Quadruple(qv.monoid, vw, FMor(vw @ a, a @ vw, psi.mat),
                         FMor(vw @ vw, a @ vw, sigma.mat))


def check_link(s: IterSetup) -> Report:
    """Link-morphism conditions and their claimed consequences.

    The combined psi must absorb Delta on the left and be fixed by the
    combined idempotent; as a consequence it is itself a weak measuring.
    All four statements are verified, not assumed.
    """
    qvw = s.qvw
    psi_vw, nab = qvw.psi, qvw.nabla
    rep = Report()
    rep.add(check_equal(
        "falso-idemp",
        psi_vw,
        compose(tensor(s.qv.a, s.delta), psi_vw),
    ))
    rep.add(check_equal(
        "falso-idemp2",
        psi_vw,
        compose(nab, tensor(s.qv.psi, s.qw.v), tensor(s.qv.v, s.qw.psi)),
    ))
    rep.add(qvw.wmeas)
    rep.add(check_equal("falso-idemp-link", psi_vw, compose(nab, psi_vw)))
    return rep


def twisting_sides(s: IterSetup) -> tuple:
    """The two sides of the second twisting condition, maps
    W (x) V (x) W (x) V -> A (x) V (x) W."""
    a, v, w = s.qv.a, s.qv.v, s.qw.v
    psi_v, psi_w = s.qv.psi, s.qw.psi
    sig_v, sig_w = s.qv.sigma, s.qw.sigma
    lhs = compose(
        s.musigma_w,
        tensor(psi_v, s.tau),
        tensor(v, sig_w, v),
        tensor(s.tau, w, v),
    )
    rhs = compose(
        s.mupsi_w,
        tensor(a, v, sig_w),
        tensor(a, s.tau, w),
        tensor(psi_w, v, w),
        tensor(w, sig_v, w),
        tensor(w, v, s.tau),
    )
    return lhs, rhs


def check_twisting(s: IterSetup) -> Report:
    """The two defining conditions for the twisting morphism tau."""
    a, v, w = s.qv.a, s.qv.v, s.qw.v
    psi_v, psi_w = s.qv.psi, s.qw.psi
    rep = Report()
    rep.add(check_equal(
        "twisting-i",
        compose(tensor(psi_v, w), tensor(v, psi_w), tensor(s.tau, a)),
        compose(tensor(a, s.tau), tensor(psi_w, v), tensor(w, psi_v)),
    ))
    rep.add(check_equal("twisting-ii", *twisting_sides(s)))
    return rep


def check_sigma_conditions(s: IterSetup) -> Report:
    """Compatibility of the combined sigma with the link morphism."""
    sig, vw = s.qvw.sigma, s.qvw.v
    rep = Report()
    rep.add(check_equal("sigma1", sig, compose(sig, tensor(s.delta, vw))))
    rep.add(check_equal("sigma2", sig, compose(sig, tensor(vw, s.delta))))
    rep.add(check_equal("sigma3", sig, compose(tensor(s.qv.a, s.delta), sig)))
    return rep


def build_iterated(s: IterSetup):
    """Build the combined quadruple on V (x) W and verify everything.

    Hypotheses: both quadruples satisfy the twisted and cocycle
    conditions, Delta is a link morphism, tau a twisting morphism, and
    the combined sigma is compatible with Delta.  Consequences re-checked
    on the result: the combined quadruple again satisfies the weak
    measuring, twisted, cocycle and normalization conditions.

    Returns (combined quadruple, report).
    """
    pre = Report()
    for q, tag in ((s.qv, "first"), (s.qw, "second")):
        for item in (q.wmeas, q.twisted, q.cocycle):
            pre.add(type(item)(item.label, item.passed, item.witness,
                               note=f"{tag} factor"))
    pre.extend(check_link(s))
    pre.extend(check_twisting(s))
    pre.extend(check_sigma_conditions(s))
    rep = require(pre, "iteration hypotheses fail")
    rep.extend(check_quadruple(s.qvw))
    require(rep, "combined quadruple fails")
    return s.qvw, rep


def check_iterated_preunit_hypotheses(s: IterSetup, nu_v: FMor, nu_w: FMor) -> Report:
    """The two extra equations needed to combine the two preunits."""
    a, v, w = s.qv.a, s.qv.v, s.qw.v
    target = s.qvw.nabla_eta
    rep = Report()
    rep.add(check_equal(
        "pre-1",
        compose(
            s.musigma_w,
            tensor(s.qv.psi, s.tau),
            tensor(v, s.qw.psi, v),
            tensor(s.delta, nu_v),
        ),
        target,
    ))
    rep.add(check_equal(
        "pre-2",
        compose(
            s.mupsi_w,
            tensor(a, v, s.qw.sigma),
            tensor(a, s.tau, w),
            tensor(nu_w, v, w),
        ),
        target,
    ))
    return rep


def iterated_preunit(s: IterSetup, pre_v: Preunit, pre_w: Preunit):
    """Combine preunits of the two factors into one for V (x) W.

    nu = nabla o (mu (x) V (x) W) o (A (x) psi_V (x) W) o (nu_V (x) nu_W).
    Requires the preunit axioms of ``pre_v`` and ``pre_w``, which they
    keep, then checks the two hypotheses, and reports the combined
    preunit's kept axioms item, relabelled ``iterated-preunit``, and its
    preunit system.  Returns (the combined Preunit, report).
    """
    if pre_v.quad is not s.qv or pre_w.quad is not s.qw:
        raise ValueError("the preunits must belong to the setup's quadruples")
    for pre, tag in ((pre_v, "first"), (pre_w, "second")):
        require(Report([pre.axioms]),
                f"the {tag} preunit is not a preunit for its product")
    rep = require(check_iterated_preunit_hypotheses(s, pre_v.nu, pre_w.nu),
                  "iterated preunit hypotheses fail")
    qvw = s.qvw
    raw = compose(qvw.nabla, s.mupsi_w, tensor(pre_v.nu, pre_w.nu))
    pre = Preunit(qvw, FMor(raw.dom, qvw.a @ qvw.v, raw.mat))
    rep.add(replace(pre.axioms, label="iterated-preunit"))
    rep.items.extend(pre.system)
    require(rep, "iterated preunit fails verification")
    return pre, rep
