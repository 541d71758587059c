"""The monoid isomorphism between the two ways of iterating."""

import collections
import dataclasses

import pytest

from weakcp import fdvect, iso, iterate, preunit, wcp
from weakcp.fdvect import check_monoid, compose, identity, mor_eq
from weakcp.fields import GF, QQ
from weakcp.fixtures import (
    flip_fixture,
    quantum_plane_triple,
    skew_group_double,
    triple_setup,
    wdl_preunit,
    wdl_triple_from_law,
)
from weakcp.fdvect import tensor
from weakcp.iso import build_iso, check_newit
from weakcp.kernel import rank
from weakcp.mine import mined_law


def all_doubles():
    for fix in (flip_fixture(QQ, "flip-Q"), flip_fixture(GF(3), "flip-F3"),
                skew_group_double(GF(3))):
        yield fix.name, fix.setup, fix.nu_v, fix.nu_w
    t = quantum_plane_triple()
    yield "quantum-plane", triple_setup(t), \
        tensor(t.a.unit, t.b.unit), tensor(t.a.unit, t.c.unit)
    a, lam = mined_law()
    t = wdl_triple_from_law(a, lam)
    yield "mined-577", triple_setup(t), \
        wdl_preunit(t.a, t.b, t.l1), wdl_preunit(t.a, t.c, t.l3)


@pytest.fixture(params=list(all_doubles()), ids=lambda t: t[0])
def double(request):
    return request.param


def test_check_newit(double):
    _, s, nu_v, nu_w = double
    rep = check_newit(s, nu_v, nu_w)
    assert rep.ok, rep.render()
    assert [i.label for i in rep.items] == ["new-it-1", "new-it-2", "new-it-3"]


def test_staged_pipeline(double):
    # one check per label, in stage order, on a bundle that stays as built
    _, s, nu_v, nu_w = double
    b = build_iso(s, nu_v, nu_w)
    assert b.report.ok, b.report.render()
    assert [i.label for i in b.report.items] == [
        "new-it-1", "new-it-2", "new-it-3", "i-axv-mult", "i-axv-unit",
        "nabla-axvw-idem", "nabla-axvw-linear",
        "omega-right-inv", "omega-left-inv", "omega-compat",
        "outer-assoc", "outer-unit-left", "outer-unit-right",
        "omega-mult", "omega-unit", "rank-match",
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.report = None


def test_iso_verifies_each_identity_once(monkeypatch):
    labels = collections.Counter()
    original = fdvect.check_equal

    def spy(label, *args, **kwargs):
        labels[label] += 1
        return original(label, *args, **kwargs)

    for module in (fdvect, wcp, preunit, iterate, iso):
        monkeypatch.setattr(module, "check_equal", spy)
    fix = flip_fixture(GF(3), "flip")
    build_iso(fix.setup, fix.nu_v, fix.nu_w)
    # once per quadruple: A x V, A x W and A x (V (x) W)
    for label in ("wmeas-wcp", "twis-wcp", "cocy2-wcp", "assoc"):
        assert labels[label] == 3, (label, labels[label])
    assert labels["product-assoc"] == 0


def test_omega_mutual_inverses(double):
    _, s, nu_v, nu_w = double
    b = build_iso(s, nu_v, nu_w)
    field = s.field
    assert mor_eq(compose(b.omega, b.omega_inv),
                  identity(b.ucp_vw.cp.obj, field))
    assert mor_eq(compose(b.omega_inv, b.omega),
                  identity(b.outer.obj, field))


def test_omega_is_monoid_iso(double):
    _, s, nu_v, nu_w = double
    b = build_iso(s, nu_v, nu_w)
    assert check_monoid(b.outer).ok
    assert mor_eq(
        compose(b.omega, b.outer.mul),
        compose(b.ucp_vw.cp.mul, tensor(b.omega, b.omega)),
    )
    assert mor_eq(compose(b.omega, b.outer.unit), b.ucp_vw.unit)


def test_ranks_agree(double):
    _, s, nu_v, nu_w = double
    b = build_iso(s, nu_v, nu_w)
    assert b.outer.dim == b.ucp_vw.cp.obj.dim
    assert rank(b.nabla_axv_w.mat) == rank(b.ucp_vw.cp.quad.nabla.mat)
    assert b.report["rank-match"].passed is True


def test_mined_outer_is_strictly_smaller():
    a, lam = mined_law()
    t = wdl_triple_from_law(a, lam)
    s = triple_setup(t)
    b = build_iso(s, wdl_preunit(t.a, t.b, t.l1), wdl_preunit(t.a, t.c, t.l3))
    big = s.qv.a.dim * s.qv.v.dim * s.qw.v.dim
    assert b.outer.dim < big
