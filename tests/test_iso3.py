"""The monoid isomorphism between the two ways of iterating."""

import collections
import dataclasses
import functools
import os

import pytest

from weakcp import cli, fdvect, fixtures, iso, iterate, preunit, wcp
from weakcp.fdvect import FObj, check_monoid, compose, identity
from weakcp.fields import GF, QQ
from weakcp.fixtures import (
    LawTriple,
    flip_fixture,
    q_twist,
    quantum_plane_triple,
    skew_group_double,
    triple_setup,
    truncated_polynomial_algebra,
    wdl_triple_from_law,
)
from weakcp.fdvect import tensor
from weakcp.iso import build_iso, check_newit
from weakcp.kernel import mat_eq, rank
from weakcp.mine import mined_law


def all_doubles():
    for fix in (flip_fixture(QQ, "flip-Q"), flip_fixture(GF(3), "flip-F3"),
                skew_group_double(GF(3))):
        yield fix.name, fix.setup, fix.nu_v, fix.nu_w
    t = quantum_plane_triple()
    yield "quantum-plane", triple_setup(t), *t.preunits
    t = wdl_triple_from_law(*mined_law())
    yield "mined-577", triple_setup(t), *t.preunits


@pytest.fixture(params=list(all_doubles()), ids=lambda t: t[0])
def double(request):
    return request.param


def test_check_newit(double):
    _, s, _, nu_w = double
    rep = check_newit(s, nu_w)
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


def test_iso_builds_mu_v_once_per_quadruple(monkeypatch):
    """One iso job on flip_triple.json forms the whisker mu (x) V once per
    quadruple, with its own V: for A x V, A x W and A x (V (x) W)."""
    calls = []
    loaded = []
    load = cli.load_workspace

    def keep(*args, **kwargs):
        loaded.append(load(*args, **kwargs))
        return loaded[-1]

    _spy(monkeypatch, "tensor", calls)
    monkeypatch.setattr(cli, "load_workspace", keep)
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        "flip_triple.json")
    assert cli.main(["iso", path]) == 0
    (s,) = loaded[0].setups.values()
    mu = s.qv.monoid.mul
    whiskers = collections.Counter(
        fs[1] for fs in calls
        if len(fs) == 2 and fs[0] is mu and isinstance(fs[1], FObj))
    assert whiskers == {q.v: 1 for q in (s.qv, s.qw, s.qvw)}, whiskers


def _spy(monkeypatch, name, calls, results=None):
    """Record the arguments of every call to the engine function ``name``,
    through every module that binds it, and its results in ``results``."""
    original = getattr(fdvect, name, None) or getattr(preunit, name)

    def spy(*args, **kwargs):
        calls.append(args)
        out = original(*args, **kwargs)
        if results is not None:
            results.append(out)
        return out

    for module in (fdvect, wcp, preunit, iterate, iso, fixtures):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)


def _asymmetric_triple():
    """The scale workload's triple over Q: dims 2, 2 and 3, so V != W."""
    a, b, c = (truncated_polynomial_algebra(n, d, QQ)
               for n, d in zip("ABC", (2, 2, 3)))
    t = LawTriple(a, b, c, l1=q_twist(b, a, 2), l2=q_twist(c, b, 2),
                  l3=q_twist(c, a, 2), weak=False)
    return t, triple_setup(t)


def test_iso_verifies_each_preunit_once(monkeypatch):
    t, s = _asymmetric_triple()
    nu_v, nu_w = t.preunits
    systems, axioms, tensors = [], [], []
    original = preunit.Preunit.system

    def system(pre):
        systems.append(pre)
        return original.func(pre)

    kept = functools.cached_property(system)
    kept.__set_name__(preunit.Preunit, "system")
    monkeypatch.setattr(preunit.Preunit, "system", kept)
    _spy(monkeypatch, "check_preunit_axioms", axioms)
    _spy(monkeypatch, "tensor", tensors)
    b = build_iso(s, nu_v, nu_w)
    pairs = ((s.qv, nu_v), (s.qw, nu_w), (s.qvw, b.ucp_vw.pre.nu))
    assert sorted((id(p.quad), id(p.nu)) for p in systems) == sorted(
        (id(q), id(nu)) for q, nu in pairs)
    assert sorted((id(m), id(nu)) for m, nu, *_ in axioms) == sorted(
        (id(q.product), id(nu)) for q, nu in pairs)
    # nabla_nu = product o (A (x) V (x) nu) and beta = muv o (A (x) nu)
    # are each formed once per pair
    for q, nu in pairs:
        for left in ((q.a, q.v), (q.a,)):
            assert sum(fs[-1] is nu and fs[:-1] == left
                       for fs in tensors) == 1, (q.v, left)


def test_iso_builds_identities_only_to_compare(monkeypatch):
    """One iso job calls identity() only for values that checks compare
    with: the identity of each of the three images, and that of
    (A x V) x W for omega-left-inv and for the unit laws of its monoid.
    Every whisker is typed, so no kernel product receives a matrix that
    identity() built, and mu (x) V (x) W is formed once."""
    t, s = _asymmetric_triple()
    nu_v, nu_w = t.preunits
    muvw = fdvect.tensor(t.a.mul, s.qv.v @ s.qw.v).mat
    objs, ids, operands, products = [], [], [], []
    _spy(monkeypatch, "identity", objs, ids)
    for name, picks in (("mat_tensor", slice(0, 2)),
                        ("mat_whisker", slice(1, 2))):
        original = getattr(fdvect, name)

        def spy(*args, original=original, picks=picks):
            operands.extend(args[picks])
            products.append(original(*args))
            return products[-1]

        monkeypatch.setattr(fdvect, name, spy)
    b = build_iso(s, nu_v, nu_w)
    images = [u.cp.obj for u in (b.ucp_v, b.ucp_w, b.ucp_vw)]
    assert sorted(repr(obj) for obj, _ in objs) == sorted(
        map(repr, images + [b.outer.obj] * 2))
    assert not [m for m in operands if any(m is i.mat for i in ids)]
    assert sum(mat_eq(m, muvw) for m in products) == 1


def test_check_wdl_builds_each_whisker_once(monkeypatch):
    calls = []
    original = fixtures.tensor

    def spy(*fs):
        calls.append(fs)
        return original(*fs)

    loaded = []
    load = cli.load_workspace

    def keep(*args, **kwargs):
        loaded.append(load(*args, **kwargs))
        return loaded[-1]

    monkeypatch.setattr(fixtures, "tensor", spy)
    monkeypatch.setattr(cli, "load_workspace", keep)
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        "mined_wdl.json")
    assert cli.main(["check-wdl", path]) == 0
    (a,) = loaded[0].monoids.values()
    whiskers = collections.Counter(
        fs for fs in calls if fs in ((a.mul, a.obj), (a.obj, a.mul)))
    assert whiskers == {(a.mul, a.obj): 1, (a.obj, a.mul): 1}, whiskers


def test_omega_mutual_inverses(double):
    _, s, nu_v, nu_w = double
    b = build_iso(s, nu_v, nu_w)
    field = s.field
    assert mat_eq(compose(b.omega, b.omega_inv).mat,
                  identity(b.ucp_vw.cp.obj, field).mat)
    assert mat_eq(compose(b.omega_inv, b.omega).mat,
                  identity(b.outer.obj, field).mat)


def test_omega_is_monoid_iso(double):
    _, s, nu_v, nu_w = double
    b = build_iso(s, nu_v, nu_w)
    assert check_monoid(b.outer).ok
    assert mat_eq(
        compose(b.omega, b.outer.mul).mat,
        compose(b.ucp_vw.cp.mul, tensor(b.omega, b.omega)).mat,
    )
    assert mat_eq(compose(b.omega, b.outer.unit).mat, b.ucp_vw.unit.mat)


def test_ranks_agree(double):
    _, s, nu_v, nu_w = double
    b = build_iso(s, nu_v, nu_w)
    assert b.outer.dim == b.ucp_vw.cp.obj.dim
    assert rank(b.nabla_axv_w.mat) == rank(b.ucp_vw.cp.quad.nabla.mat)
    assert b.report["rank-match"].passed is True


def test_mined_outer_is_strictly_smaller():
    t = wdl_triple_from_law(*mined_law())
    s = triple_setup(t)
    b = build_iso(s, *t.preunits)
    big = s.qv.a.dim * s.qv.v.dim * s.qw.v.dim
    assert b.outer.dim < big
