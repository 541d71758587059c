"""Regenerate the workspace JSON files under fixtures/.

The files are derived deterministically from the named fixtures in
weakcp.fixtures, so this script only needs re-running when those change.
Usage: python3 scripts/generate_workspaces.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from weakcp.fdvect import tensor
from weakcp.fields import GF, QQ
from weakcp.fixtures import (
    MonoidPair,
    flip_fixture,
    quantum_plane_triple,
    skew_group_double,
    skew_group_quadruple,
    triple_setup,
    wdl_triple_from_law,
)
from weakcp.jsonio import (
    encode_mat,
    encode_monoid,
    encode_preunit,
    encode_quadruple,
    encode_setup,
)
from weakcp.mine import mined_law

OUT = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def named(name, obj):
    return dict(name=name, **obj)


def double_workspace(fix, qv_name, qw_name):
    """A workspace holding one DoubleFixture: quadruples, preunits, setup."""
    s = fix.setup
    return {
        "field": s.field.descriptor(),
        "monoids": [encode_monoid(s.qv.monoid)],
        "quadruples": [
            named(qv_name, encode_quadruple(s.qv)),
            named(qw_name, encode_quadruple(s.qw)),
        ],
        "preunits": [
            named("nu_v", encode_preunit(qv_name, fix.nu_v)),
            named("nu_w", encode_preunit(qw_name, fix.nu_w)),
        ],
        "setups": [named(fix.name, encode_setup(
            qv_name, qw_name, s, nu_v="nu_v", nu_w="nu_w"
        ))],
    }


def triple_workspace(t, name):
    """A workspace for a LawTriple: laws plus the induced setup."""
    s = triple_setup(t)
    nu_v, nu_w = t.preunits
    monoids = [encode_monoid(t.a)]
    for m in (t.b, t.c):
        if all(m.name != e["name"] for e in monoids):
            monoids.append(encode_monoid(m))
    laws = [named("l1", {"a": t.a.name, "b": t.b.name, "lam": "lam1"})]
    morphisms = [named("lam1", {"mat": encode_mat(t.l1.mat)})]
    if t.l3 is not t.l1:
        laws.append(named("l3", {"a": t.a.name, "b": t.c.name, "lam": "lam3"}))
        morphisms.append(named("lam3", {"mat": encode_mat(t.l3.mat)}))
    return {
        "field": t.a.field.descriptor(),
        "monoids": monoids,
        "morphisms": morphisms,
        "quadruples": [
            named("V", encode_quadruple(s.qv)),
            named("W", encode_quadruple(s.qw)),
        ],
        "preunits": [
            named("nu_v", encode_preunit("V", nu_v)),
            named("nu_w", encode_preunit("W", nu_w)),
        ],
        "setups": [named(name, encode_setup(
            "V", "W", s, nu_v="nu_v", nu_w="nu_w"
        ))],
        "laws": laws,
    }


def add_wreath(ws, t):
    """Append the wreath datum induced by the first law of a DL triple."""
    tau = tensor(t.a.unit, t.b.unit)
    v = tensor(t.a.unit, t.b.mul)
    ws.setdefault("morphisms", []).extend([
        named("tau1", {"mat": encode_mat(tau.mat)}),
        named("v1", {"mat": encode_mat(v.mat)}),
    ])
    ws["wreaths"] = [named("w1", {
        "a": t.a.name, "b": t.b.name, "lam": "lam1", "tau": "tau1", "v": "v1",
    })]
    return ws


def skew_workspace():
    """The skew-group double, with unital (brz/dp) declarations."""
    fix = skew_group_double()
    ws = double_workspace(fix, "G", "H")
    _, eta_v = skew_group_quadruple()
    ws["morphisms"] = [named("eta", {"mat": encode_mat(eta_v.mat)})]
    ws["brz"] = [named("skew-unital", {"quadruple": "G", "eta_v": "eta"})]
    ws["dp"] = [named("skew-pair", {
        "setup": fix.name, "eta_v": "eta", "eta_w": "eta",
    })]
    return ws


def corrupted_workspace():
    """A well-formed file whose quadruple fails its axioms (exit 1)."""
    q = skew_group_quadruple()[0]
    ws = {
        "field": q.field.descriptor(),
        "monoids": [encode_monoid(q.monoid)],
        "quadruples": [named("G", encode_quadruple(q))],
    }
    entries = ws["quadruples"][0]["sigma"]["entries"]
    entries[0] = (entries[0] + 1) % 3
    return ws


def malformed_workspace():
    """A structurally broken file: entry count off by one (exit 2)."""
    q = skew_group_quadruple()[0]
    ws = {
        "field": q.field.descriptor(),
        "monoids": [encode_monoid(q.monoid)],
        "quadruples": [named("G", encode_quadruple(q))],
    }
    del ws["quadruples"][0]["psi"]["entries"][0]
    return ws


def idempotents_workspace():
    """Idempotents of the named fixtures, for the split-idempotent command."""
    a, lam = mined_law()
    q = flip_fixture(GF(3), "flip").setup.qv
    return {
        "field": GF(3).descriptor(),
        "morphisms": [
            named("flip-nabla", {"mat": encode_mat(q.nabla.mat)}),
        ],
    }, {
        "field": GF(2).descriptor(),
        "morphisms": [
            named("mined-nabla", {"mat": encode_mat(MonoidPair(a, a).nabla(lam).mat)}),
        ],
    }


def main():
    os.makedirs(OUT, exist_ok=True)
    a, lam = mined_law()
    files = {
        "flip_triple.json": double_workspace(
            flip_fixture(GF(3), "flip"), "V", "W"
        ),
        "flip_triple_q.json": double_workspace(
            flip_fixture(QQ, "flip"), "V", "W"
        ),
        "quantum_plane.json": add_wreath(triple_workspace(
            quantum_plane_triple(), "quantum-plane"
        ), quantum_plane_triple()),
        "skew_group.json": skew_workspace(),
        "mined_wdl.json": triple_workspace(
            wdl_triple_from_law(a, lam), "mined"
        ),
        "corrupted.json": corrupted_workspace(),
        "malformed.json": malformed_workspace(),
    }
    ws3, ws2 = idempotents_workspace()
    files["idempotents_f3.json"] = ws3
    files["idempotents_f2.json"] = ws2
    for fname, ws in files.items():
        path = os.path.join(OUT, fname)
        with open(path, "w") as fh:
            json.dump(ws, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
