"""Command-line front end.

Every subcommand reads a workspace JSON file (see :mod:`weakcp.jsonio`),
runs the requested checks on the named objects it contains, and emits a
report — aligned text by default, JSON with ``--json``.  Check lines are
ordered by the label registry, so output is byte-identical across runs
for identical inputs and flags.

Exit codes: 0 when every requested check passes, 1 when a check fails
(a concrete counterexample is printed), 2 for malformed input (with a
JSON pointer to the offending field).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .fdvect import UNIT
from .fields import GF
from .fixtures import (
    MonoidPair,
    check_brzezinski,
    check_distributive_law,
    check_dp,
    check_wreath,
    diagonal_algebra,
    quadruple_from_wdl,
)
from .iso import build_iso
from .iterate import build_iterated, check_link, check_twisting, iterated_preunit
from .jsonio import (
    Workspace,
    WorkspaceError,
    encode_monoid,
    encode_quadruple,
    load_workspace,
    workspace_morphism,
)
from .kernel import NotIdempotentError, split_idempotent
from .mine import EXHAUSTIVE_CAP, SearchTooLarge, mine_wdl, mine_wdl_random
from .preunit import Preunit
from .report import Report, ReportItem, sort_by_registry
from .wcp import (
    PreconditionError,
    build_crossed_product,
    check_derived_identities,
    check_quadruple,
)


def _guarded(fn) -> Report:
    """Run a builder, turning a precondition failure into its report."""
    try:
        return fn()
    except PreconditionError as exc:
        return exc.report


# ---------------------------------------------------------------------------
# Subcommand handlers: each yields (section name, Report, extras) triples
# ---------------------------------------------------------------------------


def _cmd_check_quadruple(ws: Workspace, args):
    for name, q in ws.quadruples.items():
        rep = check_quadruple(q)
        rep.extend(check_derived_identities(q))
        yield name, rep, {}


def _cmd_build_wcp(ws: Workspace, args):
    for name, q in ws.quadruples.items():
        extras = {}

        def build(q=q, extras=extras):
            cp = build_crossed_product(q)
            extras["rank"] = cp.rank
            return cp.report

        yield name, _guarded(build), extras


def _cmd_check_preunit(ws: Workspace, args):
    for name, (qname, nu) in ws.preunits.items():
        yield name, Report(list(Preunit(ws.quadruples[qname], nu).system)), {}


def _cmd_check_link(ws: Workspace, args):
    for name, s in ws.setups.items():
        yield name, check_link(s), {}


def _cmd_check_twisting(ws: Workspace, args):
    for name, s in ws.setups.items():
        yield name, check_twisting(s), {}


def _cmd_iterate(ws: Workspace, args):
    for name, s in ws.setups.items():
        extras = {}

        def build(s=s, extras=extras):
            qvw, rep = build_iterated(s)
            extras["iterated"] = encode_quadruple(qvw)
            return rep

        yield name, _guarded(build), extras


def _preunit_sections(ws: Workspace, label: str, build):
    """One section per setup: the report of ``build(s, nu_v, nu_w,
    extras)``, or a ``label`` item skipping a setup with no preunit pair."""
    for name, s in ws.setups.items():
        refs = ws.setup_preunits.get(name, (None, None))
        if None in refs:
            rep = Report([ReportItem(
                label, None, note="setup declares no preunit pair; skipped",
            )])
            yield name, rep, {}
            continue
        extras = {}
        nus = tuple(ws.preunits[r][1] for r in refs)
        yield name, _guarded(lambda: build(s, *nus, extras)), extras


def _cmd_iterated_preunit(ws: Workspace, args):
    def build(s, nu_v, nu_w, extras):
        return iterated_preunit(s, Preunit(s.qv, nu_v), Preunit(s.qw, nu_w))[1]

    return _preunit_sections(ws, "iterated-preunit", build)


def _cmd_iso(ws: Workspace, args):
    def build(s, nu_v, nu_w, extras):
        bundle = build_iso(s, nu_v, nu_w)
        extras["rank"] = bundle.outer.dim
        return bundle.report

    return _preunit_sections(ws, "omega-mult", build)


def _cmd_check_wreath(ws: Workspace, args):
    for name, entry in ws.wreaths.items():
        refs = entry[1]
        a, b = ws.monoids[refs["a"]], ws.monoids[refs["b"]]
        ab = a.obj @ b.obj
        lam = workspace_morphism(ws, entry, "lam", b.obj @ a.obj, ab)
        tau = workspace_morphism(ws, entry, "tau", UNIT, ab)
        v = workspace_morphism(ws, entry, "v", b.obj @ b.obj, ab)
        yield name, check_wreath(a, b, lam, tau, v), {}


def _law_entries(ws: Workspace):
    for name, entry in ws.laws.items():
        refs = entry[1]
        a, b = ws.monoids[refs["a"]], ws.monoids[refs["b"]]
        lam = workspace_morphism(ws, entry, "lam", b.obj @ a.obj,
                                 a.obj @ b.obj)
        yield name, a, b, lam


def _cmd_check_dl(ws: Workspace, args):
    for name, a, b, lam in _law_entries(ws):
        yield name, check_distributive_law(a, b, lam), {}


def _cmd_check_wdl(ws: Workspace, args):
    for name, a, b, lam in _law_entries(ws):
        pair = MonoidPair(a, b)
        rep = pair.check_wdl(lam)
        if rep.ok:
            rep.extend(pair.check_wdl_derived(lam))
        yield name, rep, {}


def _cmd_check_brz(ws: Workspace, args):
    for name, entry in ws.brz.items():
        q = ws.quadruples[entry[1]["quadruple"]]
        eta_v = workspace_morphism(ws, entry, "eta_v", UNIT, q.v)
        yield name, check_brzezinski(q, eta_v), {}


def _cmd_check_dp(ws: Workspace, args):
    for name, entry in ws.dp.items():
        s = ws.setups[entry[1]["setup"]]
        eta_v = workspace_morphism(ws, entry, "eta_v", UNIT, s.qv.v)
        eta_w = workspace_morphism(ws, entry, "eta_w", UNIT, s.qw.v)
        yield name, check_dp(s, eta_v, eta_w), {}


def _cmd_split_idempotent(ws: Workspace, args):
    for name, m in ws.morphisms.items():
        if m.rows != m.cols:
            rep = Report([ReportItem(
                "split", None, note="not square; skipped"
            )])
            yield name, rep, {}
            continue
        try:
            sp = split_idempotent(m)
        except NotIdempotentError as exc:
            rep = Report([ReportItem("split", False, note=str(exc))])
            yield name, rep, {}
            continue
        rep = Report([ReportItem("split", True, note=f"rank {sp.rank}")])
        yield name, rep, {"rank": sp.rank}


# subcommand -> (handler, help text); the help is data, not a docstring,
# so that it survives python -OO
_HANDLERS = {
    "check-quadruple": (_cmd_check_quadruple,
                        "defining and derived identities of quadruples"),
    "build-wcp": (_cmd_build_wcp,
                  "build each crossed product and verify associativity"),
    "check-preunit": (_cmd_check_preunit,
                      "preunit system of each declared preunit"),
    "check-link": (_cmd_check_link, "link-morphism conditions of each setup"),
    "check-twisting": (_cmd_check_twisting,
                       "twisting-morphism conditions of each setup"),
    "iterate": (_cmd_iterate, "build the combined quadruple of each setup"),
    "iterated-preunit": (_cmd_iterated_preunit,
                         "combine the preunits of each setup"),
    "iso": (_cmd_iso, "verify the two-stage/one-shot monoid isomorphism"),
    "check-wreath": (_cmd_check_wreath, "wreath axioms of each declared wreath"),
    "check-dl": (_cmd_check_dl, "distributive-law axioms of each declared law"),
    "check-wdl": (_cmd_check_wdl,
                  "weak distributive-law axioms and derived identities"),
    "check-brz": (_cmd_check_brz,
                  "unitality axioms of each declared unital quadruple"),
    "check-dp": (_cmd_check_dp,
                 "iterated unitality axioms of each declared pair"),
    "split-idempotent": (_cmd_split_idempotent,
                         "split each declared square morphism"),
}


# ---------------------------------------------------------------------------
# Mining
# ---------------------------------------------------------------------------


def _cmd_mine_wdl(args):
    """Run the miner and return (payload, text lines, exit code)."""
    try:
        field = GF(args.field)
    except ValueError as exc:
        raise WorkspaceError(str(exc), "--field")
    try:
        s, t = (int(x) for x in args.dims.split(","))
    except ValueError:
        raise WorkspaceError("expected two integers like 2,2", "--dims")
    if s < 1 or t < 1:
        raise WorkspaceError("dimensions must be positive", "--dims")
    if (s * t) ** 2 > EXHAUSTIVE_CAP:
        raise WorkspaceError(
            f"a law at dims ({s},{t}) has ({s}*{t})^2 = {(s * t) ** 2} "
            f"entries, more than the cap of {EXHAUSTIVE_CAP}", "--dims")
    if args.budget is not None and args.budget < 0:
        raise WorkspaceError(
            f"must be 0 or more candidates, got {args.budget}", "--budget")
    a = diagonal_algebra("S", s, field)
    b = diagonal_algebra("T", t, field)
    if args.exhaustive:
        try:
            result = mine_wdl(a, b, limit=args.budget)
        except SearchTooLarge as exc:
            raise WorkspaceError(
                f"exhaustive search at dims ({s},{t}): {exc}; give --budget N "
                "to inspect the first N codes", "--dims")
    else:
        result = mine_wdl_random(a, b, seed=args.seed, tries=args.budget)
    laws = [
        {"code": law.code, "nabla_rank": law.nabla_rank,
         "self_yang_baxter": law.self_yang_baxter}
        for law in result.laws
    ]
    payload = {
        "command": "mine-wdl",
        "field": field.descriptor(),
        "dims": [s, t],
        "exhaustive": bool(args.exhaustive),
        "total": result.total,
        "weak": result.weak,
        "nondegenerate": result.nondegenerate,
        "laws": laws,
    }
    lines = [
        f"mine-wdl over {field!r} at dims ({s},{t})"
        + (" [exhaustive]" if args.exhaustive else f" [seed {args.seed}]"),
        f"laws found: {result.total} "
        f"(weak: {result.weak}, nondegenerate: {result.nondegenerate})",
    ]
    for law in result.laws:
        lines.append(
            f"  code {law.code}: rank {law.nabla_rank}"
            + (", self-YB" if law.self_yang_baxter else "")
        )
    fixture = next(
        (law for law in result.laws
         if 0 < law.nabla_rank < a.dim * b.dim and law.self_yang_baxter),
        None,
    )
    if fixture is not None:
        q = quadruple_from_wdl(a, b, fixture.law)
        payload["fixture"] = {
            "field": field.descriptor(),
            "monoids": [encode_monoid(a), encode_monoid(b)],
            "quadruples": [dict(name="mined", **encode_quadruple(q))],
        }
        lines.append(f"fixture quadruple built from code {fixture.code}")
    return payload, lines, 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _emit(text: str, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _run_sections(args) -> int:
    ws = load_workspace(args.file)
    sections = []
    for name, rep, extras in _HANDLERS[args.command][0](ws, args):
        sections.append((name, sort_by_registry(rep), extras))
    ok = all(rep.ok for _, rep, _ in sections)
    if args.json:
        payload = {
            "command": args.command,
            "ok": ok,
            "sections": [
                dict(name=name, **extras, **rep.to_json())
                for name, rep, extras in sections
            ],
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args)
    else:
        lines = []
        for name, rep, extras in sections:
            lines.append(f"== {name} ==")
            if rep.items:
                lines.append(rep.render())
            for key, value in extras.items():
                if not isinstance(value, dict):
                    lines.append(f"{key}: {value}")
        lines.append("result: " + ("ok" if ok else "FAIL"))
        _emit("\n".join(lines), args)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakcp",
        description="Exact verification of weak crossed products.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON")
        p.add_argument("--out", metavar="FILE",
                       help="write the report to FILE instead of stdout")

    for name, (_, help_text) in _HANDLERS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="workspace JSON file")
        common(p)

    p = sub.add_parser("mine-wdl",
                       help="search for weak distributive laws")
    p.add_argument("--field", type=int, default=2, metavar="P",
                   help="prime order of the coefficient field (default 2)")
    p.add_argument("--dims", default="2,2", metavar="S,T",
                   help="dimensions of the two diagonal algebras")
    p.add_argument("--budget", type=int, default=None, metavar="N",
                   help="max candidates to inspect")
    p.add_argument("--seed", type=int, default=0, metavar="K",
                   help="seed for the random search (default 0)")
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate the whole space instead of sampling")
    common(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "mine-wdl":
            if not args.exhaustive and args.budget is None:
                print("error: the random search needs --budget",
                      file=sys.stderr)
                return 2
            payload, lines, code = _cmd_mine_wdl(args)
            if args.json:
                _emit(json.dumps(payload, indent=2, sort_keys=True), args)
            else:
                _emit("\n".join(lines), args)
            return code
        return _run_sections(args)
    except WorkspaceError as exc:
        print(f"error: {exc.pointer or '/'}: {exc.message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
