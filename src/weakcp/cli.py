"""Command-line front end.

Every subcommand reads a workspace JSON file (:mod:`weakcp.jsonio`
resolves and shape-checks its references), runs the requested checks on
the objects it holds, and emits a report — text, or JSON with ``--json``.  Check lines are
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
)
from .kernel import NotIdempotentError, split_idempotent
from .mine import EXHAUSTIVE_CAP, SearchTooLarge, mine_wdl, mine_wdl_random
from .report import Report, ReportItem, sort_by_registry
from .wcp import (
    PreconditionError,
    build_crossed_product,
    check_derived_identities,
    check_quadruple,
)


# ---------------------------------------------------------------------------
# Subcommand handlers: each is a loop over the resolved entries of the
# workspace, yielding (section name, Report, extras) triples
# ---------------------------------------------------------------------------


def _built(build, *args):
    """The (report, extras) pair of ``build(*args)``, or the report of the
    precondition that stopped it, with no extras."""
    try:
        return build(*args)
    except PreconditionError as exc:
        return exc.report, {}


def _cmd_check_quadruple(ws: Workspace):
    for name, q in ws.quadruples.items():
        rep = check_quadruple(q)
        rep.extend(check_derived_identities(q))
        yield name, rep, {}


def _crossed_product(q):
    cp = build_crossed_product(q)
    return cp.report, {"rank": cp.rank}


def _cmd_build_wcp(ws: Workspace):
    for name, q in ws.quadruples.items():
        yield name, *_built(_crossed_product, q)


def _cmd_check_preunit(ws: Workspace):
    for name, pre in ws.preunits.items():
        yield name, Report(list(pre.system)), {}


def _cmd_check_link(ws: Workspace):
    for name, s in ws.setups.items():
        yield name, check_link(s), {}


def _cmd_check_twisting(ws: Workspace):
    for name, s in ws.setups.items():
        yield name, check_twisting(s), {}


def _iterated(s):
    qvw, rep = build_iterated(s)
    return rep, {"iterated": encode_quadruple(qvw)}


def _cmd_iterate(ws: Workspace):
    for name, s in ws.setups.items():
        yield name, *_built(_iterated, s)


def _preunit_sections(ws: Workspace, label: str, build):
    """One section per setup: ``build(s, pre_v, pre_w)``, or a ``label``
    item skipping a setup with no preunit pair."""
    for name, s in ws.setups.items():
        pres = ws.setup_preunits[name]
        if pres is None:
            yield name, Report([ReportItem(
                label, None, note="setup declares no preunit pair; skipped",
            )]), {}
        else:
            yield name, *_built(build, s, *pres)


def _cmd_iterated_preunit(ws: Workspace):
    return _preunit_sections(ws, "iterated-preunit", lambda *args: (
        iterated_preunit(*args)[1], {}))


def _iso(s, pre_v, pre_w):
    bundle = build_iso(s, pre_v.nu, pre_w.nu)
    return bundle.report, {"rank": bundle.outer.dim}


def _cmd_iso(ws: Workspace):
    return _preunit_sections(ws, "omega-mult", _iso)


def _cmd_check_wreath(ws: Workspace):
    for name, entry in ws.wreaths.items():
        yield name, check_wreath(*entry), {}


def _cmd_check_dl(ws: Workspace):
    for name, entry in ws.laws.items():
        yield name, check_distributive_law(*entry), {}


def _cmd_check_wdl(ws: Workspace):
    for name, (a, b, lam) in ws.laws.items():
        pair = MonoidPair(a, b)
        rep = pair.check_wdl(lam)
        if rep.ok:
            rep.extend(pair.check_wdl_derived(lam))
        yield name, rep, {}


def _cmd_check_brz(ws: Workspace):
    for name, entry in ws.brz.items():
        yield name, check_brzezinski(*entry), {}


def _cmd_check_dp(ws: Workspace):
    for name, entry in ws.dp.items():
        yield name, check_dp(*entry), {}


def _cmd_split_idempotent(ws: Workspace):
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
    """Run the miner and return (payload, text lines)."""
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
    return payload, lines


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
    for name, rep, extras in _HANDLERS[args.command][0](ws):
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
            payload, lines = _cmd_mine_wdl(args)
            if args.json:
                _emit(json.dumps(payload, indent=2, sort_keys=True), args)
            else:
                _emit("\n".join(lines), args)
            return 0
        return _run_sections(args)
    except WorkspaceError as exc:
        print(f"error: {exc.pointer or '/'}: {exc.message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
