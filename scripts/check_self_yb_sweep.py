"""Run every workspace subcommand on the self-Yang-Baxter laws of the
exhaustive (2,2) searches.

The searches are those of ``mine_wdl`` with both monoids the same
two-dimensional algebra: diag(2) over GF(2) and GF(3), cyclic(2) over
GF(2), and truncated(2) over GF(2) and GF(3).  Every law they find that
satisfies the hexagon relation with itself (59 laws) is made a law triple
by ``wdl_triple_from_law`` and written, by
``generate_workspaces.triple_workspace``, to a temporary directory.  Some
of these laws have a zero nabla, so their crossed products are the zero
space.  Every subcommand, in text and with ``--json``, must end in exit
0, 1 or 2 without raising; the script prints each job that does not and
exits 1.

Usage: python3 scripts/check_self_yb_sweep.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import traceback

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, os.path.dirname(__file__))

from generate_workspaces import triple_workspace  # noqa: E402
from weakcp import cli  # noqa: E402
from weakcp.fields import GF  # noqa: E402
from weakcp.fixtures import (  # noqa: E402
    cyclic_group_algebra,
    diagonal_algebra,
    truncated_polynomial_algebra,
    wdl_triple_from_law,
)
from weakcp.mine import mine_wdl  # noqa: E402

# (family, builder of the two-dimensional algebra, primes searched)
SEARCHES = (
    ("diag", diagonal_algebra, (2, 3)),
    ("cyclic", cyclic_group_algebra, (2,)),
    ("trunc", truncated_polynomial_algebra, (2, 3)),
)


def algebra(family: str, p: int):
    """The two-dimensional algebra ``family`` over GF(p)."""
    build = {name: b for name, b, _ in SEARCHES}[family]
    return build("S", 2, GF(p))


def self_yb_laws():
    """(name, algebra, law) of every self-Yang-Baxter law of the searches."""
    for family, _, primes in SEARCHES:
        for p in primes:
            a = algebra(family, p)
            for law in mine_wdl(a, a).laws:
                if law.self_yang_baxter:
                    yield f"{family}-{p}-{law.code}", a, law.law


def write_workspace(directory: str, name: str, a, lam) -> str:
    """Write the triple workspace of the law lam on a; return its path."""
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(triple_workspace(wdl_triple_from_law(a, lam), name), fh,
                  indent=2, sort_keys=True)
    return path


def run_every_subcommand(path: str) -> dict:
    """{argv: exit code} of every subcommand on path, text and --json.

    A job that raises, or writes a traceback, is recorded with the
    traceback text in place of its exit code.
    """
    codes = {}
    for command in cli._HANDLERS:
        for flags in ([], ["--json"]):
            argv = [command, path] + flags
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception:
                    code = traceback.format_exc()
            if "Traceback" in err.getvalue():
                code = err.getvalue()
            codes[" ".join(argv)] = code
    return codes


def main() -> int:
    bad = 0
    laws = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, a, lam in self_yb_laws():
            laws += 1
            for argv, code in run_every_subcommand(
                    write_workspace(tmp, name, a, lam)).items():
                if code not in (0, 1, 2):
                    bad += 1
                    print(f"{name}: {argv}: {code}")
    jobs = laws * 2 * len(cli._HANDLERS)
    print(f"{laws} self-Yang-Baxter laws, {jobs} jobs, {bad} failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
