"""Every subcommand, end to end, against a dense reference kernel.

Each job runs twice: once with the engine's row-sparse ``mat_compose``
and ``mat_tensor``, and once with the dense triple loops below, built
with the dense helper of ``conftest`` and patched in at every module of
the engine that binds the kernel's functions.  Exit code, stdout and
stderr must agree.  The jobs are every subcommand of ``cli._HANDLERS``,
in text and with ``--json``, on every committed fixture and on
``tests/data/q_half*.json``.  Tier-1 runs a fixed sample, the subcommands
in ``SAMPLE``; ``python3 scripts/check_reference_path.py`` runs them all
through :func:`main`.
"""

import contextlib
import glob
import io
import os
import sys

import pytest

from conftest import dense_mat
from weakcp import cli, kernel
from weakcp.fields import same_field

HERE = os.path.dirname(os.path.abspath(__file__))
FILES = sorted(glob.glob(os.path.join(HERE, "..", "fixtures", "*.json"))) + \
    sorted(glob.glob(os.path.join(HERE, "data", "q_half*.json")))
SAMPLE = ("iso", "iterate", "build-wcp", "check-wdl")


def dense_compose(g, f):
    """g o f by the triple loop over the dense entries."""
    field = same_field(g.field, f.field)
    if g.cols != f.rows:
        raise kernel.ShapeError(
            f"cannot compose {g.rows}x{g.cols} with {f.rows}x{f.cols}: "
            f"{g.cols} != {f.rows}"
        )
    ge, fe, n, m = g.entries, f.entries, g.cols, f.cols
    out = [field.zero()] * (g.rows * m)
    for i in range(g.rows):
        for t in range(n):
            if a := ge[i * n + t]:
                for j in range(m):
                    out[i * m + j] = field.add(out[i * m + j],
                                               field.mul(a, fe[t * m + j]))
    return dense_mat(g.rows, m, tuple(out), field)


def dense_tensor(f, g):
    """The Kronecker product: entry ((i1, i2), (j1, j2)) is
    f[i1, j1] * g[i2, j2]."""
    field = same_field(f.field, g.field)
    fe, ge, zero = f.entries, g.entries, field.zero()
    return dense_mat(f.rows * g.rows, f.cols * g.cols, tuple(
        field.mul(a, ge[i2 * g.cols + j2]) if (a := fe[i1 * f.cols + j1])
        else zero
        for i1 in range(f.rows) for i2 in range(g.rows)
        for j1 in range(f.cols) for j2 in range(g.cols)), field)


@contextlib.contextmanager
def dense_kernel():
    """Patch the dense products in wherever the engine binds the kernel's;
    yield the number of calls each has taken."""
    calls = {"mat_compose": 0, "mat_tensor": 0}
    patched = []
    for name, dense in (("mat_compose", dense_compose),
                        ("mat_tensor", dense_tensor)):
        original = getattr(kernel, name)

        def counted(*args, name=name, dense=dense):
            calls[name] += 1
            return dense(*args)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("weakcp")
                    and getattr(module, name, None) is original):
                patched.append((module, name, original))
                setattr(module, name, counted)
    try:
        yield calls
    finally:
        for module, name, original in patched:
            setattr(module, name, original)


def run(argv):
    """(exit code, stdout, stderr) of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def jobs(commands=tuple(cli._HANDLERS), files=FILES):
    return [[command, path] + flags for path in files for command in commands
            for flags in ([], ["--json"])]


def differing(argvs):
    """The jobs whose exit code, stdout or stderr change when the dense
    kernel replaces the engine's, and the calls the dense kernel took."""
    engine = [run(argv) for argv in argvs]
    with dense_kernel() as calls:
        reference = [run(argv) for argv in argvs]
    return [argv for argv, e, r in zip(argvs, engine, reference)
            if e != r], calls


def main() -> int:
    argvs = jobs()
    bad, calls = differing(argvs)
    for argv in bad:
        print("differs:", " ".join(argv))
    print(f"{len(argvs)} jobs, {len(bad)} differ from the dense reference "
          f"({calls['mat_compose']} products, {calls['mat_tensor']} tensors)")
    return 1 if bad or not all(calls.values()) else 0


def _bindings(name):
    return {m.__name__: getattr(m, name) for m in list(sys.modules.values())
            if getattr(m, "__name__", "").startswith("weakcp")
            and hasattr(m, name)}


@pytest.mark.parametrize("name", ["mat_compose", "mat_tensor"])
def test_dense_kernel_patches_every_binding(name):
    before = _bindings(name)
    assert {"weakcp.kernel", "weakcp.fdvect"} <= set(before)
    with dense_kernel():
        during = _bindings(name)
    assert all(during[m] is not f for m, f in before.items())
    assert _bindings(name) == before


@pytest.mark.parametrize("path", FILES, ids=os.path.basename)
def test_sample_matches_dense_reference(path):
    assert not differing(jobs(SAMPLE, [path]))[0]
