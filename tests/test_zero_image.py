"""Laws whose crossed products are the zero space.

Eleven self-Yang-Baxter laws of the exhaustive (2,2) searches have a
nabla of rank 0 on one of A (x) V, A (x) W or A (x) V (x) W, so the split
image there is the zero space.  Every subcommand must finish on their
triple workspaces, and ``build-wcp`` and ``iso`` must pass: the zero
space with its zero product and unit is a monoid.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

from check_self_yb_sweep import (  # noqa: E402
    algebra,
    run_every_subcommand,
    write_workspace,
)
from weakcp.mine import law_from_code  # noqa: E402

ZERO_IMAGE_LAWS = [
    ("diag", 2, 0), ("diag", 2, 64), ("diag", 2, 512), ("diag", 2, 576),
    ("diag", 3, 0), ("diag", 3, 729), ("diag", 3, 19683), ("diag", 3, 20412),
    ("cyclic", 2, 0), ("trunc", 2, 0), ("trunc", 3, 0),
]


@pytest.mark.parametrize("family,p,code", ZERO_IMAGE_LAWS,
                         ids=[f"{f}-{p}-{c}" for f, p, c in ZERO_IMAGE_LAWS])
def test_every_subcommand_finishes(family, p, code, tmp_path):
    a = algebra(family, p)
    path = write_workspace(str(tmp_path), f"{family}-{code}", a,
                           law_from_code(a, a, code))
    codes = run_every_subcommand(path)
    assert len(codes) == 28
    failed = {argv: c for argv, c in codes.items() if c not in (0, 1, 2)}
    assert not failed, failed
    for argv, c in codes.items():
        if argv.startswith(("build-wcp ", "iso ")):
            assert c == 0, argv
