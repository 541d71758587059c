"""Rational outputs that contain fractions, pinned; and the canonical form
of every rational entry the engine stores.

``data/q_half.json`` is the quantum-plane law triple over Q with
A = B = C = k[x]/(x^2) and twist q = 1/2 (``truncated_polynomial_algebra``
and ``q_twist``, written by ``scripts/generate_workspaces.py``'s
``triple_workspace`` and ``add_wreath``).  ``data/q_half_psi_off.json`` is
the same file with psi[0, 0] of quadruple V raised by 1/3, so that the
checks fail with fractional witnesses.  ``data/q_half_pins.json`` holds
the exit code and the sha256 of stdout and stderr of the eleven
subcommands of the benchmark's ``scale`` workload on both, in text and
with ``--json``, recorded with every rational entry still a Fraction.
"""

import hashlib
import json
import os
from fractions import Fraction

import pytest

from weakcp.cli import main
from weakcp.kernel import Mat

DATA = os.path.join(os.path.dirname(__file__), "data")
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

with open(os.path.join(DATA, "q_half_pins.json")) as _fh:
    PINS = json.load(_fh)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(PINS))
def test_q_half_outputs_pinned(key, capsys):
    cmd, fname, *flags = key.split()
    code = main([cmd, os.path.join(DATA, fname)] + flags)
    out, err = capsys.readouterr()
    assert {"exit": code, "sha256": _sha256(out),
            "stderr_sha256": _sha256(err)} == PINS[key]


def test_psi_off_witness_is_fractional(capsys):
    assert main(["check-quadruple",
                 os.path.join(DATA, "q_half_psi_off.json")]) == 1
    out = capsys.readouterr().out
    assert "wmeas-wcp: FAIL  [at input (0, 0, 0) output (0, 0): 16/9 != 4/3]" in out


@pytest.mark.parametrize("path", [
    os.path.join(FIXTURES, "flip_triple_q.json"),
    os.path.join(DATA, "q_half.json"),
], ids=["flip_triple_q", "q_half"])
def test_iso_stores_no_whole_fraction(path, monkeypatch, capsys):
    built = []
    init = Mat.__init__

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Mat, "__init__", spy_init)
    assert main(["iso", path]) == 0
    capsys.readouterr()
    assert len(built) > 100
    kinds = set()
    for m in built:
        for row in m.nonzeros:
            for _, x in row:
                assert type(x) is int or (
                    type(x) is Fraction and x.denominator > 1), (m, x)
                kinds.add(type(x))
    assert int in kinds
    assert (Fraction in kinds) == path.endswith("q_half.json")
