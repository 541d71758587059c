"""``mine-wdl`` outputs beyond the benchmark's two searches, pinned.

``data/mine_pins.json`` holds the exit code and the sha256 of stdout and
stderr, in text and with ``--json``, of random searches over GF(2), GF(3),
GF(5) and GF(7) at dims (1,2), (2,2) and (2,3) (seeds 0 and 1, budget
2000) and of bounded exhaustive searches (budget 3000) over GF(2) and
GF(3) at the same dims.  They were recorded with the miner that decoded
all digits of every code and rebuilt every whisker per candidate, so they
hold its output fixed for every prime and candidate size the exchange-law
test now runs on.
"""

import hashlib
import json
import os

import pytest

from weakcp.cli import main

with open(os.path.join(os.path.dirname(__file__), "data",
                       "mine_pins.json")) as _fh:
    PINS = json.load(_fh)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_grid_is_complete():
    assert len(PINS) == 2 * (4 * 3 * 2 + 2 * 3)


@pytest.mark.parametrize("key", sorted(PINS))
def test_mine_outputs_pinned(key, capsys):
    code = main(["mine-wdl"] + key.split())
    out, err = capsys.readouterr()
    assert {"exit": code, "sha256": _sha256(out),
            "stderr_sha256": _sha256(err)} == PINS[key]
