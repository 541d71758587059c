"""``mine-wdl`` outputs beyond the benchmark's two searches, pinned.

``data/mine_pins.json`` holds the exit code and the sha256 of stdout and
stderr, in text and with ``--json``, of random searches over GF(2), GF(3),
GF(5) and GF(7) at dims (1,2), (2,2) and (2,3) (seeds 0 and 1, budget
2000) and of bounded exhaustive searches (budget 3000) over GF(2) and
GF(3) at the same dims.  They were recorded with the miner that decoded
all digits of every code and rebuilt every whisker per candidate, so they
hold its output fixed for every prime and candidate size the exchange-law
test now runs on.

``EXHAUSTIVE_PINS`` hold the same record for the exhaustive GF(2) search
at dims (2,3), which the walk over the expansion of DL1 and DL3 runs and
the solution cap used to refuse.  They were recorded with the brute-force
path (the full predicate on all 2^18 exchange-law solutions, about 60 s
each) with that cap raised to 2^18.
"""

import hashlib
import json
import os

import pytest

from weakcp.cli import main

with open(os.path.join(os.path.dirname(__file__), "data",
                       "mine_pins.json")) as _fh:
    PINS = json.load(_fh)

EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
EXHAUSTIVE_PINS = {
    "--field 2 --dims 2,3 --exhaustive": {
        "exit": 0,
        "sha256": "e5faeac0002bdcf1ede981e96db76afd1f38c13e3b22ee5c57fef553330679ec",
        "stderr_sha256": EMPTY_SHA256},
    "--field 2 --dims 2,3 --exhaustive --json": {
        "exit": 0,
        "sha256": "65179c4534f158e6e30d16d5e58649d0eb246ef3e324f93746d367fefcde1575",
        "stderr_sha256": EMPTY_SHA256},
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_grid_is_complete():
    assert len(PINS) == 2 * (4 * 3 * 2 + 2 * 3)


@pytest.mark.parametrize("key", sorted(PINS) + sorted(EXHAUSTIVE_PINS))
def test_mine_outputs_pinned(key, capsys):
    code = main(["mine-wdl"] + key.split())
    out, err = capsys.readouterr()
    assert {"exit": code, "sha256": _sha256(out),
            "stderr_sha256": _sha256(err)} == {**PINS, **EXHAUSTIVE_PINS}[key]

