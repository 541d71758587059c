"""Outputs of the preunit subcommands on failing preunits, pinned.

Four workspaces are the committed fixtures with one declared preunit
replaced: ``mined_wdl.json`` with ``nu_v`` and then ``nu_w`` set to
[1,1,1,1], ``flip_triple.json`` with ``nu_v`` set to [0,0,0,2] and with
``nu_w`` set to [0,0,0,0].  ``data/preunit_fail_pins.json`` holds the exit
code and the sha256 of stdout and stderr of ``check-preunit``,
``iterated-preunit`` and ``iso`` on each, in text and with ``--json``,
recorded when ``iso`` checked the factors' preunit systems itself rather
than through the preunits that own them.
"""

import hashlib
import json
import os

import pytest

from weakcp.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

with open(os.path.join(os.path.dirname(__file__), "data",
                       "preunit_fail_pins.json")) as _fh:
    PINS = json.load(_fh)

CASES = {
    "mined_nu_v": ("mined_wdl.json", "nu_v", [1, 1, 1, 1]),
    "mined_nu_w": ("mined_wdl.json", "nu_w", [1, 1, 1, 1]),
    "flip_nu_v": ("flip_triple.json", "nu_v", [0, 0, 0, 2]),
    "flip_nu_w": ("flip_triple.json", "nu_w", [0, 0, 0, 0]),
}

# the failing labels of each job: the mined preunits pass every check of
# iterated-preunit and fail the factor-system stage of iso; the flip ones
# fail the preunit axioms and pre-2
FAILED = {
    "mined_nu_v": (["pre3-wcp", "preunit-idemp"], [],
                   ["pre3-wcp", "preunit-idemp"]),
    "mined_nu_w": (["pre3-wcp", "preunit-idemp"], [],
                   ["pre3-wcp", "preunit-idemp"]),
    "flip_nu_v": (["pre1-wcp", "pre2-wcp"], ["preunit"], ["preunit"]),
    "flip_nu_w": (["pre1-wcp", "pre2-wcp"], ["pre-2"], ["pre-2"]),
}
COMMANDS = ("check-preunit", "iterated-preunit", "iso")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _workspace(tmp_path, case):
    fname, pname, entries = CASES[case]
    with open(os.path.join(FIXTURES, fname)) as fh:
        ws = json.load(fh)
    (pre,) = [p for p in ws["preunits"] if p["name"] == pname]
    pre["entries"] = entries
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(ws))
    return str(path)


def test_grid_is_complete():
    assert len(PINS) == len(CASES) * len(COMMANDS) * 2


@pytest.mark.parametrize("key", sorted(PINS))
def test_failing_preunit_outputs_pinned(key, tmp_path, capsys):
    cmd, case, *flags = key.split()
    code = main([cmd, _workspace(tmp_path, case)] + flags)
    out, err = capsys.readouterr()
    assert {"exit": code, "sha256": _sha256(out),
            "stderr_sha256": _sha256(err)} == PINS[key]
    if flags:
        failed = [c["label"] for sec in json.loads(out)["sections"]
                  for c in sec["checks"] if c["passed"] is False]
        assert failed == FAILED[case][COMMANDS.index(cmd)]
        assert code == (1 if failed else 0)
