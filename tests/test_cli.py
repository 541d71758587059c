"""The command-line interface: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

from weakcp.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


ALL_GREEN = [
    ("check-quadruple", "skew_group.json"),
    ("check-quadruple", "flip_triple.json"),
    ("check-quadruple", "flip_triple_q.json"),
    ("check-quadruple", "quantum_plane.json"),
    ("check-quadruple", "mined_wdl.json"),
    ("build-wcp", "skew_group.json"),
    ("check-preunit", "skew_group.json"),
    ("check-link", "mined_wdl.json"),
    ("check-twisting", "mined_wdl.json"),
    ("iterate", "flip_triple.json"),
    ("iterated-preunit", "quantum_plane.json"),
    ("iso", "skew_group.json"),
    ("iso", "mined_wdl.json"),
    ("check-wreath", "quantum_plane.json"),
    ("check-dl", "quantum_plane.json"),
    ("check-wdl", "mined_wdl.json"),
    ("check-brz", "skew_group.json"),
    ("check-dp", "skew_group.json"),
    ("split-idempotent", "idempotents_f2.json"),
    ("split-idempotent", "idempotents_f3.json"),
]


@pytest.mark.parametrize("cmd,fname", ALL_GREEN,
                         ids=[f"{c}-{f}" for c, f in ALL_GREEN])
def test_green_paths(cmd, fname, capsys):
    assert main([cmd, fx(fname)]) == 0
    out = capsys.readouterr().out
    assert "result: ok" in out
    assert "FAIL" not in out


def test_failed_check_exits_1_with_witness(capsys):
    assert main(["check-quadruple", fx("corrupted.json")]) == 1
    out = capsys.readouterr().out
    assert "cocy2-wcp: FAIL" in out
    assert "at input" in out  # the witness coordinates


def test_malformed_exits_2_with_pointer(capsys):
    assert main(["check-quadruple", fx("malformed.json")]) == 2
    err = capsys.readouterr().err
    assert "/quadruples/0/psi/entries" in err


def test_missing_file_exits_2(capsys):
    assert main(["check-quadruple", fx("no_such_file.json")]) == 2


def test_json_output_schema(capsys):
    assert main(["iso", fx("skew_group.json"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "iso"
    assert payload["ok"] is True
    labels = [c["label"] for c in payload["sections"][0]["checks"]]
    assert "omega-mult" in labels and "new-it-1" in labels


def test_output_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert main(["check-quadruple", fx("flip_triple.json"),
                     "--json", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_ordering_follows_registry(capsys):
    assert main(["iterate", fx("flip_triple.json")]) == 0
    out = capsys.readouterr().out
    lines = [ln.split(":")[0] for ln in out.splitlines()
             if ":" in ln and not ln.startswith(("==", "result"))]
    from weakcp.report import LABEL_ORDER

    idx = {label: i for i, label in enumerate(LABEL_ORDER)}
    ranks = [idx[label] for label in lines if label in idx]
    assert ranks == sorted(ranks)


def test_mine_wdl_exhaustive(capsys):
    assert main(["mine-wdl", "--field", "2", "--dims", "2,2",
                 "--exhaustive", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 26
    assert payload["weak"] == 19
    assert payload["nondegenerate"] == 18
    assert any(law["code"] == 577 for law in payload["laws"])
    assert payload["fixture"]["quadruples"][0]["name"] == "mined"


def test_mine_wdl_random_needs_budget(capsys):
    assert main(["mine-wdl", "--field", "2", "--dims", "2,2"]) == 2


def test_mine_wdl_random_deterministic(capsys):
    args = ["mine-wdl", "--field", "2", "--dims", "2,2",
            "--seed", "5", "--budget", "500", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("flags,pointer", [
    (["--dims", "two,2"], "--dims"),
    (["--dims", "0,2"], "--dims"),
    (["--field", "4"], "--field"),
    (["--field", "1"], "--field"),
], ids=["dims-two", "dims-zero", "field-4", "field-1"])
def test_mine_wdl_bad_dims(flags, pointer, capsys):
    assert main(["mine-wdl", "--exhaustive"] + flags) == 2
    assert capsys.readouterr().err.startswith(f"error: {pointer}: ")


def test_mine_wdl_exhaustive_cap(capsys):
    t0 = time.perf_counter()
    assert main(["mine-wdl", "--dims", "3,3", "--exhaustive"]) == 2
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr().err.startswith("error: --dims: ")
    assert main(["mine-wdl", "--dims", "3,3", "--exhaustive",
                 "--budget", "10"]) == 0


@pytest.mark.parametrize("field, dims", [("2", "12,12"), ("3", "8,8")])
def test_mine_wdl_huge_exhaustive_refused_at_once(field, dims, capsys):
    """A lower bound on the exchange law's nullity refuses these before
    the law is solved, and the message writes p^n as a power."""
    t0 = time.perf_counter()
    assert main(["mine-wdl", "--field", field, "--dims", dims,
                 "--exhaustive"]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith("error: --dims: ")
    assert len(err) < 300


@pytest.mark.parametrize("dims", ["1,2000", "2000,1", "300,1", "17,16"])
@pytest.mark.parametrize("mode", [["--exhaustive"], ["--budget", "3"]],
                         ids=["exhaustive", "budget"])
def test_mine_wdl_law_over_cap_refused_at_once(dims, mode, capsys):
    """A law of more than 65,536 entries is refused before any algebra is
    built, whatever the search, even when one dimension is 1."""
    t0 = time.perf_counter()
    assert main(["mine-wdl", "--field", "2", "--dims", dims] + mode) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith("error: --dims: ")
    assert "entries, more than the cap of 65536" in err


@pytest.mark.parametrize("mode", [[], ["--exhaustive"]],
                         ids=["random", "exhaustive"])
def test_mine_wdl_negative_budget_exits_2(mode, capsys):
    assert main(["mine-wdl", "--budget", "-1"] + mode) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --budget: ")
    # a budget of 0 inspects no candidate and is not an error
    assert main(["mine-wdl", "--budget", "0"] + mode) == 0
    assert "laws found: 0" in capsys.readouterr().out


def test_mine_wdl_field_beyond_proven_bound(capsys):
    assert main(["mine-wdl", "--field", str(10**25), "--exhaustive"]) == 2
    assert capsys.readouterr().err.startswith("error: --field: ")


# (fixture, command, edit of the document, the error): a well-formed
# reference to a matrix of the wrong shape; the pointer indexes the list
WRONG_SHAPE = [
    ("quantum_plane.json", "check-wreath",
     lambda doc: doc["wreaths"][0].update(v="tau1"),
     "error: /wreaths/0/v: morphism 'tau1' must be 4x4, got 4x1"),
    ("quantum_plane.json", "check-dl",
     lambda doc: doc["laws"][1].update(lam="tau1"),
     "error: /laws/1/lam: morphism 'tau1' must be 4x4, got 4x1"),
    ("quantum_plane.json", "check-wdl",
     lambda doc: doc["laws"][1].update(lam="tau1"),
     "error: /laws/1/lam: morphism 'tau1' must be 4x4, got 4x1"),
    ("skew_group.json", "check-brz",
     lambda doc: doc["brz"][0].update(eta_v="sq"),
     "error: /brz/0/eta_v: morphism 'sq' must be 2x1, got 2x2"),
    ("skew_group.json", "check-dp",
     lambda doc: doc["dp"][0].update(eta_w="sq"),
     "error: /dp/0/eta_w: morphism 'sq' must be 2x1, got 2x2"),
]


@pytest.mark.parametrize("fname,cmd,edit,error", WRONG_SHAPE,
                         ids=[c for _, c, _, _ in WRONG_SHAPE])
def test_reference_of_wrong_shape_points_into_the_list(
        fname, cmd, edit, error, capsys, tmp_path):
    with open(fx(fname)) as fh:
        doc = json.load(fh)
    doc["morphisms"].append({"name": "sq", "mat": {
        "rows": 2, "cols": 2, "entries": [1, 0, 0, 1]}})
    edit(doc)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert main([cmd, str(path)]) == 2
    assert capsys.readouterr().err == error + "\n"


def test_workspace_string_prime_exits_2(capsys, tmp_path):
    with open(fx("flip_triple.json")) as fh:
        obj = json.load(fh)
    obj["field"]["p"] = str(obj["field"]["p"])
    path = tmp_path / "string_p.json"
    path.write_text(json.dumps(obj))
    assert main(["check-quadruple", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: /field: ")


def test_iterated_preunit_skips_without_preunits(capsys, tmp_path):
    # a workspace whose setup declares no preunit pair is skipped, not
    # failed, by iterated-preunit and by iso
    with open(fx("flip_triple.json")) as fh:
        obj = json.load(fh)
    for key in ("nu_first", "nu_second"):
        del obj["setups"][0][key]
    path = tmp_path / "nopre.json"
    path.write_text(json.dumps(obj))
    for cmd, label in (("iterated-preunit", "iterated-preunit"),
                       ("iso", "omega-mult")):
        assert main([cmd, str(path)]) == 0
        assert capsys.readouterr().out == (
            f"== flip ==\n{label}: n/a "
            "(setup declares no preunit pair; skipped)\nresult: ok\n")


HELP_LISTING = [
    "    check-quadruple     defining and derived identities of quadruples",
    "    build-wcp           build each crossed product and verify associativity",
    "    check-preunit       preunit system of each declared preunit",
    "    check-link          link-morphism conditions of each setup",
    "    check-twisting      twisting-morphism conditions of each setup",
    "    iterate             build the combined quadruple of each setup",
    "    iterated-preunit    combine the preunits of each setup",
    "    iso                 verify the two-stage/one-shot monoid isomorphism",
    "    check-wreath        wreath axioms of each declared wreath",
    "    check-dl            distributive-law axioms of each declared law",
    "    check-wdl           weak distributive-law axioms and derived identities",
    "    check-brz           unitality axioms of each declared unital quadruple",
    "    check-dp            iterated unitality axioms of each declared pair",
    "    split-idempotent    split each declared square morphism",
    "    mine-wdl            search for weak distributive laws",
]


def _listing(out):
    return out[out.index("    check-quadruple"):].split("\n\n")[0].splitlines()


def test_help_lists_each_subcommand_once(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert _listing(capsys.readouterr().out) == HELP_LISTING


def _run_oo(*argv):
    """Run python -OO, which strips docstrings, on argv."""
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.path.join(
        os.path.dirname(__file__), "..", "src"))
    return subprocess.run([sys.executable, "-OO", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_help_needs_no_docstrings():
    proc = _run_oo("-m", "weakcp.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert _listing(proc.stdout) == HELP_LISTING
    script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                          "check_miner_oracle.py")
    proc = _run_oo(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "reference path" in proc.stdout


def test_entry_point_installed():
    import shutil

    exe = shutil.which("weakcp")
    if exe is None:
        pytest.skip("console script not on PATH")
    import subprocess

    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
