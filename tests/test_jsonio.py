"""Workspace JSON encoding, decoding, and error pointers."""

import json
from fractions import Fraction

import pytest

from conftest import from_rows
from weakcp.fields import GF, QQ
from weakcp.fixtures import flip_fixture, skew_group_quadruple
from weakcp.jsonio import (
    WorkspaceError,
    decode_mat,
    decode_monoid,
    decode_workspace,
    encode_mat,
    encode_monoid,
    encode_preunit,
    encode_quadruple,
    encode_setup,
    load_workspace,
)
from weakcp.kernel import mat_eq
from weakcp.wcp import check_quadruple


def test_mat_round_trip_rational():
    m = from_rows([["1/2", -3], [0, "7/5"]], QQ)
    enc = encode_mat(m)
    assert enc["entries"] == ["1/2", "-3", "0", "7/5"]
    assert mat_eq(decode_mat(enc, QQ, ""), m)


def test_mat_round_trip_prime_field():
    m = from_rows([[1, 2], [0, 4]], GF(5))
    enc = encode_mat(m)
    assert enc["entries"] == [1, 2, 0, 4]
    assert mat_eq(decode_mat(enc, GF(5), ""), m)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (2, 0)])
def test_mat_round_trip_empty_shapes(rows, cols):
    enc = {"rows": rows, "cols": cols, "entries": []}
    m = decode_mat(enc, QQ, "")
    assert m.nonzeros == ((),) * rows
    assert encode_mat(m) == enc


def test_mat_entry_count_checked():
    with pytest.raises(WorkspaceError) as exc:
        decode_mat({"rows": 2, "cols": 2, "entries": [1, 2, 3]}, GF(5), "/m")
    assert exc.value.pointer == "/m/entries"


def test_mat_entry_range_checked():
    with pytest.raises(WorkspaceError) as exc:
        decode_mat({"rows": 1, "cols": 2, "entries": [1, 7]}, GF(5), "/m")
    assert exc.value.pointer == "/m/entries/1"


def test_bad_rational_pointer():
    with pytest.raises(WorkspaceError) as exc:
        decode_mat({"rows": 1, "cols": 1, "entries": ["1/0"]}, QQ, "/m")
    assert exc.value.pointer == "/m/entries/0"


def test_monoid_round_trip():
    q, _ = skew_group_quadruple()
    enc = encode_monoid(q.monoid)
    dec = decode_monoid(enc, GF(3), "/monoids/0")
    assert dec.name == q.monoid.name
    assert mat_eq(dec.mul.mat, q.monoid.mul.mat)
    assert mat_eq(dec.unit.mat, q.monoid.unit.mat)


def full_workspace():
    fix = flip_fixture(GF(3), "flip")
    s = fix.setup
    return {
        "field": {"type": "Fp", "p": 3},
        "monoids": [encode_monoid(s.qv.monoid)],
        "quadruples": [
            dict(name="V", **encode_quadruple(s.qv)),
            dict(name="W", **encode_quadruple(s.qw)),
        ],
        "preunits": [
            dict(name="nu_v", **encode_preunit("V", fix.nu_v)),
            dict(name="nu_w", **encode_preunit("W", fix.nu_w)),
        ],
        "setups": [dict(name="flip", **encode_setup(
            "V", "W", s, nu_v="nu_v", nu_w="nu_w"
        ))],
    }


def test_workspace_round_trip():
    ws = decode_workspace(full_workspace())
    assert set(ws.quadruples) == {"V", "W"}
    assert check_quadruple(ws.quadruples["V"]).ok
    assert ws.setup_preunits["flip"] == ("nu_v", "nu_w")
    s = ws.setups["flip"]
    assert s.qv.monoid == s.qw.monoid


def test_duplicate_name_pointer():
    obj = full_workspace()
    obj["quadruples"][1]["name"] = "V"
    with pytest.raises(WorkspaceError) as exc:
        decode_workspace(obj)
    assert exc.value.pointer == "/quadruples/1/name"


def test_unknown_monoid_pointer():
    obj = full_workspace()
    obj["quadruples"][0]["monoid"] = "nope"
    with pytest.raises(WorkspaceError) as exc:
        decode_workspace(obj)
    assert exc.value.pointer == "/quadruples/0/monoid"


def test_unknown_preunit_reference():
    obj = full_workspace()
    obj["setups"][0]["nu_first"] = "ghost"
    with pytest.raises(WorkspaceError) as exc:
        decode_workspace(obj)
    assert exc.value.pointer == "/setups/0/nu_first"


def test_missing_field_key():
    with pytest.raises(WorkspaceError):
        decode_workspace({"monoids": []})


@pytest.mark.parametrize("p", ["7", 4, 10**25])
def test_bad_prime_pointer(p):
    obj = full_workspace()
    obj["field"]["p"] = p
    with pytest.raises(WorkspaceError) as exc:
        decode_workspace(obj)
    assert exc.value.pointer == "/field"


def test_wrong_sigma_shape_pointer():
    obj = full_workspace()
    obj["quadruples"][0]["sigma"]["rows"] = 3
    with pytest.raises(WorkspaceError) as exc:
        decode_workspace(obj)
    assert exc.value.pointer.startswith("/quadruples/0/sigma")


def test_load_workspace_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(WorkspaceError):
        load_workspace(str(path))


def test_load_generated_fixture_files():
    import glob
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    names = sorted(glob.glob(os.path.join(root, "*.json")))
    assert names, "fixtures directory is empty"
    for path in names:
        if os.path.basename(path) == "malformed.json":
            with pytest.raises(WorkspaceError):
                load_workspace(path)
        else:
            ws = load_workspace(path)
            assert ws.field is not None


def test_generated_files_are_canonical():
    # regeneration must be byte-stable: files parse and re-serialize equal
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    path = os.path.join(root, "skew_group.json")
    with open(path) as fh:
        text = fh.read()
    obj = json.loads(text)
    assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == text


def test_first_bad_entry_named():
    # the pointer and message of the first bad entry, not of a later one
    with pytest.raises(WorkspaceError) as exc:
        decode_mat({"rows": 1, "cols": 4, "entries": [1, 7, "x", 9]}, GF(5), "/m")
    assert (exc.value.pointer, exc.value.message) == (
        "/m/entries/1", "entry 7 out of range 0..4")
    with pytest.raises(WorkspaceError) as exc:
        decode_mat({"rows": 1, "cols": 4, "entries": ["1/2", 0.5, "x", "1/0"]},
                   QQ, "/m")
    assert (exc.value.pointer, exc.value.message) == (
        "/m/entries/1", "expected a rational entry (str/int), got float")
    with pytest.raises(WorkspaceError) as exc:
        decode_mat({"rows": 1, "cols": 3, "entries": ["1", "1/0", "x"]}, QQ, "/m")
    assert exc.value.pointer == "/m/entries/1"
    assert exc.value.message.startswith("bad rational '1/0': ")


def test_decoded_rationals_are_canonical():
    m = decode_mat({"rows": 1, "cols": 5,
                    "entries": ["4/2", 3, "-0", "٣", " 1/3 "]}, QQ, "/m")
    assert m.entries == (2, 3, 0, 3, Fraction(1, 3))
    assert [type(x) for x in m.entries] == [int, int, int, int, Fraction]


def _fixture(name):
    import os

    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", name)
    with open(path) as fh:
        return json.load(fh)


def _set(obj, pointer, value):
    *path, last = pointer.strip("/").split("/")
    for key in path:
        obj = obj[int(key)] if isinstance(obj, list) else obj[key]
    obj[int(last) if isinstance(obj, list) else last] = value


# JSON true and false are not numbers: bool is a subclass of int in
# Python, so each of these was once read as 1 or 0.
BOOLEANS = [
    ("split-idempotent", "idempotents_f3.json", "/morphisms/0/mat/entries/1",
     "expected a prime-field entry (int), got bool"),
    ("check-quadruple", "flip_triple_q.json", "/monoids/0/mul/entries/0",
     "expected a rational entry (str/int), got bool"),
    ("check-quadruple", "flip_triple_q.json", "/monoids/0/unit/1",
     "expected a rational entry (str/int), got bool"),
    ("check-quadruple", "flip_triple_q.json", "/quadruples/0/psi/rows",
     "expected a row count (int), got bool"),
    ("check-quadruple", "flip_triple_q.json", "/quadruples/0/psi/cols",
     "expected a column count (int), got bool"),
    ("check-quadruple", "flip_triple_q.json", "/monoids/0/dim",
     "expected a dimension (int), got bool"),
    ("check-quadruple", "flip_triple_q.json", "/quadruples/0/V",
     "expected a dimension (int), got bool"),
]


@pytest.mark.parametrize("cmd,fname,pointer,message", BOOLEANS,
                         ids=[b[2] for b in BOOLEANS])
def test_boolean_rejected_where_int_expected(cmd, fname, pointer, message,
                                             tmp_path, capsys):
    from weakcp.cli import main

    obj = _fixture(fname)
    _set(obj, pointer, True)
    path = tmp_path / fname
    path.write_text(json.dumps(obj))
    with pytest.raises(WorkspaceError) as exc:
        decode_workspace(obj)
    assert (exc.value.pointer, exc.value.message) == (pointer, message)
    assert main([cmd, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{pointer}: {message}" in captured.err
