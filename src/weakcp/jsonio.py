"""JSON encoding and decoding for workspaces.

A workspace file is a single JSON object carrying a field descriptor and
named collections of monoids, morphisms, quadruples, preunits, iteration
setups, and the two-monoid example data (wreaths, distributive laws,
unital quadruples, iterated unital pairs).  All names within a collection
are unique, every cross-reference resolves by name, and everything lives
over the one declared field.

Scalar encodings: rationals are strings like ``"-3/7"`` or integers;
prime-field entries are integers in ``0..p-1``.  JSON ``true`` and
``false`` are rejected wherever an integer is expected.  A matrix is
``{"rows": n, "cols": m, "entries": [...]}`` in row-major order.  This
module is the only one where matrices are dense: the decoders turn the
validated list into rows of nonzeros, and the encoders write it from the
rows, each zero as ``0`` over GF(p) and ``"0"`` over Q.

This module alone knows the schema: every reference is resolved to the
object it names, and every referenced matrix is shape-checked against
its role, when the file is loaded.  Malformed input raises
:class:`WorkspaceError` carrying a JSON pointer (RFC 6901) to the
offending field, which the CLI surfaces with exit code 2.  The
collections are lists, so a pointer indexes into them
(``/wreaths/0/v``).  A file that is not JSON, nests deeper than the
parser recurses, or holds a rational whose decimal exponent would give
more digits than ``int()`` reads is refused the same way.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from itertools import compress

from .fdvect import FMor, FObj, MonoidData, UNIT, vobj
from .fields import PrimeField, field_from_descriptor
from .iterate import IterSetup
from .kernel import Mat
from .preunit import Preunit
from .wcp import Quadruple

# int() refuses a digit string longer than this; a decimal exponent giving
# as many digits is refused alike, before Fraction spends minutes on it
_MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


class WorkspaceError(ValueError):
    """Malformed workspace JSON, with a pointer to the offending field."""

    def __init__(self, message: str, pointer: str):
        super().__init__(f"{pointer}: {message}")
        self.message = message
        self.pointer = pointer


def _expect(obj, typ, what: str, ptr: str):
    # no key takes a boolean, and JSON true/false must not pass for 1/0
    if not isinstance(obj, typ) or isinstance(obj, bool):
        name = typ.__name__ if isinstance(typ, type) else "/".join(
            t.__name__ for t in typ
        )
        raise WorkspaceError(
            f"expected {what} ({name}), got {type(obj).__name__}", ptr
        )
    return obj


def _get(obj: dict, key: str, typ, what: str, ptr: str):
    if key not in obj:
        raise WorkspaceError(f"missing required key {key!r}", ptr)
    return _expect(obj[key], typ, what, f"{ptr}/{key}")


def _as_map(m: Mat, dom: FObj, cod: FObj, what: str, ptr: str) -> FMor:
    """m as a map dom -> cod; it must have that shape."""
    if (m.rows, m.cols) != (cod.dim, dom.dim):
        raise WorkspaceError(
            f"{what} must be {cod.dim}x{dom.dim}, got {m.rows}x{m.cols}", ptr)
    return FMor(dom, cod, m)


def _ref(obj: dict, key: str, collection: dict, kind: str, ptr: str):
    """The entry of ``collection`` that the name under ``key`` refers to."""
    name = _get(obj, key, str, f"a {kind} name", ptr)
    if name not in collection:
        raise WorkspaceError(f"unknown {kind} {name!r}", f"{ptr}/{key}")
    return collection[name]


def _map_ref(obj: dict, key: str, morphisms: dict, dom: FObj, cod: FObj,
             ptr: str) -> FMor:
    """The morphism named under ``key``, as a map dom -> cod."""
    m = _ref(obj, key, morphisms, "morphism", ptr)
    return _as_map(m, dom, cod, f"morphism {obj[key]!r}", f"{ptr}/{key}")


def _decode_map(obj: dict, key: str, dom: FObj, cod: FObj, field, ptr: str,
                what: str | None = None) -> FMor:
    """The matrix under ``key``, decoded as a map dom -> cod."""
    m = decode_mat(obj.get(key), field, f"{ptr}/{key}")
    return _as_map(m, dom, cod, what or key, f"{ptr}/{key}")


# ---------------------------------------------------------------------------
# Scalars and matrices
# ---------------------------------------------------------------------------


def encode_scalar(x, field):
    if isinstance(field, PrimeField):
        return int(x)
    return field.fmt(x)


def decode_scalar(x, field, ptr: str):
    if isinstance(field, PrimeField):
        v = _expect(x, int, "a prime-field entry", ptr)
        if not 0 <= v < field.p:
            raise WorkspaceError(
                f"entry {v} out of range 0..{field.p - 1}", ptr
            )
        return v
    _expect(x, (str, int), "a rational entry", ptr)
    if type(x) is str and not _exponent_ok(x):
        raise WorkspaceError(
            f"bad rational {x!r}: its decimal exponent gives more than "
            f"{_MAX_DIGITS} digits", ptr)
    try:
        return field.coerce(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise WorkspaceError(f"bad rational {x!r}: {exc}", ptr) from None


def _exponent_ok(x: str) -> bool:
    """Whether x has no decimal exponent, or one below ``_MAX_DIGITS``."""
    m = _EXPONENT.search(x)
    try:
        return m is None or abs(int(m[1])) < _MAX_DIGITS
    except ValueError:  # the exponent alone has more digits than that
        return False


def _decode_scalars(xs: list, field, ptr: str) -> tuple:
    """The entries of a JSON list, decoded by :func:`decode_scalar`.

    The whole list is checked at once; only when that check fails, or a
    rational has an exponent, are the entries decoded one by one, and the
    JSON pointer ``ptr/i`` is formatted only for the first bad entry.
    """
    if isinstance(field, PrimeField):
        p = field.p
        if all(type(x) is int and 0 <= x < p for x in xs):
            return tuple(xs)
    elif all(type(x) is int or (type(x) is str and "e" not in x
                                and "E" not in x) for x in xs):
        try:
            return tuple(map(field.coerce, xs))
        except (ValueError, ZeroDivisionError):
            pass
    vals = []
    for i, x in enumerate(xs):
        try:
            vals.append(decode_scalar(x, field, ptr))
        except WorkspaceError as exc:
            raise WorkspaceError(exc.message, f"{ptr}/{i}") from None
    return tuple(vals)


def _dense(m: Mat) -> list:
    """The row-major JSON entries of m, written from its rows."""
    out = [0 if isinstance(m.field, PrimeField) else "0"] * (m.rows * m.cols)
    for r, row in enumerate(m.nonzeros):
        for c, x in row:
            out[r * m.cols + c] = encode_scalar(x, m.field)
    return out


def encode_mat(m: Mat) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": _dense(m),
    }


def decode_mat(obj, field, ptr: str) -> Mat:
    _expect(obj, dict, "a matrix object", ptr)
    rows = _get(obj, "rows", int, "a row count", ptr)
    cols = _get(obj, "cols", int, "a column count", ptr)
    if rows < 0 or cols < 0:
        raise WorkspaceError(f"negative shape {rows}x{cols}", ptr)
    entries = _get(obj, "entries", list, "an entry list", ptr)
    if len(entries) != rows * cols:
        raise WorkspaceError(
            f"a {rows}x{cols} matrix needs {rows * cols} entries, "
            f"got {len(entries)}",
            f"{ptr}/entries",
        )
    vals = _decode_scalars(entries, field, f"{ptr}/entries")
    return Mat(rows, cols, tuple(
        tuple(compress(zip(range(cols), row), row))
        for row in (vals[r * cols:(r + 1) * cols] for r in range(rows))), field)


def encode_vector(m: Mat) -> list:
    """A one-column matrix as a plain list of scalars."""
    return _dense(m)


def decode_vector(obj, length: int, field, ptr: str) -> Mat:
    _expect(obj, list, "a vector", ptr)
    if len(obj) != length:
        raise WorkspaceError(
            f"expected a vector of length {length}, got {len(obj)}", ptr
        )
    return Mat(length, 1, tuple(((0, x),) if x else ()
                                for x in _decode_scalars(obj, field, ptr)), field)


# ---------------------------------------------------------------------------
# Monoids, quadruples, preunits, setups
# ---------------------------------------------------------------------------


def encode_monoid(m: MonoidData) -> dict:
    return {
        "name": m.name,
        "dim": m.dim,
        "unit": encode_vector(m.unit.mat),
        "mul": encode_mat(m.mul.mat),
    }


def decode_monoid(obj, field, ptr: str) -> MonoidData:
    _expect(obj, dict, "a monoid object", ptr)
    name = _get(obj, "name", str, "a name", ptr)
    dim = _get(obj, "dim", int, "a dimension", ptr)
    if dim < 1:
        raise WorkspaceError(f"dimension must be positive, got {dim}", f"{ptr}/dim")
    unit = decode_vector(_get(obj, "unit", list, "a unit vector", ptr),
                         dim, field, f"{ptr}/unit")
    a = vobj(name, dim)
    mul = _decode_map(obj, "mul", a @ a, a, field, ptr, "multiplication")
    return MonoidData(name, a, mul, FMor(UNIT, a, unit))


def encode_quadruple(q: Quadruple) -> dict:
    return {
        "monoid": q.monoid.name,
        "V": q.v.dim,
        "psi": encode_mat(q.psi.mat),
        "sigma": encode_mat(q.sigma.mat),
    }


def decode_quadruple(obj, name: str, monoids: dict, field, ptr: str) -> Quadruple:
    _expect(obj, dict, "a quadruple object", ptr)
    m = _ref(obj, "monoid", monoids, "monoid", ptr)
    vdim = _get(obj, "V", int, "a dimension", ptr)
    if vdim < 1:
        raise WorkspaceError(f"dimension must be positive, got {vdim}", f"{ptr}/V")
    a, v = m.obj, vobj(name, vdim)
    return Quadruple(m, v, _decode_map(obj, "psi", v @ a, a @ v, field, ptr),
                     _decode_map(obj, "sigma", v @ v, a @ v, field, ptr))


def encode_preunit(qname: str, nu: FMor) -> dict:
    return {"quadruple": qname, "entries": encode_vector(nu.mat)}


def decode_preunit(obj, quadruples: dict, field, ptr: str) -> Preunit:
    _expect(obj, dict, "a preunit object", ptr)
    q = _ref(obj, "quadruple", quadruples, "quadruple", ptr)
    vec = decode_vector(
        _get(obj, "entries", list, "an entry vector", ptr),
        q.a.dim * q.v.dim, field, f"{ptr}/entries",
    )
    return Preunit(q, FMor(UNIT, q.a @ q.v, vec))


def decode_setup(obj, quadruples: dict, field, ptr: str) -> IterSetup:
    _expect(obj, dict, "a setup object", ptr)
    qv, qw = (_ref(obj, key, quadruples, "quadruple", ptr)
              for key in ("first", "second"))
    if qv.monoid != qw.monoid:
        raise WorkspaceError(
            "the two quadruples must share the same monoid", ptr
        )
    vw = qv.v @ qw.v
    return IterSetup(qv, qw, _decode_map(obj, "delta", vw, vw, field, ptr),
                     _decode_map(obj, "tau", qw.v @ qv.v, vw, field, ptr))


def encode_setup(qv_name: str, qw_name: str, s: IterSetup,
                 nu_v: str | None = None, nu_w: str | None = None) -> dict:
    out = {
        "first": qv_name,
        "second": qw_name,
        "delta": encode_mat(s.delta.mat),
        "tau": encode_mat(s.tau.mat),
    }
    if nu_v is not None:
        out["nu_first"] = nu_v
    if nu_w is not None:
        out["nu_second"] = nu_w
    return out


# ---------------------------------------------------------------------------
# The workspace
# ---------------------------------------------------------------------------


@dataclass
class Workspace:
    """Decoded contents of a workspace file, every reference resolved.

    Collections are name-keyed dicts in file order, and each entry holds
    the objects it names, never a name.  ``morphisms`` holds the raw
    matrices of the file.  ``preunits`` maps each preunit to its
    :class:`~weakcp.preunit.Preunit` owner over its quadruple, and
    ``setup_preunits`` maps each setup to the pair of owners its
    ``nu_first`` and ``nu_second`` name, or to None when it does not name
    both.  The example entries are argument tuples of their checkers, with
    every morphism shape-checked against its role: ``wreaths`` (a, b, lam,
    tau, v), ``laws`` (a, b, lam), ``brz`` (q, eta_v) and ``dp``
    (s, eta_v, eta_w).
    """

    field: object
    monoids: dict = dc_field(default_factory=dict)
    morphisms: dict = dc_field(default_factory=dict)
    quadruples: dict = dc_field(default_factory=dict)
    preunits: dict = dc_field(default_factory=dict)
    setups: dict = dc_field(default_factory=dict)
    setup_preunits: dict = dc_field(default_factory=dict)
    wreaths: dict = dc_field(default_factory=dict)
    laws: dict = dc_field(default_factory=dict)
    brz: dict = dc_field(default_factory=dict)
    dp: dict = dc_field(default_factory=dict)


def _named_section(obj, key: str, ptr: str):
    """Iterate a list-of-named-objects section, checking name uniqueness."""
    section = _get(obj, key, list, "a list", ptr) if key in obj else []
    seen = set()
    for i, entry in enumerate(section):
        eptr = f"{ptr}/{key}/{i}"
        _expect(entry, dict, "an object", eptr)
        name = _get(entry, "name", str, "a name", eptr)
        if name in seen:
            raise WorkspaceError(f"duplicate name {name!r}", f"{eptr}/name")
        seen.add(name)
        yield name, entry, eptr


def _setup_preunits(entry: dict, s: IterSetup, ws: Workspace, ptr: str):
    """The Preunit owners that a setup's ``nu_first`` and ``nu_second``
    name, each of its own quadruple, or None unless both are named."""
    pres = []
    for key, qkey, q in (("nu_first", "first", s.qv),
                         ("nu_second", "second", s.qw)):
        if key not in entry:
            continue
        pre = _ref(entry, key, ws.preunits, "preunit", ptr)
        if pre.quad is not q:
            owner = next(n for n, o in ws.quadruples.items() if o is pre.quad)
            raise WorkspaceError(
                f"preunit {entry[key]!r} belongs to quadruple {owner!r}, "
                f"not to the {qkey} quadruple {entry[qkey]!r}", f"{ptr}/{key}")
        pres.append(pre)
    return tuple(pres) if len(pres) == 2 else None


def decode_workspace(obj) -> Workspace:
    """Decode an already-parsed JSON object into a Workspace, resolving
    every reference and checking the shape of every referenced matrix."""
    _expect(obj, dict, "a workspace object", "")
    if "field" not in obj:
        raise WorkspaceError("missing required key 'field'", "")
    try:
        field = field_from_descriptor(obj["field"])
    except (ValueError, TypeError) as exc:
        raise WorkspaceError(str(exc), "/field") from None
    ws = Workspace(field=field)
    for name, entry, ptr in _named_section(obj, "monoids", ""):
        ws.monoids[name] = decode_monoid(entry, field, ptr)
    mors = ws.morphisms
    for name, entry, ptr in _named_section(obj, "morphisms", ""):
        mors[name] = decode_mat(entry.get("mat"), field, f"{ptr}/mat")
    for name, entry, ptr in _named_section(obj, "quadruples", ""):
        ws.quadruples[name] = decode_quadruple(
            entry, name, ws.monoids, field, ptr
        )
    for name, entry, ptr in _named_section(obj, "preunits", ""):
        ws.preunits[name] = decode_preunit(entry, ws.quadruples, field, ptr)
    for name, entry, ptr in _named_section(obj, "setups", ""):
        s = ws.setups[name] = decode_setup(entry, ws.quadruples, field, ptr)
        ws.setup_preunits[name] = _setup_preunits(entry, s, ws, ptr)
    for name, entry, ptr in _named_section(obj, "wreaths", ""):
        a, b = (_ref(entry, key, ws.monoids, "monoid", ptr) for key in "ab")
        ab = a.obj @ b.obj
        ws.wreaths[name] = (a, b, *(
            _map_ref(entry, key, mors, dom, ab, ptr) for key, dom in (
                ("lam", b.obj @ a.obj), ("tau", UNIT), ("v", b.obj @ b.obj))))
    for name, entry, ptr in _named_section(obj, "laws", ""):
        a, b = (_ref(entry, key, ws.monoids, "monoid", ptr) for key in "ab")
        ws.laws[name] = a, b, _map_ref(entry, "lam", mors, b.obj @ a.obj,
                                       a.obj @ b.obj, ptr)
    for name, entry, ptr in _named_section(obj, "brz", ""):
        q = _ref(entry, "quadruple", ws.quadruples, "quadruple", ptr)
        ws.brz[name] = q, _map_ref(entry, "eta_v", mors, UNIT, q.v, ptr)
    for name, entry, ptr in _named_section(obj, "dp", ""):
        s = _ref(entry, "setup", ws.setups, "setup", ptr)
        ws.dp[name] = (s, _map_ref(entry, "eta_v", mors, UNIT, s.qv.v, ptr),
                       _map_ref(entry, "eta_w", mors, UNIT, s.qw.v, ptr))
    return ws


def load_workspace(path: str) -> Workspace:
    """Read and decode a workspace JSON file."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        # ValueError covers bad JSON, bad UTF-8 and an integer literal of
        # more digits than int() reads; RecursionError, too deep nesting
        except (ValueError, RecursionError) as exc:
            raise WorkspaceError(f"invalid JSON: {exc}", "") from None
    return decode_workspace(obj)
