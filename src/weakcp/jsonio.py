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

Malformed input raises :class:`WorkspaceError` carrying a JSON pointer
(RFC 6901) to the offending field, which the CLI surfaces with exit
code 2.  The collections are lists, so a pointer indexes into them
(``/wreaths/0/v``); each reference entry keeps its own pointer for the
errors found after decoding, such as a referenced matrix of the wrong
shape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from itertools import compress

from .fdvect import FMor, FObj, MonoidData, UNIT, vobj
from .fields import PrimeField, field_from_descriptor
from .iterate import IterSetup
from .kernel import Mat
from .wcp import Quadruple


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


def _check_shape(m: Mat, rows: int, cols: int, what: str, ptr: str) -> Mat:
    if (m.rows, m.cols) != (rows, cols):
        raise WorkspaceError(
            f"{what} must be {rows}x{cols}, got {m.rows}x{m.cols}", ptr)
    return m


def _opt(obj: dict, key: str, typ, what: str, ptr: str, default=None):
    if key not in obj:
        return default
    return _expect(obj[key], typ, what, f"{ptr}/{key}")


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
    try:
        return field.coerce(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise WorkspaceError(f"bad rational {x!r}: {exc}", ptr) from None


def _decode_scalars(xs: list, field, ptr: str) -> tuple:
    """The entries of a JSON list, decoded by :func:`decode_scalar`.

    The whole list is checked at once; only when that check fails are the
    entries decoded one by one, and the JSON pointer ``ptr/i`` is formatted
    only for the first bad entry.
    """
    if isinstance(field, PrimeField):
        p = field.p
        if all(type(x) is int and 0 <= x < p for x in xs):
            return tuple(xs)
    elif all(type(x) is int or type(x) is str for x in xs):
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
    mul = _check_shape(decode_mat(obj.get("mul"), field, f"{ptr}/mul"),
                       dim, dim * dim, "multiplication", f"{ptr}/mul")
    a = vobj(name, dim)
    return MonoidData(name, a, FMor(a @ a, a, mul), FMor(UNIT, a, unit))


def encode_quadruple(q: Quadruple) -> dict:
    return {
        "monoid": q.monoid.name,
        "V": q.v.dim,
        "psi": encode_mat(q.psi.mat),
        "sigma": encode_mat(q.sigma.mat),
    }


def decode_quadruple(obj, name: str, monoids: dict, field, ptr: str) -> Quadruple:
    _expect(obj, dict, "a quadruple object", ptr)
    mname = _get(obj, "monoid", str, "a monoid name", ptr)
    if mname not in monoids:
        raise WorkspaceError(f"unknown monoid {mname!r}", f"{ptr}/monoid")
    m = monoids[mname]
    vdim = _get(obj, "V", int, "a dimension", ptr)
    if vdim < 1:
        raise WorkspaceError(f"dimension must be positive, got {vdim}", f"{ptr}/V")
    v = vobj(name, vdim)
    da, dv = m.dim, vdim
    psi = _check_shape(decode_mat(obj.get("psi"), field, f"{ptr}/psi"),
                       da * dv, dv * da, "psi", f"{ptr}/psi")
    sigma = _check_shape(decode_mat(obj.get("sigma"), field, f"{ptr}/sigma"),
                         da * dv, dv * dv, "sigma", f"{ptr}/sigma")
    return Quadruple(m, v, FMor(v @ m.obj, m.obj @ v, psi),
                     FMor(v @ v, m.obj @ v, sigma))


def encode_preunit(qname: str, nu: FMor) -> dict:
    return {"quadruple": qname, "entries": encode_vector(nu.mat)}


def decode_preunit(obj, quadruples: dict, field, ptr: str):
    _expect(obj, dict, "a preunit object", ptr)
    qname = _get(obj, "quadruple", str, "a quadruple name", ptr)
    if qname not in quadruples:
        raise WorkspaceError(f"unknown quadruple {qname!r}", f"{ptr}/quadruple")
    q = quadruples[qname]
    vec = decode_vector(
        _get(obj, "entries", list, "an entry vector", ptr),
        q.a.dim * q.v.dim, field, f"{ptr}/entries",
    )
    return qname, FMor(UNIT, q.a @ q.v, vec)


def decode_setup(obj, quadruples: dict, field, ptr: str) -> IterSetup:
    _expect(obj, dict, "a setup object", ptr)
    names = []
    for key in ("first", "second"):
        qname = _get(obj, key, str, "a quadruple name", ptr)
        if qname not in quadruples:
            raise WorkspaceError(f"unknown quadruple {qname!r}", f"{ptr}/{key}")
        names.append(qname)
    qv, qw = quadruples[names[0]], quadruples[names[1]]
    if qv.monoid != qw.monoid:
        raise WorkspaceError(
            "the two quadruples must share the same monoid", ptr
        )
    dv, dw = qv.v.dim, qw.v.dim
    delta = _check_shape(decode_mat(obj.get("delta"), field, f"{ptr}/delta"),
                         dv * dw, dv * dw, "delta", f"{ptr}/delta")
    tau = _check_shape(decode_mat(obj.get("tau"), field, f"{ptr}/tau"),
                       dv * dw, dw * dv, "tau", f"{ptr}/tau")
    vw = qv.v @ qw.v
    return IterSetup(qv, qw, FMor(vw, vw, delta), FMor(qw.v @ qv.v, vw, tau))


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
    """Decoded contents of a workspace file.

    Collections are name-keyed dicts in file order.  ``morphisms`` holds
    raw matrices used by the example checkers (laws, wreath data,
    distinguished elements); consumers wrap them in the appropriate
    domain/codomain.  ``preunits`` maps each preunit name to a pair
    (quadruple name, morphism); ``setup_preunits`` records the optional
    ``nu_first``/``nu_second`` references of each setup.  ``wreaths``,
    ``laws``, ``brz`` and ``dp`` map each name to a pair (JSON pointer
    of the entry, {role key: referenced name}).
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
    section = _opt(obj, key, list, "a list", ptr, default=[])
    seen = set()
    for i, entry in enumerate(section):
        eptr = f"{ptr}/{key}/{i}"
        _expect(entry, dict, "an object", eptr)
        name = _get(entry, "name", str, "a name", eptr)
        if name in seen:
            raise WorkspaceError(f"duplicate name {name!r}", f"{eptr}/name")
        seen.add(name)
        yield name, entry, eptr


def decode_workspace(obj) -> Workspace:
    """Decode an already-parsed JSON object into a Workspace."""
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
    for name, entry, ptr in _named_section(obj, "morphisms", ""):
        ws.morphisms[name] = decode_mat(entry.get("mat"), field, f"{ptr}/mat")
    for name, entry, ptr in _named_section(obj, "quadruples", ""):
        ws.quadruples[name] = decode_quadruple(
            entry, name, ws.monoids, field, ptr
        )
    for name, entry, ptr in _named_section(obj, "preunits", ""):
        ws.preunits[name] = decode_preunit(entry, ws.quadruples, field, ptr)
    for name, entry, ptr in _named_section(obj, "setups", ""):
        ws.setups[name] = decode_setup(entry, ws.quadruples, field, ptr)
        refs = []
        for key, qkey in (("nu_first", "first"), ("nu_second", "second")):
            pname = _opt(entry, key, str, "a preunit name", ptr)
            owner = ws.preunits.get(pname, (None,))[0]
            if pname is not None and owner != entry[qkey]:
                raise WorkspaceError(
                    f"unknown preunit {pname!r}" if owner is None else
                    f"preunit {pname!r} belongs to quadruple {owner!r}, "
                    f"not to the {qkey} quadruple {entry[qkey]!r}",
                    f"{ptr}/{key}")
            refs.append(pname)
        ws.setup_preunits[name] = tuple(refs)
    for name, entry, ptr in _named_section(obj, "wreaths", ""):
        ws.wreaths[name] = ptr, _decode_refs(
            entry, ptr, monoids={"a": ws.monoids, "b": ws.monoids},
            morphisms={"lam": ws.morphisms, "tau": ws.morphisms,
                       "v": ws.morphisms},
        )
    for name, entry, ptr in _named_section(obj, "laws", ""):
        ws.laws[name] = ptr, _decode_refs(
            entry, ptr, monoids={"a": ws.monoids, "b": ws.monoids},
            morphisms={"lam": ws.morphisms},
        )
    for name, entry, ptr in _named_section(obj, "brz", ""):
        ws.brz[name] = ptr, _decode_refs(
            entry, ptr, quadruples={"quadruple": ws.quadruples},
            morphisms={"eta_v": ws.morphisms},
        )
    for name, entry, ptr in _named_section(obj, "dp", ""):
        ws.dp[name] = ptr, _decode_refs(
            entry, ptr, setups={"setup": ws.setups},
            morphisms={"eta_v": ws.morphisms, "eta_w": ws.morphisms},
        )
    return ws


def _decode_refs(entry: dict, ptr: str, **kinds) -> dict:
    """Check that every reference key in ``entry`` resolves; return the
    name mapping.  ``kinds`` maps a role key to the collection it must
    resolve in (keyed by collection kind for the error message)."""
    out = {}
    for kind, roles in kinds.items():
        for key, collection in roles.items():
            ref = _get(entry, key, str, f"a {kind[:-1]} name", ptr)
            if ref not in collection:
                raise WorkspaceError(
                    f"unknown {kind[:-1]} {ref!r}", f"{ptr}/{key}"
                )
            out[key] = ref
    return out


def load_workspace(path: str) -> Workspace:
    """Read and decode a workspace JSON file."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise WorkspaceError(f"invalid JSON: {exc}", "") from None
    return decode_workspace(obj)


def workspace_morphism(ws: Workspace, entry: tuple, key: str, dom: FObj,
                       cod: FObj) -> FMor:
    """Resolve the morphism that the reference ``key`` of ``entry``, a
    (pointer, references) pair of the workspace, names, as a map
    dom -> cod; its shape is checked against dom and cod."""
    ptr, refs = entry
    name = refs[key]
    return FMor(dom, cod, _check_shape(ws.morphisms[name], cod.dim, dom.dim,
                                       f"morphism {name!r}", f"{ptr}/{key}"))
