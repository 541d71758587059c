"""Finite-dimensional vector spaces, linear maps, and monoids therein.

Objects are finite tensor words of named spaces and are strict-monoidal:
the tensor of objects concatenates factor lists and the unit object is the
empty word (dimension one).  A morphism remembers its domain and codomain
words; composition checks shapes at every junction, so a mis-assembled
ten-factor composite fails at build time with the offending pair of shapes
rather than producing a wrong matrix.

Basis convention: the basis vector e_{i1} (x) ... (x) e_{ik} of a word with
factor dimensions (d1, ..., dk) has row-major flat index
``i1*d2*...*dk + ... + ik``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernel import (
    Mat,
    ShapeError,
    first_difference,
    identity_mat,
    mat_compose,
    mat_tensor,
    mat_whisker,
)
from .report import Report, ReportItem, Witness, _unflatten


@dataclass(frozen=True)
class FObj:
    """A tensor word of named finite-dimensional spaces.

    ``factors`` is a tuple of (name, dimension) pairs; the empty tuple is
    the monoidal unit (the ground field, dimension one).
    """

    factors: tuple

    def __post_init__(self):
        # read by every morphism built, so computed once, not per access
        object.__setattr__(self, "_dim", math.prod(d for _, d in self.factors))

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def dims(self) -> tuple:
        return tuple(d for _, d in self.factors)

    def __matmul__(self, other: "FObj") -> "FObj":
        if not self.factors or not other.factors:  # K is the empty word
            return other if not self.factors else self
        # both dimensions are known: multiply them, not all the factors
        out = object.__new__(FObj)
        out.__dict__.update(factors=self.factors + other.factors,
                            _dim=self._dim * other._dim)
        return out

    def __repr__(self):
        if not self.factors:
            return "K"
        return " (x) ".join(name for name, _ in self.factors)


UNIT = FObj(())


def vobj(name: str, dim: int) -> FObj:
    """A single named space as a one-factor word; dimension 0 is the zero
    space, such as the split image of a zero idempotent."""
    if dim < 0:
        raise ValueError(f"dimension must be non-negative, got {dim}")
    return FObj(((name, dim),))


def flatten_index(dims, multi) -> int:
    """Row-major flat index of a basis multi-index."""
    if len(dims) != len(multi):
        raise ValueError(f"multi-index {multi} does not match dims {dims}")
    flat = 0
    for d, i in zip(dims, multi):
        if not 0 <= i < d:
            raise ValueError(f"index {i} out of range for dimension {d}")
        flat = flat * d + i
    return flat


@dataclass(frozen=True)
class FMor:
    """A linear map between tensor words, stored as an exact matrix."""

    dom: FObj
    cod: FObj
    mat: Mat

    def __post_init__(self):
        if self.mat.rows != self.cod.dim or self.mat.cols != self.dom.dim:
            raise ShapeError(
                f"matrix is {self.mat.rows}x{self.mat.cols} but the map "
                f"{self.dom!r} -> {self.cod!r} needs "
                f"{self.cod.dim}x{self.dom.dim}"
            )

    @property
    def field(self):
        return self.mat.field

    def __repr__(self):
        return f"FMor({self.dom!r} -> {self.cod!r} over {self.field!r})"


def identity(obj: FObj, field) -> FMor:
    return FMor(obj, obj, identity_mat(obj.dim, field))


def mor_from_map(dom: FObj, cod: FObj, fn, field) -> FMor:
    """Build a morphism from its action on basis vectors.

    ``fn`` receives a basis multi-index of the domain (a tuple, one index
    per factor) and returns a dict mapping codomain multi-indices to
    coefficients, each coerced into the field.  The domain basis is
    walked in order and each nonzero coefficient is appended to its
    codomain row, so every row comes out in column order and no zero is
    stored (Gustavson's row-wise construction).
    """
    dd, cd = dom.dims, cod.dims
    rows = [[] for _ in range(cod.dim)]
    for j in range(dom.dim):
        for out_multi, coeff in fn(_unflatten(j, dd)).items():
            if x := field.coerce(coeff):
                rows[flatten_index(cd, tuple(out_multi))].append((j, x))
    return FMor(dom, cod, Mat(
        cod.dim, dom.dim, tuple(map(tuple, rows)), field))


def swap(x: FObj, y: FObj, field) -> FMor:
    """The flip x (x) y -> y (x) x: row (j, i) holds a 1 at column (i, j)."""
    dx, dy = x.dim, y.dim
    one = field.one()
    return FMor(x @ y, y @ x, Mat(dx * dy, dx * dy, tuple(
        ((i * dy + j, one),) for j in range(dy) for i in range(dx)), field))


def compose(*fs: FMor) -> FMor:
    """Composite of morphisms written outer-first: compose(f, g) = f o g."""
    if not fs:
        raise ValueError("compose needs at least one morphism")
    out = fs[0]
    for f in fs[1:]:
        if out.dom.dim != f.cod.dim:
            raise ShapeError(
                f"cannot compose: expected codomain of dimension "
                f"{out.dom.dim} ({out.dom!r}) but got {f.cod.dim} ({f.cod!r})"
            )
        out = FMor(f.dom, out.cod, mat_compose(out.mat, f.mat))
    return out


def tensor(*fs) -> FMor:
    """Tensor product, left to right, where an object stands for its
    identity: ``tensor(A, psi, V)`` is the whisker A (x) psi (x) V.  Each
    morphism, with the objects after it (the first one also with those
    before it), is one whisker, built by ``mat_whisker`` in one pass."""
    out, x, i = None, UNIT, 0
    while i < len(fs):
        f, i, y = fs[i], i + 1, UNIT
        if isinstance(f, FObj):  # before the first morphism
            x = x @ f
            continue
        while i < len(fs) and isinstance(fs[i], FObj):
            y, i = y @ fs[i], i + 1
        if x.factors or y.factors:
            f = FMor(x @ f.dom @ y, x @ f.cod @ y,
                     mat_whisker(x.dim, f.mat, y.dim))
        out = f if out is None else FMor(
            out.dom @ f.dom, out.cod @ f.cod, mat_tensor(out.mat, f.mat))
        x = UNIT
    if out is None:
        raise ValueError("tensor needs at least one morphism")
    return out


def check_equal(label: str, lhs: FMor, rhs: FMor, note: str = "") -> ReportItem:
    """Compare two morphisms entry by entry, producing a witnessed item."""
    if lhs.dom.dim != rhs.dom.dim or lhs.cod.dim != rhs.cod.dim:
        raise ShapeError(
            f"check {label!r}: comparing a map {lhs.dom!r} -> {lhs.cod!r} "
            f"with a map {rhs.dom!r} -> {rhs.cod!r}"
        )
    diff = first_difference(lhs.mat, rhs.mat)
    if diff is None:
        return ReportItem(label, True, note=note)
    r, c = diff
    field = lhs.field
    return ReportItem(
        label,
        False,
        witness=Witness(
            basis_index=_unflatten(c, lhs.dom.dims),
            coordinate=_unflatten(r, lhs.cod.dims),
            lhs=field.fmt(lhs.mat[r, c]),
            rhs=field.fmt(rhs.mat[r, c]),
        ),
        note=note,
    )


def check_equal_all(label: str, *comparisons) -> ReportItem:
    """Run the ``(lhs, rhs, note)`` comparisons of one label in order:
    the first failing item, or one passed item with no note."""
    for lhs, rhs, note in comparisons:
        item = check_equal(label, lhs, rhs, note=note)
        if not item.passed:
            return item
    return ReportItem(label, True)


@dataclass(frozen=True)
class MonoidData:
    """A finite-dimensional associative unital algebra.

    ``mul`` is a map A (x) A -> A and ``unit`` a map K -> A, both exact
    matrices over the carried field.  A whisker of the monoid names its
    object: ``tensor(m.mul, m.obj)`` is mu (x) A.
    """

    name: str
    obj: FObj
    mul: FMor
    unit: FMor

    @property
    def dim(self) -> int:
        return self.obj.dim

    @property
    def field(self):
        return self.mul.field


def algebra(name: str, dim: int, product, unit, field) -> MonoidData:
    """The algebra on the basis e_0, ..., e_(dim-1) given by its structure
    constants: ``product(i, j)`` is e_i e_j and ``unit`` the unit, each a
    dict ``{k: coefficient of e_k}``.  Nothing is checked; see
    :func:`check_monoid`."""
    obj = vobj(name, dim)
    mul = mor_from_map(obj @ obj, obj, lambda m: {
        (k,): c for k, c in product(*m).items()}, field)
    eta = mor_from_map(UNIT, obj, lambda m: {
        (k,): c for k, c in unit.items()}, field)
    return MonoidData(name, obj, mul, eta)


def check_monoid(m: MonoidData, prefix: str = "") -> Report:
    """Associativity and the two unit laws, as witnessed checks."""
    mu, eta, a = m.mul, m.unit, m.obj
    ida = identity(a, m.field)
    rep = Report()
    rep.add(check_equal(
        prefix + "assoc",
        compose(mu, tensor(mu, a)),
        compose(mu, tensor(a, mu)),
    ))
    rep.add(check_equal(prefix + "unit-left", compose(mu, tensor(eta, a)), ida))
    rep.add(check_equal(prefix + "unit-right", compose(mu, tensor(a, eta)), ida))
    return rep
