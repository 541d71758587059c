"""Exact matrix calculus: dense storage, zero-skipping products.

Composition, Kronecker tensor product, exact equality, right-solving, null
spaces and constructive idempotent splitting, all over one of the exact
fields from :mod:`weakcp.fields`.  Matrices are immutable; every operation
returns a new matrix, so values may be shared freely between threads.

Every matrix is stored densely, zeros included, so entries, equality and
witness coordinates are plain tuple operations.  The operands the engine
multiplies (identities, flips, ``f (x) id`` blocks) are a few percent
nonzero, so :func:`mat_compose` and :func:`mat_tensor` find the nonzeros
of their operands on each call and multiply only those.

Conventions (fixed for the whole engine):

* a morphism X -> Y is a dim(Y) x dim(X) matrix acting on column vectors,
  composition is left multiplication;
* the basis vector e_i (x) e_j of X (x) Y has flat index i * dim(Y) + j, and
  the tensor product of matrices is the standard Kronecker product under
  that indexing.

There is one backend, plain Python on exact entries: Python integers do
not overflow, so prime-field arithmetic is exact for every prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .fields import PrimeField, same_field

BACKEND = "pure"  # the only backend; bench/run.py records it in its env line


class ShapeError(ValueError):
    """Dimension mismatch; the message names both offending shapes."""


class NotIdempotentError(ValueError):
    """Input to split_idempotent fails E*E = E; carries a witness entry."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InconsistentSystemError(ValueError):
    """solve_right got a column outside the column space; remembers which."""

    def __init__(self, message, column):
        super().__init__(message)
        self.column = column


@dataclass(frozen=True)
class Mat:
    """Dense row-major matrix over an exact field.

    ``entries`` holds all rows * cols entries, zeros included; the products
    skip the zeros when they read it.
    """

    rows: int
    cols: int
    entries: tuple
    field: object

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r * self.cols + c]

    def row(self, r):
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def column(self, c):
        return tuple(self.entries[r * self.cols + c] for r in range(self.rows))

    def to_lists(self):
        return [list(self.row(r)) for r in range(self.rows)]

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.fmt(x) for x in self.row(r)) for r in range(self.rows)
        )
        return f"Mat({self.rows}x{self.cols} over {self.field!r}: [{body}])"


def mat(rows, cols, entries, field) -> Mat:
    """Build a matrix, coercing each entry into the field."""
    flat = tuple(field.coerce(x) for x in entries)
    return Mat(rows, cols, flat, field)


def from_rows(rows_list, field) -> Mat:
    nrows = len(rows_list)
    ncols = len(rows_list[0]) if nrows else 0
    for r in rows_list:
        if len(r) != ncols:
            raise ShapeError("ragged rows")
    return mat(nrows, ncols, [x for row in rows_list for x in row], field)


def identity_mat(n, field) -> Mat:
    one, zero = field.one(), field.zero()
    return Mat(n, n, tuple(one if i == j else zero for i in range(n) for j in range(n)), field)


def zero_mat(rows, cols, field) -> Mat:
    return Mat(rows, cols, (field.zero(),) * (rows * cols), field)


def mat_compose(g: Mat, f: Mat) -> Mat:
    """The composite g o f (matrix product g * f).

    Gustavson's row-by-row product over the nonzeros only: each nonzero
    g[i, t] adds g[i, t] * f[t, j] into entry (i, j) for every nonzero
    f[t, j].  Prime-field entries are reduced once each, at the end.
    """
    field = same_field(g.field, f.field)
    if g.cols != f.rows:
        raise ShapeError(
            f"cannot compose {g.rows}x{g.cols} with {f.rows}x{f.cols}: "
            f"{g.cols} != {f.rows}"
        )
    n, k, m = g.rows, g.cols, f.cols
    ge, fe = g.entries, f.entries
    # the nonzeros of row t of f as (column, entry) pairs, scanned only
    # when a nonzero of g first needs them
    frows = [None] * k
    cols = range(m)
    out = [field.zero()] * (n * m)
    for idx in compress(range(n * k), ge):
        i, t = divmod(idx, k)
        frow = frows[t]
        if frow is None:
            row = fe[t * m : (t + 1) * m]
            frow = frows[t] = [(j, row[j]) for j in compress(cols, row)]
        gv, base = ge[idx], i * m
        for j, fv in frow:
            out[base + j] += gv * fv
    if isinstance(field, PrimeField):
        p = field.p
        out = [x % p for x in out]
    return Mat(n, m, tuple(out), field)


def mat_tensor(f: Mat, g: Mat) -> Mat:
    """Kronecker product f (x) g, over the nonzeros of f and g only."""
    field = same_field(f.field, g.field)
    rows, cols = f.rows * g.rows, f.cols * g.cols
    p = field.p if isinstance(field, PrimeField) else None
    fe, ge = f.entries, g.entries
    # the nonzeros of g, with their offsets inside one block of the output
    gnz = [
        (idx // g.cols * cols + idx % g.cols, ge[idx])
        for idx in compress(range(len(ge)), ge)
    ]
    out = [field.zero()] * (rows * cols)
    for idx in compress(range(len(fe)), fe):
        i1, j1 = divmod(idx, f.cols)
        a, base = fe[idx], i1 * g.rows * cols + j1 * g.cols
        for off, b in gnz:
            out[base + off] = a * b if p is None else a * b % p
    return Mat(rows, cols, tuple(out), field)


def mat_eq(f: Mat, g: Mat) -> bool:
    """Exact equality: identical shape and identical entries."""
    return f.rows == g.rows and f.cols == g.cols and f.entries == g.entries


def first_difference(f: Mat, g: Mat):
    """First (row, col) where f and g differ, or None if equal."""
    if f.rows != g.rows or f.cols != g.cols:
        raise ShapeError(
            f"cannot compare {f.rows}x{f.cols} with {g.rows}x{g.cols}"
        )
    for idx, (a, b) in enumerate(zip(f.entries, g.entries)):
        if a != b:
            return divmod(idx, f.cols)
    return None


def _column_basis(m: Mat):
    """Greedy left-to-right pivot-column scan of m.

    Returns (pivot_cols, basis) where basis holds the reduced columns as
    (vector, pivot_row) pairs; the pivot row of each reduced column is its
    first nonzero coordinate.
    """
    field = m.field
    pivot_cols = []
    basis = []  # (reduced column as list, pivot row)
    for j in range(m.cols):
        v = list(m.column(j))
        for bv, pr in basis:
            coeff = v[pr]
            if coeff:
                factor = field.div(coeff, bv[pr])
                for r in range(m.rows):
                    if bv[r]:
                        v[r] = field.sub(v[r], field.mul(factor, bv[r]))
        pr = next((r for r, x in enumerate(v) if x), None)
        if pr is not None:
            pivot_cols.append(j)
            basis.append((v, pr))
    return pivot_cols, basis


def rank(m: Mat) -> int:
    return len(_column_basis(m)[0])


def _eliminate(rows, ncols, field):
    """Gauss-Jordan elimination, in place, on the first ncols columns.

    ``rows`` is a list of row lists, possibly longer than ncols (an
    augmented system); row operations act on the whole row.  Each pivot is
    the first nonzero entry of its column at or below the next pivot row,
    and is cleared from every other row but not scaled to one.  Returns the
    pivots as (row, col) pairs; they occupy rows 0, 1, ... in order.
    """
    pivots = []
    for col in range(ncols):
        prow = len(pivots)
        if prow == len(rows):
            break
        pr = next((r for r in range(prow, len(rows)) if rows[r][col]), None)
        if pr is None:
            continue
        rows[prow], rows[pr] = rows[pr], rows[prow]
        pivot_row = rows[prow]
        piv = pivot_row[col]
        for r, row in enumerate(rows):
            if r != prow and row[col]:
                factor = field.div(row[col], piv)
                for c in range(col, len(row)):
                    row[c] = field.sub(row[c], field.mul(factor, pivot_row[c]))
        pivots.append((prow, col))
    return pivots


def solve_right(a: Mat, b: Mat) -> Mat:
    """X with a o X = b, solved column by column by Gaussian elimination.

    Free variables (when a has deficient column rank) are set to zero, so
    the result is deterministic; an inconsistent column raises
    InconsistentSystemError naming the column.
    """
    field = same_field(a.field, b.field)
    if a.rows != b.rows:
        raise ShapeError(
            f"solve_right: {a.rows}x{a.cols} and {b.rows}x{b.cols} have "
            "different numbers of rows"
        )
    n = a.cols
    rows = [list(a.row(r)) + list(b.row(r)) for r in range(a.rows)]
    pivots = _eliminate(rows, n, field)
    for r in range(len(pivots), a.rows):
        for c in range(b.cols):
            if rows[r][n + c]:
                raise InconsistentSystemError(
                    f"column {c} of the right-hand side is outside the "
                    "column space", c
                )
    zero = field.zero()
    x = [[zero] * b.cols for _ in range(n)]
    for r, col in pivots:
        piv = rows[r][col]
        for c in range(b.cols):
            x[col][c] = field.div(rows[r][n + c], piv)
    # build directly (not via from_rows) so a 0 x n result keeps its shape
    return Mat(n, b.cols, tuple(v for row in x for v in row), field)


def nullspace(m: Mat) -> Mat:
    """A basis of {v : m v = 0}, as the columns of a cols x nullity matrix.

    There is one basis vector per non-pivot column f of the reduced
    echelon form: it is 1 at f, 0 at every other non-pivot column, and
    its pivot coordinates are what m v = 0 forces.  So the basis is
    deterministic, and rank(m) + nullity = m.cols.
    """
    field = m.field
    rows = [list(m.row(r)) for r in range(m.rows)]
    pivots = _eliminate(rows, m.cols, field)
    pivot_cols = {c for _, c in pivots}
    zero, one = field.zero(), field.one()
    basis = []
    for f in range(m.cols):
        if f in pivot_cols:
            continue
        v = [zero] * m.cols
        v[f] = one
        for r, c in pivots:
            if rows[r][f]:
                v[c] = field.neg(field.div(rows[r][f], rows[r][c]))
        basis.append(v)
    return Mat(m.cols, len(basis),
               tuple(v[i] for i in range(m.cols) for v in basis), field)


@dataclass(frozen=True)
class Splitting:
    """Factorization of an idempotent E as inj o proj with proj o inj = id."""

    rank: int
    inj: Mat  # n x r
    proj: Mat  # r x n


def split_idempotent(e: Mat) -> Splitting:
    """Split an idempotent through its rank.

    The injection's columns are the pivot columns of E under left-to-right
    column reduction with first-nonzero pivot selection, which makes the
    factorization deterministic and works over any exact field; the
    projection is recovered by solving inj o proj = E.  proj o inj = id is
    automatic (inj is injective and E o inj = inj) but re-verified anyway.
    """
    if e.rows != e.cols:
        raise NotIdempotentError(f"matrix is {e.rows}x{e.cols}, not square")
    ee = mat_compose(e, e)
    diff = first_difference(ee, e)
    if diff is not None:
        r, c = diff
        raise NotIdempotentError(
            f"matrix is not idempotent: (E*E)[{r},{c}] = "
            f"{e.field.fmt(ee[r, c])} but E[{r},{c}] = {e.field.fmt(e[r, c])}",
            witness=(r, c, ee[r, c], e[r, c]),
        )
    pivot_cols, _ = _column_basis(e)
    r = len(pivot_cols)
    inj = from_rows(
        [[e[i, j] for j in pivot_cols] for i in range(e.rows)], e.field
    )
    proj = solve_right(inj, e)
    if not mat_eq(mat_compose(inj, proj), e) or not mat_eq(
        mat_compose(proj, inj), identity_mat(r, e.field)
    ):
        raise AssertionError("internal error: splitting equations failed")
    return Splitting(rank=r, inj=inj, proj=proj)
