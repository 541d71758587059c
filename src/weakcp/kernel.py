"""Exact matrix calculus: row-sparse storage, products over the nonzeros.

Composition, Kronecker tensor product, exact equality, right-solving, null
spaces and constructive idempotent splitting, all over one of the exact
fields from :mod:`weakcp.fields`.  Matrices are immutable; every operation
returns a new matrix, so values may be shared freely between threads.

Every matrix stores each row as a tuple of its nonzero ``(column, value)``
pairs, columns ascending, zeros never stored (the compressed-row layout).
The matrices the engine multiplies (identities, flips, ``f (x) id``
blocks) are a few percent nonzero, so :func:`mat_compose` is Gustavson's
row-by-row product and :func:`mat_tensor` pairs the rows of its operands;
neither allocates a dense buffer.  Equality compares rows.  The dense
row-major view (``entries``, ``row``, ``column``, indexing) is derived on
demand and cached.  One Gauss-Jordan elimination routine works on it, for
the small matrices it gets: rank, right-solving, null spaces and the
splitting of idempotents all read its pivots.

Conventions (fixed for the whole engine):

* a morphism X -> Y is a dim(Y) x dim(X) matrix acting on column vectors,
  composition is left multiplication;
* the basis vector e_i (x) e_j of X (x) Y has flat index i * dim(Y) + j, and
  the tensor product of matrices is the standard Kronecker product under
  that indexing.

There is one backend, plain Python on exact entries: Python integers do
not overflow, so prime-field arithmetic is exact for every prime.  A
rational entry is an ``int`` when it is whole and a ``Fraction`` only when
its denominator is greater than 1 (see :mod:`weakcp.fields`); the products
keep that form, so equal matrices have equal rows and whole entries cost
int arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True, init=False)
class Mat:
    """Row-sparse matrix over an exact field.

    ``nonzeros`` holds one tuple per row of that row's nonzero
    ``(column, value)`` pairs, columns ascending; zeros are never stored,
    so equal matrices have equal ``nonzeros``.  ``Mat(rows, cols,
    entries, field)`` takes the dense row-major entries and drops the
    zeros; :meth:`from_nonzeros` takes the rows directly.
    """

    rows: int
    cols: int
    nonzeros: tuple
    field: object

    def __init__(self, rows, cols, entries, field):
        if len(entries) != rows * cols:
            raise ShapeError(
                f"{rows}x{cols} matrix needs {rows * cols} "
                f"entries, got {len(entries)}"
            )
        columns = range(cols)
        nonzeros = []
        for r in range(rows):
            row = entries[r * cols : (r + 1) * cols]
            nonzeros.append(tuple(compress(zip(columns, row), row)))
        self.__dict__.update(rows=rows, cols=cols, nonzeros=tuple(nonzeros),
                             field=field)

    @cached_property
    def entries(self) -> tuple:
        """All rows * cols entries, row-major, zeros included."""
        cols = self.cols
        out = [self.field.zero()] * (self.rows * cols)
        for r, row in enumerate(self.nonzeros):
            base = r * cols
            for c, x in row:
                out[base + c] = x
        return tuple(out)

    def __getitem__(self, rc):
        r, c = rc
        return self.entries[r * self.cols + c]

    def row(self, r):
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def column(self, c):
        return self.entries[c :: self.cols]

    @classmethod
    def from_nonzeros(cls, rows, cols, nonzeros, field) -> "Mat":
        """A matrix from its rows of nonzero ``(column, value)`` pairs.

        The caller guarantees the layout of ``nonzeros``: ``rows`` tuples,
        columns ascending and below ``cols``, no zero values, values
        already in the field.
        """
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, nonzeros=nonzeros, field=field)
        return m

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
    one = field.one()
    return Mat.from_nonzeros(n, n, tuple(((i, one),) for i in range(n)), field)


def zero_mat(rows, cols, field) -> Mat:
    return Mat.from_nonzeros(rows, cols, ((),) * rows, field)


def mat_compose(g: Mat, f: Mat) -> Mat:
    """The composite g o f (matrix product g * f).

    Gustavson's row-by-row product: row i of the result is the sum, over
    the nonzeros g[i, t], of g[i, t] times row t of f.  A coefficient 1
    costs no multiplication, prime-field entries are reduced once each,
    whole rational entries become ints, and entries that cancel are
    dropped.
    """
    field = same_field(g.field, f.field)
    if g.cols != f.rows:
        raise ShapeError(
            f"cannot compose {g.rows}x{g.cols} with {f.rows}x{f.cols}: "
            f"{g.cols} != {f.rows}"
        )
    p = field.p if isinstance(field, PrimeField) else None
    one = field.one()
    fnz = f.nonzeros
    out = []
    for grow in g.nonzeros:
        if len(grow) == 1 and grow[0][1] == one:
            # a single 1 selects a row of f, which is shared as it is
            out.append(fnz[grow[0][0]])
            continue
        acc = {}
        for t, a in grow:
            unit = a == one
            for j, b in fnz[t]:
                ab = b if unit else a * b
                if j in acc:
                    acc[j] += ab
                else:
                    acc[j] = ab
        if p is None:
            # a product or sum of Fractions may be whole: store an int
            out.append(tuple([(j, v.numerator if v.denominator == 1 else v)
                              for j, v in sorted(acc.items()) if v]))
        else:
            out.append(tuple([(j, v) for j, x in sorted(acc.items()) if (v := x % p)]))
    return Mat.from_nonzeros(g.rows, f.cols, tuple(out), field)


def mat_tensor(f: Mat, g: Mat) -> Mat:
    """Kronecker product f (x) g: row (i1, i2) pairs row i1 of f with row
    i2 of g.

    A factor 1 costs no multiplication; a product of two nonzeros of a
    field is never zero, so nothing is filtered.  When every row of one
    factor is a single 1 (an identity, a flip), each output row is a row
    of the other factor re-indexed, with no test per entry, and the rows
    that land at column offset 0 are shared as they are.
    """
    field = same_field(f.field, g.field)
    mul, one = field.mul, field.one()
    gc = g.cols
    shape = (f.rows * g.rows, f.cols * gc)
    if all(len(row) == 1 and row[0][1] == one for row in f.nonzeros):
        out = []
        for ((j1, _),) in f.nonzeros:
            base = j1 * gc
            if base:
                out.extend(tuple([(base + j2, b) for j2, b in grow])
                           for grow in g.nonzeros)
            else:
                out.extend(g.nonzeros)
        return Mat.from_nonzeros(*shape, tuple(out), field)
    if all(len(row) == 1 and row[0][1] == one for row in g.nonzeros):
        return Mat.from_nonzeros(*shape, tuple(
            tuple([(j1 * gc + j2, a) for j1, a in frow])
            for frow in f.nonzeros for ((j2, _),) in g.nonzeros), field)
    fnz = [[(j1 * gc, a, a == one) for j1, a in frow] for frow in f.nonzeros]
    gnz = [[(j2, b, b == one) for j2, b in grow] for grow in g.nonzeros]
    out = []
    for frow in fnz:
        for grow in gnz:
            out.append(tuple([(base + j2, b if ua else a if ub else mul(a, b))
                              for base, a, ua in frow for j2, b, ub in grow]))
    return Mat.from_nonzeros(*shape, tuple(out), field)


def mat_eq(f: Mat, g: Mat) -> bool:
    """Exact equality: identical shape and identical rows."""
    return f.rows == g.rows and f.cols == g.cols and f.nonzeros == g.nonzeros


def first_difference(f: Mat, g: Mat):
    """First (row, col), in row-major order, where f and g differ, or None
    if they are equal."""
    if f.rows != g.rows or f.cols != g.cols:
        raise ShapeError(
            f"cannot compare {f.rows}x{f.cols} with {g.rows}x{g.cols}"
        )
    if f.nonzeros == g.nonzeros:
        return None
    for r, (frow, grow) in enumerate(zip(f.nonzeros, g.nonzeros)):
        if frow == grow:
            continue
        for (jf, a), (jg, b) in zip(frow, grow):
            if jf != jg:
                # the smaller column is stored in one row and zero in the other
                return r, min(jf, jg)
            if a != b:
                return r, jf
        # one row is the other plus nonzeros further right
        shorter = min(len(frow), len(grow))
        return r, max(frow, grow, key=len)[shorter][0]
    return None


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


def rank(m: Mat) -> int:
    """The number of pivots of m's Gauss-Jordan elimination.

    The pivot columns are the columns outside the span of the columns
    before them, so this is the column rank of m.
    """
    return len(_eliminate([list(m.row(r)) for r in range(m.rows)], m.cols,
                          m.field))


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

    E is eliminated once.  The injection is E's columns at the pivots,
    which are the columns outside the span of the columns before them;
    the projection is the pivot rows of the eliminated E, each divided by
    its pivot.  That is the rank factorization E = inj o proj, unique once
    the pivot columns are fixed, so the splitting is deterministic over
    any exact field.  proj o inj = id follows (inj is injective and
    E o inj = inj); both equations are re-verified anyway.
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
    field = e.field
    rows = [list(e.row(i)) for i in range(e.rows)]
    pivots = _eliminate(rows, e.cols, field)
    r = len(pivots)
    inj = Mat(e.rows, r,
              tuple(e[i, j] for i in range(e.rows) for _, j in pivots), field)
    proj = Mat(r, e.cols, tuple(field.div(x, rows[i][j])
                                for i, j in pivots for x in rows[i]), field)
    if not mat_eq(mat_compose(inj, proj), e) or not mat_eq(
        mat_compose(proj, inj), identity_mat(r, field)
    ):
        raise AssertionError("internal error: splitting equations failed")
    return Splitting(rank=r, inj=inj, proj=proj)
