"""Exact matrix calculus: row-sparse storage, products over the nonzeros.

Composition, Kronecker tensor product, exact equality, right-solving, null
spaces and constructive idempotent splitting, all over one of the exact
fields from :mod:`weakcp.fields`.  Matrices are immutable; every operation
returns a new matrix, so values may be shared freely between threads.

Every matrix stores each row as a tuple of its nonzero ``(column, value)``
pairs, columns ascending, zeros never stored (the compressed-row layout).
The matrices the engine multiplies (flips, whiskers ``id (x) f (x) id``)
are a few percent nonzero, so :func:`mat_compose` is Gustavson's
row-by-row product, :func:`mat_tensor` pairs the rows of its two
operands and :func:`mat_whisker` re-indexes the rows of its one; none
allocates a dense buffer, and no identity matrix is formed to whisker.
Equality compares rows, and indexing reads one stored row.  One sparse
routine computes the reduced row echelon form, on rows held as dicts of
their nonzeros: rank, right-solving, null spaces and the splitting of
idempotents all read their results from it.

A matrix has one constructor, ``Mat(rows, cols, nonzeros, field)``,
which takes its rows of nonzeros.  The dense row-major format belongs to
the JSON workspace files alone, and :mod:`weakcp.jsonio` converts
between it and the rows.  The dense view ``entries`` is derived on
demand and cached, for ``repr``, the tests and the benchmark's tracer;
no engine code reads it.

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
    so equal matrices have equal ``nonzeros``.  The caller guarantees
    that layout: ``rows`` tuples, columns ascending and below ``cols``,
    no zero values, values already in the field.
    """

    rows: int
    cols: int
    nonzeros: tuple
    field: object

    def __init__(self, rows, cols, nonzeros, field):
        self.__dict__.update(rows=rows, cols=cols, nonzeros=nonzeros,
                             field=field)

    @cached_property
    def entries(self) -> tuple:
        """All rows * cols entries, row-major, zeros included, for
        ``repr``, the tests and the benchmark's tracer."""
        cols = self.cols
        out = [self.field.zero()] * (self.rows * cols)
        for r, row in enumerate(self.nonzeros):
            base = r * cols
            for c, x in row:
                out[base + c] = x
        return tuple(out)

    def __getitem__(self, rc):
        r, c = rc
        return dict(self.nonzeros[r]).get(c, self.field.zero())

    def __repr__(self):
        entries, cols = self.entries, self.cols
        body = "; ".join(
            " ".join(self.field.fmt(x) for x in entries[r * cols : (r + 1) * cols])
            for r in range(self.rows)
        )
        return f"Mat({self.rows}x{self.cols} over {self.field!r}: [{body}])"


def identity_mat(n, field) -> Mat:
    one = field.one()
    return Mat(n, n, tuple(((i, one),) for i in range(n)), field)


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
        if not grow:
            out.append(grow)
            continue
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
    return Mat(g.rows, f.cols, tuple(out), field)


def mat_tensor(f: Mat, g: Mat) -> Mat:
    """Kronecker product f (x) g of two morphisms: row (i1, i2) pairs row
    i1 of f with row i2 of g.

    A factor 1 costs no multiplication; a product of two nonzeros of a
    field is never zero, so nothing is filtered.  A product with an
    identity is a whisker, built by :func:`mat_whisker`.
    """
    field = same_field(f.field, g.field)
    mul, one = field.mul, field.one()
    gc = g.cols
    fnz = [[(j1 * gc, a, a == one) for j1, a in frow] for frow in f.nonzeros]
    gnz = [[(j2, b, b == one) for j2, b in grow] for grow in g.nonzeros]
    out = []
    for frow in fnz:
        for grow in gnz:
            out.append(tuple([(base + j2, b if ua else a if ub else mul(a, b))
                              for base, a, ua in frow for j2, b, ub in grow]))
    return Mat(f.rows * g.rows, f.cols * gc, tuple(out), field)


def mat_whisker(m: int, f: Mat, n: int) -> Mat:
    """The whisker id_m (x) f (x) id_n, without forming an identity.

    Row (i, t, k) of the result is row t of f with each column j moved to
    (i, j, k): the entries are f's, re-indexed, with no arithmetic.  Rows
    that land at column offset 0 are shared as they are.
    """
    fnz, step = f.nonzeros, f.cols * n
    if n != 1:
        fnz = [tuple([(j * n, x) for j, x in row]) for row in fnz]
    out = []
    for i in range(m):
        base = i * step
        if n == 1:
            out.extend(tuple([(base + j, x) for j, x in row]) if base else row
                       for row in fnz)
            continue
        for row in fnz:
            out.extend(tuple([(k + j, x) for j, x in row]) if k else row
                       for k in range(base, base + n))
    return Mat(m * f.rows * n, m * step, tuple(out), f.field)


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


def _rref(nonzeros, field) -> dict:
    """The reduced row echelon form of the rows ``nonzeros``, each a tuple
    of ``(column, value)`` pairs: its nonzero rows, as dicts ``{column:
    value}``, by pivot column.

    The rows are taken one at a time.  Each is cleared of the pivots found
    so far; if a nonzero is left, the first one becomes a new pivot: the
    row is scaled to make it 1, and its column is cleared from every other
    pivot row.  A row space has one reduced echelon form, so the result
    does not depend on the order of the rows: the pivot columns are the
    columns outside the span of the columns before them.
    """
    sub, mul, zero = field.sub, field.mul, field.zero()
    pivots = {}

    def clear(row, col, prow):
        # row -= row[col] * prow, where prow is 1 at col
        f = row.pop(col)
        for j, x in prow.items():
            if j != col:
                if v := sub(row.get(j, zero), mul(f, x)):
                    row[j] = v
                else:
                    del row[j]

    for nz in nonzeros:
        row = dict(nz)
        # a pivot row is 0 at every other pivot column, so clearing one
        # pivot leaves the row's entries at the others as they were
        for col in [c for c in row if c in pivots]:
            clear(row, col, pivots[col])
        if not row:
            continue
        lead = min(row)
        s = field.inv(row[lead])
        row = {j: mul(s, x) for j, x in row.items()}
        for other in pivots.values():
            if lead in other:
                clear(other, lead, row)
        pivots[lead] = row
    return pivots


def rank(m: Mat) -> int:
    """The number of pivots of m's reduced row echelon form.

    The pivot columns are the columns outside the span of the columns
    before them, so this is the column rank of m.
    """
    return len(_rref(m.nonzeros, m.field))


def solve_right(a: Mat, b: Mat) -> Mat:
    """X with a o X = b, read from the reduced echelon form of [a | b].

    Free variables (when a has deficient column rank) are set to zero, so
    the result is deterministic.  A pivot in column c of b means that
    column is outside the span of a and of the columns of b before it;
    the first such c, the smallest column of b outside the column space
    of a, is named by InconsistentSystemError.
    """
    field = same_field(a.field, b.field)
    if a.rows != b.rows:
        raise ShapeError(
            f"solve_right: {a.rows}x{a.cols} and {b.rows}x{b.cols} have "
            "different numbers of rows"
        )
    n = a.cols
    pivots = _rref((arow + tuple((n + c, x) for c, x in brow)
                    for arow, brow in zip(a.nonzeros, b.nonzeros)), field)
    bad = min((c for c in pivots if c >= n), default=None)
    if bad is not None:
        raise InconsistentSystemError(
            f"column {bad - n} of the right-hand side is outside the "
            "column space", bad - n
        )
    x = [()] * n
    for col, row in pivots.items():
        x[col] = tuple(sorted((c - n, v) for c, v in row.items() if c >= n))
    return Mat(n, b.cols, tuple(x), field)


def nullspace(m: Mat) -> Mat:
    """A basis of {v : m v = 0}, as the columns of a cols x nullity matrix.

    There is one basis vector per non-pivot column f of the reduced
    echelon form: it is 1 at f, 0 at every other non-pivot column, and
    its pivot coordinates are what m v = 0 forces.  So the basis is
    deterministic, and rank(m) + nullity = m.cols.
    """
    field = m.field
    pivots = _rref(m.nonzeros, field)
    free = {f: k for k, f in enumerate(c for c in range(m.cols)
                                       if c not in pivots)}
    one, neg = field.one(), field.neg
    out = []
    for i in range(m.cols):
        if i in free:
            out.append(((free[i], one),))
        else:
            # the pivot row is 1 at i and 0 at the other pivot columns
            out.append(tuple(sorted((free[j], neg(x))
                                    for j, x in pivots[i].items() if j != i)))
    return Mat(m.cols, len(free), tuple(out), field)


@dataclass(frozen=True)
class Splitting:
    """Factorization of an idempotent E as inj o proj with proj o inj = id."""

    rank: int
    inj: Mat  # n x r
    proj: Mat  # r x n


def split_idempotent(e: Mat) -> Splitting:
    """Split an idempotent through its rank.

    E is brought to reduced row echelon form once.  The injection is E's
    columns at the pivots, which are the columns outside the span of the
    columns before them; the projection is the nonzero rows of the
    echelon form.  That is the rank factorization E = inj o proj of any
    matrix, unique once the pivot columns are fixed, so the splitting is
    deterministic over any exact field.  inj is injective and proj
    surjective, so E o E = E exactly when proj o inj = id, the r x r
    product that is checked; E o E is formed only to name a witness.
    """
    if e.rows != e.cols:
        raise NotIdempotentError(f"matrix is {e.rows}x{e.cols}, not square")
    field = e.field
    pivots = _rref(e.nonzeros, field)
    cols = sorted(pivots)
    r = len(cols)
    index = {c: k for k, c in enumerate(cols)}
    inj = Mat(e.rows, r, tuple(
        tuple((index[c], x) for c, x in row if c in index)
        for row in e.nonzeros), field)
    proj = Mat(r, e.cols, tuple(
        tuple(sorted(pivots[c].items())) for c in cols), field)
    if not mat_eq(mat_compose(inj, proj), e):
        raise AssertionError("internal error: splitting equations failed")
    if not mat_eq(mat_compose(proj, inj), identity_mat(r, field)):
        ee = mat_compose(e, e)
        i, j = first_difference(ee, e)
        raise NotIdempotentError(
            f"matrix is not idempotent: (E*E)[{i},{j}] = "
            f"{field.fmt(ee[i, j])} but E[{i},{j}] = {field.fmt(e[i, j])}",
            witness=(i, j, ee[i, j], e[i, j]),
        )
    return Splitting(rank=r, inj=inj, proj=proj)
