"""Exact matrix calculus: composition, tensor, solving, splitting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIELDS, dense_mat, from_rows, random_idempotent, random_mat
from weakcp.fdvect import FMor, FObj, check_equal, identity, tensor, vobj
from weakcp.fields import GF, QQ, FieldMismatchError
from weakcp.kernel import (
    BACKEND,
    InconsistentSystemError,
    Mat,
    NotIdempotentError,
    ShapeError,
    first_difference,
    identity_mat,
    mat_compose,
    mat_eq,
    mat_tensor,
    mat_whisker,
    nullspace,
    rank,
    solve_right,
    split_idempotent,
)
from weakcp.report import Witness


def _zero(rows, cols, field):
    return Mat(rows, cols, ((),) * rows, field)


def test_compose_basic():
    a = from_rows([[1, 2]], QQ)
    b = from_rows([[3], [4]], QQ)
    assert mat_compose(a, b).entries == (QQ.coerce(11),)


def test_compose_shape_mismatch():
    a = from_rows([[1, 2]], QQ)
    with pytest.raises(ShapeError):
        mat_compose(a, a)


def test_compose_field_mismatch():
    a = from_rows([[1]], QQ)
    b = from_rows([[1]], GF(2))
    with pytest.raises(FieldMismatchError):
        mat_compose(a, b)


def test_identity_neutral():
    rng = random.Random(1)
    for field in FIELDS:
        m = random_mat(rng, 3, 4, field)
        assert mat_eq(mat_compose(identity_mat(3, field), m), m)
        assert mat_eq(mat_compose(m, identity_mat(4, field)), m)


def test_tensor_of_identities():
    for field in FIELDS:
        t = mat_tensor(identity_mat(2, field), identity_mat(3, field))
        assert mat_eq(t, identity_mat(6, field))


def test_tensor_indexing_convention():
    # e_i (x) e_j has flat index i * dim(second) + j
    a = from_rows([[0, 1], [1, 0]], QQ)  # swaps e_0, e_1
    b = identity_mat(3, QQ)
    t = mat_tensor(a, b)
    col = [t[r, 1] for r in range(6)]  # image of e_0 (x) e_1
    assert col == [QQ.zero()] * 4 + [QQ.one(), QQ.zero()]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_compose_associative(data):
    field = data.draw(st.sampled_from(FIELDS))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    dims = [data.draw(st.integers(1, 4)) for _ in range(4)]
    a = random_mat(rng, dims[0], dims[1], field)
    b = random_mat(rng, dims[1], dims[2], field)
    c = random_mat(rng, dims[2], dims[3], field)
    assert mat_eq(
        mat_compose(mat_compose(a, b), c), mat_compose(a, mat_compose(b, c))
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tensor_compose_interchange(data):
    # (a (x) b) o (c (x) d) = (a o c) (x) (b o d)
    field = data.draw(st.sampled_from(FIELDS))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    d = [data.draw(st.integers(1, 3)) for _ in range(4)]
    a = random_mat(rng, d[0], d[1], field)
    c = random_mat(rng, d[1], d[2], field)
    b = random_mat(rng, d[3], d[0], field)
    x = random_mat(rng, d[0], d[3], field)
    lhs = mat_compose(mat_tensor(a, b), mat_tensor(c, x))
    rhs = mat_tensor(mat_compose(a, c), mat_compose(b, x))
    assert mat_eq(lhs, rhs)


def test_rank_examples():
    assert rank(_zero(3, 3, QQ)) == 0
    assert rank(identity_mat(4, GF(5))) == 4
    assert rank(from_rows([[1, 2], [2, 4]], QQ)) == 1


def test_solve_right_exact():
    a = from_rows([[1, 2], [3, 4]], QQ)
    b = identity_mat(2, QQ)
    x = solve_right(a, b)
    assert mat_eq(mat_compose(a, x), b)
    assert x[0, 0] == QQ.coerce("-2")
    assert x[0, 1] == QQ.coerce("1")


def test_solve_right_inconsistent():
    a = from_rows([[1, 0], [1, 0]], QQ)
    b = from_rows([[0, 1], [0, 2]], QQ)
    with pytest.raises(InconsistentSystemError) as exc:
        solve_right(a, b)
    assert exc.value.column == 1


def test_solve_right_free_variables_zero():
    a = from_rows([[1, 1]], QQ)
    b = from_rows([[5]], QQ)
    x = solve_right(a, b)
    assert x.entries == (QQ.coerce(5), QQ.zero())


def test_nullspace_example():
    n = nullspace(from_rows([[1, 2, 0], [2, 4, 0]], QQ))
    assert n == from_rows([[-2, 0], [1, 0], [0, 1]], QQ)
    assert nullspace(identity_mat(3, GF(5))).cols == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_nullspace_basis(data):
    field = data.draw(st.sampled_from(FIELDS))
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, min(rows, cols)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    # a product through k dimensions, so the rank is often deficient
    m = mat_compose(random_mat(rng, rows, k, field),
                    random_mat(rng, k, cols, field))
    n = nullspace(m)
    assert n.rows == cols
    assert mat_eq(mat_compose(m, n), _zero(rows, n.cols, field))
    assert rank(n) == n.cols
    assert rank(m) + n.cols == cols


def test_split_examples():
    sp = split_idempotent(from_rows([[1, 1], [0, 0]], QQ))
    assert sp.rank == 1
    assert sp.inj.entries == (1, 0)
    assert sp.proj.entries == (1, 1)

    sp = split_idempotent(from_rows([[1, 0], [0, 0]], GF(3)))
    assert sp.rank == 1
    assert sp.inj.entries == (1, 0)
    assert sp.proj.entries == (1, 0)


def test_split_identity_and_zero():
    for field in FIELDS:
        sp = split_idempotent(identity_mat(3, field))
        assert sp.rank == 3
        sp = split_idempotent(_zero(3, 3, field))
        assert sp.rank == 0
        assert (sp.inj.rows, sp.inj.cols) == (3, 0)
        assert (sp.proj.rows, sp.proj.cols) == (0, 3)


def test_split_rejects_non_idempotent():
    with pytest.raises(NotIdempotentError) as exc:
        split_idempotent(from_rows([[0, 1], [0, 0]], QQ))
    assert exc.value.witness is not None


def test_split_rejects_non_square():
    with pytest.raises(NotIdempotentError):
        split_idempotent(_zero(2, 3, QQ))


def test_split_200_random_idempotents_deterministic():
    rng = random.Random(20240817)
    for i in range(200):
        field = FIELDS[i % len(FIELDS)]
        n = rng.randint(1, 5)
        e = random_idempotent(rng, n, field)
        sp = split_idempotent(e)
        assert mat_eq(mat_compose(sp.inj, sp.proj), e)
        assert mat_eq(mat_compose(sp.proj, sp.inj),
                      identity_mat(sp.rank, field))
        again = split_idempotent(e)
        assert sp.inj.entries == again.inj.entries
        assert sp.proj.entries == again.proj.entries


PIVOT_FIELDS = FIELDS + (GF(3037000507),)


def _dense_rows(m):
    """The rows of m as lists, zeros included."""
    e, cols = m.entries, m.cols
    return [list(e[r * cols : (r + 1) * cols]) for r in range(m.rows)]


# Dense Gauss-Jordan elimination, the reference that the sparse reduced
# echelon routine of the kernel is held to.

def _gauss_jordan(rows, ncols, field):
    """Eliminate the dense ``rows`` in place on their first ncols columns.

    Row operations act on the whole row (an augmented system may be
    longer).  Each pivot is the first nonzero of its column at or below
    the next pivot row, and is cleared from every other row but not
    scaled to one.  Returns the pivots as (row, col) pairs; they occupy
    rows 0, 1, ... in order.
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


def _oracle_rank(m):
    return len(_gauss_jordan(_dense_rows(m), m.cols, m.field))


def _oracle_solve_right(a, b):
    """X with a o X = b and its free variables zero, or the smallest
    column of b outside the column space of a."""
    field, n = a.field, a.cols
    rows = [ra + rb for ra, rb in zip(_dense_rows(a), _dense_rows(b))]
    pivots = _gauss_jordan(rows, n, field)
    bad = [c for row in rows[len(pivots):] for c in range(b.cols) if row[n + c]]
    if bad:
        return min(bad)
    x = [[field.zero()] * b.cols for _ in range(n)]
    for r, col in pivots:
        for c in range(b.cols):
            x[col][c] = field.div(rows[r][n + c], rows[r][col])
    return dense_mat(n, b.cols, tuple(v for row in x for v in row), field)


def _oracle_nullspace(m):
    field = m.field
    rows = _dense_rows(m)
    pivots = _gauss_jordan(rows, m.cols, field)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in range(m.cols):
        if f in pivot_cols:
            continue
        v = [field.zero()] * m.cols
        v[f] = field.one()
        for r, c in pivots:
            if rows[r][f]:
                v[c] = field.neg(field.div(rows[r][f], rows[r][c]))
        basis.append(v)
    return dense_mat(m.cols, len(basis),
                     tuple(v[i] for i in range(m.cols) for v in basis), field)


def _oracle_split(e):
    """(inj, proj) of a square idempotent e, or the message that
    split_idempotent raises when e o e != e."""
    field, n = e.field, e.rows
    rows = _dense_rows(e)
    ee = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        for t in range(n):
            for j in range(n):
                ee[i][j] = field.add(ee[i][j], field.mul(rows[i][t], rows[t][j]))
    for i in range(n):
        for j in range(n):
            if ee[i][j] != rows[i][j]:
                return (f"matrix is not idempotent: (E*E)[{i},{j}] = "
                        f"{field.fmt(ee[i][j])} but E[{i},{j}] = "
                        f"{field.fmt(rows[i][j])}")
    pivots = _gauss_jordan(rows, n, field)
    r = len(pivots)
    inj = dense_mat(n, r, tuple(e[i, j] for i in range(n) for _, j in pivots),
                    field)
    proj = dense_mat(r, n, tuple(field.div(x, rows[i][j])
                                 for i, j in pivots for x in rows[i]), field)
    return inj, proj


def _sparse_operand(data, rng, rows, cols, field):
    """A rows x cols matrix, often rank-deficient, with some rows and
    columns zeroed."""
    k = data.draw(st.integers(0, max(rows, cols)), label="inner")
    m = _dense_rows(mat_compose(random_mat(rng, rows, k, field),
                                random_mat(rng, k, cols, field)))
    zero_rows = data.draw(st.sets(st.integers(0, max(rows - 1, 0))), label="zr")
    zero_cols = data.draw(st.sets(st.integers(0, max(cols - 1, 0))), label="zc")
    return dense_mat(rows, cols, tuple(
        field.zero() if r in zero_rows or c in zero_cols else x
        for r, row in enumerate(m) for c, x in enumerate(row)), field)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_echelon_readers_match_dense_gauss_jordan(data):
    field = data.draw(st.sampled_from(PIVOT_FIELDS), label="field")
    rows, cols = (data.draw(st.integers(0, 6), label=x) for x in "rc")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    m = _sparse_operand(data, rng, rows, cols, field)
    assert rank(m) == _oracle_rank(m)
    assert nullspace(m) == _oracle_nullspace(m)
    b = _sparse_operand(data, rng, rows, data.draw(st.integers(0, 3)), field)
    if data.draw(st.booleans(), label="consistent"):
        b = mat_compose(m, _sparse_operand(data, rng, cols, b.cols, field))
    expected = _oracle_solve_right(m, b)
    if isinstance(expected, int):
        with pytest.raises(InconsistentSystemError) as exc:
            solve_right(m, b)
        assert exc.value.column == expected
        assert f"column {expected} " in str(exc.value)
    else:
        assert solve_right(m, b) == expected
    n = min(rows, cols)
    e = (random_idempotent(rng, n, field) if n and data.draw(st.booleans())
         else _sparse_operand(data, rng, n, n, field))
    expected = _oracle_split(e)
    if isinstance(expected, str):
        with pytest.raises(NotIdempotentError) as exc:
            split_idempotent(e)
        assert str(exc.value) == expected
    else:
        sp = split_idempotent(e)
        assert (sp.inj, sp.proj) == expected
        assert sp.rank == sp.inj.cols


def _columns_outside_earlier_span(m):
    """The columns j of m outside the span of columns 0..j-1, in order."""
    out = []
    rows = _dense_rows(m)
    for j in range(m.cols):
        before = dense_mat(m.rows, j,
                           tuple(x for row in rows for x in row[:j]), m.field)
        try:
            solve_right(before, dense_mat(
                m.rows, 1, tuple(row[j] for row in rows), m.field))
        except InconsistentSystemError:
            out.append(j)
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rank_counts_columns_outside_earlier_span(data):
    field = data.draw(st.sampled_from(PIVOT_FIELDS))
    rows = data.draw(st.integers(1, 6))
    cols = data.draw(st.integers(1, 6))
    k = data.draw(st.integers(0, min(rows, cols) - 1))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    # a product through fewer than min(rows, cols) dimensions: rank-deficient
    m = mat_compose(random_mat(rng, rows, k, field),
                    random_mat(rng, k, cols, field))
    assert rank(m) == len(_columns_outside_earlier_span(m))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_split_pivots_are_columns_outside_earlier_span(data):
    field = data.draw(st.sampled_from(PIVOT_FIELDS))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    e = random_idempotent(rng, data.draw(st.integers(1, 6)), field)
    sp = split_idempotent(e)
    pivots = _columns_outside_earlier_span(e)
    assert mat_eq(sp.inj, dense_mat(e.rows, len(pivots), tuple(
        e[i, j] for i in range(e.rows) for j in pivots), field))
    # the reference construction: solve inj o proj = E for proj
    assert mat_eq(sp.proj, solve_right(sp.inj, e))


def test_first_difference():
    a = from_rows([[1, 2], [3, 4]], QQ)
    b = from_rows([[1, 2], [3, 5]], QQ)
    assert first_difference(a, a) is None
    assert first_difference(a, b) == (1, 1)


def test_backend_is_reported():
    assert BACKEND == "pure"


def test_large_prime_products_are_exact():
    # 2 (p - 1)^2 overflows a 64-bit accumulator for p > sqrt(2^63)
    field = GF(3037000507)
    m = from_rows([[field.p - 1, field.p - 1]], field)
    assert mat_compose(m, from_rows([[field.p - 1], [field.p - 1]], field)).entries == (2,)
    assert mat_tensor(m, m).entries == (1, 1, 1, 1)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_large_prime_matches_integer_arithmetic(data):
    # entries near p, so that every product and every sum exceeds 2^63
    p = data.draw(st.sampled_from((3037000507, 5000000029, 9999999967)))
    field = GF(p)
    near_p = st.integers(p - 1000, p - 1)
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    g = [[data.draw(near_p) for _ in range(k)] for _ in range(n)]
    f = [[data.draw(near_p) for _ in range(m)] for _ in range(k)]
    product = mat_compose(from_rows(g, field), from_rows(f, field))
    assert product.entries == tuple(
        sum(g[i][t] * f[t][j] for t in range(k)) % p
        for i in range(n) for j in range(m)
    )
    kron = mat_tensor(from_rows(g, field), from_rows(f, field))
    assert kron.entries == tuple(
        g[i1][j1] * f[i2][j2] % p
        for i1 in range(n) for i2 in range(k)
        for j1 in range(k) for j2 in range(m)
    )


# Differential test of the zero-skipping products against the textbook
# formulas, on the fields whose arithmetic differs: Q (int and Fraction entries),
# GF(2), GF(5) and a prime whose products overflow 64 bits.
DIFF_FIELDS = (QQ, GF(2), GF(5), GF(3037000507))


def _pool(field, rng):
    """A few values and their negatives, so that sums often cancel."""
    if field is QQ:
        base = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 7)]
    else:
        base = [1, 2, rng.randrange(1, field.p)]
    return [field.coerce(x) for x in base] + [field.neg(field.coerce(x)) for x in base]


def _sparse_mat(rng, rows, cols, field, density):
    pool = _pool(field, rng)
    return dense_mat(rows, cols, tuple(
        rng.choice(pool) if rng.random() < density else field.zero()
        for _ in range(rows * cols)), field)


def _naive_compose(g, f):
    field = g.field
    out = []
    for i in range(g.rows):
        for j in range(f.cols):
            acc = field.zero()
            for t in range(g.cols):
                acc = field.add(acc, field.mul(g[i, t], f[t, j]))
            out.append(acc)
    return tuple(out)


def _naive_tensor(f, g):
    field = f.field
    return tuple(
        field.mul(f[i1, j1], g[i2, j2])
        for i1 in range(f.rows) for i2 in range(g.rows)
        for j1 in range(f.cols) for j2 in range(g.cols)
    )


def _unit_rows_mat(rows, cols, targets, field):
    """The matrix whose row r is a single 1 at column targets[r]."""
    return Mat(rows, cols, tuple(
        ((t, field.one()),) for t in targets), field)


def _operand(data, rng, kind, rows, cols, field, density):
    """A rows x cols operand of the drawn kind: sparse random, or one
    whose every row is a single 1 (an identity, a flip, a selection);
    the identity and the flip are square, of size cols."""
    if kind == "identity":
        return _unit_rows_mat(cols, cols, range(cols), field)
    if kind == "flip":
        # X (x) Y -> Y (x) X with dim X * dim Y = cols
        a = data.draw(st.sampled_from(
            [d for d in range(1, cols + 1) if cols % d == 0] or [0]), label="a")
        b = cols // a if a else 0
        return _unit_rows_mat(cols, cols, [
            i * b + j for j in range(b) for i in range(a)], field)
    if kind == "select" and cols:
        return _unit_rows_mat(rows, cols, [
            rng.randrange(cols) for _ in range(rows)], field)
    return _sparse_mat(rng, rows, cols, field, density)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_products_match_naive_reference(data):
    field = data.draw(st.sampled_from(DIFF_FIELDS), label="field")
    n, k, m = (data.draw(st.integers(0, 6), label=x) for x in "nkm")
    density = data.draw(st.sampled_from((0.0, 0.1, 0.3, 0.6, 1.0)),
                        label="density")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    # identities, flips and selections, which mat_tensor re-indexes
    # instead of pairing entries, on either side
    kinds = [data.draw(st.sampled_from(
        ["sparse", "sparse", "identity", "flip", "select"]), label=side)
        for side in ("g kind", "f kind")]
    if kinds[0] in ("identity", "flip"):
        n = k
    if kinds[1] in ("identity", "flip"):
        m = k
    g = _operand(data, rng, kinds[0], n, k, field, density)
    f = _operand(data, rng, kinds[1], k, m, field, density)
    if (k >= 2 and kinds == ["sparse", "sparse"]
            and data.draw(st.booleans(), label="cancel")):
        # column 1 of g is minus column 0 and row 1 of f equals row 0, so
        # the t = 0 and t = 1 terms of every output entry cancel exactly
        ge, fe = list(g.entries), list(f.entries)
        for i in range(n):
            ge[i * k + 1] = field.neg(ge[i * k])
        fe[m : 2 * m] = fe[:m]
        g = dense_mat(n, k, tuple(ge), field)
        f = dense_mat(k, m, tuple(fe), field)
    product = mat_compose(g, f)
    assert (product.rows, product.cols) == (n, m)
    assert product.entries == _naive_compose(g, f)
    kron = mat_tensor(g, f)
    assert (kron.rows, kron.cols) == (n * k, k * m)
    assert kron.entries == _naive_tensor(g, f)
    for x in product.entries + kron.entries:
        if field is QQ:
            # canonical: a whole value is an int, never Fraction(n, 1)
            assert type(x) is int or (type(x) is Fraction and x.denominator > 1)
        else:
            assert type(x) is int and 0 <= x < field.p
    for result in (product, kron):
        _check_storage(result, field, rng)


def _dense_difference(x, y):
    """First differing (row, col) of two same-shape matrices, scanning
    their dense entries row-major."""
    for idx, (a, b) in enumerate(zip(x.entries, y.entries)):
        if a != b:
            return divmod(idx, x.cols)
    return None


def _check_storage(m, field, rng):
    """The rows of m are canonical, and equality and the witnesses read
    from them agree with the dense entries."""
    assert len(m.nonzeros) == m.rows
    for row in m.nonzeros:
        columns = [c for c, _ in row]
        assert columns == sorted(set(columns))
        assert all(0 <= c < m.cols for c in columns)
        assert all(x for _, x in row)
    rebuilt = dense_mat(m.rows, m.cols, m.entries, field)
    assert rebuilt == m
    # the same shape: m rebuilt, m with one entry changed, an unrelated matrix
    others = [rebuilt, _sparse_mat(rng, m.rows, m.cols, field, rng.random())]
    if m.entries:
        changed = list(m.entries)
        idx = rng.randrange(len(changed))
        pool = _pool(field, rng)
        # a zero becomes nonzero or a nonzero becomes zero or another value
        changed[idx] = rng.choice(
            [field.zero()] + [x for x in pool if x != changed[idx]]
            if changed[idx] else pool)
        others.append(dense_mat(m.rows, m.cols, tuple(changed), field))
    dom, cod = FObj((("X", m.cols),)), FObj((("Y", m.rows),))
    for other in others:
        diff = _dense_difference(m, other)
        assert mat_eq(m, other) == (m.entries == other.entries) == (diff is None)
        assert first_difference(m, other) == diff
        item = check_equal("c", FMor(dom, cod, m), FMor(dom, cod, other))
        if diff is None:
            assert item.passed is True
        else:
            r, c = diff
            assert item.witness == Witness(
                basis_index=(c,), coordinate=(r,),
                lhs=field.fmt(m.entries[r * m.cols + c]),
                rhs=field.fmt(other.entries[r * m.cols + c]))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_whisker_is_the_kronecker_product_with_identities(data):
    """mat_whisker(m, f, n) has exactly the rows of id_m (x) f (x) id_n,
    dimension 0 (the zero image) included; and ``tensor`` with objects
    has the factor lists of ``tensor`` with their identities, which
    witnesses print index by index."""
    field = data.draw(st.sampled_from((GF(2), GF(5), QQ)), label="field")
    m, n, rows, cols = (data.draw(st.integers(0, 3), label=x)
                        for x in ("m", "n", "rows", "cols"))
    rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
    f = _sparse_operand(data, rng, rows, cols, field)
    assert mat_whisker(m, f, n) == mat_tensor(
        mat_tensor(identity_mat(m, field), f), identity_mat(n, field))
    x, y = vobj("X", m), vobj("Y", n)
    ff = FMor(vobj("F", cols), vobj("G", rows), f)
    g = FMor(y @ x, x, _sparse_operand(data, rng, m, n * m, field))
    typed = tensor(x, y, ff, y, g, x)
    explicit = tensor(identity(x @ y, field), ff, identity(y, field), g,
                      identity(x, field))
    assert (typed.dom.factors, typed.cod.factors, typed.mat) == (
        explicit.dom.factors, explicit.cod.factors, explicit.mat)
    with pytest.raises(ValueError):
        tensor(x, y)
