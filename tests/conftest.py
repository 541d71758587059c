"""Shared test helpers: literal and deterministic random matrices,
random idempotents, and the degenerate quadruples on a one-dimensional
V."""

import random

from weakcp.fdvect import UNIT, FMor, MonoidData, identity, vobj
from weakcp.fields import GF, QQ
from weakcp.iterate import IterSetup
from weakcp.kernel import (
    Mat,
    ShapeError,
    identity_mat,
    mat_compose,
    rank,
    solve_right,
)
from weakcp.wcp import Quadruple


def dense_mat(rows, cols, entries, field) -> Mat:
    """The matrix of the row-major ``entries``, zeros included, each
    already in the field: the engine's one constructor takes rows of
    nonzeros, and dense literals are the tests' reference format."""
    if len(entries) != rows * cols:
        raise ShapeError(f"{rows}x{cols} matrix needs {rows * cols} "
                         f"entries, got {len(entries)}")
    return Mat(rows, cols, tuple(
        tuple((c, x) for c, x in enumerate(entries[r * cols:(r + 1) * cols])
              if x)
        for r in range(rows)), field)


def from_rows(rows, field) -> Mat:
    """A matrix from a row-major nested list of literal entries, each
    coerced into the field: the dense reference the engine's builders
    are compared with."""
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ShapeError("ragged rows")
    return dense_mat(len(rows), ncols,
                     tuple(field.coerce(x) for row in rows for x in row), field)


def mor(dom, cod, rows, field) -> FMor:
    """A morphism from a row-major nested list of literal entries."""
    return FMor(dom, cod, from_rows(rows, field))


def random_entry(rng, field):
    if field is QQ:
        return field.coerce(rng.randint(-4, 4))
    return field.coerce(rng.randrange(field.p))


def random_mat(rng, rows, cols, field) -> Mat:
    return dense_mat(
        rows, cols,
        tuple(random_entry(rng, field) for _ in range(rows * cols)),
        field,
    )


def random_idempotent(rng, n: int, field) -> Mat:
    """A random n x n idempotent of random positive rank.

    Built from a random full-column-rank injection i and a random left
    inverse p (p = (p0 i)^(-1) p0 for a p0 making p0 i invertible), so
    E = i p satisfies E^2 = E by construction.
    """
    r = rng.randint(1, n)
    while True:
        inj = random_mat(rng, n, r, field)
        if rank(inj) != r:
            continue
        p0 = random_mat(rng, r, n, field)
        gram = mat_compose(p0, inj)
        if rank(gram) != r:
            continue
        gram_inv = solve_right(gram, identity_mat(r, field))
        proj = mat_compose(gram_inv, p0)
        return mat_compose(inj, proj)


FIELDS = (QQ, GF(2), GF(3), GF(5))


def trivial_quadruple(a: MonoidData, vname: str = "K") -> Quadruple:
    """The quadruple on a one-dimensional V where everything collapses.

    psi is the identity of A (up to the invisible factor) and sigma is
    the unit of A, so the crossed product of A with this V is A itself.
    """
    v = vobj(vname, 1)
    psi = FMor(v @ a.obj, a.obj @ v, a.id.mat)
    sigma = FMor(v @ v, a.obj @ v, a.unit.mat)
    return Quadruple(a, v, psi, sigma)


def trivial_extension(q: Quadruple, vname: str = "K") -> IterSetup:
    """Extend a quadruple by a one-dimensional second factor.

    The combined product on A (x) V (x) K must coincide with the product
    on A (x) V, which is what the degeneration tests assert.  The first
    factor must come with a preunit; pass it as ``nu_v`` downstream.
    """
    qt = trivial_quadruple(q.monoid, vname)
    field = q.field
    vk = q.v @ qt.v
    delta = identity(vk, field)
    tau = FMor(qt.v @ q.v, vk, q.idv.mat)
    return IterSetup(q, qt, delta, tau)


def trivial_preunit(q: Quadruple) -> FMor:
    """The preunit eta_A (x) 1 of a trivial (one-dimensional V) quadruple."""
    return FMor(UNIT, q.a @ q.v, q.monoid.unit.mat)
