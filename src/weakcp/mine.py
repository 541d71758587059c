"""Search for weak distributive laws over small prime fields.

Over a prime field every candidate law B (x) A -> A (x) B is a matrix
with finitely many possible entries, so for small dimensions the space
can be enumerated exhaustively.  The miner filters candidates through the
axioms (cheapest condition first) and classifies the survivors by the
rank of the induced idempotent; a law whose idempotent is neither zero
nor the identity yields a genuinely weak crossed product.

The enumeration order is fixed (entry k of candidate ``code`` is
``(code // p**k) % p``, row-major), so results are reproducible, and the
counts for the reference search are frozen below as regression values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .fdvect import FMor, MonoidData, compose, identity, tensor
from .fields import GF, PrimeField
from .fixtures import check_yang_baxter, diagonal_algebra, wdl_nabla
from .kernel import Mat, identity_mat, mat_eq, rank


@dataclass(frozen=True)
class MinedLaw:
    """One law found by the miner, with its classification."""

    code: int
    law: FMor
    nabla_rank: int
    self_yang_baxter: bool


@dataclass
class MineResult:
    """Outcome of a search: every law found plus summary counts."""

    total: int = 0  # candidates satisfying all axioms
    weak: int = 0  # of those, idempotent != identity
    nondegenerate: int = 0  # idempotent neither identity nor zero
    laws: list = dc_field(default_factory=list)


def _wdl_predicate(a: MonoidData, b: MonoidData):
    """A closure testing the weak-distributive-law axioms on one matrix.

    Conditions are ordered so that the cheapest comparisons run first;
    most candidates die on the exchange law before the quadratic axioms
    are evaluated.
    """
    ida, idb = identity(a.obj, a.field), identity(b.obj, b.field)
    mu_ab = tensor(a.mul, idb)
    amu_b = tensor(ida, b.mul)

    def accept(lam: FMor) -> bool:
        left = compose(amu_b, tensor(compose(lam, tensor(b.unit, ida)), idb))
        right = compose(mu_ab, tensor(ida, compose(lam, tensor(idb, a.unit))))
        if not mat_eq(left.mat, right.mat):
            return False
        if not mat_eq(
            compose(lam, tensor(idb, a.mul)).mat,
            compose(mu_ab, tensor(ida, lam), tensor(lam, ida)).mat,
        ):
            return False
        return mat_eq(
            compose(lam, tensor(b.mul, ida)).mat,
            compose(amu_b, tensor(lam, idb), tensor(idb, lam)).mat,
        )

    return accept


def _law_space(a: MonoidData, b: MonoidData):
    """(field, B (x) A, A (x) B) of the candidate laws; the field must be
    prime, so that the candidates are finitely many."""
    f = a.field
    if not isinstance(f, PrimeField):
        raise ValueError("mining enumerates matrices over a prime field")
    return f, b.obj @ a.obj, a.obj @ b.obj


def law_from_code(a: MonoidData, b: MonoidData, code: int) -> FMor:
    """The candidate law encoded by an integer in the fixed enumeration."""
    f, ba, ab = _law_space(a, b)
    p = f.p
    entries = []
    for _ in range(ba.dim * ab.dim):
        entries.append(code % p)
        code //= p
    return FMor(ba, ab, Mat(ab.dim, ba.dim, tuple(entries), f))


def _mine(a: MonoidData, b: MonoidData, codes) -> MineResult:
    """Keep and classify the laws among the inspected candidates.

    ``codes`` maps the size of the candidate space to the codes of the
    candidates to inspect, in order.
    """
    f, ba, ab = _law_space(a, b)
    accept = _wdl_predicate(a, b)
    idmat = identity_mat(ab.dim, f)
    result = MineResult()
    for code in codes(f.p ** (ba.dim * ab.dim)):
        lam = law_from_code(a, b, code)
        if not accept(lam):
            continue
        nab = wdl_nabla(a, b, lam)
        info = MinedLaw(
            code=code,
            law=lam,
            nabla_rank=rank(nab.mat),
            self_yang_baxter=(
                a.dim == b.dim
                and check_yang_baxter(a, b, b, lam, lam, lam).passed is True
            ),
        )
        result.total += 1
        result.laws.append(info)
        if not mat_eq(nab.mat, idmat):
            result.weak += 1
            if info.nabla_rank > 0:
                result.nondegenerate += 1
    return result


def mine_wdl(a: MonoidData, b: MonoidData, limit: int | None = None) -> MineResult:
    """Exhaustively enumerate all candidate laws and keep the valid ones.

    ``limit`` caps the number of candidates inspected (for tests); the
    full space has p**(dim(A)*dim(B))**2 elements, so this is only
    feasible for very small dimensions.
    """
    return _mine(a, b, lambda space: range(
        space if limit is None else min(space, limit)))


def mine_wdl_random(a: MonoidData, b: MonoidData, seed: int, tries: int) -> MineResult:
    """Seeded random search for laws in spaces too large to enumerate."""
    def codes(space):
        rng = random.Random(seed)
        seen = set()
        for _ in range(tries):
            code = rng.randrange(space)
            if code not in seen:
                seen.add(code)
                yield code

    return _mine(a, b, codes)


# Frozen reference values for the search over GF(2) with both monoids the
# two-dimensional diagonal algebra.  These are regression constants: the
# enumeration is deterministic, so any change here means behavior changed.
REFERENCE_TOTAL = 26
REFERENCE_WEAK = 19
REFERENCE_NONDEGENERATE = 18
REFERENCE_CODE = 577  # first law with idempotent of rank 3 and self-YB


def mined_law(field=GF(2)):
    """The frozen reference law over GF(2) on the diagonal algebra.

    Both slots use the same monoid, so the law can be reused for all
    three pairs of a triple; it satisfies the hexagon relation with
    itself and induces an idempotent of rank 3 on the 4-dimensional
    tensor square.
    """
    a = diagonal_algebra("S", 2, field)
    lam = law_from_code(a, a, REFERENCE_CODE)
    return a, lam
