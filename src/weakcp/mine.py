"""Search for weak distributive laws over small prime fields.

Over a prime field every candidate law lam : B (x) A -> A (x) B is a
matrix with finitely many possible entries.  Entry k (row-major) of
candidate ``code`` is ``(code // p**k) % p``, and every search inspects
codes in a fixed order, so results are reproducible; the counts of the
reference search are frozen below as regression values.

The first axiom, the exchange law
``(A (x) mu_B)(lam(eta_B (x) A) (x) B) = (mu_A (x) B)(A (x) lam(B (x) eta_A))``,
is linear in lam.  The miner evaluates both of its sides once on each
elementary candidate (one entry 1, the rest 0).  That gives a constraint
matrix C with C vec(lam) = 0 exactly when lam satisfies the law, built
once per search:

* the exhaustive search (``mine_wdl`` without a limit) walks only the
  p**nullity(C) solutions, in ascending code order.  It refuses with
  SearchTooLarge when they number more than EXHAUSTIVE_CAP = 65,536, the
  size of the whole GF(2) (2,2) space;
* a search bounded by ``limit`` and the random search walk the same codes
  as a brute-force search would (``range(limit)``; seeded ``randrange``
  without repeats) and drop each code that fails C before any matrix is
  built.  That test is C vec = 0 (mod p), row by row, and it decodes
  only the digits a row reads, ``code // p**k % p`` with the powers
  ``p**k`` computed once per search; the first failing row ends it.

Every code that passes C still goes through ``law_from_code`` and the full
axiom check, exchange law included.  The whiskers of the monoid
structure that the axioms compose with (``eta_B (x) A``, ``B (x) eta_A``,
``B (x) mu_A``, ``mu_B (x) A``, ``mu_A (x) B`` and ``A (x) mu_B``) do not
depend on the candidate and are built once per search.  The laws are
classified by the rank of the induced idempotent; a law whose idempotent
is neither zero nor the identity yields a genuinely weak crossed product.
On the diagonal algebras the nullity is 8 at dims (2,2) (256 solutions of 2**16 over GF(2),
6,561 of 3**16 over GF(3)), 18 at (2,3) and 45 at (3,3).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field as dc_field

from .fdvect import FMor, MonoidData, compose, identity, tensor
from .fields import GF, PrimeField
from .fixtures import check_yang_baxter, diagonal_algebra, wdl_nabla
from .kernel import Mat, identity_mat, mat_eq, nullspace, rank

EXHAUSTIVE_CAP = 65536  # most exchange-law solutions an exhaustive search walks


class SearchTooLarge(ValueError):
    """An exhaustive search over more solutions than its cap allows."""


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
    """(exchange, accept): the two sides of the exchange law as a function
    of a candidate, and a closure testing all the weak-distributive-law
    axioms on one candidate.

    Conditions are ordered so that the cheapest comparisons run first;
    most candidates die on the exchange law before the quadratic axioms
    are evaluated.
    """
    ida, idb = identity(a.obj, a.field), identity(b.obj, b.field)
    mu_ab = tensor(a.mul, idb)
    amu_b = tensor(ida, b.mul)
    # eta_B (x) A, B (x) eta_A, B (x) mu_A and mu_B (x) A, which do not
    # depend on the candidate either
    eta_ba = tensor(b.unit, ida)
    beta_a = tensor(idb, a.unit)
    bmu_a = tensor(idb, a.mul)
    mu_ba = tensor(b.mul, ida)

    def exchange(lam: FMor):
        left = compose(amu_b, tensor(compose(lam, eta_ba), idb))
        right = compose(mu_ab, tensor(ida, compose(lam, beta_a)))
        return left.mat, right.mat

    def accept(lam: FMor) -> bool:
        if not mat_eq(*exchange(lam)):
            return False
        if not mat_eq(
            compose(lam, bmu_a).mat,
            compose(mu_ab, tensor(ida, lam), tensor(lam, ida)).mat,
        ):
            return False
        return mat_eq(
            compose(lam, mu_ba).mat,
            compose(amu_b, tensor(lam, idb), tensor(idb, lam)).mat,
        )

    return exchange, accept


def _law_space(a: MonoidData, b: MonoidData):
    """(field, B (x) A, A (x) B) of the candidate laws; the field must be
    prime, so that the candidates are finitely many."""
    f = a.field
    if not isinstance(f, PrimeField):
        raise ValueError("mining enumerates matrices over a prime field")
    return f, b.obj @ a.obj, a.obj @ b.obj


@dataclass(frozen=True)
class _ExchangeLaw:
    """The exchange law of a pair as linear conditions on candidate codes."""

    p: int
    entries: int  # entries of a candidate
    c: Mat  # the constraint matrix
    rows: tuple  # distinct nonzero rows of C, each as ((p**k, C[r, k]), ...)

    @functools.cached_property
    def basis(self) -> Mat:
        """A basis of the solutions (only the exhaustive search needs it)."""
        return nullspace(self.c)

    @property
    def space(self) -> int:
        """Number of candidates."""
        return self.p ** self.entries

    def holds(self, code: int) -> bool:
        """Whether candidate ``code`` satisfies the law, C vec = 0 (mod p).

        The rows of C are tested in turn, and each reads only the digits
        it has a coefficient for: digit k is ``code // p**k % p``, with
        ``p**k`` stored in the row.  The first failing row ends the test.
        """
        p = self.p
        for row in self.rows:
            s = 0
            for pk, c in row:
                s += c * (code // pk % p)
            if s % p:
                return False
        return True

    def codes(self):
        """The codes of all solutions, ascending; SearchTooLarge if they
        number more than EXHAUSTIVE_CAP."""
        p, nullity = self.p, self.basis.cols
        if p ** nullity > EXHAUSTIVE_CAP:
            raise SearchTooLarge(
                f"{p}^{nullity} = {p ** nullity} candidates satisfy the "
                f"exchange law, more than the cap of {EXHAUSTIVE_CAP}"
            )
        vectors = [(0,) * self.entries]
        for j in range(nullity):
            gen = self.basis.column(j)
            vectors = [tuple((x + c * g) % p for x, g in zip(v, gen))
                       for v in vectors for c in range(p)]
        codes = []
        for v in vectors:
            code = 0
            for d in reversed(v):
                code = code * p + d
            codes.append(code)
        return sorted(codes)


def _exchange_law(f: PrimeField, ba, ab, exchange) -> _ExchangeLaw:
    """Solve the exchange law once: column k of C is left - right, the
    defect of ``exchange`` on the candidate whose only nonzero entry is a
    1 at entry k.  Both sides are linear in the candidate, so the defect of
    any candidate is C times its entries."""
    p, n = f.p, ba.dim * ab.dim
    crows = {}  # row of C (a flat index of the defect) -> [(k, C[r, k]), ...]
    for k in range(n):
        i, j = divmod(k, ba.dim)
        unit = [()] * ab.dim
        unit[i] = ((j, 1),)
        left, right = exchange(
            FMor(ba, ab, Mat.from_nonzeros(ab.dim, ba.dim, tuple(unit), f)))
        for r, (lrow, rrow) in enumerate(zip(left.nonzeros, right.nonzeros)):
            if lrow == rrow:
                continue
            defect = dict(lrow)
            for col, y in rrow:
                defect[col] = defect.get(col, 0) - y
            for col, x in defect.items():
                if x := x % p:
                    crows.setdefault(r * left.cols + col, []).append((k, x))
    height = left.rows * left.cols
    c = Mat.from_nonzeros(
        height, n, tuple(tuple(crows.get(r, ())) for r in range(height)), f)
    rows = set(c.nonzeros)
    rows.discard(())
    return _ExchangeLaw(f.p, n, c, tuple(
        tuple((p ** k, x) for k, x in row) for row in sorted(rows)))


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

    ``codes`` maps the pair's exchange law to the codes of the candidates
    to inspect, in order; each must satisfy the exchange law, and the
    full axiom check re-verifies it.
    """
    f, ba, ab = _law_space(a, b)
    exchange, accept = _wdl_predicate(a, b)
    idmat = identity_mat(ab.dim, f)
    result = MineResult()
    for code in codes(_exchange_law(f, ba, ab, exchange)):
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
    """All laws among the first ``limit`` codes, or among all codes.

    Without a limit the search walks the solutions of the exchange law and
    raises SearchTooLarge if there are more than EXHAUSTIVE_CAP of them.
    With a limit it walks ``range(limit)`` and skips the codes that fail
    the exchange law; the full space has p**(dim(A)*dim(B))**2 codes.
    """
    def codes(law):
        if limit is None:
            return law.codes()
        return filter(law.holds, range(min(law.space, limit)))

    return _mine(a, b, codes)


def mine_wdl_random(a: MonoidData, b: MonoidData, seed: int, tries: int) -> MineResult:
    """Seeded random search for laws in spaces too large to enumerate."""
    def codes(law):
        rng = random.Random(seed)
        space = law.space
        seen = set()
        for _ in range(tries):
            code = rng.randrange(space)
            if code not in seen:
                seen.add(code)
                if law.holds(code):
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
