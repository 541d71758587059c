"""Search for weak distributive laws over small prime fields.

Over a prime field every candidate law lam : B (x) A -> A (x) B is a
matrix with finitely many possible entries.  Entry k (row-major) of
candidate ``code`` is ``(code // p**k) % p``, and every search inspects
codes in a fixed order, so results are reproducible; the counts of the
reference search are frozen below as regression values.

The miner reads the axioms from the same table as ``check-wdl``:
``fixtures.MonoidPair`` of the two monoids, which holds the exchange law
(``check-wdl``'s ``idem=idem``) and DL1 and DL3 under ``check-wdl``'s
labels.  The exchange law
``(A (x) mu_B)(lam(eta_B (x) A) (x) B) = (mu_A (x) B)(A (x) lam(B (x) eta_A))``
is linear in lam.  The miner evaluates both of its sides once on each
elementary candidate (one entry 1, the rest 0).  That gives a constraint
matrix C with C vec(lam) = 0 exactly when lam satisfies the law, built
once per search:

* the exhaustive search (``mine_wdl`` without a limit) works inside the
  p**nullity(C) solutions.  The other two axioms,
  DL1 ``lam (mu_B (x) A) = (A (x) mu_B)(lam (x) B)(B (x) lam)`` and
  DL3 ``lam (B (x) mu_A) = (mu_A (x) B)(A (x) lam)(lam (x) A)``, are
  quadratic in the coordinates x of a solution in the null-space basis;
  they are expanded once, into one polynomial per coordinate of their
  defect, and a depth-first walk fixes x_0, x_1, ... and prunes a branch
  as soon as a polynomial whose variables are all fixed is nonzero.  The
  survivors are sorted by code.  It refuses with SearchTooLarge when the
  walk tries more than EXHAUSTIVE_CAP = 65,536 assignments, or when the
  expansion alone would build more composites than that; it refuses
  before C is built when a lower bound on the nullity, st(st - s - t) at
  dims (s,t), already exceeds 256 (dims (3,8), (4,6), (5,5), ...); the
  messages write p^n, never its digits;
* a search bounded by ``limit`` and the random search walk the same codes
  as a brute-force search would (``range(limit)``; seeded ``randrange``
  without repeats) and drop each code that fails C before any matrix is
  built.  That test is C vec = 0 (mod p), row by row, and it decodes
  only the digits a row reads, ``code // p**k % p`` with the powers
  ``p**k`` computed once per search; the first failing row ends it.

Every code that passes C, or survives the walk, still goes through
``law_from_code`` and the full axiom check, exchange law included
(``MonoidPair.holds``).  The whiskers of the monoid structure that the
axioms compose with (``eta_B (x) A``, ``B (x) eta_A``, ``B (x) mu_A``,
``mu_B (x) A``, ``mu_A (x) B`` and ``A (x) mu_B``) do not depend on the
candidate; the search's one pair builds each of them once, for the
expansion and the full check alike.  The laws are classified by the rank
of the induced idempotent; a law whose idempotent is neither zero nor
the identity yields a genuinely weak crossed product.
On the diagonal algebras the nullity is 8 at dims (2,2) (256 solutions
of 2**16 over GF(2), 6,561 of 3**16 over GF(3)), 18 at (2,3) and 45 at
(3,3).  The walk tries 120 assignments at GF(2) (2,2), 2,486 at GF(2)
(2,3) and 8,610 at GF(3) (2,3); GF(5) (2,3) would need 119,090 and GF(2)
(3,3) 923,798, so both are refused.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass, field as dc_field

from .fdvect import FMor, FObj, MonoidData
from .fields import GF, PrimeField
from .fixtures import MonoidPair, check_yang_baxter, diagonal_algebra
from .kernel import Mat, identity_mat, mat_compose, mat_eq, nullspace, rank

# most assignments the walk of an exhaustive search tries, and most
# composites per axiom its expansion builds
EXHAUSTIVE_CAP = 65536


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
    ba: FObj  # domain of a candidate
    ab: FObj  # codomain of a candidate
    c: Mat  # the constraint matrix
    rows: tuple  # distinct nonzero rows of C, each as ((p**k, C[r, k]), ...)

    @functools.cached_property
    def basis(self) -> Mat:
        """A basis of the solutions (only the exhaustive search needs it)."""
        return nullspace(self.c)

    def code(self, x) -> int:
        """The code of the solution with coordinates x in the basis: its
        entry k is row k of the basis applied to x."""
        p, code = self.p, 0
        for row in reversed(self.basis.nonzeros):
            code = code * p + sum(x[j] * b for j, b in row) % p
        return code

    @property
    def entries(self) -> int:
        """Entries of a candidate."""
        return self.ba.dim * self.ab.dim

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
        number more than EXHAUSTIVE_CAP.  This linear walk, with the full
        predicate on each code, is the reference path that the tests and
        ``scripts/check_miner_oracle.py`` hold ``_walk`` to."""
        p, nullity = self.p, self.basis.cols
        if p ** nullity > EXHAUSTIVE_CAP:
            raise SearchTooLarge(
                f"{p}^{nullity} candidates satisfy the exchange law, more "
                f"than the cap of {EXHAUSTIVE_CAP}"
            )
        return sorted(map(self.code, itertools.product(range(p),
                                                         repeat=nullity)))


def _exchange_law(pair: MonoidPair) -> _ExchangeLaw:
    """Solve the exchange law once: column k of C is left - right, the
    defect of ``pair.exchange`` on the candidate whose only nonzero entry
    is a 1 at entry k.  Both sides are linear in the candidate, so the
    defect of any candidate is C times its entries."""
    f, ba, ab = _law_space(pair.a, pair.b)
    p, n = f.p, ba.dim * ab.dim
    crows = {}  # row of C (a flat index of the defect) -> [(k, C[r, k]), ...]
    for k in range(n):
        i, j = divmod(k, ba.dim)
        unit = [()] * ab.dim
        unit[i] = ((j, 1),)
        left, right = (side.mat for side in pair.exchange(
            FMor(ba, ab, Mat(ab.dim, ba.dim, tuple(unit), f))))
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
    c = Mat(
        height, n, tuple(tuple(crows.get(r, ())) for r in range(height)), f)
    rows = set(c.nonzeros)
    rows.discard(())
    return _ExchangeLaw(f.p, ba, ab, c, tuple(
        tuple((p ** k, x) for k, x in row) for row in sorted(rows)))


def _dl_polynomials(law: _ExchangeLaw, axioms) -> list:
    """DL1 and DL3 as polynomials in the coordinates x of the exchange
    law's solutions, one dict per ``(label, left, q, p)`` of ``axioms``
    (``MonoidPair.products``).

    A solution is lam = sum_i x_i b_i over the basis laws b_i.  The left
    side of an axiom is linear in lam and its right side bilinear, so the
    defect left(lam) - q(lam) o p(lam) is exactly
    sum_i x_i left(b_i) - sum_{i,j} x_i x_j q(b_i) o p(b_j): the 2n
    factors q(b_i) and p(b_j) are built once, then the n**2 composites.
    Each dict maps a flat coordinate of the defect to its polynomial
    {(i, j): c}, the sum of c * y_i * y_j with y_0 = 1, y_k = x_(k-1)
    and 0 <= i <= j, every c nonzero mod p; a coordinate that is zero for
    every x is left out.
    """
    ab, ba, mod = law.ab, law.ba, law.p
    # basis law j is column j of the basis: its row-major entry k, at row
    # k // dim(ba) and column k % dim(ba), is row k of the basis at j
    rows = [[[] for _ in range(ab.dim)] for _ in range(law.basis.cols)]
    for k, row in enumerate(law.basis.nonzeros):
        r, c = divmod(k, ba.dim)
        for j, x in row:
            rows[j][r].append((c, x))
    laws = [FMor(ba, ab, Mat(
        ab.dim, ba.dim, tuple(map(tuple, lam)), law.c.field)) for lam in rows]
    out = []
    for _, left, q, p in axioms:
        polys = {}

        def add(m, term, sign):
            cols = m.cols
            for r, row in enumerate(m.nonzeros):
                for c, v in row:
                    poly = polys.setdefault(r * cols + c, {})
                    poly[term] = poly.get(term, 0) + sign * v

        qs = [q(lam).mat for lam in laws]
        ps = [p(lam).mat for lam in laws]
        for i, lam in enumerate(laws, 1):
            add(left(lam).mat, (0, i), 1)
        for i, qi in enumerate(qs, 1):
            for j, pj in enumerate(ps, 1):
                add(mat_compose(qi, pj), (min(i, j), max(i, j)), -1)
        out.append({r: reduced for r, poly in polys.items()
                    if (reduced := {t: x % mod for t, x in poly.items()
                                    if x % mod})})
    return out


def _expansion_guard(p: int, n: int, at_least: str = ""):
    """SearchTooLarge if expanding DL1 and DL3 over p^n solutions takes
    more than EXHAUSTIVE_CAP composites per axiom."""
    if n * n > EXHAUSTIVE_CAP:
        raise SearchTooLarge(
            f"{at_least}{p}^{n} candidates satisfy the exchange law, and "
            f"expanding DL1 and DL3 over them takes {at_least}{n}^2 = "
            f"{n * n} composites each, more than the cap of {EXHAUSTIVE_CAP}")


def _walk(law: _ExchangeLaw, axioms) -> list:
    """The codes of the exchange law's solutions that satisfy DL1 and DL3,
    ascending.

    The coordinates x_0, x_1, ... of a solution are fixed depth first, in
    basis order, each over 0..p-1, and each polynomial of
    ``_dl_polynomials`` is evaluated as soon as its last variable is
    fixed: a nonzero value prunes the branch.  Every value given to a
    variable is one assignment tried; SearchTooLarge is raised as soon as
    the walk tries more than EXHAUSTIVE_CAP, or up front when the n**2
    composites of the expansion alone would exceed it.

    All polynomials are evaluated at once, packed into one int: the
    polynomial with index q (ordered by last variable) owns the ``width``
    bits from ``q * width``.  The walk carries ``acc``, the packed sums of
    the terms whose variables are all fixed.  Fixing y_k = v adds
    v * (u + v * squares[k]), where u = sum_{i<k} y_i * adds[k][i] is
    computed once per node.  A lane never exceeds its polynomial's
    coefficient sum times (p-1)**2, which is below 2**(width - spare), so
    lanes never carry into each other.  Once y_k is fixed the polynomials
    that end at k, and those before them, fill the low lanes ``low``; they
    are all 0 mod p exactly when p divides ``low`` and no lane of
    ``low // p`` reaches its top ``spare`` bits (p <= 2**spare).
    """
    p, n = law.p, law.basis.cols
    _expansion_guard(p, n)

    def last(poly):
        return max(j for _, j in poly)

    polys = sorted((poly for axiom in _dl_polynomials(law, axioms)
                    for poly in axiom.values()), key=last)
    spare = (p - 1).bit_length()
    width = (max(map(sum, map(dict.values, polys)), default=0)
             * (p - 1) ** 2).bit_length() + spare
    top = ((1 << spare) - 1) << (width - spare)
    adds = [{} for _ in range(n + 1)]
    squares = [0] * (n + 1)
    masks, tops = [0] * (n + 1), [0] * (n + 1)
    for q, poly in enumerate(polys):
        for (i, j), c in poly.items():
            if i == j:
                squares[j] += c << (q * width)
            else:
                adds[j][i] = adds[j].get(i, 0) + (c << (q * width))
        h = last(poly)
        masks[h] = (1 << ((q + 1) * width)) - 1
        tops[h] += top << (q * width)
    for k in range(1, n + 1):
        masks[k] = max(masks[k], masks[k - 1])
        tops[k] += tops[k - 1]

    y = [1] + [0] * n
    found = []
    tries = 0

    def visit(k, acc):
        nonlocal tries
        if k > n:
            found.append(y[1:])
            return
        tries += p
        if tries > EXHAUSTIVE_CAP:
            raise SearchTooLarge(
                f"{p}^{n} candidates satisfy the exchange law, "
                "and the walk over them tried more than the cap of "
                f"{EXHAUSTIVE_CAP} assignments")
        u = 0
        for i, packed in adds[k].items():
            if y[i]:
                u += y[i] * packed
        for v in range(p):
            child = acc + v * (u + v * squares[k])
            low = child & masks[k]
            if low % p == 0 and not low // p & tops[k]:
                y[k] = v
                visit(k + 1, child)

    visit(1, 0)
    return sorted(map(law.code, found))


def law_from_code(a: MonoidData, b: MonoidData, code: int) -> FMor:
    """The candidate law encoded by an integer in the fixed enumeration."""
    f, ba, ab = _law_space(a, b)
    p = f.p
    rows = []
    for _ in range(ab.dim):
        row = []
        for c in range(ba.dim):
            code, x = divmod(code, p)
            if x:
                row.append((c, x))
        rows.append(tuple(row))
    return FMor(ba, ab, Mat(ab.dim, ba.dim, tuple(rows), f))


def _mine(a: MonoidData, b: MonoidData, codes) -> MineResult:
    """Keep and classify the laws among the inspected candidates.

    ``codes`` maps the pair's exchange law and its table of DL1 and DL3
    (``MonoidPair.products``) to the codes of the candidates to inspect,
    in order; each must satisfy the exchange law, and the full axiom
    check ``MonoidPair.holds`` re-verifies it.
    """
    f, _, ab = _law_space(a, b)
    pair = MonoidPair(a, b)
    idmat = identity_mat(ab.dim, f)
    result = MineResult()
    for code in codes(_exchange_law(pair), pair.products):
        lam = law_from_code(a, b, code)
        if not pair.holds(lam):
            continue
        nab = pair.nabla(lam)
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


def _least_nullity(s: int, t: int) -> int:
    """A lower bound on the nullity of C for monoids of dimensions s and
    t: the exchange law reads lam only through lam (eta_B (x) A) and
    lam (B (x) eta_A), so C has rank at most st*s + st*t."""
    st = s * t
    return max(0, st * (st - s - t))


def mine_wdl(a: MonoidData, b: MonoidData, limit: int | None = None) -> MineResult:
    """All laws among the first ``limit`` codes, or among all codes.

    Without a limit the search expands DL1 and DL3 over the solutions of
    the exchange law and walks the expansion (see ``_walk``); it raises
    SearchTooLarge if the walk tries more than EXHAUSTIVE_CAP assignments,
    or, before the law is solved, if ``_least_nullity`` alone puts the
    expansion over that cap.  With a limit it walks ``range(limit)`` and
    skips the codes that fail the exchange law; the full space has
    p**(dim(A)*dim(B))**2 codes.
    """
    if limit is None:
        _expansion_guard(_law_space(a, b)[0].p,
                         _least_nullity(a.dim, b.dim), "at least ")

    def codes(law, axioms):
        if limit is None:
            return _walk(law, axioms)
        return filter(law.holds, range(min(law.space, limit)))

    return _mine(a, b, codes)


def mine_wdl_random(a: MonoidData, b: MonoidData, seed: int, tries: int) -> MineResult:
    """Seeded random search for laws in spaces too large to enumerate."""
    def codes(law, axioms):
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
