"""Acceptance suite: one test (and one pass/fail line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to see one line per
criterion.  The fixture battery is: the flip double over Q and over
GF(3), the quantum-plane triple over GF(5), the skew-group double over
GF(3), and the mined weak-distributive-law triple over GF(2).
"""

import random
import time
from fractions import Fraction

from conftest import (
    FIELDS,
    random_idempotent,
    trivial_extension,
    trivial_quadruple,
)
from weakcp.fields import GF, QQ, PrimeField
from weakcp.fixtures import (
    MonoidPair,
    check_wdl,
    diagonal_algebra,
    flip_fixture,
    quantum_plane_triple,
    skew_group_double,
    triple_setup,
    wdl_triple_from_law,
)
from weakcp.iso import build_iso, check_newit
from weakcp.iterate import build_iterated, check_link, iterated_preunit
from weakcp.kernel import identity_mat, mat_compose, mat_eq, rank
from weakcp.mine import mine_wdl, mined_law
from weakcp.preunit import Preunit, derive_psi_sigma
from weakcp.report import Report
from weakcp.wcp import build_crossed_product, check_derived_identities


def battery():
    """The five named fixtures: (name, setup, nu_v, nu_w)."""
    yield ("flip-Q",) + _fix(flip_fixture(QQ, "flip-Q"))
    yield ("flip-F3",) + _fix(flip_fixture(GF(3), "flip-F3"))
    t = quantum_plane_triple()
    yield ("quantum-plane-F5", triple_setup(t), *t.preunits)
    yield ("skew-group-F3",) + _fix(skew_group_double(GF(3)))
    t = wdl_triple_from_law(*mined_law())
    yield ("mined-wdl-F2", triple_setup(t), *t.preunits)


def _fix(fix):
    return (fix.setup, fix.nu_v, fix.nu_w)


BATTERY = list(battery())


def report_line(n, text):
    print(f"criterion {n}: PASS — {text}")


def test_criterion_1_iterated_quadruples():
    """build_iterated succeeds and the result passes the defining
    conditions exactly, on all five fixtures, in under ten seconds."""
    t0 = time.time()
    for name, s, _, _ in BATTERY:
        qvw, rep = build_iterated(s)
        assert rep.ok, f"{name}: {rep.failed_labels()}"
        assert qvw.twisted.passed is True, name
        assert qvw.cocycle.passed is True, name
        assert qvw.normalized.passed is True, name
    elapsed = time.time() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report_line(1, f"5 fixtures iterated and re-checked in {elapsed:.2f}s")


def test_criterion_2_iterated_preunits():
    """The combined preunit passes its full system and induces the same
    idempotent as the combined entwining, on all five fixtures."""
    for name, s, nu_v, nu_w in BATTERY:
        qvw = s.qvw
        pre, rep = iterated_preunit(s, Preunit(s.qv, nu_v), Preunit(s.qw, nu_w))
        assert rep.ok, f"{name}: {rep.failed_labels()}"
        assert pre.quad is qvw, name
        sys_rep = Report(list(pre.system))
        assert sys_rep.ok, f"{name}: {sys_rep.failed_labels()}"
        assert mat_eq(pre.nabla.mat, qvw.nabla.mat), name
    report_line(2, "combined preunits verified on 5 fixtures")


def test_criterion_3_monoid_isomorphism():
    """The comparison map is an exact two-sided inverse pair and a monoid
    isomorphism between the two ways of iterating, on all five fixtures."""
    for name, s, nu_v, nu_w in BATTERY:
        assert check_newit(s, nu_w).ok, name
        b = build_iso(s, nu_v, nu_w)
        lhs = mat_compose(b.omega.mat, b.omega_inv.mat)
        rhs = mat_compose(b.omega_inv.mat, b.omega.mat)
        assert mat_eq(lhs, identity_mat(b.ucp_vw.cp.obj.dim, s.field)), name
        assert mat_eq(rhs, identity_mat(b.outer.dim, s.field)), name
        assert b.report.ok, name
    report_line(3, "two-stage and one-shot monoids isomorphic on 5 fixtures")


def _oracle_structure_constants(mul_mat, dim, field):
    # read structure constants straight out of the raw entry tuple
    ent = mul_mat.entries
    cols = mul_mat.cols
    return [[[ent[k * cols + (i * dim + j)] for k in range(dim)]
             for j in range(dim)] for i in range(dim)]


def _oracle_check_monoid(mul_mat, unit_entries, dim, field):
    """Naive triple loop over structure constants, independent of the
    matrix pipeline: plain scalar arithmetic only."""
    c = _oracle_structure_constants(mul_mat, dim, field)
    p = field.p if isinstance(field, PrimeField) else None

    def scal_mul(x, y):
        return (x * y) % p if p else x * y

    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                for n in range(dim):
                    lhs = sum(scal_mul(c[i][j][m], c[m][k][n])
                              for m in range(dim))
                    rhs = sum(scal_mul(c[j][k][m], c[i][m][n])
                              for m in range(dim))
                    if p:
                        lhs, rhs = lhs % p, rhs % p
                    assert lhs == rhs, f"assoc fails at ({i},{j},{k},{n})"
    one = Fraction(1) if p is None else 1
    for i in range(dim):
        for k in range(dim):
            left = sum(scal_mul(unit_entries[j], c[j][i][k])
                       for j in range(dim))
            right = sum(scal_mul(unit_entries[j], c[i][j][k])
                        for j in range(dim))
            if p:
                left, right = left % p, right % p
            want = one if i == k else 0
            assert left == want, f"left unit fails at ({i},{k})"
            assert right == want, f"right unit fails at ({i},{k})"


def test_criterion_4_independent_oracle():
    """Associativity and the unit laws of every induced monoid with
    total dimension at most nine are re-proved by a naive structure-
    constant triple loop that never calls the matrix pipeline."""
    checked = 0
    for name, s, nu_v, nu_w in BATTERY:
        big = s.qv.a.dim * s.qv.v.dim * s.qw.v.dim
        if big > 9:
            continue
        b = build_iso(s, nu_v, nu_w)
        for m in (b.ucp_vw.monoid, b.outer, b.ucp_v.monoid):
            _oracle_check_monoid(
                m.mul.mat, list(m.unit.mat.entries), m.dim, s.field
            )
            checked += 1
    assert checked > 0
    report_line(4, f"oracle re-verified {checked} induced monoids")


def test_criterion_5_degenerate_collapses():
    """A trivial second factor leaves the product on A (x) V unchanged;
    two trivial factors leave the product of A unchanged."""
    for name, s, _, _ in BATTERY:
        q = s.qv
        qvw, rep = build_iterated(trivial_extension(q))
        assert rep.ok, name
        assert mat_eq(qvw.product.mat, q.product.mat), name
        a = q.monoid
        qt = trivial_quadruple(a)
        qkk, rep = build_iterated(trivial_extension(qt, "K2"))
        assert rep.ok, name
        assert mat_eq(qkk.product.mat, a.mul.mat), name
    report_line(5, "W=K and V=W=K collapses exact on 5 fixtures")


def test_criterion_6_weakness_exercised():
    """At least one fixture has a strictly rank-deficient idempotent, and
    the exhaustive search terminates well inside its budget."""
    _, s, _, _ = next(x for x in BATTERY if x[0] == "mined-wdl-F2")
    nab = s.qvw.nabla
    assert rank(nab.mat) < nab.dom.dim
    a = diagonal_algebra("S", 2, GF(2))
    b = diagonal_algebra("T", 2, GF(2))
    t0 = time.time()
    result = mine_wdl(a, b)
    elapsed = time.time() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    assert result.nondegenerate > 0
    report_line(6, f"rank {rank(nab.mat)} < {nab.dom.dim}; "
                   f"exhaustive search in {elapsed:.1f}s")


def test_criterion_7_derived_identity_regression():
    """Every proved consequence holds exactly on every fixture, plus the
    weak-law extras on the mined fixture."""
    for name, s, nu_v, nu_w in BATTERY:
        for q in (s.qv, s.qw, s.qvw):
            rep = check_derived_identities(q)
            assert all(i.passed is True for i in rep.items), \
                f"{name}: {[i.label for i in rep.items if not i.passed]}"
            cp = build_crossed_product(q)
            for label in ("otra-prop", "vieja-proof"):
                assert cp.report[label].passed is True, f"{name}: {label}"
        for q, nu in ((s.qv, nu_v), (s.qw, nu_w)):
            system = Report(list(Preunit(q, nu).system))
            assert system["preunit-idemp"].passed is True, name
        assert check_link(s)["falso-idemp-link"].passed is True, name
    a, lam = mined_law()
    wdl_rep = check_wdl(a, a, lam)
    assert wdl_rep["idem=idem"].passed is True
    derived = MonoidPair(a, a).check_wdl_derived(lam)
    for label in ("equ-idem", "new-nabla", "tech2", "tech3"):
        assert derived[label].passed is True, label
    report_line(7, "all derived identities hold on all fixtures")


def test_criterion_8_round_trip():
    """Recovering (psi, sigma) from each fixture's product and preunit
    reproduces the product matrix exactly."""
    count = 0
    for name, s, nu_v, nu_w in BATTERY:
        pairs = [(s.qv, nu_v), (s.qw, nu_w)]
        pre, _ = iterated_preunit(s, Preunit(s.qv, nu_v), Preunit(s.qw, nu_w))
        pairs.append((s.qvw, pre.nu))
        for q, nu in pairs:
            m = q.product
            q2, rep = derive_psi_sigma(q.monoid, q.v, m, nu)
            assert rep.ok, f"{name}: {rep.failed_labels()}"
            assert mat_eq(q2.product.mat, m.mat), name
            count += 1
    report_line(8, f"{count} products recovered exactly")


def test_criterion_9_idempotent_splitting():
    """200 random idempotents split exactly and deterministically."""
    rng = random.Random(99)
    seen = []
    for i in range(200):
        field = FIELDS[i % len(FIELDS)]
        e = random_idempotent(rng, rng.randint(1, 5), field)
        from weakcp.kernel import split_idempotent

        sp = split_idempotent(e)
        assert mat_eq(mat_compose(sp.inj, sp.proj), e)
        assert mat_eq(mat_compose(sp.proj, sp.inj),
                      identity_mat(sp.rank, field))
        seen.append((sp.inj.entries, sp.proj.entries))
    # deterministic: splitting the same matrices again gives identical data
    rng = random.Random(99)
    for i in range(200):
        field = FIELDS[i % len(FIELDS)]
        e = random_idempotent(rng, rng.randint(1, 5), field)
        from weakcp.kernel import split_idempotent

        sp = split_idempotent(e)
        assert (sp.inj.entries, sp.proj.entries) == seen[i]
    report_line(9, "200 random idempotents split exactly and repeatably")
