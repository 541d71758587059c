"""Honest law triples through the weak construction.

Every ``LawTriple`` is built by the weak construction: the quadruples of
``quadruple_from_wdl``, the link nabla of (B, C, l2), the preunits
nabla o (eta (x) eta) and the weak closed forms.  On honest laws DL4
makes nabla = id and sigma = eta (x) mu, so these must be exactly the
matrices of the honest construction, which is kept here as the
reference: sigma = eta (x) mu, the link id, the preunits eta (x) eta and
the honest closed forms of the iterated structure.  ``weak=False`` is a
checked declaration.
"""

import pytest

from weakcp.fdvect import compose, identity, swap, tensor
from weakcp.fields import GF, QQ
from weakcp.fixtures import (
    LawTriple,
    check_triple_formulas,
    diagonal_algebra,
    q_twist,
    triple_setup,
    truncated_polynomial_algebra,
)
from weakcp.iterate import iterated_preunit
from weakcp.mine import REFERENCE_CODE, law_from_code
from weakcp.preunit import Preunit


def _twist_triple(field, q, dims):
    a, b, c = (truncated_polynomial_algebra(n, d, field)
               for n, d in zip("ABC", dims))
    return LawTriple(a, b, c, l1=q_twist(b, a, q), l2=q_twist(c, b, q),
                     l3=q_twist(c, a, q), weak=False)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3)])
@pytest.mark.parametrize("q", [2, 3, -2])
@pytest.mark.parametrize("field", [GF(5), GF(3), QQ], ids=repr)
def test_honest_triple_gives_the_honest_matrices(field, q, dims):
    t = _twist_triple(field, q, dims)
    a, b, c = t.a, t.b, t.c
    ida, idb, idc = a.id, b.id, c.id
    s = triple_setup(t)
    # the quadruple of an honest law: psi = lam, sigma = eta (x) mu
    for quad, inner, lam in ((s.qv, b, t.l1), (s.qw, c, t.l3)):
        assert quad.psi.mat == lam.mat
        assert quad.sigma.mat == tensor(a.unit, inner.mul).mat
    # the link is the identity and the twisting l2
    assert s.delta.mat == identity(b.obj @ c.obj, field).mat
    assert s.tau.mat == t.l2.mat
    # the preunits eta (x) eta
    nu_v, nu_w = t.preunits
    assert nu_v.mat == tensor(a.unit, b.unit).mat
    assert nu_w.mat == tensor(a.unit, c.unit).mat
    # the honest closed forms of the combined psi, sigma, product, preunit
    qvw = s.qvw
    assert qvw.psi.mat == compose(tensor(t.l1, idc), tensor(idb, t.l3)).mat
    assert qvw.sigma.mat == compose(
        tensor(a.unit, b.mul, c.mul),
        tensor(idb, t.l2, idc),
    ).mat
    assert qvw.product.mat == compose(
        tensor(a.mul, b.mul, c.mul),
        tensor(ida, compose(
            tensor(t.l1, t.l2),
            tensor(idb, t.l3, idb),
        ), idc),
    ).mat
    pre, _ = iterated_preunit(s, Preunit(s.qv, nu_v), Preunit(s.qw, nu_w))
    assert pre.nu.mat == tensor(a.unit, b.unit, c.unit).mat
    # ... and the weak closed forms agree with them
    rep = check_triple_formulas(t)
    assert rep.ok, rep.render()


def _reference_law():
    """diag(2) over GF(2) and the frozen law REFERENCE_CODE on it, whose
    nabla has rank 3 of 4."""
    a = diagonal_algebra("S", 2, GF(2))
    return a, law_from_code(a, a, REFERENCE_CODE)


def test_weak_law_declared_honest_is_refused():
    a, lam = _reference_law()
    with pytest.raises(ValueError, match=r"l1 on \(S, S\) has nabla != id"):
        LawTriple(a, a, a, l1=lam, l2=lam, l3=lam, weak=False)


def test_the_refusal_names_the_weak_law():
    # the flip is an honest law on the commutative diag(2); only l2 is weak
    a, lam = _reference_law()
    flip = swap(a.obj, a.obj, GF(2))
    with pytest.raises(ValueError, match=r"l2 on \(S, S\)"):
        LawTriple(a, a, a, l1=flip, l2=lam, l3=flip, weak=False)
    LawTriple(a, a, a, l1=flip, l2=flip, l3=flip, weak=False)


def test_weak_law_builds_when_declared_weak():
    a, lam = _reference_law()
    t = LawTriple(a, a, a, l1=lam, l2=lam, l3=lam, weak=True)
    s = triple_setup(t)
    assert s.delta.mat != identity(a.obj @ a.obj, GF(2)).mat
    assert check_triple_formulas(t).ok
