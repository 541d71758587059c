"""Tensor words, morphisms and monoids."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIELDS, from_rows, mor, random_mat
from weakcp.fdvect import (
    FMor,
    FObj,
    MonoidData,
    UNIT,
    algebra,
    check_equal,
    check_equal_all,
    check_monoid,
    compose,
    flatten_index,
    identity,
    mor_from_map,
    swap,
    tensor,
    vobj,
)
from weakcp.fields import QQ
from weakcp.fixtures import (
    cyclic_group_algebra,
    diagonal_algebra,
    truncated_polynomial_algebra,
)
from weakcp.kernel import ShapeError, mat_eq


def test_obj_dims_and_unit():
    v, w = vobj("V", 2), vobj("W", 3)
    assert (v @ w).dim == 6
    assert (v @ w).dims == (2, 3)
    assert UNIT.dim == 1
    assert (v @ UNIT @ w).dims == (2, 3)
    assert (UNIT @ v).factors == v.factors


def test_vobj_accepts_zero_rejects_negative():
    # the zero space is the split image of a zero idempotent
    assert vobj("V", 0).dim == 0
    with pytest.raises(ValueError):
        vobj("V", -1)


def test_flatten_index_row_major():
    assert flatten_index((2, 3), (1, 2)) == 5
    assert flatten_index((), ()) == 0
    with pytest.raises(ValueError):
        flatten_index((2, 3), (2, 0))


def test_mor_shape_checked():
    v = vobj("V", 2)
    with pytest.raises(ShapeError):
        mor(v, v, [[1, 0, 0], [0, 1, 0]], QQ)


def test_compose_junction_error_names_shapes():
    v, w = vobj("V", 2), vobj("W", 3)
    f = identity(v, QQ)
    g = identity(w, QQ)
    with pytest.raises(ShapeError) as exc:
        compose(f, g)
    assert "2" in str(exc.value) and "3" in str(exc.value)


def test_mor_from_map_matches_mor():
    v = vobj("V", 2)
    f = mor_from_map(v, v, lambda m: {(1 - m[0],): 1}, QQ)
    g = mor(v, v, [[0, 1], [1, 0]], QQ)
    assert mat_eq(f.mat, g.mat)


def _word(name, dims):
    return FObj(tuple((f"{name}{i}", d) for i, d in enumerate(dims)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mor_from_map_matches_dense_reference(data):
    # random basis actions, zero coefficients included, between words of
    # zero to three factors, against the dense column-by-column reference
    field = data.draw(st.sampled_from(FIELDS))
    words = st.lists(st.integers(1, 3), max_size=3)
    dom, cod = _word("X", data.draw(words)), _word("Y", data.draw(words))
    targets = list(itertools.product(*map(range, cod.dims)))
    coeff = st.sampled_from((0, 0, 1, 2, -1, 7))
    action = {
        source: data.draw(st.dictionaries(
            st.integers(0, cod.dim - 1), coeff, max_size=3))
        for source in itertools.product(*map(range, dom.dims))
    }
    f = mor_from_map(dom, cod,
                     lambda m: {targets[k]: c for k, c in action[m].items()},
                     field)
    columns = [[action[m].get(k, 0) for k in range(cod.dim)] for m in action]
    dense = from_rows([list(row) for row in zip(*columns)], field)
    assert (f.dom, f.cod) == (dom, cod)
    assert mat_eq(f.mat, dense)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n", range(1, 6))
def test_builders_match_dense_references(field, n):
    # each product e_i e_j is one basis vector or zero: product(i, j) is
    # its index, or None
    references = (
        (diagonal_algebra, lambda i, j: i if i == j else None, [1] * n),
        (truncated_polynomial_algebra,
         lambda i, j: i + j if i + j < n else None, [1] + [0] * (n - 1)),
        (cyclic_group_algebra, lambda i, j: (i + j) % n, [1] + [0] * (n - 1)),
    )
    for build, product, unit in references:
        m = build("M", n, field)
        assert mat_eq(m.mul.mat, from_rows(
            [[int(product(i, j) == k) for i in range(n) for j in range(n)]
             for k in range(n)], field))
        assert mat_eq(m.unit.mat, from_rows([[x] for x in unit], field))
    for dy in range(1, 6):
        # row (j, i) of the flip is 1 at column (i, j)
        dense = [[int(divmod(c, dy) == (r % n, r // n)) for c in range(n * dy)]
                 for r in range(n * dy)]
        assert mat_eq(swap(vobj("X", n), vobj("Y", dy), field).mat,
                      from_rows(dense, field))


def test_swap_involution_and_naturality():
    rng = random.Random(3)
    for field in FIELDS:
        x, y = vobj("X", 2), vobj("Y", 3)
        s = swap(x, y, field)
        s_back = swap(y, x, field)
        assert mat_eq(compose(s_back, s).mat, identity(x @ y, field).mat)
        f = FMor(x, x, random_mat(rng, 2, 2, field))
        g = FMor(y, y, random_mat(rng, 3, 3, field))
        assert mat_eq(compose(s, tensor(f, g)).mat, compose(tensor(g, f), s).mat)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_tensor_associative_on_morphisms(data):
    field = data.draw(st.sampled_from(FIELDS))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    ms = []
    for name in "XYZ":
        r, c = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        ms.append(FMor(vobj(name, c), vobj(name + "'", r),
                       random_mat(rng, r, c, field)))
    lhs = tensor(tensor(ms[0], ms[1]), ms[2])
    rhs = tensor(ms[0], tensor(ms[1], ms[2]))
    assert mat_eq(lhs.mat, rhs.mat)


def test_check_equal_witness_coordinates():
    v = vobj("V", 2)
    f = mor(v @ v, v, [[1, 0, 0, 0], [0, 0, 0, 1]], QQ)
    g = mor(v @ v, v, [[1, 0, 0, 0], [0, 0, 1, 1]], QQ)
    item = check_equal("demo", f, g)
    assert item.passed is False
    assert item.witness.basis_index == (1, 0)
    assert item.witness.coordinate == (1,)
    assert item.witness.lhs == "0" and item.witness.rhs == "1"


def test_check_equal_all_outcomes():
    v = vobj("V", 2)
    f = mor(v @ v, v, [[1, 0, 0, 0], [0, 0, 0, 1]], QQ)
    g = mor(v @ v, v, [[1, 0, 0, 0], [0, 0, 1, 1]], QQ)
    # the first comparison fails: its note and witness are kept
    item = check_equal_all("demo", (f, g, "first"), (f, f, "second"))
    assert item == check_equal("demo", f, g, note="first")
    assert item.witness.basis_index == (1, 0)
    # only the second comparison fails
    item = check_equal_all("demo", (f, f, "first"), (g, f, "second"))
    assert item == check_equal("demo", g, f, note="second")
    assert item.passed is False and item.witness.lhs == "1"
    # both pass: one item with no note
    item = check_equal_all("demo", (f, f, "first"), (g, g, "second"))
    assert (item.passed, item.note, item.witness) == (True, "", None)


def test_check_equal_shape_mismatch_raises():
    v, w = vobj("V", 2), vobj("W", 3)
    with pytest.raises(ShapeError):
        check_equal("demo", identity(v, QQ), identity(w, QQ))


def test_monoid_checks_pass_on_group_algebra():
    for field in FIELDS:
        m = cyclic_group_algebra("C4", 4, field)
        assert check_monoid(m).ok


def test_monoid_checks_fail_on_broken_structure():
    # "multiplication" that is not associative
    table = {(0, 0): {1: 1}, (0, 1): {0: 1}, (1, 0): {0: 1}, (1, 1): {0: 1}}
    bad = algebra("B", 2, lambda i, j: table[i, j], {0: 1}, QQ)
    rep = check_monoid(bad)
    assert not rep.ok
    assert rep["assoc"].passed is False
    assert rep["assoc"].witness is not None

