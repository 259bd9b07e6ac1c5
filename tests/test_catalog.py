"""Construction-level tests for the instance catalog: group tables, coset
subspaces, and the frozen structure constants of the small Hopf algebras."""

from fractions import Fraction as Fr

import pytest

from coideals.catalog import (
    FiniteGroupTable,
    coset_function_subspace,
    cyclic_group,
    function_algebra,
    group_algebra,
    sweedler4,
    symmetric_group_3,
    taft,
)
from coideals.fields import GF, QQ


def test_group_table_validation():
    with pytest.raises(ValueError):
        FiniteGroupTable(["e", "a"], [[0, 1], [1, 1]])  # not a latin square
    with pytest.raises(ValueError):
        FiniteGroupTable(["e", "a"], [[1, 0], [0, 0]])  # no identity works
    with pytest.raises(ValueError):
        FiniteGroupTable(["e"], [[3]])  # entry out of range


def test_cyclic_group_structure():
    g = cyclic_group(4)
    assert g.order == 4 and g.identity == 0
    assert g.inverse == (0, 3, 2, 1)
    assert g.labels == ("e", "g", "g2", "g3")


def test_symmetric_group_3_structure():
    g = symmetric_group_3()
    assert g.order == 6
    assert any(g.mul(i, j) != g.mul(j, i) for i in range(6) for j in range(6))
    r, s = g.labels.index("r"), g.labels.index("s")
    assert g.mul(r, g.mul(r, r)) == g.identity
    assert g.mul(s, s) == g.identity


def test_subgroup_and_cosets():
    g = symmetric_group_3()
    e, r, r2, s = (g.labels.index(x) for x in ("e", "r", "r2", "s"))
    assert g.is_subgroup({e, s})
    assert not g.is_subgroup({e, r})  # r*r = r2 escapes
    assert g.is_subgroup({e, r, r2})
    cosets = g.right_cosets({e, s})
    assert len(cosets) == 3 and all(len(c) == 2 for c in cosets)
    assert sorted(i for c in cosets for i in c) == list(range(6))


def test_coset_function_subspace_dimensions():
    g = symmetric_group_3()
    e, r, r2, s = (g.labels.index(x) for x in ("e", "r", "r2", "s"))
    assert coset_function_subspace(QQ, g, {e, s}).dim == 3
    assert coset_function_subspace(QQ, g, {e, r, r2}).dim == 2
    with pytest.raises(ValueError):
        coset_function_subspace(QQ, g, {e, r})


def test_group_algebra_units():
    g = symmetric_group_3()
    kg = group_algebra(QQ, g)
    assert kg.unit_vector() == (Fr(1), 0, 0, 0, 0, 0)
    kf = function_algebra(QQ, g)
    assert kf.unit_vector() == tuple([Fr(1)] * 6)  # constant function one


def test_sweedler_frozen_structure_table():
    """Multiplication, comultiplication and antipode pinned entry by entry
    from the defining relations: g*g = 1, x*x = 0, x*g = -g*x,
    Delta(x) = x (x) 1 + g (x) x, S(x) = -g*x."""
    h = sweedler4()
    assert h.labels == ("1", "x", "g", "gx")
    one, x, g, gx = range(4)

    def prod(i, j):
        return h.mult.column(i * 4 + j)

    def vec(**kw):
        v = [Fr(0)] * 4
        names = {"one": 0, "x": 1, "g": 2, "gx": 3}
        for k, c in kw.items():
            v[names[k]] = Fr(c)
        return tuple(v)

    assert prod(g, g) == vec(one=1)
    assert prod(x, x) == vec()
    assert prod(g, x) == vec(gx=1)
    assert prod(x, g) == vec(gx=-1)
    assert prod(gx, g) == vec(x=-1)
    assert prod(gx, gx) == vec()
    # Delta(x): x (x) 1 at flat (1,0) -> 4, g (x) x at flat (2,1) -> 9
    dx = h.comult.column(x)
    assert [i for i, c in enumerate(dx) if c != 0] == [4, 9]
    assert dx[4] == 1 and dx[9] == 1
    # Delta(gx) = gx (x) g + 1 (x) gx: flats (3,2) -> 14 and (0,3) -> 3
    dgx = h.comult.column(gx)
    assert [i for i, c in enumerate(dgx) if c != 0] == [3, 14]
    assert h.antipode.column(x) == vec(gx=-1)
    assert h.antipode.column(gx) == vec(x=1)
    assert h.counit.entry(0, one) == 1 and h.counit.entry(0, g) == 1
    assert h.counit.entry(0, x) == 0


def test_taft3_commutation_and_nilpotence():
    f7 = GF(7)
    h = taft(3, f7)
    # smallest primitive cube root of 1 mod 7 is 2
    x_idx, g_idx = 1, 3
    xg = h.mult.column(x_idx * 9 + g_idx)
    assert xg[g_idx * 0 + 4] == 2  # x*g = 2 g*x, and gx sits at index 4
    assert all(c == 0 for i, c in enumerate(xg) if i != 4)
    # x^3 = 0: x * x2 has exponent overflow
    assert h.mult.column(1 * 9 + 2) == tuple([0] * 9)
    assert h.name.startswith("taft(3)")


def test_taft_argument_validation():
    with pytest.raises(ValueError):
        taft(3, QQ)  # no primitive cube root in the rationals
    with pytest.raises(ValueError):
        taft(2, GF(5), GF(5).from_int(1))  # not primitive
    with pytest.raises(ValueError):
        taft(1, QQ)
