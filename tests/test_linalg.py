"""Exact linear algebra kernel: oracles and invariants.

Independent oracles used here: sympy matrices (rank, nullspace, inverse),
hand-solved systems, exhaustive enumeration over GF(5), and literal
Kronecker expansion by definition.
"""

from fractions import Fraction
from itertools import product
from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from coideals.fields import GF, QQ, FieldMismatchError
from coideals.linalg import (
    DimensionMismatchError,
    LinMap,
    Subspace,
    find_section,
    identity_map,
    image_of,
    invert,
    kernel_of,
    map_to_vec,
    matrix_of_operator,
    rank,
    rref,
    solve,
    swap_map,
    vec_to_map,
)

F = Fraction


def to_sympy(m):
    return sympy.Matrix(m.rows, m.cols, lambda r, c: sympy.Rational(m.entry(r, c)))


def qmap(rows):
    return LinMap.from_rows(QQ, [[F(x) for x in r] for r in rows])


# -- canonicalization -------------------------------------------------


def test_canonicalize_collinear_rows_trivial():
    s = Subspace.from_vectors(QQ, 2, [(F(1), F(2)), (F(2), F(4)), (F(0), F(1))])
    assert s.rows == ((F(1), F(0)), (F(0), F(1)))
    assert s.pivots == (0, 1)


def test_canonicalize_rejects_length_mismatch_with_index():
    with pytest.raises(DimensionMismatchError) as err:
        Subspace.from_vectors(QQ, 2, [(F(1), F(0)), (F(1), F(0), F(0))])
    assert "1" in str(err.value)


def test_subspace_equality_is_basis_identity():
    a = Subspace.from_vectors(QQ, 3, [(F(1), F(1), F(0)), (F(0), F(0), F(1))])
    b = Subspace.from_vectors(QQ, 3, [(F(2), F(2), F(5)), (F(0), F(0), F(-1))])
    assert a == b
    c = Subspace.from_vectors(QQ, 3, [(F(1), F(0), F(0))])
    assert a != c


def test_membership_and_coords():
    s = Subspace.from_vectors(QQ, 3, [(F(1), F(0), F(2)), (F(0), F(1), F(3))])
    v = (F(2), F(-1), F(1))
    coords = s.coords(v)
    assert coords == (F(2), F(-1))
    assert not s.contains((F(1), F(0), F(0)))
    assert s.reduce(v) == (F(0), F(0), F(0))


def test_intersection_hand_example():
    # span{(1,0,0),(0,1,0)} meet span{(0,1,0),(0,0,1)} = span{(0,1,0)}
    a = Subspace.from_vectors(QQ, 3, [(F(1), F(0), F(0)), (F(0), F(1), F(0))])
    b = Subspace.from_vectors(QQ, 3, [(F(0), F(1), F(0)), (F(0), F(0), F(1))])
    assert a.intersect(b) == Subspace.from_vectors(QQ, 3, [(F(0), F(1), F(0))])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=0, max_size=4))
def test_canonicalize_idempotent(rows):
    vecs = [tuple(F(x) for x in r) for r in rows]
    s = Subspace.from_vectors(QQ, 3, vecs)
    again = Subspace.from_vectors(QQ, 3, s.rows)
    assert s == again
    for v in vecs:
        assert s.contains(v)


@st.composite
def sparse_rows(draw, entries):
    """A matrix as row lists with at least half of its entries zero."""
    nr, nc = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    cells = [(i, j) for i in range(nr) for j in range(nc)]
    nz = draw(st.lists(st.sampled_from(cells), unique=True,
                       max_size=len(cells) // 2))
    rows = [[0] * nc for _ in range(nr)]
    for i, j in nz:
        rows[i][j] = draw(entries)
    return rows


def sympy_rref(field, rows):
    """Nonzero rows and pivots of sympy's DomainMatrix.rref()."""
    dom = sympy.QQ if field == QQ else sympy.GF(field.p)

    def back(x):
        if field == QQ:
            return F(int(x.numerator), int(x.denominator))
        return int(x) % field.p

    dm = DomainMatrix([[dom(x) for x in r] for r in rows],
                      (len(rows), len(rows[0])), dom)
    red, pivots = dm.rref()
    return ([tuple(back(x) for x in r) for r in red.to_list()[:len(pivots)]],
            tuple(pivots))


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rref_matches_sympy_on_sparse_matrices(field, data):
    # exercises the zero tests and the skipped updates where the pivot row
    # is zero; RREF is unique, so rows and pivots must agree exactly
    if field == QQ:
        entries = st.fractions(-9, 9, max_denominator=4)
    else:
        entries = st.integers(0, field.p - 1)
    rows = data.draw(sparse_rows(entries))
    mat = [[field.parse(str(x)) for x in r] for r in rows]
    ours, pivots = rref(field, mat)
    assert (list(ours), pivots) == sympy_rref(field, rows)


# -- the sparse kernel against sympy -----------------------------------


def _entries(field):
    if field == QQ:
        return st.fractions(-9, 9, max_denominator=4).filter(bool)
    return st.integers(1, field.p - 1)


@st.composite
def tall_sparse_maps(draw, field, square=False):
    """A LinMap with at most a quarter of its cells nonzero, usually taller
    than wide; 0 x n and n x 0 shapes and zero rows and columns occur."""
    nc = draw(st.integers(0, 6))
    nr = nc if square else draw(st.integers(0, 14))
    cells = [(i, j) for i in range(nr) for j in range(nc)]
    nz = draw(st.lists(st.sampled_from(cells), unique=True,
                       max_size=len(cells) // 4)) if cells else []
    vals = _entries(field)
    return LinMap(field, nr, nc,
                  {k: field.parse(str(draw(vals))) for k in nz})


def to_domain(m):
    """m as a sympy DomainMatrix over QQ or GF(p)."""
    field = m.field
    dom = sympy.QQ if field == QQ else sympy.GF(field.p)
    return DomainMatrix([[dom(m.entry(r, c)) for c in range(m.cols)]
                         for r in range(m.rows)], (m.rows, m.cols), dom)


def sympy_span(field, rows, n):
    """Canonical basis and pivots of the span of sympy rows, via sympy."""
    if not rows or n == 0:
        return [], ()
    return sympy_rref(field, rows)


def _plain(field, x):
    return F(int(x.numerator), int(x.denominator)) if field == QQ \
        else int(x) % field.p


FIELDS = [QQ, GF(5), GF(7)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_kernel_rank_and_image_match_sympy_on_tall_sparse_maps(field, data):
    m = data.draw(tall_sparse_maps(field))
    if m.rows and m.cols:
        dm = to_domain(m)
        want_rank = dm.rank()
        null = [[_plain(field, x) for x in r]
                for r in dm.nullspace().to_list()]
    else:
        want_rank = 0
        null = [[int(i == j) for j in range(m.cols)] for i in range(m.cols)]
    assert rank(m) == want_rank
    ker = kernel_of(m)
    assert (list(ker.rows), ker.pivots) == sympy_span(field, null, m.cols)
    img = image_of(m)
    cols = [list(m.column(c)) for c in range(m.cols)]
    assert (list(img.rows), img.pivots) == sympy_span(field, cols, m.rows)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_solve_matches_sympy_on_tall_sparse_maps(field, data):
    m = data.draw(tall_sparse_maps(field))
    vals = _entries(field)
    target = tuple(data.draw(st.one_of(st.just(field.zero), vals.map(
        lambda x: field.parse(str(x))))) for _ in range(m.rows))
    x = solve(m, target)
    if m.rows == 0:
        assert x == (field.zero,) * m.cols
        return
    # the solution with free variables zero is read off the augmented RREF
    aug = [[m.entry(r, c) for c in range(m.cols)] + [target[r]]
           for r in range(m.rows)]
    red, pivots = sympy_span(field, aug, m.cols + 1)
    if m.cols in pivots:
        assert x is None
        return
    want = [field.zero] * m.cols
    for row, p in zip(red, pivots):
        want[p] = row[-1]
    assert x == tuple(want)
    assert m.apply(x) == target


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_invert_matches_sympy_on_sparse_square_maps(field, data):
    # a quarter-filled square map is mostly singular; adding the identity
    # sometimes makes it invertible
    m = data.draw(tall_sparse_maps(field, square=True))
    if data.draw(st.booleans()):
        m = m + identity_map(field, m.rows)
    inv = invert(m)
    if m.rows == 0:
        assert inv == LinMap.zero(field, 0, 0)
        return
    dm = to_domain(m)
    if dm.rank() < m.rows:
        assert inv is None
        return
    want = [[_plain(field, x) for x in r] for r in dm.inv().to_list()]
    assert inv == LinMap.from_rows(field, want)


def test_eliminations_never_densify_their_input(monkeypatch):
    # the six functions take their rows from the sparse entries; only the
    # spec writer still calls dense_rows
    def refuse(self):
        raise AssertionError("dense_rows called")

    monkeypatch.setattr(LinMap, "dense_rows", refuse)
    m = qmap([[1, 2, 0], [0, 0, 0], [2, 4, 1], [0, 0, 3]])
    assert kernel_of(m).rows == ((F(1), F(-1, 2), F(0)),)
    assert rank(m) == 2
    assert image_of(m).dim == 2
    assert m.apply(solve(m, (F(1), F(0), F(3), F(3)))) == \
        (F(1), F(0), F(3), F(3))
    sq = qmap([[2, 1], [7, 4]])
    assert invert(sq) @ sq == identity_map(QQ, 2)
    p = qmap([[1, 0, 2], [0, 1, 5]])
    assert p @ find_section(p, [(identity_map(QQ, 2), identity_map(QQ, 3))]) \
        == identity_map(QQ, 2)


def test_products_store_no_zeros():
    # @ and tensor build their results without the public checks, so their
    # own loops must leave no zero behind
    a = qmap([[1, 1], [2, -2]])
    b = qmap([[1, 0], [-1, 0]])
    assert (a @ b)._d == {(1, 0): F(4)}
    t = qmap([[0, 3], [1, 0]]).tensor(qmap([[2, 0], [0, -1]]))
    assert t.nnz() == 4 and all(t._d.values())
    with pytest.raises(DimensionMismatchError):
        LinMap(QQ, 2, 2, {(2, 0): F(1)})


# -- kernels, images, rank --------------------------------------------


def test_kernel_of_invertible_is_zero_det_oracle():
    m = qmap([[2, 1, 0, 0], [1, 1, 0, 0], [0, 3, 1, 2], [5, 0, 0, 1]])
    det = to_sympy(m).det()
    assert det != 0
    assert kernel_of(m).dim == 0


def test_kernel_hand_solved():
    # x + 2y = 0, so kernel = span{(-2, 1)}; canonical basis scales pivot to 1
    m = qmap([[1, 2]])
    k = kernel_of(m)
    assert k.rows == ((F(1), F(-1, 2)),)
    assert m.apply(k.rows[0]) == (F(0),)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=4, max_size=4), min_size=1, max_size=4))
def test_rank_nullity_and_sympy_rank(rows):
    m = qmap(rows)
    r = rank(m)
    assert r == to_sympy(m).rank()
    assert r + kernel_of(m).dim == m.cols
    assert image_of(m).dim == r


def test_kernel_matches_sympy_nullspace():
    rng = Random(7)
    for _ in range(10):
        rows = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(3)]
        m = qmap(rows)
        ours = kernel_of(m)
        theirs = to_sympy(m).nullspace()
        assert ours.dim == len(theirs)
        for v in theirs:
            vec = tuple(F(sympy.nsimplify(x)) for x in v)
            assert ours.contains(vec)


def test_gf5_kernel_exhaustive_oracle():
    k5 = GF(5)
    m = LinMap.from_rows(k5, [[1, 2, 3], [2, 4, 1]])
    ker = kernel_of(m)
    zero = (0, 0, 0)
    members = [v for v in product(range(5), repeat=3) if m.apply(v) == (0, 0)]
    assert len(members) == 5 ** ker.dim
    for v in members:
        assert ker.contains(v)
    assert ker.contains(zero)


def test_field_mixing_rejected():
    a = qmap([[1]])
    b = LinMap.from_rows(GF(5), [[1]])
    with pytest.raises(FieldMismatchError):
        a @ b


# -- solve / invert ----------------------------------------------------


def test_invert_matches_sympy():
    m = qmap([[2, 1], [7, 4]])
    inv = invert(m)
    oracle = to_sympy(m).inv()
    assert to_sympy(inv) == oracle
    assert invert(qmap([[1, 2], [2, 4]])) is None


def test_solve_particular_solution():
    m = qmap([[1, 1, 0], [0, 1, 1]])
    x = solve(m, (F(3), F(5)))
    assert m.apply(x) == (F(3), F(5))
    assert solve(qmap([[1, 1], [1, 1]]), (F(0), F(1))) is None


# -- tensor -----------------------------------------------------------


def test_kronecker_by_definition():
    f = qmap([[1, 2], [3, 4]])
    g = qmap([[0, 5], [6, 7]])
    t = f.tensor(g)
    # literal expansion: t[(i*2+i2, j*2+j2)] = f[i,j] * g[i2,j2]
    for i in range(2):
        for j in range(2):
            for i2 in range(2):
                for j2 in range(2):
                    assert t.entry(i * 2 + i2, j * 2 + j2) == f.entry(i, j) * g.entry(i2, j2)


def test_tensor_mixed_product_property():
    f = qmap([[1, 2], [0, 1]])
    f2 = qmap([[1, 1], [2, 0]])
    g = qmap([[3, 0], [1, 1]])
    g2 = qmap([[0, 1], [1, 0]])
    assert (f @ f2).tensor(g @ g2) == (f.tensor(g)) @ (f2.tensor(g2))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
       st.lists(st.integers(-4, 4), min_size=4, max_size=4),
       st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_tensor_flattening_associative_on_the_nose(a, b, c):
    f = qmap([a[:2], a[2:]])
    g = qmap([b[:2], b[2:]])
    h = qmap([c[:2], c[2:]])
    assert f.tensor(g).tensor(h) == f.tensor(g.tensor(h))


def test_tensor_bilinear():
    f, f2 = qmap([[1, 2], [3, 4]]), qmap([[0, 1], [1, 1]])
    g = qmap([[2, 0], [0, 2]])
    assert (f + f2).tensor(g) == f.tensor(g) + f2.tensor(g)


def test_swap_map_involution_and_action():
    s = swap_map(QQ, 2, 3)
    s_back = swap_map(QQ, 3, 2)
    assert s_back @ s == identity_map(QQ, 6)
    # e_1 (x) e_2 of k^2 (x) k^3 sits at 1*3+2 = 5; image e_2 (x) e_1 at 2*2+1 = 5
    v = [F(0)] * 6
    v[1 * 3 + 2] = F(1)
    out = s.apply(tuple(v))
    assert out[2 * 2 + 1] == F(1) and sum(x != 0 for x in out) == 1


# -- sections ---------------------------------------------------------


def test_find_section_plain_surjection():
    p = qmap([[1, 0, 2], [0, 1, 5]])
    s = find_section(p)
    assert s is not None
    assert p @ s == identity_map(QQ, 2)


def test_find_section_none_for_nonsurjective():
    p = qmap([[1, 1], [2, 2]])
    assert find_section(p) is None


def test_find_section_nonprojective_module_infeasible():
    # A = k[t]/(t^2) with basis {1, t}; the quotient A -> A/(t) = k has no
    # A-linear splitting.  p = counit row, constraint: s o (t-action on k)
    # = (right mult by t) o s, i.e. R_t o s = 0.
    p = qmap([[1, 0]])
    u = qmap([[0]])            # t acts by 0 on the quotient
    r_t = qmap([[0, 0], [1, 0]])  # right multiplication by t on A
    assert find_section(p, [(u, r_t)]) is None
    # oracle: the one-parameter family of linear sections s = (1, b) all fail
    b = sympy.symbols("b")
    s_sym = sympy.Matrix([[1], [b]])
    residual = sympy.Matrix([[0, 0], [1, 0]]) * s_sym
    assert sympy.solve([sympy.Eq(residual[0], 0), sympy.Eq(residual[1], 0)], b) == []


def test_find_section_with_satisfiable_constraint():
    # p: k^2 -> k^1, constraint forces s into the first coordinate
    p = qmap([[1, 1]])
    u = qmap([[1]])
    v = qmap([[1, 0], [0, 0]])
    s = find_section(p, [(u, v)])
    assert s is not None
    assert p @ s == identity_map(QQ, 1)
    assert v @ s == s  # s o u = s here


# -- sparse/dense agreement -------------------------------------------


def test_sparse_dense_paths_agree():
    dense_rows = [[F(i + j + 1) for j in range(4)] for i in range(4)]
    m = LinMap.from_rows(QQ, dense_rows)
    half_a = LinMap.from_entries(QQ, 4, 4,
                                 [(i, j, dense_rows[i][j]) for i in range(4) for j in range(2)])
    half_b = LinMap.from_entries(QQ, 4, 4,
                                 [(i, j, dense_rows[i][j]) for i in range(4) for j in range(2, 4)])
    assert half_a + half_b == m
    x = qmap([[1, 0], [0, 1], [1, 1], [2, 3]])
    assert (half_a @ x) + (half_b @ x) == m @ x
    assert half_a.transpose() + half_b.transpose() == m.transpose()
    assert kernel_of(m) == kernel_of(half_a + half_b)
    assert list(m.entries()) == list((half_a + half_b).entries())


def test_no_stored_zeros_and_duplicate_rejection():
    m = LinMap.from_entries(QQ, 2, 2, [(0, 0, F(0)), (1, 1, F(3))])
    assert m.nnz() == 1
    with pytest.raises(ValueError):
        LinMap.from_entries(QQ, 2, 2, [(0, 0, F(1)), (0, 0, F(2))])


# -- map-space utilities ----------------------------------------------


def test_map_vec_roundtrip():
    m = qmap([[1, 2, 3], [4, 5, 6]])
    assert vec_to_map(QQ, 2, 3, map_to_vec(m)) == m


def test_matrix_of_operator_postcompose():
    a = qmap([[2, 0], [1, 1]])
    op = matrix_of_operator(QQ, (2, 2), (2, 2), lambda f: a @ f)
    f = qmap([[1, 2], [3, 4]])
    assert op.apply(map_to_vec(f)) == map_to_vec(a @ f)

