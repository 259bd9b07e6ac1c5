"""Exact linear algebra kernel: oracles and invariants.

Independent oracles used here: sympy matrices (rank, nullspace, inverse),
hand-solved systems, exhaustive enumeration over GF(5), and literal
Kronecker expansion by definition.
"""

import re
from fractions import Fraction
from itertools import product
from math import prod
from random import Random

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from coideals import linalg
from coideals.catalog import (
    canonical_pairing,
    coevaluation_pairing,
    cyclic_group,
    evaluation_pairing,
    function_algebra,
    group_algebra,
    subgroup_data,
    sweedler4,
    symmetric_group_3,
    taft,
)
from coideals.certs import CertReport
from coideals.correspondence import (
    quotient_coaction,
    quotient_module_coalgebra,
    verify_coideal_subalgebra,
)
from coideals.fields import GF, QQ, FieldMismatchError
from coideals.linalg import (
    DimensionMismatchError,
    LinMap,
    Subspace,
    after_leg,
    basis_vector,
    find_section,
    identity_map,
    image_of,
    invert,
    kernel_of,
    on_leg,
    on_leg_operator,
    placed,
    rank,
    regroup,
    rref,
    solve,
    stack_maps,
)
from coideals.hopf import PairingData, check_pairing, dual_algebra, hit_action
from coideals.monadics import _module_to_hom_operator, gamma_isomorphism, internal_hom
from coideals.morita import (
    _transported_left_coaction,
    coend,
    coend_pre_equivalence,
    dual_comodule,
)
from coideals.repcats import (
    ComoduleData,
    ModuleData,
    _as_right_comodule,
    _as_right_module,
    _colinearity_defect,
    _colinearity_operator,
    _intertwining_relations,
    comodule_on_subspace,
    hom_colinear,
    matrix_algebra,
    matrix_algebra_closure,
    module_on_subspace,
    radical_and_simples,
    regular_comodule,
    regular_comodule_of,
    regular_module,
    restrict_algebra,
    restrict_module,
    restricted_comultiplication,
    simple_comodules,
    trivial_comodule,
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


def test_membership_checks_the_vector_length():
    # a long vector used to read as a member of the full space, a short one
    # as a member of the zero space, and a short one of a line raised
    # IndexError
    with pytest.raises(DimensionMismatchError):
        Subspace.full(QQ, 2).contains((F(1), F(0), F(0)))
    with pytest.raises(DimensionMismatchError):
        Subspace.zero(QQ, 3).contains((F(0), F(0)))
    line = Subspace.from_vectors(QQ, 3, [(F(0), F(0), F(1))])
    for short in [(F(0),), (F(0), F(1))]:
        with pytest.raises(DimensionMismatchError):
            line.coords(short)
        with pytest.raises(DimensionMismatchError):
            line.reduce(short)


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


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@seed(20261018)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_factor_agrees_with_coords_column_by_column(field, data):
    # oracle: Subspace.coords on each column on its own; the columns are
    # members, members with exactly one pushed off the subspace along a
    # non-pivot coordinate, or arbitrary vectors
    scalar = st.one_of(st.just(0), _entries(field))

    def vector(k):
        return st.lists(scalar, min_size=k, max_size=k).map(
            lambda xs: tuple(field.parse(str(x)) for x in xs))

    n = data.draw(st.integers(1, 6))
    s = Subspace.from_vectors(field, n, data.draw(st.lists(vector(n), max_size=4)))
    k = data.draw(st.integers(0, 5))
    kind = data.draw(st.sampled_from(["members", "one outside", "arbitrary"]))
    if kind == "arbitrary":
        cols = data.draw(st.lists(vector(n), min_size=k, max_size=k))
    else:
        cols = [s.basis_map().apply(c) for c in
                data.draw(st.lists(vector(s.dim), min_size=k, max_size=k))]
    free = [j for j in range(n) if j not in s.pivots]
    if kind == "one outside" and cols and free:
        i, j = data.draw(st.integers(0, k - 1)), data.draw(st.sampled_from(free))
        cols[i] = tuple(field.add(x, field.one) if r == j else x
                        for r, x in enumerate(cols[i]))
    m = LinMap(field, n, k, {(r, c): x for c, col in enumerate(cols)
                             for r, x in enumerate(col)})
    x, lands = s.factor(m)
    coords = [s.coords(col) for col in cols]
    assert lands == all(c is not None for c in coords)
    if kind == "one outside" and cols and free:
        assert coords.count(None) == 1 and not lands
    for c, want in enumerate(coords):
        if want is not None:
            assert x.column(c) == want
    assert (x.rows, x.cols) == (s.dim, k)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@seed(20261020)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_factor_on_a_leg_matches_the_leg_span(field, data):
    # oracle: k^a (x) S (x) k^b built as image_of the basis placed on an
    # identity, membership of each column in it, and the one solution of
    # the placed basis against each member column, unique since the
    # placed basis has zero kernel; the columns are members, members with
    # one pushed off S on a middle leg coordinate, or arbitrary vectors
    scalar = st.one_of(st.just(0), _entries(field))

    def vector(k):
        return st.lists(scalar, min_size=k, max_size=k).map(
            lambda xs: tuple(field.parse(str(x)) for x in xs))

    a, b = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    s = Subspace.from_vectors(field, n, data.draw(st.lists(vector(n), max_size=3)))
    placed = on_leg(a, s.basis_map(), b, identity_map(field, a * s.dim * b))
    span = image_of(placed)
    assert kernel_of(placed).dim == 0
    k = data.draw(st.integers(0, 4))
    kind = data.draw(st.sampled_from(["members", "one outside", "arbitrary"]))
    if kind == "arbitrary":
        cols = data.draw(st.lists(vector(a * n * b), min_size=k, max_size=k))
    else:
        cols = [placed.apply(c) for c in data.draw(
            st.lists(vector(a * s.dim * b), min_size=k, max_size=k))]
    free = [j for j in range(n) if j not in s.pivots]
    pushed = kind == "one outside" and cols and free
    if pushed:
        c = data.draw(st.integers(0, k - 1))
        i, l = data.draw(st.integers(0, a - 1)), data.draw(st.integers(0, b - 1))
        r = (i * n + data.draw(st.sampled_from(free))) * b + l
        cols[c] = tuple(field.add(x, field.one) if j == r else x
                        for j, x in enumerate(cols[c]))
    m = LinMap(field, a * n * b, k, {(r, c): x for c, col in enumerate(cols)
                                     for r, x in enumerate(col)})
    x, lands = s.factor(m, a, b)
    assert (x.rows, x.cols) == (a * s.dim * b, k)
    members = [span.contains(col) for col in cols]
    assert lands == all(members)
    if pushed:
        assert members.count(False) == 1
    if lands:
        assert on_leg(a, s.basis_map(), b, x) == m
        for c, col in enumerate(cols):
            assert x.column(c) == solve(placed, col)
    with pytest.raises(DimensionMismatchError):
        s.factor(LinMap.zero(field, a * n * b + 1, k), a, b)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@seed(20261019)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sum_and_intersection_match_sympy(field, data):
    # oracle: sympy's RREF of the stacked rows for U + W, and sympy ranks
    # for the dimension formula and for membership of U meet W's basis
    scalar = st.one_of(st.just(0), _entries(field))
    n = data.draw(st.integers(1, 6))
    vectors = st.lists(st.lists(scalar, min_size=n, max_size=n).map(
        lambda xs: [field.parse(str(x)) for x in xs]), max_size=4)
    urows, wrows = data.draw(vectors), data.draw(vectors)
    u = Subspace.from_vectors(field, n, urows)
    w = Subspace.from_vectors(field, n, wrows)

    def rank_of(rows):
        return len(sympy_span(field, rows, n)[1])

    total = u.sum_with(w)
    assert (list(total.rows), total.pivots) == sympy_span(field, urows + wrows, n)
    meet = u.intersect(w)
    assert meet.dim == rank_of(urows) + rank_of(wrows) - rank_of(urows + wrows)
    for r in meet.rows:
        for rows in (urows, wrows):
            assert rank_of(rows + [list(r)]) == rank_of(rows)


def test_eliminations_never_densify_their_input(monkeypatch):
    # a Subspace keeps the sparse basis the kernel returns, so only rref
    # and the rows view expand rows to dense tuples
    def refuse(*args):
        raise AssertionError("_dense called")

    monkeypatch.setattr(linalg, "_dense", refuse)
    m = qmap([[1, 2, 0], [0, 0, 0], [2, 4, 1], [0, 0, 3]])
    ker = kernel_of(m)
    assert ker == Subspace.from_vectors(QQ, 3, [(F(2), F(-1), F(0))])
    assert rank(m) == 2
    img = image_of(m)
    assert img.dim == 2 and img.contains((F(1), F(0), F(2), F(0)))
    assert m.apply(solve(m, (F(1), F(0), F(3), F(3)))) == \
        (F(1), F(0), F(3), F(3))
    sq = qmap([[2, 1], [7, 4]])
    assert invert(sq) @ sq == identity_map(QQ, 2)
    p = qmap([[1, 0, 2], [0, 1, 5]])
    assert p @ find_section(p, [(identity_map(QQ, 2), identity_map(QQ, 3))]) \
        == identity_map(QQ, 2)
    u = Subspace.from_vectors(QQ, 3, [(F(1), F(1), F(0)), (F(0), F(0), F(1))])
    w = Subspace.from_vectors(QQ, 3, [(F(0), F(1), F(1))])
    assert u.sum_with(w) == Subspace.full(QQ, 3)
    assert u.intersect(w) == Subspace.zero(QQ, 3)
    assert u.intersect(ker.sum_with(w)).dim == 1
    x, lands = u.factor(u.basis_map())
    assert lands and x == identity_map(QQ, 2)
    assert u.coords_map() @ u.basis_map() == identity_map(QQ, 2)
    assert u.contains((F(3), F(3), F(-1))) and not w.contains((F(1), F(0), F(0)))


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


def _maps(field, cancelling):
    """rows, cols |-> a strategy for rows x cols LinMaps; cancelling draws
    entries from 0 and +-1, so the sums of a placement often cancel."""
    scalar = (st.sampled_from([0, 1, -1]) if cancelling
              else st.one_of(st.just(0), _entries(field)))

    def linmap(rows, cols):
        return st.lists(scalar, min_size=rows * cols, max_size=rows * cols).map(
            lambda xs: LinMap(field, rows, cols, {
                divmod(i, cols): field.parse(str(x)) for i, x in enumerate(xs)}))

    return linmap


@pytest.mark.parametrize("shape", ["unit", "counit", "rectangular", "zero"])
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@seed(20261020)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_leg_placement_matches_the_kronecker_product(field, shape, data):
    # oracle: I_a (x) g (x) I_b built with tensor and composed with @; g is
    # a column (a unit), a row (a counit), any shape, or zero
    linmap = _maps(field, False)
    a, b = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    size = st.integers(1, 3)
    gr = 1 if shape == "counit" else data.draw(size)
    gc = 1 if shape == "unit" else data.draw(size)
    g = LinMap.zero(field, gr, gc) if shape == "zero" else data.draw(linmap(gr, gc))
    kron = identity_map(field, a).tensor(g).tensor(identity_map(field, b))
    m = data.draw(linmap(a * gc * b, data.draw(st.integers(0, 3))))
    assert on_leg(a, g, b, m) == kron @ m
    m2 = data.draw(linmap(data.draw(st.integers(0, 3)), a * gr * b))
    assert after_leg(m2, a, g, b) == m2 @ kron
    # a wrong size is refused, naming the leg map as it was given
    leg = re.escape(f"I_{a} (x) {gr}x{gc} (x) I_{b}")
    for off in (-1, 1):
        with pytest.raises(DimensionMismatchError, match=leg):
            on_leg(a, g, b, LinMap.zero(field, a * gc * b + off, 1))
        with pytest.raises(DimensionMismatchError, match=leg):
            after_leg(LinMap.zero(field, 1, a * gr * b + off), a, g, b)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@seed(20261028)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_placed_and_after_leg_match_the_constructions_they_replace(field, data):
    # oracles: placed was on_leg of a built identity, and after_leg was
    # on_leg on the transposes, transposed back
    linmap = _maps(field, data.draw(st.booleans()))
    a, b = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    size = st.integers(0, 3)
    g = data.draw(linmap(data.draw(size), data.draw(size)))
    assert placed(a, g, b) == on_leg(a, g, b, identity_map(field, a * g.cols * b))
    m = data.draw(linmap(data.draw(size), a * g.rows * b))
    got = after_leg(m, a, g, b)
    assert got == on_leg(a, g.transpose(), b, m.transpose()).transpose()
    assert all(v for _, v in got.entries())
    with pytest.raises(DimensionMismatchError):
        after_leg(LinMap.zero(field, 1, a * g.rows * b + 1), a, g, b)


def test_after_leg_drops_cancelled_sums():
    # (1 -1) o (1 1)^T = 0: the two terms meet at one entry and cancel
    g = LinMap.from_column(QQ, (F(1), F(1)))
    got = after_leg(LinMap.from_row(QQ, (F(1), F(-1))), 1, g, 1)
    assert got.nnz() == 0 and (got.rows, got.cols) == (1, 1)
    # placed moves entries and sums nothing: I_2 (x) g (x) I_1 has 2*nnz(g)
    assert placed(2, g, 1).nnz() == 4


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@seed(20261029)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sum_and_difference_match_a_dict_sum_and_store_no_zeros(field, data):
    # oracle: the sum over the union of the keys, zeros dropped
    linmap = _maps(field, data.draw(st.booleans()))
    rows, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    x, y = data.draw(linmap(rows, cols)), data.draw(linmap(rows, cols))
    keys = {k for k, _ in x.entries()} | {k for k, _ in y.entries()}
    for got, op in ((x + y, field.add), (x - y, field.sub)):
        want = {k: op(x.entry(*k), y.entry(*k)) for k in keys}
        assert got == LinMap(field, rows, cols, want)
        assert all(v for _, v in got.entries())
    assert (x - x).nnz() == 0
    with pytest.raises(DimensionMismatchError):
        x + LinMap.zero(field, rows + 1, cols)


@pytest.mark.parametrize("shape", ["any", "cancelling", "zero", "sparse mu",
                                   "function mult"])
@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@seed(20261021)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_diagonal_matches_the_swapped_kronecker_product(field, shape, data):
    # oracle: f (x) g built with tensor, the C and Y legs swapped and mu
    # placed on C (x) D; "cancelling" draws entries from 0 and +-1, so term
    # pairs often meet mu with opposite signs, and "zero" makes f zero.
    # diagonal walks only the nonzero columns of mu: "sparse mu" keeps at
    # most a third of them, and "function mult" is the product of the
    # functions on a group of order 3, 3 nonzero columns out of 9
    linmap = _maps(field, shape == "cancelling")
    dx, dc, dy, dd, de = (data.draw(st.integers(1, 3)) for _ in range(5))
    if shape == "function mult":
        dc = dd = de = 3
    cols = st.integers(0, 3)
    f = (LinMap.zero(field, dx * dc, data.draw(cols)) if shape == "zero"
         else data.draw(linmap(dx * dc, data.draw(cols))))
    g = data.draw(linmap(dy * dd, data.draw(cols)))
    if shape == "function mult":
        mu = function_algebra(field, cyclic_group(3)).mult
    else:
        mu = data.draw(linmap(de, dc * dd))
    if shape == "sparse mu":
        live = data.draw(st.sets(st.integers(0, dc * dd - 1),
                                 max_size=max(1, dc * dd // 3)))
        mu = LinMap(field, de, dc * dd,
                    {(e, c): v for (e, c), v in mu.entries() if c in live})
    flip = regroup(identity_map(field, dc * dy), (dc, dy), (dc * dy,), (1, 0), (2,))
    oracle = on_leg(dx * dy, mu, 1, on_leg(dx, flip, dd, f.tensor(g)))
    assert linalg.diagonal(f, dx, g, dy, mu) == oracle


def test_diagonal_drops_cancelled_sums_and_refuses_bad_shapes():
    # f(e_0) = x (x) (c0 + c1) against mu = c0 - c1: the two term pairs cancel
    f = LinMap.from_column(QQ, (F(1), F(1)))
    g = identity_map(QQ, 1)
    mu = LinMap.from_row(QQ, (F(1), F(-1)))
    assert linalg.diagonal(f, 1, g, 1, mu) == LinMap.zero(QQ, 1, 1)
    # an empty X leg has no rows to place
    assert linalg.diagonal(LinMap.zero(QQ, 0, 2), 0, g, 1, mu) == LinMap.zero(QQ, 0, 2)
    f2 = LinMap.zero(QQ, 6, 1)  # X (x) C with dim X = 2, dim C = 3
    g2 = LinMap.zero(QQ, 4, 1)  # Y (x) D with dim Y = 2, dim D = 2
    mu2 = LinMap.zero(QQ, 1, 6)
    assert linalg.diagonal(f2, 2, g2, 2, mu2) == LinMap.zero(QQ, 4, 1)
    bad = [(f2, 4, g2, 2, mu2),  # dim X does not divide the rows of f
           (f2, 2, g2, 3, mu2),  # dim Y does not divide the rows of g
           (f2, 2, g2, 2, LinMap.zero(QQ, 1, 5)),  # mu is not on C (x) D
           (f2, 0, g2, 2, mu2),  # an empty X leg under a map with rows
           (f2, 2, LinMap.zero(QQ, 4, 1), 0, mu2)]  # and an empty Y leg
    for args in bad:
        with pytest.raises(DimensionMismatchError, match="contract by"):
            linalg.diagonal(*args)
    with pytest.raises(FieldMismatchError):
        linalg.diagonal(f2, 2, LinMap.zero(GF(5), 4, 1), 2, mu2)


def _regroup_by_digits(m, row_legs, col_legs, rows, cols):
    """regroup rebuilt densely: every tuple of leg indices, its entry of m
    read at the flattened row and column legs and written at the
    flattened rows and cols."""
    legs = row_legs + col_legs

    def flat(x, order):
        i = 0
        for k in order:
            i = i * legs[k] + x[k]
        return i

    nr = len(row_legs)
    ent = {}
    for x in product(*(range(n) for n in legs)):
        ent[(flat(x, rows), flat(x, cols))] = m.entry(
            flat(x, range(nr)), flat(x, range(nr, len(legs))))
    return LinMap(m.field, prod(legs[k] for k in rows), prod(legs[k] for k in cols), ent)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@seed(20261025)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_regroup_matches_the_digit_rebuild(field, data):
    # legs of unequal dimensions, so a leg read with another leg's
    # dimension moves entries to the wrong place
    legs = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(
        lambda d: len(d) == 1 or len(set(d)) > 1))
    n = len(legs)
    split = data.draw(st.integers(0, n))
    row_legs, col_legs = tuple(legs[:split]), tuple(legs[split:])
    order = data.draw(st.permutations(range(n)))
    k = data.draw(st.integers(0, n))
    rows, cols = tuple(order[:k]), tuple(order[k:])
    nr, nc = prod(row_legs), prod(col_legs)
    xs = data.draw(st.lists(st.one_of(st.just(0), _entries(field)),
                            min_size=nr * nc, max_size=nr * nc))
    m = LinMap(field, nr, nc, {divmod(i, nc): field.parse(str(x))
                               for i, x in enumerate(xs)})
    out = regroup(m, row_legs, col_legs, rows, cols)
    assert out == _regroup_by_digits(m, row_legs, col_legs, rows, cols)
    # leg i of m is leg pos[i] of out, so this order moves every leg back
    pos = {leg: j for j, leg in enumerate(rows + cols)}
    back = regroup(out, tuple(legs[i] for i in rows), tuple(legs[i] for i in cols),
                   tuple(pos[i] for i in range(split)),
                   tuple(pos[i] for i in range(split, n)))
    assert back == m


def test_regroup_of_an_identity_is_the_flip_and_refuses_bad_legs():
    s = regroup(identity_map(QQ, 6), (2, 3), (6,), (1, 0), (2,))
    s_back = regroup(identity_map(QQ, 6), (3, 2), (6,), (1, 0), (2,))
    assert s_back @ s == identity_map(QQ, 6)
    # e_1 (x) e_2 of k^2 (x) k^3 sits at 1*3+2 = 5; image e_2 (x) e_1 at 2*2+1 = 5
    v = [F(0)] * 6
    v[1 * 3 + 2] = F(1)
    out = s.apply(tuple(v))
    assert out[2 * 2 + 1] == F(1) and sum(x != 0 for x in out) == 1
    m = LinMap.zero(QQ, 6, 2)
    for args in [((2, 2), (2,), (0, 1), (2,)),  # legs multiply to 4 rows, not 6
                 ((2, 3), (2,), (0, 0), (2,)),  # leg 0 listed twice
                 ((2, 3), (2,), (0,), (2,))]:  # leg 1 missing
        with pytest.raises(DimensionMismatchError, match="regrouped to"):
            regroup(m, *args)


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
    half_a = LinMap(QQ, 4, 4, {(i, j): dense_rows[i][j]
                               for i in range(4) for j in range(2)})
    half_b = LinMap(QQ, 4, 4, {(i, j): dense_rows[i][j]
                               for i in range(4) for j in range(2, 4)})
    assert half_a + half_b == m
    x = qmap([[1, 0], [0, 1], [1, 1], [2, 3]])
    assert (half_a @ x) + (half_b @ x) == m @ x
    assert half_a.transpose() + half_b.transpose() == m.transpose()
    assert kernel_of(m) == kernel_of(half_a + half_b)
    # entries() keeps no order, so the two lists are compared sorted
    assert sorted(m.entries()) == sorted((half_a + half_b).entries())


def test_no_stored_zeros():
    m = LinMap(QQ, 2, 2, {(0, 0): F(0), (1, 1): F(3)})
    assert m.nnz() == 1


# -- map-space utilities ----------------------------------------------


def _map_to_vec(m):
    """A map flattened entry-major: entry (r, c) at position r*cols + c."""
    out = [m.field.zero] * (m.rows * m.cols)
    for (r, c), v in m.entries():
        out[r * m.cols + c] = v
    return tuple(out)


def _commutant_in_span(f, basis, gens, n):
    """The elements of the span of the n x n matrices in basis that commute
    with every generator, from the commutators b g - g b of each basis
    element, a kernel and the span of its combinations: the formula that
    intersecting the span with the generators' commutant replaced."""
    commutators = LinMap(f, len(gens) * n * n, len(basis), {
        (gi * n * n + i, j): x
        for gi, g in enumerate(gens) for j, b in enumerate(basis)
        for i, x in enumerate(_map_to_vec(b @ g - g @ b))})
    return Subspace.from_vectors(f, n * n, [
        _map_to_vec(sum((b.scale(c) for b, c in zip(basis, row)),
                        LinMap.zero(f, n, n)))
        for row in kernel_of(commutators).rows])


def _interleave_blocks(f, blocks, out_rows, cols):
    """Stack row i of block j into row i*len(blocks)+j of the result: the
    interleaving monadics used before sigma was a regroup of the action."""
    da = len(blocks)
    ent = {}
    for j, b in enumerate(blocks):
        for (r, c), val in b.entries():
            ent[(r * da + j, c)] = val
    return LinMap(f, out_rows, cols, ent)


def _elementary_operator(field, rows, cols, fn):
    """The matrix of a linear operator fn on maps with shape (rows, cols),
    built by applying fn to each elementary map: its image, flattened
    entry-major, is the column of the elementary map's position.  This is
    the per-elementary-map formula that placement replaced."""
    ent = {}
    for r in range(rows):
        for c in range(cols):
            img = fn(LinMap(field, rows, cols, {(r, c): field.one}))
            for (rr, cc), v in img.entries():
                ent[(rr * img.cols + cc, r * cols + c)] = v
    return LinMap(field, img.rows * img.cols, rows * cols, ent)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
@seed(20261801)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_placement_rules_match_the_elementary_map_formula(field, data):
    # the module docstring's rules: postcomposition and precomposition are
    # placed leg maps, and on_leg_operator places X |-> on_leg(a, X, b, m)
    linmap = _maps(field, False)
    size = st.integers(1, 3)
    rows, cols, k = data.draw(size), data.draw(size), data.draw(size)
    g = data.draw(linmap(k, rows))
    assert placed(1, g, cols) == \
        _elementary_operator(field, rows, cols, lambda x: g @ x)
    h = data.draw(linmap(cols, k))
    assert placed(rows, h.transpose(), 1) == \
        _elementary_operator(field, rows, cols, lambda x: x @ h)
    a, b = data.draw(size), data.draw(size)
    m = data.draw(linmap(a * cols * b, data.draw(size)))
    assert on_leg_operator(a, rows, b, m) == _elementary_operator(
        field, rows, cols, lambda x: on_leg(a, x, b, m))
    if a * b > 1:
        # the identity legs must divide the rows of m
        with pytest.raises(DimensionMismatchError):
            on_leg_operator(a, rows, b, LinMap.zero(field, a * cols * b + 1, 1))


def _oracle_instance(name):
    """A Hopf algebra, a verified coideal subalgebra and, for k^S3, the
    quotient module coalgebra of the same subgroup."""
    if name == "kS3-functions":
        return subgroup_data(QQ, symmetric_group_3(), (0, 3))
    # the grouplikes: span{1, g} of sweedler4, span{1, g, g^2} of taft(3)
    h, idx = (sweedler4(), (0, 2)) if name == "sweedler4" else \
        (taft(3, GF(7)), (0, 3, 6))
    f = h.field
    span = Subspace.from_vectors(f, h.dim, [basis_vector(f, h.dim, i) for i in idx])
    return h, verify_coideal_subalgebra(h, span), None


@pytest.mark.parametrize("name", ["sweedler4", "taft3-GF7", "kS3-functions"])
def test_map_space_operators_match_the_elementary_map_formula(name):
    # oracle: each operator applied to every elementary map, as it was built
    # before placement, for both comodule sides and non-square map spaces
    h, a, q = _oracle_instance(name)
    f, c, dh = h.field, h.coalgebra, h.dim
    unit = LinMap.from_column(f, h.unit_vector())
    coms = [ComoduleData(f, dh, h.comult, c, side) for side in ("right", "left")]
    coms += [ComoduleData(f, 1, unit, c, side) for side in ("right", "left")]
    pairs = [(v, w) for v in coms for w in coms if v.side == w.side]
    if q is not None:
        lq = quotient_coaction(q, "left")
        b = q.coalgebra
        lb = ComoduleData(f, b.dim, b.comult, b, "left")
        pairs += [(lq, lq), (lq, lb), (lb, lq)]
    for v, w in pairs:
        assert _colinearity_operator(v, w) == _elementary_operator(
            f, w.dim, v.dim, _colinearity_defect(v, w))

    # hom_linear and the commutant: X |-> [X r1 - r2 X] over one algebra
    mods = [regular_module(a.algebra),
            restrict_module(regular_module(h.algebra), a.algebra, a.inclusion)]
    for m1 in mods:
        for m2 in mods:
            o1, o2 = m1.action_operators(), m2.action_operators()
            assert _intertwining_relations(o1, o2) == _elementary_operator(
                f, m2.dim, m1.dim, lambda x: stack_maps(
                    [x @ r1 - r2 @ x for r1, r2 in zip(o1, o2)]))

    # the center in invariant_subspace, the span meet the generators'
    # commutant, against the commutators of each basis element: on the
    # span of the action operators, and on the algebra they generate,
    # whose center is what commutes with its own basis
    for m in mods:
        ops = m.action_operators()
        n = m.dim
        span = Subspace.from_vectors(f, n * n, [_map_to_vec(b) for b in ops])
        for gens in (ops, ops[:2]):
            assert span.intersect(kernel_of(_intertwining_relations(gens, gens))) \
                == _commutant_in_span(f, ops, gens, n)
        alg = matrix_algebra_closure(f, ops, n)
        basis = [LinMap(f, n, n, {divmod(i, n): x for i, x in enumerate(r) if x})
                 for r in alg.rows]
        assert alg.intersect(kernel_of(_intertwining_relations(ops, ops))) \
            == _commutant_in_span(f, basis, basis, n)

    for m in mods:
        ops, da = m.action_operators(), m.over.dim
        for dn in (1, 2):
            assert _module_to_hom_operator(m, dn) == _elementary_operator(
                f, dn, m.dim, lambda phi: _interleave_blocks(
                    f, [phi @ op for op in ops], dn * da, m.dim))

    delta, _ = restricted_comultiplication(h, a.inclusion)
    twist = after_leg(h.mult, dh, h.antipode, 1)
    for nc in (trivial_comodule(h), regular_comodule(h)):
        dn = nc.dim
        assert internal_hom(a, nc).omega == _elementary_operator(
            f, dn, a.dim, lambda fm: on_leg(
                dn, twist, 1, on_leg(1, nc.coaction @ fm, dh, delta)))

    # morita: the left coaction of a coend bicomodule, postcomposed
    dreg = regular_comodule_of(c, "regular comodule")
    for m in (trivial_comodule(h), ComoduleData(
            f, 2, identity_map(f, 2).tensor(unit), c, "right")):
        ce = coend(m)
        lc = ce.bicomodule.left_coaction
        old = _elementary_operator(f, lc.cols, dreg.dim, lambda x: lc @ x)
        sd = hom_colinear(dreg, m)
        amb = ComoduleData(f, sd.ambient, old, ce.coalgebra, "left")
        assert _transported_left_coaction(
            ce.coalgebra, lc, dreg, sd, CertReport("transport"), "maps") == \
            comodule_on_subspace(amb, sd)[0].coaction



# -- leg regrouping at its call sites ----------------------------------
# Each oracle below is the construction a call site used before it became
# one linalg.regroup: a built flip matrix, or a loop that decodes the
# flattened keys of a map and writes them back in another order.


def _swap_map(field, m, n):
    """The flip k^m (x) k^n -> k^n (x) k^m, e_i (x) e_j -> e_j (x) e_i."""
    return LinMap(field, n * m, m * n,
                  {(j * m + i, i * n + j): field.one for i in range(m) for j in range(n)})


def _dual_coaction_by_loops(v):
    dc, ent = v.over.dim, {}
    if v.side == "right":
        # rho[(i*dc + d), j] -> lambda[(d*dim + j), i]
        for (r, c), val in v.coaction.entries():
            i, d = divmod(r, dc)
            ent[(d * v.dim + c, i)] = val
        return LinMap(v.field, dc * v.dim, v.dim, ent)
    # lambda[(d*dim + i), j] -> rho[(j*dc + d), i]
    for (r, c), val in v.coaction.entries():
        d, i = divmod(r, v.dim)
        ent[(c * dc + d, i)] = val
    return LinMap(v.field, v.dim * dc, v.dim, ent)


def _stacked_maps(b, rows, cols):
    """The columns of b, each a rows x cols map flattened entry-major,
    stacked: block h of the (b.cols*rows) x cols result is column h."""
    return LinMap(b.field, b.cols * rows, cols, {
        (h * rows + i, j): x for (r, h), x in b.entries()
        for i, j in [divmod(r, cols)]})


def _coend_data_by_loops(m):
    """theta, g and f of coend_pre_equivalence(m): one factor call per
    translation, and the coaction legs moved entry by entry."""
    f, dm, d = m.field, m.dim, m.over
    ce = coend(m)
    c, p = ce.coalgebra, ce.bicomodule
    sd = hom_colinear(regular_comodule_of(d, "regular comodule"), m)
    b_sd = sd.basis_map()
    theta_ent = {}
    for dd in range(d.dim):
        lt = LinMap(f, d.dim, d.dim,
                    {(j, k): val for (r, k), val in d.comult.entries()
                     for dr, j in [divmod(r, d.dim)] if dr == dd})
        co, lands = sd.factor(on_leg(dm, lt.transpose(), 1, b_sd))
        assert lands
        for (t, s_), val in co.entries():
            theta_ent[(t * d.dim + dd, s_)] = val
    theta = LinMap(f, sd.dim * d.dim, sd.dim, theta_ent)
    g = _stacked_maps(b_sd, dm, d.dim)
    lmat_ent = {}
    for (r, mcol), val in p.left_coaction.entries():
        cc, p2 = divmod(r, dm)
        lmat_ent[(cc, p2 * dm + mcol)] = val
    lmat = LinMap(f, c.dim, dm * dm, lmat_ent)
    rhs = on_leg(dm, g, 1, m.coaction)
    rmat_ent = {}
    for (r, mcol), val in rhs.entries():
        pq, p2 = divmod(r, dm)
        rmat_ent[(pq, p2 * dm + mcol)] = val
    rmat = LinMap(f, dm * sd.dim, dm * dm, rmat_ent)
    return theta, g, rmat @ find_section(lmat)


def _internal_hom_action_by_loops(a, dn):
    """The precomposition action on Hom(A, N): column c of the operator
    of e_j written to column c*da + j."""
    f, da = a.hopf.field, a.dim
    id_space = identity_map(f, dn * da)
    act_ent = {}
    for j, lm in enumerate(regular_module(a.algebra, "left").action_operators()):
        for (r, c), val in on_leg(dn, lm.transpose(), 1, id_space).entries():
            act_ent[(r, c * da + j)] = val
    return ModuleData(f, dn * da, LinMap(f, dn * da, dn * da * da, act_ent),
                      a.algebra, "right")


@pytest.mark.parametrize("name", ["sweedler4", "taft3-GF7", "kS3-functions"])
def test_regrouped_sites_match_the_reindexing_they_replaced(name):
    # the coideal subalgebra A as a comodule m has fewer dimensions than H
    # (2 of 4, 3 of 9, 3 of 6), and for kS3-functions its coend has 2, so
    # a leg read with another leg's dimension moves entries
    h, a, q = _oracle_instance(name)
    f, d = h.field, h.dim
    assert h.algebra.op().mult == h.mult @ _swap_map(f, d, d)
    assert h.coalgebra.cop().comult == _swap_map(f, d, d) @ h.comult

    m = comodule_on_subspace(regular_comodule(h), a.space)[0]
    left = dual_comodule(m)
    assert left.coaction == _dual_coaction_by_loops(m)
    assert dual_comodule(left).coaction == _dual_coaction_by_loops(left)
    assert _as_right_comodule(left)[0] == _swap_map(f, d, m.dim) @ left.coaction
    lmod = restrict_module(regular_module(h.algebra, "left"), a.algebra, a.inclusion)
    assert _as_right_module(lmod)[0] == lmod.action @ _swap_map(f, d, a.dim)

    ce = coend(m)
    s = ce.hom_space.dim
    e, b = restrict_algebra(matrix_algebra(f, m.dim), ce.hom_space)
    assert ce.coalgebra.comult == (e.mult @ _swap_map(f, s, s)).transpose()
    assert ce.bicomodule.left_coaction == _stacked_maps(b, m.dim, m.dim)
    theta, g, fmap = _coend_data_by_loops(m)
    data = coend_pre_equivalence(m)
    assert (data.g, data.f) == (g, fmap)
    assert data.q.left_coaction == _dual_coaction_by_loops(
        ComoduleData(f, theta.cols, theta, m.over, "right"))

    for n in (trivial_comodule(h), regular_comodule(h)):
        ih = internal_hom(a, n)
        dn, da = n.dim, a.dim
        nu = LinMap(f, dn * d * da, dn * da * d, {
            ((n0 * d + hh) * da + a0, (n0 * da + a0) * d + hh): f.one
            for n0 in range(dn) for a0 in range(da) for hh in range(d)})
        assert ih.nu == nu
        amb = _internal_hom_action_by_loops(a, dn)
        assert ih.module.action == module_on_subspace(amb, ih.carrier)[0].action

    if f.char == 0:
        # the coaction of each simple comodule, read off the action operators
        c, old = h.coalgebra, []
        for sm in radical_and_simples(dual_algebra(c).op())[1]:
            ent = {}
            for i, op in enumerate(sm.action_operators()):
                for (k, jj), v in op.entries():
                    ent[(k * c.dim + i, jj)] = v
            old.append(LinMap(f, sm.dim * c.dim, sm.dim, ent))
        assert [v.coaction for v in simple_comodules(c)] == old

    if name != "taft3-GF7":
        # gamma's backward map on B (x) H, with dim B = 2 < dim H
        q = q or quotient_module_coalgebra(a)
        x = regular_comodule(h)
        breg = ComoduleData(f, q.dim, q.coalgebra.comult, q.coalgebra, "right")
        res = gamma_isomorphism(x, breg, q)
        smult = after_leg(h.mult, 1, h.antipode, d)
        bwd = on_leg(d * q.dim, smult, 1, on_leg(d, _swap_map(f, d, q.dim), d, on_leg(
            1, x.coaction, q.dim * d, res.target.basis_map())))
        assert res.backward == res.source.factor(bwd, d, 1)[0]


def test_pairing_sites_match_the_flip_products():
    # U = kC2 paired with H = k^S3 through C2 -> S3, so dim U = 2 < dim H = 6
    g3 = symmetric_group_3()
    u, h = group_algebra(QQ, cyclic_group(2)), function_algebra(QQ, g3)
    du, dh = 2, 6
    flip = [t for t in range(6) if t != g3.identity and g3.mul(t, t) == g3.identity][0]
    one = identity_map(QQ, du * dh)
    for image, pairs in ((1, False), (flip, True)):
        # sending the generator to a 3-cycle is no homomorphism; the loop
        # ends on the pairing, whose hit actions are modules
        p = PairingData(u, h, LinMap(QQ, 1, du * dh, {(0, g3.identity): 1,
                                                       (0, dh + image): 1}))
        form2 = after_leg(p.form.tensor(p.form), du, _swap_map(QQ, du, dh), dh)
        d1 = after_leg(p.form, 1, u.mult, dh) - after_leg(form2, du * du, h.comult, 1)
        d2 = after_leg(p.form, du, h.mult, 1) - after_leg(form2, 1, u.comult, dh * dh)
        assert [c.ok for c in check_pairing(p).checks[:2]] == [d1.is_zero(), d2.is_zero()]
        assert d1.is_zero() == pairs
    cop = on_leg(1, _swap_map(QQ, dh, dh) @ h.comult, du, one)
    right = on_leg(dh, p.form @ _swap_map(QQ, dh, du), 1, cop)
    left = on_leg(dh, p.form, 1, on_leg(
        1, _swap_map(QQ, du, dh), dh, on_leg(du, h.comult, 1, one)))
    assert hit_action(p, "right").action == right
    assert hit_action(p, "left").action == left

    for n, form in ((h.dim, evaluation_pairing(h).form),
                    (h.dim, coevaluation_pairing(h).form),
                    (6, canonical_pairing(group_algebra(QQ, g3), h).form)):
        assert form == LinMap(QQ, 1, n * n, {(0, i * n + i): 1 for i in range(n)})
