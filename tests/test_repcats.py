"""Structure theory tests: axiom checks for (co)modules, radicals,
composition factors, cotensor and colinear hom, with oracles stated at each
site (classical representation theory of small groups, hand-computed
radicals, and sympy-factored minimal polynomials)."""

import os
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path
from random import Random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from coideals.catalog import (
    cyclic_group,
    function_algebra,
    group_algebra,
    subgroup_data,
    sweedler4,
    symmetric_group_3,
    taft,
)
from coideals.certs import VerificationFailed
from coideals.fields import GF, QQ
from coideals.hopf import AlgebraData, _default_labels, _witness, dual_algebra
from coideals.linalg import (
    LinMap,
    Subspace,
    after_leg,
    basis_vector,
    image_of,
    invert,
    kernel_of,
    on_leg,
    solve,
)
from coideals.repcats import (
    ComoduleData,
    _quotient_maps,
    ModuleData,
    check_comodule,
    check_module,
    check_relhopf,
    check_representation,
    comodule_on_subspace,
    comodule_to_dual_module,
    composition_factors,
    corestrict_comodule,
    cotensor,
    distinct_modules,
    factor_poly,
    generated_submodule,
    hom_colinear,
    hom_linear,
    invariant_subspace,
    is_cosemisimple,
    is_module_semisimple,
    matrix_algebra,
    matrix_algebra_closure,
    matrix_minpoly,
    module_on_quotient,
    module_on_subspace,
    quotient_algebra,
    radical,
    radical_and_simples,
    recover_coalgebra_map,
    regular_comodule,
    regular_module,
    regular_relhopf,
    restrict_algebra,
    restricted_comultiplication,
    simple_comodules,
    socle_wrt,
    tensor_comodules,
    trivial_comodule,
    trivial_comodule_at,
)
from coideals.specfile import save_spec, spec_from_hopf, spec_from_quotient


def left_regular_comodule(h):
    # the comultiplication matrix also serves as a left coaction
    return ComoduleData(h.field, h.dim, h.comult, h.coalgebra, "left")


# -- axiom checks -------------------------------------------------------

def test_regular_structures_pass_axioms():
    for h in (sweedler4(), group_algebra(QQ, symmetric_group_3())):
        assert check_module(regular_module(h.algebra, "right")).ok
        assert check_module(regular_module(h.algebra, "left")).ok
        assert check_comodule(regular_comodule(h)).ok
        assert check_comodule(left_regular_comodule(h)).ok


def test_broken_action_reports_witness():
    a = sweedler4().algebra
    bad = ModuleData(QQ, 4, a.mult + LinMap(QQ, 4, 16, {(0, 7): Fr(1)}), a, "right")
    rep = check_module(bad)
    assert not rep.ok
    assert any(c.witness for c in rep.checks if not c.ok)


def test_left_module_axioms_are_transported():
    # left multiplication in a noncommutative algebra is a left action; the
    # same operators packaged as a right action violate associativity
    a = group_algebra(QQ, symmetric_group_3()).algebra
    left = ModuleData(QQ, 6, a.mult, a, "left")
    assert check_module(left).ok
    from coideals.linalg import identity_map, regroup
    flip = regroup(identity_map(QQ, 36), (6, 6), (36,), (1, 0), (2,))
    wrong = ModuleData(QQ, 6, a.mult @ flip, a, "right")
    assert not check_module(wrong).ok


def test_trivial_comodule_needs_grouplike():
    h = group_algebra(QQ, cyclic_group(2))
    ok = trivial_comodule(h)
    assert check_comodule(ok).ok
    _, rep = trivial_comodule_at(h.coalgebra, (Fr(1), Fr(1)))
    assert not rep.ok  # 1 + g is not grouplike


# -- relative Hopf modules ---------------------------------------------

def sweedler_group_part():
    """Span of 1 and the grouplike g (indices 0 and 2): a right coideal
    subalgebra of the four-dimensional instance."""
    h = sweedler4()
    s = Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, 0), basis_vector(QQ, 4, 2)])
    sub, incl = restrict_algebra(h.algebra, s, ("1", "g"))
    return h, s, sub, incl


def test_regular_relhopf_passes():
    h, _, sub, incl = sweedler_group_part()
    x = regular_relhopf(h, sub, incl)
    rep = check_relhopf(x)
    assert rep.ok, str(rep)


def test_relhopf_rejects_non_coideal_subalgebra():
    # span{1, x} is closed under product (x*x = 0) but Delta(x) has the
    # g (x) x term escaping the subspace
    h = sweedler4()
    s = Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, 0), basis_vector(QQ, 4, 1)])
    sub, incl = restrict_algebra(h.algebra, s, ("1", "x"))
    with pytest.raises(VerificationFailed) as ei:
        regular_relhopf(h, sub, incl)
    failed = [c.name for c in ei.value.report.failures()]
    assert "coproduct-stays-in-subspace" in failed


def test_restrict_algebra_validation():
    h = sweedler4()
    no_unit = Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, 1)])
    with pytest.raises(ValueError, match="^subspace does not contain the unit$"):
        restrict_algebra(h.algebra, no_unit)  # x*x = 0 stays in span{x}
    not_closed = Subspace.from_vectors(
        QQ, 4, [basis_vector(QQ, 4, i) for i in (0, 1, 2)])
    with pytest.raises(ValueError,
                       match="^subspace is not closed under the product$"):
        restrict_algebra(h.algebra, not_closed)  # g*x = gx escapes span{1, x, g}


# -- radical and semisimplicity ----------------------------------------

def dual_numbers():
    # k[t]/(t^2): radical is the span of t (oracle: t is nilpotent and the
    # quotient by it is the field)
    return AlgebraData.from_products(
        QQ, 2, lambda i, j: {i + j: Fr(1)} if i + j < 2 else {},
        (Fr(1), Fr(0)), ("1", "t"))


def test_radical_of_dual_numbers():
    j = radical(dual_numbers())
    assert j.dim == 1
    assert j.contains((Fr(0), Fr(1)))


def test_radical_of_sweedler_algebra():
    # oracle: x and gx span a nilpotent ideal and the quotient is spanned by
    # two orthogonal idempotents (1 +- g)/2
    j = radical(sweedler4().algebra)
    assert j.dim == 2
    assert j.contains(basis_vector(QQ, 4, 1)) and j.contains(basis_vector(QQ, 4, 3))


def test_radical_char_guard():
    a = group_algebra(GF(2), cyclic_group(2)).algebra
    with pytest.raises(ValueError):
        radical(a)  # trace form invalid at p <= dim


def _trace_form_kernel(a):
    """The kernel of tr(L_i L_j), L_i the left multiplication by e_i built
    as an operator and the d^2 products taken one by one: the formula that
    reading mult in one pass replaced."""
    f, d = a.field, a.dim
    ops = [after_leg(a.mult, 1, LinMap.from_column(f, basis_vector(f, d, i)), d)
           for i in range(d)]
    gram = []
    for li in ops:
        row = []
        for lj in ops:
            t, prod = f.zero, li @ lj
            for k in range(d):
                t = f.add(t, prod.entry(k, k))
            row.append(t)
        gram.append(row)
    return kernel_of(LinMap.from_rows(f, gram))


@pytest.mark.parametrize("f", [QQ, GF(11)], ids=["QQ", "GF11"])
def test_radical_matches_the_operator_trace_form(f):
    # seeded structure constants, associative or not: sparse random ones,
    # and the algebras that upper triangular matrices generate, which are
    # associative and mostly have a radical; every d is below p = 11
    rng = Random(20262001)
    scalar = (-2, -1, 0, 0, 0, 0, 1, 2)
    seen = 0
    for _ in range(40):
        d = rng.randint(1, 6)
        mult = LinMap(f, d, d * d, {
            (r, c): f.from_int(rng.choice(scalar))
            for r in range(d) for c in range(d * d)})
        unit = LinMap.from_column(f, basis_vector(f, d, 0))
        a = AlgebraData(f, d, mult, unit)
        assert radical(a) == _trace_form_kernel(a)
    for _ in range(20):
        n = rng.randint(1, 3)
        mats = [LinMap(f, n, n, {(r, c): f.from_int(rng.choice(scalar))
                                 for r in range(n) for c in range(r, n)})
                for _ in range(rng.randint(1, 2))]
        a, _ = restrict_algebra(matrix_algebra(f, n),
                                matrix_algebra_closure(f, mats, n))
        assert a.check().ok
        j = radical(a)
        assert j == _trace_form_kernel(a)
        seen += j.dim > 0
    assert seen >= 5


def test_group_algebra_semisimple_char_zero():
    assert radical(group_algebra(QQ, symmetric_group_3()).algebra).dim == 0


def test_cosemisimplicity():
    assert is_cosemisimple(function_algebra(QQ, symmetric_group_3()).coalgebra).ok
    assert is_cosemisimple(group_algebra(QQ, symmetric_group_3()).coalgebra).ok
    r = is_cosemisimple(sweedler4().coalgebra)
    assert not r.ok and r.dual_radical_dim == 2


def test_quotient_algebra_of_sweedler():
    h = sweedler4()
    j = radical(h.algebra)
    q, proj, sect = quotient_algebra(h.algebra, j)
    assert q.dim == 2
    assert (proj @ sect) == LinMap.identity(QQ, 2)
    # [g]*[g] = [1] survives in the quotient
    gq = proj.apply(basis_vector(QQ, 4, 2))
    oneq = proj.apply(basis_vector(QQ, 4, 0))
    assert q.product(gq, gq) == tuple(oneq)


def test_quotient_algebra_rejects_non_ideal():
    h = sweedler4()
    s = Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, 0)])
    with pytest.raises(ValueError):
        quotient_algebra(h.algebra, s)


def test_socle_of_sweedler_regular():
    h = sweedler4()
    m = regular_module(h.algebra, "right")
    j = radical(h.algebra)
    soc = socle_wrt(m, j)
    # oracle: v*x = 0 and v*gx = 0 force v into the span of x and gx
    assert soc.dim == 2
    res = is_module_semisimple(m)
    assert not res.ok and res.socle_dim == 2 and res.radical_dim == 2


def test_s3_regular_module_semisimple():
    a = group_algebra(QQ, symmetric_group_3()).algebra
    assert is_module_semisimple(regular_module(a, "right")).ok


# -- composition factors ------------------------------------------------

def test_composition_factors_of_s3_regular():
    # classical: the regular representation of the order-6 nonabelian group
    # in characteristic zero has factors of dimensions 1, 1, 2, 2
    a = group_algebra(QQ, symmetric_group_3()).algebra
    facs = composition_factors(regular_module(a, "right"))
    assert sorted(m.dim for m in facs) == [1, 1, 2, 2]
    uniq = distinct_modules(facs)
    assert sorted(m.dim for m in uniq) == [1, 1, 2]


def test_radical_and_simples_of_sweedler():
    j, simples = radical_and_simples(sweedler4().algebra)
    assert j.dim == 2
    assert [m.dim for m in simples] == [1, 1]
    assert hom_linear(simples[0], simples[1]).dim == 0
    for m in simples:
        assert check_module(m).ok


def test_rotation_module_simple_over_rationals_splits_mod_7():
    # the order-3 rotation acts irreducibly over the rationals because
    # x^2 + x + 1 is irreducible there, and splits over GF(7) where the
    # cube roots of unity live (oracle: polynomial factorization)
    for field, expect_simple in ((QQ, True), (GF(7), False)):
        a = group_algebra(field, cyclic_group(3)).algebra
        one = field.one
        rot = LinMap(field, 2, 2, {(0, 1): field.neg(one), (1, 0): one,
                                   (1, 1): field.neg(one)})
        ops = {0: LinMap.identity(field, 2), 1: rot, 2: rot @ rot}
        ent = {}
        for i, op in ops.items():
            for (r, c), v in op.entries():
                ent[(r, c * 3 + i)] = v
        act = LinMap(field, 2, 6, ent)
        m = ModuleData(field, 2, act, a, "right")
        assert check_module(m).ok
        got = invariant_subspace(m)
        assert (got is None) == expect_simple


def test_distinct_modules_merges_conjugate_simples():
    # Schur's lemma: a simple conjugated by an invertible matrix is the same
    # simple, so only the first copy is kept
    a = group_algebra(QQ, symmetric_group_3()).algebra
    facs = composition_factors(regular_module(a, "right"))
    s = next(m for m in facs if m.dim == 2)
    t = LinMap(QQ, 2, 2, {(0, 0): Fr(1), (0, 1): Fr(1), (1, 1): Fr(1)})
    tinv = LinMap(QQ, 2, 2, {(0, 0): Fr(1), (0, 1): Fr(-1), (1, 1): Fr(1)})
    conj = ModuleData(QQ, 2, t @ s.action @ tinv.tensor(LinMap.identity(QQ, 6)),
                      a, "right")
    assert check_module(conj).ok
    assert conj.action != s.action
    kept = distinct_modules([s, conj])
    assert len(kept) == 1 and kept[0] is s
    # the three characters of the cyclic group of order 3 over GF(7) take
    # the cube roots of unity 1, 2, 4 on the generator: pairwise distinct
    c3 = group_algebra(GF(7), cyclic_group(3)).algebra
    lines = composition_factors(regular_module(c3, "right"))
    assert [m.dim for m in lines] == [1, 1, 1]
    assert distinct_modules(lines) == lines
    assert distinct_modules(lines + lines) == lines


def test_submodule_and_quotient_roundtrip():
    h = sweedler4()
    m = regular_module(h.algebra, "right")
    j = radical(h.algebra)
    sub, incl = module_on_subspace(m, j)
    quo, proj = module_on_quotient(m, j)
    assert sub.dim == 2 and quo.dim == 2
    assert check_module(sub).ok and check_module(quo).ok
    assert incl.cols == 2 and proj.rows == 2
    bad = Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, 2)])
    with pytest.raises(ValueError,
                       match="^subspace is not invariant under the action$"):
        module_on_subspace(m, bad)  # g*g = 1 escapes the span of g


def test_action_operators_match_act_by(sample_modules):
    # the old path as oracle: one act_by per basis element of the algebra
    rights, lefts = sample_modules
    for m in rights + lefts:
        assert check_module(m).ok
        f, da = m.field, m.over.dim
        assert m.action_operators() == [m.act_by(basis_vector(f, da, j))
                                        for j in range(da)]


def _reduced_projection(sub):
    """Oracle: column j is e_j reduced modulo sub, read on the non-pivot
    coordinates."""
    f, d = sub.field, sub.ambient
    nonpiv = [c for c in range(d) if c not in sub.pivots]
    ent = {}
    for j in range(d):
        red = sub.reduce(basis_vector(f, d, j))
        for k, i in enumerate(nonpiv):
            ent[(k, j)] = red[i]
    return LinMap(f, len(nonpiv), d, ent)


@pytest.mark.parametrize("f", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_quotient_projection_matches_reduction(f):
    rng = Random(20261501)
    for d in range(1, 8):
        for _ in range(8):
            vecs = [tuple(f.from_int(rng.choice((-2, -1, 0, 0, 0, 1, 3)))
                          for _ in range(d))
                    for _ in range(rng.randint(0, d))]
            sub = Subspace.from_vectors(f, d, vecs)
            proj, sect = _quotient_maps(sub)
            assert proj == _reduced_projection(sub)
            assert proj @ sect == LinMap.identity(f, d - sub.dim)
            assert (proj @ sub.basis_map()).is_zero()


# -- minimal polynomials ------------------------------------------------

def test_matrix_minpoly_against_hand_values():
    nil = LinMap(QQ, 2, 2, {(0, 1): Fr(1)})
    assert matrix_minpoly(nil) == (Fr(0), Fr(0), Fr(1))  # x^2
    diag = LinMap(QQ, 2, 2, {(0, 0): Fr(1), (1, 1): Fr(2)})
    assert matrix_minpoly(diag) == (Fr(2), Fr(-3), Fr(1))  # (x-1)(x-2)
    assert matrix_minpoly(LinMap.identity(QQ, 3)) == (Fr(-1), Fr(1))


def _minpoly_by_solve(m):
    """The minimal polynomial from the span of the powers of m, the first
    power inside it written in the earlier ones by solve: the loop that one
    elimination run with tracking columns replaced."""
    f, n = m.field, m.rows
    vecs, power = [], LinMap.identity(f, n)
    while True:
        v = tuple(power.entry(r, c) for r in range(n) for c in range(n))
        if Subspace.from_vectors(f, n * n, vecs).contains(v):
            cols = LinMap(f, n * n, len(vecs), {
                (i, j): x for j, w in enumerate(vecs) for i, x in enumerate(w)})
            return tuple(f.neg(c) for c in solve(cols, v)) + (f.one,)
        vecs.append(v)
        power = power @ m


@pytest.mark.parametrize("f", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_matrix_minpoly_matches_the_span_and_solve_loop(f):
    # seeded sparse matrices, and block diagonal ones with repeated blocks,
    # whose minimal polynomial has lower degree than the size
    rng = Random(20262002)
    scalar = (-1, 0, 0, 0, 1, 2)
    degrees = set()
    for _ in range(60):
        n = rng.randint(1, 5)
        m = LinMap(f, n, n, {(r, c): f.from_int(rng.choice(scalar))
                             for r in range(n) for c in range(n)})
        if rng.random() < 0.5:
            k = rng.randint(1, 2)
            block = LinMap(f, k, k, {(r, c): f.from_int(rng.choice(scalar))
                                     for r in range(k) for c in range(k)})
            m = LinMap.identity(f, n // k + 1).tensor(block)
        mp = matrix_minpoly(m)
        assert mp == _minpoly_by_solve(m)
        degrees.add((m.rows, len(mp) - 1))
    assert any(deg < size for size, deg in degrees)


def test_matrix_algebra_multiplies_flattened_matrices():
    # M_n on the entry-major flattening: the product of two flattened
    # matrices is the flattened composite, and the axioms hold
    rng = Random(20262003)
    for f in (QQ, GF(5)):
        for n in (1, 2, 3):
            a = matrix_algebra(f, n)
            assert a.dim == n * n and a.check().ok
            x, y = (LinMap(f, n, n, {(r, c): f.from_int(rng.randint(-2, 2))
                                     for r in range(n) for c in range(n)})
                    for _ in range(2))
            flat = [tuple(m.entry(r, c) for r in range(n) for c in range(n))
                    for m in (x, y, x @ y)]
            assert a.product(flat[0], flat[1]) == flat[2]
            assert a.unit_vector == tuple(
                LinMap.identity(f, n).entry(r, c) for r in range(n) for c in range(n))


@pytest.mark.parametrize("field, gens, n, rows, applies", [
    # the reflection representation of S3: all of M_2(QQ)
    (QQ, [[[0, -1], [1, -1]], [[0, 1], [1, 0]]], 2,
     [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 8),
    # diag(2, 3, 3) and a nilpotent Jordan block over GF(5): the upper
    # triangular matrices whose last two diagonal entries agree
    (GF(5), [[[2, 0, 0], [0, 3, 0], [0, 0, 3]], [[0, 1, 0], [0, 0, 1], [0, 0, 0]]], 3,
     [(1, 0, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0, 0),
      (0, 0, 1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0, 0, 1),
      (0, 0, 0, 0, 0, 1, 0, 0, 0)], 10),
], ids=["M2(QQ)", "GF(5) triangular"])
def test_matrix_algebra_closure_takes_each_product_once(monkeypatch, field, gens,
                                                        n, rows, applies):
    # oracle: the span pinned from the loop that retested every pair of
    # products each round; the closure is unique, so it must not move.
    # The closure is the submodule that vec(I) generates under
    # postcomposition by the generators, so each generator is applied once
    # to each basis vector: 2 * 4 and 2 * 5 products, against the 16 and
    # 25 matrix products of the round-by-round loop
    calls = []
    apply = LinMap.apply
    monkeypatch.setattr(LinMap, "apply",
                        lambda m, v: calls.append(1) or apply(m, v))
    mats = [LinMap.from_rows(field, [[field.from_int(x) for x in r] for r in m])
            for m in gens]
    span = matrix_algebra_closure(field, mats, n)
    assert span.rows == tuple(tuple(field.from_int(x) for x in r) for r in rows)
    assert len(calls) == applies == len(mats) * span.dim


def _generated_by_rounds(f, ops, vec):
    """The fixpoint loop that applied every operator to the whole span each
    round and eliminated again, until a round added nothing."""
    span = Subspace.from_vectors(f, len(vec), [vec])
    prev = -1
    while span.dim != prev:
        prev = span.dim
        imgs = [op.apply(r) for op in ops for r in span.rows]
        span = span.sum_with(Subspace.from_vectors(f, len(vec), imgs))
    return span


@pytest.mark.parametrize("build, k", [
    (lambda: group_algebra(QQ, symmetric_group_3()).algebra, 0),
    (lambda: group_algebra(QQ, symmetric_group_3()).algebra, 1),
    (lambda: sweedler4().algebra, 1),
    (lambda: taft(3, GF(7)).algebra, 0),
    (lambda: taft(3, GF(7)).algebra, 3),
], ids=["kS3-e0", "kS3-e1", "sweedler-x", "taft3-1", "taft3-x"])
def test_generated_submodule_applies_each_operator_once_per_basis_vector(
        monkeypatch, build, k):
    # oracle: the round-by-round fixpoint, which re-applied every operator
    # to the whole span each round and so made more calls than this pin
    a = build()
    ops = regular_module(a, "right").action_operators()
    vec = basis_vector(a.field, a.dim, k)
    want = _generated_by_rounds(a.field, ops, vec)
    calls = []
    apply = LinMap.apply
    monkeypatch.setattr(LinMap, "apply",
                        lambda m, v: calls.append(1) or apply(m, v))
    span = generated_submodule(a.field, ops, vec)
    assert span == want
    assert len(calls) == len(ops) * span.dim


def test_factor_poly():
    facs = factor_poly(QQ, (Fr(2), Fr(-3), Fr(1)))
    assert [(f, m) for f, m in facs] == [((Fr(-1), Fr(1)), 1), ((Fr(-2), Fr(1)), 1)]
    facs2 = factor_poly(QQ, (Fr(0), Fr(0), Fr(1)))
    assert facs2 == [((Fr(0), Fr(1)), 2)]
    # x^2 + 1 = (x + 2)(x + 3) over GF(5)
    f5 = GF(5)
    facs3 = factor_poly(f5, (1, 0, 1))
    assert len(facs3) == 2 and all(len(f) == 2 and m == 1 for f, m in facs3)
    # x^2 + x + 1 is irreducible over the rationals
    assert len(factor_poly(QQ, (Fr(1), Fr(1), Fr(1)))) == 1


def _factor_list_oracle(field, coeffs):
    """sympy's factor_list, monic factors low-first, in factor_poly's order."""
    x = sympy.Symbol("x")
    if field.char == 0:
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(coeffs)], x, domain="QQ")
        read = lambda c: field.parse(str(c))  # noqa: E731
    else:
        poly = sympy.Poly([int(c) for c in reversed(coeffs)], x,
                          modulus=field.char)
        read = lambda c: field.from_int(int(c))  # noqa: E731
    out = [(tuple(read(c) for c in reversed(fac.monic().all_coeffs())), m)
           for fac, m in poly.factor_list()[1]]
    return sorted(out, key=lambda t: (len(t[0]), [field.fmt(c) for c in t[0]]))


def _times(field, p, q):
    """The product of two low-first coefficient lists."""
    out = [field.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return tuple(out)


_RATIONAL = st.fractions(-12, 12, max_denominator=6).map(lambda c: QQ.parse(str(c)))
_UNIT = _RATIONAL.filter(bool)


@st.composite
def _rational_polys(draw):
    """Non-monic polynomials over QQ of degree 1 to 3: any coefficients, a
    double root (zero discriminant), two rational roots, a quadratic with
    irrational roots (x^2 - k, k not a square), or a cubic."""
    lead = draw(_UNIT)
    kind = draw(st.sampled_from(["any", "double", "split", "irrational", "cubic"]))
    if kind == "any":
        return draw(st.lists(_RATIONAL, min_size=1, max_size=2)) + [lead]
    if kind == "cubic":
        return draw(st.lists(_RATIONAL, min_size=3, max_size=3)) + [lead]
    if kind == "irrational":
        k = draw(st.sampled_from([2, 3, 5, 6, 7, 10, -1, -3]))
        return _times(QQ, (lead,), (QQ.from_int(-k), 0, 1))
    r = draw(_RATIONAL)
    t = r if kind == "double" else draw(_RATIONAL)
    return _times(QQ, (lead,), _times(QQ, (QQ.neg(r), 1), (QQ.neg(t), 1)))


@settings(max_examples=200, deadline=None)
@given(coeffs=_rational_polys())
def test_factor_poly_matches_sympy_over_the_rationals(coeffs):
    # degrees 1 and 2 are split without sympy, degree 3 still through it
    assert factor_poly(QQ, tuple(coeffs)) == _factor_list_oracle(QQ, coeffs)


@pytest.mark.parametrize("p", [5, 7])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_factor_poly_matches_sympy_at_degree_one_over_prime_fields(p, data):
    f = GF(p)
    coeffs = (data.draw(st.integers(0, p - 1)), data.draw(st.integers(1, p - 1)))
    assert factor_poly(f, coeffs) == _factor_list_oracle(f, coeffs)


def test_theorem2_on_the_functions_on_s3_leaves_sympy_unloaded(tmp_path):
    # the minimal polynomials met there have degree 1 or 2, split without
    # sympy
    g = symmetric_group_3()
    save_spec(spec_from_hopf(function_algebra(QQ, g, name="k^S3")),
              tmp_path / "ks3fun.spec")
    save_spec(spec_from_quotient(subgroup_data(QQ, g, (0, 3))[2]),
              tmp_path / "quot3.spec")
    import coideals
    src = str(Path(coideals.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    code = ("import sys; from coideals.cli import main; "
            f"code = main(['theorem2', {str(tmp_path / 'ks3fun.spec')!r}, "
            f"'--quotient', {str(tmp_path / 'quot3.spec')!r}]); "
            "print(code, 'sympy' in sys.modules, file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr.split()[-2:] == ["0", "False"]


def test_import_leaves_sympy_unloaded():
    # factor_poly imports sympy on first use; importing the package must not
    import coideals
    src = str(Path(coideals.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    code = "import sys, coideals; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]


# -- comodules through duals -------------------------------------------

def test_simple_comodules_of_function_algebra():
    # right comodules over functions on G are representations of G; for the
    # order-6 nonabelian group the simple dimensions are 1, 1, 2 (classical)
    c = function_algebra(QQ, symmetric_group_3()).coalgebra
    simples = simple_comodules(c)
    assert sorted(v.dim for v in simples) == [1, 1, 2]


def test_simple_comodules_of_sweedler():
    # the coradical is spanned by the grouplikes 1 and g, so the simple
    # comodules are the two grouplike lines
    h = sweedler4()
    simples = simple_comodules(h.coalgebra)
    assert [v.dim for v in simples] == [1, 1]
    cols = sorted(tuple(v.coaction.column(0)) for v in simples)
    assert cols == sorted([tuple(basis_vector(QQ, 4, 0)), tuple(basis_vector(QQ, 4, 2))])


def test_comodule_to_dual_module_axioms():
    for h in (sweedler4(), function_algebra(QQ, symmetric_group_3())):
        right = comodule_to_dual_module(regular_comodule(h))
        assert right.side == "right" and check_module(right).ok
        left = comodule_to_dual_module(
            ComoduleData(h.field, h.dim, h.comult, h.coalgebra, "left"))
        assert left.side == "left" and check_module(left).ok


# -- hom and cotensor ---------------------------------------------------

def test_colinear_endomorphisms_of_regular_comodule():
    # End of the regular comodule is the dual algebra, so its dimension is
    # the dimension of the coalgebra
    for h in (sweedler4(), function_algebra(QQ, symmetric_group_3())):
        end = hom_colinear(regular_comodule(h), regular_comodule(h))
        assert end.dim == h.dim
    # maps from the trivial comodule pick out the coinvariants of the
    # regular coaction, which is the line through 1
    h = sweedler4()
    assert hom_colinear(trivial_comodule(h), regular_comodule(h)).dim == 1


def test_hom_linear_matches_intertwiners():
    a = group_algebra(QQ, symmetric_group_3()).algebra
    reg = regular_module(a, "right")
    # dim Hom(kG, kG) over kG equals |G| (right multiplications)
    assert hom_linear(reg, reg).dim == 6


def test_cotensor_of_regular_comodules():
    # H cotensor H over H is a copy of H embedded by the comultiplication
    for h in (sweedler4(), group_algebra(QQ, symmetric_group_3())):
        v = regular_comodule(h)
        w = left_regular_comodule(h)
        ct = cotensor(v, w)
        assert ct.dim == h.dim
        for i in range(h.dim):
            assert ct.contains(tuple(h.comult.column(i)))


def test_tensor_comodules_with_trivial():
    h = function_algebra(QQ, symmetric_group_3())
    reg = regular_comodule(h)
    t = tensor_comodules(h, reg, trivial_comodule(h))
    assert check_comodule(t).ok
    assert hom_colinear(t, reg).dim == 6


def test_comodule_on_subspace():
    # the span of the grouplikes 1 and g is a subcomodule of the regular
    # comodule of the four-dimensional instance
    h = sweedler4()
    s = Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, 0), basis_vector(QQ, 4, 2)])
    sub, incl = comodule_on_subspace(regular_comodule(h), s)
    assert sub.dim == 2 and check_comodule(sub).ok
    bad = Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, 1)])
    with pytest.raises(ValueError):
        comodule_on_subspace(regular_comodule(h), bad)


def _dense_restriction(v, s):
    """Oracle: the restricted coaction read off the canonical basis of
    s (x) C (C (x) s on the left) spanned by the vectors r (x) e_j, one
    coordinate vector per image of a basis row; None if some image is
    not in that span."""
    f = v.field
    dc = v.over.dim
    e = [basis_vector(f, dc, j) for j in range(dc)]
    if v.side == "right":
        vecs = [_kron(f, r, ej) for r in s.rows for ej in e]
    else:
        vecs = [_kron(f, ej, r) for ej in e for r in s.rows]
    amb = Subspace.from_vectors(f, v.dim * dc, vecs)
    cols = [amb.coords(v.coaction.apply(r)) for r in s.rows]
    if None in cols:
        return None
    return LinMap(f, amb.dim, s.dim, {(i, j): x for j, col in enumerate(cols)
                                      for i, x in enumerate(col)})


def _kron(f, a, b):
    return tuple(f.mul(x, y) for x in a for y in b)


def _generated(v, vec):
    """The smallest subcomodule containing vec: the span of the legs
    (id (x) e_j*) of its coaction (e_j* (x) id on the left)."""
    dc = v.over.dim
    img = v.coaction.apply(vec)
    if v.side == "right":
        legs = [img[j::dc] for j in range(dc)]
    else:
        legs = [img[j * v.dim:(j + 1) * v.dim] for j in range(dc)]
    return Subspace.from_vectors(v.field, v.dim, legs)


def _sample_comodules(h):
    """Regular and trivial (three copies of the unit) comodules, both sides."""
    f = h.field
    c = h.coalgebra
    unit = LinMap.from_column(f, h.unit_vector())
    i3 = LinMap.identity(f, 3)
    return (ComoduleData(f, h.dim, h.comult, c, "right"),
            ComoduleData(f, h.dim, h.comult, c, "left"),
            ComoduleData(f, 3, i3.tensor(unit), c, "right"),
            ComoduleData(f, 3, unit.tensor(i3), c, "left"))


@pytest.mark.parametrize("h", [
    sweedler4(),
    function_algebra(QQ, symmetric_group_3()),
    taft(3, GF(7)),
    group_algebra(GF(5), symmetric_group_3()),
], ids=["sweedler4", "kS3-functions", "taft3-GF7", "GF5-S3"])
def test_comodule_on_subspace_matches_the_dense_formula(h):
    f = h.field
    rng = Random(20261201)
    for v in _sample_comodules(h):
        assert check_comodule(v).ok
        for _ in range(6):
            vecs = [tuple(f.from_int(rng.randint(-1, 1)) for _ in range(v.dim))
                    for _ in range(rng.randint(1, 2))]
            s = Subspace.zero(f, v.dim)
            for vec in vecs:
                s = s.sum_with(_generated(v, vec))
            sub, incl = comodule_on_subspace(v, s)
            assert (sub.dim, sub.side) == (s.dim, v.side)
            assert sub.coaction == _dense_restriction(v, s)
            assert incl == s.basis_map()
            assert check_comodule(sub).ok
            line = Subspace.from_vectors(f, v.dim, vecs[:1])
            if _generated(v, vecs[0]).dim > line.dim:
                # the generated subcomodule is the smallest one, so a
                # line strictly inside it is not invariant
                assert _dense_restriction(v, line) is None
                with pytest.raises(ValueError):
                    comodule_on_subspace(v, line)


# -- coalgebra map recovery --------------------------------------------

def test_recover_coalgebra_map_roundtrip():
    h = sweedler4()
    psi, rep = recover_coalgebra_map(h, h.coalgebra, h.comult)
    assert rep.ok
    assert psi == LinMap.identity(QQ, 4)


def test_recover_coalgebra_map_rejects_flipped_coaction():
    # the counit of the flipped comultiplication still reads off the
    # identity, but the regeneration check sees the twist
    h = sweedler4()
    _, rep = recover_coalgebra_map(h, h.coalgebra, h.coalgebra.cop().comult)
    assert [c.name for c in rep.failures()] == ["coaction-regenerated"]


def test_corestriction_keeps_axioms():
    h = sweedler4()
    v = corestrict_comodule(regular_comodule(h), h.coalgebra, LinMap.identity(QQ, 4))
    assert check_comodule(v).ok


def test_restricted_comultiplication_matches_the_hand_written_factor():
    # oracle: inv o coords placed on the left leg and lifted back with the
    # inclusion.  The inclusions are not the canonical bases, so inv is no
    # identity; span{1, x} of sweedler4 is no right coideal, span{1, g} is
    h = sweedler4()
    # columns 1, 1 + x and 1 + g, 1 - g in the basis 1, x, g, gx; only the
    # second column of the first leaves, so the witness is not column 0
    for cols, ok in (([{0: 1}, {0: 1, 1: 1}], False),
                     ([{0: 1, 2: 1}, {0: 1, 2: -1}], True)):
        inc = LinMap(QQ, 4, 2, {(i, j): v for j, col in enumerate(cols)
                                for i, v in col.items()})
        coords = image_of(inc).coords_map()
        inv = invert(coords @ inc)
        image = h.comult @ inc
        delta = on_leg(1, inv @ coords, h.dim, image)
        diff = on_leg(1, inc, h.dim, delta) - image
        got, check = restricted_comultiplication(h, inc)
        assert got == delta
        assert check == ("coproduct-stays-in-subspace", diff.is_zero(),
                         _witness(diff, [_default_labels(2, "a")]))
        assert check[1] == ok and (check[2] is None) == ok
