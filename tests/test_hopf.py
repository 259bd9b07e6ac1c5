"""Axiom suites, duals, pairings and hit actions on the catalog instances.

Expected values are frozen from the independent oracle stated at each site:
hand-computed translation actions for function algebras, a symbolic
nonlinear solve for grouplike elements, and structure identities checked at
the level of whole matrices.
"""

import ast
import itertools
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

import coideals
from coideals import hopf
from coideals.catalog import (
    canonical_pairing,
    cyclic_group,
    evaluation_pairing,
    function_algebra,
    group_algebra,
    subgroup_data,
    sweedler4,
    symmetric_group_3,
    taft,
)
from coideals.certs import VerificationFailed
from coideals.cli import main
from coideals.fields import GF, QQ
from coideals.hopf import (
    AlgebraData,
    CoalgebraData,
    HopfAlgebraData,
    PairingData,
    _witness,
    antipode_bijective,
    antipode_order,
    check_hopf_axioms,
    check_pairing,
    dual_hopf,
    hit_action,
)
from coideals.linalg import DimensionMismatchError, LinMap, basis_vector, regroup
from coideals.specfile import save_spec, spec_from_hopf, spec_from_quotient


def catalog_instances():
    return [
        group_algebra(QQ, cyclic_group(2), "kC2"),
        group_algebra(QQ, symmetric_group_3(), "kS3"),
        function_algebra(QQ, symmetric_group_3(), "funS3"),
        sweedler4(),
        taft(3, GF(7)),
        taft(6, GF(7)),
    ]


@pytest.mark.parametrize("h", catalog_instances(), ids=lambda h: h.name)
def test_axiom_suite_passes(h):
    rep = check_hopf_axioms(h)
    assert rep.ok, str(rep)


def test_axiom_suite_covers_all_structure():
    rep = check_hopf_axioms(sweedler4())
    names = {c.name for c in rep.checks}
    assert {"assoc", "unit", "coassoc", "counit", "comult-multiplicative",
            "comult-unital", "counit-multiplicative", "counit-unital",
            "antipode-left", "antipode-right"} <= names


def test_broken_counit_reports_first_witness():
    kc2 = group_algebra(QQ, cyclic_group(2))
    # counit sending the order-two grouplike to 0 breaks the counit law at g
    bad = CoalgebraData(QQ, 2, kc2.comult, LinMap(QQ, 1, 2, {(0, 0): Fr(1)}),
                        kc2.labels)
    rep = bad.check()
    fail = {c.name: c for c in rep.checks if not c.ok}
    assert set(fail) == {"counit"}
    assert fail["counit"].witness == "(g)"


def test_broken_antipode_reports_first_witness():
    h = sweedler4()
    # identity antipode: on the skew primitive x (basis index 1) the antipode
    # law gives x + gx instead of 0, and index 0 (the unit) still passes
    bad = HopfAlgebraData(h.algebra, h.coalgebra, LinMap.identity(QQ, 4), "bad")
    rep = check_hopf_axioms(bad)
    fail = {c.name: c for c in rep.checks if not c.ok}
    assert "antipode-left" in fail and fail["antipode-left"].witness == "(x)"
    assert "antipode-right" in fail


def _flip(f, d):
    """The flip of k^d (x) k^d as a matrix."""
    return regroup(LinMap.identity(f, d * d), (d, d), (d * d,), (1, 0), (2,))


def materialized_comult_multiplicative(h):
    """Reference oracle: the whole difference map
    comult.mult - (mult (x) mult)(id (x) swap (x) id)(comult (x) comult),
    built as matrices, and its first nonzero column as the witness."""
    f, d = h.field, h.dim
    i_d = LinMap.identity(f, d)
    mult_hh = h.mult.tensor(h.mult) @ i_d.tensor(_flip(f, d).tensor(i_d))
    dm = h.comult @ h.mult - mult_hh @ h.comult.tensor(h.comult)
    return dm.is_zero(), _witness(dm, [h.labels] * 2)


def comult_multiplicative(h):
    rep = check_hopf_axioms(h)
    (c,) = [c for c in rep.checks if c.name == "comult-multiplicative"]
    return c.ok, c.witness


def add_to_one_entry(m, rng):
    f = m.field
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    delta = f.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
    ent = dict(m.entries())
    ent[(r, c)] = f.add(m.entry(r, c), delta)
    return LinMap(f, m.rows, m.cols, ent)


def with_map(h, which, m):
    """h with the structure map named which replaced by m."""
    a, c = h.algebra, h.coalgebra
    maps = {"mult": a.mult, "unit": a.unit, "comult": c.comult,
            "counit": c.counit, "antipode": h.antipode, which: m}
    return HopfAlgebraData(
        AlgebraData(a.field, a.dim, maps["mult"], maps["unit"], a.labels),
        CoalgebraData(c.field, c.dim, maps["comult"], maps["counit"], c.labels),
        maps["antipode"], "bad")


@pytest.mark.parametrize("which", ["mult", "comult"])
@pytest.mark.parametrize("h", [sweedler4(), taft(3, GF(7)),
                               group_algebra(QQ, symmetric_group_3(), "kS3")],
                         ids=lambda h: h.name)
def test_comult_multiplicative_matches_materialized_formula(h, which):
    assert comult_multiplicative(h) == materialized_comult_multiplicative(h) == (True, None)
    for seed in range(30):
        rng = Random(seed)
        m = h.mult if which == "mult" else h.comult
        bad = with_map(h, which, add_to_one_entry(m, rng))
        assert comult_multiplicative(bad) == materialized_comult_multiplicative(bad), seed


def materialized_checks(h):
    """Reference oracle: (name, ok, witness) of every axiom check, each
    evaluated as a difference of composed matrices, mult (x) id and the
    like built as Kronecker products."""
    f, d, lbl = h.field, h.dim, h.labels
    i_d = LinMap.identity(f, d)
    mult, unit, comult, counit, anti = (h.mult, h.unit, h.comult, h.counit,
                                        h.antipode)

    def one_map(name, diff, label_lists):
        return name, diff.is_zero(), _witness(diff, label_lists)

    def two_sided(name, lu, ru):
        first = lu if not lu.is_zero() else ru
        return name, lu.is_zero() and ru.is_zero(), _witness(first, [lbl])

    ue = unit @ counit
    return [
        one_map("assoc", mult @ mult.tensor(i_d) - mult @ i_d.tensor(mult),
                [lbl] * 3),
        two_sided("unit", mult @ unit.tensor(i_d) - i_d,
                  mult @ i_d.tensor(unit) - i_d),
        one_map("coassoc", comult.tensor(i_d) @ comult
                - i_d.tensor(comult) @ comult, [lbl]),
        two_sided("counit", counit.tensor(i_d) @ comult - i_d,
                  i_d.tensor(counit) @ comult - i_d),
        ("comult-multiplicative",) + materialized_comult_multiplicative(h),
        ("comult-unital", (comult @ unit - unit.tensor(unit)).is_zero(), None),
        one_map("counit-multiplicative",
                counit @ mult - counit.tensor(counit), [lbl] * 2),
        ("counit-unital", counit @ unit == LinMap.identity(f, 1), None),
        one_map("antipode-left", mult @ anti.tensor(i_d) @ comult - ue, [lbl]),
        one_map("antipode-right", mult @ i_d.tensor(anti) @ comult - ue, [lbl]),
    ]


def sparse_checks(h):
    return [(c.name, c.ok, c.witness) for c in check_hopf_axioms(h).checks]


@pytest.mark.parametrize("which", ["mult", "unit", "comult", "counit", "antipode"])
@pytest.mark.parametrize("h", [sweedler4(), taft(3, GF(7)),
                               group_algebra(QQ, symmetric_group_3(), "kS3"),
                               function_algebra(QQ, symmetric_group_3(), "k^S3")],
                         ids=lambda h: h.name)
def test_every_check_matches_materialized_formula(h, which):
    assert sparse_checks(h) == materialized_checks(h)
    assert all(ok for _, ok, _ in sparse_checks(h))
    maps = {"mult": h.mult, "unit": h.unit, "comult": h.comult,
            "counit": h.counit, "antipode": h.antipode}
    for seed in range(30):
        bad = with_map(h, which, add_to_one_entry(maps[which], Random(seed)))
        assert sparse_checks(bad) == materialized_checks(bad), seed
        if which == "counit":
            # eps(1) = 1 stays, so counit-multiplicative runs on the
            # generating set
            bad = with_map(h, which, add_off_the_unit(h, Random(seed)))
            assert ("counit-unital", True, None) in sparse_checks(bad)
            assert sparse_checks(bad) == materialized_checks(bad), seed


def add_off_the_unit(h, rng):
    """h.counit plus delta (u_b e_c - u_c e_b) for basis indices b != c,
    with u the unit vector, so eps(1) does not change."""
    f, u = h.field, h.unit_vector()
    b, c = rng.sample(range(h.dim), 2)
    while not (u[b] or u[c]):
        b, c = rng.sample(range(h.dim), 2)
    delta = f.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
    eps = [h.counit.entry(0, a) for a in range(h.dim)]
    eps[c] = f.add(eps[c], f.mul(delta, u[b]))
    eps[b] = f.sub(eps[b], f.mul(delta, u[c]))
    return LinMap.from_row(f, eps)


def add_to_unit_coproduct(h, rng):
    """h.comult with one entry changed in the column of a basis element in
    the support of the unit, so Delta(1) != 1 (x) 1."""
    m, f = h.comult, h.field
    c = rng.choice([r for (r, _), _ in h.unit.entries()])
    r = rng.randrange(m.rows)
    delta = f.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))
    ent = dict(m.entries())
    ent[(r, c)] = f.add(m.entry(r, c), delta)
    return LinMap(f, m.rows, m.cols, ent)


@pytest.mark.parametrize("h", [sweedler4(), taft(3, GF(7)),
                               group_algebra(QQ, symmetric_group_3(), "kS3"),
                               function_algebra(QQ, symmetric_group_3(), "k^S3")],
                         ids=lambda h: h.name)
def test_unit_coproduct_mutations_match_materialized_formula(h):
    # comult-multiplicative is checked on the generating set only when
    # comult-unital holds; with that precondition dropped, seeds 27, 37, 38,
    # 106 and 151 on k^S3 give a wrong verdict or witness
    for seed in [*range(30), 37, 38, 106, 151]:
        bad = with_map(h, "comult", add_to_unit_coproduct(h, Random(seed)))
        assert sparse_checks(bad) == materialized_checks(bad), seed


def test_unit_law_failure_disables_the_reduced_checks():
    # u*u = n is the only nonzero product, and the claimed unit is u: assoc
    # holds (every triple product is 0), the unit law fails (u*n = 0), and
    # Delta(u) = u (x) u keeps comult-unital.  The generating set is (n),
    # on whose pairs Delta is multiplicative, but Delta(u*u) = Delta(n) = 0
    # while Delta(u)Delta(u) = n (x) n; only the full scan sees (u, u).
    one = QQ.one
    alg = AlgebraData(QQ, 2, LinMap(QQ, 2, 4, {(0, 3): one}),
                      LinMap(QQ, 2, 1, {(1, 0): one}), ("n", "u"))
    coal = CoalgebraData(QQ, 2, LinMap(QQ, 4, 2, {(3, 1): one}),
                         LinMap.zero(QQ, 1, 2), ("n", "u"))
    bad = HopfAlgebraData(alg, coal, LinMap.zero(QQ, 2, 2), "bad")
    assert hopf._generating_set(alg, alg.mult.sparse_columns()) == (0,)
    assert sparse_checks(bad) == materialized_checks(bad)
    assert comult_multiplicative(bad) == (False, "(u, u)")


def with_counit_values(h, values):
    """h with eps(e_i) = values[label of e_i] for the labels given."""
    eps = [values.get(lbl, h.counit.entry(0, i))
           for i, lbl in enumerate(h.labels)]
    return with_map(h, "counit", LinMap.from_row(h.field, eps))


def check(h, name):
    (c,) = [c for c in check_hopf_axioms(h).checks if c.name == name]
    return c.ok, c.witness


# Sweedler's algebra is generated by x and g, and the unit 1 = e_0 is not in
# the generating set.  In each instance below one precondition of a reduced
# check fails, every other one holds, and the check run on x and g alone
# would give the wrong verdict or witness.
def test_counit_unital_failure_keeps_the_full_counit_scans():
    # eps = 0 is multiplicative, but eps(1) = 0: the counit law fails at
    # every basis element, first at 1, which x and g alone would miss
    bad = with_counit_values(sweedler4(), {"1": QQ.zero, "g": QQ.zero})
    assert check(bad, "counit-multiplicative") == (True, None)
    assert check(bad, "counit") == (False, "(1)")
    assert sparse_checks(bad) == materialized_checks(bad)
    # eps(1) = 0 alone: eps(1 g) = 1 but eps(1) eps(g) = 0, so
    # counit-multiplicative fails first at (1, g); on x and g it would
    # report (g, 1)
    bad = with_counit_values(sweedler4(), {"1": QQ.zero})
    assert check(bad, "counit-multiplicative") == (False, "(1, g)")
    assert sparse_checks(bad) == materialized_checks(bad)


def test_counit_multiplicative_failure_keeps_the_full_counit_scan():
    # eps(gx) = 5 keeps eps(1) = 1, but eps(x g) = eps(-gx) = -5 while
    # eps(x) eps(g) = 0; the counit law fails only at gx, which x and g
    # alone would pass
    bad = with_counit_values(sweedler4(), {"gx": QQ.from_int(5)})
    assert check(bad, "counit-unital") == (True, None)
    assert check(bad, "counit-multiplicative") == (False, "(x, g)")
    assert check(bad, "counit") == (False, "(gx)")
    assert sparse_checks(bad) == materialized_checks(bad)


def test_comult_unital_failure_keeps_the_full_coalgebra_scans():
    # Delta = 0 is multiplicative and coassociative, but Delta(1) = 0: the
    # counit law fails at every basis element, first at 1
    h = sweedler4()
    bad = with_map(h, "comult", LinMap.zero(QQ, 16, 4))
    assert check(bad, "comult-multiplicative") == (True, None)
    assert check(bad, "comult-unital") == (False, None)
    assert check(bad, "counit") == (False, "(1)")
    assert sparse_checks(bad) == materialized_checks(bad)


GENERATORS = [
    (sweedler4(), ("x", "g")),
    *[(taft(n, GF(p)), ("x", "g"))
      for n, p in ((2, 3), (3, 7), (4, 5), (5, 11), (6, 7))],
    (group_algebra(QQ, symmetric_group_3(), "kS3"), ("r", "s")),
    (function_algebra(QQ, symmetric_group_3(), "k^S3"),
     ("de", "dr", "dr2", "ds", "drs")),
    (group_algebra(QQ, cyclic_group(1), "k"), ()),
]


@pytest.mark.parametrize("h, generators", GENERATORS,
                         ids=[h.name for h, _ in GENERATORS])
def test_generating_set_is_pinned(h, generators):
    gens = hopf._generating_set(h.algebra, h.mult.sparse_columns())
    assert tuple(h.labels[i] for i in gens) == generators


def test_comult_multiplicative_compares_only_generator_pairs(monkeypatch):
    # taft(6) is generated by x and g: 2 * 36 pairs, not 36 * 36
    pairs = []
    at = hopf._comult_multiplicative_at
    monkeypatch.setattr(
        hopf, "_comult_multiplicative_at",
        lambda f, d, prod, coproducts, i, j:
        pairs.append((i, j)) or at(f, d, prod, coproducts, i, j))
    assert check_hopf_axioms(taft(6, GF(7))).ok
    assert len(pairs) == 72


def summed_columns(monkeypatch):
    """A list that gets, for each hopf._difference call, the shape of the
    difference map and the number of columns its terms reach."""
    seen = []
    difference = hopf._difference

    def counting(f, rows, cols, lhs, rhs):
        lhs, rhs = list(lhs), list(rhs)
        seen.append(((rows, cols), len({c for (_, c), _ in lhs + rhs})))
        return difference(f, rows, cols, lhs, rhs)

    monkeypatch.setattr(hopf, "_difference", counting)
    return seen


def test_reduced_checks_sum_only_generator_columns(monkeypatch):
    # taft(6) is generated by x and g: coassoc and the two counit laws sum
    # 2 of the 36 columns and counit-multiplicative 2 * 36 of the 36 * 36
    # pairs; the unit and antipode laws sum all 36 columns (assoc, reduced
    # as well, is left out: many of its columns have no terms)
    seen = summed_columns(monkeypatch)
    assert check_hopf_axioms(taft(6, GF(7))).ok
    d = 36
    columns = {}
    for shape, n in seen:
        columns.setdefault(shape, []).append(n)
    del columns[d, d ** 3]
    assert {shape: sorted(n) for shape, n in columns.items()} == {
        (d ** 3, d): [2],
        (d, d): [2, 2, d, d, d, d],
        (1, d * d): [2 * d],
        (d * d, 1): [1],
        (1, 1): [1],
    }


def test_coalgebra_check_alone_scans_every_column(monkeypatch):
    seen = summed_columns(monkeypatch)
    assert taft(6, GF(7)).coalgebra.check().ok
    assert [n for _, n in seen] == [36, 36, 36]


def test_axiom_checks_build_no_kronecker_product(monkeypatch):
    # check_hopf_axioms runs AlgebraData.check and CoalgebraData.check too
    calls = []
    for name in ("tensor", "__matmul__"):
        method = getattr(LinMap, name)
        monkeypatch.setattr(
            LinMap, name,
            lambda self, other, method=method, name=name:
            calls.append(name) or method(self, other))
    assert check_hopf_axioms(taft(6, GF(7))).ok
    assert calls == []


def test_broken_comult_multiplicative_reports_first_pair():
    h = sweedler4()
    # x*x = 1 instead of 0 (column x(x)x = 1*4 + 1 of mult): then
    # Delta(x x) = 1 (x) 1, while with Delta(x) = x (x) 1 + g (x) x and
    # xg = -gx, Delta(x)Delta(x) = x^2 (x) 1 + g^2 (x) x^2 = 2 (1 (x) 1).
    # Every earlier pair (1, -) and (x, 1) only multiplies by the unit.
    ent = dict(h.mult.entries())
    ent[(0, 5)] = Fr(1)
    bad = with_map(h, "mult", LinMap(QQ, 4, 16, ent))
    assert comult_multiplicative(bad) == (False, "(x, x)")


@pytest.mark.parametrize("label_lists, column", [
    ([("a", "b", "c")], 1),
    ([("a", "b", "c")] * 2, 5),
    ([("a", "b")] * 3, 6),
    ([("m0", "m1"), ("x", "y", "z")], 4),
    ([("v0",), ("p", "q"), ("r", "s", "t")], 4),
    ([("m0", "m1", "m2"), ("x", "y"), ("x", "y")], 9),
], ids=["arity1", "arity2", "arity3", "mixed2", "mixed3-unit-leg", "mixed3"])
def test_witness_names_the_lowest_nonzero_column(label_lists, column):
    # oracle: the product of the label lists in row-major order lists the
    # basis tuples in the order of the columns of a map out of the tensor
    # product; the entry first in row-major order sits in the last column,
    # so the witness must take the lowest column over all rows
    tuples = list(itertools.product(*label_lists))
    n = len(tuples)
    diff = LinMap(QQ, 3, n, {(0, n - 1): QQ.one, (1, column + 1): QQ.one,
                             (2, column): QQ.from_int(-3)})
    assert _witness(diff, label_lists) == "(" + ", ".join(tuples[column]) + ")"
    assert _witness(LinMap.zero(QQ, 3, n), label_lists) is None


@pytest.mark.parametrize("build, message", [
    (lambda h: AlgebraData(QQ, 4, h.mult.transpose(), h.unit),
     "mult must be 4x16, got 16x4"),
    (lambda h: AlgebraData(QQ, 4, h.mult, h.counit), "unit must be 4x1, got 1x4"),
    (lambda h: CoalgebraData(QQ, 4, h.mult, h.counit), "comult must be 16x4, got 4x16"),
    (lambda h: CoalgebraData(QQ, 4, h.comult, h.unit), "counit must be 1x4, got 4x1"),
    (lambda h: HopfAlgebraData(h.algebra, group_algebra(QQ, cyclic_group(2)).coalgebra,
                               h.antipode),
     "algebra has dim 4, coalgebra has dim 2"),
    (lambda h: HopfAlgebraData(h.algebra, h.coalgebra, LinMap.identity(QQ, 3)),
     "antipode must be 4x4, got 3x3"),
    (lambda h: PairingData(h, h, h.counit), "form must be 1x16, got 1x4"),
])
def test_structure_shapes_are_checked(build, message):
    with pytest.raises(DimensionMismatchError) as err:
        build(sweedler4())
    assert str(err.value) == message


@pytest.mark.parametrize("call,message", [
    ("HopfAlgebraData(h.algebra, h.coalgebra, LinMap.identity(h.field, 3))",
     "DimensionMismatchError antipode must be 4x4, got 3x3"),
    ("Subspace.full(h.field, 4).sum_with(Subspace.full(h.field, 3))",
     "DimensionMismatchError ambient dimensions 4 and 3"),
    ("quotient_data(h, h.coalgebra, LinMap.identity(h.field, 4), h.mult,"
     " section=LinMap.identity(h.field, 4).scale(h.field.from_int(2)))",
     "ValueError projection after section is not the identity"),
    ("restrict_algebra(matrix_algebra(h.field, 2), Subspace.from_vectors("
     "h.field, 4, [(0, 1, 0, 0), (0, 0, 1, 0)]))",
     "ValueError subspace is not closed under the product"),
], ids=["hopf", "linalg", "correspondence", "repcats"])
def test_shape_check_survives_python_O(call, message):
    # python -O strips assert statements; the checks must still refuse
    code = (
        "from coideals.catalog import sweedler4\n"
        "from coideals.correspondence import quotient_data\n"
        "from coideals.hopf import HopfAlgebraData\n"
        "from coideals.linalg import LinMap, Subspace\n"
        "from coideals.repcats import matrix_algebra, restrict_algebra\n"
        "h = sweedler4()\n"
        "print(__debug__)\n"
        "try:\n"
        f"    {call}\n"
        "except ValueError as err:\n"
        "    print(type(err).__name__, err)\n"
    )
    src = str(Path(coideals.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["False", message]


def test_library_has_no_assert_statements():
    # python -O strips assert, so a validating assert in the library would
    # stop validating without a sound; checks raise explicit errors instead
    src = Path(coideals.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/coideals: " + ", ".join(found)


def _defaulted_parameters(tree):
    """(function, parameter, index) for every parameter with a default.
    index is the parameter's place among a call's positional arguments, so
    a method's self is not counted, and None when it is keyword-only; an
    __init__ is called by its class name."""
    out = []

    def visit(node, cls):
        for ch in ast.iter_child_nodes(node):
            if isinstance(ch, ast.ClassDef):
                visit(ch, ch.name)
            elif isinstance(ch, ast.FunctionDef):
                a = ch.args
                pos = a.posonlyargs + a.args
                skip = 1 if cls and pos and pos[0].arg in ("self", "cls") else 0
                name = cls if ch.name == "__init__" else ch.name
                first = len(pos) - len(a.defaults)
                out.extend((name, p.arg, i - skip)
                           for i, p in enumerate(pos) if i >= first)
                out.extend((name, p.arg, None)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None)
                visit(ch, None)
            else:
                visit(ch, cls)

    visit(tree, None)
    return out


def _sets(call, param, index):
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index
        or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_set_by_some_caller():
    # an option that no caller in the library, the tests, the demos or the
    # benchmark ever sets is a second code path that nothing reaches
    src = Path(coideals.__file__).resolve().parent
    params = []
    for path in sorted(src.glob("*.py")):
        params += [(path.name, *p) for p in
                   _defaulted_parameters(ast.parse(path.read_text()))]
    root = Path(__file__).resolve().parents[1]
    calls = {}
    for d in ("src", "tests", "demos", "bench"):
        for path in sorted((root / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id",
                                   getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
    unset = [f"{file}:{fn}({param}=)" for file, fn, param, index in params
             if not any(_sets(c, param, index) for c in calls.get(fn, ()))]
    assert not unset, "defaulted parameters no caller sets: " + ", ".join(unset)


def _names(node):
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        return (node.attr,)
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return tuple(a.name for a in node.names)
    return ()


def test_only_fields_names_fraction():
    # QQ keeps integral scalars as int and the rest as Fraction; a Fraction
    # built anywhere else would bypass that canonical form
    src = Path(coideals.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "fields.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if "Fraction" in _names(node)]
    assert not found, "Fraction named outside fields.py: " + ", ".join(found)


def _is_call_of(node, method):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == method)


def _matmul_operands(node):
    """The operands that meet at a matmul node: the rightmost factor of
    its left side and the leftmost factor of its right side."""
    left, right = node.left, node.right
    while isinstance(left, ast.BinOp) and isinstance(left.op, ast.MatMult):
        left = left.right
    while isinstance(right, ast.BinOp) and isinstance(right.op, ast.MatMult):
        right = right.left
    return left, right


def _bound_to(fn, is_value):
    """The names that fn assigns a value to that is_value accepts."""
    return {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
            and is_value(node.value)
            for t in node.targets if isinstance(t, ast.Name)}


def _coords_on_a_leg(fn):
    """Lines in fn where the leg map of an on_leg or after_leg call holds a
    coords_map() call, or a name that fn binds to one."""
    bound = _bound_to(fn, lambda x: _is_call_of(x, "coords_map"))
    found = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        k = {("on_leg",): 1, ("after_leg",): 2}.get(_names(node.func))
        if k is not None and len(node.args) > k and any(
                _is_call_of(x, "coords_map") or isinstance(x, ast.Name) and x.id in bound
                for x in ast.walk(node.args[k])):
            found.append(node.lineno)
    return found


def test_subspace_factor_is_the_one_membership_path():
    # a map lands in a subspace, and gets its coordinates there, through
    # Subspace.factor; no ambient projector basis_map() @ coords_map() and
    # neither of the helpers it replaced.  Likewise an operator on a map
    # space is placed (linalg.on_leg, on_leg_operator), never built by
    # applying it to each elementary map as matrix_of_operator did, and a
    # spanned subspace is image_of a placed map, never eliminated from
    # dense vectors written by hand as _times_basis and _span_mats did
    # (the first coproduct outside a span is named by factor and
    # hopf._witness, not by _first_coproduct_outside).  Structure theory
    # runs on the same builders: an algebra of matrices is restrict_algebra
    # of repcats.matrix_algebra, not algebra_from_matrix_span; a center or
    # commutant is a kernel or a meet of subspaces, not commutant_in_span
    # or full_commutant; a closure or a minimal polynomial is one run of
    # the elimination kernel, not _coords_in; the radical reads mult, not
    # _trace of operator products; and no map is flattened to a dense
    # vector or back (map_to_vec, vec_to_map, _combination) or built as a
    # multiplication operator (left_mult_by, right_mult_by).  A diagonal
    # coaction is linalg.diagonal, not a Kronecker product swapped and
    # contracted by _contract.  A map factors through k^a (x) S (x) k^b by
    # factor(m, a, b): no leg span is eliminated to test membership
    # (_leg_span), and outside linalg no on_leg or after_leg leg map holds
    # a coords_map() result, called there or through a name bound to one
    # in the same function.  Tensor legs move by linalg.regroup: no flip
    # matrix (swap_map) and no hand-written reindexing (_stacked_maps,
    # _interleave_blocks)
    src = Path(coideals.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            names = _names(node)
            if isinstance(node, ast.FunctionDef):
                names += (node.name,)
            if {"contains_subspace", "left_inverse", "matrix_of_operator",
                    "_times_basis", "_first_coproduct_outside",
                    "_span_mats", "algebra_from_matrix_span",
                    "commutant_in_span", "full_commutant", "_combination",
                    "_coords_in", "_trace", "map_to_vec", "vec_to_map",
                    "left_mult_by", "right_mult_by", "_contract",
                    "_leg_span", "swap_map", "_stacked_maps",
                    "_interleave_blocks"} & set(names):
                found.append(f"{path.name}:{node.lineno}")
            if path.name != "linalg.py" and isinstance(node, ast.FunctionDef):
                found += [f"{path.name}:{n} leg factor" for n in _coords_on_a_leg(node)]
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                left, right = _matmul_operands(node)
                if _is_call_of(left, "basis_map") and _is_call_of(right, "coords_map"):
                    found.append(f"{path.name}:{node.lineno} projector")
    assert not found, ("second membership, map-space operator, dense span, "
                       "dense structure theory or leg reindexing paths in "
                       "src/coideals: "
                       + ", ".join(found))


def _is_identity_call(node):
    """identity_map(...) or LinMap.identity(...)."""
    if not isinstance(node, ast.Call):
        return False
    fn = node.func
    return (isinstance(fn, ast.Name) and fn.id == "identity_map") or (
        isinstance(fn, ast.Attribute) and fn.attr == "identity"
        and isinstance(fn.value, ast.Name) and fn.value.id == "LinMap")


def _identity_under_a_leg(fn):
    """Lines in fn where the map that an on_leg call places its leg map on
    (the fourth argument) is an identity call, or a name that fn binds to
    one."""
    bound = _bound_to(fn, _is_identity_call)
    return [node.lineno for node in ast.walk(fn)
            if isinstance(node, ast.Call) and _names(node.func) == ("on_leg",)
            and len(node.args) > 3 and (
                _is_identity_call(node.args[3]) or isinstance(node.args[3], ast.Name)
                and node.args[3].id in bound)]


def test_no_kronecker_product_takes_a_built_identity():
    # a map on one tensor leg goes through linalg.on_leg or after_leg; an
    # identity built to be a factor of tensor is the idiom they replace.
    # A leg map wanted as a matrix, I_a (x) g (x) I_b, is linalg.placed,
    # so outside linalg no on_leg places its leg map on an identity, called
    # there or through a name bound to one in the same function
    src = Path(coideals.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if _is_call_of(node, "tensor") and any(
                    _is_identity_call(x) for x in (node.func.value, *node.args)):
                found.append(f"{path.name}:{node.lineno}")
            if path.name != "linalg.py" and isinstance(node, ast.FunctionDef):
                found += [f"{path.name}:{n} on_leg of an identity"
                          for n in _identity_under_a_leg(node)]
    assert not found, ("identity factors of tensor or identities under on_leg "
                       "in src/coideals: " + ", ".join(found))


def test_only_check_pairing_builds_a_kronecker_product():
    # a swap-and-contract of two maps is linalg.diagonal and a map on one
    # leg is placed, so the one product left is the pairing form with
    # itself, two 1-row functionals with nothing contracted away
    src = Path(coideals.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and path.name == "hopf.py"
                   and fn.name == "check_pairing" for node in ast.walk(fn)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _is_call_of(node, "tensor") and id(node) not in allowed]
    assert not found, "tensor called outside hopf.check_pairing: " + ", ".join(found)


def test_theorem2_builds_no_identity_factor(monkeypatch, tmp_path):
    # theorem2 on k^S3 with the quotient by the order-two subgroup builds
    # no Kronecker product at all: before maps on one leg were placed, 277
    # of its 291 tensor calls had an identity factor, and before diagonal
    # coactions were contracted term by term the other 14 remained
    g = symmetric_group_3()
    save_spec(spec_from_hopf(function_algebra(QQ, g, name="k^S3")),
              tmp_path / "ks3fun.spec")
    save_spec(spec_from_quotient(subgroup_data(QQ, g, (0, 3))[2]),
              tmp_path / "quot3.spec")
    calls = []
    tensor = LinMap.tensor

    def counted(self, other):
        calls.append(f"{self.rows}x{self.cols} (x) {other.rows}x{other.cols}")
        return tensor(self, other)

    monkeypatch.setattr(LinMap, "tensor", counted)
    assert main(["theorem2", str(tmp_path / "ks3fun.spec"),
                 "--quotient", str(tmp_path / "quot3.spec")]) == 0
    assert not calls, "theorem2 called LinMap.tensor: " + ", ".join(calls)


PUBLIC_API = [
    "AlgebraData", "BicomoduleData", "CertReport", "CoalgebraData",
    "CoidealSubalgebraData", "ComoduleData", "GF", "HopfAlgebraData",
    "LinMap", "ModuleData", "PairingData", "QQ",
    "QuotientModuleCoalgebraData", "RelHopfModuleData", "Report", "SpecData",
    "SpecParseError", "Subspace", "VerificationFailed",
    "adjunction_unit_counit_check", "antipode_bijective", "antipode_order",
    "basis_vector", "c_semisimple_implication", "catalog", "certs",
    "check_comodule", "check_hopf_axioms", "check_module", "check_pairing",
    "check_relhopf", "check_representation", "classify_quantum", "coend",
    "coend_pre_equivalence", "coend_regular_isomorphism", "cohom",
    "coideal_annihilator", "coideal_as_relhopf", "coinvariants",
    "compare_talgebras_to_modules", "content_hash", "corestrict_comodule",
    "correspondence", "coset_function_subspace", "cotensor",
    "cotensor_psi_monad", "cyclic_group", "dual_hopf", "fields",
    "free_forget_monad", "function_algebra", "gamma_isomorphism",
    "group_algebra", "hom_colinear", "hopf", "identity_map",
    "identity_pre_equivalence", "internal_hom", "is_faithfully_coflat",
    "is_faithfully_flat", "is_quasi_finite", "linalg", "load_spec",
    "monadics", "morita", "mw_equivalence_check", "parse_spec",
    "quotient_data", "quotient_module_coalgebra", "regular_comodule",
    "regular_module", "regular_relhopf", "repcats", "report",
    "roundtrip_correspondence", "save_spec", "serialize_spec",
    "ses_cross_check", "simple_comodules", "specfile", "subgroup_data",
    "surjectivity_from_coflatness", "sweedler4", "symmetric_group_3", "taft",
    "tensor_comodules", "theorem2_pipeline", "trivial_comodule",
    "unit_object_algebra", "verify_coideal_subalgebra",
    "verify_pre_equivalence",
]


def test_public_api_is_pinned():
    # the names `import coideals` exposes are the contract; a fresh process
    # keeps submodules that other tests import (cli, suite) out of the list
    code = ("import coideals\n"
            "print(*sorted(n for n in dir(coideals) if not n.startswith('_')))")
    src = str(Path(coideals.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == PUBLIC_API


def test_pairing_axioms_hold_for_evaluation_pairings():
    g = symmetric_group_3()
    p = canonical_pairing(group_algebra(QQ, g), function_algebra(QQ, g))
    assert check_pairing(p).ok
    assert check_pairing(evaluation_pairing(sweedler4())).ok


def test_broken_pairing_fails():
    g = cyclic_group(2)
    kg, kf = group_algebra(QQ, g), function_algebra(QQ, g)
    p = canonical_pairing(kg, kf)
    bad = type(p)(kg, kf, p.form + LinMap(QQ, 1, 4, {(0, 1): Fr(1)}))
    rep = check_pairing(bad)
    assert not rep.ok


def test_hit_action_is_translation_on_cyclic_group():
    # oracle (hand computation): with the evaluation pairing of kG against
    # functions on G, hitting d_h from the right by a group element g gives
    # d_{g^-1 h}, and from the left gives d_{h g^-1}
    g = cyclic_group(2)
    kg, kf = group_algebra(QQ, g), function_algebra(QQ, g)
    p = canonical_pairing(kg, kf)
    right = hit_action(p, "right")
    de, dg = basis_vector(QQ, 2, 0), basis_vector(QQ, 2, 1)
    gv = basis_vector(QQ, 2, 1)
    assert right.act_by(gv).apply(de) == dg
    assert right.act_by(gv).apply(dg) == de
    assert right.act_by(basis_vector(QQ, 2, 0)) == LinMap.identity(QQ, 2)
    left = hit_action(p, "left")
    assert left.act_by(gv).apply(de) == dg


def test_hit_action_is_translation_on_s3():
    g = symmetric_group_3()
    kg, kf = group_algebra(QQ, g), function_algebra(QQ, g)
    p = canonical_pairing(kg, kf)
    right = hit_action(p, "right")
    left = hit_action(p, "left")
    n = g.order
    for gi in range(n):
        for hi in range(n):
            dv = basis_vector(QQ, n, hi)
            gv = basis_vector(QQ, n, gi)
            # d_h <- g = d_{g^-1 h}
            assert right.act_by(gv).apply(dv) == \
                basis_vector(QQ, n, g.mul(g.inverse[gi], hi))
            # g -> d_h = d_{h g^-1}
            assert left.act_by(gv).apply(dv) == \
                basis_vector(QQ, n, g.mul(hi, g.inverse[gi]))


def test_hit_action_certifies_module_axioms():
    g = symmetric_group_3()
    p = canonical_pairing(group_algebra(QQ, g), function_algebra(QQ, g))
    hit_action(p, "right")
    hit_action(p, "left")
    with pytest.raises(ValueError):
        hit_action(p, "middle")


def test_dual_is_an_involution_on_matrices():
    h = sweedler4()
    dd = dual_hopf(dual_hopf(h))
    assert dd.mult == h.mult
    assert dd.comult == h.comult
    assert dd.antipode == h.antipode
    assert dd.unit == h.unit
    assert dd.counit == h.counit


def test_dual_of_function_algebra_is_group_algebra():
    # oracle: multiplication of the dual of functions on G must reproduce
    # the Cayley table of G
    g = symmetric_group_3()
    dd = dual_hopf(function_algebra(QQ, g))
    kg = group_algebra(QQ, g)
    assert dd.mult == kg.mult
    assert dd.comult == kg.comult
    assert dd.antipode == kg.antipode


def test_antipode_orders():
    # sweedler4: S^2 is conjugation by the grouplike, so S has order 4;
    # taft(n): order 2n; group algebras: order 2 (inversion is an involution)
    assert antipode_order(sweedler4()) == 4
    assert antipode_order(taft(3, GF(7))) == 6
    assert antipode_order(group_algebra(QQ, symmetric_group_3())) == 2
    assert antipode_order(function_algebra(QQ, symmetric_group_3())) == 2
    ok, r = antipode_bijective(sweedler4())
    assert ok and r == 4


def test_antipode_is_coalgebra_antimorphism_matrixwise():
    # Delta . S = (S (x) S) . swap . Delta holds in any Hopf algebra; checking
    # the matrix identity proves it for every element at once
    for h in (sweedler4(), taft(3, GF(7)),
              function_algebra(QQ, symmetric_group_3())):
        f, d = h.field, h.dim
        lhs = h.comult @ h.antipode
        rhs = h.antipode.tensor(h.antipode) @ _flip(f, d) @ h.comult
        assert lhs == rhs, h.name


def test_taft_over_gf5_reduces_sweedler():
    s = sweedler4()
    f5 = GF(5)
    t = taft(2, f5, f5.from_int(-1))

    def reduce_map(m):
        ent = {}
        for (r, c), v in m.entries():
            assert Fr(v).denominator == 1
            x = f5.from_int(int(v))
            if x != 0:
                ent[(r, c)] = x
        return LinMap(f5, m.rows, m.cols, ent)

    assert reduce_map(s.mult) == t.mult
    assert reduce_map(s.comult) == t.comult
    assert reduce_map(s.antipode) == t.antipode


def test_grouplikes_of_sweedler_by_symbolic_solve():
    # independent oracle: solve Delta(v) = v (x) v, eps(v) = 1 with sympy's
    # nonlinear solver; the solutions must be exactly the unit and the
    # grouplike generator
    h = sweedler4()
    a = sympy.symbols("a0:4")
    comult_cols = [h.comult.column(i) for i in range(4)]
    dv = [sympy.Integer(0)] * 16
    for i in range(4):
        for r in range(16):
            dv[r] += a[i] * sympy.Rational(comult_cols[i][r])
    eqs = []
    for r in range(16):
        i, j = divmod(r, 4)
        eqs.append(sympy.Eq(dv[r], a[i] * a[j]))
    eps = sum(a[i] * sympy.Rational(h.counit.entry(0, i)) for i in range(4))
    eqs.append(sympy.Eq(eps, 1))
    sols = sympy.solve(eqs, list(a), dict=True)
    vecs = sorted(tuple(s.get(x, 0) for x in a) for s in sols)
    assert vecs == [(0, 0, 1, 0), (1, 0, 0, 0)]  # g and 1 in basis order


small_fr = st.integers(min_value=-3, max_value=3).map(Fr)
vec4 = st.tuples(small_fr, small_fr, small_fr, small_fr)


@settings(max_examples=40, deadline=None)
@given(u=vec4, v=vec4)
def test_antipode_antimultiplicative_on_vectors(u, v):
    h = sweedler4()
    lhs = h.antipode.apply(h.algebra.product(u, v))
    rhs = h.algebra.product(h.antipode.apply(v), h.antipode.apply(u))
    assert lhs == rhs
