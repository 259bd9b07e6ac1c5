"""Quasi-finiteness evidence, the left adjoint of tensoring by a fixed
comodule, coendomorphism coalgebras, and pre-equivalence data.

Expected values are frozen from independent oracles: colinear maps
between weight comodules of a function algebra exist exactly when the
weights match, so hom dimensions are weight-multiplicity counts; the
colinear endomorphisms of a regular comodule are convolutions by
functionals, so the coend of a regular comodule is the coalgebra itself
and the witness is written down directly; the two-weight instance over
the order-two function algebra is multiplied out by hand (diagonal
endomorphism algebra, so a two-dimensional coend with grouplike basis).
Identity data must always verify because both compatibility squares
degenerate to coassociativity."""

from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coideals.catalog import (
    cyclic_group,
    function_algebra,
    group_algebra,
    sweedler4,
    symmetric_group_3,
    taft,
)
from coideals.fields import GF, QQ
from coideals.linalg import LinMap, identity_map, rank
from coideals.repcats import (
    BicomoduleData,
    ComoduleData,
    check_comodule,
    check_representation,
    hom_colinear,
)
from coideals.morita import (
    PreEquivalenceData,
    coend,
    coend_pre_equivalence,
    coend_regular_isomorphism,
    cohom,
    dual_comodule,
    identity_pre_equivalence,
    is_quasi_finite,
    regular_comodule_of,
    verify_pre_equivalence,
)

ONE = QQ.one


@pytest.fixture(scope="module")
def kc2():
    return function_algebra(QQ, cyclic_group(2)).coalgebra


@pytest.fixture(scope="module")
def ks3():
    return function_algebra(QQ, symmetric_group_3()).coalgebra


def weight_comodule(c, signs, name):
    """Diagonal comodule over a function algebra: basis vector i has
    coaction v_i -> v_i (x) sum_g signs[i][g] d_g."""
    ent = {}
    for i, sg in enumerate(signs):
        for g, v in enumerate(sg):
            if v:
                ent[(i * c.dim + g, i)] = QQ.from_int(v)
    v = ComoduleData(c.field, len(signs), LinMap(c.field, len(signs) * c.dim,
                                                 len(signs), ent), c, "right", name)
    rep = check_comodule(v)
    assert rep.ok, rep.failures()
    return v


@pytest.fixture(scope="module")
def two_weight(kc2):
    return weight_comodule(kc2, [(1, 1), (1, -1)], "two-weight comodule")


@pytest.fixture(scope="module")
def triv_c2(kc2):
    return weight_comodule(kc2, [(1, 1)], "trivial weight")


@pytest.fixture(scope="module")
def sign_c2(kc2):
    return weight_comodule(kc2, [(1, -1)], "sign weight")


def s3_sign_comodule(ks3):
    signs = {"e": 1, "r": 1, "r2": 1, "s": -1, "rs": -1, "r2s": -1}
    row = tuple(signs[lbl.lstrip("d")] for lbl in ks3.labels)
    return weight_comodule(ks3, [row], "sign comodule")


# -- quasi-finiteness ---------------------------------------------------

class TestQuasiFinite:
    def test_weight_counts_over_s3(self, ks3):
        # maps between diagonal comodules match weights, so the counts
        # are weight multiplicities
        triv = weight_comodule(ks3, [(1,) * 6], "trivial")
        sign = s3_sign_comodule(ks3)
        reg = regular_comodule_of(ks3)
        res = is_quasi_finite(triv, (triv, sign, reg))
        assert res.ok and bool(res)
        assert res.hom_dims == (1, 0, 1)

    def test_regular_target(self, ks3):
        triv = weight_comodule(ks3, [(1,) * 6], "trivial")
        sign = s3_sign_comodule(ks3)
        reg = regular_comodule_of(ks3)
        # maps into the regular comodule are free of rank one per source
        # dimension, one functional each
        res = is_quasi_finite(reg, (triv, sign, reg))
        assert res.hom_dims == (1, 1, 6)

    def test_zero_comodule(self, ks3):
        zero = ComoduleData(QQ, 0, LinMap.zero(QQ, 0, 0), ks3, "right", "zero")
        res = is_quasi_finite(zero, (regular_comodule_of(ks3),))
        assert res.ok and res.hom_dims == (0,)

    def test_report_carries_dimension_witnesses(self, ks3):
        res = is_quasi_finite(regular_comodule_of(ks3),
                              (regular_comodule_of(ks3),))
        assert any("finite-dimensional" in a for a in res.report.assumptions)
        assert res.report.checks[0].witness == "dimension 6"

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2), st.integers(0, 2))
    def test_multiplicities_add(self, a, b):
        c = function_algebra(QQ, cyclic_group(2)).coalgebra
        rows = [(1, 1)] * a + [(1, -1)] * b
        if not rows:
            return
        m = weight_comodule(c, rows, "mixed weights")
        triv = weight_comodule(c, [(1, 1)], "trivial")
        sign = weight_comodule(c, [(1, -1)], "sign")
        assert is_quasi_finite(m, (triv, sign)).hom_dims == (a, b)


# -- the left adjoint ---------------------------------------------------

def regular_bicomodule(c):
    return BicomoduleData(c.field, c.dim, c, c, c.comult, c.comult,
                          "regular bicomodule")


class TestCohom:
    def test_regular_source_recovers_argument(self, ks3):
        # colinear maps out of the regular comodule are evaluations, so
        # the value at Y is Y itself; the counit of each basis map gives
        # the comparison matrix
        reg_bi = regular_bicomodule(ks3)
        for y in (weight_comodule(ks3, [(1,) * 6], "trivial"),
                  s3_sign_comodule(ks3),
                  regular_comodule_of(ks3)):
            res = cohom(reg_bi, y)
            assert res.ok
            assert res.dim == y.dim
            ent = {}
            for s, row in enumerate(res.hom_space.rows):
                # the basis map, unflattened entry-major
                psi = LinMap(QQ, 6, y.dim, {divmod(i, y.dim): v
                                            for i, v in enumerate(row) if v})
                for (_, col), v in (ks3.counit @ psi).entries():
                    ent[(s, col)] = v
            iso = LinMap(QQ, res.dim, y.dim, ent)
            d = res.comodule.coaction @ iso - iso.tensor(identity_map(QQ, 6)) @ y.coaction
            assert d.is_zero()
            assert rank(iso) == y.dim

    def test_zero_argument(self, ks3):
        zero = ComoduleData(QQ, 0, LinMap.zero(QQ, 0, 0), ks3, "right", "zero")
        res = cohom(regular_bicomodule(ks3), zero)
        assert res.ok and res.dim == 0

    def test_graded_counts(self, kc2, two_weight, triv_c2, sign_c2):
        x = coend(two_weight).bicomodule
        dims = [cohom(x, y).dim for y in (triv_c2, sign_c2, two_weight)]
        assert dims == [1, 1, 2]

    def test_adjunction_bookkeeping_names(self, ks3):
        res = cohom(regular_bicomodule(ks3), regular_comodule_of(ks3))
        names = [c.name for c in res.report.checks]
        assert "dimension bookkeeping at width 1" in names
        assert "bijection at width 2" in names
        assert "bijection natural in the width" in names
        assert any("colimit" in a for a in res.report.assumptions)

    def test_rejects_left_comodule(self, ks3, two_weight):
        left = dual_comodule(two_weight)
        with pytest.raises(ValueError):
            cohom(regular_bicomodule(ks3), left)


# -- coendomorphism coalgebras ------------------------------------------

class TestCoend:
    def test_two_weight_instance(self, two_weight):
        # endomorphisms are diagonal, so the coend is two-dimensional
        # with grouplike dual basis and counit (1, 1)
        res = coend(two_weight)
        assert res.ok and res.dim == 2
        for h in range(2):
            col = [res.comult.entry(r, h) for r in range(4)]
            want = [QQ.zero] * 4
            want[h * 2 + h] = ONE
            assert col == want
        assert [res.counit.entry(0, j) for j in range(2)] == [ONE, ONE]

    def test_trivial_comodule_gives_base_field(self, kc2, triv_c2):
        res = coend(triv_c2)
        assert res.dim == 1
        assert res.comult.entry(0, 0) == ONE
        assert res.counit.entry(0, 0) == ONE

    def test_carrier_is_certified_bicomodule(self, two_weight):
        res = coend(two_weight)
        rep = check_representation(res.bicomodule)
        assert rep.ok, rep.failures()

    def test_delegates_coalgebra_interface(self, two_weight):
        res = coend(two_weight)
        assert res.check().ok
        assert res.field is QQ
        assert len(res.labels) == 2
        reg = regular_comodule_of(res)
        assert check_comodule(reg).ok

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2), st.integers(0, 2))
    def test_dimension_counts_block_sizes(self, a, b):
        # endomorphisms of a multiplicity-(a, b) weight comodule form
        # two matrix blocks, so the coend has dimension a^2 + b^2
        c = function_algebra(QQ, cyclic_group(2)).coalgebra
        rows = [(1, 1)] * a + [(1, -1)] * b
        if not rows:
            return
        m = weight_comodule(c, rows, "mixed weights")
        res = coend(m)
        assert res.dim == a * a + b * b
        assert res.ok

    def test_regular_comodule_recovers_coalgebra(self, kc2, ks3):
        for c in (kc2, ks3, sweedler4().coalgebra, taft(3, GF(7)).coalgebra):
            res = coend_regular_isomorphism(c)
            assert res.ok, res.report.failures()
            assert res.coend.dim == c.dim
            assert rank(res.iso) == c.dim
            names = [ch.name for ch in res.report.checks]
            assert "witness bijective" in names
            assert any("respects-comultiplication" in n for n in names)


# -- pre-equivalence data -----------------------------------------------

IDENTITY_CORPUS = [
    ("scalars", lambda: group_algebra(QQ, cyclic_group(1)).coalgebra),
    ("order-two group algebra", lambda: group_algebra(QQ, cyclic_group(2)).coalgebra),
    ("symmetric group algebra", lambda: group_algebra(QQ, symmetric_group_3()).coalgebra),
    ("symmetric function algebra", lambda: function_algebra(QQ, symmetric_group_3()).coalgebra),
    ("four-dimensional instance", lambda: sweedler4().coalgebra),
    ("nine-dimensional instance", lambda: taft(3, GF(7)).coalgebra),
]


class TestPreEquivalence:
    @pytest.mark.parametrize("label,make", IDENTITY_CORPUS,
                             ids=[n for n, _ in IDENTITY_CORPUS])
    def test_identity_data_always_verifies(self, label, make):
        c = make()
        rep = verify_pre_equivalence(identity_pre_equivalence(c))
        assert rep.ok, (label, rep.failures())

    def test_identity_check_names(self):
        c = group_algebra(QQ, cyclic_group(2)).coalgebra
        rep = verify_pre_equivalence(identity_pre_equivalence(c))
        names = [ch.name for ch in rep.checks]
        for want in ("f lands in the cotensor", "f left-colinear",
                     "first compatibility square",
                     "second compatibility square",
                     "f bijective onto the cotensor",
                     "g bijective onto the cotensor"):
            assert want in names
        assert any(n.startswith("first composite is an isomorphism")
                   for n in names)
        assert any(n.startswith("second composite is an isomorphism")
                   for n in names)

    def test_coend_pair_certified(self, two_weight, triv_c2, sign_c2):
        e = coend_pre_equivalence(two_weight)
        assert e.gamma.dim == 2 and e.d.dim == 2
        assert e.p.dim * e.q.dim == 4
        rep = verify_pre_equivalence(e)
        assert rep.ok, rep.failures()
        # extra test objects routed to the matching side
        rep2 = verify_pre_equivalence(e, (triv_c2, sign_c2, two_weight,
                                          regular_comodule_of(e.gamma)))
        assert rep2.ok, rep2.failures()

    def test_zeroed_comparison_map_reported_not_raised(self, two_weight):
        e = coend_pre_equivalence(two_weight)
        broken = PreEquivalenceData(
            e.gamma, e.d, e.p, e.q,
            LinMap.zero(QQ, e.p.dim * e.q.dim, e.gamma.dim), e.g, "broken")
        rep = verify_pre_equivalence(broken)
        assert not rep.ok
        failed = [ch.name for ch in rep.checks if not ch.ok]
        assert "f bijective onto the cotensor" in failed
        # the functor stage is skipped once a gate fails
        assert not any("composite" in n for n in failed)

    def test_unroutable_object_flagged(self, ks3):
        c = group_algebra(QQ, cyclic_group(2)).coalgebra
        stranger = regular_comodule_of(ks3)
        rep = verify_pre_equivalence(identity_pre_equivalence(c), (stranger,))
        assert not rep.ok
        assert any("lives over one of the two" in ch.name
                   for ch in rep.checks if not ch.ok)

    def test_comparison_maps_live_in_cotensor(self, two_weight):
        e = coend_pre_equivalence(two_weight)
        ct = hom_colinear(two_weight, two_weight)
        # the cotensor of the two carriers has the endomorphism dimension
        assert e.gamma.dim == ct.dim


# -- dual comodules -----------------------------------------------------

class TestDualComodule:
    def test_double_dual_is_identity(self, two_weight, ks3):
        for v in (two_weight, regular_comodule_of(ks3)):
            dd = dual_comodule(dual_comodule(v))
            assert dd.side == v.side
            assert (dd.coaction - v.coaction).is_zero()

    def test_dual_swaps_sides(self, two_weight):
        d = dual_comodule(two_weight)
        assert d.side == "left"
        assert check_comodule(d).ok

    def test_sign_dual_is_sign(self, sign_c2):
        d = dual_comodule(dual_comodule(sign_c2))
        assert (d.coaction - sign_c2.coaction).is_zero()
        single = dual_comodule(sign_c2)
        # one-dimensional: the dual of the sign weight is again sign
        assert single.coaction.entry(1, 0) == QQ.from_int(-1)
