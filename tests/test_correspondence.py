"""Coideal subalgebras, quotient module coalgebras, the roundtrip between
them, faithful (co)flatness, the module-comodule equivalence, annihilator
subalgebras, and the semisimple-restriction implication.

Expected values are frozen from the oracle stated at each site: structure
constants of the four-dimensional instance multiplied out by hand, the
translation action on functions on the symmetric group of degree three, and
dimension counts forced by freeness."""

from dataclasses import replace
from fractions import Fraction as Fr
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coideals.catalog import (
    canonical_pairing,
    coevaluation_pairing,
    coset_function_subspace,
    cyclic_group,
    function_algebra,
    group_algebra,
    subgroup_data,
    subgroup_table,
    sweedler4,
    symmetric_group_3,
    taft,
)
from coideals import correspondence, repcats
from coideals.certs import VerificationFailed
from coideals.fields import GF, QQ
from coideals.hopf import _witness, check_pairing
from coideals.linalg import (
    LinMap,
    Subspace,
    basis_vector,
    find_section,
    identity_map,
    image_of,
    on_leg,
    stack_maps,
)
from coideals.repcats import (
    ComoduleData,
    check_comodule,
    check_relhopf,
    regular_module,
    regular_relhopf,
)
from coideals.correspondence import (
    NEITHER,
    QUANTUM_HOMOGENEOUS_SPACE,
    QUANTUM_SUBGROUP,
    _balanced_relations,
    augmentation_ideal,
    c_semisimple_implication,
    classify_quantum,
    coideal_annihilator,
    coideal_as_relhopf,
    coinvariants,
    is_faithfully_coflat,
    is_faithfully_flat,
    mw_equivalence_check,
    phi_quotient,
    psi_cotensor,
    quotient_coaction,
    quotient_data,
    quotient_module_coalgebra,
    quotient_through_section,
    roundtrip_correspondence,
    ses_cross_check,
    verify_coideal_subalgebra,
)
from coideals.suite import DEFAULT_SEED, S3_SUBGROUPS, criterion_10


def span4(*idxs_or_vecs):
    vecs = []
    for x in idxs_or_vecs:
        if isinstance(x, int):
            vecs.append(basis_vector(QQ, 4, x))
        else:
            vecs.append(tuple(Fr(c) for c in x))
    return Subspace.from_vectors(QQ, 4, vecs)


@pytest.fixture(scope="module")
def h4():
    return sweedler4()


# basis order of the four-dimensional instance: 1, x, g, gx
@pytest.fixture(scope="module")
def a_1g(h4):
    return verify_coideal_subalgebra(h4, span4(0, 2), name="span{1,g}")


@pytest.fixture(scope="module")
def a_1gx(h4):
    return verify_coideal_subalgebra(h4, span4(0, 3), name="span{1,gx}")


# -- subalgebra certificates --------------------------------------------

def test_grouplike_span_is_coideal_subalgebra(a_1g):
    assert a_1g.ok
    assert a_1g.dim == 2
    assert a_1g.algebra.labels == ("1", "g")


def test_nilpotent_shifted_span_is_coideal_subalgebra(a_1gx):
    # (gx)(gx) = g(xg)x = -(gg)(xx) = 0 and the coproduct of gx splits as
    # gx (x) g + 1 (x) gx, both legs starting in the span
    assert a_1gx.ok


def test_skew_primitive_span_fails_coideal_with_witness(h4):
    # the coproduct of x has the middle term g (x) x leaving span{1,x}
    bad = verify_coideal_subalgebra(h4, span4(0, 1))
    assert not bad.ok
    assert [c.name for c in bad.report.failures()] == ["is-coideal"]
    assert bad.report.failures()[0].witness == "(x)"
    assert bad.algebra is not None  # the subalgebra half still holds


def test_non_closed_span_fails_subalgebra(h4):
    # g times x leaves span{1, x, g}
    bad = verify_coideal_subalgebra(h4, span4(0, 1, 2))
    assert not bad.ok
    names = {c.name for c in bad.report.failures()}
    assert "is-subalgebra" in names
    assert bad.algebra is None


@pytest.mark.parametrize("idxs, witness", [
    # pairs run in row order 1, x, g: x times g = -gx is the first product
    # outside the span
    ((0, 1, 2), "(x,g)"),
    ((1, 2), "(1)"),
])
def test_subalgebra_witness_is_pinned(h4, idxs, witness):
    bad = verify_coideal_subalgebra(h4, span4(*idxs))
    (check,) = [c for c in bad.report.checks if c.name == "is-subalgebra"]
    assert (check.ok, check.witness) == (False, witness)
    assert bad.algebra is None and bad.inclusion is None


@pytest.mark.parametrize("idxs, witness", [
    # the coproducts of x and gx both leave span{x, gx} (x) H: the first
    # basis element is named
    ((1, 3), "(x)"),
    # 1 passes, x fails, gx passes: the passing rows around it are skipped
    ((0, 1, 3), "(x)"),
])
def test_coideal_witness_is_the_first_failing_basis_element(h4, idxs, witness):
    bad = verify_coideal_subalgebra(h4, span4(*idxs))
    (check,) = [c for c in bad.report.checks if c.name == "is-coideal"]
    assert (check.ok, check.witness) == (False, witness)


@pytest.mark.parametrize("kernel, witness", [
    # x is skew primitive, so its coproduct lies in K (x) H + H (x) K;
    # that of gx^2 does not
    (("x", "gx2"), "(gx2)"),
    # the coproducts of x^2 and gx^2 both leave it: the first is named
    (("x2", "gx2"), "(x2)"),
])
def test_kernel_coideal_witness_is_pinned(kernel, witness):
    # kernels inside ker eps of the nine-dimensional Taft algebra that are
    # not coideals; the projection onto the complement fails quotient_data
    h = taft(3, GF(7))
    f = h.field
    k = Subspace.from_vectors(f, h.dim, [
        basis_vector(f, h.dim, h.labels.index(l)) for l in kernel])
    assert (h.counit @ k.basis_map()).is_zero()
    proj, sect = repcats._quotient_maps(k)
    labels = tuple(f"[{h.labels[c]}]" for c in range(h.dim) if c not in k.pivots)
    b, sigma = quotient_through_section(h, proj, sect, labels)
    with pytest.raises(VerificationFailed) as exc:
        quotient_data(h, b, proj, sigma, section=sect)
    (check,) = [c for c in exc.value.report.checks if c.name == "kernel-is-coideal"]
    assert (check.ok, check.witness) == (False, witness)


def _leg_span(a, s, b):
    # k^a (x) S (x) k^b eliminated from the basis of S placed on an identity
    return image_of(on_leg(a, s.basis_map(), b,
                           identity_map(s.field, a * s.dim * b)))


def _first_outside(space, m, labels):
    # the witness of the first column of m outside an eliminated span
    x, lands = space.factor(m)
    return None if lands else _witness(space.basis_map() @ x - m, [labels])


def _random_subspaces(h, rng, count):
    # spans of basis vectors, which are often coideals, and of sparse
    # vectors with small entries, which seldom are
    f, n = h.field, h.dim
    out = []
    for t in range(count):
        k = rng.randint(1, n - 1)
        if t % 2:
            vecs = [tuple(f.from_int(rng.choice((0, 0, 1, -1, 2)))
                          for _ in range(n)) for _ in range(k)]
        else:
            vecs = [basis_vector(f, n, i) for i in rng.sample(range(n), k)]
        out.append(Subspace.from_vectors(f, n, vecs))
    return out


@pytest.mark.parametrize("make", [
    sweedler4,
    lambda: taft(3, GF(7)),
    lambda: group_algebra(QQ, symmetric_group_3()),
    lambda: function_algebra(QQ, symmetric_group_3()),
    lambda: function_algebra(GF(5), cyclic_group(4)),
], ids=["sweedler4", "taft3-GF7", "kS3", "k^S3", "k^C4-GF5"])
def test_coideal_witnesses_match_the_eliminated_spans(make):
    # oracle: the membership of each coproduct in A (x) H, and in
    # K (x) H + H (x) K as the sum of two eliminated leg spans; the
    # is-coideal and kernel-is-coideal lines and the coideal_annihilator
    # refusal must be the ones these spans give
    h = make()
    rng = Random(20261020)
    dh = h.dim
    p = coevaluation_pairing(h)
    outside = 0
    for s in _random_subspaces(h, rng, 24):
        labels = [h.labels[q] for q in s.pivots]
        bad = _first_outside(_leg_span(1, s, dh), h.comult @ s.basis_map(), labels)
        outside += bad is not None
        (check,) = [c for c in verify_coideal_subalgebra(h, s).report.checks
                    if c.name == "is-coideal"]
        assert (check.ok, check.witness) == (bad is None, bad)

        want = None if bad is None else (
            f"the subspace is not a right coideal of {h.name or 'U'}: "
            f"the coproduct of {bad} leaves it")
        try:
            coideal_annihilator(p, s)
            got = None
        except VerificationFailed:
            got = None
        except ValueError as err:
            got = str(err)
        assert got == want

        two_sided = _leg_span(1, s, dh).sum_with(_leg_span(dh, s, 1))
        bad = _first_outside(two_sided, h.comult @ s.basis_map(), labels)
        proj, sect = repcats._quotient_maps(s)
        b, sigma = quotient_through_section(
            h, proj, sect, tuple(f"[{i}]" for i in range(proj.rows)))
        try:
            report = quotient_data(h, b, proj, sigma, section=sect).report
        except VerificationFailed as err:
            report = err.report
        (check,) = [c for c in report.checks if c.name == "kernel-is-coideal"]
        assert (check.ok, check.witness) == (bad is None, bad)
    assert outside


def test_augmentation_ideal_of_grouplike_span(a_1g):
    # counit kills x and gx and fixes 1 and g, so A+ is spanned by 1 - g
    ap = augmentation_ideal(a_1g)
    assert ap.rows == ((Fr(1), Fr(0), Fr(-1), Fr(0)),)


def test_downstream_consumers_reject_unverified_data(h4):
    bad = verify_coideal_subalgebra(h4, span4(0, 1))
    with pytest.raises(VerificationFailed):
        augmentation_ideal(bad)
    with pytest.raises(VerificationFailed):
        quotient_module_coalgebra(bad)


# -- quotient module coalgebras -----------------------------------------

def test_quotient_by_grouplike_span(a_1g):
    # H(1 - g) is spanned by 1 - g and x + gx, leaving [g], [gx] as the
    # surviving coordinates
    q = quotient_module_coalgebra(a_1g)
    assert q.ok
    assert q.dim == 2
    assert q.coalgebra.labels == ("[g]", "[gx]")
    assert q.kernel.rows == ((Fr(1), Fr(0), Fr(-1), Fr(0)),
                             (Fr(0), Fr(1), Fr(0), Fr(1)))
    # [g] is grouplike and [gx] is skew primitive over it:
    # [gx] goes to [gx] (x) [g] + [g] (x) [gx]
    assert sorted(q.coalgebra.comult.entries()) == [
        ((0, 0), Fr(1)), ((1, 1), Fr(1)), ((2, 1), Fr(1))]


def test_quotient_by_trivial_span(h4):
    a = verify_coideal_subalgebra(h4, span4(0), name="span{1}")
    q = quotient_module_coalgebra(a)
    assert q.dim == 4
    assert q.kernel.dim == 0
    assert q.coalgebra.labels == ("[1]", "[x]", "[g]", "[gx]")


def test_quotient_by_whole_algebra(h4):
    a = verify_coideal_subalgebra(h4, Subspace.full(QQ, 4), name="H")
    q = quotient_module_coalgebra(a)
    assert q.dim == 1
    assert q.coalgebra.labels == ("[g]",)
    assert sorted(q.coalgebra.comult.entries()) == [((0, 0), Fr(1))]
    assert q.coalgebra.counit.entry(0, 0) == Fr(1)


def test_subgroup_quotient_restricts_functions():
    g = symmetric_group_3()
    kf, a, q = subgroup_data(QQ, g, (0, 3))
    assert a.ok and q.ok
    assert a.space == coset_function_subspace(QQ, g, (0, 3))
    assert q.dim == 2
    assert q.coalgebra.labels == ("de", "ds")
    # restriction keeps exactly the subgroup coordinates
    assert sorted(q.projection.entries()) == [((0, 0), Fr(1)), ((1, 3), Fr(1))]


def test_subgroup_data_rejects_non_subgroup():
    g = symmetric_group_3()
    with pytest.raises(ValueError):
        subgroup_data(QQ, g, (0, 1))  # a 3-cycle alone is not closed


def test_subgroup_table_relabels():
    g = symmetric_group_3()
    sub = subgroup_table(g, (0, 1, 2))
    assert sub.labels == ("e", "r", "r2")
    assert sub.mul(1, 2) == 0


def test_quotient_data_raises_when_the_kernel_is_no_left_ideal(h4):
    # the projection onto the coordinates of 1 and x is onto, but its
    # kernel span{g, gx} holds g with g.g = 1 and eps(g) = 1
    pi = LinMap(QQ, 2, 4, {(0, 0): QQ.one, (1, 1): QQ.one})
    sect = find_section(pi)
    b, sigma = quotient_through_section(h4, pi, sect, ("1", "x"))
    with pytest.raises(VerificationFailed) as ei:
        quotient_data(h4, b, pi, sigma, section=sect)
    failed = [c.name for c in ei.value.report.failures()]
    assert failed[:2] == ["kernel-counit-vanishes", "kernel-is-left-ideal"]
    assert "projection-module-linear" in failed


# -- coinvariants and the roundtrip -------------------------------------

def test_coinvariants_recover_grouplike_span(a_1g):
    q = quotient_module_coalgebra(a_1g)
    assert coinvariants(q).space == a_1g.space


def test_coinvariants_of_identity_quotient_are_scalars(h4):
    # when nothing is collapsed only multiples of the unit are coinvariant
    a = verify_coideal_subalgebra(h4, span4(0))
    q = quotient_module_coalgebra(a)
    back = coinvariants(q)
    assert back.space == span4(0)


def test_coinvariants_of_point_quotient_are_everything(h4):
    # collapsing to the trivial coalgebra makes every element coinvariant
    a = verify_coideal_subalgebra(h4, Subspace.full(QQ, 4))
    q = quotient_module_coalgebra(a)
    assert coinvariants(q).space == Subspace.full(QQ, 4)


def test_roundtrip_on_four_dimensional_instance(h4, a_1g, a_1gx):
    subs = [verify_coideal_subalgebra(h4, span4(0), name="k"),
            a_1g, a_1gx,
            verify_coideal_subalgebra(h4, Subspace.full(QQ, 4), name="H")]
    quots = [quotient_module_coalgebra(a) for a in subs]
    rep = roundtrip_correspondence(h4, subalgebras=subs, quotients=quots)
    assert rep.ok, str(rep)


S3_SUBGROUPS = [(0,), (0, 3), (0, 1, 2), (0, 1, 2, 3, 4, 5)]


@pytest.mark.parametrize("idx", S3_SUBGROUPS, ids=lambda t: f"order{len(t)}")
def test_roundtrip_on_symmetric_group_functions(idx):
    kf, a, q = subgroup_data(QQ, symmetric_group_3(), idx)
    rep = roundtrip_correspondence(kf, subalgebras=[a], quotients=[q])
    assert rep.ok, str(rep)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 4), min_size=1, max_size=2))
def test_verification_rejects_or_roundtrip_closes(vecs):
    # any span containing the unit either fails verification with a named
    # witness or passes and then comes back on the nose as coinvariants
    h = sweedler4()
    s = Subspace.from_vectors(
        QQ, 4, [(Fr(1), Fr(0), Fr(0), Fr(0))]
        + [tuple(Fr(c) for c in v) for v in vecs])
    a = verify_coideal_subalgebra(h, s)
    if a.ok:
        assert coinvariants(quotient_module_coalgebra(a)).space == s
    else:
        assert all(c.witness for c in a.report.failures())


# -- faithful flatness and coflatness ------------------------------------

def test_flatness_over_grouplike_span(a_1g):
    # 1 and x generate freely: their spans under the subalgebra are
    # {1, g} and {x, gx}
    fl = is_faithfully_flat(a_1g, "left")
    assert fl.ok and fl.projective
    assert fl.generators == ("1", "x")
    assert fl.free_rank == 2
    assert all(d == 2 for _, d in fl.simple_tensor_dims)
    assert is_faithfully_flat(a_1g, "right").ok


def test_flatness_trivial_cases(h4):
    a1 = verify_coideal_subalgebra(h4, span4(0))
    fl = is_faithfully_flat(a1, "left")
    assert fl.ok and fl.free_rank == 4
    ah = verify_coideal_subalgebra(h4, Subspace.full(QQ, 4))
    fl = is_faithfully_flat(ah, "left")
    assert fl.ok and fl.free_rank == 1 and fl.generators == ("1",)


def test_flatness_over_coset_functions():
    kf, a, q = subgroup_data(QQ, symmetric_group_3(), (0, 3))
    fl = is_faithfully_flat(a, "left")
    assert fl.ok
    # six function coordinates over a three-dimensional base: rank two, with
    # a coset transversal indicator as the first generator
    assert fl.free_rank == 2
    assert fl.generators[0] == "de+dr+dr2"
    assert all(d == 2 for _, d in fl.simple_tensor_dims)


def test_coflatness_of_quotients(h4, a_1g):
    q = quotient_module_coalgebra(a_1g)
    fc = is_faithfully_coflat(q, "left")
    assert fc.ok and fc.free_rank == 2
    assert is_faithfully_coflat(q, "right").ok
    qk = quotient_module_coalgebra(verify_coideal_subalgebra(h4, Subspace.full(QQ, 4)))
    assert is_faithfully_coflat(qk, "left").free_rank == 4
    qh = quotient_module_coalgebra(verify_coideal_subalgebra(h4, span4(0)))
    assert is_faithfully_coflat(qh, "left").free_rank == 1


@pytest.mark.parametrize("build", [
    lambda: quotient_module_coalgebra(verify_coideal_subalgebra(
        sweedler4(), span4(0, 2), name="span{1,g}")),
    lambda: subgroup_data(QQ, symmetric_group_3(), (0, 3))[2],
], ids=["sweedler4-grouplike", "kS3-functions-cosets"])
def test_quotient_coaction_is_the_projected_comultiplication(build):
    # oracle: the coactions of H over B written out as (pi (x) id) Delta on
    # the left and (id (x) pi) Delta on the right
    q = build()
    h = q.hopf
    ih = identity_map(QQ, h.dim)
    want = {"left": q.projection.tensor(ih) @ h.comult,
            "right": ih.tensor(q.projection) @ h.comult}
    for side, coaction in want.items():
        v = quotient_coaction(q, side, "H over B")
        assert (v.dim, v.side, v.name) == (h.dim, side, "H over B")
        assert v.over is q.coalgebra
        assert v.coaction == coaction
        assert check_comodule(v).ok, str(check_comodule(v))
    with pytest.raises(ValueError, match="side must be"):
        quotient_coaction(q, "both")


def h4_subalgebra_spans():
    return [("k", span4(0)), ("1g", span4(0, 2)), ("1gx", span4(0, 3)),
            ("H", Subspace.full(QQ, 4))]


@pytest.mark.parametrize("nm,s", h4_subalgebra_spans(), ids=lambda x: x if isinstance(x, str) else "")
def test_flat_and_coflat_verdicts_agree(nm, s):
    # the two sides of the correspondence carry matching faithfulness
    h = sweedler4()
    a = verify_coideal_subalgebra(h, s, name=nm)
    q = quotient_module_coalgebra(a)
    for side in ("left", "right"):
        assert is_faithfully_flat(a, side).ok == is_faithfully_coflat(q, side).ok


@pytest.mark.parametrize("idx", S3_SUBGROUPS, ids=lambda t: f"order{len(t)}")
def test_flat_and_coflat_verdicts_agree_on_cosets(idx):
    kf, a, q = subgroup_data(QQ, symmetric_group_3(), idx)
    for side in ("left", "right"):
        assert is_faithfully_flat(a, side).ok == is_faithfully_coflat(q, side).ok


def test_classification(h4, a_1g):
    label, ev = classify_quantum(a_1g)
    assert label == QUANTUM_HOMOGENEOUS_SPACE and ev.ok
    label, ev = classify_quantum(quotient_module_coalgebra(a_1g))
    assert label == QUANTUM_SUBGROUP and ev.ok
    label, ev = classify_quantum(verify_coideal_subalgebra(h4, span4(0, 1)))
    assert label == NEITHER and not ev.ok


# -- the module-comodule equivalence -------------------------------------

def test_quotient_functor_on_regular_module_reproduces_coalgebra(h4, a_1g):
    # the regular relative Hopf module quotients onto the quotient
    # coalgebra itself, same matrices and all
    q = quotient_module_coalgebra(a_1g)
    m = regular_relhopf(h4, a_1g.algebra, a_1g.inclusion)
    com, proj, _, wd = phi_quotient(m, a_1g, q)
    assert wd
    assert com.coaction == q.coalgebra.comult
    assert proj == q.projection


def test_quotient_functor_on_subalgebra_collapses_to_line(a_1g):
    q = quotient_module_coalgebra(a_1g)
    rel = coideal_as_relhopf(a_1g)
    com, _, _, wd = phi_quotient(rel, a_1g, q)
    assert wd and com.dim == 1


def test_cotensor_functor_on_quotient_recovers_ambient_dimension(a_1g):
    q = quotient_module_coalgebra(a_1g)
    b = q.coalgebra
    n = ComoduleData(QQ, b.dim, b.comult, b, "right", name="B")
    rel, s = psi_cotensor(n, a_1g, q)
    assert s.dim == 4
    assert check_relhopf(rel).ok


def test_equivalence_on_four_dimensional_instance(a_1g):
    mw = mw_equivalence_check(a_1g)
    assert mw.ok, str(mw.report)
    assert [(m, n) for _, m, n in mw.unit_items] == [(4, 4), (2, 2)]
    assert [(m, n) for _, m, n in mw.counit_items] == [(2, 2), (1, 1)]


def test_equivalence_on_coset_functions():
    kf, a, q = subgroup_data(QQ, symmetric_group_3(), (0, 3))
    mw = mw_equivalence_check(a)
    assert mw.ok, str(mw.report)
    assert [(m, n) for _, m, n in mw.unit_items] == [(6, 6), (3, 3)]
    assert [(m, n) for _, m, n in mw.counit_items] == [(2, 2), (1, 1), (1, 1)]


def test_equivalence_requires_flatness(h4):
    # the precondition is checked, not assumed: a verified subalgebra object
    # with a doctored non-flat module structure is rejected outright
    bad = verify_coideal_subalgebra(h4, span4(0, 1))
    with pytest.raises(VerificationFailed):
        mw_equivalence_check(bad)


# -- annihilator subalgebras ---------------------------------------------

def test_annihilator_of_subgroup_span_is_coset_functions():
    # group elements hit functions by translation; demanding that the two
    # subgroup elements act counitally pins functions constant on cosets
    g = symmetric_group_3()
    p = canonical_pairing(group_algebra(QQ, g), function_algebra(QQ, g))
    z = Subspace.from_vectors(QQ, 6, [basis_vector(QQ, 6, 0), basis_vector(QQ, 6, 3)])
    ann = coideal_annihilator(p, z)
    assert ann.ok
    assert ann.space == coset_function_subspace(QQ, g, (0, 3))


def test_annihilator_of_unit_span_is_everything():
    g = symmetric_group_3()
    p = canonical_pairing(group_algebra(QQ, g), function_algebra(QQ, g))
    z = Subspace.from_vectors(QQ, 6, [basis_vector(QQ, 6, 0)])
    assert coideal_annihilator(p, z).space == Subspace.full(QQ, 6)


def test_annihilator_of_whole_group_algebra_is_constants():
    g = symmetric_group_3()
    p = canonical_pairing(group_algebra(QQ, g), function_algebra(QQ, g))
    ann = coideal_annihilator(p, Subspace.full(QQ, 6))
    assert ann.space.rows == ((Fr(1),) * 6,)


def test_annihilator_requires_coideal_input(h4):
    p = coevaluation_pairing(h4)
    with pytest.raises(ValueError):
        coideal_annihilator(p, span4(1))  # coproduct of x leaves span{x} (x) H


def test_coevaluation_pairing_is_a_pairing(h4):
    assert check_pairing(coevaluation_pairing(h4)).ok


# -- the semisimple-restriction implication ------------------------------

def test_semisimple_restriction_implication_on_group_pair():
    # restriction of the regular module to the order-two subgroup span is
    # semisimple in characteristic zero, so both conclusions must hold
    g = symmetric_group_3()
    kg = group_algebra(QQ, g)
    z = Subspace.from_vectors(QQ, 6, [basis_vector(QQ, 6, 0), basis_vector(QQ, 6, 3)])
    cs = c_semisimple_implication(kg, z, [regular_module(kg.algebra, "right")])
    assert cs.ok and cs.implication_ok
    assert cs.hypothesis_ok
    assert cs.cosemisimple.ok
    assert cs.flat_left.ok and cs.flat_right.ok
    assert cs.annihilator.space == coset_function_subspace(QQ, g, (0, 3))
    assert cs.quotient.dim == 2


def test_semisimple_restriction_hypothesis_can_fail(h4):
    # over span{1, gx} the regular module is not semisimple (gx is nilpotent
    # and acts nontrivially), so the implication holds vacuously
    z = span4(0, 3)
    cs = c_semisimple_implication(h4, z, [regular_module(h4.algebra, "right")])
    assert not cs.hypothesis_ok
    assert cs.ok and cs.implication_ok


# -- definitional cross-check for flatness --------------------------------

@pytest.mark.parametrize("nm,s", h4_subalgebra_spans(), ids=lambda x: x if isinstance(x, str) else "")
@pytest.mark.parametrize("side", ["left", "right"])
def test_ses_cross_check_four_dimensional(nm, s, side):
    a = verify_coideal_subalgebra(sweedler4(), s, name=nm)
    rep = ses_cross_check(a, side)
    assert rep.ok, str(rep)


@pytest.mark.parametrize("idx", S3_SUBGROUPS, ids=lambda t: f"order{len(t)}")
def test_ses_cross_check_coset_functions(idx):
    kf, a, q = subgroup_data(QQ, symmetric_group_3(), idx)
    for side in ("left", "right"):
        rep = ses_cross_check(a, side)
        assert rep.ok, str(rep)


@pytest.mark.parametrize("side", ["left", "right"])
def test_ses_cross_check_reports_a_flipped_verdict(monkeypatch, a_1g, side):
    # H is free over span{1, g}, so tensoring preserves and reflects; a
    # verdict flipped to False must show up as a disagreement
    real = correspondence.is_faithfully_flat

    def flipped(a, side="left"):
        res = real(a, side)
        return replace(res, ok=not res.ok)

    monkeypatch.setattr(correspondence, "is_faithfully_flat", flipped)
    rep = ses_cross_check(a_1g, side)
    assert [c.name for c in rep.failures()] == ["definitional-check-agrees"]
    assert rep.failures()[0].witness == \
        "verdict False, preserve True, reflect True"


def test_ses_cross_check_tensors_each_module_once(monkeypatch):
    # criterion 10 meets 120 distinct modules over its eight instances and
    # both sides; each submodule, quotient and parent was re-tensored
    # before the per-call memo, 626 times in all
    calls = []
    real = correspondence._quotient_maps

    def counted(sub):
        calls.append(sub)
        return real(sub)

    monkeypatch.setattr(correspondence, "_quotient_maps", counted)
    assert criterion_10(DEFAULT_SEED)[0]
    assert len(calls) == 120


def _dense_relations(f, left, right):
    """Oracle: the relation rows l.a (x) e_k - e_i (x) a.r multiplied out
    from dense vectors, with one act_by per basis element a."""
    da, dl, dr = left.over.dim, left.dim, right.dim

    def kron(u, w):
        return tuple(f.mul(x, y) for x in u for y in w)

    rels = []
    for j in range(da):
        la = left.act_by(basis_vector(f, da, j))
        ra = right.act_by(basis_vector(f, da, j))
        for i in range(dl):
            for k in range(dr):
                rels.append(tuple(f.sub(x, y) for x, y in zip(
                    kron(la.column(i), basis_vector(f, dr, k)),
                    kron(basis_vector(f, dl, i), ra.column(k)))))
    return rels


def test_balanced_relations_match_the_dense_builder(sample_modules):
    # the image of the placed relation maps is the span of the dense rows;
    # the unit's operators are the identity, so every one of its rows
    # meets l.a and a.r at one position
    rights, lefts = sample_modules
    for left in rights:
        for right in lefts:
            f = left.field
            rels = _balanced_relations(left.action_operators(),
                                       right.action_operators(),
                                       left.dim, right.dim)
            assert rels == Subspace.from_vectors(
                f, left.dim * right.dim, _dense_relations(f, left, right))


def _stacked_relations(left_ops, right_ops, dl, dr):
    """Oracle: the relations as they were built before they were written
    directly, two placements on a built identity per basis element,
    subtracted, transposed, stacked and transposed back."""
    one = identity_map(left_ops[0].field, dl * dr)
    return image_of(stack_maps(
        [(on_leg(1, la, dr, one) - on_leg(dl, ra, 1, one)).transpose()
         for la, ra in zip(left_ops, right_ops)]).transpose())


@pytest.mark.parametrize("side", ["left", "right"])
def test_balanced_relations_match_the_stacked_construction(monkeypatch, side):
    # every call that criterion 10 makes on one side, on the sweedler4
    # spans and the S3 coset algebras: the flatness verdict's simples and
    # the cross-check's pool modules, their submodules and quotients
    seen = []
    real = correspondence._balanced_relations

    def checked(left_ops, right_ops, dl, dr):
        out = real(left_ops, right_ops, dl, dr)
        assert out == _stacked_relations(left_ops, right_ops, dl, dr)
        seen.append((dl, dr))
        return out

    monkeypatch.setattr(correspondence, "_balanced_relations", checked)
    h4 = sweedler4()
    instances = [verify_coideal_subalgebra(h4, s) for s in (
        span4(0), span4(0, 2), span4(0, 3), Subspace.full(QQ, 4))]
    g = symmetric_group_3()
    instances += [subgroup_data(QQ, g, idx)[1] for idx in S3_SUBGROUPS]
    for a in instances:
        assert ses_cross_check(a, side).ok
    # both the verdict's and the cross-check's calls were compared
    assert len(seen) > len(instances)


def test_cyclic_group_tower_roundtrips():
    # both subgroups of the cyclic group of order four, function picture
    g = cyclic_group(4)
    for idx in [(0,), (0, 2), (0, 1, 2, 3)]:
        kf, a, q = subgroup_data(QQ, g, idx)
        rep = roundtrip_correspondence(kf, subalgebras=[a], quotients=[q])
        assert rep.ok, str(rep)


@pytest.mark.parametrize("side", ["left", "right"])
def test_ses_cross_check_decomposes_its_algebra_once(monkeypatch, a_1g, side):
    # one decomposition, in the flatness verdict, which the module pool
    # and the submodule enumeration reuse; before, the pool decomposed the
    # algebra a second time, and earlier still every module of the pool
    # recomputed the radical
    calls = []
    real = repcats.radical

    def counted(alg):
        calls.append(alg)
        return real(alg)

    for mod in (repcats, correspondence):
        if getattr(mod, "radical", None) is real:
            monkeypatch.setattr(mod, "radical", counted)
    alg = a_1g.algebra if side == "left" else a_1g.algebra.op()
    repcats.radical_and_simples(alg)
    per_decomposition = len(calls)
    calls.clear()
    assert ses_cross_check(a_1g, side).ok
    assert len(calls) == per_decomposition


def test_module_flatness_builds_each_cover_block_once(monkeypatch, a_1g):
    # the greedy cover picks from 2 dim H - 1 candidates over several
    # rounds; each candidate's block depends on its vector alone
    calls = []
    real = correspondence._cover_blocks

    def counted(mod, vec):
        calls.append(vec)
        return real(mod, vec)

    monkeypatch.setattr(correspondence, "_cover_blocks", counted)
    res = is_faithfully_flat(a_1g, "left")
    assert res.ok and res.generators == ("1", "x")
    assert len(calls) == 2 * a_1g.hopf.dim - 1
    assert len(set(calls)) == len(calls)
