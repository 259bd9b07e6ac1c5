"""Monads from adjunctions, the algebra on the unit object, structured-map
internal homs, surjectivity of the projected cotensor map, and the
tensor/cotensor comparison isomorphism.

Expected values are frozen from the oracle stated at each site: the
four-dimensional instance multiplied out by hand, dimension counts forced
by freeness of the ambient algebra over the subalgebra, and structure maps
recovered through an independent construction (restriction of the ambient
product, the comultiplication of the tensoring coalgebra, the quotient
projection)."""

from dataclasses import dataclass, replace
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coideals.catalog import subgroup_data, sweedler4, symmetric_group_3
from coideals.certs import VerificationFailed
from coideals.fields import QQ
from coideals.linalg import LinMap, Subspace, basis_vector, identity_map, on_leg
from coideals.repcats import (
    ComoduleData,
    check_comodule,
    corestrict_comodule,
    regular_comodule,
    regular_relhopf,
    trivial_comodule,
)
from coideals.correspondence import (
    coideal_as_relhopf,
    quotient_module_coalgebra,
    verify_coideal_subalgebra,
)
from coideals.monadics import (
    AdjunctionData,
    TAlgebraData,
    adjunction_unit_counit_check,
    colinear_endomorphism,
    compare_talgebras_to_modules,
    cotensor_psi_adjunction,
    cotensor_psi_monad,
    free_forget_adjunction,
    free_forget_monad,
    gamma_isomorphism,
    internal_hom,
    monad_from_adjunction,
    psi_module_functor_report,
    surjectivity_from_coflatness,
    theorem2_pipeline,
    translated_tensor,
    unit_object_algebra,
)


def span4(*idxs):
    return Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, i) for i in idxs])


@pytest.fixture(scope="module")
def h4():
    return sweedler4()


# basis order of the four-dimensional instance: 1, x, g, gx
@pytest.fixture(scope="module")
def a_1g(h4):
    return verify_coideal_subalgebra(h4, span4(0, 2), name="span{1,g}")


@pytest.fixture(scope="module")
def objs(h4):
    return (trivial_comodule(h4), regular_comodule(h4))


@pytest.fixture(scope="module")
def monad_1g(h4, a_1g, objs):
    fun = tuple(QQ.one if i == 2 else QQ.zero for i in range(4))
    morph = ((objs[0], objs[1], LinMap.from_column(QQ, h4.unit_vector())),
             (objs[1], objs[1], colinear_endomorphism(h4, fun)))
    return free_forget_monad(a_1g, objs, morph)


@pytest.fixture(scope="module")
def q_1g(a_1g):
    return quotient_module_coalgebra(a_1g, name="grouplike quotient")


# -- monads from adjunctions --------------------------------------------

@pytest.mark.parametrize("scale", [1, 2])
def test_broken_counit_fails_the_triangle_identities(objs, scale):
    # both adjoints the identity; at scale 1 this is the identity adjunction
    # and its monad is the identity monad, at scale 2 the counit is broken
    c = QQ.from_int(scale)
    adj = AdjunctionData(
        name="scaled counit",
        left_on_objects=lambda x: x,
        left_on_maps=lambda s, d, m: m,
        right_on_objects=lambda x: x,
        right_on_maps=lambda s, d, m: m,
        unit=lambda x: identity_map(QQ, x.dim),
        counit=lambda x: identity_map(QQ, x.dim).scale(c),
        sample_objects=objs)
    if scale != 1:
        with pytest.raises(VerificationFailed) as exc:
            monad_from_adjunction(adj)
        assert not exc.value.report.ok
        return
    ms = monad_from_adjunction(adj)
    assert ms.report.ok
    for v in objs:
        assert ms.t_on_objects(v) is v
        assert (ms.eta(v) - identity_map(QQ, v.dim)).is_zero()
        assert (ms.mu(v) - identity_map(QQ, v.dim)).is_zero()


def test_free_forget_monad_doubles_dimensions(monad_1g, objs):
    # the ambient algebra is free of rank 2 over span{1,g}
    for v in objs:
        assert monad_1g.t_on_objects(v).dim == 2 * v.dim
    assert monad_1g.report.ok


def test_monad_laws_hold_on_all_sampled_objects(monad_1g):
    names = [c.name for c in monad_1g.report.checks]
    for v in ("unit comodule", "sweedler4 regular comodule"):
        assert f"associativity at {v}" in names
        assert f"unit law (lifted unit) at {v}" in names
        assert f"unit law (outer unit) at {v}" in names


def associativity_through_t3(adj, v):
    """mu_V o T(mu_V) against mu_V o mu_TV, two maps out of T^3 V, built
    from the adjunction directly: the formula that the counit square
    replaced, kept as its oracle."""
    def lft(x):
        return adj.left_on_objects(x)

    def t(x):
        return adj.right_on_objects(lft(x))

    def mu(x):
        lx = lft(x)
        return adj.right_on_maps(lft(adj.right_on_objects(lx)), lx,
                                 adj.counit(lx))

    tv = t(v)
    t2v = t(tv)
    mu_v = mu(v)
    t_mu = adj.right_on_maps(lft(t2v), lft(tv), adj.left_on_maps(t2v, tv, mu_v))
    return (mu_v @ t_mu - mu_v @ mu(tv)).is_zero()


@pytest.fixture(scope="module")
def ks3_pair():
    _, a3, q3 = subgroup_data(QQ, symmetric_group_3(), (0, 3))
    return a3, q3


@pytest.mark.parametrize("case", ["free/forget sweedler4", "cotensor sweedler4",
                                  "free/forget k^S3", "cotensor k^S3"])
def test_counit_square_agrees_with_the_t3_formula(case, a_1g, q_1g, ks3_pair):
    a, q = (a_1g, q_1g) if "sweedler4" in case else ks3_pair
    adj = (free_forget_adjunction(a) if case.startswith("free")
           else cotensor_psi_adjunction(q))
    verdicts = {c.name: c.ok for c in monad_from_adjunction(adj).report.checks}
    for v in adj.sample_objects:
        assert associativity_through_t3(adj, v)
        assert verdicts[f"associativity at {v.name}"]


@dataclass(frozen=True)
class Tagged:
    """An object that records how many functors were applied to it."""
    name: str
    dim: int
    depth: int = 0
    field = QQ


def _deeper(x):
    return replace(x, depth=x.depth + 1)


def test_unnatural_counit_fails_the_counit_square():
    # both adjoints keep carriers and raise the depth; the counit is the
    # identity up to depth 1, where the triangle identities look, and
    # twice the identity deeper, so it is not natural along eps_FV and
    # only the counit square at each sample can see it
    def counit(m):
        return identity_map(QQ, m.dim).scale(QQ.from_int(1 if m.depth <= 1 else 2))

    objects = (Tagged("V", 1), Tagged("W", 2))
    adj = AdjunctionData(
        name="unnatural counit",
        left_on_objects=_deeper,
        left_on_maps=lambda s, d, m: m,
        right_on_objects=_deeper,
        right_on_maps=lambda s, d, m: m,
        unit=lambda x: identity_map(QQ, x.dim),
        counit=counit,
        sample_objects=objects)
    with pytest.raises(VerificationFailed) as exc:
        monad_from_adjunction(adj)
    rep = exc.value.report
    assert [c.name for c in rep.failures()] == [
        "counit square at V", "counit square at W"]
    assert not any(c.name.startswith("associativity") for c in rep.checks)
    assert all(c.ok for c in rep.checks
               if c.name.startswith(("left-triangle", "right-triangle", "unit law")))
    # the right adjoint is faithful here, so associativity fails as well
    assert not any(associativity_through_t3(adj, v) for v in objects)


def test_scalars_give_the_identity_monad(h4, objs):
    ak = verify_coideal_subalgebra(h4, span4(0), name="scalars")
    ms = free_forget_monad(ak, objs)
    for v in objs:
        assert ms.t_on_objects(v).dim == v.dim
        assert (ms.eta(v) - identity_map(QQ, v.dim)).is_zero()
        assert (ms.mu(v) - identity_map(QQ, v.dim)).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.integers(-3, 3)] * 4))
def test_monad_structure_natural_along_colinear_endomorphisms(coeffs):
    # any functional yields a colinear endomorphism of the regular
    # comodule; naturality of unit and multiplication is part of the
    # monad certificate and must hold along every such map
    h = sweedler4()
    a = verify_coideal_subalgebra(h, span4(0, 2))
    reg = regular_comodule(h)
    fun = tuple(QQ.from_int(c) for c in coeffs)
    ms = free_forget_monad(a, (reg,), ((reg, reg, colinear_endomorphism(h, fun)),))
    assert ms.report.ok


# -- the algebra on the unit object -------------------------------------

def test_unit_object_algebra_recovers_the_subalgebra(a_1g, monad_1g):
    # oracle: the independently restricted product on span{1,g}
    ua = unit_object_algebra(monad_1g, labels=("1", "g"))
    assert ua.report.ok
    assert (ua.algebra.mult - a_1g.algebra.mult).is_zero()
    assert (ua.algebra.unit - a_1g.algebra.unit).is_zero()
    assert ua.algebra.labels == ("1", "g")


def test_unit_object_algebra_returns_a_failing_report(monad_1g):
    # a zero witness V (x) T(I) -> T(V) breaks the extracted algebra and
    # every sampled factorization; the report says so, nothing is raised
    d = monad_1g.t_on_objects(monad_1g.unit_object).dim

    def zero(v):
        return LinMap.zero(QQ, monad_1g.t_on_objects(v).dim, v.dim * d)

    ua = unit_object_algebra(replace(monad_1g, tensor_witness=zero))
    assert [c.name for c in ua.report.failures()] == [
        "unit", "witness bijective at unit comodule",
        "witness bijective at sweedler4 regular comodule"]


def test_talgebras_match_modules_both_ways(h4, a_1g, monad_1g):
    ua = unit_object_algebra(monad_1g, labels=("1", "g"))
    reg_rel = regular_relhopf(h4, a_1g.algebra, a_1g.inclusion,
                              name="regular module")
    arel = coideal_as_relhopf(a_1g)
    rep = compare_talgebras_to_modules(
        ua, modules=[(reg_rel.comodule, reg_rel.module),
                     (arel.comodule, arel.module)])
    assert rep.ok
    # free structure maps are compared as well, not only the given pairs
    assert any("round trip through structure maps" in c.name
               for c in rep.checks)


def test_broken_structure_map_fails_the_talgebra_laws(monad_1g, objs):
    ua = unit_object_algebra(monad_1g, labels=("1", "g"))
    tv = monad_1g.t_on_objects(objs[0])
    bad = TAlgebraData(objs[0], LinMap.zero(QQ, objs[0].dim, tv.dim))
    rep = compare_talgebras_to_modules(ua, talgebras=[bad])
    assert not rep.ok


# -- internal homs of structured maps -----------------------------------

def test_internal_hom_into_the_unit_comodule(h4, a_1g):
    # maps from span{1,g} to scalars compatible with the coproduct: the
    # full dual, with the dual basis vectors coacting by 1 and by g
    ih = internal_hom(a_1g, trivial_comodule(h4))
    assert ih.ok
    assert ih.dim == 2
    assert sorted(ih.comodule.coaction.entries()) == [
        ((0, 0), Fr(1)), ((6, 1), Fr(1))]
    # right translation by g swaps the two dual basis vectors
    flip = ih.module.act_by(basis_vector(QQ, 2, 1))
    assert sorted(flip.entries()) == [((0, 1), Fr(1)), ((1, 0), Fr(1))]


def test_internal_hom_into_the_regular_comodule(h4, a_1g):
    # freeness of rank 2 forces dimension 2 * 4
    ih = internal_hom(a_1g, regular_comodule(h4))
    assert ih.ok
    assert ih.dim == 8
    assert ih.relhopf is not None


def test_internal_hom_from_scalars_is_the_regular_comodule(h4):
    ak = verify_coideal_subalgebra(h4, span4(0), name="scalars")
    ih = internal_hom(ak, regular_comodule(h4))
    assert ih.ok
    assert ih.dim == 4
    assert (ih.comodule.coaction - h4.comult).is_zero()


def test_adjunction_bijection_on_the_regular_pair(h4, a_1g):
    reg_rel = regular_relhopf(h4, a_1g.algebra, a_1g.inclusion,
                              name="regular module")
    res = adjunction_unit_counit_check(a_1g, reg_rel, regular_comodule(h4))
    assert res.ok
    # colinear maps out of the regular comodule are translations, one
    # free parameter per basis vector of the carrier
    assert res.colinear_maps.dim == 4
    assert res.module_maps.dim == 4


def test_adjunction_bijection_on_the_subalgebra_pair(h4, a_1g):
    arel = coideal_as_relhopf(a_1g)
    res = adjunction_unit_counit_check(a_1g, arel, regular_comodule(h4))
    assert res.ok
    assert res.colinear_maps.dim == 2
    assert res.module_maps.dim == 2


@pytest.mark.parametrize("pair", ["regular", "subalgebra"])
def test_adjunction_evaluation_matches_the_entrywise_evaluation(h4, a_1g, pair):
    # oracle: evaluation at the subalgebra unit written entry by entry as
    # I_N (x) u^T, u the unit vector, on the two pairs of criterion 8
    rel = (regular_relhopf(h4, a_1g.algebra, a_1g.inclusion, name="regular")
           if pair == "regular" else coideal_as_relhopf(a_1g))
    n = regular_comodule(h4)
    res = adjunction_unit_counit_check(a_1g, rel, n)
    assert res.ok
    da, dn = a_1g.dim, n.dim
    evmap = LinMap(QQ, dn, dn * da, {
        (n0, n0 * da + j): u for n0 in range(dn)
        for j, u in enumerate(a_1g.algebra.unit_vector) if u})
    carrier = internal_hom(a_1g, n).carrier
    want, lands = res.colinear_maps.factor(on_leg(
        1, evmap @ carrier.basis_map(), rel.dim, res.module_maps.basis_map()))
    assert lands
    assert res.backward == want


# -- surjectivity of the projected cotensor map -------------------------

def test_surjectivity_on_the_grouplike_quotient(q_1g):
    rep = surjectivity_from_coflatness(q_1g)
    assert rep.ok
    names = [c.name for c in rep.checks]
    assert "projected cotensor map is onto" in names
    assert "composite is the identity" in names


def test_surjectivity_when_the_quotient_is_everything(h4):
    # span{1} quotients to the whole coalgebra, projection the identity
    ak = verify_coideal_subalgebra(h4, span4(0), name="scalars")
    assert surjectivity_from_coflatness(quotient_module_coalgebra(ak)).ok


def test_surjectivity_when_the_quotient_is_scalars(h4):
    # the whole algebra quotients to scalars, projection the counit
    ah = verify_coideal_subalgebra(h4, Subspace.full(QQ, 4), name="everything")
    q = quotient_module_coalgebra(ah)
    assert q.dim == 1
    assert surjectivity_from_coflatness(q).ok


# -- the tensor/cotensor comparison -------------------------------------

def test_gamma_on_the_corestricted_unit_comodule(h4, q_1g):
    # source 4 * 2 and target 8 by freeness; mutually inverse exactly
    m = corestrict_comodule(trivial_comodule(h4), q_1g.coalgebra,
                            q_1g.projection)
    res = gamma_isomorphism(regular_comodule(h4), m, q_1g)
    assert res.ok
    assert res.source.dim == 2
    assert res.target.dim == 8
    assert (res.backward @ res.forward
            - identity_map(QQ, 4 * res.source.dim)).is_zero()
    assert (res.forward @ res.backward
            - identity_map(QQ, res.target.dim)).is_zero()
    assert any("seeded" in note for note in res.report.assumptions)


def test_gamma_on_the_quotient_regular_comodule(h4, q_1g):
    breg = ComoduleData(QQ, q_1g.dim, q_1g.coalgebra.comult, q_1g.coalgebra,
                        "right", "quotient regular")
    res = gamma_isomorphism(regular_comodule(h4), breg, q_1g)
    assert res.ok
    assert res.source.dim == 4
    assert res.target.dim == 16


def test_gamma_from_the_unit_comodule_is_the_identity(h4, q_1g):
    # tensoring with scalars changes nothing, and the comparison map
    # reduces to the identity on the cotensor
    breg = ComoduleData(QQ, q_1g.dim, q_1g.coalgebra.comult, q_1g.coalgebra,
                        "right", "quotient regular")
    res = gamma_isomorphism(trivial_comodule(h4), breg, q_1g)
    assert res.ok
    assert res.source.dim == 4
    assert (res.forward - identity_map(QQ, res.target.dim)).is_zero()


def test_translated_tensor_of_corestricted_comodules(h4, q_1g):
    # corestricting a tensor product equals translating the corestriction
    rep = psi_module_functor_report(q_1g)
    assert rep.ok
    assert any("corestriction" in note for note in rep.assumptions)
    x = regular_comodule(h4)
    v = trivial_comodule(h4)
    hat = translated_tensor(
        x, corestrict_comodule(v, q_1g.coalgebra, q_1g.projection), q_1g)
    assert check_comodule(hat).ok


# -- the full pipeline --------------------------------------------------

def test_pipeline_on_the_grouplike_quotient(h4, a_1g, q_1g):
    res = theorem2_pipeline(q_1g)
    assert res.ok
    assert res.subalgebra.space == a_1g.space
    assert (res.algebra.mult - a_1g.algebra.mult).is_zero()
    assert res.flatness.ok
    assert res.coflatness.ok
    assert [s for s, _ in res.stages] == [
        "coalgebra map recovery", "translation action",
        "faithful coflatness", "surjectivity", "coinvariants",
        "module functor", "monad extraction", "faithful flatness"]


def test_pipeline_on_functions_on_the_symmetric_group():
    # subgroup {e, s} of order 2; the sampled objects are the unit
    # comodule and the sign representation as a comodule over functions
    g3 = symmetric_group_3()
    kf, a3, q3 = subgroup_data(QQ, g3, (0, 3))
    sgn = {"e": 1, "r": 1, "r2": 1, "s": -1, "rs": -1, "r2s": -1}
    col = {(j, 0): QQ.from_int(sgn[g3.labels[j]]) for j in range(6)}
    sign_com = ComoduleData(QQ, 1, LinMap(QQ, 6, 1, col), kf.coalgebra,
                            "right", "sign comodule")
    assert check_comodule(sign_com).ok
    res = theorem2_pipeline(q3, objects=(trivial_comodule(kf), sign_com))
    assert res.ok
    assert res.subalgebra.space == a3.space


def _count_cotensors(monkeypatch, record):
    """Patch cotensor at both sites that the adjunction and the pipeline
    reach it from, monadics and correspondence, calling record(v, w) on
    each call."""
    import coideals.correspondence as correspondence
    import coideals.monadics as monadics
    real = correspondence.cotensor

    def counted(v, w):
        record(v, w)
        return real(v, w)

    for module in (correspondence, monadics):
        monkeypatch.setattr(module, "cotensor", counted)


def _cotensor_pair(v, w):
    """A (V, W) pair of a cotensor call, by value."""
    return (v.dim, frozenset(v.coaction.entries()),
            w.dim, frozenset(w.coaction.entries()))


def test_cotensor_adjunction_cotensors_each_object_once(monkeypatch):
    # the left adjoint builds a new object on every call; the cotensor is
    # still computed once per distinct object, compared by value
    _, _, q3 = subgroup_data(QQ, symmetric_group_3(), (0, 3))
    seen = []
    _count_cotensors(monkeypatch, lambda v, w: seen.append(_cotensor_pair(v, w)))
    assert cotensor_psi_monad(q3).report.ok
    assert len(seen) > 1
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("case", ["k^S3/quot3", "h4/q1g"])
def test_theorem2_cotensors_each_pair_once(monkeypatch, case, q_1g, ks3_pair):
    # one pipeline run shares its cotensors between the surjectivity
    # stage, the adjunction and the tensor witnesses: F(H), the quotient
    # regular comodule, F(I), F(T(I)) and F(T(H)), each once, where
    # before the stages met them 12 times
    q = ks3_pair[1] if case == "k^S3/quot3" else q_1g
    seen = []
    _count_cotensors(monkeypatch, lambda v, w: seen.append(_cotensor_pair(v, w)))
    assert theorem2_pipeline(q).ok
    assert len(seen) == 5
    assert len(set(seen)) == 5


def test_theorem2_corestricts_each_object_once(monkeypatch, ks3_pair):
    # the left adjoint, the module functor check and the unit object meet
    # five comodules by value in one pipeline run on k^S3/quot3, and each
    # is corestricted once; before, the left adjoint corestricted again on
    # every call, 41 times in all
    import coideals.monadics as monadics
    seen = []
    real = monadics.corestrict_comodule

    def counted(v, b, psi):
        seen.append((v.dim, frozenset(v.coaction.entries())))
        return real(v, b, psi)

    monkeypatch.setattr(monadics, "corestrict_comodule", counted)
    assert theorem2_pipeline(ks3_pair[1]).ok
    assert len(seen) == len(set(seen)) == 5


@pytest.mark.parametrize("case", ["k^S3/quot3", "h4/q1g"])
def test_cotensor_monad_cotensors_nothing_above_t2v(monkeypatch, case, q_1g,
                                                    ks3_pair):
    # F keeps carriers, so cotensoring F(T^k V) builds T^(k+1) V; the
    # largest object cotensored must be F(TV), whose cotensor is T^2 V
    q = ks3_pair[1] if case == "k^S3/quot3" else q_1g
    dims = []
    _count_cotensors(monkeypatch, lambda v, w: dims.append(v.dim))
    ms = cotensor_psi_monad(q)
    assert ms.report.ok
    built = list(dims)
    tv = [ms.t_on_objects(v) for v in ms.objects]
    t2v = [ms.t_on_objects(x) for x in tv]
    assert max(built) == max(x.dim for x in tv)
    assert max(x.dim for x in t2v) > max(x.dim for x in tv)


def test_cotensor_adjunction_names_each_object(q_1g):
    adj = cotensor_psi_adjunction(q_1g)
    n = adj.sample_targets[0]
    first = adj.right_on_objects(n)
    other = adj.right_on_objects(replace(n, name="renamed"))
    assert first.name == "cotensor against quotient regular"
    assert other.name == "cotensor against renamed"
    assert first.coaction == other.coaction


def test_pipeline_monad_unit_object_is_the_coinvariants(q_1g, a_1g):
    ms = cotensor_psi_monad(q_1g)
    assert ms.report.ok
    assert ms.unit_object is not None
    ua = unit_object_algebra(ms, labels=("1", "g"))
    assert ua.report.ok
    assert (ua.algebra.mult - a_1g.algebra.mult).is_zero()
