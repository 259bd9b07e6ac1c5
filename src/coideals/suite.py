"""The acceptance battery: twelve checks over the built-in corpus.

Criteria 1 to 11 are functions listed in CRITERIA.  Each returns
(ok, detail) with a deterministic detail string on success, so the
assembled report is byte-stable for a fixed seed.  Time budgets are
enforced inside the criteria; a blown budget fails the criterion and only
then does the detail mention the clock.  run_once makes one pass over
them.  Criterion 12, determinism, has no function of its own: run_all
makes two passes, records the first in a CertReport, and adds a final
check that the passes agree entry for entry within the two-minute budget.
"""

from time import perf_counter

from .catalog import (
    cyclic_group,
    function_algebra,
    group_algebra,
    subgroup_data,
    sweedler4,
    symmetric_group_3,
    taft,
)
from .correspondence import (
    c_semisimple_implication,
    coideal_as_relhopf,
    coinvariants,
    is_faithfully_coflat,
    is_faithfully_flat,
    mw_equivalence_check,
    quotient_module_coalgebra,
    roundtrip_correspondence,
    ses_cross_check,
    verify_coideal_subalgebra,
)
from .fields import GF, QQ
from .hopf import check_hopf_axioms
from .linalg import LinMap, Subspace, basis_vector, identity_map
from .monadics import (
    adjunction_unit_counit_check,
    colinear_endomorphism,
    compare_talgebras_to_modules,
    free_forget_monad,
    gamma_isomorphism,
    theorem2_pipeline,
    unit_object_algebra,
)
from .morita import (
    coend_pre_equivalence,
    coend_regular_isomorphism,
    identity_pre_equivalence,
    verify_pre_equivalence,
)
from .repcats import (
    ComoduleData,
    regular_comodule,
    regular_comodule_of,
    regular_module,
    regular_relhopf,
    trivial_comodule,
)
from .certs import CertReport

DEFAULT_SEED = 20260822

S3_SUBGROUPS = ((0,), (0, 3), (0, 1, 2), (0, 1, 2, 3, 4, 5))


def _span4(*idxs):
    return Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, i)
                                         for i in idxs])


def _hopf_corpus():
    return [group_algebra(QQ, cyclic_group(1), name="k"),
            group_algebra(QQ, cyclic_group(2), name="kC2"),
            group_algebra(QQ, symmetric_group_3(), name="kS3"),
            function_algebra(QQ, symmetric_group_3(), name="k^S3"),
            sweedler4(),
            taft(3, GF(7))]


def _grouplike_sub(h):
    return verify_coideal_subalgebra(h, _span4(0, 2), name="span{1,g}")


def _sign_comodule(kf):
    sgn = {"e": 1, "r": 1, "r2": 1, "s": -1, "rs": -1, "r2s": -1}
    col = {(j, 0): QQ.from_int(sgn[lbl.lstrip("d")])
           for j, lbl in enumerate(kf.labels)}
    return ComoduleData(QQ, 1, LinMap(QQ, 6, 1, col), kf.coalgebra,
                        "right", "sign comodule")


def criterion_1(seed):
    """Axiom suites pass on every built-in instance, each under a second."""
    for h in _hopf_corpus():
        t0 = perf_counter()
        rep = check_hopf_axioms(h)
        dt = perf_counter() - t0
        if not rep.ok:
            bad = "; ".join(c.name for c in rep.failures())
            return False, f"axiom failure on {h.name}: {bad}"
        if dt >= 1.0:
            return False, f"axiom suite on {h.name} took {dt:.2f}s"
    return True, "axiom suites all-true on the six instances"


def criterion_2(seed):
    """The grouplike-span quotient is two-dimensional and its coinvariants
    recover the subalgebra exactly, under a second."""
    t0 = perf_counter()
    a = _grouplike_sub(sweedler4())
    q = quotient_module_coalgebra(a)
    back = coinvariants(q)
    dt = perf_counter() - t0
    if q.dim != 2:
        return False, f"quotient dimension {q.dim}, expected 2"
    if back.space != a.space:
        return False, "coinvariants differ from the subalgebra"
    if dt >= 1.0:
        return False, f"took {dt:.2f}s"
    return True, "quotient dimension 2, coinvariants recover the span exactly"


def _correspondence_corpus():
    g = symmetric_group_3()
    out = []
    for idx in S3_SUBGROUPS:
        kf, a, q = subgroup_data(QQ, g, idx)
        out.append((kf, a, q))
    a4 = _grouplike_sub(sweedler4())
    out.append((a4.hopf, a4, quotient_module_coalgebra(a4)))
    return out


def criterion_3(seed):
    """Roundtrips are exact and the flat/coflat verdicts agree pairwise on
    the four coset-function instances and the grouplike span."""
    for h, a, q in _correspondence_corpus():
        rt = roundtrip_correspondence(h, subalgebras=[a], quotients=[q])
        if not rt.ok:
            bad = rt.failures()[0].name
            return False, f"roundtrip failure on {a.name}: {bad}"
        fl = is_faithfully_flat(a)
        cofl = is_faithfully_coflat(q)
        if fl.ok != cofl.ok:
            return False, (f"verdicts disagree on {a.name}: "
                           f"flat {fl.ok}, coflat {cofl.ok}")
    return True, "five roundtrips exact, flat and coflat verdicts agree"


def criterion_4(seed):
    """Both equivalence composites are bijective on the default object
    families of the two flagship instances, within ten seconds."""
    t0 = perf_counter()
    mw1 = mw_equivalence_check(_grouplike_sub(sweedler4()))
    kf, a3, q3 = subgroup_data(QQ, symmetric_group_3(), (0, 3))
    mw2 = mw_equivalence_check(a3)
    dt = perf_counter() - t0
    if not (mw1.ok and mw2.ok):
        return False, "an equivalence composite is not bijective"
    dims1 = ([(m, n) for _, m, n in mw1.unit_items],
             [(m, n) for _, m, n in mw1.counit_items])
    dims2 = ([(m, n) for _, m, n in mw2.unit_items],
             [(m, n) for _, m, n in mw2.counit_items])
    if dims1 != ([(4, 4), (2, 2)], [(2, 2), (1, 1)]):
        return False, f"unexpected hom dimensions {dims1}"
    if dims2 != ([(6, 6), (3, 3)], [(2, 2), (1, 1), (1, 1)]):
        return False, f"unexpected hom dimensions {dims2}"
    if dt >= 10.0:
        return False, f"took {dt:.2f}s"
    return True, "both instances pass with the recorded hom dimensions"


def criterion_5(seed):
    """The algebra on the unit object equals the restricted product and
    the module dictionary round-trips."""
    h = sweedler4()
    a = _grouplike_sub(h)
    objs = (trivial_comodule(h), regular_comodule(h))
    fun = tuple(QQ.one if i == 2 else QQ.zero for i in range(4))
    morph = ((objs[0], objs[1], LinMap.from_column(QQ, h.unit_vector())),
             (objs[1], objs[1], colinear_endomorphism(h, fun)))
    ms = free_forget_monad(a, objs, morph)
    ua = unit_object_algebra(ms, labels=("1", "g"))
    if not ua.report.ok:
        return False, "unit object algebra failed its laws"
    if not (ua.algebra.mult - a.algebra.mult).is_zero():
        return False, "multiplication differs from the restricted product"
    if not (ua.algebra.unit - a.algebra.unit).is_zero():
        return False, "unit differs from the restricted unit"
    reg_rel = regular_relhopf(h, a.algebra, a.inclusion, name="regular")
    arel = coideal_as_relhopf(a)
    cmp = compare_talgebras_to_modules(
        ua, modules=[(reg_rel.comodule, reg_rel.module),
                     (arel.comodule, arel.module)])
    if not cmp.ok:
        return False, "dictionary round-trip failed"
    return True, "unit object algebra matches, dictionary round-trips"


def criterion_6(seed):
    """The full pipeline recovers the expected subalgebra with certified
    faithful flatness and surjectivity on both flagship quotients."""
    a = _grouplike_sub(sweedler4())
    res = theorem2_pipeline(quotient_module_coalgebra(a))
    g3 = symmetric_group_3()
    kf, a3, q3 = subgroup_data(QQ, g3, (0, 3))
    res3 = theorem2_pipeline(
        q3, objects=(trivial_comodule(kf), _sign_comodule(kf)))
    for res_i, a_i, nm in ((res, a, "four-dimensional"),
                           (res3, a3, "coset functions")):
        if not res_i.ok:
            return False, f"pipeline failed on the {nm} instance"
        if res_i.subalgebra.space != a_i.space:
            return False, f"wrong subalgebra on the {nm} instance"
        if not res_i.flatness.ok:
            return False, f"faithful flatness not certified on {nm}"
        stage = dict(res_i.stages).get("surjectivity")
        if stage is None or not stage.ok:
            return False, f"surjectivity stage not certified on {nm}"
    return True, "both pipelines certify the expected subalgebra"


def criterion_7(seed):
    """The comparison map and its inverse compose to identities and the
    seeded spot checks agree, within five seconds."""
    t0 = perf_counter()
    h = sweedler4()
    q = quotient_module_coalgebra(_grouplike_sub(h))
    breg = regular_comodule_of(q.coalgebra, "quotient regular")
    res = gamma_isomorphism(regular_comodule(h), breg, q, seed=seed)
    dt = perf_counter() - t0
    if not res.ok:
        return False, "comparison map checks failed"
    n = res.source.dim * h.dim
    if not (res.backward @ res.forward - identity_map(QQ, n)).is_zero():
        return False, "backward then forward is not the identity"
    if not (res.forward @ res.backward
            - identity_map(QQ, res.target.dim)).is_zero():
        return False, "forward then backward is not the identity"
    if not any("seeded" in note for note in res.report.assumptions):
        return False, "seeded spot checks did not run"
    if dt >= 5.0:
        return False, f"took {dt:.2f}s"
    return True, "mutually inverse exactly, 100 seeded checks agree"


def criterion_8(seed):
    """The adjunction bijection is certified with equal hom dimensions on
    both four-dimensional pairs."""
    h = sweedler4()
    a = _grouplike_sub(h)
    reg_rel = regular_relhopf(h, a.algebra, a.inclusion, name="regular")
    arel = coideal_as_relhopf(a)
    pairs = (("regular pair", reg_rel, 4), ("subalgebra pair", arel, 2))
    for nm, rel, want in pairs:
        res = adjunction_unit_counit_check(a, rel, regular_comodule(h))
        if not res.ok:
            return False, f"proof obligations failed on the {nm}"
        if res.colinear_maps.dim != res.module_maps.dim:
            return False, (f"hom dimensions differ on the {nm}: "
                           f"{res.colinear_maps.dim} vs "
                           f"{res.module_maps.dim}")
        if res.colinear_maps.dim != want:
            return False, (f"hom dimension {res.colinear_maps.dim} on the "
                           f"{nm}, expected {want}")
    return True, "bijection certified on both pairs, hom dimensions 4 and 2"


def criterion_9(seed):
    """The semisimple-restriction implication holds: hypothesis and both
    conclusions true on the group pair, no corpus falsification."""
    g = symmetric_group_3()
    kg = group_algebra(QQ, g)
    z = Subspace.from_vectors(QQ, 6, [basis_vector(QQ, 6, 0),
                                      basis_vector(QQ, 6, 3)])
    cs = c_semisimple_implication(kg, z, [regular_module(kg.algebra,
                                                         "right")])
    if not (cs.ok and cs.implication_ok):
        return False, "implication falsified on the group pair"
    if not cs.hypothesis_ok:
        return False, "restriction hypothesis unexpectedly false"
    if not (cs.cosemisimple.ok and cs.flat_left.ok and cs.flat_right.ok):
        return False, "a conclusion failed on the group pair"
    h4 = sweedler4()
    cs4 = c_semisimple_implication(h4, _span4(0, 3),
                                   [regular_module(h4.algebra, "right")])
    if not (cs4.ok and cs4.implication_ok):
        return False, "implication falsified on the four-dimensional instance"
    return True, "hypothesis and both conclusions true, no falsification"


def criterion_10(seed):
    """The flatness verdict agrees with the definitional preserve-and-
    reflect check on short exact sequences for every corpus instance."""
    h4 = sweedler4()
    spans = [("k", _span4(0)), ("1g", _span4(0, 2)),
             ("1gx", _span4(0, 3)), ("H", Subspace.full(QQ, 4))]
    instances = [verify_coideal_subalgebra(h4, s, name=nm)
                 for nm, s in spans]
    g = symmetric_group_3()
    for idx in S3_SUBGROUPS:
        instances.append(subgroup_data(QQ, g, idx)[1])
    for a in instances:
        for side in ("left", "right"):
            rep = ses_cross_check(a, side)
            if not rep.ok:
                bad = rep.failures()[0].name
                return False, f"disagreement on {a.name} ({side}): {bad}"
    return True, "verdicts agree on all eight instances, both sides"


def criterion_11(seed):
    """Pre-equivalence data certifies on identity data for every catalog
    coalgebra and on the coend pair, with an explicit regular witness."""
    for h in _hopf_corpus():
        rep = verify_pre_equivalence(identity_pre_equivalence(h.coalgebra))
        if not rep.ok:
            return False, f"identity data failed on {h.name}"
    kc2 = function_algebra(QQ, cyclic_group(2)).coalgebra
    col = {(0, 0): QQ.one, (1, 0): QQ.one,
           (2, 1): QQ.one, (3, 1): QQ.from_int(-1)}
    two = ComoduleData(QQ, 2, LinMap(QQ, 4, 2, col), kc2, "right",
                       "two weights")
    rep = verify_pre_equivalence(coend_pre_equivalence(two))
    if not rep.ok:
        return False, "the coend pair failed certification"
    ks3 = function_algebra(QQ, symmetric_group_3()).coalgebra
    for c, nm in ((kc2, "order two"), (ks3, "order six")):
        cr = coend_regular_isomorphism(c)
        if not cr.report.ok:
            return False, f"regular coend witness failed on the {nm} instance"
    return True, "identity data, the coend pair, and both regular witnesses pass"


CRITERIA = (
    (1, "axiom suites on the built-in instances", criterion_1),
    (2, "grouplike-span quotient and its coinvariants", criterion_2),
    (3, "exact roundtrips with matching verdicts", criterion_3),
    (4, "module-comodule equivalence composites", criterion_4),
    (5, "unit object algebra and the module dictionary", criterion_5),
    (6, "full pipeline on both flagship quotients", criterion_6),
    (7, "comparison isomorphism with seeded checks", criterion_7),
    (8, "adjunction bijection on the four-dimensional pairs", criterion_8),
    (9, "semisimple-restriction implication", criterion_9),
    (10, "flatness against the definitional cross-check", criterion_10),
    (11, "pre-equivalence data on the catalog", criterion_11),
)


def run_once(seed=DEFAULT_SEED):
    """One pass over criteria 1..11: a list of (number, ok, detail)."""
    return [(num, *fn(seed)) for num, _, fn in CRITERIA]


def run_all(seed=DEFAULT_SEED):
    """The full battery as a CertReport: two passes plus the determinism line."""
    t0 = perf_counter()
    first = run_once(seed)
    second = run_once(seed)
    rep = CertReport("suite all", seed=seed)
    for (num, label, _), (_, ok, detail) in zip(CRITERIA, first):
        rep.add(f"criterion-{num:02d} {label}", ok, detail)
    agree = first == second
    dt = perf_counter() - t0
    ok12 = agree and dt < 120.0
    if not agree:
        detail12 = "the two passes disagree"
    elif dt >= 120.0:
        detail12 = f"two passes took {dt:.2f}s"
    else:
        detail12 = "two passes byte-identical, within the time budget"
    rep.add("criterion-12 determinism of the battery", ok12, detail12)
    rep.elapsed = dt
    return rep
