"""Monadic machinery over the workbench's comodule categories.

Everything categorical here is represented extensionally: a functor is a pair
of callables (value on objects, value on morphism matrices), a natural
transformation is a family of matrices indexed by objects, and every law is
checked as a matrix identity on an explicit finite sample.  The pieces:

  * adjunction data between the category of right comodules and a target
    category, certified through the triangle identities, and the induced
    monad T = GF with its laws checked on every sampled object.
    Associativity at V is checked as the counit square along eps_FV,
    eps_FV o F(mu_V) = eps_FV o eps_F(TV), two maps F(T^2 V) -> FV, so
    T^3 V is never built.  A pass is exact, because G is a functor and
    mu_V = G(eps_FV); the cotensor's right_on_maps refuses any map that
    leaves the cotensor, so its restrictions compose exactly.  A failing
    square refutes associativity only where G is faithful, so it is
    reported as `counit square at V`;
  * extraction of the algebra living on T(unit object) when the monad is
    given with tensor-decomposition witnesses T(V) ~ V (x) T(I), plus the
    comparison between T-algebras and modules over that algebra;
  * the internal hom of comodules HOM(A, N) inside the map space, with its
    coaction transported through an evaluation isomorphism, cut down to the
    compatible part that carries both a right A-action and an H-coaction;
  * the unit/counit bijection for the induced-module adjunction, rebuilt
    from scratch and checked to be mutually inverse;
  * the surjectivity certificate that faithful coflatness forces on a
    quotient projection, and the pair of mutually inverse comparison maps
    between a tensor product and a cotensor product;
  * a pipeline that starts from a quotient module coalgebra candidate and
    ends with a certified coideal subalgebra carrying a faithful flatness
    verdict, halting with a stage name on the first failure.

Conventions.  Tensor legs and map spaces flatten as the linalg module
docstring says.  A map M -> Hom(A, N) flattens the Hom leg first: index
((n*dimA + a)*dimM + m).
"""

from dataclasses import dataclass, replace

from .linalg import (
    LinMap,
    Subspace,
    after_leg,
    diagonal,
    identity_map,
    invert,
    kernel_of,
    on_leg,
    on_leg_operator,
    placed,
    rank,
    regroup,
    stack_maps,
)
from .hopf import AlgebraData, antipode_bijective
from .certs import CertReport, VerificationFailed
from .repcats import (
    ComoduleData,
    ModuleData,
    RelHopfModuleData,
    _intertwining_relations,
    check_comodule,
    check_module,
    check_relhopf,
    comodule_on_subspace,
    corestrict_comodule,
    cotensor,
    hom_colinear,
    module_on_subspace,
    recover_coalgebra_map,
    regular_comodule,
    regular_comodule_of,
    regular_module,
    restrict_algebra,
    restricted_comultiplication,
    tensor_comodules,
    trivial_comodule,
)
from .correspondence import (
    coinvariants,
    cotensor_comodule,
    is_faithfully_coflat,
    is_faithfully_flat,
    quotient_coaction,
)


def _obj_name(v, i=None):
    n = getattr(v, "name", "")
    if n:
        return n
    return f"object {i}" if i is not None else f"object of dim {v.dim}"


# -- adjunctions and the induced monad ---------------------------------

@dataclass
class AdjunctionData:
    """An adjunction sampled on finitely many objects and morphisms.

    The left adjoint goes from the source category (whose objects are the
    comodules in sample_objects) to the target category; the right adjoint
    comes back.  Both functors are given extensionally, morphisms as plain
    matrices on carriers.  unit(v) is a matrix V -> RL(V); counit(m) is a
    matrix LR(M) -> M.
    """

    name: str
    left_on_objects: object
    left_on_maps: object
    right_on_objects: object
    right_on_maps: object
    unit: object
    counit: object
    sample_objects: tuple
    sample_targets: tuple = ()
    sample_morphisms: tuple = ()


@dataclass
class MonadSample:
    """A monad certified on a finite sample of objects.

    t_on_objects/t_on_maps give the endofunctor, eta and mu the unit and
    multiplication as matrix families.  When the monad comes from tensoring
    against the unit object's image, unit_object holds that one-dimensional
    object and tensor_witness(v) is a bijection V (x) T(I) -> T(V).
    """

    name: str
    field: object
    objects: tuple
    t_on_objects: object
    t_on_maps: object
    mu: object
    eta: object
    unit_object: object = None
    tensor_witness: object = None
    report: CertReport = None


def check_triangle_identities(adj):
    """Both adjunction triangles, on every sampled object of both sides."""
    rep = CertReport(f"triangle identities for {adj.name}")
    for i, v in enumerate(adj.sample_objects):
        lv = adj.left_on_objects(v)
        rlv = adj.right_on_objects(lv)
        comp = adj.counit(lv) @ adj.left_on_maps(v, rlv, adj.unit(v))
        diff = comp - identity_map(comp.field, lv.dim)
        rep.add(f"left-triangle at {_obj_name(v, i)}", diff.is_zero())
    targets = list(adj.sample_targets)
    targets += [adj.left_on_objects(v) for v in adj.sample_objects]
    for i, m in enumerate(targets):
        rm = adj.right_on_objects(m)
        lrm = adj.left_on_objects(rm)
        comp = adj.right_on_maps(lrm, m, adj.counit(m)) @ adj.unit(rm)
        diff = comp - identity_map(comp.field, rm.dim)
        rep.add(f"right-triangle at {_obj_name(m, i)}", diff.is_zero())
    return rep


def check_monad_laws(ms, adj):
    """Associativity and both unit laws of the monad GF of adj, on the
    samples.

    Associativity at V is checked as the counit square along eps_FV,

        eps_FV o F(mu_V) = eps_FV o eps_F(TV),

    a pair of maps F(T^2 V) -> FV, so nothing above T^2 V is built.  A
    pass is exact: mu_V = G(eps_FV) and G is a functor, so applying G to
    the square gives mu_V o T(mu_V) = mu_V o mu_TV.  A failing square
    refutes associativity only where G is faithful (the forgetful G of
    free_forget_adjunction is; the cotensor G is where the quotient is
    faithfully coflat, Takeuchi 1979), so it is reported as
    `counit square at V`, never as associativity.  The unit laws compose
    mu_V with T(eta_V) and with eta_TV, both maps out of TV.
    """
    rep = CertReport(f"monad laws for {ms.name}")
    for i, v in enumerate(ms.objects):
        nm = _obj_name(v, i)
        tv = ms.t_on_objects(v)
        t2v = ms.t_on_objects(tv)
        muv = ms.mu(v)
        eps_fv = adj.counit(adj.left_on_objects(v))
        lhs = eps_fv @ adj.left_on_maps(t2v, tv, muv)
        rhs = eps_fv @ adj.counit(adj.left_on_objects(tv))
        if (lhs - rhs).is_zero():
            rep.add(f"associativity at {nm}", True)
        else:
            rep.add(f"counit square at {nm}", False,
                    "eps_FV o F(mu_V) differs from eps_FV o eps_F(TV); "
                    "this refutes associativity only where the right "
                    "adjoint is faithful")
        one = identity_map(ms.field, tv.dim)
        d1 = muv @ ms.t_on_maps(v, tv, ms.eta(v)) - one
        rep.add(f"unit law (lifted unit) at {nm}", d1.is_zero())
        d2 = muv @ ms.eta(tv) - one
        rep.add(f"unit law (outer unit) at {nm}", d2.is_zero())
    return rep


def check_monad_naturality(ms, morphisms):
    rep = CertReport(f"monad naturality for {ms.name}")
    for src, dst, m in morphisms:
        nm = f"{_obj_name(src)} -> {_obj_name(dst)}"
        tsrc = ms.t_on_objects(src)
        tdst = ms.t_on_objects(dst)
        tm = ms.t_on_maps(src, dst, m)
        d1 = ms.eta(dst) @ m - tm @ ms.eta(src)
        rep.add(f"unit natural along {nm}", d1.is_zero())
        t2m = ms.t_on_maps(tsrc, tdst, tm)
        d2 = ms.mu(dst) @ t2m - tm @ ms.mu(src)
        rep.add(f"multiplication natural along {nm}", d2.is_zero())
    return rep


def monad_from_adjunction(adj, unit_object=None, tensor_witness=None):
    """Compose an adjunction into a monad and certify its laws.

    The triangle identities are checked first and a failure rejects the
    adjunction outright, naming the violating object.  The monad is then
    assembled as (right adjoint after left adjoint) with unit the
    adjunction unit and multiplication the whiskered counit, and the monad
    laws (associativity through the counit square, see check_monad_laws)
    plus naturality on sampled morphisms are certified.
    """
    tri = check_triangle_identities(adj)
    if not tri.ok:
        raise VerificationFailed(tri)

    def t_on_objects(v):
        return adj.right_on_objects(adj.left_on_objects(v))

    def t_on_maps(src, dst, m):
        lsrc = adj.left_on_objects(src)
        ldst = adj.left_on_objects(dst)
        return adj.right_on_maps(lsrc, ldst, adj.left_on_maps(src, dst, m))

    def mu(v):
        lv = adj.left_on_objects(v)
        lrlv = adj.left_on_objects(adj.right_on_objects(lv))
        return adj.right_on_maps(lrlv, lv, adj.counit(lv))

    f = adj.sample_objects[0].field
    rep = CertReport(f"monad induced by {adj.name}")
    rep.merge(tri)
    ms = MonadSample(adj.name, f, tuple(adj.sample_objects), t_on_objects,
                     t_on_maps, mu, adj.unit, unit_object, tensor_witness, rep)
    rep.merge(check_monad_laws(ms, adj))
    rep.merge(check_monad_naturality(ms, adj.sample_morphisms))
    if not rep.ok:
        raise VerificationFailed(rep)
    return ms


# -- free module / forgetful adjunction --------------------------------

def _free_object(h, a, acom, v):
    """V (x) A as a relative Hopf module: diagonal coaction, action on the
    right tensor leg."""
    f = h.field
    com = tensor_comodules(h, v, acom, name=f"{_obj_name(v)} (x) subalgebra")
    act = placed(v.dim, a.algebra.mult, 1)
    mod = ModuleData(f, v.dim * a.dim, act, a.algebra, "right", com.name)
    return RelHopfModuleData(h, a.algebra, a.inclusion, com, mod, com.name)


def free_forget_adjunction(a, objects=None, morphisms=()):
    """Left adjoint V -> V (x) A into relative Hopf modules over the
    verified coideal subalgebra a, right adjoint forgetting the action."""
    from .correspondence import coideal_as_relhopf
    if not a.ok:
        raise VerificationFailed(a.report)
    h = a.hopf
    f = h.field
    acom, _ = comodule_on_subspace(regular_comodule(h), a.space)
    acom.name = "subalgebra comodule"
    if objects is None:
        objects = (trivial_comodule(h), regular_comodule(h))
    unit_col = LinMap.from_column(f, a.algebra.unit_vector)

    def left_on_objects(v):
        return _free_object(h, a, acom, v)

    def left_on_maps(src, dst, m):
        return placed(1, m, a.dim)

    def right_on_objects(m):
        return m.comodule

    def right_on_maps(msrc, mdst, mat):
        return mat

    def unit(v):
        return placed(v.dim, unit_col, 1)

    def counit(m):
        return m.module.action

    return AdjunctionData(f"free/forget over {a.name or 'subalgebra'}",
                          left_on_objects, left_on_maps, right_on_objects,
                          right_on_maps, unit, counit, tuple(objects),
                          (coideal_as_relhopf(a),), tuple(morphisms))


def colinear_endomorphism(h, functional):
    """The comodule endomorphism of the regular comodule attached to a
    functional: first comultiply, then evaluate the functional on the
    second leg."""
    return on_leg(h.dim, LinMap.from_row(h.field, functional), 1, h.comult)


def free_forget_monad(a, objects=None, morphisms=()):
    """The induced monad V -> V (x) A with tensor witnesses the identity."""
    h = a.hopf
    f = h.field
    adj = free_forget_adjunction(a, objects, morphisms)
    i_obj = trivial_comodule(h)

    def witness(v):
        return identity_map(f, v.dim * a.dim)

    return monad_from_adjunction(adj, unit_object=i_obj, tensor_witness=witness)


# -- the algebra on T(I) and the T-algebra comparison ------------------

@dataclass
class UnitObjectAlgebra:
    algebra: AlgebraData
    monad: MonadSample
    report: CertReport

    @property
    def ok(self):
        return self.report.ok


def unit_object_algebra(ms, labels=()):
    """Extract the algebra carried by T(I) and recheck the tensor
    decomposition of the monad against it.

    The multiplication is the monad multiplication at the unit object,
    read through the witness T(I) (x) T(I) -> T(T(I)); the unit is the
    monad unit at I.  On every sampled object the witness must be
    bijective, the multiplication must factor as identity (x) mult, and
    the unit as identity (x) unit.  A failed factorization names the
    sampled object that broke it.  The report is returned, never raised.
    """
    if ms.unit_object is None or ms.tensor_witness is None:
        raise ValueError("monad sample carries no unit object witnesses")
    f = ms.field
    i_obj = ms.unit_object
    if i_obj.dim != 1:
        raise ValueError("unit object must be one-dimensional")
    ti = ms.t_on_objects(i_obj)
    d = ti.dim
    rep = CertReport(f"algebra on the unit object image of {ms.name}")
    w_ti = ms.tensor_witness(ti)
    mult = ms.mu(i_obj) @ w_ti
    unit = ms.eta(i_obj)
    alg = AlgebraData(f, d, mult, unit, tuple(labels))
    rep.merge(alg.check())
    for i, v in enumerate(ms.objects):
        nm = _obj_name(v, i)
        w_v = ms.tensor_witness(v)
        tv = ms.t_on_objects(v)
        okw = (w_v.rows == tv.dim and w_v.cols == v.dim * d
               and rank(w_v) == tv.dim)
        rep.add(f"witness bijective at {nm}", okw)
        if not okw:
            continue
        w2 = after_leg(ms.tensor_witness(tv), 1, w_v, d)
        d1 = ms.mu(v) @ w2 - after_leg(w_v, v.dim, mult, 1)
        rep.add(f"multiplication factors through T(I) at {nm}", d1.is_zero())
        d2 = ms.eta(v) - after_leg(w_v, v.dim, unit, 1)
        rep.add(f"unit factors through T(I) at {nm}", d2.is_zero())
    return UnitObjectAlgebra(alg, ms, rep)


@dataclass
class TAlgebraData:
    """A carrier comodule together with a structure map T(carrier) -> carrier."""

    carrier: ComoduleData
    structure: LinMap


def check_talgebra(ms, talg):
    """The unit and multiplication squares for a structure map over the
    sampled monad."""
    n = talg.carrier
    lam = talg.structure
    rep = CertReport(f"T-algebra on {_obj_name(n)}")
    tn = ms.t_on_objects(n)
    d1 = lam @ ms.t_on_maps(tn, n, lam) - lam @ ms.mu(n)
    rep.add("multiplication square", d1.is_zero())
    d2 = lam @ ms.eta(n) - identity_map(ms.field, n.dim)
    rep.add("unit square", d2.is_zero())
    return rep


def talgebra_to_module(ua, talg):
    """Rewrite a structure map as a right action of the unit object algebra."""
    ms = ua.monad
    act = talg.structure @ ms.tensor_witness(talg.carrier)
    return ModuleData(ms.field, talg.carrier.dim, act, ua.algebra, "right",
                      _obj_name(talg.carrier))


def module_to_talgebra(ua, com, mod):
    """Rewrite a right action of the unit object algebra as a structure map."""
    ms = ua.monad
    if com.dim != mod.dim:
        raise ValueError("carrier dimensions disagree")
    lam = mod.action @ invert(ms.tensor_witness(com))
    return TAlgebraData(com, lam)


def compare_talgebras_to_modules(ua, talgebras=None, modules=None):
    """Certify the dictionary between structure maps and module actions.

    Every sampled structure map must satisfy its two squares and convert
    to a verified module; every sampled module must convert to a verified
    structure map; and both composites must reproduce the input matrices
    exactly.  The free structure maps (T(V), mu_V) on the monad's samples
    are always included.  The comparison leans on the right adjoint being
    faithful, which holds here because it forgets structure without
    changing carriers; that hypothesis is recorded, not re-derived.
    """
    ms = ua.monad
    rep = CertReport(f"T-algebras versus modules for {ms.name}")
    rep.assume("right adjoint faithful: it forgets structure and keeps carriers")
    samples = [TAlgebraData(ms.t_on_objects(v), ms.mu(v)) for v in ms.objects]
    samples += list(talgebras or ())
    for talg in samples:
        nm = _obj_name(talg.carrier)
        rep.merge(check_talgebra(ms, talg), f"{nm}: ")
        mod = talgebra_to_module(ua, talg)
        rep.merge(check_module(mod), f"{nm} as module: ")
        back = module_to_talgebra(ua, talg.carrier, mod)
        rep.add(f"{nm}: round trip through modules",
                (back.structure - talg.structure).is_zero())
    for com, mod in modules or ():
        nm = _obj_name(com)
        talg = module_to_talgebra(ua, com, mod)
        rep.merge(check_talgebra(ms, talg), f"{nm}: ")
        back = talgebra_to_module(ua, talg)
        rep.add(f"{nm}: round trip through structure maps",
                (back.action - mod.action).is_zero())
    return rep


# -- internal hom of comodules -----------------------------------------

@dataclass
class InternalHomData:
    """The compatible part of the map space Hom(A, N).

    carrier is the subspace of compatible maps; comodule and module carry
    the transported coaction and the precomposition action in carrier
    coordinates; relhopf packages both.  omega and nu are the two
    structure transforms on the ambient map space, hom_space the locus
    where omega factors through nu.
    """

    subalgebra: object
    target: ComoduleData
    carrier: Subspace
    hom_space: Subspace
    omega: LinMap
    nu: LinMap
    ambient_coaction: LinMap
    comodule: ComoduleData = None
    module: ModuleData = None
    relhopf: RelHopfModuleData = None
    report: CertReport = None

    @property
    def dim(self):
        return self.carrier.dim

    @property
    def ok(self):
        return self.report.ok


def internal_hom(a, n):
    """Internal hom from a verified coideal subalgebra into a right
    comodule, as a subspace of the plain map space.

    The coaction candidate on a map f sends a to the coaction of f(a-first)
    multiplied against the antipode of a-second, where a-first (x) a-second
    is the restricted comultiplication of the subalgebra; it lives in
    Hom(A, N (x) H) and is pulled back through the evaluation transform nu
    into Hom(A, N) (x) H.  nu is certified bijective by exhibiting its
    transpose as a two-sided inverse, never assumed.  The compatible part
    additionally asks the coaction to intertwine the precomposition action
    with the diagonal action on the tensor leg; that locus is cut out as a
    kernel intersection, and the result is packaged with both structures
    and certified as a relative Hopf module.
    """
    if not a.ok:
        raise VerificationFailed(a.report)
    h = a.hopf
    f = h.field
    if not antipode_bijective(h)[0]:
        raise ValueError("antipode is not bijective")
    if n.side != "right":
        raise ValueError("internal hom takes a right comodule target")
    da, dn, dh = a.dim, n.dim, h.dim
    dmap = dn * da
    rep = CertReport(f"internal hom into {_obj_name(n)}")
    delta, _ = restricted_comultiplication(h, a.inclusion)
    twist = after_leg(h.mult, dh, h.antipode, 1)

    # fm |-> (I_N (x) twist) o (coaction o fm (x) I_H) o delta
    omega = on_leg(dn, twist, da, on_leg_operator(1, dn * dh, dh, delta)
                   @ placed(1, n.coaction, da))

    # (n, a, h) -> (n, h, a)
    nu = regroup(identity_map(f, dmap * dh), (dn, da, dh), (dmap * dh,),
                 (0, 2, 1), (3,))
    nu_inv = nu.transpose()
    ident = identity_map(f, dmap * dh)
    bij = (nu @ nu_inv - ident).is_zero() and (nu_inv @ nu - ident).is_zero()
    rep.add("evaluation transform bijective", bij)
    if not bij:
        raise VerificationFailed(rep)
    hom_space = Subspace.full(f, dmap)
    rep.add("coaction candidate lifts through the evaluation transform",
            True, "the transform is onto, so the lift exists everywhere")
    rho = nu_inv @ omega

    lmults = regular_module(a.algebra, "left").action_operators()
    pre = [placed(dn, l.transpose(), 1) for l in lmults]
    rmults = regular_module(h.algebra, "right").action_operators()
    conds = []
    for j in range(da):
        lhs = rho @ pre[j]
        rhs = LinMap.zero(f, dmap * dh, dmap)
        for (row, col), c in delta.entries():
            if col != j:
                continue
            k, l = divmod(row, dh)
            rhs = rhs + on_leg(1, pre[k], dh, on_leg(dmap, rmults[l], 1, rho)).scale(c)
        conds.append(lhs - rhs)
    carrier = kernel_of(stack_maps(conds))

    amb_com = ComoduleData(f, dmap, rho, h.coalgebra, "right",
                           "internal hom")
    # column c of the operator of e_j is column c*da + j of the action
    act = regroup(stack_maps(pre), (da, dmap), (dmap,), (1,), (2, 0))
    amb_mod = ModuleData(f, dmap, act, a.algebra, "right", amb_com.name)
    out = InternalHomData(a, n, carrier, hom_space, omega, nu, rho,
                          report=rep)
    try:
        out.comodule, _ = comodule_on_subspace(amb_com, carrier)
    except ValueError as e:
        rep.add("coaction preserves the compatible part", False, str(e))
        raise VerificationFailed(rep)
    rep.add("coaction preserves the compatible part", True)
    try:
        out.module, _ = module_on_subspace(amb_mod, carrier)
    except ValueError as e:
        rep.add("action preserves the compatible part", False, str(e))
        raise VerificationFailed(rep)
    rep.add("action preserves the compatible part", True)
    rep.merge(check_comodule(out.comodule), "comodule ")
    rep.merge(check_module(out.module), "module ")
    out.relhopf = RelHopfModuleData(h, a.algebra, a.inclusion, out.comodule,
                                    out.module, amb_com.name)
    rep.merge(check_relhopf(out.relhopf), "compatibility ")
    if not rep.ok:
        raise VerificationFailed(rep)
    return out


def _module_to_hom_operator(m, dn):
    """Matrix sending a map phi: M -> N to the map M -> Hom(A, N) that
    feeds the action into the map's argument, (phi (x) I_A) o sigma with
    sigma: M -> M (x) A the right action with its A leg moved to the rows."""
    sigma = regroup(m.action, (m.dim,), (m.dim, m.over.dim), (0, 2), (1,))
    return on_leg_operator(1, dn, m.over.dim, sigma)


@dataclass
class AdjunctionHomResult:
    colinear_maps: Subspace
    module_maps: Subspace
    forward: LinMap
    backward: LinMap
    report: CertReport

    @property
    def ok(self):
        return self.report.ok


def adjunction_unit_counit_check(a, m, n):
    """The induced-module adjunction bijection, rebuilt and certified.

    Forward direction: a colinear map phi from the relative Hopf module M
    into N becomes the map sending m to (b -> phi(m.b)), which must be
    well-valued in the compatible part of Hom(A, N), intertwine the
    actions, and intertwine the coactions; each of those three obligations
    is rechecked mechanically and failures name the one that broke.
    Backward direction: evaluate at the subalgebra unit.  Both composites
    are checked to be identities on the computed hom subspaces.
    """
    ihom = internal_hom(a, n)
    f = a.hopf.field
    dm, dn = m.dim, n.dim
    rep = CertReport(f"hom adjunction at ({_obj_name(m)}, {_obj_name(n)})")
    lhs = hom_colinear(m.comodule, n)
    t0 = _module_to_hom_operator(m.module, dn)
    lhs_b = lhs.basis_map()
    translated, lands = ihom.carrier.factor(t0 @ lhs_b, 1, dm)
    rep.add("translate lands in the compatible part", lands)

    rel = _intertwining_relations(m.module.action_operators(),
                                  ihom.module.action_operators())
    d2 = rel @ translated
    rep.add("translate intertwines the actions", d2.is_zero())

    colin = hom_colinear(m.comodule, ihom.comodule)
    rep.add("translate intertwines the coactions",
            colin.factor(translated)[1])

    rhs = kernel_of(rel).intersect(colin)
    rep.add("dimensions match", lhs.dim == rhs.dim,
            f"({lhs.dim}, {rhs.dim})")
    forward = rhs.coords_map() @ translated

    # evaluation at the unit: u^T on the A leg of each compatible map
    ev = on_leg(dn, a.algebra.unit.transpose(), 1, ihom.carrier.basis_map())
    backward, lands = lhs.factor(on_leg(1, ev, dm, rhs.basis_map()))
    rep.add("evaluation lands in the colinear maps", lands)
    d3 = backward @ forward - identity_map(f, lhs.dim)
    rep.add("evaluation after translate is the identity", d3.is_zero())
    d4 = forward @ backward - identity_map(f, rhs.dim)
    rep.add("translate after evaluation is the identity", d4.is_zero())
    return AdjunctionHomResult(lhs, rhs, forward, backward, rep)


# -- surjectivity forced by faithful coflatness ------------------------

def surjectivity_from_coflatness(q):
    """Certificates that a quotient projection with the right coflatness
    behavior is onto: the projection has full rank, comultiplication lands
    in the mixed cotensor, the projected map onto the one-sided cotensor
    is onto, and the full composite back to the original space is the
    identity."""
    return _surjectivity(q, _Cotensors(q))


def _surjectivity(q, cotensors):
    """surjectivity_from_coflatness, its two cotensors looked up in
    cotensors: the mixed one is that of F(H), H corestricted to the
    quotient, and the one-sided one that of the quotient regular
    comodule."""
    h = q.hopf
    f = h.field
    b = q.coalgebra
    rep = CertReport("surjectivity from coflatness")
    r = rank(q.projection)
    rep.add("projection has full rank", r == b.dim,
            f"rank {r} against dim {b.dim}")
    dh = h.dim
    right = quotient_coaction(q, "right", "whole algebra, right quotient coaction")
    mixed = cotensors.space(right)
    rep.add("comultiplication lands in the cotensor",
            mixed.factor(h.comult)[1])
    onesided = cotensors.space(regular_comodule_of(b, "quotient regular"))
    mapped = onesided.coords_map() @ on_leg(1, q.projection, dh, mixed.basis_map())
    r = rank(mapped)
    rep.add("projected cotensor map is onto", r == onesided.dim,
            f"rank {r} against dim {onesided.dim}")
    rep.add("counit leg identifies the one-sided cotensor",
            rank(on_leg(1, b.counit, dh, onesided.basis_map())) == onesided.dim)
    comp = on_leg(1, b.counit @ q.projection, dh, h.comult) - identity_map(f, dh)
    rep.add("composite is the identity", comp.is_zero())
    return rep


# -- the tensor/cotensor comparison maps -------------------------------

def translated_tensor(x, m, q):
    """Tensor a right comodule over the whole algebra against a comodule
    over the quotient, with coaction pushed through the translation
    action: x (x) m -> x0 (x) m0 (x) x1.m1, `diagonal` of the two
    coactions contracted by the action into the quotient."""
    return ComoduleData(q.hopf.field, x.dim * m.dim,
                        diagonal(x.coaction, x.dim, m.coaction, m.dim, q.action),
                        q.coalgebra, "right",
                        f"{_obj_name(x)} translated-tensor {_obj_name(m)}")


def psi_module_functor_report(q):
    """Check that corestriction along the quotient projection respects
    tensoring by a comodule: corestricting a tensor product equals the
    translated tensor against the corestriction.  Only this one adjoint
    is asked to respect the action; the report records the asymmetry."""
    return _module_functor(q, _Cotensors(q))


def _module_functor(q, cotensors):
    """psi_module_functor_report, its corestrictions looked up in
    cotensors."""
    h = q.hopf
    rep = CertReport("module functor check, corestriction")
    rep.assume("hypothesis set: only the corestriction functor is required "
               "to respect tensoring by a comodule")
    reg = regular_comodule(h)
    for x, v in ((reg, trivial_comodule(h)), (reg, reg)):
        nm = f"({_obj_name(x)}, {_obj_name(v)})"
        lhs = cotensors.corestrict(tensor_comodules(h, x, v))
        rhs = translated_tensor(x, cotensors.corestrict(v), q)
        rep.add(f"corestriction square at {nm}",
                (lhs.coaction - rhs.coaction).is_zero())
    return rep


@dataclass
class GammaResult:
    forward: LinMap
    backward: LinMap
    source: Subspace
    target: Subspace
    report: CertReport

    @property
    def ok(self):
        return self.report.ok


def _gamma_forward(x, m, s1, s2, q, rep):
    """The forward comparison map in subspace coordinates, checking that it
    lands in s2.  s1 is the cotensor of m, and s2 that of
    translated_tensor(x, m, q), against the left quotient comodule of q."""
    # x (x) (m (x) h) -> x0 (x) m (x) x1*h on the basis B_1 of s1
    forward, lands = s2.factor(
        diagonal(x.coaction, x.dim, s1.basis_map(), m.dim, q.hopf.mult))
    rep.add("forward map lands in the translated cotensor", lands,
            None if lands
            else "membership in the cotensor over the quotient failed")
    return forward


# seeded random vectors on which gamma_isomorphism rechecks the round trip
_GAMMA_SAMPLES = 100


def gamma_isomorphism(x, m, q, seed=20260822):
    """The mutually inverse comparison between tensoring after cotensoring
    and cotensoring after the translated tensor.

    Forward: first coact on the left tensorand, swap, multiply the
    algebra legs.  Backward: the same shape with the antipode inserted.
    Both are checked to stay inside the stated subspaces, both composites
    are checked to be the identity on the computed coordinates, and a
    seeded batch of pseudo-random vectors rechecks the round trip
    exactly."""
    import random
    h = q.hopf
    rep = CertReport(f"tensor/cotensor comparison at "
                     f"({_obj_name(x)}, {_obj_name(m)})")
    if not antipode_bijective(h)[0]:
        raise ValueError("antipode is not bijective")
    fc = is_faithfully_coflat(q, "left")
    rep.add("faithfully coflat over the quotient", fc.ok)
    if not fc.ok:
        raise VerificationFailed(rep)
    left = quotient_coaction(q, "left", "whole algebra, left coaction")
    s1 = cotensor(m, left)
    s2 = cotensor(translated_tensor(x, m, q), left)
    forward = _gamma_forward(x, m, s1, s2, q, rep)
    f = h.field
    dx, dm, dh = x.dim, m.dim, h.dim
    smult = after_leg(h.mult, 1, h.antipode, dh)
    # x (x) m (x) h -> x0 (x) x1 (x) m (x) h -> x0 (x) m (x) S(x1)*h on B_2
    bwd_cols = on_leg(dx * dm, smult, 1, regroup(
        on_leg(1, x.coaction, dm * dh, s2.basis_map()),
        (dx, dh, dm, dh), (s2.dim,), (0, 2, 1, 3), (4,)))
    backward, lands = s1.factor(bwd_cols, dx, 1)
    rep.add("backward map lands in the tensor against the cotensor", lands,
            None if lands
            else "membership in the source cotensor failed")
    dsrc = dx * s1.dim
    d1 = backward @ forward - identity_map(f, dsrc)
    rep.add("backward after forward is the identity", d1.is_zero())
    d2 = forward @ backward - identity_map(f, s2.dim)
    rep.add("forward after backward is the identity", d2.is_zero())
    rng = random.Random(seed)
    bad = None
    for t in range(_GAMMA_SAMPLES):
        vec = tuple(f.from_int(rng.randint(-3, 3)) for _ in range(dsrc))
        out = backward.apply(forward.apply(vec))
        if out != vec:
            bad = (t, vec)
            break
    rep.add(f"round trip on {_GAMMA_SAMPLES} seeded random vectors", bad is None,
            None if bad is None else f"vector {bad[0]}: {bad[1]}")
    rep.assume(f"pseudo-random check seeded with {seed}")
    return GammaResult(forward, backward, s1, s2, rep)


# -- cotensor adjunction and the full pipeline -------------------------

def cotensor_psi_adjunction(q):
    """Left adjoint corestriction along the quotient projection, right
    adjoint the cotensor back up against the whole algebra: carrier the
    cotensor subspace, coaction induced by comultiplying the algebra leg.

    The unit at V is the coaction of V read in cotensor coordinates; the
    counit at N applies the algebra counit to the cotensor's second leg.
    The left adjoint builds a new object on every call, so its
    corestricted coaction, each cotensor and its comodule, and the unit,
    counit and right adjoint on maps, are computed once per value of
    their arguments: an object's value is its
    dimension and coaction entries, and every object of the target
    category is a comodule over the quotient.
    """
    return _cotensor_psi(q, None, _Cotensors(q))


def _by_value(n):
    """The key of a comodule in the memos of the cotensor adjunction: its
    dimension and coaction entries."""
    return n.dim, frozenset(n.coaction.entries())


def _memoized(fn, key):
    """fn computed once per key(*args), for the life of the returned
    function."""
    memo = {}

    def call(*args):
        k = key(*args)
        if k not in memo:
            memo[k] = fn(*args)
        return memo[k]

    return call


class _Cotensors:
    """The cotensors against the left quotient comodule of q, each
    computed once and found by the value of the right comodule (_by_value),
    for one pipeline run or one adjunction.  Stages build objects of equal
    value on their own: the left adjoint on every call, the surjectivity
    certificate and each tensor witness.  The comodule on a cotensor is
    built only for the stages that ask for it.  Corestrictions along the
    projection are kept the same way, keyed by side as well, so a left
    comodule is still refused."""

    def __init__(self, q):
        self.hopf = q.hopf
        self.left = quotient_coaction(q, "left", "whole algebra, left coaction")
        self._quotient = q.coalgebra, q.projection
        self._memo = {}
        self._corestricted = {}

    def corestrict(self, v):
        """corestrict_comodule(v, ...) along the projection: a new object,
        named after v, on every call."""
        key = v.side, _by_value(v)
        c = self._corestricted.get(key)
        if c is None:
            c = self._corestricted[key] = corestrict_comodule(v, *self._quotient)
        return replace(c, name=v.name)

    def _entry(self, n):
        key = _by_value(n)
        e = self._memo.get(key)
        if e is None:
            e = self._memo[key] = [cotensor(n, self.left), None]
        return e

    def space(self, n):
        return self._entry(n)[0]

    def comodule(self, n):
        e = self._entry(n)
        if e[1] is None:
            e[1] = cotensor_comodule(e[0], n, self.hopf)
        return e[1]


def _cotensor_psi(q, objects, cotensors):
    """cotensor_psi_adjunction, its cotensors looked up in cotensors."""
    h = q.hopf
    b = q.coalgebra

    def left_on_maps(src, dst, m):
        return m

    def right_on_objects(n):
        return replace(cotensors.comodule(n),
                       name=f"cotensor against {_obj_name(n)}")

    def right_on_maps(nsrc, ndst, mat):
        s_src, s_dst = cotensors.space(nsrc), cotensors.space(ndst)
        out, lands = s_dst.factor(on_leg(1, mat, h.dim, s_src.basis_map()))
        if not lands:
            raise ValueError("map does not preserve the cotensor")
        return out

    def unit(v):
        out, lands = cotensors.space(cotensors.corestrict(v)).factor(v.coaction)
        if not lands:
            raise ValueError("coaction does not land in the cotensor")
        return out

    def counit(n):
        return on_leg(n.dim, h.counit, 1, cotensors.space(n).basis_map())

    if objects is None:
        objects = (trivial_comodule(h), regular_comodule(h))
    targets = (regular_comodule_of(b, "quotient regular"),)
    return AdjunctionData(
        f"corestriction/cotensor over {q.name or 'quotient'}",
        cotensors.corestrict, left_on_maps, right_on_objects,
        _memoized(right_on_maps, lambda nsrc, ndst, mat: (
            _by_value(nsrc), _by_value(ndst), mat.rows, mat.cols,
            frozenset(mat.entries()))),
        _memoized(unit, _by_value), _memoized(counit, _by_value),
        tuple(objects), targets)


def cotensor_psi_monad(q):
    """The induced monad with tensor witnesses given by the forward
    comparison map against the trivial comodule over the quotient."""
    return _cotensor_psi_monad(q, None, _Cotensors(q))[0]


def _cotensor_psi_monad(q, objects, cotensors):
    """cotensor_psi_monad, and the cotensor carrying its unit object."""
    h = q.hopf
    adj = _cotensor_psi(q, objects, cotensors)
    i_obj = trivial_comodule(h)
    triv_b = cotensors.corestrict(i_obj)
    s1 = cotensors.space(triv_b)

    def witness(v):
        rep = CertReport("tensor witness")
        s2 = cotensors.space(translated_tensor(v, triv_b, q))
        forward = _gamma_forward(v, triv_b, s1, s2, q, rep)
        if not rep.ok:
            raise VerificationFailed(rep)
        return forward

    ms = monad_from_adjunction(adj, unit_object=i_obj, tensor_witness=witness)
    return ms, s1


@dataclass
class Theorem2Result:
    quotient: object
    subalgebra: object
    algebra: AlgebraData
    flatness: object
    coflatness: object
    stages: tuple
    report: CertReport

    @property
    def ok(self):
        return self.report.ok


def _pipeline_stage(rep, stages, stage, sub):
    stages.append((stage, sub))
    rep.merge(sub, f"[{stage}] ")
    if not sub.ok:
        rep.add(f"pipeline halted at stage {stage}", False)
        raise VerificationFailed(rep)


def theorem2_pipeline(q, objects=None):
    """From a quotient module coalgebra candidate to a certified coideal
    subalgebra with a faithful flatness verdict.

    Stages, in order, each halting the pipeline on failure: recover the
    coalgebra map from the coaction and match it against the projection;
    recheck the translation action; certify faithful coflatness; run the
    surjectivity certificates; compute the coinvariants as a verified
    coideal subalgebra; check the corestriction respects tensoring; run
    the monad extraction and match the extracted algebra against the
    restricted multiplication; and certify faithful flatness over the
    subalgebra."""
    h = q.hopf
    rep = CertReport(f"quotient-to-subalgebra pipeline "
                     f"for {q.name or 'quotient'}")
    stages = []
    # every cotensor of the run, shared by the surjectivity and monad stages
    cotensors = _Cotensors(q)

    sub = CertReport("coalgebra map recovery")
    lam = quotient_coaction(q, "right").coaction
    psi, rrep = recover_coalgebra_map(h, q.coalgebra, lam)
    sub.merge(rrep)
    sub.add("recovered map equals the projection",
            (psi - q.projection).is_zero())
    _pipeline_stage(rep, stages, "coalgebra map recovery", sub)

    sub = CertReport("translation action")
    d = after_leg(q.action, h.dim, q.projection, 1) - q.projection @ h.mult
    sub.add("projection intertwines multiplication and action", d.is_zero())
    _pipeline_stage(rep, stages, "translation action", sub)

    cofl = is_faithfully_coflat(q, "left")
    _pipeline_stage(rep, stages, "faithful coflatness", cofl.report)

    _pipeline_stage(rep, stages, "surjectivity", _surjectivity(q, cotensors))

    a = coinvariants(q)
    _pipeline_stage(rep, stages, "coinvariants", a.report)

    _pipeline_stage(rep, stages, "module functor",
                    _module_functor(q, cotensors))

    sub = CertReport("monad extraction")
    ms, s1 = _cotensor_psi_monad(q, objects, cotensors)
    sub.merge(ms.report)
    labels = tuple(h.labels[p] for p in a.space.pivots) if h.labels else ()
    ua = unit_object_algebra(ms, labels=labels)
    sub.merge(ua.report)
    sub.add("unit object carrier matches the coinvariants",
            s1 == a.space)
    restricted, _ = restrict_algebra(h.algebra, a.space, labels)
    sub.add("extracted multiplication is the restricted multiplication",
            (ua.algebra.mult - restricted.mult).is_zero())
    sub.add("extracted unit is the restricted unit",
            (ua.algebra.unit - restricted.unit).is_zero())
    _pipeline_stage(rep, stages, "monad extraction", sub)

    fl = is_faithfully_flat(a, "left")
    _pipeline_stage(rep, stages, "faithful flatness", fl.report)

    return Theorem2Result(q, a, ua.algebra, fl, cofl, tuple(stages), rep)
