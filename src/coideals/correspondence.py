"""Right coideal subalgebras, quotient module coalgebras, and the exact
correspondence between the two, with faithful (co)flatness certificates.

Conventions, fixed once here and relied on throughout:

  * A coideal subalgebra is a subspace A of a Hopf algebra H that contains
    the unit, is closed under the product, and satisfies the right coideal
    condition Delta(A) <= A (x) H.  Both certificates are computed by exact
    membership tests and the failing basis element is named.
  * Its augmentation ideal is A+, the intersection of A with the kernel of
    the counit; the quotient coalgebra is
    B = H / H.A+ presented on the non-pivot coordinates of the ideal's
    canonical basis, and the left H-action on B is induced by the product.
  * Coinvariants of a quotient pi: H -> B are the kernel of
    h |-> pi(h1) (x) h2 - pi(1) (x) h.
  * Faithful flatness at finite dimension is decided as projectivity (a
    module-linear section of a free cover) plus nonvanishing of the tensor
    with every simple module; the definitional short-exact-sequence
    formulation is kept as an independent cross-check on small instances.
  * Faithful coflatness is decided on the dual: transpose the comodule
    structure and run the same flatness core over the dual algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certs import CertReport, VerificationFailed
from .hopf import (
    AlgebraData,
    CoalgebraData,
    HopfAlgebraData,
    _default_labels,
    _witness,
    hit_action,
)
from .linalg import (
    DimensionMismatchError,
    LinMap,
    Subspace,
    basis_vector,
    find_section,
    identity_map,
    image_of,
    kernel_of,
    rank,
    stack_maps,
    swap_map,
)
from .repcats import (
    ComoduleData,
    ModuleData,
    RelHopfModuleData,
    _quotient_maps,
    check_comodule,
    check_module,
    check_relhopf,
    comodule_morphism_ok,
    comodule_on_subspace,
    comodule_to_dual_module,
    cotensor,
    generated_submodule,
    is_coalgebra_map,
    is_cosemisimple,
    is_module_semisimple,
    module_on_quotient,
    module_on_subspace,
    radical_and_simples,
    regular_comodule,
    regular_comodule_of,
    regular_module,
    regular_relhopf,
    restrict_algebra,
    restrict_module,
    simple_comodules,
    socle_wrt,
)


# -- shared small helpers ----------------------------------------------

def _times_basis(f, r, d, j):
    """r (x) e_j in k^len(r) (x) k^d: the entries of r placed at the
    positions p*d + j, with no products formed."""
    v = [f.zero] * (len(r) * d)
    v[j::d] = r
    return tuple(v)


def _balanced_relations(f, left_ops, right_ops, dl, dr):
    """The rows l.a (x) e_k - e_i (x) a.r spanning the relations of the
    balanced tensor L (x)_A R, in the order (a, i, k); left_ops act on L
    from the right, right_ops on R from the left, one per basis element a.
    With e_i (x) e_k at i*dr + k, entry v of l.a at row r is placed at
    r*dr + k and entry w of a.r at row s subtracted at i*dr + s."""
    rels = []
    for la, ra in zip(left_ops, right_ops):
        lcols = [[] for _ in range(dl)]
        for (r, i), v in la.entries():
            lcols[i].append((r, v))
        rcols = [[] for _ in range(dr)]
        for (s, k), w in ra.entries():
            rcols[k].append((s, w))
        for i in range(dl):
            for k in range(dr):
                row = [f.zero] * (dl * dr)
                for r, v in lcols[i]:
                    row[r * dr + k] = v
                for s, w in rcols[k]:
                    p = i * dr + s
                    row[p] = f.sub(row[p], w) if row[p] else f.neg(w)
                rels.append(tuple(row))
    return rels


def _hconcat(maps):
    """Place LinMaps with equal row counts side by side."""
    f = maps[0].field
    rows = maps[0].rows
    ent = {}
    off = 0
    for m in maps:
        if m.rows != rows:
            raise DimensionMismatchError(
                f"map with {m.rows} rows beside one with {rows}")
        for (r, c), v in m.entries():
            ent[(r, off + c)] = v
        off += m.cols
    return LinMap(f, rows, off, ent)


def _first_coproduct_outside(comult, rows, vectors):
    """Index of the first row whose coproduct lies outside the span of the
    vectors in the tensor square, or None when every coproduct lies in it."""
    d = comult.cols
    mixed = Subspace.from_vectors(comult.field, d * d, vectors)
    return next((i for i, r in enumerate(rows)
                 if not mixed.contains(comult.apply(r))), None)


# -- the two sides of the correspondence --------------------------------

@dataclass
class CoidealSubalgebraData:
    """A candidate right coideal subalgebra with its certificates.

    algebra and inclusion are populated only when the subalgebra
    certificate holds; the coideal certificate is computed either way."""

    hopf: HopfAlgebraData
    space: Subspace
    report: CertReport
    algebra: AlgebraData | None = None
    inclusion: LinMap | None = None
    side: str = "right"
    name: str = ""

    @property
    def ok(self):
        return self.report.ok

    @property
    def dim(self):
        return self.space.dim

    def __bool__(self):
        return self.ok


@dataclass
class QuotientModuleCoalgebraData:
    """A quotient left module coalgebra pi: H -> B with the left H-action
    sigma: H (x) B -> B and the verification report for all of:
    surjectivity of pi, the kernel being a coideal and a left ideal, pi
    being a coalgebra map, sigma being a left module structure, and pi
    intertwining the product with sigma."""

    hopf: HopfAlgebraData
    coalgebra: CoalgebraData
    projection: LinMap
    action: LinMap
    report: CertReport
    section: LinMap | None = None
    kernel: Subspace = None
    name: str = ""

    @property
    def ok(self):
        return self.report.ok

    @property
    def dim(self):
        return self.coalgebra.dim

    def __bool__(self):
        return self.ok


def _require(data):
    if not data.report.ok:
        raise VerificationFailed(data.report)


def verify_coideal_subalgebra(h, s, name=""):
    """Certify a subspace of a Hopf algebra as a right coideal subalgebra.

    The report carries one check per certificate; a failure names the first
    violating basis element (by the label of its leading coordinate).  The
    data object is returned in both the passing and the failing case."""
    f = h.field
    rep = CertReport(name or "coideal subalgebra")
    piv_labels = [h.labels[p] for p in s.pivots]

    sub_ok = s.contains(h.unit_vector())
    sub_witness = None if sub_ok else "(1)"
    if sub_ok:
        for i, ri in enumerate(s.rows):
            for j, rj in enumerate(s.rows):
                if not s.contains(h.algebra.product(ri, rj)):
                    sub_ok = False
                    sub_witness = f"({piv_labels[i]},{piv_labels[j]})"
                    break
            if not sub_ok:
                break
    rep.add("is-subalgebra", sub_ok, sub_witness)

    bad = _first_coproduct_outside(
        h.comult, s.rows,
        [_times_basis(f, r, h.dim, j) for r in s.rows for j in range(h.dim)])
    rep.add("is-coideal", bad is None,
            None if bad is None else f"({piv_labels[bad]})")

    algebra = inclusion = None
    if sub_ok:
        algebra, inclusion = restrict_algebra(h.algebra, s, labels=piv_labels)
    return CoidealSubalgebraData(h, s, rep, algebra, inclusion, "right", name)


def augmentation_ideal(a):
    """The intersection of A with the kernel of the counit, as a canonical
    subspace of the ambient Hopf algebra.  Always one dimension below A,
    since a unital subalgebra meets the counit nontrivially."""
    _require(a)
    f = a.hopf.field
    ker = kernel_of(a.hopf.counit @ a.inclusion)
    vecs = [a.inclusion.apply(r) for r in ker.rows]
    return Subspace.from_vectors(f, a.hopf.dim, vecs)


def quotient_data(h, b, pi, sigma, section=None, name="", certify=True):
    """Assemble and verify a quotient left module coalgebra candidate.

    All structural invariants are checked mechanically; certify=True raises
    on any failure, certify=False returns the data with the failing report
    (used for candidates whose projection is deliberately unverified)."""
    f = h.field
    ih = identity_map(f, h.dim)
    rep = CertReport(name or f"quotient coalgebra dim {b.dim}")

    r = rank(pi)
    surj = r == b.dim
    rep.add("projection-surjective", surj,
            None if surj else f"rank {r} < {b.dim}")
    if section is None and surj:
        section = find_section(pi)
    if section is not None:
        if pi @ section != identity_map(f, b.dim):
            raise ValueError("projection after section is not the identity")

    ker = kernel_of(pi)
    ker_labels = [h.labels[p] for p in ker.pivots]
    eps_ker = h.counit @ ker.basis_map() if ker.dim else LinMap.zero(f, 1, 0)
    rep.add("kernel-counit-vanishes", eps_ker.is_zero(),
            _witness(eps_ker, [ker_labels]))

    if ker.dim:
        two_sided = []
        zeros = (f.zero,) * h.dim
        for r in ker.rows:
            for j in range(h.dim):
                two_sided.append(_times_basis(f, r, h.dim, j))
                two_sided.append(zeros * j + r + zeros * (h.dim - 1 - j))
        bad = _first_coproduct_outside(h.comult, ker.rows, two_sided)
        rep.add("kernel-is-coideal", bad is None,
                None if bad is None else f"({ker_labels[bad]})")
        left_ideal = pi @ h.mult @ ih.tensor(ker.basis_map())
        rep.add("kernel-is-left-ideal", left_ideal.is_zero(),
                _witness(left_ideal, [[f"h{i},{l}" for i in range(h.dim)
                                       for l in ker_labels]]))
    else:
        rep.add("kernel-is-coideal", True)
        rep.add("kernel-is-left-ideal", True)

    rep.merge(b.check(), "quotient ")
    rep.merge(is_coalgebra_map(pi, h.coalgebra, b), "projection ")
    rep.merge(check_module(ModuleData(f, b.dim, sigma, h.algebra, "left")), "module ")
    lin = sigma @ ih.tensor(pi) - pi @ h.mult
    rep.add("projection-module-linear", lin.is_zero())

    out = QuotientModuleCoalgebraData(h, b, pi, sigma, rep, section, ker, name)
    if certify and not rep.ok:
        raise VerificationFailed(rep)
    return out


def quotient_through_section(h, pi, sect, labels):
    """The coalgebra B and left H-action sigma that a projection pi: H -> B
    induces through a section: comultiplication (pi (x) pi) o Delta o sect,
    counit eps o sect, and sigma = pi o mult o (id (x) sect).  Returns
    (B, sigma); quotient_data certifies that they are well defined."""
    f = h.field
    b = CoalgebraData(f, pi.rows, pi.tensor(pi) @ h.comult @ sect,
                      h.counit @ sect, labels)
    sigma = pi @ h.mult @ identity_map(f, h.dim).tensor(sect)
    return b, sigma


def quotient_module_coalgebra(a, name=""):
    """B = H / H.A+ with the induced comultiplication, counit, and left
    H-action, presented on the non-pivot coordinates of H.A+ and verified
    end to end."""
    _require(a)
    h = a.hopf
    f = h.field
    aplus = augmentation_ideal(a)
    products = []
    for i in range(h.dim):
        e_i = basis_vector(f, h.dim, i)
        for r in aplus.rows:
            products.append(h.algebra.product(e_i, r))
    ideal = Subspace.from_vectors(f, h.dim, products)
    proj, sect = _quotient_maps(ideal)
    labels = tuple("[{}]".format(h.labels[c]) for c in range(h.dim)
                   if c not in ideal.pivots)
    b, sigma = quotient_through_section(h, proj, sect, labels)
    return quotient_data(h, b, proj, sigma, section=sect,
                         name=name or (f"{h.name or 'H'} mod ideal of "
                                       f"{a.name or 'A'}"))


def coinvariants(q, name=""):
    """The coideal subalgebra recovered from a quotient: the kernel of
    h |-> pi(h1) (x) h2 - pi(1) (x) h, certified by
    verify_coideal_subalgebra.  A certificate failure here means the
    quotient's own invariants were not truly satisfied, so it raises."""
    _require(q)
    h = q.hopf
    f = h.field
    ih = identity_map(f, h.dim)
    pi_one = LinMap.from_column(f, q.projection.apply(h.unit_vector()))
    diff = quotient_coaction(q, "left").coaction - pi_one.tensor(ih)
    ker = kernel_of(diff)
    a = verify_coideal_subalgebra(h, ker, name or f"coinvariants of {q.name or 'B'}")
    if not a.ok:
        raise VerificationFailed(a.report)
    return a


# -- faithful flatness --------------------------------------------------

@dataclass
class FlatnessResult:
    """Verdict with its evidence: the chosen free-cover generators, the
    module-linear section witnessing projectivity, and the dimension of the
    tensor with each simple module of the base."""

    ok: bool
    side: str
    projective: bool
    generators: tuple
    free_rank: int | None
    section: LinMap | None
    simple_tensor_dims: tuple
    report: CertReport

    def __bool__(self):
        return self.ok


def _cover_blocks(mod, vec):
    f = mod.field
    ia = identity_map(f, mod.over.dim)
    col = LinMap.from_column(f, vec)
    if mod.side == "left":
        return mod.action @ ia.tensor(col)
    return mod.action @ col.tensor(ia)


def module_flatness(mod, carrier_labels=()):
    """Faithful flatness of the tensor functor attached to a one-sided
    module: projectivity via a module-linear section of a greedily chosen
    free cover, plus nonvanishing of the balanced tensor with every simple
    module of the base algebra on the opposite side."""
    f = mod.field
    alg = mod.over
    dm, da = mod.dim, alg.dim
    labels = list(carrier_labels) or list(_default_labels(dm, "v"))
    rep = CertReport(f"flatness of {mod.name or 'module'} ({mod.side} side)")

    pool = [(labels[i], basis_vector(f, dm, i)) for i in range(dm)]
    for i in range(1, dm):
        vec = tuple(f.one if j <= i else f.zero for j in range(dm))
        pool.append(("+".join(labels[: i + 1]), vec))
    # each candidate's block and the span of its columns, built once
    blocks = []
    for name, vec in pool:
        blk = _cover_blocks(mod, vec)
        blocks.append((name, blk, Subspace.from_vectors(
            f, dm, [blk.column(j) for j in range(da)])))
    chosen = []
    span = Subspace.zero(f, dm)
    while span.dim < dm:
        best = None
        for name, blk, cols in blocks:
            grown = span.sum_with(cols)
            gain = grown.dim - span.dim
            if best is None or gain > best[0]:
                best = (gain, name, blk, grown)
        gain, name, blk, grown = best
        if gain <= 0:
            raise ValueError("no candidate vector enlarges the span")
        chosen.append((name, blk))
        span = grown
    p = _hconcat([blk for _, blk in chosen])
    n = len(chosen)

    mops = mod.action_operators()
    regs = regular_module(alg, mod.side).action_operators()
    constraints = [(op, identity_map(f, n).tensor(reg))
                   for op, reg in zip(mops, regs)]
    section = find_section(p, constraints)
    projective = section is not None
    rep.add("projective", projective,
            None if projective else "no module-linear section of the free cover")

    # dim of L (x)_A R, the module on its side and a simple on the other
    left = mod.side == "left"
    dims = []
    for i, s in enumerate(radical_and_simples(alg if left else alg.op())[1]):
        sops = s.action_operators()
        lops, rops, dl, dr = ((sops, mops, s.dim, dm) if left
                              else (mops, sops, dm, s.dim))
        rels = _balanced_relations(f, lops, rops, dl, dr)
        dims.append((f"simple {i} dim {s.dim}",
                     dl * dr - Subspace.from_vectors(f, dl * dr, rels).dim))
    all_nonzero = all(d > 0 for _, d in dims)
    bad = next((nm for nm, d in dims if d == 0), None)
    rep.add("tensor-simples-nonzero", all_nonzero,
            None if all_nonzero else f"({bad})")

    return FlatnessResult(
        ok=projective and all_nonzero,
        side=mod.side,
        projective=projective,
        generators=tuple(nm for nm, _ in chosen),
        free_rank=n if n * da == dm else None,
        section=section,
        simple_tensor_dims=tuple(dims),
        report=rep)


def is_faithfully_flat(a, side="left"):
    """Faithful flatness of the ambient Hopf algebra as a one-sided module
    over a verified coideal subalgebra."""
    _require(a)
    h = a.hopf
    f = h.field
    ih = identity_map(f, h.dim)
    if side == "left":
        act = h.mult @ a.inclusion.tensor(ih)
    elif side == "right":
        act = h.mult @ ih.tensor(a.inclusion)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    mod = ModuleData(f, h.dim, act, a.algebra, side, name=h.name or "H")
    return module_flatness(mod, carrier_labels=h.labels)


def quotient_coaction(q, side, name=""):
    """H as a comodule over the quotient coalgebra B: coaction
    (pi (x) id) o Delta on the left side, (id (x) pi) o Delta on the right."""
    h = q.hopf
    ih = identity_map(h.field, h.dim)
    if side == "left":
        coact = q.projection.tensor(ih) @ h.comult
    elif side == "right":
        coact = ih.tensor(q.projection) @ h.comult
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return ComoduleData(h.field, h.dim, coact, q.coalgebra, side, name)


def is_faithfully_coflat(q, side="left"):
    """Faithful coflatness of the ambient Hopf algebra as a one-sided
    comodule over a verified quotient coalgebra, decided on the dual: the
    transposed structure is a module over the dual algebra and the flatness
    core applies verbatim at finite dimension."""
    _require(q)
    h = q.hopf
    v = quotient_coaction(q, side, f"{h.name or 'H'} over quotient")
    mod = comodule_to_dual_module(v)
    return module_flatness(mod, carrier_labels=tuple(f"{l}*" for l in h.labels))


# -- the roundtrip and the classification --------------------------------

def roundtrip_correspondence(h, subalgebras=(), quotients=()):
    """One-to-one correspondence check: subalgebras come back on the nose as
    coinvariants of their quotient, and quotients are reconstructed from
    their coinvariants up to a computed coalgebra isomorphism commuting
    with the projections."""
    rep = CertReport(f"correspondence roundtrip over {h.name or 'H'}")
    for i, a in enumerate(subalgebras):
        nm = a.name or f"A{i}"
        q = quotient_module_coalgebra(a)
        back = coinvariants(q)
        rep.add(f"{nm}: coinvariants-recover-subalgebra", back.space == a.space,
                None if back.space == a.space
                else f"dim {back.space.dim} vs {a.space.dim}")
    for i, q in enumerate(quotients):
        nm = q.name or f"B{i}"
        a = coinvariants(q)
        q2 = quotient_module_coalgebra(a)
        phi = q.projection @ q2.section
        rep.add(f"{nm}: reconstruction-same-kernel", q2.kernel == q.kernel)
        commutes = (phi @ q2.projection) == q.projection
        rep.add(f"{nm}: isomorphism-commutes-with-projections", commutes)
        co = is_coalgebra_map(phi, q2.coalgebra, q.coalgebra)
        rep.add(f"{nm}: isomorphism-is-coalgebra-map", co.ok)
        r = rank(phi)
        rep.add(f"{nm}: isomorphism-invertible", r == q.dim,
                None if r == q.dim else f"rank {r} of {q.dim}")
    return rep


QUANTUM_HOMOGENEOUS_SPACE = "quantum-homogeneous-space"
QUANTUM_SUBGROUP = "quantum-subgroup"
NEITHER = "neither"


def classify_quantum(x):
    """(label, evidence): a verified coideal subalgebra with left faithful
    flatness is a quantum homogeneous space, a verified quotient with left
    faithful coflatness is a quantum subgroup, anything else is neither."""
    if isinstance(x, CoidealSubalgebraData):
        if not x.ok:
            return NEITHER, x.report
        fl = is_faithfully_flat(x, "left")
        return (QUANTUM_HOMOGENEOUS_SPACE if fl.ok else NEITHER), fl
    if isinstance(x, QuotientModuleCoalgebraData):
        if not x.ok:
            return NEITHER, x.report
        fc = is_faithfully_coflat(x, "left")
        return (QUANTUM_SUBGROUP if fc.ok else NEITHER), fc
    raise TypeError(f"cannot classify {type(x).__name__}")


# -- the category equivalence -------------------------------------------

def coideal_as_relhopf(a, name=""):
    """A verified coideal subalgebra as an object of the relative Hopf
    module category: the subspace carries the restricted comultiplication
    as coaction and right multiplication as action."""
    _require(a)
    h = a.hopf
    com, _ = comodule_on_subspace(regular_comodule(h), a.space)
    mod = regular_module(a.algebra, "right")
    rel = RelHopfModuleData(h, a.algebra, a.inclusion, com, mod,
                            name=name or a.name or "A")
    rep = check_relhopf(rel)
    if not rep.ok:
        raise VerificationFailed(rep)
    return rel


def _times_aplus(mod, a):
    """The subspace M.A+ of a right module M over a verified coideal
    subalgebra A, spanned by the columns of the action of each basis
    vector of the augmentation ideal A+."""
    cols = []
    for r in augmentation_ideal(a).rows:
        op = mod.act_by(a.space.coords(r))
        cols.extend(op.column(j) for j in range(mod.dim))
    return Subspace.from_vectors(mod.field, mod.dim, cols)


def phi_quotient(m, a, q):
    """M |-> M / M.A+ with the corestricted coaction into the quotient
    coalgebra.  Returns (comodule, projection, section, well_defined)."""
    f = m.field
    maplus = _times_aplus(m.module, a)
    proj, sect = _quotient_maps(maplus)
    amb = proj.tensor(q.projection) @ m.comodule.coaction
    well_defined = maplus.dim == 0 or (amb @ maplus.basis_map()).is_zero()
    com = ComoduleData(f, proj.rows, amb @ sect, q.coalgebra, "right",
                       name=f"quotient of {m.name or 'M'}")
    return com, proj, sect, well_defined


def psi_cotensor(n, a, q):
    """N |-> N cotensor_B H with the comodule structure on the second leg
    and the subalgebra acting there as well.  Returns (relative Hopf
    module, cotensor subspace of N (x) H)."""
    h = q.hopf
    f = h.field
    ih = identity_map(f, h.dim)
    i_n = identity_map(f, n.dim)
    s = cotensor(n, quotient_coaction(q, "left"))
    ambient_com = ComoduleData(f, n.dim * h.dim, i_n.tensor(h.comult),
                               h.coalgebra, "right")
    com, _ = comodule_on_subspace(ambient_com, s)
    ambient_mod = ModuleData(f, n.dim * h.dim,
                             i_n.tensor(h.mult @ ih.tensor(a.inclusion)),
                             a.algebra, "right")
    mod, _ = module_on_subspace(ambient_mod, s)
    rel = RelHopfModuleData(h, a.algebra, a.inclusion, com, mod,
                            name=f"cotensor of {n.name or 'N'}")
    return rel, s


@dataclass
class MWResult:
    report: CertReport
    unit_items: tuple
    counit_items: tuple

    @property
    def ok(self):
        return self.report.ok

    def __bool__(self):
        return self.ok


def default_test_comodules(q):
    """The comodules over a quotient coalgebra that the equivalence is
    checked on by default: its regular comodule and each simple comodule."""
    b = q.coalgebra
    out = [regular_comodule_of(b, q.name or "B")]
    for i, s in enumerate(simple_comodules(b)):
        s.name = f"simple comodule {i}"
        out.append(s)
    return out


def mw_equivalence_check(a, test_modules=None, test_comodules=None):
    """Both composites of the equivalence between relative Hopf modules and
    quotient-coalgebra comodules, on explicit test objects.

    For each relative Hopf module M the canonical map
    u: M -> (M/M.A+) cotensor_B H, m |-> (m0 mod M.A+) (x) m1, and for each
    B-comodule N the counit-induced map c: (N cotensor_B H)/(..)A+ -> N are
    built as matrices and certified bijective; dimensions are recorded both
    ways and a rank defect names its object."""
    _require(a)
    fl = is_faithfully_flat(a, "left")
    if not fl.ok:
        raise VerificationFailed(fl.report)
    h = a.hopf
    f = h.field
    q = quotient_module_coalgebra(a)
    if test_modules is None:
        test_modules = [
            regular_relhopf(h, a.algebra, a.inclusion, name=h.name or "H"),
            coideal_as_relhopf(a),
        ]
    if test_comodules is None:
        test_comodules = default_test_comodules(q)

    rep = CertReport(f"module-comodule equivalence over {a.name or 'A'}")
    ih = identity_map(f, h.dim)
    unit_items = []
    for m in test_modules:
        nm = m.name or "M"
        com, proj, _, wd = phi_quotient(m, a, q)
        rep.add(f"{nm}: quotient-coaction-well-defined", wd)
        rep.merge(check_comodule(com), f"{nm}: quotient ")
        psi_rel, s = psi_cotensor(com, a, q)
        amb_u = proj.tensor(ih) @ m.comodule.coaction
        u = s.coords_map() @ amb_u
        lands = (s.basis_map() @ u) == amb_u
        rep.add(f"{nm}: unit-lands-in-cotensor", lands)
        ru = rank(u)
        bij = s.dim == m.dim and ru == m.dim
        rep.add(f"{nm}: unit-bijective", bij,
                None if bij else f"rank {ru}, dims {m.dim} vs {s.dim}")
        if lands and bij:
            rep.add(f"{nm}: unit-colinear",
                    comodule_morphism_ok(u, m.comodule, psi_rel.comodule))
            linear = all(u @ x == y @ u for x, y in zip(
                m.module.action_operators(), psi_rel.module.action_operators()))
            rep.add(f"{nm}: unit-module-linear", linear)
        unit_items.append((nm, m.dim, s.dim))
    counit_items = []
    for n in test_comodules:
        nm = n.name or "N"
        psi_rel, s = psi_cotensor(n, a, q)
        rep.merge(check_relhopf(psi_rel), f"{nm}: cotensor ")
        naplus = _times_aplus(psi_rel.module, a)
        proj2, sect2 = _quotient_maps(naplus)
        ev = identity_map(f, n.dim).tensor(h.counit) @ s.basis_map()
        wd = naplus.dim == 0 or (ev @ naplus.basis_map()).is_zero()
        rep.add(f"{nm}: counit-map-well-defined", wd)
        c = ev @ sect2
        rc = rank(c)
        bij = proj2.rows == n.dim and rc == n.dim
        rep.add(f"{nm}: counit-bijective", bij,
                None if bij else f"rank {rc}, dims {proj2.rows} vs {n.dim}")
        if wd and bij:
            phin, _, _, _ = phi_quotient(psi_rel, a, q)
            rep.add(f"{nm}: counit-colinear", comodule_morphism_ok(c, phin, n))
        counit_items.append((nm, n.dim, proj2.rows))
    return MWResult(rep, tuple(unit_items), tuple(counit_items))


# -- annihilator subalgebras and the semisimplicity implication ----------

def coideal_annihilator(p, z, name=""):
    """The subspace of the pairing's second factor on which every element of
    a right coideal acts counitally through the hit action:
    A = {h : h.z = eps(z) h for all z in a basis of Z}.

    Both hit conventions are tried; the first that certifies as a coideal
    subalgebra wins, and if neither does both failure reports are raised."""
    u, h = p.u, p.h
    f = u.field
    bad = _first_coproduct_outside(
        u.comult, z.rows,
        [_times_basis(f, r, u.dim, j) for r in z.rows for j in range(u.dim)])
    if bad is not None:
        raise ValueError(
            f"the subspace is not a right coideal of {u.name or 'U'} "
            f"(basis element {bad})")
    failures = CertReport(name or "coideal annihilator")
    for side in ("right", "left"):
        mod = hit_action(p, side)
        conds = []
        for r in z.rows:
            eps = u.counit.apply(r)[0]
            scaled = LinMap(f, h.dim, h.dim,
                            {(i, i): eps for i in range(h.dim)} if eps != f.zero else {})
            conds.append(mod.act_by(r) - scaled)
        ker = kernel_of(stack_maps(conds)) if conds else Subspace.full(f, h.dim)
        cand = verify_coideal_subalgebra(h, ker, name or f"annihilator ({side} hit)")
        if cand.ok:
            cand.report.assume(f"computed with the {side} hit action")
            return cand
        failures.merge(cand.report, f"{side}-hit ")
    raise VerificationFailed(failures)


@dataclass
class CSemisimpleResult:
    """The restriction-semisimplicity implication, fully evaluated: the
    hypothesis on every supplied module, both conclusions, and the overall
    consistency verdict (hypothesis true forces both conclusions true)."""

    annihilator: CoidealSubalgebraData
    quotient: QuotientModuleCoalgebraData
    hypothesis: tuple
    hypothesis_ok: bool
    cosemisimple: object
    flat_left: FlatnessResult
    flat_right: FlatnessResult
    implication_ok: bool
    report: CertReport

    @property
    def ok(self):
        return self.report.ok

    def __bool__(self):
        return self.ok


def c_semisimple_implication(u_hopf, k_space, modules, name=""):
    """If every module in the list restricts semisimply to the subalgebra,
    then the induced quotient coalgebra of the dual must be cosemisimple
    and the dual must be faithfully flat over the annihilator subalgebra on
    both sides.  The implication is evaluated on the nose; a falsification
    is a defect, not a data point."""
    from .catalog import coevaluation_pairing

    p = coevaluation_pairing(u_hopf)
    ann = coideal_annihilator(p, k_space)
    kalg, kincl = restrict_algebra(u_hopf.algebra, k_space,
                                   labels=[u_hopf.labels[i] for i in k_space.pivots])
    hyp = []
    for i, mod in enumerate(modules):
        res = is_module_semisimple(restrict_module(mod, kalg, kincl))
        hyp.append((mod.name or f"module {i}", res))
    hyp_ok = all(r.ok for _, r in hyp)
    q = quotient_module_coalgebra(ann)
    cos = is_cosemisimple(q.coalgebra)
    fll = is_faithfully_flat(ann, "left")
    flr = is_faithfully_flat(ann, "right")
    implication_ok = (not hyp_ok) or (cos.ok and fll.ok and flr.ok)
    rep = CertReport(name or "restriction-semisimplicity implication")
    rep.assume(f"hypothesis (all restrictions semisimple): {hyp_ok}")
    witness = None
    if not implication_ok:
        parts = []
        if not cos.ok:
            parts.append("quotient not cosemisimple")
        if not fll.ok:
            parts.append("not left faithfully flat")
        if not flr.ok:
            parts.append("not right faithfully flat")
        witness = "; ".join(parts)
    rep.add("implication-consistent", implication_ok, witness)
    return CSemisimpleResult(ann, q, tuple(hyp), hyp_ok, cos, fll, flr,
                             implication_ok, rep)


# -- definitional cross-check -------------------------------------------

def _direct_sum(m1, m2):
    if m1.side != "right" or m2.side != "right":
        raise ValueError("direct sum takes two right modules")
    f = m1.field
    da = m1.over.dim
    d1, d2 = m1.dim, m2.dim
    ent = dict(m1.action.entries())
    ent.update(((d1 + r, d1 * da + c), v) for (r, c), v in m2.action.entries())
    act = LinMap(f, d1 + d2, (d1 + d2) * da, ent)
    return ModuleData(f, d1 + d2, act, m1.over, "right",
                      name=f"{m1.name or 'M'} (+) {m2.name or 'N'}")


# ses_cross_check takes at most this many proper submodules of a module,
# and only modules M whose sequences have total dimension 2 dim M at most
# the dimension cap
_SUBMODULE_CAP = 12
_SES_TOTAL_DIM_CAP = 6


def _proper_submodules(m, rad):
    """Up to _SUBMODULE_CAP proper submodules of m; rad is the radical of
    the algebra m is over."""
    f = m.field
    vecs = [basis_vector(f, m.dim, i) for i in range(m.dim)]
    for i in range(m.dim):
        for j in range(i + 1, m.dim):
            e_i, e_j = vecs[i], vecs[j]
            vecs.append(tuple(f.add(x, y) for x, y in zip(e_i, e_j)))
            vecs.append(tuple(f.sub(x, y) for x, y in zip(e_i, e_j)))
    found = []
    rad_image = Subspace.from_vectors(
        f, m.dim,
        [m.act_by(r).column(i) for r in rad.rows for i in range(m.dim)])
    candidates = [rad_image, socle_wrt(m, rad)]
    ops = m.action_operators()
    candidates += [generated_submodule(f, ops, v) for v in vecs[: m.dim + 2 * m.dim]]
    for s in candidates:
        if 0 < s.dim < m.dim and s not in found:
            found.append(s)
        if len(found) >= _SUBMODULE_CAP:
            break
    return found


def _exact_seq(u, v, xdim, zdim):
    """Exactness of 0 -> X -> Y -> Z -> 0 presented by matrices:
    injectivity, image = kernel, surjectivity."""
    inj = rank(u) == xdim
    mid = image_of(u) == kernel_of(v)
    surj = rank(v) == zdim
    return inj and mid and surj


def ses_cross_check(a, side="left"):
    """Definitional oracle for the flatness verdict: over an enumerated
    family of short exact sequences of base-algebra modules (and broken
    variants of each), tensoring with the Hopf algebra preserves and
    reflects exactness exactly when is_faithfully_flat says so."""
    _require(a)
    h = a.hopf
    f = h.field
    ih = identity_map(f, h.dim)
    verdict = is_faithfully_flat(a, side)
    if side == "left":
        algx = a.algebra
        w_ops = ModuleData(f, h.dim, h.mult @ a.inclusion.tensor(ih),
                           algx, "left").action_operators()
    else:
        algx = a.algebra.op()
        right_act = h.mult @ ih.tensor(a.inclusion)
        w_ops = ModuleData(f, h.dim, right_act @ swap_map(f, algx.dim, h.dim),
                           algx, "left").action_operators()

    pool = [regular_module(algx, "right")]
    rad, simples = radical_and_simples(algx)
    pool += simples
    for i in range(len(simples)):
        for j in range(i, len(simples)):
            pool.append(_direct_sum(simples[i], simples[j]))
    pool = [m for m in pool if 2 * m.dim <= _SES_TOTAL_DIM_CAP]

    memo = {}  # all modules here are right algx-modules: key by action

    def tensor_data(mod):
        key = (mod.dim, tuple(mod.action.entries()))
        if key not in memo:
            rels = _balanced_relations(f, mod.action_operators(), w_ops,
                                       mod.dim, h.dim)
            memo[key] = _quotient_maps(
                Subspace.from_vectors(f, mod.dim * h.dim, rels))
        return memo[key]

    def tensor_map(fmap, src_data, dst_data):
        return dst_data[0] @ fmap.tensor(ih) @ src_data[1]

    preserve_ok = True
    reflect_ok = True
    n_exact = 0
    for m in pool:
        md = tensor_data(m)
        for s in _proper_submodules(m, rad):
            sub, incl = module_on_subspace(m, s)
            quo, proj = module_on_quotient(m, s)
            sd, qd = tensor_data(sub), tensor_data(quo)
            tin = tensor_map(incl, sd, md)
            tpr = tensor_map(proj, md, qd)
            xdim, zdim = sd[0].rows, qd[0].rows
            n_exact += 1
            if not _exact_seq(tin, tpr, xdim, zdim):
                preserve_ok = False
            # the source sequence with a zeroed inclusion is never exact
            # (S is nonzero); reflection demands its image stay non-exact
            broken = LinMap.zero(f, md[0].rows, xdim)
            if xdim > 0 and _exact_seq(broken, tpr, 0, zdim):
                reflect_ok = False
    agrees = verdict.ok == (preserve_ok and reflect_ok)
    rep = CertReport(f"definitional flatness cross-check ({side} side)")
    rep.assume(f"{n_exact} exact sequences enumerated, "
               f"total dim cap {_SES_TOTAL_DIM_CAP}")
    rep.add("definitional-check-agrees", agrees,
            None if agrees else (f"verdict {verdict.ok}, preserve {preserve_ok}, "
                                 f"reflect {reflect_ok}"))
    return rep
