"""Quasi-finiteness, the left adjoint of tensoring by a fixed comodule,
coendomorphism coalgebras, and pre-equivalence data between coalgebras.

Everything is finite-dimensional, so the left adjoint of W -> W (x) X
exists for every comodule X and is modeled as the dual of the colinear
map space; reports carry a note saying the colimit description of the
infinite case is out of scope.

Conventions.  A (C, D)-bicomodule has a left C-coaction and a right
D-coaction that commute.  Map spaces and tensor legs flatten as the linalg
module docstring says.  The dual of a right comodule is a left comodule
over the same coalgebra (structure constants transposed), and vice versa;
both directions appear below.  Regular comodules come from
repcats.regular_comodule_of, which this module re-exports.
"""

from dataclasses import dataclass

from .linalg import (
    LinMap,
    Subspace,
    after_leg,
    find_section,
    image_of,
    on_leg,
    placed,
    rank,
    regroup,
)
from .hopf import CoalgebraData
from .certs import CertReport, VerificationFailed
from .repcats import (
    BicomoduleData,
    ComoduleData,
    check_bicomodule,
    check_comodule,
    hom_colinear,
    is_coalgebra_map,
    cotensor,
    matrix_algebra,
    regular_comodule_of,
    restrict_algebra,
)


def _obj_name(v, fallback="comodule"):
    return getattr(v, "name", "") or fallback


def dual_comodule(v):
    """Dual of a comodule, on the other side over the same coalgebra.

    For a right comodule with rho(v_j) = sum r[i,d;j] v_i (x) delta_d the
    dual carries the left coaction lambda(v^i) = sum r[i,d;j] delta_d (x) v^j,
    and symmetrically in the other direction.
    """
    dv, dc = v.dim, v.over.dim
    if v.side == "right":
        # rho[(i, d), j] -> lambda[(d, j), i]
        coact, side = regroup(v.coaction, (dv, dc), (dv,), (1, 2), (0,)), "left"
    else:
        # lambda[(d, i), j] -> rho[(j, d), i]
        coact, side = regroup(v.coaction, (dc, dv), (dv,), (2, 0), (1,)), "right"
    return ComoduleData(v.field, dv, coact, v.over, side, f"dual of {_obj_name(v)}")


# -- quasi-finiteness ---------------------------------------------------

@dataclass
class QuasiFiniteResult:
    """Evidence that hom spaces into a comodule are finite-dimensional.

    At finite dimension the condition is automatic; the value of the
    check is the list of probe hom dimensions it surfaces.
    """

    comodule: ComoduleData
    probes: tuple
    hom_dims: tuple
    report: CertReport

    @property
    def ok(self):
        return self.report.ok

    def __bool__(self):
        return self.ok


def is_quasi_finite(x, probes):
    """Record the dimensions of colinear maps from each probe into x."""
    rep = CertReport(f"quasi-finiteness of {_obj_name(x)}")
    rep.assume("finite-dimensional setting: hom spaces are automatically "
               "finite-dimensional, their dimensions are the evidence")
    dims = []
    for i, n in enumerate(probes):
        d = hom_colinear(n, x).dim
        dims.append(d)
        rep.add(f"finite maps from {_obj_name(n, f'probe {i}')}", True,
                f"dimension {d}")
    return QuasiFiniteResult(x, tuple(probes), tuple(dims), rep)


# -- the left adjoint of W -> W (x) X -----------------------------------

def _transported_left_coaction(gamma, left_coaction, target, s, rep, label):
    """Left coaction on a subspace s of maps into the bicomodule carrier,
    obtained by postcomposing the left coaction; the components of the
    postcomposition stay colinear because the two coactions commute, which
    is re-checked here by factoring the postcomposed basis of s through
    Gamma (x) s."""
    coact, lands = s.factor(
        on_leg(1, left_coaction, target.dim, s.basis_map()), gamma.dim, 1)
    rep.add(f"{label} transported coaction stays in the map space", lands)
    if not lands:
        raise VerificationFailed(rep)
    return coact


@dataclass
class CohomResult:
    """The left adjoint value h(X, Y): dual of the colinear maps Y -> X,
    carrying the transported structure over the left coalgebra of X."""

    bicomodule: BicomoduleData
    source: ComoduleData
    hom_space: Subspace
    comodule: ComoduleData
    report: CertReport

    @property
    def dim(self):
        return self.comodule.dim

    @property
    def ok(self):
        return self.report.ok


# the widths w of the trivial comodules W = k^w at which cohom certifies
# its adjunction bijection, and its naturality from the first to the second
_COHOM_WIDTHS = (1, 2)


def cohom(x, y):
    """Left adjoint of W -> W (x) X_right at the D-comodule y, as a right
    comodule over the left coalgebra of the bicomodule x.

    The carrier is the dual of hom_colinear(y, x); the adjunction
    Hom(h, W) ~= colinear maps y -> W (x) X is certified dimensionally
    and through an explicit bijection at each sampled width, naturally in
    the width.
    """
    if y.side != "right":
        raise ValueError("cohom expects a right comodule argument")
    f = x.field
    gamma = x.left_over
    xr = x.right_comodule()
    nm = f"cohom of {_obj_name(x, 'bicomodule')} at {_obj_name(y)}"
    rep = CertReport(nm)
    rep.assume("finite-dimensional model: the dual of the colinear map "
               "space; the colimit description is out of scope")
    s = hom_colinear(y, xr)
    coact_s = _transported_left_coaction(gamma, x.left_coaction, y, s, rep,
                                         "hom space")
    left = ComoduleData(f, s.dim, coact_s, gamma, "left", f"maps into {_obj_name(x, 'X')}")
    rep.merge(check_comodule(left), "map space ")
    com = dual_comodule(left)
    com = ComoduleData(f, com.dim, com.coaction, gamma, "right", nm)
    rep.merge(check_comodule(com), "value ")

    # bij[w] = I_w (x) s.basis_map(), the bijection at width w
    bij = {}
    for w in _COHOM_WIDTHS:
        wx = ComoduleData(
            f, w * x.dim, placed(w, xr.coaction, 1),
            xr.over, "right", f"width {w} against X")
        t = hom_colinear(y, wx)
        rep.add(f"dimension bookkeeping at width {w}", t.dim == w * s.dim,
                f"{t.dim} against {w} * {s.dim}")
        bij[w] = placed(w, s.basis_map(), 1)
        rep.add(f"bijection image is colinear at width {w}", t.factor(bij[w])[1])
        r = rank(bij[w])
        rep.add(f"bijection at width {w}", r == w * s.dim == t.dim,
                f"rank {r}, target dimension {t.dim}")
    w1, w2 = _COHOM_WIDTHS
    step = LinMap(f, w2, w1, {(i, j): f.from_int(i + j + 1)
                              for i in range(w2) for j in range(w1)})
    lhs = on_leg(1, step, x.dim * y.dim, bij[w1])
    rhs = after_leg(bij[w2], 1, step, s.dim)
    rep.add("bijection natural in the width", (lhs - rhs).is_zero())
    if not rep.ok:
        raise VerificationFailed(rep)
    return CohomResult(x, y, s, com, rep)


# -- coendomorphism coalgebras ------------------------------------------

@dataclass
class CoendResult:
    """Coalgebra structure on the dual of the colinear endomorphisms,
    with the carrier certified as a bicomodule over it and the base.

    Delegates the coalgebra interface, so it can be used wherever a
    plain coalgebra is expected."""

    coalgebra: CoalgebraData
    hom_space: Subspace
    bicomodule: BicomoduleData
    report: CertReport

    @property
    def field(self):
        return self.coalgebra.field

    @property
    def dim(self):
        return self.coalgebra.dim

    @property
    def comult(self):
        return self.coalgebra.comult

    @property
    def counit(self):
        return self.coalgebra.counit

    @property
    def labels(self):
        return self.coalgebra.labels

    def cop(self):
        return self.coalgebra.cop()

    def check(self):
        return self.coalgebra.check()

    @property
    def ok(self):
        return self.report.ok


def coend(m):
    """The coalgebra dual to the opposite of the colinear endomorphism
    algebra of m, with the canonical left coaction making m a bicomodule.

    The endomorphism algebra is restrict_algebra of the matrix algebra to
    the colinear maps phi_h, so phi_j o phi_i = sum_h c[h; j, i] phi_h
    with c[h; j, i] its mult[h, j*d + i].  The comultiplication sends the
    h-th dual vector to sum c[h; j, i] e^i (x) e^j, the transpose of mult
    after the flip, and the counit, the transposed unit, reads off the
    coordinates of the identity map.  This is the orientation under which
    the bicomodule axioms hold.
    """
    if m.side != "right":
        raise ValueError("coend expects a right comodule")
    f = m.field
    dm = m.dim
    rep = CertReport(f"coend of {_obj_name(m)}")
    s = hom_colinear(m, m)
    e, b = restrict_algebra(matrix_algebra(f, dm), s)
    comult = regroup(e.mult, (s.dim,), (s.dim, s.dim), (2, 1), (0,))
    coal = CoalgebraData(f, s.dim, comult, e.unit.transpose())
    rep.merge(coal.check(), "coalgebra ")

    # the left coaction stacks the maps phi_h: row (h, i), column j
    bicom = BicomoduleData(f, dm, coal, m.over,
                           regroup(b, (dm, dm), (s.dim,), (2, 0), (1,)),
                           m.coaction, _obj_name(m))
    rep.merge(check_bicomodule(bicom), "carrier ")
    if not rep.ok:
        raise VerificationFailed(rep)
    return CoendResult(coal, s, bicom, rep)


@dataclass
class CoendRegularResult:
    coend: CoendResult
    iso: LinMap
    report: CertReport

    @property
    def ok(self):
        return self.report.ok


def coend_regular_isomorphism(c):
    """Explicit coalgebra isomorphism from c onto the coend of its
    regular comodule: colinear endomorphisms of the regular comodule are
    convolutions by functionals, so the coend is the double dual."""
    ce = coend(regular_comodule_of(c))
    rep = CertReport("coend of the regular comodule against the coalgebra")
    rep.merge(ce.report)
    # row h is the counit after the colinear endomorphism phi_h
    iota = on_leg(ce.dim, c.counit, 1, ce.bicomodule.left_coaction)
    rep.merge(is_coalgebra_map(iota, c, ce.coalgebra), "witness ")
    r = rank(iota)
    rep.add("witness bijective", r == c.dim == ce.dim,
            f"rank {r}, dimensions {c.dim} and {ce.dim}")
    if not rep.ok:
        raise VerificationFailed(rep)
    return CoendRegularResult(ce, iota, rep)


# -- pre-equivalence data -----------------------------------------------

@dataclass
class PreEquivalenceData:
    """Two coalgebras, a bicomodule in each direction, and comparison
    maps from each coalgebra into the opposite cotensor product, given on
    the ambient tensor squares."""

    gamma: CoalgebraData
    d: CoalgebraData
    p: BicomoduleData
    q: BicomoduleData
    f: LinMap
    g: LinMap
    name: str = ""


def identity_pre_equivalence(c):
    """The coalgebra against itself: both bicomodules regular, both
    comparison maps the comultiplication."""
    reg = BicomoduleData(c.field, c.dim, c, c, c.comult, c.comult,
                         "regular bicomodule")
    return PreEquivalenceData(c, c, reg, reg, c.comult, c.comult,
                              "identity data")


def _double_cotensor(v, mid, far):
    """Subspace of V (x) Mid (x) Far cut out by the two cotensor
    conditions, for v a right comodule over mid's left coalgebra and
    (mid, far) a composable pair of bicomodules.

    Built associatively to keep the eliminations small: the first
    cotensor is cut out, the middle right coaction is restricted to it
    (the restriction is verified exactly, it holds because the two
    coactions on the middle carrier commute), the second condition is
    solved on that small carrier, and the result is embedded back."""
    first = cotensor(v, mid.left_comodule())
    b = first.basis_map()
    coact, lands = first.factor(on_leg(v.dim, mid.right_coaction, 1, b),
                                1, mid.right_over.dim)
    if not lands:
        rep = CertReport("iterated cotensor")
        rep.add("middle coaction restricts to the first cotensor", False)
        raise VerificationFailed(rep)
    restricted = ComoduleData(v.field, first.dim, coact, mid.right_over, "right")
    inner = cotensor(restricted, far.left_comodule())
    return image_of(on_leg(1, b, far.dim, inner.basis_map()))


def verify_pre_equivalence(e, test_objects=None):
    """Certify pre-equivalence data and, when both comparison maps are
    bijective onto their cotensors, certify on each test object that the
    composite of the two cotensor functors is isomorphic to the identity.

    test_objects: right comodules over either of the two coalgebras; each
    is routed to the matching composite (to both when the coalgebras
    coincide).  Defaults to the regular comodules on both sides."""
    rep = CertReport(f"pre-equivalence data {e.name}".rstrip())
    dg, dd, dp, dq = e.gamma.dim, e.d.dim, e.p.dim, e.q.dim

    rep.merge(e.gamma.check(), "first coalgebra ")
    rep.merge(e.d.check(), "second coalgebra ")
    rep.merge(check_bicomodule(e.p), "P ")
    rep.merge(check_bicomodule(e.q), "Q ")

    ct_pq = cotensor(e.p.right_comodule(), e.q.left_comodule())
    ct_qp = cotensor(e.q.right_comodule(), e.p.left_comodule())
    rep.add("f lands in the cotensor", ct_pq.factor(e.f)[1])
    rep.add("g lands in the cotensor", ct_qp.factor(e.g)[1])

    d1 = on_leg(1, e.p.left_coaction, dq, e.f) - on_leg(dg, e.f, 1, e.gamma.comult)
    rep.add("f left-colinear", d1.is_zero())
    d2 = on_leg(dp, e.q.right_coaction, 1, e.f) - on_leg(1, e.f, dg, e.gamma.comult)
    rep.add("f right-colinear", d2.is_zero())
    d3 = on_leg(1, e.q.left_coaction, dp, e.g) - on_leg(dd, e.g, 1, e.d.comult)
    rep.add("g left-colinear", d3.is_zero())
    d4 = on_leg(dq, e.p.right_coaction, 1, e.g) - on_leg(1, e.g, dd, e.d.comult)
    rep.add("g right-colinear", d4.is_zero())

    s1 = on_leg(1, e.f, dp, e.p.left_coaction) - on_leg(dp, e.g, 1, e.p.right_coaction)
    rep.add("first compatibility square", s1.is_zero())
    s2 = on_leg(1, e.g, dq, e.q.left_coaction) - on_leg(dq, e.f, 1, e.q.right_coaction)
    rep.add("second compatibility square", s2.is_zero())

    rf, rg = rank(e.f), rank(e.g)
    f_bij = rf == e.gamma.dim == ct_pq.dim
    g_bij = rg == e.d.dim == ct_qp.dim
    rep.add("f bijective onto the cotensor", f_bij,
            f"rank {rf}, dimensions {e.gamma.dim} and {ct_pq.dim}")
    rep.add("g bijective onto the cotensor", g_bij,
            f"rank {rg}, dimensions {e.d.dim} and {ct_qp.dim}")
    if not rep.ok:
        return rep

    if test_objects is None:
        test_objects = (regular_comodule_of(e.gamma),)
        if e.d != e.gamma:
            test_objects += (regular_comodule_of(e.d),)

    def composite_checks(v, word, mid, far, comparison):
        nm = _obj_name(v)
        dv = _double_cotensor(v, mid, far)
        eta = on_leg(v.dim, comparison, 1, v.coaction)
        rep.add(f"{word} composite lands in the iterated cotensor at {nm}",
                dv.factor(eta)[1])
        r = rank(eta)
        rep.add(f"{word} composite is an isomorphism at {nm}",
                r == v.dim == dv.dim,
                f"rank {r}, dimensions {v.dim} and {dv.dim}")

    for v in test_objects:
        if v.side != "right":
            raise ValueError("test objects must be right comodules")
        routed = False
        if v.over == e.gamma:
            composite_checks(v, "first", e.p, e.q, e.f)
            routed = True
        if v.over == e.d:
            composite_checks(v, "second", e.q, e.p, e.g)
            routed = True
        if not routed:
            rep.add(f"test object {_obj_name(v)} lives over one of the two "
                    "coalgebras", False)
    return rep


def coend_pre_equivalence(m):
    """Candidate pre-equivalence data between the coend of m and its base
    coalgebra.

    One direction is m itself with its canonical coend coaction.  The
    other carrier is the dual of the colinear maps out of the regular
    comodule, with the coend structure transported by postcomposition and
    the base structure dual to precomposition with left translations.
    The comparison map g is the evaluation pairing with those maps; f is
    the unique solution of the first compatibility square, which exists
    because the legs of the canonical coaction span the coend.  All
    axioms are certified by the caller through verify_pre_equivalence;
    nothing here is assumed.
    """
    if m.side != "right":
        raise ValueError("coend pre-equivalence expects a right comodule")
    f = m.field
    dm = m.dim
    d = m.over
    ce = coend(m)
    c = ce.coalgebra
    p = ce.bicomodule

    dreg = regular_comodule_of(d, "regular comodule")
    sd = hom_colinear(dreg, m)
    rep = CertReport(f"coend data of {_obj_name(m)}")
    coact_sd = _transported_left_coaction(c, p.left_coaction, dreg, sd, rep,
                                          "translate space")
    left_sd = ComoduleData(f, sd.dim, coact_sd, c, "left", "translate space")
    rho_q = dual_comodule(left_sd).coaction

    # right coaction on the translate space dual to precomposition with
    # the left translations (a (x) id) o comult of the base coalgebra: the
    # transposed translation by e_t is row block t of lts, and the
    # translation leg moves leftmost to factor, then back to the right
    dd, b_sd = d.dim, sd.basis_map()
    lts = regroup(d.comult, (dd, dd), (dd,), (0, 2), (1,))
    placed = regroup(on_leg(dm, lts, 1, b_sd), (dm, dd, dd), (sd.dim,), (1, 0, 2), (3,))
    co, lands = sd.factor(placed, dd, 1)
    if not lands:
        rep.add("translations preserve the translate space", False)
        raise VerificationFailed(rep)
    theta = regroup(co, (dd, sd.dim), (sd.dim,), (1, 0), (2,))
    right_sd = ComoduleData(f, sd.dim, theta, d, "right", "translate space")
    lam_q = dual_comodule(right_sd).coaction
    q = BicomoduleData(f, sd.dim, d, c, lam_q, rho_q, "translate dual")

    g = regroup(b_sd, (dm, dd), (sd.dim,), (2, 0), (1,))

    # solve (f (x) id) o lambda_P = (id (x) g) o rho_M for f, with the
    # carrier leg of each side moved to the columns; the system has full
    # row rank because the coaction legs span the coend
    lmat = regroup(p.left_coaction, (c.dim, dm), (dm,), (0,), (1, 2))
    rmat = regroup(on_leg(dm, g, 1, m.coaction), (dm * sd.dim, dm), (dm,), (0,), (1, 2))
    sec = find_section(lmat)
    if sec is None:
        rep.add("coaction legs span the coend", False)
        raise VerificationFailed(rep)
    fmap = rmat @ sec
    return PreEquivalenceData(c, d, p, q, fmap, g, rep.subject)
