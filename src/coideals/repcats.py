"""Representations of algebras and coalgebras, and their structure theory.

Carrier conventions
-------------------
A comodule with side "right" has coaction V -> V (x) C, stored as a
(dimV*dimC) x dimV matrix under the standard tensor flattening; side "left"
stores V -> C (x) V as a (dimC*dimV) x dimV matrix.  A module with side
"right" has action V (x) A -> V (dimV x dimV*dimA); side "left" has
A (x) V -> V (dimV x dimA*dimV).

Left-sided axioms are never written out separately: a left structure is
transported across the tensor swap to a right structure over the opposite
(co)algebra and the right-sided axioms are checked there.

Structure theory is exact.  The radical is the kernel of the trace form
of the left regular representation, tr(L_i L_j) = sum over l, m of
mult[l, i*d + m] * mult[m, j*d + l], read in one pass over the entries of
mult.  It is valid in characteristic zero or characteristic p strictly
larger than the dimension of the algebra at hand; violating that
precondition raises instead of returning a wrong answer.

The standard constructions have one builder each, used by every other
module: regular_comodule_of (the regular comodule of any coalgebra),
restrict_module (pull-back along an algebra map), restrict_algebra (a
subalgebra on a subspace), matrix_algebra (M_n on flattened matrices,
so an algebra of matrices, such as the action algebra of a module or the
colinear endomorphisms behind morita.coend, is restrict_algebra of it),
generated_submodule (the submodule a vector generates, one run of the
elimination kernel, and so also the closure matrix_algebra_closure),
_quotient_maps (projection and section modulo a subspace) and
comodule_on_subspace (a coaction restricted to a subspace).  Every
restriction, on a tensor leg or not, goes through linalg's
Subspace.factor.  A failed check names its first violating basis tuple
through hopf._witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import isqrt

from .certs import CertReport, VerificationFailed
from .fields import same_field
from .hopf import (
    AlgebraData,
    CoalgebraData,
    HopfAlgebraData,
    _default_labels,
    _witness,
    dual_algebra,
)
from .linalg import (
    DimensionMismatchError,
    LinMap,
    Subspace,
    after_leg,
    basis_vector,
    diagonal,
    image_of,
    _eliminate,
    invert,
    kernel_of,
    on_leg,
    on_leg_operator,
    placed,
    regroup,
    stack_maps,
)


class AmbiguousDecompositionError(ValueError):
    """Raised when the submodule search cannot certify simplicity."""


# -- carriers ----------------------------------------------------------

@dataclass
class ModuleData:
    field: object
    dim: int
    action: LinMap
    over: AlgebraData
    side: str = "right"
    name: str = ""

    def __post_init__(self):
        same_field(self.field, self.over.field)
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be left or right, got {self.side!r}")
        da = self.over.dim
        want = (self.dim, self.dim * da) if self.side == "right" else (self.dim, da * self.dim)
        if (self.action.rows, self.action.cols) != want:
            raise DimensionMismatchError(
                f"{self.side} action must be {want[0]}x{want[1]}, "
                f"got {self.action.rows}x{self.action.cols}")

    def act_by(self, vec):
        """Operator on the carrier given by one coefficient vector."""
        # the algebra leg is V (x) A's right leg, A (x) V's left
        a, b = (self.dim, 1) if self.side == "right" else (1, self.dim)
        return after_leg(self.action, a, LinMap.from_column(self.field, vec), b)

    def action_operators(self):
        """The operators of the basis elements e_0..e_{da-1} of the algebra,
        sliced from the action's entries in one pass: column i*da + j of a
        right action, and column j*dim + i of a left one, is column i of
        the operator of e_j."""
        d, da = self.dim, self.over.dim
        ents = [{} for _ in range(da)]
        for (r, c), v in self.action.entries():
            j, i = (c % da, c // da) if self.side == "right" else divmod(c, d)
            ents[j][(r, i)] = v
        return [LinMap(self.field, d, d, e) for e in ents]


@dataclass
class ComoduleData:
    field: object
    dim: int
    coaction: LinMap
    over: CoalgebraData
    side: str = "right"
    name: str = ""

    def __post_init__(self):
        same_field(self.field, self.over.field)
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be left or right, got {self.side!r}")
        dc = self.over.dim
        want = (self.dim * dc, self.dim) if self.side == "right" else (dc * self.dim, self.dim)
        if (self.coaction.rows, self.coaction.cols) != want:
            raise DimensionMismatchError(
                f"{self.side} coaction must be {want[0]}x{want[1]}, "
                f"got {self.coaction.rows}x{self.coaction.cols}")


@dataclass
class BicomoduleData:
    """Left comodule over one coalgebra, right over another, compatibly."""
    field: object
    dim: int
    left_over: CoalgebraData
    right_over: CoalgebraData
    left_coaction: LinMap
    right_coaction: LinMap
    name: str = ""

    def left_comodule(self):
        return ComoduleData(self.field, self.dim, self.left_coaction,
                            self.left_over, "left", self.name)

    def right_comodule(self):
        return ComoduleData(self.field, self.dim, self.right_coaction,
                            self.right_over, "right", self.name)


@dataclass
class RelHopfModuleData:
    """Right comodule over a Hopf algebra that is also a right module over a
    right coideal subalgebra, with the coaction linear over the subalgebra."""
    hopf: HopfAlgebraData
    subalgebra: AlgebraData
    inclusion: LinMap
    comodule: ComoduleData
    module: ModuleData
    name: str = ""

    @property
    def field(self):
        return self.hopf.field

    @property
    def dim(self):
        return self.comodule.dim


# -- axiom checks ------------------------------------------------------

def _as_right_module(m):
    if m.side == "right":
        return m.action, m.over
    act = regroup(m.action, (m.dim,), (m.over.dim, m.dim), (0,), (2, 1))
    return act, m.over.op()


def check_module(m):
    act, alg = _as_right_module(m)
    f, dm, da = m.field, m.dim, alg.dim
    rep = CertReport(m.name or f"{m.side} module")
    lm, la = _default_labels(dm, "m"), alg.labels
    assoc = after_leg(act, 1, act, da) - after_leg(act, dm, alg.mult, 1)
    rep.add("action-associative", assoc.is_zero(), _witness(assoc, [lm, la, la]))
    unital = after_leg(act, dm, alg.unit, 1) - LinMap.identity(f, dm)
    rep.add("action-unital", unital.is_zero(), _witness(unital, [lm]))
    return rep


def _as_right_comodule(v):
    if v.side == "right":
        return v.coaction, v.over
    rho = regroup(v.coaction, (v.over.dim, v.dim), (v.dim,), (1, 0), (2,))
    return rho, v.over.cop()


def check_comodule(v):
    rho, co = _as_right_comodule(v)
    f, dv, dc = v.field, v.dim, co.dim
    rep = CertReport(v.name or f"{v.side} comodule")
    lv = _default_labels(dv, "v")
    coassoc = on_leg(1, rho, dc, rho) - on_leg(dv, co.comult, 1, rho)
    rep.add("coaction-coassociative", coassoc.is_zero(), _witness(coassoc, [lv]))
    counital = on_leg(dv, co.counit, 1, rho) - LinMap.identity(f, dv)
    rep.add("coaction-counital", counital.is_zero(), _witness(counital, [lv]))
    return rep


def restricted_comultiplication(h, inclusion):
    """The ambient comultiplication expressed on a subspace whose coproduct
    stays inside (subspace) (x) (ambient).

    Returns (delta, check): delta is (dimA*dimH) x dimA, and the check holds
    exactly when tensor(inclusion, id) @ delta reproduces comult @ inclusion,
    which is the right coideal condition for the subspace.
    """
    # one elimination: the inclusion is injective exactly when reading its
    # image's pivot coordinates gives a square invertible matrix
    s = image_of(inclusion)
    inv = invert(s.coords_map() @ inclusion)
    if inv is None:
        raise ValueError("inclusion is not injective")
    image = h.comult @ inclusion
    x, lands = s.factor(image, 1, h.dim)
    # inclusion o inv is the canonical basis of s, so the difference below
    # is on_leg(1, inclusion, h.dim, delta) - image
    witness = None if lands else _witness(on_leg(1, s.basis_map(), h.dim, x) - image,
                                          [_default_labels(inclusion.cols, "a")])
    return on_leg(1, inv, h.dim, x), ("coproduct-stays-in-subspace", lands, witness)


def check_relhopf(x):
    h = x.hopf
    rep = CertReport(x.name or "relative Hopf module")
    if x.comodule.side != "right" or x.module.side != "right":
        raise ValueError("relative Hopf modules are right comodules and right modules here")
    rep.merge(check_comodule(x.comodule), "comodule ")
    rep.merge(check_module(x.module), "module ")
    delta, (cname, cok, cwit) = restricted_comultiplication(h, x.inclusion)
    rep.add(cname, cok, cwit)
    if cok:
        dm, da, dh = x.comodule.dim, x.subalgebra.dim, h.dim
        rho, act = x.comodule.coaction, x.module.action
        # rho(m.a) must equal m0.a(1) (x) m1*a(2), the first coproduct leg of
        # a staying inside the subalgebra
        rhs = on_leg(1, act, dh, diagonal(rho, dm, delta, da, h.mult))
        diff = rho @ act - rhs
        rep.add("coaction-module-compatible", diff.is_zero(),
                _witness(diff, [_default_labels(dm, "m"), _default_labels(da, "a")]))
    return rep


def check_bicomodule(x):
    rep = CertReport(x.name or "bicomodule")
    rep.merge(check_comodule(x.left_comodule()), "left ")
    rep.merge(check_comodule(x.right_comodule()), "right ")
    diff = on_leg(x.left_over.dim, x.right_coaction, 1, x.left_coaction) \
        - on_leg(1, x.left_coaction, x.right_over.dim, x.right_coaction)
    rep.add("coactions-commute", diff.is_zero(),
            _witness(diff, [_default_labels(x.dim, "v")]))
    return rep


def check_representation(x):
    """Axiom report for any carrier defined in this module."""
    if isinstance(x, ModuleData):
        return check_module(x)
    if isinstance(x, ComoduleData):
        return check_comodule(x)
    if isinstance(x, RelHopfModuleData):
        return check_relhopf(x)
    if isinstance(x, BicomoduleData):
        return check_bicomodule(x)
    raise TypeError(f"no axiom suite for {type(x).__name__}")


# -- standard (co)modules ----------------------------------------------

def regular_module(a, side="right"):
    """The algebra acting on itself by multiplication."""
    return ModuleData(a.field, a.dim, a.mult, a, side, name=f"regular {side} module")


def regular_comodule_of(c, name=""):
    """A coalgebra coacting on itself by its comultiplication."""
    return ComoduleData(c.field, c.dim, c.comult, c, "right",
                        name or "regular comodule")


def regular_comodule(h):
    """The regular comodule of a Hopf algebra's coalgebra, named after the
    Hopf algebra."""
    return regular_comodule_of(h.coalgebra, f"{h.name or 'H'} regular comodule")


def trivial_comodule_at(c, grouplike, name="trivial comodule"):
    """One-dimensional comodule with coaction v -> v (x) g; its axiom report
    holds exactly when g is grouplike."""
    v = ComoduleData(c.field, 1, LinMap.from_column(c.field, grouplike), c, "right", name)
    return v, check_comodule(v)


def trivial_comodule(h):
    v, rep = trivial_comodule_at(h.coalgebra, h.unit_vector(), "unit comodule")
    if not rep.ok:
        raise VerificationFailed(rep)
    return v


def tensor_comodules(h, v, w, name=""):
    """Tensor product of right comodules over a Hopf algebra: the coaction
    v (x) w -> v0 (x) w0 (x) v1*w1 is `diagonal` contracting by mult."""
    if v.side != "right" or w.side != "right":
        raise ValueError("tensor of comodules is implemented for right comodules")
    out = diagonal(v.coaction, v.dim, w.coaction, w.dim, h.mult)
    return ComoduleData(h.field, v.dim * w.dim, out, h.coalgebra, "right", name)


def restrict_module(m, alg, phi):
    """Pull a module back along an algebra map phi from alg into the acting
    algebra: restriction to a subalgebra along its inclusion, or inflation
    from a quotient along its projection."""
    a, b = (m.dim, 1) if m.side == "right" else (1, m.dim)
    return ModuleData(m.field, m.dim, after_leg(m.action, a, phi, b), alg,
                      m.side, m.name)


def corestrict_comodule(v, b, psi):
    """Push a right comodule forward along a coalgebra map into b."""
    if v.side != "right":
        raise ValueError("corestriction is implemented for right comodules")
    return ComoduleData(v.field, v.dim, on_leg(v.dim, psi, 1, v.coaction), b,
                        "right", v.name)


# -- morphisms, hom spaces, cotensor -----------------------------------

def is_coalgebra_map(psi, src, dst):
    rep = CertReport("coalgebra map")
    # (psi (x) psi) o comult, one leg at a time
    d1 = dst.comult @ psi \
        - on_leg(1, psi, dst.dim, on_leg(src.dim, psi, 1, src.comult))
    rep.add("respects-comultiplication", d1.is_zero(), _witness(d1, [src.labels]))
    d2 = dst.counit @ psi - src.counit
    rep.add("respects-counit", d2.is_zero(), _witness(d2, [src.labels]))
    return rep


def _colinearity_defect(v, w):
    """The map fm |-> w.coaction o fm - (fm (x) id) o v.coaction, with
    id (x) fm for left comodules; it vanishes exactly on colinear maps."""
    dc = v.over.dim
    if v.side == "right":
        return lambda fm: w.coaction @ fm - on_leg(1, fm, dc, v.coaction)
    return lambda fm: w.coaction @ fm - on_leg(dc, fm, 1, v.coaction)


def _colinearity_operator(v, w):
    """The matrix of _colinearity_defect(v, w) on maps V -> W flattened
    entry-major: postcomposition by w.coaction minus the placement of
    v.coaction."""
    dc = v.over.dim
    post = placed(1, w.coaction, v.dim)
    a, b = (1, dc) if v.side == "right" else (dc, 1)
    return post - on_leg_operator(a, w.dim, b, v.coaction)


def hom_colinear(v, w):
    """Subspace of maps V -> W commuting with the coactions, flattened
    entry-major into k^(dimW*dimV)."""
    if v.side != w.side:
        raise ValueError("hom between comodules on different sides")
    if v.over.dim != w.over.dim or v.over.comult != w.over.comult:
        raise ValueError("hom between comodules over different coalgebras")
    return kernel_of(_colinearity_operator(v, w))


def _intertwining_relations(ops1, ops2):
    """The matrix of X |-> [X o r1_a - r2_a o X]_a on maps X: V1 -> V2,
    flattened entry-major, one block per pair (r1_a, r2_a) of ops1 and ops2
    stacked in order: precomposition by r1_a minus postcomposition by r2_a."""
    d1, d2 = ops1[0].rows, ops2[0].rows
    return stack_maps([placed(d2, r1.transpose(), 1) - placed(1, r2, d1)
                       for r1, r2 in zip(ops1, ops2)])


def hom_linear(m1, m2):
    """Subspace of maps commuting with two same-sided module actions."""
    if m1.side != m2.side:
        raise ValueError("hom between modules on different sides")
    if m1.over.dim != m2.over.dim or m1.over.mult != m2.over.mult:
        raise ValueError("hom between modules over different algebras")
    return kernel_of(_intertwining_relations(m1.action_operators(),
                                             m2.action_operators()))


def comodule_morphism_ok(fm, v, w):
    return _colinearity_defect(v, w)(fm).is_zero()


def cotensor(v, w):
    """Cotensor product of a right comodule and a left comodule over one
    coalgebra, as a subspace of the flattened tensor square."""
    if v.side != "right" or w.side != "left":
        raise ValueError("cotensor takes a right comodule then a left comodule")
    if v.over.dim != w.over.dim or v.over.comult != w.over.comult:
        raise ValueError("cotensor over mismatched coalgebras")
    return kernel_of(placed(1, v.coaction, w.dim) - placed(v.dim, w.coaction, 1))


def comodule_on_subspace(v, s):
    """Restrict a comodule coaction to an invariant subspace; raises if the
    subspace is not invariant.  Returns (comodule, inclusion).

    With B = s.basis_map(), the restricted coaction is coaction o B
    factored through s (x) C on the right and C (x) s on the left; s is
    invariant exactly when it lands.
    """
    b = s.basis_map()
    # the leg of V in V (x) C on the right, in C (x) V on the left
    a, c = (1, v.over.dim) if v.side == "right" else (v.over.dim, 1)
    coact, invariant = s.factor(v.coaction @ b, a, c)
    if not invariant:
        raise ValueError("subspace is not invariant under the coaction")
    return ComoduleData(v.field, s.dim, coact, v.over, v.side, v.name), b


def restrict_algebra(a, s, labels=()):
    """Structure constants of a subalgebra on the canonical basis of a
    subspace; raises when the subspace is not closed under the product or
    misses the unit.  Returns (algebra, inclusion)."""
    b = s.basis_map()
    mult, closed = s.factor(after_leg(after_leg(a.mult, 1, b, a.dim), s.dim, b, 1))
    if not closed:
        raise ValueError("subspace is not closed under the product")
    unit, unital = s.factor(a.unit)
    if not unital:
        raise ValueError("subspace does not contain the unit")
    return AlgebraData(a.field, s.dim, mult, unit, tuple(labels)), b


def regular_relhopf(h, subalg, incl, name=""):
    """The Hopf algebra itself as a relative Hopf module: regular coaction,
    action by right multiplication through the subalgebra inclusion.  A
    failed relative Hopf module check raises VerificationFailed."""
    f = h.field
    comod = regular_comodule(h)
    mod = ModuleData(f, h.dim, after_leg(h.mult, h.dim, incl, 1), subalg, "right")
    x = RelHopfModuleData(h, subalg, incl, comod, mod,
                          name or f"{h.name or 'H'} as relative Hopf module")
    rep = check_relhopf(x)
    if not rep.ok:
        raise VerificationFailed(rep)
    return x


# -- quotient algebras and radical -------------------------------------

def _char_guard(field, dim, what):
    if field.char != 0 and field.char <= dim:
        raise ValueError(
            f"trace-form radical of {what} needs characteristic 0 or p > {dim}, "
            f"got characteristic {field.char}")


def radical(a):
    """Jacobson radical of a finite-dimensional algebra, as the kernel of
    the trace form of the left regular representation.

    With L_i the operator of left multiplication by e_i, the form is
    tr(L_i L_j) = sum over l, m of mult[l, i*d + m] * mult[m, j*d + l],
    summed in one pass over the entries of mult; it assumes no
    associativity of mult."""
    _char_guard(a.field, a.dim, "an algebra")
    f, d = a.field, a.dim
    # back[(m, l)]: (j, w) over the entries w = mult[m, j*d + l]
    back = {}
    for (m, c), w in a.mult.entries():
        j, l = divmod(c, d)
        back.setdefault((m, l), []).append((j, w))
    gram = {}
    for (l, c), v in a.mult.entries():
        i, m = divmod(c, d)
        for j, w in back.get((m, l), ()):
            gram[(i, j)] = f.add(gram.get((i, j), f.zero), f.mul(v, w))
    return kernel_of(LinMap(f, d, d, gram))


@dataclass
class CosemisimplicityResult:
    ok: bool
    dual_radical_dim: int

    def __bool__(self):
        return self.ok


def is_cosemisimple(c):
    """Cosemisimplicity of a coalgebra, decided on its dual algebra."""
    r = radical(dual_algebra(c))
    return CosemisimplicityResult(r.dim == 0, r.dim)


def quotient_algebra(a, ideal):
    """Quotient by a two-sided ideal, presented on the non-pivot coordinates
    of the ideal's canonical basis.  Returns (algebra, projection, section)."""
    f = a.field
    proj, sect = _quotient_maps(ideal)
    if ideal.dim:
        bm = ideal.basis_map()
        if not (proj @ after_leg(a.mult, 1, bm, a.dim)).is_zero() \
                or not (proj @ after_leg(a.mult, a.dim, bm, 1)).is_zero():
            raise ValueError("quotient by a subspace that is not a two-sided ideal")
    piv = set(ideal.pivots)
    labels = tuple(f"[{lbl}]" for i, lbl in enumerate(a.labels) if i not in piv)
    qd = proj.rows
    mult = after_leg(after_leg(a.mult, 1, sect, a.dim), qd, sect, 1)
    q = AlgebraData(f, qd, proj @ mult, proj @ a.unit, labels)
    return q, proj, sect


def module_on_subspace(m, s):
    """Restrict a right module to an invariant subspace; raises if not
    invariant.  Returns (module, inclusion)."""
    if m.side != "right":
        raise ValueError("submodule restriction is implemented for right modules")
    b = s.basis_map()
    act, invariant = s.factor(after_leg(m.action, 1, b, m.over.dim))
    if not invariant:
        raise ValueError("subspace is not invariant under the action")
    return ModuleData(m.field, s.dim, act, m.over, "right", m.name), b


def _quotient_maps(sub):
    """Projection onto the non-pivot coordinates of the ambient space modulo
    a subspace, and the matching section.  proj @ sect = id, and
    proj @ sub.basis_map() = 0.  Column j of proj, the reduced e_j, is
    placed: e_j itself off the pivots, minus the row with pivot j on them."""
    f, d = sub.field, sub.ambient
    piv = set(sub.pivots)
    index = {c: k for k, c in enumerate(c for c in range(d) if c not in piv)}
    ent = {(k, c): f.one for c, k in index.items()}
    for (c, j), x in sub.basis_map().entries():
        if c in index:
            ent[(index[c], sub.pivots[j])] = f.neg(x)
    qd = len(index)
    return (LinMap(f, qd, d, ent),
            LinMap(f, d, qd, {(c, k): f.one for c, k in index.items()}))


def module_on_quotient(m, s):
    """Quotient a right module by an invariant subspace.  Returns
    (module, projection) on the non-pivot coordinates."""
    if m.side != "right":
        raise ValueError("quotient modules are implemented for right modules")
    proj, sect = _quotient_maps(s)
    act = proj @ after_leg(m.action, 1, sect, m.over.dim)
    return ModuleData(m.field, proj.rows, act, m.over, "right", m.name), proj


# -- minimal polynomials -----------------------------------------------

def matrix_minpoly(m):
    """Monic minimal polynomial of a square matrix, as a low-degree-first
    coefficient tuple.

    One elimination run over the rows vec(m^k) (+) e_k, the power k
    tagged by a tracking column, until a row reduces to zero on the
    matrix columns: that row holds m^k + sum c_j m^j = 0 on its tracking
    columns, the lower powers being independent.  The tracking column of
    m^k is n*n + n - k, left of those of the lower powers, so the row's
    pivot is its leading coefficient and the kernel leaves it monic."""
    f, n = m.field, m.rows
    nn = n * n

    def rows():
        power = LinMap.identity(f, n)
        # by Cayley-Hamilton a row reduces to zero by k = n
        for k in range(n + 1):
            row = {r * n + c: x for (r, c), x in power.entries()}
            row[nn + n - k] = f.one
            yield row
            # the kernel has pivoted the row at its leftmost entry
            if min(row) >= nn:
                return
            power = power @ m

    basis = _eliminate(f, rows())
    # every other pivot is on a matrix column
    lead = max(basis)
    return tuple(basis[lead].get(nn + n - j, f.zero)
                 for j in range(nn + n - lead + 1))


def factor_poly(field, coeffs):
    """Irreducible monic factors over the coefficient field.  Returns a
    sorted list of (factor coeffs low-first, multiplicity).

    Degree 1 over any field and degree 2 over QQ are split here.  A monic
    x^2 + p x + q splits over QQ exactly when its discriminant p^2 - 4q
    is the square of a rational, that is, when the numerator and the
    denominator of that fraction in lowest terms are both squares.  Any
    other polynomial goes to sympy."""
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    if len(cs) == 2:
        out = [((field.mul(cs[0], field.inv(cs[1])), field.one), 1)]
    elif len(cs) == 3 and field.char == 0:
        out = _rational_quadratic_factors(field, cs)
    else:
        out = _sympy_factors(field, coeffs)
    out.sort(key=lambda t: (len(t[0]), [field.fmt(c) for c in t[0]]))
    return out


def _rational_quadratic_factors(field, cs):
    """The factors of cs[0] + cs[1] x + cs[2] x^2 over QQ, cs[2] nonzero."""
    inv = field.inv(cs[2])
    p, q = field.mul(cs[1], inv), field.mul(cs[0], inv)
    disc = field.sub(field.mul(p, p), field.mul(field.from_int(4), q))
    num, den = disc.numerator, disc.denominator
    rn, rd = isqrt(max(num, 0)), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return [((q, p, field.one), 1)]
    root = field.mul(rn, field.inv(rd))
    half = field.inv(field.from_int(2))
    # x^2 + p x + q = (x + (p - root)/2)(x + (p + root)/2)
    lo = field.mul(field.sub(p, root), half)
    if not root:
        return [((lo, field.one), 2)]
    return [((lo, field.one), 1),
            ((field.mul(field.add(p, root), half), field.one), 1)]


def _sympy_factors(field, coeffs):
    """factor_poly's factors, unsorted, through sympy."""
    # imported on first use: sympy is most of the time `import coideals` takes
    import sympy

    x = sympy.Symbol("x")
    if field.char == 0:
        expr = [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)]
        poly = sympy.Poly(expr, x, domain="QQ")
    else:
        poly = sympy.Poly([int(c) for c in reversed(coeffs)], x, modulus=field.char)
    out = []
    for fac, mult in poly.factor_list()[1]:
        fac = fac.monic()
        if field.char == 0:
            cs = [field.parse(str(c)) for c in reversed(fac.all_coeffs())]
        else:
            cs = [field.from_int(int(c)) for c in reversed(fac.all_coeffs())]
        out.append((tuple(cs), mult))
    return out


def poly_at_matrix(field, coeffs, m):
    n = m.rows
    acc = LinMap.zero(field, n, n)
    for c in reversed(coeffs):
        acc = acc @ m + LinMap.identity(field, n).scale(c)
    return acc


# -- submodule search and composition factors --------------------------

def matrix_algebra(field, n):
    """The algebra M_n on the entry-major flattening of n x n matrices:
    e_(a,b) at position a*n + b, e_(a,b) e_(b,c) = e_(a,c), unit vec(I)."""
    d, one = n * n, field.one
    mult = LinMap(field, d, d * d, {
        (a * n + c, (a * n + b) * d + b * n + c): one
        for a in range(n) for b in range(n) for c in range(n)})
    unit = LinMap(field, d, 1, {(a * n + a, 0): one for a in range(n)})
    return AlgebraData(field, d, mult, unit)


def matrix_algebra_closure(field, mats, n):
    """The unital algebra that n x n matrices generate, as a subspace of
    flattened matrices: the left closure of vec(I) under postcomposition
    by each of them, which holds every word in them."""
    # vec(I) is one at the positions a*n + a, the multiples of n + 1
    one = tuple(field.zero if i % (n + 1) else field.one for i in range(n * n))
    return generated_submodule(field, [placed(1, g, n) for g in mats], one)


def _split_by_minpoly(field, cand, n):
    """Proper nonzero kernel of an irreducible factor of the candidate's
    minimal polynomial, or None when that polynomial is irreducible."""
    mp = matrix_minpoly(cand)
    factors = factor_poly(field, mp)
    if len(factors) == 1 and factors[0][1] == 1:
        return None
    ker = kernel_of(poly_at_matrix(field, factors[0][0], cand))
    if 0 < ker.dim < n:
        return ker
    return None


def _split_in(field, s, n):
    """The first split that _split_by_minpoly finds among the canonical
    basis matrices of a subspace s of flattened n x n matrices, their
    pairwise products and their pairwise sums, tried in that order."""
    ents = [{} for _ in range(s.dim)]
    for (rc, h), x in s.basis_map().entries():
        ents[h][divmod(rc, n)] = x
    mats = [LinMap(field, n, n, e) for e in ents]
    cands = chain(mats, (a @ b for a in mats for b in mats),
                  (a + b for a in mats for b in mats))
    for cand in cands:
        ker = _split_by_minpoly(field, cand, n)
        if ker is not None:
            return ker
    return None


def generated_submodule(f, ops, vec):
    """The smallest subspace containing vec and stable under every operator
    in ops: the submodule vec generates when ops are the action operators.

    One run of the elimination kernel grows the span.  It reduces vec,
    then the image under each operator of each vector that enlarged the
    span, once each; the kernel leaves a row empty exactly when it was
    already in the span.  So each operator is applied once per basis
    vector."""
    def candidates():
        todo = [vec]
        while todo:
            w = todo.pop()
            row = {j: x for j, x in enumerate(w) if x}
            yield row
            if row:
                todo += [op.apply(w) for op in ops]

    return Subspace(f, len(vec), _eliminate(f, candidates()))


def invariant_subspace(m):
    """A proper nonzero subspace invariant under a right module action, or
    None when the module is certified simple.

    The search is complete when the algebra generated by the action
    operators is commutative, has a nonzero radical, or splits through the
    minimal polynomial of an element of its center or commutant; the one
    remaining case raises AmbiguousDecompositionError rather than guessing.
    """
    f = m.field
    n = m.dim
    if n <= 1:
        return None
    ops = m.action_operators()
    # cheap first pass: the submodule each coordinate vector generates
    for k in range(n):
        span = generated_submodule(f, ops, basis_vector(f, n, k))
        if 0 < span.dim < n:
            return span
    span = matrix_algebra_closure(f, ops, n)
    e_alg, b = restrict_algebra(matrix_algebra(f, n), span)
    _char_guard(f, e_alg.dim, "the action algebra")
    j = radical(e_alg)
    if j.dim > 0:
        # J V: the columns of the radical's matrices, which are flattened
        # entry-major in the columns of rad
        sub = image_of(regroup(b @ j.basis_map(), (n, n), (j.dim,), (0,), (2, 1)))
        if not 0 < sub.dim < n:
            raise ValueError(f"split gave dimension {sub.dim} of {n}")
        return sub
    # commuting with the generators is commuting with the algebra they
    # generate, so the center is the span meet the generators' commutant
    comm = kernel_of(_intertwining_relations(ops, ops))
    center = span.intersect(comm)
    ker = _split_in(f, center, n)
    if ker is not None:
        return ker
    if center.dim == e_alg.dim:
        # commutative semisimple action algebra with no composite minimal
        # polynomial in sight: it acts as a field E.  The first pass found
        # E.e0 = V, so dim V <= dim E: V is one line over E, and simple
        return None
    # a split of an element that commutes with the action is invariant
    ker = _split_in(f, comm, n)
    if ker is not None:
        return ker
    if comm.dim == center.dim:
        # the commutant coincides with the (field) center, so it is a
        # division algebra and the module is simple
        return None
    raise AmbiguousDecompositionError(
        "cannot certify simplicity: the action algebra is noncommutative and "
        "no minimal polynomial split was found in its commutant")


def composition_factors(m):
    """Composition factors of a right module, as explicit modules, in the
    deterministic order produced by the subspace splittings."""
    if m.dim == 0:
        return []
    s = invariant_subspace(m)
    if s is None:
        return [m]
    sub, _ = module_on_subspace(m, s)
    quo, _ = module_on_quotient(m, s)
    return composition_factors(sub) + composition_factors(quo)


def distinct_modules(mods):
    """Prune simple modules over one algebra to pairwise non-isomorphic
    ones, keeping first occurrences.

    Every input must be simple (composition factors are).  By Schur's lemma
    a nonzero intertwiner between simples is invertible, so two of them are
    isomorphic exactly when their dimensions agree and the intertwiner space
    is nonzero."""
    out = []
    for m in mods:
        if not any(m.dim == seen.dim and hom_linear(m, seen).dim > 0
                   for seen in out):
            out.append(m)
    return out


def radical_and_simples(a):
    """Radical of an algebra together with one copy of each simple right
    module, presented as modules over the original algebra."""
    j = radical(a)
    q, proj, _ = quotient_algebra(a, j)
    simples = distinct_modules(composition_factors(regular_module(q, "right")))
    return j, [restrict_module(s, a, proj) for s in simples]


def simple_comodules(c):
    """One copy of each simple right comodule, computed through the simple
    modules of the opposite of the dual algebra."""
    a_op = dual_algebra(c).op()
    _, simples = radical_and_simples(a_op)
    f = c.field
    out = []
    for s in simples:
        # the coaction reads the right action v (x) a -> v.a as v -> v (x) a
        rho = regroup(s.action, (s.dim,), (s.dim, c.dim), (0, 2), (1,))
        v = ComoduleData(f, s.dim, rho, c, "right", s.name)
        rep = check_comodule(v)
        if not rep.ok:
            raise VerificationFailed(rep)
        out.append(v)
    return out


def socle_wrt(m, rad):
    """Elements of a right module killed by every radical basis vector."""
    f = m.field
    if rad.dim == 0:
        return Subspace.full(f, m.dim)
    return kernel_of(stack_maps([m.act_by(r) for r in rad.rows]))


@dataclass
class SemisimplicityResult:
    ok: bool
    socle_dim: int
    module_dim: int
    radical_dim: int

    def __bool__(self):
        return self.ok


def is_module_semisimple(m):
    """Semisimplicity of a right module over its acting algebra, decided by
    the socle against the algebra's radical."""
    j = radical(m.over)
    soc = socle_wrt(m, j)
    return SemisimplicityResult(soc.dim == m.dim, soc.dim, m.dim, j.dim)


# -- duality between modules and comodules ------------------------------

def comodule_to_dual_module(v):
    """Transpose dictionary on the dual carrier: a left comodule over C
    yields a left module over the dual algebra of C, a right comodule a
    right module.  The action matrix is literally the transpose of the
    coaction under the leg-pairing flattening, so the translation is exact.
    """
    a = dual_algebra(v.over)
    return ModuleData(v.field, v.dim, v.coaction.transpose(), a, v.side, v.name)


def recover_coalgebra_map(h, b, lam):
    """Read a coalgebra map H -> B off a right coaction of b on the Hopf
    algebra's carrier via the counit, with the report certifying that the
    result is a coalgebra map regenerating the given coaction."""
    psi = on_leg(1, h.counit, b.dim, lam)
    rep = CertReport("recovered coalgebra map")
    rep.merge(is_coalgebra_map(psi, h.coalgebra, b))
    regen = on_leg(h.dim, psi, 1, h.comult) - lam
    rep.add("coaction-regenerated", regen.is_zero(), _witness(regen, [h.labels]))
    return psi, rep
