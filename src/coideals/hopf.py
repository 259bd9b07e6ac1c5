"""Structure data for finite-dimensional algebras, coalgebras, Hopf algebras
and bialgebra pairings, with mechanical axiom checks.

All structure maps are LinMaps over one shared field descriptor, with the
tensor-leg flattening fixed in linalg.  Nothing here is assumed: every
constructor stores raw structure constants and checks their shapes, and the
check functions verify the axioms exactly, reporting the first violating
basis tuple on failure.

The axioms of an algebra, a coalgebra and a Hopf algebra are evaluated
from the sparse columns of the structure maps, never by composing
matrices: each check sums the terms of its difference map straight into
the entries that the composite of matrices would have, so its witness is
the same, and no tensor product of maps is built.  The work grows with
d * nnz(mult), not with the d^2 x d^3 map that mult (x) id is.  The
pairing checks and the hit actions still compose matrices.

Five checks run on a generating set S of the algebra (_generating_set:
e_k joins S when it is not yet in the left closure of 1 under S), by the
generator argument (Kassel, Quantum Groups, ch. III).  Each set below is
a subspace that contains 1 and is closed under left multiplication by
the elements of S it contains, so once S passes it holds the left
closure of 1 under S, which is A by the right unit law:

* assoc, when the unit laws hold, sums only the columns (i*d + j)*d + k
  with i in S.  N = {u : (uy)z = u(yz) for all y, z} contains 1 by the left
  unit law, and s, u in N give su in N.
* comult-multiplicative, when assoc, the unit laws and comult-unital hold,
  compares only the pairs (s, j) with s in S.  M = {u : Delta(uy) =
  Delta(u)Delta(y) for all y} contains 1, because Delta(1) = 1 (x) 1 and 1
  is a unit, and it is closed under left multiplication by S because A and
  A (x) A are associative.
* counit-multiplicative, when assoc, the unit laws and counit-unital hold,
  sums only the columns s*d + j with s in S.  E = {u : eps(uy) =
  eps(u)eps(y) for all y} contains 1 because eps(1) = 1, and for s, u in E
  eps((su)y) = eps(s)eps(uy) = eps(s)eps(u)eps(y) = eps(su)eps(y).
* coassoc and both counit laws, when assoc, the unit laws and all four
  algebra-map checks hold, sum only the columns s in S.  Delta and eps are
  then algebra maps, so are (Delta (x) id)Delta, (id (x) Delta)Delta,
  (eps (x) id)Delta, (id (x) eps)Delta and id, and the set where two
  algebra maps agree is a subalgebra.

The same argument keeps the witness.  The lowest failing first index i
is in S: otherwise e_i lies in the closure of 1 under the generators below
i, which all pass, so e_i passes too.  A reduced check that fails thus
reports the first failing tuple of the full scan.  When a precondition
fails, the check scans every basis tuple, and so does CoalgebraData.check
on its own.  The antipode laws always scan every column: the set where
m(antipode (x) id)Delta and u.eps agree is a subalgebra only if the
antipode is anti-multiplicative, which is not known beforehand, and
checking that costs as much as the scan it would save.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certs import CertReport, VerificationFailed
from .fields import same_field
from .linalg import (
    DimensionMismatchError,
    LinMap,
    _eliminate,
    after_leg,
    basis_vector,
    identity_map,
    on_leg,
    placed,
    rank,
    regroup,
)


def _default_labels(dim, stem="e"):
    return tuple(f"{stem}{i}" for i in range(dim))


def _decode(index, dims):
    out = []
    for d in reversed(dims):
        out.append(index % d)
        index //= d
    return tuple(reversed(out))


def _witness(diff, label_lists):
    """First nonzero column of a difference map, decoded as a basis tuple
    with one label list per tensor leg of the source."""
    if diff.is_zero():
        return None
    c = min(cc for (_, cc), _ in diff.entries())
    dims = [len(lbls) for lbls in label_lists]
    idx = _decode(c, dims)
    return "(" + ", ".join(lbls[i] for lbls, i in zip(label_lists, idx)) + ")"


def _difference(f, rows, cols, lhs, rhs):
    """The rows x cols LinMap lhs - rhs, each side given as the terms
    ((row, col), value) that add up to its entries."""
    add, zero = f.add, f.zero
    sums = []
    for terms in (lhs, rhs):
        acc = {}
        for key, v in terms:
            acc[key] = add(acc.get(key, zero), v)
        sums.append(acc)
    left, right = sums
    diff = {}
    for key in left.keys() | right.keys():
        a, b = left.get(key, zero), right.get(key, zero)
        if a != b:
            diff[key] = f.sub(a, b)
    return LinMap(f, rows, cols, diff)


def _identity_terms(f, columns):
    return [((k, k), f.one) for k in columns]


def _check_shape(name, m, rows, cols):
    if (m.rows, m.cols) != (rows, cols):
        raise DimensionMismatchError(
            f"{name} must be {rows}x{cols}, got {m.rows}x{m.cols}")


@dataclass
class AlgebraData:
    """Unital associative algebra by structure constants.

    mult: k^(dim^2) -> k^dim, unit: k -> k^dim.
    """

    field: object
    dim: int
    mult: LinMap
    unit: LinMap
    labels: tuple = ()

    def __post_init__(self):
        if not self.labels:
            self.labels = _default_labels(self.dim)
        _check_shape("mult", self.mult, self.dim, self.dim * self.dim)
        _check_shape("unit", self.unit, self.dim, 1)
        same_field(self.field, self.mult.field)
        same_field(self.field, self.unit.field)

    @classmethod
    def from_products(cls, field, dim, prod_fn, unit_vec, labels=()):
        """prod_fn(i, j) -> dict {k: coeff} for e_i * e_j."""
        ent = {}
        for i in range(dim):
            for j in range(dim):
                for k, v in prod_fn(i, j).items():
                    if v != field.zero:
                        ent[(k, i * dim + j)] = v
        mult = LinMap(field, dim, dim * dim, ent)
        unit = LinMap.from_column(field, unit_vec)
        return cls(field, dim, mult, unit, tuple(labels))

    @property
    def unit_vector(self):
        return self.unit.column(0)

    def product(self, u, v):
        """Product of two coefficient vectors."""
        f = self.field
        w = [f.zero] * (self.dim * self.dim)
        for i, a in enumerate(u):
            if a == f.zero:
                continue
            for j, b in enumerate(v):
                if b != f.zero:
                    w[i * self.dim + j] = f.mul(a, b)
        return self.mult.apply(tuple(w))

    def op(self):
        d = self.dim
        return AlgebraData(self.field, d, regroup(self.mult, (d,), (d, d), (0,), (2, 1)),
                           self.unit, self.labels)

    def check(self):
        """Associativity and the unit laws, reported in that order.  The
        unit laws are checked first; when they hold, associativity is
        checked on the triples (s, y, z) with s in the generating set of
        _generating_set, and otherwise on every triple (see the module
        docstring for why both give the same verdict and witness)."""
        prod = self.mult.sparse_columns()
        return _algebra_report(self, prod, _generating_set(self, prod))


def _left_times(f, d, prod, k, vec):
    """e_k vec, read from the columns k*d + j of mult: vec placed in block k
    of k^(d*d) and multiplied out, without building a map."""
    add, mul = f.add, f.mul
    out = [f.zero] * d
    for j, a in enumerate(vec):
        if a:
            for r, w in prod[k * d + j]:
                out[r] = add(out[r], mul(a, w))
    return tuple(out)


def _generating_set(a, prod):
    """Indices S of algebra generators, picked greedily in index order: e_k
    joins S when it is not yet in the closure C of 1 and S under left
    multiplication by S.

    prod are the sparse columns of a.mult.  C is the span that one run of
    the elimination kernel grows: each candidate, 1, a basis vector e_k or
    a product s v with v a vector that enlarged C, is reduced once, and
    the kernel leaves it empty exactly when it was already in C.  Each
    generator is applied once to each vector that enlarged C, and nothing
    is tested once C is all of A.  When the unit laws hold, e_k = e_k 1,
    so C is the left closure of 1 under S, and it is all of A.
    """
    f, d = a.field, a.dim
    gens = []

    def candidates():
        # the vectors that enlarged C, and the products (s, v) to reduce
        grown, pending = [], []

        def reduce(w):
            """Hand w to the kernel; whether it enlarged C."""
            row = {j: x for j, x in enumerate(w) if x}
            yield row
            if row:
                grown.append(w)
                pending.extend((t, w) for t in gens)
            return bool(row)

        yield from reduce(a.unit_vector)
        for k in range(d):
            while pending and len(grown) < d:
                s, v = pending.pop()
                yield from reduce(_left_times(f, d, prod, s, v))
            if len(grown) == d:
                return
            if (yield from reduce(basis_vector(f, d, k))):
                gens.append(k)
                pending += [(k, v) for v in grown]

    _eliminate(f, candidates())
    return tuple(gens)


def _assoc_difference(f, d, prod, firsts):
    """(e_i e_j) e_k - e_i (e_j e_k) for i in firsts, in column
    (i*d + j)*d + k of a d x d^3 map; prod are the sparse columns of mult."""
    mul = f.mul
    # times_right[m]: (k, r, w) over the terms w e_r of e_m e_k, and
    # times_left[m]: (i, r, w) over the terms w e_r of e_i e_m, i in firsts
    times_right = [[(k, r, w) for k in range(d) for r, w in prod[m * d + k]]
                   for m in range(d)]
    times_left = [[(i, r, w) for i in firsts for r, w in prod[i * d + m]]
                  for m in range(d)]
    return _difference(
        f, d, d ** 3,
        (((r, ij * d + k), mul(v, w))
         for i in firsts for ij in range(i * d, i * d + d) for m, v in prod[ij]
         for k, r, w in times_right[m]),
        (((r, i * d * d + jk), mul(v, w))
         for jk in range(d * d) for m, v in prod[jk]
         for i, r, w in times_left[m]))


def _algebra_report(a, prod, gens):
    """The report of AlgebraData.check, given the sparse columns of mult
    and the generating set."""
    rep = CertReport(f"algebra dim {a.dim}")
    f, d = a.field, a.dim
    mul = f.mul
    (unit,) = a.unit.sparse_columns()
    # 1 e_k - e_k and e_k 1 - e_k, in column k
    lu = _difference(f, d, d,
                     (((r, k), mul(v, w))
                      for u, v in unit for k in range(d) for r, w in prod[u * d + k]),
                     _identity_terms(f, range(d)))
    ru = _difference(f, d, d,
                     (((r, k), mul(v, w))
                      for u, v in unit for k in range(d) for r, w in prod[k * d + u]),
                     _identity_terms(f, range(d)))
    unit_ok = lu.is_zero() and ru.is_zero()
    assoc_diff = _assoc_difference(f, d, prod, gens if unit_ok else range(d))
    rep.add("assoc", assoc_diff.is_zero(), _witness(assoc_diff, [a.labels] * 3))
    rep.add("unit", unit_ok, _witness(lu if not lu.is_zero() else ru, [a.labels]))
    return rep


@dataclass
class CoalgebraData:
    """Coassociative counital coalgebra by structure constants.

    comult: k^dim -> k^(dim^2), counit: k^dim -> k.
    """

    field: object
    dim: int
    comult: LinMap
    counit: LinMap
    labels: tuple = ()

    def __post_init__(self):
        if not self.labels:
            self.labels = _default_labels(self.dim)
        _check_shape("comult", self.comult, self.dim * self.dim, self.dim)
        _check_shape("counit", self.counit, 1, self.dim)
        same_field(self.field, self.comult.field)
        same_field(self.field, self.counit.field)

    @classmethod
    def from_images(cls, field, dim, comult_fn, counit_fn, labels=()):
        """comult_fn(i) -> dict {(j, k): coeff}; counit_fn(i) -> scalar."""
        ent = {}
        for i in range(dim):
            for (j, k), v in comult_fn(i).items():
                if v != field.zero:
                    ent[(j * dim + k, i)] = v
        comult = LinMap(field, dim * dim, dim, ent)
        counit = LinMap(field, 1, dim,
                        {(0, i): counit_fn(i) for i in range(dim) if counit_fn(i) != field.zero})
        return cls(field, dim, comult, counit, tuple(labels))

    def cop(self):
        d = self.dim
        return CoalgebraData(self.field, d, regroup(self.comult, (d, d), (d,), (1, 0), (2,)),
                             self.counit, self.labels)

    def check(self):
        """Coassociativity and the counit laws, on every basis element."""
        return _coalgebra_report(self, self.comult.sparse_columns(),
                                 range(self.dim))


def _coalgebra_report(c, co, firsts):
    """The report of CoalgebraData.check, given the sparse columns of
    comult, with both laws summed only in the columns i in firsts."""
    rep = CertReport(f"coalgebra dim {c.dim}")
    f, d = c.field, c.dim
    mul = f.mul
    eps = [c.counit.entry(0, a) for a in range(d)]
    # (Delta (x) id) Delta - (id (x) Delta) Delta, in column i; a term
    # e_a (x) e_b of Delta(e_i) sits in row r = a*d + b
    co_diff = _difference(
        f, d ** 3, d,
        (((s * d + r % d, i), mul(v, w))
         for i in firsts for r, v in co[i] for s, w in co[r // d]),
        ((((r // d) * d * d + s, i), mul(v, w))
         for i in firsts for r, v in co[i] for s, w in co[r % d]))
    rep.add("coassoc", co_diff.is_zero(), _witness(co_diff, [c.labels]))
    # (eps (x) id) Delta - id and (id (x) eps) Delta - id, in column i
    lu = _difference(f, d, d,
                     (((r % d, i), mul(eps[r // d], v))
                      for i in firsts for r, v in co[i]),
                     _identity_terms(f, firsts))
    ru = _difference(f, d, d,
                     (((r // d, i), mul(v, eps[r % d]))
                      for i in firsts for r, v in co[i]),
                     _identity_terms(f, firsts))
    cu_diff = lu if not lu.is_zero() else ru
    rep.add("counit", lu.is_zero() and ru.is_zero(),
            _witness(cu_diff, [c.labels]))
    return rep


def dual_algebra(c):
    """Convolution algebra on the dual of a coalgebra (transpose matrices)."""
    return AlgebraData(c.field, c.dim, c.comult.transpose(), c.counit.transpose(),
                       tuple(f"{l}*" for l in c.labels))


def dual_coalgebra(a):
    return CoalgebraData(a.field, a.dim, a.mult.transpose(), a.unit.transpose(),
                         tuple(f"{l}*" for l in a.labels))


@dataclass
class HopfAlgebraData:
    algebra: AlgebraData
    coalgebra: CoalgebraData
    antipode: LinMap
    name: str = ""

    def __post_init__(self):
        if self.algebra.dim != self.coalgebra.dim:
            raise DimensionMismatchError(
                f"algebra has dim {self.algebra.dim}, coalgebra has dim {self.coalgebra.dim}")
        same_field(self.algebra.field, self.coalgebra.field)
        _check_shape("antipode", self.antipode, self.algebra.dim, self.algebra.dim)

    @property
    def field(self):
        return self.algebra.field

    @property
    def dim(self):
        return self.algebra.dim

    @property
    def labels(self):
        return self.algebra.labels

    @property
    def mult(self):
        return self.algebra.mult

    @property
    def unit(self):
        return self.algebra.unit

    @property
    def comult(self):
        return self.coalgebra.comult

    @property
    def counit(self):
        return self.coalgebra.counit

    def unit_vector(self):
        return self.algebra.unit_vector


def _comult_multiplicative_at(f, d, prod, coproducts, i, j):
    """Whether Delta(e_i e_j) = Delta(e_i) Delta(e_j).

    prod are the sparse columns of mult, and coproducts[i] lists the terms
    (a, b, coeff) of Delta(e_i).  Delta(e_i) Delta(e_j) = sum of
    (a.c) (x) (b.e) over the terms a (x) b of Delta(e_i) and c (x) e of
    Delta(e_j).
    """
    add, mul = f.add, f.mul
    zero = f.zero
    lhs = {}
    for k, v in prod[i * d + j]:
        for a, b, w in coproducts[k]:
            lhs[a, b] = add(lhs.get((a, b), zero), mul(v, w))
    rhs = {}
    for a, b, v in coproducts[i]:
        for c, e, w in coproducts[j]:
            vw = mul(v, w)
            for x, s in prod[a * d + c]:
                vws = mul(vw, s)
                for y, t in prod[b * d + e]:
                    rhs[x, y] = add(rhs.get((x, y), zero), mul(vws, t))
    return ({k: v for k, v in lhs.items() if v != zero}
            == {k: v for k, v in rhs.items() if v != zero})


def _comult_multiplicative_violation(f, d, prod, co, firsts):
    """First basis pair (i, j) with i in firsts, in the order i*d + j, with
    Delta(e_i e_j) != Delta(e_i) Delta(e_j), or None if there is none.

    prod and co are the sparse columns of mult and comult.  Over every i
    this is the lowest nonzero column of
    comult.mult - (mult (x) mult)(id (x) swap (x) id)(comult (x) comult).
    """
    # coproducts[i]: [(a, b, coeff)] for Delta(e_i), with row a*d + b
    coproducts = [[(*divmod(r, d), v) for r, v in col] for col in co]
    for i in firsts:
        for j in range(d):
            if not _comult_multiplicative_at(f, d, prod, coproducts, i, j):
                return i, j
    return None


def check_hopf_axioms(h):
    """Full axiom suite; the report carries the first violating basis tuple
    for each failed check.

    The generating set S of _generating_set is computed once and shared,
    and the algebra-map checks run before the coalgebra ones, whose report
    lines still come first.  Each reduced check runs on S only when its
    preconditions hold (see the module docstring), and otherwise scans
    every basis tuple; either way the verdict and the witness are those
    of the full scan.
    """
    rep = CertReport(h.name or f"hopf dim {h.dim}")
    f, d = h.field, h.dim
    mul = f.mul
    prod = h.mult.sparse_columns()
    co = h.comult.sparse_columns()
    anti = h.antipode.sparse_columns()
    (unit,) = h.unit.sparse_columns()
    eps = [h.counit.entry(0, a) for a in range(d)]
    gens = _generating_set(h.algebra, prod)
    algebra = _algebra_report(h.algebra, prod, gens)
    # comult and counit are unital: Delta(1) = 1 (x) 1, eps(1) = 1
    du = _difference(f, d * d, 1,
                     (((r, 0), mul(v, w)) for u, v in unit for r, w in co[u]),
                     (((a * d + b, 0), mul(v, w))
                      for a, v in unit for b, w in unit))
    one = _difference(f, 1, 1, (((0, 0), mul(eps[u], v)) for u, v in unit),
                      [((0, 0), f.one)])
    # comult and counit are multiplicative: Delta(xy) = Delta(x)Delta(y),
    # eps(xy) = eps(x)eps(y), the latter in column x*d + y
    bad_pair = _comult_multiplicative_violation(
        f, d, prod, co, gens if algebra.ok and du.is_zero() else range(d))
    firsts = gens if algebra.ok and one.is_zero() else range(d)
    em = _difference(f, 1, d * d,
                     (((0, c), mul(eps[k], v))
                      for i in firsts for c in range(i * d, i * d + d)
                      for k, v in prod[c]),
                     (((0, i * d + j), mul(eps[i], eps[j]))
                      for i in firsts for j in range(d)))
    algebra_maps = (algebra.ok and du.is_zero() and bad_pair is None
                    and em.is_zero() and one.is_zero())
    rep.merge(algebra)
    rep.merge(_coalgebra_report(h.coalgebra, co,
                                gens if algebra_maps else range(d)))
    rep.add("comult-multiplicative", bad_pair is None,
            None if bad_pair is None
            else f"({h.labels[bad_pair[0]]}, {h.labels[bad_pair[1]]})")
    rep.add("comult-unital", du.is_zero())
    rep.add("counit-multiplicative", em.is_zero(), _witness(em, [h.labels] * 2))
    rep.add("counit-unital", one.is_zero())
    # antipode laws: m(S(x)id)Delta = u.eps = m(id(x)S)Delta, in column i;
    # a term e_a (x) e_b of Delta(e_i) sits in row r = a*d + b
    ue = [((u, i), mul(v, eps[i])) for i in range(d) for u, v in unit]
    left = _difference(f, d, d,
                       (((t, i), mul(mul(v, w), x))
                        for i in range(d) for r, v in co[i]
                        for s, w in anti[r // d] for t, x in prod[s * d + r % d]),
                       ue)
    rep.add("antipode-left", left.is_zero(), _witness(left, [h.labels]))
    right = _difference(f, d, d,
                        (((t, i), mul(mul(v, w), x))
                         for i in range(d) for r, v in co[i]
                         for s, w in anti[r % d] for t, x in prod[(r // d) * d + s]),
                        ue)
    rep.add("antipode-right", right.is_zero(), _witness(right, [h.labels]))
    return rep


def antipode_bijective(h):
    """(bijective?, rank of the antipode matrix)."""
    r = rank(h.antipode)
    return r == h.dim, r


_ANTIPODE_ORDER_CAP = 64


def antipode_order(h):
    """Least n >= 1 with S^n = id, or None up to _ANTIPODE_ORDER_CAP."""
    one = identity_map(h.field, h.dim)
    cur = one
    for n in range(1, _ANTIPODE_ORDER_CAP + 1):
        cur = h.antipode @ cur
        if cur == one:
            return n
    return None


def dual_hopf(h):
    """Dual Hopf algebra: all structure maps transposed.

    The spec of the dual is an instance-level substitution of the full
    linear dual (finite dimension); reports downstream flag this.
    """
    alg = dual_algebra(h.coalgebra)
    co = dual_coalgebra(h.algebra)
    return HopfAlgebraData(alg, co, h.antipode.transpose(),
                           name=f"{h.name}*" if h.name else "")


@dataclass
class PairingData:
    """Bialgebra pairing <.,.>: U (x) H -> k."""

    u: HopfAlgebraData
    h: HopfAlgebraData
    form: LinMap

    def __post_init__(self):
        same_field(self.u.field, self.h.field)
        _check_shape("form", self.form, 1, self.u.dim * self.h.dim)

    def value(self, uvec, hvec):
        f = self.u.field
        w = [f.zero] * (self.u.dim * self.h.dim)
        for i, a in enumerate(uvec):
            if a == f.zero:
                continue
            for j, b in enumerate(hvec):
                if b != f.zero:
                    w[i * self.h.dim + j] = f.mul(a, b)
        return self.form.apply(tuple(w))[0]


def check_pairing(p):
    rep = CertReport("bialgebra pairing")
    du, dh = p.u.dim, p.h.dim
    # (u, v, x, y) -> <u, x><v, y> on U (x) U (x) H (x) H
    form2 = regroup(p.form.tensor(p.form), (), (du, dh, du, dh), (), (0, 2, 1, 3))
    # <uv, x> = <u, x1><v, x2>
    d1 = after_leg(p.form, 1, p.u.mult, dh) \
        - after_leg(form2, du * du, p.h.comult, 1)
    rep.add("mult-vs-comult", d1.is_zero())
    # <u, xy> = <u1, x><u2, y>
    d2 = after_leg(p.form, du, p.h.mult, 1) \
        - after_leg(form2, 1, p.u.comult, dh * dh)
    rep.add("comult-vs-mult", d2.is_zero())
    # units pair to counits
    lu = after_leg(p.form, 1, p.u.unit, dh) - p.h.counit
    rep.add("unit-left", lu.is_zero())
    ru = after_leg(p.form, du, p.h.unit, 1) - p.u.counit
    rep.add("unit-right", ru.is_zero())
    return rep


def hit_action(p, side):
    """Module structure on H over U induced by the pairing.

    side "right": x <- z = <z, x1> x2   (right U-module on H)
    side "left":  z -> x = x1 <z, x2>   (left U-module on H)

    Returns a ModuleData whose module axioms are checked; a violation
    raises VerificationFailed.
    """
    from .repcats import ModuleData, check_module

    f = p.u.field
    du, dh = p.u.dim, p.h.dim
    if side == "right":
        # H (x) U -> H: (x, z) -> (x1, x2, z) -> (x2, z, x1) -> x2 <z, x1>
        legs = regroup(placed(1, p.h.comult, du),
                       (dh, dh, du), (dh * du,), (1, 2, 0), (3,))
    elif side == "left":
        # U (x) H -> H: (z, x) -> (z, x1, x2) -> (x1, z, x2) -> x1 <z, x2>
        legs = regroup(placed(du, p.h.comult, 1),
                       (du, dh, dh), (du * dh,), (1, 0, 2), (3,))
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    mod = ModuleData(f, dh, on_leg(dh, p.form, 1, legs), p.u.algebra, side=side)
    rep = check_module(mod)
    if not rep.ok:
        raise VerificationFailed(rep)
    return mod
