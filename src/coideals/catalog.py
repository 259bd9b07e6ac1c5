"""Worked instances: finite group algebras and their function-algebra duals,
the four-dimensional Hopf algebra with a skew-primitive generator, and its
higher root-of-unity relatives.

Constructors here return raw structure data without certifying it; the test
suite and the verification commands run the axiom checks.  Group tables are
the one exception: a bad multiplication table poisons everything built from
it, so the table constructor validates the group axioms eagerly.
"""

from __future__ import annotations

from .fields import QQ
from .hopf import (
    AlgebraData,
    CoalgebraData,
    HopfAlgebraData,
    PairingData,
    dual_hopf,
)
from .linalg import LinMap, Subspace, after_leg, identity_map, regroup


class FiniteGroupTable:
    """Multiplication table of a finite group, validated on construction."""

    def __init__(self, labels, table):
        self.labels = tuple(labels)
        n = len(self.labels)
        self.table = tuple(tuple(row) for row in table)
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table must be square over the label list")
        for row in self.table:
            for v in row:
                if not (0 <= v < n):
                    raise ValueError("table entry out of range")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.table[self.table[i][j]][k] != self.table[i][self.table[j][k]]:
                        raise ValueError(
                            f"table is not associative at "
                            f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})")
        ident = None
        for e in range(n):
            if all(self.table[e][i] == i and self.table[i][e] == i for i in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("table has no identity element")
        self.identity = ident
        inv = []
        for i in range(n):
            found = None
            for j in range(n):
                if self.table[i][j] == ident and self.table[j][i] == ident:
                    found = j
                    break
            if found is None:
                raise ValueError(f"element {self.labels[i]} has no inverse")
            inv.append(found)
        self.inverse = tuple(inv)

    @property
    def order(self):
        return len(self.labels)

    def mul(self, i, j):
        return self.table[i][j]

    def is_subgroup(self, indices):
        s = set(indices)
        if self.identity not in s:
            return False
        return all(self.table[i][j] in s and self.inverse[i] in s
                   for i in s for j in s)

    def right_cosets(self, indices):
        """Partition of the element indices into right cosets of a subgroup."""
        if not self.is_subgroup(indices):
            raise ValueError("indices do not form a subgroup")
        seen = set()
        cosets = []
        for g in range(self.order):
            if g in seen:
                continue
            coset = sorted({self.table[m][g] for m in indices})
            seen.update(coset)
            cosets.append(tuple(coset))
        return cosets


def cyclic_group(n):
    if n < 1:
        raise ValueError("group order must be positive")
    labels = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroupTable(labels, table)


def symmetric_group_3():
    """Order 6: a 3-cycle r, a transposition s, and their products."""
    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    e = (0, 1, 2)
    r = (1, 2, 0)
    s = (1, 0, 2)
    elems = [e, r, compose(r, r), s, compose(r, s), compose(compose(r, r), s)]
    labels = ["e", "r", "r2", "s", "rs", "r2s"]
    idx = {p: i for i, p in enumerate(elems)}
    table = [[idx[compose(a, b)] for b in elems] for a in elems]
    return FiniteGroupTable(labels, table)


def group_algebra(field, g, name=""):
    """Hopf algebra on a group: grouplike basis, antipode by inversion."""
    n = g.order
    alg = AlgebraData.from_products(
        field, n, lambda i, j: {g.mul(i, j): field.one},
        tuple(field.one if i == g.identity else field.zero for i in range(n)),
        g.labels)
    co = CoalgebraData.from_images(
        field, n, lambda i: {(i, i): field.one}, lambda i: field.one, g.labels)
    antipode = LinMap(field, n, n, {(g.inverse[j], j): field.one for j in range(n)})
    return HopfAlgebraData(alg, co, antipode, name or f"group algebra of order {n}")


def function_algebra(field, g, name=""):
    """Functions on a group: pointwise product, comultiplication dual to the
    group law.  Equals the dual of the group algebra entry by entry."""
    n = g.order
    labels = tuple(f"d{l}" for l in g.labels)
    alg = AlgebraData.from_products(
        field, n, lambda i, j: {i: field.one} if i == j else {},
        tuple(field.one for _ in range(n)), labels)

    def comult_fn(k):
        return {(i, j): field.one for i in range(n) for j in range(n) if g.mul(i, j) == k}

    co = CoalgebraData.from_images(
        field, n, comult_fn,
        lambda i: field.one if i == g.identity else field.zero, labels)
    antipode = LinMap(field, n, n, {(j, g.inverse[j]): field.one for j in range(n)})
    return HopfAlgebraData(alg, co, antipode, name or f"functions on a group of order {n}")


def canonical_pairing(kg, kfun):
    """Evaluation pairing between a group algebra and the function algebra
    on the same group, with mutually dual bases in matching order."""
    n = kg.dim
    if kfun.dim != n:
        raise ValueError("pairing needs matching dimensions")
    form = regroup(identity_map(kg.field, n), (n,), (n,), (), (0, 1))
    return PairingData(kg, kfun, form)


def evaluation_pairing(h):
    """Tautological pairing of the transpose dual against the original."""
    n = h.dim
    form = regroup(identity_map(h.field, n), (n,), (n,), (), (0, 1))
    return PairingData(dual_hopf(h), h, form)


def coevaluation_pairing(h):
    """Tautological pairing of the original against its transpose dual, for
    letting a Hopf algebra hit-act on its own dual."""
    n = h.dim
    form = regroup(identity_map(h.field, n), (n,), (n,), (), (0, 1))
    return PairingData(h, dual_hopf(h), form)


def coset_function_subspace(field, g, subgroup_indices):
    """Span of the indicator functions of the right cosets of a subgroup,
    inside the function algebra's coefficient space.  These are exactly the
    functions constant on each right coset."""
    n = g.order
    rows = []
    for coset in g.right_cosets(subgroup_indices):
        rows.append(tuple(field.one if i in coset else field.zero for i in range(n)))
    return Subspace.from_vectors(field, n, rows)


def subgroup_table(g, indices):
    """A subgroup of a group table as a group table of its own, on the
    sorted member indices."""
    ms = sorted(set(indices))
    if not g.is_subgroup(ms):
        raise ValueError("indices do not form a subgroup")
    pos = {gi: r for r, gi in enumerate(ms)}
    return FiniteGroupTable([g.labels[i] for i in ms],
                            [[pos[g.mul(i, j)] for j in ms] for i in ms])


def subgroup_data(field, g, indices):
    """Both sides of the correspondence attached to a subgroup M of G inside
    the function algebra: the coideal subalgebra of functions constant on
    right cosets of M, and the quotient module coalgebra of functions on M
    under restriction.  Returns (hopf, subalgebra, quotient), certified."""
    from .certs import VerificationFailed
    from .correspondence import quotient_data, verify_coideal_subalgebra

    sub = subgroup_table(g, indices)
    ms = sorted(set(indices))
    kf = function_algebra(field, g)
    a = verify_coideal_subalgebra(
        kf, coset_function_subspace(field, g, ms),
        name=f"functions constant on cosets of order-{sub.order} subgroup")
    if not a.ok:
        raise VerificationFailed(a.report)
    b = function_algebra(field, sub).coalgebra
    n, m = g.order, sub.order
    pi = LinMap(field, m, n, {(r, ms[r]): field.one for r in range(m)})
    sect = LinMap(field, n, m, {(ms[r], r): field.one for r in range(m)})
    sigma = pi @ after_leg(kf.mult, n, sect, 1)
    q = quotient_data(kf, b, pi, sigma, section=sect,
                      name=f"functions on order-{sub.order} subgroup")
    return kf, a, q


# -- the four-dimensional instance and its relatives --------------------

def _taft_label(a, b):
    ga = "" if a == 0 else ("g" if a == 1 else f"g{a}")
    xb = "" if b == 0 else ("x" if b == 1 else f"x{b}")
    return (ga + xb) or "1"


def _primitive_root(field, n):
    """Smallest primitive n-th root of unity in a prime field, or None."""
    for cand in range(1, field.char):
        q = field.from_int(cand)
        ok = True
        acc = field.one
        for k in range(1, n):
            acc = field.mul(acc, q)
            if acc == field.one:
                ok = False
                break
        if ok and field.mul(acc, q) == field.one:
            return q
    return None


def taft(n, field=QQ, q=None):
    """Hopf algebra of dimension n^2 on a grouplike of order n and a skew
    primitive, with commutation rule x g = q g x for a primitive n-th root
    of unity q.  For n = 2 over the rationals q = -1, recovering the
    four-dimensional instance."""
    if n < 2:
        raise ValueError("need n >= 2")
    if q is None:
        if field.char == 0:
            if n != 2:
                raise ValueError("the rationals only contain a primitive root for n = 2")
            q = field.from_int(-1)
        else:
            q = _primitive_root(field, n)
            if q is None:
                raise ValueError(f"{field.name} has no primitive {n}-th root of unity")
    acc = field.one
    for k in range(1, n):
        acc = field.mul(acc, q)
        if acc == field.one:
            raise ValueError(f"q = {field.fmt(q)} is not a primitive {n}-th root of unity")
    if field.mul(acc, q) != field.one:
        raise ValueError(f"q = {field.fmt(q)} is not an n-th root of unity")

    d = n * n
    labels = tuple(_taft_label(a, b) for a in range(n) for b in range(n))
    qpow = [field.one]
    for _ in range(n * n):
        qpow.append(field.mul(qpow[-1], q))

    def prod_fn(i, j):
        a, b = divmod(i, n)
        c, dd = divmod(j, n)
        if b + dd >= n:
            return {}
        return {((a + c) % n) * n + (b + dd): qpow[b * c]}

    unit_vec = tuple(field.one if i == 0 else field.zero for i in range(d))
    alg = AlgebraData.from_products(field, d, prod_fn, unit_vec, labels)

    # prod[i*d + j]: [(k, coeff)] for e_i e_j
    prod = alg.mult.sparse_columns()

    # comultiplication by powering Delta(g) and Delta(x) inside H (x) H
    def tensor_product(u, v):
        out = {}
        for (i1, j1), c1 in u.items():
            for (i2, j2), c2 in v.items():
                c12 = field.mul(c1, c2)
                for ai, ci in prod[i1 * d + i2]:
                    for bj, cj in prod[j1 * d + j2]:
                        key = (ai, bj)
                        add = field.mul(c12, field.mul(ci, cj))
                        out[key] = field.add(out.get(key, field.zero), add)
        return {k: v for k, v in out.items() if v != field.zero}

    g_idx, x_idx = n, 1  # g = g^1 x^0 at index n, x = g^0 x^1 at index 1
    one_tt = {(0, 0): field.one}
    dg = {(g_idx, g_idx): field.one}
    dx = {(x_idx, 0): field.one, (g_idx, x_idx): field.one}

    def comult_fn(i):
        a, b = divmod(i, n)
        acc_t = dict(one_tt)
        for _ in range(a):
            acc_t = tensor_product(acc_t, dg)
        for _ in range(b):
            acc_t = tensor_product(acc_t, dx)
        return acc_t

    co = CoalgebraData.from_images(
        field, d, comult_fn,
        lambda i: field.one if i % n == 0 else field.zero, labels)

    # antipode: S(g) = g^(n-1), S(x) = -g^(n-1) x, extended antimultiplicatively
    sg, sx = (n - 1) * n, (n - 1) * n + 1

    def times(vec, s, coeff):
        """The sparse vector {k: coeff} vec times coeff e_s."""
        out = {}
        for k, c in vec.items():
            for r, w in prod[k * d + s]:
                out[r] = field.add(out.get(r, field.zero),
                                   field.mul(field.mul(c, coeff), w))
        return out

    ent = {}
    for i in range(d):
        a, b = divmod(i, n)
        # S is antimultiplicative: S(g^a x^b) = S(x)^b * S(g)^a
        vec = {0: field.one}
        for _ in range(b):
            vec = times(vec, sx, field.neg(field.one))
        for _ in range(a):
            vec = times(vec, sg, field.one)
        for r, c in sorted(vec.items()):
            ent[(r, i)] = c
    antipode = LinMap(field, d, d, ent)
    name = f"taft({n}) over {field.name}" if (n, field.char) != (2, 0) else "sweedler4"
    return HopfAlgebraData(alg, co, antipode, name)


def sweedler4():
    """The four-dimensional Hopf algebra over the rationals: basis 1, g, x,
    gx with g*g = 1, x*x = 0, x*g = -g*x, a grouplike g and a skew
    primitive x, antipode of order four."""
    return taft(2, QQ)
