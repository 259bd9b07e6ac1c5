"""Exact linear algebra over QQ and GF(p).

Conventions used by the whole package:

* A LinMap with shape (rows, cols) sends k^cols -> k^rows, acting on column
  vectors; vectors are plain tuples of scalars.
* Tensor legs are flattened index-major: the basis vector e_i (x) e_j of
  V (x) W sits at position i*dim(W) + j.  Both unitors and the associator
  are then literal identities, and f.tensor(g) is the Kronecker product
  with row index i*rows_g + i2, column index j*cols_g + j2.
* A map g on one leg, I_a (x) g (x) I_b, is placed, never built: on_leg
  sends row (i*g.cols + k)*b + j of m to rows (i*g.rows + k2)*b + j, and
  after_leg sends column (i*g.rows + k2)*b + j of m to columns
  (i*g.cols + k)*b + j, each summing over the terms g[k2][k].  `tensor`
  is for factors that are not identities.
* A leg map wanted as a matrix is placed(a, g, b): entry (k2, k) of g
  goes to row (i*g.rows + k2)*b + j and column (i*g.cols + k)*b + j for
  each i < a and j < b, nothing summed, never on_leg of a built identity.
* Legs move in one place, regroup(m, row_legs, col_legs, rows, cols): the
  rows of m are read as legs of dimensions row_legs and its columns as
  legs of dimensions col_legs, numbered from 0 with the row legs first,
  and the entry at leg indices (x_0, x_1, ...) goes to the row that
  flattens x_k for k in rows and the column that flattens x_k for k in
  cols, each in the order listed (an empty tuple gives one row or one
  column).  A flip, op() and cop(), a dual coaction or a matrix read off
  a flattened vector is a regroup; no permutation matrix is built, and
  no other module decodes a map's keys to rebuild it.
* A swap-and-contract of two maps is `diagonal`, never `tensor` followed
  by placement: it walks their term pairs, so f (x) g is never built, and
  only the pairs that meet a nonzero column of the contracting map (the
  product of functions on a group has d of d^2).
* A linear map f: V -> W, seen as a vector (for Hom-space computations),
  is flattened entry-major: entry (r, c) sits at position r*cols + c.
  Operators on such maps are placed from entries, never built by applying
  them to each elementary map: X |-> g o X on maps with `cols` columns is
  placed(1, g, cols), and X |-> X o h on maps with `rows` rows is
  placed(rows, h^T, 1).  on_leg_operator places
  X |-> (I_a (x) X (x) I_b) o m for X of shape rows x dv: entry
  m[(i*dv + k)*b + j, c] goes to row ((i*rows + r)*b + j)*m.cols + c,
  column r*dv + k, for each r < rows.
* A Subspace is stored as the reduced row echelon basis that `_eliminate`
  returns, {pivot col: {col: scalar}}: unit pivots, every row zero at the
  other pivots, only nonzeros kept.  It never changes after construction,
  and two subspaces are equal iff their stored bases are identical.
  `Subspace.rows` is a dense view built on each access: tuples in pivot
  order, for callers that need vectors.
* Restricting a map to a subspace S, or to k^a (x) S (x) k^b on a tensor
  leg, goes through one method, Subspace.factor(m, a, b): it returns the
  coordinates of the map's columns and whether every column is a member,
  so membership and coordinates come from one path, and the leg span is
  never built.  The coordinates are m's pivot rows, where the lift back
  agrees with m by construction, so membership compares the non-pivot
  rows only.

A LinMap is stored sparse: a dict keyed by (row, col), with no zeros kept.
Every elimination (Subspace.from_vectors and sum_with, kernel_of,
image_of, rank, solve, invert, find_section, rref) runs on one kernel,
`_eliminate`, over sparse rows: dicts {col: scalar} of the nonzeros.
Its result is a Subspace's stored basis as it is; only `rref`, whose
callers pass and get row lists, and the `rows` view expand it to dense
tuples.
"""

from __future__ import annotations

from math import prod
from operator import itemgetter

from .fields import same_field

# the value of an (index, value) pair: filters the nonzeros of enumerate(row)
_value = itemgetter(1)


class DimensionMismatchError(ValueError):
    pass


class LinMap:
    """Exact matrix k^cols -> k^rows, stored sparse."""

    __slots__ = ("field", "rows", "cols", "_d")

    def __init__(self, field, rows, cols, entries):
        # entries: dict {(r, c): scalar}; zeros are dropped here
        self.field = field
        self.rows = rows
        self.cols = cols
        d = {k: v for k, v in entries.items() if v}
        for r, c in d:
            if not (0 <= r < rows and 0 <= c < cols):
                raise DimensionMismatchError(f"entry {(r, c)} outside {rows}x{cols}")
        self._d = d

    # -- construction -------------------------------------------------

    @classmethod
    def _trusted(cls, field, rows, cols, d):
        """A LinMap on d as it is, for results whose entries are nonzero and
        in range by construction; public construction checks both."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m._d = d
        return m

    @classmethod
    def from_rows(cls, field, mat):
        rows = len(mat)
        cols = len(mat[0]) if rows else 0
        d = {}
        for r, row in enumerate(mat):
            if len(row) != cols:
                raise DimensionMismatchError(
                    f"row {r} has length {len(row)}, row 0 has {cols}")
            for c, v in enumerate(row):
                if v != field.zero:
                    d[(r, c)] = v
        return cls(field, rows, cols, d)

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols, {})

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, {(i, i): field.one for i in range(n)})

    @classmethod
    def from_column(cls, field, vec):
        return cls(field, len(vec), 1, {(i, 0): v for i, v in enumerate(vec) if v != field.zero})

    @classmethod
    def from_row(cls, field, vec):
        return cls(field, 1, len(vec), {(0, j): v for j, v in enumerate(vec) if v != field.zero})

    # -- accessors ----------------------------------------------------

    def entry(self, r, c):
        return self._d.get((r, c), self.field.zero)

    def entries(self):
        """The ((r, c), v) pairs of the nonzero entries, in no particular
        order: a caller that needs one sorts them."""
        return self._d.items()

    def nnz(self):
        return len(self._d)

    def is_zero(self):
        return self.nnz() == 0

    def column(self, c):
        return tuple(self.entry(r, c) for r in range(self.rows))

    def sparse_columns(self):
        """Every column as a list of (row, value) over its nonzeros, rows
        ascending; the list at index c is column c."""
        out = [[] for _ in range(self.cols)]
        for (r, c), v in self._d.items():
            out[c].append((r, v))
        # the rows of a column are distinct, so no two values are compared
        for col in out:
            col.sort()
        return out

    # -- arithmetic ---------------------------------------------------

    def _binop(self, other, op):
        same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        d = dict(self._d)
        f = self.field
        zero = f.zero
        for k, v in other._d.items():
            # op(0, v) is nonzero, so a zero sum is of a key d holds
            s = op(d.get(k, zero), v)
            if s:
                d[k] = s
            else:
                del d[k]
        return LinMap._trusted(f, self.rows, self.cols, d)

    def __add__(self, other):
        return self._binop(other, self.field.add)

    def __sub__(self, other):
        return self._binop(other, self.field.sub)

    def __neg__(self):
        f = self.field
        return LinMap(f, self.rows, self.cols, {k: f.neg(v) for k, v in self._d.items()})

    def scale(self, scalar):
        f = self.field
        if scalar == f.zero:
            return LinMap.zero(f, self.rows, self.cols)
        return LinMap(f, self.rows, self.cols, {k: f.mul(scalar, v) for k, v in self._d.items()})

    def __matmul__(self, other):
        """Composition self o other (apply other first)."""
        same_field(self.field, other.field)
        if self.cols != other.rows:
            raise DimensionMismatchError(f"compose {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        f = self.field
        # index other's entries by row
        by_row = {}
        for (r, c), v in other._d.items():
            by_row.setdefault(r, []).append((c, v))
        mul, add = f.mul, f.add
        out = {}
        for (r, k), v in self._d.items():
            for c, w in by_row.get(k, ()):
                key = (r, c)
                cur = out.get(key)
                if cur is None:
                    out[key] = mul(v, w)
                else:
                    s = add(cur, mul(v, w))
                    if s:
                        out[key] = s
                    else:
                        del out[key]
        return LinMap._trusted(f, self.rows, other.cols, out)

    def apply(self, vec):
        if len(vec) != self.cols:
            raise DimensionMismatchError(f"apply {self.rows}x{self.cols} to vector of length {len(vec)}")
        f = self.field
        out = [f.zero] * self.rows
        for (r, c), v in self._d.items():
            w = vec[c]
            if w:
                out[r] = f.add(out[r], f.mul(v, w))
        return tuple(out)

    def transpose(self):
        return LinMap._trusted(self.field, self.cols, self.rows,
                               {(c, r): v for (r, c), v in self._d.items()})

    def tensor(self, other):
        """Kronecker product; see the module docstring for index flattening."""
        same_field(self.field, other.field)
        f = self.field
        out = {}
        for (i, j), v in self._d.items():
            for (i2, j2), w in other._d.items():
                out[(i * other.rows + i2, j * other.cols + j2)] = f.mul(v, w)
        # a product of nonzeros is nonzero
        return LinMap._trusted(f, self.rows * other.rows,
                               self.cols * other.cols, out)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self._d == other._d)

    def __repr__(self):
        return f"LinMap({self.field}, {self.rows}x{self.cols}, nnz={self.nnz()})"


def on_leg(a, g, b, m):
    """(I_a (x) g (x) I_b) o m, with no Kronecker product built: row r of m
    splits as r = (i*g.cols + k)*b + j, and each term w of g's column k adds
    w * m[r][c] at row (i*g.rows + k2)*b + j, k2 the term's row.  For m an
    identity, the leg map itself, use placed(a, g, b)."""
    same_field(g.field, m.field)
    if m.rows != a * g.cols * b:
        raise DimensionMismatchError(
            f"I_{a} (x) {g.rows}x{g.cols} (x) I_{b} before {m.rows}x{m.cols}")
    f = g.field
    mul, add = f.mul, f.add
    gc, gr = g.cols, g.rows
    col = {}
    for (k2, k), w in g._d.items():
        col.setdefault(k, []).append((k2, w))
    out = {}
    for (r, c), v in m._d.items():
        q, j = divmod(r, b)
        i, k = divmod(q, gc)
        base = i * gr
        for k2, w in col.get(k, ()):
            key = ((base + k2) * b + j, c)
            cur = out.get(key)
            if cur is None:
                out[key] = mul(w, v)
            else:
                s = add(cur, mul(w, v))
                if s:
                    out[key] = s
                else:
                    del out[key]
    return LinMap._trusted(f, a * gr * b, m.cols, out)


def diagonal(f, dx, g, dy, mu):
    """(I (x) I (x) mu) o (I (x) flip (x) I) o (f (x) g) for f: S -> X (x) C,
    g: T -> Y (x) D, mu: C (x) D -> E, dx = dim X and dy = dim Y, never
    building f (x) g: each term x (x) c of f(e_s) meets only the nonzero
    columns c*dim D + d of mu, and for each of them the terms y (x) d of
    g(e_t), over every t."""
    k = same_field(f.field, same_field(g.field, mu.field))
    # an empty X or Y leg leaves no rows, so no term to walk
    dc, dd = f.rows // (dx or 1), g.rows // (dy or 1)
    if (dx * dc, dy * dd) != (f.rows, g.rows) or (dx * dy and dc * dd != mu.cols):
        raise DimensionMismatchError(f"contract by {mu.rows}x{mu.cols}: "
                                     f"{f.rows}x{f.cols} over {dx}, {g.rows}x{g.cols} over {dy}")
    de, gc = mu.rows, g.cols
    # the nonzero columns of mu by their C index, as (d, terms) pairs
    mu_at = [[] for _ in range(dc)]
    if dx * dy:
        for cd, col in enumerate(mu.sparse_columns()):
            if col:
                c, d = divmod(cd, dd)
                mu_at[c].append((d, col))
    # the terms of g by their D index, as (t, y, value)
    g_at = [[] for _ in range(dd)]
    for (r, t), u in g._d.items():
        y, d = divmod(r, dd)
        g_at[d].append((t, y, u))
    mul, add, zero = k.mul, k.add, k.zero
    out = {}
    for (r, s), v in f._d.items():
        x, c = divmod(r, dc)
        for d, col in mu_at[c]:
            for t, y, u in g_at[d]:
                vu, row, sc = mul(v, u), (x * dy + y) * de, s * gc + t
                for e, w in col:
                    key = (row + e, sc)
                    out[key] = add(out.get(key, zero), mul(vu, w))
    # the constructor drops the sums that cancelled
    return LinMap(k, dx * dy * de, f.cols * gc, out)


def after_leg(m, a, g, b):
    """m o (I_a (x) g (x) I_b), with no Kronecker product built: column c of
    m splits as c = (i*g.rows + k2)*b + j, and each term w of g's row k2
    adds m[r][c] * w at column (i*g.cols + k)*b + j, k the term's column."""
    if m.cols != a * g.rows * b:
        raise DimensionMismatchError(
            f"{m.rows}x{m.cols} after I_{a} (x) {g.rows}x{g.cols} (x) I_{b}")
    f = same_field(g.field, m.field)
    mul, add = f.mul, f.add
    gc, gr = g.cols, g.rows
    row = {}
    for (k2, k), w in g._d.items():
        row.setdefault(k2, []).append((k, w))
    out = {}
    for (r, c), v in m._d.items():
        q, j = divmod(c, b)
        i, k2 = divmod(q, gr)
        base = i * gc
        for k, w in row.get(k2, ()):
            key = (r, (base + k) * b + j)
            cur = out.get(key)
            if cur is None:
                out[key] = mul(w, v)
            else:
                s = add(cur, mul(w, v))
                if s:
                    out[key] = s
                else:
                    del out[key]
    return LinMap._trusted(f, m.rows, a * gc * b, out)


def placed(a, g, b):
    """I_a (x) g (x) I_b, entry by entry: entry (k2, k) of g goes to row
    (i*g.rows + k2)*b + j and column (i*g.cols + k)*b + j, for each i < a
    and j < b.  Nothing is summed or multiplied."""
    gr, gc = g.rows, g.cols
    out = {}
    for i in range(a):
        for (k2, k), w in g._d.items():
            r, c = (i * gr + k2) * b, (i * gc + k) * b
            for j in range(b):
                out[(r + j, c + j)] = w
    return LinMap._trusted(g.field, a * gr * b, a * gc * b, out)


def on_leg_operator(a, rows, b, m):
    """The matrix of X |-> on_leg(a, X, b, m) on maps X with `rows` rows,
    flattened entry-major as in the module docstring.  Each entry of m is
    placed once per row of X; no two land on the same position."""
    dv, rem = divmod(m.rows, a * b)
    if rem:
        raise DimensionMismatchError(
            f"I_{a} (x) X (x) I_{b} before {m.rows}x{m.cols}")
    cols = m.cols
    out = {}
    for (row, c), v in m._d.items():
        q, j = divmod(row, b)
        i, k = divmod(q, dv)
        for r in range(rows):
            out[(((i * rows + r) * b + j) * cols + c, r * dv + k)] = v
    return LinMap._trusted(m.field, a * rows * b * cols, rows * dv, out)


def regroup(m, row_legs, col_legs, rows, cols):
    """m with its tensor legs moved, as in the module docstring: legs are
    numbered from 0, row_legs first, and the result's rows and columns are
    the legs listed in rows and cols.  Entries move and are never summed."""
    legs = row_legs + col_legs
    if (prod(row_legs), prod(col_legs)) != (m.rows, m.cols) \
            or sorted(rows + cols) != list(range(len(legs))):
        raise DimensionMismatchError(
            f"{m.rows}x{m.cols} as legs {row_legs} x {col_legs} "
            f"regrouped to {rows} x {cols}")
    # each leg's step in the result's row and column index
    step = {}
    for group, (ur, uc) in ((rows, (1, 0)), (cols, (0, 1))):
        s = 1
        for k in reversed(group):
            step[k] = (s * ur, s * uc)
            s *= legs[k]
    # the (row, col) of the result that each row, and each column, of m adds
    tabs = []
    for first, dims in ((0, row_legs), (len(row_legs), col_legs)):
        tab = [(0, 0)]
        for k, dk in enumerate(dims, first):
            sr, sc = step[k]
            tab = [(r + x * sr, c + x * sc) for r, c in tab for x in range(dk)]
        tabs.append(tab)
    rt, ct = tabs
    out = {}
    for (r, c), v in m._d.items():
        (r1, c1), (r2, c2) = rt[r], ct[c]
        out[(r1 + r2, c1 + c2)] = v
    return LinMap._trusted(m.field, prod(legs[k] for k in rows),
                           prod(legs[k] for k in cols), out)


def identity_map(field, n):
    return LinMap.identity(field, n)


def basis_vector(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return tuple(v)


# -- row reduction ----------------------------------------------------


def _eliminate(field, rows):
    """The one elimination kernel: RREF of the span of sparse rows.

    rows: an iterable of {col: scalar} dicts holding only nonzeros; the
    kernel may change them.  Returns {pivot col: row dict} with row[pivot]
    equal to field.one and every other row zero at that column.  Each
    incoming row is reduced by the pivot rows whose pivot columns it
    touches; what is left of it, scaled so its leftmost entry is one,
    becomes a new pivot row, and that column is cleared from the earlier
    pivot rows, found through an index from each non-pivot column to the
    pivot rows nonzero there.  The basis is fully reduced after every row,
    and RREF is unique, so the result does not depend on the order of the
    rows.  Scalars are tested for zero by truthiness (exact for the int and
    Fraction scalars of QQ and for canonical GF(p) ints).

    rows may be a generator: each row is drawn after the one before it is
    reduced.  A row already in the span is left empty, and a row that
    enlarges it never is, so the generator can tell from the dict it last
    yielded whether the span grew, and choose its next row by that.
    """
    mul, sub, one, zero = field.mul, field.sub, field.one, field.zero
    basis = {}
    # non-pivot column -> the pivots whose rows are nonzero there
    holders = {}
    for row in rows:
        if basis:
            for c in basis.keys() & row.keys():
                a = row[c]
                for j, x in basis[c].items():
                    z = sub(row.get(j, zero), mul(a, x))
                    if z:
                        row[j] = z
                    else:
                        del row[j]
        if not row:
            continue
        p = min(row)
        pv = row.pop(p)
        if pv != one:
            inv = field.inv(pv)
            for j in row:
                row[j] = mul(inv, row[j])
        for j in row:
            h = holders.get(j)
            if h is None:
                holders[j] = {p}
            else:
                h.add(p)
        for qp in holders.pop(p, ()):
            q = basis[qp]
            a = q.pop(p)
            for j, x in row.items():
                y = q.get(j)
                if y is None:
                    q[j] = sub(zero, mul(a, x))
                    holders[j].add(qp)
                else:
                    z = sub(y, mul(a, x))
                    if z:
                        q[j] = z
                    else:
                        del q[j]
                        holders[j].discard(qp)
        row[p] = one
        basis[p] = row
    return basis


def _row_dicts(f):
    """The nonzero rows of a LinMap as {row: {col: scalar}}."""
    rows = {}
    for (r, c), v in f._d.items():
        d = rows.get(r)
        if d is None:
            rows[r] = {c: v}
        else:
            d[c] = v
    return rows


def _dense(field, basis, n):
    """The rows of an eliminated basis as dense tuples of length n, ordered
    by pivot column, and the pivots."""
    zero = field.zero
    pivots = sorted(basis)
    out = []
    for p in pivots:
        t = [zero] * n
        for j, x in basis[p].items():
            t[j] = x
        out.append(tuple(t))
    return out, tuple(pivots)


def rref(field, mat):
    """Reduced row echelon form of a list of row lists.

    Returns (rows, pivots): unit pivots, zeros above and below, rows ordered
    by pivot column, zero rows dropped.  The rows go through the sparse
    kernel `_eliminate`; RREF is unique, so the output is deterministic.
    """
    ncols = len(mat[0]) if mat else 0
    return _dense(field, _eliminate(
        field, [dict(filter(_value, enumerate(r))) for r in mat]), ncols)


class Subspace:
    """Canonical subspace of k^ambient: its RREF basis, equality is identity.

    The basis is stored as `_eliminate` returns it, {pivot: {col: value}},
    and never changes after construction."""

    __slots__ = ("field", "ambient", "pivots", "_basis")

    def __init__(self, field, ambient, basis):
        self.field = field
        self.ambient = ambient
        self.pivots = tuple(sorted(basis))
        self._basis = basis

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        vecs = list(vectors)
        for i, v in enumerate(vecs):
            if len(v) != ambient:
                raise DimensionMismatchError(
                    f"vector {i} has length {len(v)}, ambient is {ambient}")
        return cls(field, ambient, _eliminate(
            field, [dict(filter(_value, enumerate(v))) for v in vecs]))

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, {})

    @classmethod
    def full(cls, field, ambient):
        return cls(field, ambient, {i: {i: field.one} for i in range(ambient)})

    @property
    def dim(self):
        return len(self._basis)

    @property
    def rows(self):
        """The basis as dense tuples in pivot order, built on each access."""
        return tuple(_dense(self.field, self._basis, self.ambient)[0])

    def reduce(self, vec):
        """Residual of vec after killing its pivot coordinates (canonical coset rep)."""
        if len(vec) != self.ambient:
            raise DimensionMismatchError(
                f"vector of length {len(vec)}, ambient is {self.ambient}")
        mul, sub = self.field.mul, self.field.sub
        v = list(vec)
        # each row is zero at the other pivots, so the order does not matter
        for p, row in self._basis.items():
            coeff = v[p]
            if coeff:
                for j, x in row.items():
                    v[j] = sub(v[j], mul(coeff, x))
        return tuple(v)

    def coords(self, vec):
        """Coefficients of vec on the canonical basis, or None if not a member.

        The rows are in RREF, so row i is the only one nonzero at pivot i:
        a member's coefficients are its pivot entries.
        """
        if any(self.reduce(vec)):
            return None
        return tuple(vec[p] for p in self.pivots)

    def contains(self, vec):
        return self.coords(vec) is not None

    def factor(self, m, a=1, b=1):
        """Factor a LinMap m: k^n -> k^a (x) k^ambient (x) k^b through
        k^a (x) S (x) k^b, the legs read as in on_leg; that space is never
        built.

        Returns (X, lands) with X = on_leg(a, coords_map(), b, m), and
        lands true exactly when on_leg(a, basis_map(), b, X) == m, that
        is, when every column of m is a member; X is then the unique such
        map.  Callers that report a failed check may still read X.

        X is read off the pivot rows of m.  The lift of X agrees with m
        there by construction, since each basis row is one at its own
        pivot and zero at the others, so lands compares the other rows
        only: the lift of X through the basis rows' non-pivot entries
        against what m has on the non-pivot rows.  Every entry of that
        lift is on a non-pivot row, so it equals m there when it has as
        many entries and each is m's; no copy of m's rows is made.
        """
        same_field(self.field, m.field)
        n, dim, pivots = self.ambient, self.dim, self.pivots
        if m.rows != a * n * b:
            raise DimensionMismatchError(
                f"I_{a} (x) {dim}x{n} (x) I_{b} before {m.rows}x{m.cols}")
        at = {p: k for k, p in enumerate(pivots)}
        x, rest = {}, 0
        for (row, c), v in m._d.items():
            q, j = divmod(row, b)
            i, r = divmod(q, n)
            k = at.get(r)
            if k is None:
                rest += 1
            else:
                x[((i * dim + k) * b + j, c)] = v
        x = LinMap._trusted(self.field, a * dim * b, m.cols, x)
        off = LinMap._trusted(self.field, n, dim, {
            (r, k): v for k, p in enumerate(pivots)
            for r, v in self._basis[p].items() if r != p})
        lift = on_leg(a, off, b, x)._d
        get = m._d.get
        return x, len(lift) == rest and all(
            get(key) == v for key, v in lift.items())

    def _same_ambient(self, other):
        same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise DimensionMismatchError(
                f"ambient dimensions {self.ambient} and {other.ambient}")

    def sum_with(self, other):
        """U + W.  The kernel changes the rows it is given and a Subspace's
        must not change, so it gets copies; U's rows are already reduced
        against each other, so only W's need reducing."""
        self._same_ambient(other)
        return Subspace(self.field, self.ambient, _eliminate(
            self.field, [dict(r) for s in (self, other) for r in s._basis.values()]))

    def intersect(self, other):
        """U meet W: each (x, y) in the kernel of [B_U | B_W] gives the
        vector B_U x = -B_W y of both."""
        self._same_ambient(other)
        f, n, d = self.field, self.ambient, self.dim
        cols = d + other.dim
        bu = self.basis_map()._d
        pair = {(i, d + j): x for (i, j), x in other.basis_map()._d.items()}
        pair.update(bu)
        ker = kernel_of(LinMap._trusted(f, n, cols, pair))
        # [B_U | 0] sends each kernel vector (x, y) to B_U x
        return image_of(LinMap._trusted(f, n, cols, bu) @ ker.basis_map())

    def basis_map(self):
        """LinMap k^dim -> k^ambient whose columns are the canonical basis rows."""
        return LinMap._trusted(self.field, self.ambient, self.dim, {
            (i, j): x for j, p in enumerate(self.pivots)
            for i, x in self._basis[p].items()})

    def coords_map(self):
        """LinMap k^ambient -> k^dim: coordinates on the canonical basis.

        Only meaningful on members; on a general vector it reads off pivot
        coordinates (a retraction of basis_map).
        """
        one = self.field.one
        return LinMap._trusted(self.field, self.dim, self.ambient,
                               {(i, p): one for i, p in enumerate(self.pivots)})

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self._basis == other._basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient} over {self.field})"


def kernel_of(f):
    """Kernel of a LinMap as a canonical Subspace of k^cols."""
    field = f.field
    basis = _eliminate(field, _row_dicts(f).values())
    # x_fc = 1 on a free column fc forces x_p = -row_p[fc] on each pivot p
    one, neg = field.one, field.neg
    vecs = {fc: {fc: one} for fc in range(f.cols) if fc not in basis}
    for p, row in basis.items():
        for j, x in row.items():
            if j != p:
                vecs[j][p] = neg(x)
    return Subspace(field, f.cols, _eliminate(field, vecs.values()))


def image_of(f):
    """Column span of a LinMap as a canonical Subspace of k^rows."""
    cols = _row_dicts(f.transpose()).values()
    return Subspace(f.field, f.rows, _eliminate(f.field, cols))


def rank(f):
    return len(_eliminate(f.field, _row_dicts(f).values()))


def solve(f, target):
    """One exact solution x of f x = target, or None if inconsistent."""
    field = f.field
    if len(target) != f.rows:
        raise DimensionMismatchError("target length != rows")
    n = f.cols
    rows = _row_dicts(f)
    for r, t in enumerate(target):
        if t:
            rows.setdefault(r, {})[n] = t
    basis = _eliminate(field, rows.values())
    if n in basis:
        return None  # pivot in augmented column: inconsistent
    x = [field.zero] * n
    for p, row in basis.items():
        x[p] = row.get(n, field.zero)
    return tuple(x)


def invert(f):
    """Exact inverse of a square LinMap, or None if singular."""
    if f.rows != f.cols:
        return None
    n = f.rows
    field = f.field
    rows = _row_dicts(f)
    for i in range(n):
        rows.setdefault(i, {})[n + i] = field.one
    basis = _eliminate(field, rows.values())
    if any(p >= n for p in basis):
        return None
    return LinMap._trusted(field, n, n, {
        (i, j - n): x for i, row in basis.items() for j, x in row.items()
        if j >= n})


def find_section(p, constraints=()):
    """Section s of a surjection p: V -> W with p o s = id_W, or None.

    constraints: iterable of (u, v) pairs of LinMaps, u: W -> W, v: V -> V,
    each imposing the intertwining condition s o u = v o s (this is how
    module-linearity of a splitting is phrased).  The first solution of the
    echelonized affine system is returned (free variables set to zero), so
    the output is deterministic.
    """
    field = p.field
    nV, nW = p.cols, p.rows
    nunk = nV * nW  # s entries, s[r][c] at r*nW + c; column nunk is the rhs
    zero, sub = field.zero, field.sub
    rows = []
    # p o s = id_W: sum_k p[i][k] s[k][j] = delta_ij
    p_rows = _row_dicts(p)
    for i in range(nW):
        pi = p_rows.get(i, {})
        for j in range(nW):
            row = {k * nW + j: v for k, v in pi.items()}
            if i == j:
                row[nunk] = field.one
            rows.append(row)
    # s o u = v o s: sum_k s[r][k] u[k][c] - sum_k v[r][k] s[k][c] = 0
    for u, v in constraints:
        if not (u.rows == u.cols == nW and v.rows == v.cols == nV):
            raise DimensionMismatchError(
                f"constraint ({u.rows}x{u.cols}, {v.rows}x{v.cols}) must be "
                f"({nW}x{nW}, {nV}x{nV})")
        u_cols = _row_dicts(u.transpose())
        v_rows = _row_dicts(v)
        for r in range(nV):
            vr = v_rows.get(r, {})
            for c in range(nW):
                row = {r * nW + k: x for k, x in u_cols.get(c, {}).items()}
                for k, x in vr.items():
                    key = k * nW + c
                    z = sub(row.get(key, zero), x)
                    if z:
                        row[key] = z
                    else:
                        del row[key]
                rows.append(row)
    basis = _eliminate(field, rows)
    if nunk in basis:
        return None
    ent = {}
    for piv, row in basis.items():
        x = row.get(nunk)
        if x:
            ent[divmod(piv, nW)] = x
    s = LinMap(field, nV, nW, ent)
    if p @ s != LinMap.identity(field, nW):
        raise ValueError("computed section s fails p o s = id")
    return s


def stack_maps(maps):
    """Stack LinMaps vertically (same cols); rows are concatenated in order."""
    maps = list(maps)
    if not maps:
        raise DimensionMismatchError("stack_maps needs at least one map")
    field = maps[0].field
    cols = maps[0].cols
    ent = {}
    off = 0
    for m in maps:
        same_field(field, m.field)
        if m.cols != cols:
            raise DimensionMismatchError(
                f"stacking a map with {m.cols} columns under {cols}")
        for (r, c), v in m.entries():
            ent[(off + r, c)] = v
        off += m.rows
    return LinMap(field, off, cols, ent)
