"""Exact linear algebra over QQ and GF(p).

Conventions used by the whole package:

* A LinMap with shape (rows, cols) sends k^cols -> k^rows, acting on column
  vectors; vectors are plain tuples of scalars.
* Tensor legs are flattened index-major: the basis vector e_i (x) e_j of
  V (x) W sits at position i*dim(W) + j.  Both unitors and the associator
  are then literal identities, and f.tensor(g) is the Kronecker product
  with row index i*rows_g + i2, column index j*cols_g + j2.
* A linear map f: V -> W, seen as a vector (for Hom-space computations),
  is flattened entry-major: entry (r, c) sits at position r*cols + c.
* Subspaces are stored in reduced row echelon form with unit pivots and
  rows ordered by pivot column; two subspaces are equal iff their stored
  bases are identical.

A LinMap is stored sparse: a dict keyed by (row, col), with no zeros kept.
Every elimination (rref, kernel_of, image_of, rank, solve, invert,
find_section) runs on one kernel, `_eliminate`, over sparse rows: dicts
{col: scalar} of the nonzeros.  kernel_of, image_of and rank read their
rows straight from a LinMap's entries, and solve, invert and find_section
build their augmented systems sparse; only Subspace rows, which stay
dense tuples, are ever expanded.
"""

from __future__ import annotations

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
    def from_entries(cls, field, rows, cols, triples):
        d = {}
        for r, c, v in triples:
            if (r, c) in d:
                raise ValueError(f"duplicate entry at {(r, c)}")
            d[(r, c)] = v
        return cls(field, rows, cols, d)

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
        """Iterate ((r, c), v) over nonzero entries in row-major order."""
        for key in sorted(self._d):
            yield key, self._d[key]

    def nnz(self):
        return len(self._d)

    def is_zero(self):
        return self.nnz() == 0

    def dense_rows(self):
        z = self.field.zero
        m = [[z] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries():
            m[r][c] = v
        return m

    def row(self, r):
        z = self.field.zero
        out = [z] * self.cols
        for (rr, c), v in self._d.items():
            if rr == r:
                out[c] = v
        return tuple(out)

    def column(self, c):
        return tuple(self.entry(r, c) for r in range(self.rows))

    # -- arithmetic ---------------------------------------------------

    def _binop(self, other, op):
        same_field(self.field, other.field)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        d = dict(self._d)
        f = self.field
        for k, v in other._d.items():
            d[k] = op(d.get(k, f.zero), v)
        return LinMap(f, self.rows, self.cols, d)

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
        return LinMap(self.field, self.cols, self.rows,
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


def swap_map(field, m, n):
    """The flip k^m (x) k^n -> k^n (x) k^m, e_i (x) e_j -> e_j (x) e_i."""
    return LinMap(field, n * m, m * n,
                  {(j * m + i, i * n + j): field.one for i in range(m) for j in range(n)})


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
    """Canonical subspace of k^ambient: RREF basis rows, equality is identity."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field, ambient, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        vecs = list(vectors)
        for i, v in enumerate(vecs):
            if len(v) != ambient:
                raise DimensionMismatchError(
                    f"vector {i} has length {len(v)}, ambient is {ambient}")
        if not vecs:
            return cls(field, ambient, (), ())
        rows, pivots = rref(field, vecs)
        return cls(field, ambient, rows, pivots)

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient):
        rows = [basis_vector(field, ambient, i) for i in range(ambient)]
        return cls(field, ambient, rows, tuple(range(ambient)))

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        """Residual of vec after killing its pivot coordinates (canonical coset rep)."""
        mul, sub = self.field.mul, self.field.sub
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            coeff = v[p]
            if coeff:
                for j in range(p, len(row)):
                    if row[j]:
                        v[j] = sub(v[j], mul(coeff, row[j]))
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

    def contains_subspace(self, other):
        return all(self.contains(r) for r in other.rows)

    def _same_ambient(self, other):
        same_field(self.field, other.field)
        if self.ambient != other.ambient:
            raise DimensionMismatchError(
                f"ambient dimensions {self.ambient} and {other.ambient}")

    def sum_with(self, other):
        self._same_ambient(other)
        return Subspace.from_vectors(self.field, self.ambient, list(self.rows) + list(other.rows))

    def intersect(self, other):
        """Zassenhaus-free intersection: solve x*R1 = y*R2 via a kernel."""
        self._same_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient)
        # columns of m: coefficients (x, y); rows: ambient conditions of x*R1 - y*R2 = 0
        f = self.field
        d1, d2 = self.dim, other.dim
        entries = {}
        for i, r in enumerate(self.rows):
            for j, v in enumerate(r):
                if v != f.zero:
                    entries[(j, i)] = v
        for i, r in enumerate(other.rows):
            for j, v in enumerate(r):
                if v != f.zero:
                    entries[(j, d1 + i)] = f.neg(v)
        m = LinMap(f, self.ambient, d1 + d2, entries)
        ker = kernel_of(m)
        vecs = []
        for coeffs in ker.rows:
            v = [f.zero] * self.ambient
            for i, r in enumerate(self.rows):
                if coeffs[i] != f.zero:
                    v = [f.add(x, f.mul(coeffs[i], y)) for x, y in zip(v, r)]
            vecs.append(tuple(v))
        return Subspace.from_vectors(f, self.ambient, vecs)

    def basis_map(self):
        """LinMap k^dim -> k^ambient whose columns are the canonical basis rows."""
        f = self.field
        entries = {}
        for j, row in enumerate(self.rows):
            for i, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return LinMap(f, self.ambient, self.dim, entries)

    def coords_map(self):
        """LinMap k^ambient -> k^dim: coordinates on the canonical basis.

        Only meaningful on members; on a general vector it reads off pivot
        coordinates (a retraction of basis_map).
        """
        f = self.field
        # coords are pivot coordinates of the RREF basis: coeff_i = v[pivot_i]
        # after eliminating previous pivots; since rows are RREF, reading the
        # pivot entries directly is exact for members.
        entries = {}
        for i, p in enumerate(self.pivots):
            entries[(i, p)] = f.one
        return LinMap(f, self.dim, self.ambient, entries)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field and self.ambient == other.ambient
                and self.rows == other.rows)

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
    rows, pivots = _dense(field, _eliminate(field, vecs.values()), f.cols)
    return Subspace(field, f.cols, rows, pivots)


def image_of(f):
    """Column span of a LinMap as a canonical Subspace of k^rows."""
    cols = _row_dicts(f.transpose()).values()
    rows, pivots = _dense(f.field, _eliminate(f.field, cols), f.rows)
    return Subspace(f.field, f.rows, rows, pivots)


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


def left_inverse(m):
    """R with R @ m = id (m injective), or None."""
    field = m.field
    mt = m.transpose()
    cols = []
    for i in range(m.cols):
        y = solve(mt, basis_vector(field, m.cols, i))
        if y is None:
            return None
        cols.append(y)
    ent = {}
    for i, y in enumerate(cols):
        for j, v in enumerate(y):
            if v != field.zero:
                ent[(i, j)] = v
    return LinMap(field, m.cols, m.rows, ent)


# -- spaces of maps ----------------------------------------------------


def map_to_vec(f):
    """Flatten a LinMap entry-major: entry (r, c) -> position r*cols + c."""
    field = f.field
    out = [field.zero] * (f.rows * f.cols)
    for (r, c), v in f.entries():
        out[r * f.cols + c] = v
    return tuple(out)


def vec_to_map(field, rows, cols, vec):
    ent = {}
    for r in range(rows):
        for c in range(cols):
            v = vec[r * cols + c]
            if v != field.zero:
                ent[(r, c)] = v
    return LinMap(field, rows, cols, ent)


def matrix_of_operator(field, in_shape, out_shape, fn):
    """Materialize a linear operator on map spaces.

    fn takes a LinMap of shape in_shape=(rows, cols) and returns one of shape
    out_shape, linearly; the result is the matrix of fn on flattened maps.
    """
    ir, ic = in_shape
    orr, oc = out_shape
    ent = {}
    for r in range(ir):
        for c in range(ic):
            e = LinMap(field, ir, ic, {(r, c): field.one})
            img = fn(e)
            if (img.rows, img.cols) != (orr, oc):
                raise DimensionMismatchError(
                    f"operator gave {img.rows}x{img.cols}, expected {orr}x{oc}")
            col = r * ic + c
            for (rr, cc), v in img.entries():
                ent[(rr * oc + cc, col)] = v
    return LinMap(field, orr * oc, ir * ic, ent)

