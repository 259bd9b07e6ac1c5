"""Plain-text interchange files for the workbench objects.

Line-oriented format; '#' starts a comment, blank lines are skipped:

    field Q              rationals, or a prime p for the prime field
    kind hopf            hopf | coalgebra | comodule | subspace | pairing | quotient
    name four-dim        optional display name (rest of the line)
    basis 1 x g gx       labels of the carrier basis
    over de ds           second basis, only where the kind needs one:
                         the coalgebra of a comodule, the target of a
                         quotient, the right factor of a pairing
    map comult           entry block; the block runs to the next directive
    g.g g 1/1            one sparse entry per line: row col value

Row and column keys name one index of the map's matrix: tensor legs are
dot-joined labels, the scalar side of a unit or counit is written "_",
and the spanning vectors of a subspace are numbered from 0 in ASCII
digits, below 2^64 like the characteristic.  Values are
integer or "num/den" strings of ASCII digits, signed only in front, over
either field; the serializer writes "num/den" over the rationals and
canonical integers over a prime field.  Zero entries may be written but
are dropped.

Every label referenced by an entry must be declared, every map must
match the dimensions its kind declares, and parse(serialize(parse(t)))
equals parse(t).  Serialization is canonical: fixed directive order,
entries sorted by matrix position, rationals always written num/den.
"""

from dataclasses import dataclass, field as dc_field

from .fields import GF, QQ, int_token
from .linalg import LinMap, Subspace
from .hopf import AlgebraData, CoalgebraData, HopfAlgebraData
from .repcats import ComoduleData


class SpecParseError(ValueError):
    """Malformed spec text; carries 1-based line and column."""

    def __init__(self, msg, line, col):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


KINDS = ("hopf", "coalgebra", "comodule", "subspace", "pairing", "quotient")

# row-axes, col-axes per map: B carrier basis, O second basis, S scalar,
# N vector number
KIND_MAPS = {
    "hopf": (("mult", ("B",), ("B", "B")),
             ("unit", ("B",), ("S",)),
             ("comult", ("B", "B"), ("B",)),
             ("counit", ("S",), ("B",)),
             ("antipode", ("B",), ("B",))),
    "coalgebra": (("comult", ("B", "B"), ("B",)),
                  ("counit", ("S",), ("B",))),
    "comodule": (("comult", ("O", "O"), ("O",)),
                 ("counit", ("S",), ("O",)),
                 ("coaction", ("B", "O"), ("B",))),
    "subspace": (("vectors", ("N",), ("B",)),),
    "pairing": (("pairing", ("S",), ("B", "O")),),
    "quotient": (("projection", ("O",), ("B",)),),
}

KINDS_WITH_OVER = ("comodule", "pairing", "quotient")


@dataclass
class SpecData:
    """Parsed form of one spec file; maps are exact LinMaps."""

    field: object
    kind: str
    name: str
    basis: tuple
    over: tuple = ()
    maps: dict = dc_field(default_factory=dict)

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, SpecData):
            return NotImplemented
        return (self.field == other.field and self.kind == other.kind
                and self.name == other.name and self.basis == other.basis
                and self.over == other.over and self.maps == other.maps)


def _axis_dims(sd, axes):
    out = []
    for ax in axes:
        if ax == "B":
            out.append(len(sd.basis))
        elif ax == "O":
            out.append(len(sd.over))
        elif ax == "S":
            out.append(1)
        else:
            out.append(None)
    return out


def _check_label(tok, line, col):
    if not tok or "." in tok or "#" in tok or tok == "_":
        raise SpecParseError(f"bad label {tok!r}", line, col)
    return tok


class _Parser:
    def __init__(self, text):
        self.text = text
        self.field = None
        self.kind = None
        self.name = ""
        self.basis = None
        self.over = None
        self.over_pos = (1, 1)
        self.blocks = []

    def fail(self, msg, line, col=1):
        raise SpecParseError(msg, line, col)

    def tokens(self):
        """(line_number, [(col, token), ...]) per meaningful line."""
        for ln, raw in enumerate(self.text.split("\n"), start=1):
            body = raw.split("#", 1)[0]
            toks = []
            col = 0
            i = 0
            while i < len(body):
                if body[i].isspace():
                    i += 1
                    continue
                j = i
                while j < len(body) and not body[j].isspace():
                    j += 1
                toks.append((i + 1, body[i:j]))
                i = j
            if toks:
                yield ln, toks

    def run(self):
        current_block = None
        for ln, toks in self.tokens():
            col0, head = toks[0]
            if head == "map":
                if len(toks) != 2:
                    self.fail("map takes exactly one name", ln, col0)
                if any(b[0] == toks[1][1] for b in self.blocks):
                    self.fail(f"duplicate map {toks[1][1]!r}", ln,
                              toks[1][0])
                current_block = (toks[1][1], ln, toks[1][0], [])
                self.blocks.append(current_block)
                continue
            if head in ("field", "kind", "name", "basis", "over"):
                current_block = None
                self.directive(ln, head, col0, toks[1:])
                continue
            if current_block is None:
                self.fail(f"unknown directive {head!r}", ln, col0)
            current_block[3].append((ln, toks))
        return self.finish()

    def directive(self, ln, head, col0, rest):
        if head == "field":
            if self.field is not None:
                self.fail("field declared twice", ln, col0)
            if len(rest) != 1:
                self.fail("field takes one token", ln, col0)
            col, tok = rest[0]
            if tok == "Q":
                self.field = QQ
            else:
                try:
                    p = int_token(tok, "characteristic")
                    self.field = None if p is None else GF(p)
                except ValueError as e:
                    self.fail(str(e), ln, col)
                if self.field is None:
                    self.fail(f"field must be Q or a prime, got {tok!r}",
                              ln, col)
        elif head == "kind":
            if self.kind is not None:
                self.fail("kind declared twice", ln, col0)
            if len(rest) != 1:
                self.fail("kind takes one token", ln, col0)
            col, tok = rest[0]
            if tok not in KINDS:
                self.fail(f"unknown kind {tok!r}", ln, col)
            self.kind = tok
        elif head == "name":
            self.name = " ".join(t for _, t in rest)
        elif head in ("basis", "over"):
            labels = []
            for c, t in rest:
                lab = _check_label(t, ln, c)
                if lab in labels:
                    self.fail(f"duplicate label {lab!r} in {head}", ln, c)
                labels.append(lab)
            labels = tuple(labels)
            if head == "basis":
                if self.basis is not None:
                    self.fail("basis declared twice", ln, col0)
                self.basis = labels
            else:
                if self.over is not None:
                    self.fail("over declared twice", ln, col0)
                self.over = labels
                self.over_pos = (ln, col0)

    def key_index(self, key, axes, dims, lookup, ln, col):
        if axes == ("S",):
            if key != "_":
                self.fail(f"expected _ for the scalar side, got {key!r}",
                          ln, col)
            return 0
        if axes == ("N",):
            try:
                n = int_token(key, "vector number")
            except ValueError as e:
                self.fail(str(e), ln, col)
            if n is None:
                self.fail(f"vector number expected, got {key!r}", ln, col)
            return n
        parts = key.split(".")
        if len(parts) != len(axes):
            self.fail(f"key {key!r} has {len(parts)} legs, map declares "
                      f"{len(axes)} (dims {'x'.join(str(d) for d in dims)})",
                      ln, col)
        idx = 0
        for ax, d, part in zip(axes, dims, parts):
            table = lookup[ax]
            if part not in table:
                self.fail(f"label {part!r} is not declared in "
                          f"{'basis' if ax == 'B' else 'over'}", ln, col)
            idx = idx * d + table[part]
        return idx

    def finish(self):
        if self.field is None:
            self.fail("missing field declaration", 1)
        if self.kind is None:
            self.fail("missing kind declaration", 1)
        if self.basis is None:
            self.fail("missing basis declaration", 1)
        if self.kind in KINDS_WITH_OVER:
            if self.over is None:
                self.fail(f"kind {self.kind} needs an over declaration", 1)
        elif self.over is not None:
            ln, col = self.over_pos
            self.fail(f"kind {self.kind} does not take an over declaration",
                      ln, col)
        sd = SpecData(self.field, self.kind, self.name, self.basis,
                      self.over or ())
        declared = {m[0]: m for m in KIND_MAPS[self.kind]}
        lookup = {"B": {l: i for i, l in enumerate(sd.basis)},
                  "O": {l: i for i, l in enumerate(sd.over)}}
        seen = set()
        for mname, mline, mcol, lines in self.blocks:
            if mname not in declared:
                self.fail(f"kind {self.kind} has no map {mname!r}",
                          mline, mcol)
            if mname in seen:
                self.fail(f"map {mname} declared twice", mline, mcol)
            seen.add(mname)
            _, raxes, caxes = declared[mname]
            rdims = _axis_dims(sd, raxes)
            cdims = _axis_dims(sd, caxes)
            ent = {}
            nvec = 0
            for ln, toks in lines:
                if len(toks) != 3:
                    self.fail("entries are 'row col value' triples", ln,
                              toks[0][0])
                (rc, rk), (cc, ck), (vc, vt) = toks
                r = self.key_index(rk, raxes, rdims, lookup, ln, rc)
                c = self.key_index(ck, caxes, cdims, lookup, ln, cc)
                try:
                    v = sd.field.parse(vt)
                except (ValueError, ZeroDivisionError):
                    self.fail(f"bad value {vt!r}", ln, vc)
                if raxes == ("N",):
                    nvec = max(nvec, r + 1)
                if v != sd.field.zero:
                    if (r, c) in ent:
                        self.fail(f"duplicate entry at {rk} {ck}", ln, rc)
                    ent[(r, c)] = v
            nrows = nvec if raxes == ("N",) else _prod(rdims)
            ncols = _prod(cdims)
            sd.maps[mname] = LinMap(sd.field, nrows, ncols, ent)
        missing = [m for m in declared if m not in seen]
        if missing:
            self.fail(f"kind {self.kind} is missing map blocks: "
                      + ", ".join(missing), 1)
        return sd


def _prod(dims):
    out = 1
    for d in dims:
        out *= d
    return out


def parse_spec(text):
    return _Parser(text).run()


def load_spec(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as e:
        line = raw[:e.start].count(b"\n") + 1
        col = e.start - (raw.rfind(b"\n", 0, e.start) + 1)
        raise SpecParseError("non-ascii byte", line, col) from None
    return parse_spec(text)


class _IndexKeys(dict):
    """index -> (relabelled index, key text) for the indices of one map
    side, filled on first use: each index is decoded once into its
    per-leg digits, which give both.  legs maps an axis to its labels and
    the new position of each old label position."""

    def __init__(self, axes, legs):
        super().__init__()
        self.numbered = axes == ("N",)
        self.last_first = () if self.numbered else [
            (len(legs[ax][0]), *legs[ax]) for ax in reversed(axes)]

    def __missing__(self, index):
        if self.numbered:
            out = (index, str(index))
        else:
            new, scale, rest, parts = 0, 1, index, []
            for n, labels, pos in self.last_first:
                rest, i = divmod(rest, n)
                new += pos[i] * scale
                scale *= n
                parts.append(labels[i])
            parts.reverse()
            out = (new, ".".join(parts))
        self[index] = out
        return out


def _emit(sd, bsort, osort, name):
    """The spec text of sd with the carrier basis listed in the order bsort
    and the second basis in the order osort (old positions, in their new
    order), under the display name `name`.  The lines of each map are
    sorted by the relabelled matrix position of their entries."""
    f = sd.field
    fmt = (lambda v: f"{v.numerator}/{v.denominator}") if f is QQ else f.fmt
    lines = ["field Q" if f is QQ else f"field {f.p}", f"kind {sd.kind}"]
    if name:
        lines.append(f"name {name}")
    lines.append("basis " + " ".join(sd.basis[i] for i in bsort))
    if sd.kind in KINDS_WITH_OVER:
        lines.append("over " + " ".join(sd.over[i] for i in osort))
    legs = {"S": (("_",), (0,))}
    for ax, labels, order in (("B", sd.basis, bsort), ("O", sd.over, osort)):
        pos = [0] * len(labels)
        for new, old in enumerate(order):
            pos[old] = new
        legs[ax] = (labels, pos)
    keys = {axes: _IndexKeys(axes, legs)
            for _, raxes, caxes in KIND_MAPS[sd.kind] for axes in (raxes, caxes)}
    for mname, raxes, caxes in KIND_MAPS[sd.kind]:
        m = sd.maps[mname]
        rkeys, ckeys, cols = keys[raxes], keys[caxes], m.cols
        out = []
        for (r, c), v in m.entries():
            rk, rt = rkeys[r]
            ck, ct = ckeys[c]
            out.append((rk * cols + ck, f"{rt} {ct} {fmt(v)}"))
        out.sort()
        lines.append(f"map {mname}")
        lines.extend(text for _, text in out)
    return "\n".join(lines) + "\n"


def serialize_spec(sd):
    return _emit(sd, range(len(sd.basis)), range(len(sd.over)), sd.name)


def save_spec(sd, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(serialize_spec(sd))


def canonical_text(sd):
    """Relabeling-invariant text used for content hashing.

    The spec text with both label lists sorted and every structure
    constant listed at its relabelled position, without the display
    name; spanning vectors are first replaced by their reduced row form
    in the sorted coordinates.  Two files describing the same object
    under reordered labels or a different spanning set give the same
    bytes, and the text parses to that object under sorted labels."""
    bsort = sorted(range(len(sd.basis)), key=sd.basis.__getitem__)
    osort = sorted(range(len(sd.over)), key=sd.over.__getitem__)
    if sd.kind == "subspace":
        pos = {old: new for new, old in enumerate(bsort)}
        vec = sd.maps["vectors"]
        span = _vectors_span(sd.field, sd.dim, LinMap(
            sd.field, vec.rows, vec.cols,
            {(r, pos[c]): v for (r, c), v in vec.entries()}))
        sd = SpecData(sd.field, "subspace", "",
                      tuple(sd.basis[i] for i in bsort), (),
                      {"vectors": span.basis_map().transpose()})
        bsort = range(sd.dim)
    return _emit(sd, bsort, osort, "")


# -- package objects from parsed specs ----------------------------------

def _object_error(msg):
    raise SpecParseError(msg, 1, 1)


def to_hopf(sd):
    if sd.kind != "hopf":
        _object_error(f"expected a hopf spec, got kind {sd.kind}")
    alg = AlgebraData(sd.field, sd.dim, sd.maps["mult"], sd.maps["unit"],
                      sd.basis)
    co = CoalgebraData(sd.field, sd.dim, sd.maps["comult"], sd.maps["counit"],
                       sd.basis)
    return HopfAlgebraData(alg, co, sd.maps["antipode"], sd.name)


def to_coalgebra(sd):
    if sd.kind == "hopf":
        return to_hopf(sd).coalgebra
    if sd.kind != "coalgebra":
        _object_error(f"expected a coalgebra spec, got kind {sd.kind}")
    return CoalgebraData(sd.field, sd.dim, sd.maps["comult"],
                         sd.maps["counit"], sd.basis)


def to_comodule(sd):
    if sd.kind != "comodule":
        _object_error(f"expected a comodule spec, got kind {sd.kind}")
    co = CoalgebraData(sd.field, len(sd.over), sd.maps["comult"],
                       sd.maps["counit"], sd.over)
    return ComoduleData(sd.field, sd.dim, sd.maps["coaction"], co, "right",
                        sd.name)


def to_subspace(sd):
    if sd.kind != "subspace":
        _object_error(f"expected a subspace spec, got kind {sd.kind}")
    return _vectors_span(sd.field, sd.dim, sd.maps["vectors"])


def _vectors_span(field, ambient, vectors):
    """The span of the rows of a `vectors` map.  Its row count is the
    largest vector number plus one, so only the nonzero rows are made
    dense: zero rows do not change the span."""
    rows = {}
    for (r, c), v in vectors.entries():
        rows.setdefault(r, [field.zero] * ambient)[c] = v
    return Subspace.from_vectors(field, ambient, list(rows.values()))


# -- parsed specs from package objects ----------------------------------

def spec_from_hopf(h):
    sd = SpecData(h.field, "hopf", h.name, tuple(h.labels))
    sd.maps = {"mult": h.mult, "unit": h.unit, "comult": h.comult,
               "counit": h.counit, "antipode": h.antipode}
    return sd


def spec_from_coalgebra(c, name=""):
    sd = SpecData(c.field, "coalgebra", name, tuple(c.labels))
    sd.maps = {"comult": c.comult, "counit": c.counit}
    return sd


def spec_from_comodule(v, labels=(), name=None):
    if v.side != "right":
        _object_error("comodule files hold right comodules")
    sd = SpecData(v.field, "comodule", v.name if name is None else name,
                  tuple(labels) or _numbered("m", v.dim),
                  tuple(v.over.labels))
    sd.maps = {"comult": v.over.comult, "counit": v.over.counit,
               "coaction": v.coaction}
    return sd


def spec_from_subspace(s, labels, name=""):
    sd = SpecData(s.field, "subspace", name, tuple(labels))
    sd.maps = {"vectors": s.basis_map().transpose()}
    return sd


def spec_from_quotient(q):
    sd = SpecData(q.hopf.field, "quotient", q.name,
                  tuple(q.hopf.labels), tuple(q.coalgebra.labels))
    sd.maps = {"projection": q.projection}
    return sd


def _numbered(stem, n):
    return tuple(f"{stem}{i}" for i in range(n))
