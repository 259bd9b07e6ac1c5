"""Interchange format tests.

Oracles: hand-written files with entries small enough to read off, the
serializer's own documented canonical form, and structural equality of
rebuilt objects against the catalog constructors.  The round-trip laws
parse(serialize(parse(t))) == parse(t) and byte-identity on canonical
text are checked both on the catalog corpus and on random subspace data.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coideals.catalog import (
    canonical_pairing,
    coset_function_subspace,
    cyclic_group,
    function_algebra,
    group_algebra,
    subgroup_data,
    sweedler4,
    symmetric_group_3,
    taft,
)
from coideals.correspondence import (
    quotient_module_coalgebra,
    verify_coideal_subalgebra,
)
from coideals.fields import GF, QQ
from coideals.linalg import LinMap, Subspace, basis_vector
from coideals.hopf import check_hopf_axioms
from coideals.repcats import ComoduleData, check_comodule, regular_comodule
from coideals.report import content_hash
from coideals.specfile import (
    SpecData,
    SpecParseError,
    canonical_text,
    load_spec,
    parse_spec,
    save_spec,
    serialize_spec,
    spec_from_coalgebra,
    spec_from_comodule,
    spec_from_hopf,
    spec_from_quotient,
    spec_from_subspace,
    to_comodule,
    to_hopf,
    to_subspace,
)


def span4(*idxs):
    return Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, i)
                                         for i in idxs])


def pin_specs():
    """One spec of each kind, over QQ and over prime fields; the subspace
    is given by a spanning set that is not reduced."""
    g = symmetric_group_3()
    kf = function_algebra(QQ, g, name="k^S3")
    _, _, q3 = subgroup_data(QQ, g, (0, 3))
    c3 = cyclic_group(3)
    pair = canonical_pairing(group_algebra(GF(5), c3),
                             function_algebra(GF(5), c3))
    n = QQ.from_int
    vectors = LinMap(QQ, 3, 6, {(0, 0): n(1), (0, 3): n(1), (1, 1): n(2),
                                (1, 4): n(-1), (2, 0): n(3), (2, 3): n(3),
                                (2, 5): QQ.parse("1/2")})
    return {
        "hopf": spec_from_hopf(taft(3, GF(7))),
        "coalgebra": spec_from_coalgebra(kf.coalgebra, name="k^S3 coalgebra"),
        "comodule": spec_from_comodule(regular_comodule(sweedler4())),
        "subspace": SpecData(QQ, "subspace", "mixed", kf.labels, (),
                             {"vectors": vectors}),
        "pairing": SpecData(GF(5), "pairing", "C3 evaluation", pair.u.labels,
                            pair.h.labels, {"pairing": pair.form}),
        "quotient": spec_from_quotient(q3),
    }


def reordered(sd):
    """sd written out and loaded again with each label list reordered, odd
    positions first and then the even ones backwards: the same object on a
    permuted basis."""
    lines = []
    for line in serialize_spec(sd).splitlines():
        head, _, rest = line.partition(" ")
        if head in ("basis", "over"):
            labels = rest.split(" ")
            line = " ".join([head] + labels[1::2] + labels[::2][::-1])
        lines.append(line)
    return parse_spec("\n".join(lines) + "\n")


# (content_hash, sha256 of serialize_spec) of reordered(pin_specs()[kind]),
# recorded before the hash and the serializer shared one emitter
HASH_PINS = {
    "hopf": ("6bc01de1ebf824cd1bdc61987868f8983e94d6a67ea84281ed7775280e064c6c",
             "feb20aaa6c27adec7365039deb6679250e6a2278857cce6affbc282235cb6997"),
    "coalgebra": ("bffee485b8b9db946e669bf0c69868765f633014a71ee001cbfced226b0a5caa",
                  "d26fd7e94fed2ec26abcffa7c3eafec7579926acb17bff3491346eef440fd44c"),
    "comodule": ("5eb72c6050baf820ac71ac198fff8f359b8773dd09be111c5701bd63dedc6a84",
                 "bbf6c8e775b627ac306caf632fc4b477d136e9880276b064b4a6d51ff8eb2da1"),
    "subspace": ("09fe37bab8dfefb8c426967775f0639c2443fc421cb2804fb95ca7fb4d1fa10d",
                 "de608c945f037b1fab90bdf848f50a405702c5842e795afa0602a6dd29242010"),
    "pairing": ("7b668cad07e1e1aa4f14c70391ea19d5820ba14766adf2ddfeecc19d8db8076b",
                "2b2455d115a16bab865ec3111459da31f430451f6c85e39b7f74ed5c0117489a"),
    "quotient": ("e842735eb85e037230e89192911d6d19f768b309315555b17fa0cfa4ec65630f",
                 "7ddb31caf1b5c5abab05a64542b130e105bcb655f10f2f3d3ff066226abba7e8"),
}


MINIMAL = """\
field Q
kind coalgebra
name one point
basis e
map comult
e.e e 1/1
map counit
_ e 1
"""


class TestParsing:

    def test_minimal_coalgebra_by_hand(self):
        sd = parse_spec(MINIMAL)
        assert sd.kind == "coalgebra"
        assert sd.name == "one point"
        assert sd.basis == ("e",)
        assert sorted(sd.maps["comult"].entries()) == [((0, 0), QQ.one)]
        assert sorted(sd.maps["counit"].entries()) == [((0, 0), QQ.one)]

    def test_comments_and_blank_lines_are_skipped(self):
        noisy = "# header\n\n" + MINIMAL.replace(
            "map comult", "map comult   # block\n# inside")
        assert parse_spec(noisy) == parse_spec(MINIMAL)

    def test_integer_and_fraction_values_agree(self):
        assert parse_spec(MINIMAL) == parse_spec(
            MINIMAL.replace("_ e 1", "_ e 1/1"))

    def test_prime_field_values(self):
        sd = parse_spec(MINIMAL.replace("field Q", "field 7"))
        assert sd.field == GF(7)
        assert sorted(sd.maps["counit"].entries()) == [((0, 0), GF(7).one)]

    def test_zero_entries_are_dropped(self):
        two = MINIMAL.replace("basis e", "basis e f")
        with_zero = two.replace("e.e e 1/1", "e.e e 1/1\nf.f f 0/1")
        assert parse_spec(with_zero) == parse_spec(two)

    def test_duplicate_entries_are_rejected(self):
        doubled = MINIMAL.replace("e.e e 1/1", "e.e e 1/1\ne.e e 2/1")
        with pytest.raises(SpecParseError) as exc:
            parse_spec(doubled)
        assert "duplicate" in str(exc.value)


class TestParseErrors:

    @pytest.mark.parametrize("mangle,line,col,frag", [
        (lambda t: t.replace("field Q", "field R"), 1, 7, "field"),
        (lambda t: t.replace("kind coalgebra", "kind blob"), 2, 6, "kind"),
        (lambda t: t.replace("basis e", "basis e e"), 4, 9, "duplicate"),
        (lambda t: t.replace("e.e e 1/1", "e.f e 1/1"), 6, 1, "'f'"),
        (lambda t: t.replace("e.e e 1/1", "e.e.e e 1/1"), 6, 1, "legs"),
        (lambda t: t.replace("e.e e 1/1", "e.e e 1/0"), 6, 7, "value"),
        (lambda t: t + "map comult\n", 9, 5, "duplicate map"),
        (lambda t: t + "over x\n", 9, 1, "over"),
    ])
    def test_position_and_message(self, mangle, line, col, frag):
        with pytest.raises(SpecParseError) as exc:
            parse_spec(mangle(MINIMAL))
        assert exc.value.line == line
        assert exc.value.col == col
        assert frag in str(exc.value)

    @pytest.mark.parametrize("tok,frag", [
        ("4", "not a prime: 4"),
        ("3215031751", "not a prime: 3215031751"),
        ("18446744073709551616", "below 2^64"),
    ])
    def test_unusable_characteristic_is_reported_at_the_field_token(
            self, tok, frag):
        with pytest.raises(SpecParseError) as exc:
            parse_spec(MINIMAL.replace("field Q", f"field {tok}"))
        assert (exc.value.line, exc.value.col) == (1, 7)
        assert frag in str(exc.value)

    @pytest.mark.parametrize("tok,frag", [
        ("\u0663", "field must be Q or a prime, got '\u0663'"),
        ("\uff17", "field must be Q or a prime"),
        ("9" * 5000, "characteristic must be below 2^64"),
        ("1" + "0" * 20, "characteristic must be below 2^64"),
    ], ids=["arabic-indic-three", "fullwidth-seven", "5000-digits",
            "21-digits"])
    def test_field_token_takes_ascii_digits_below_the_bound(self, tok, frag):
        with pytest.raises(SpecParseError) as exc:
            parse_spec(MINIMAL.replace("field Q", f"field {tok}"))
        assert (exc.value.line, exc.value.col) == (1, 7)
        assert frag in str(exc.value)
        assert "int_max_str_digits" not in str(exc.value)

    @pytest.mark.parametrize("key,frag", [
        ("\u0663", "vector number expected, got '\u0663'"),
        ("1_0", "vector number expected, got '1_0'"),
        ("9" * 5000, "vector number must be below 2^64, got '999"),
        ("1" + "0" * 24, "vector number must be below 2^64, got '1000"),
    ], ids=["arabic-indic-three", "underscore", "5000-digits", "25-digits"])
    def test_vector_number_takes_ascii_digits_below_the_bound(self, key, frag):
        text = ("field Q\nkind subspace\nbasis a b\nmap vectors\n"
                f"0 a 1/1\n{key} b 1/1\n")
        with pytest.raises(SpecParseError) as exc:
            parse_spec(text)
        assert (exc.value.line, exc.value.col) == (6, 1)
        assert frag in str(exc.value)
        assert "int_max_str_digits" not in str(exc.value)

    def test_vector_numbers_with_leading_zeros_are_their_values(self):
        sd = parse_spec("field Q\nkind subspace\nbasis a b\nmap vectors\n"
                        "0 a 1/1\n001 b 1/1\n")
        assert sd.maps["vectors"].rows == 2

    def test_field_token_with_leading_zeros_is_its_value(self):
        sd = parse_spec(MINIMAL.replace("field Q", "field " + "0" * 30 + "7"))
        assert sd.field == GF(7)

    @pytest.mark.parametrize("value", ["1e5000", "1.5"])
    def test_value_outside_the_grammar_exits_2_at_its_position(
            self, value, tmp_path, capsys):
        from coideals.cli import main
        text = serialize_spec(spec_from_hopf(sweedler4()))
        lines = text.splitlines(keepends=True)
        line = lines.index("_ g 1/1\n") + 1
        lines[line - 1] = f"_ g {value}\n"
        f = tmp_path / "sw4.spec"
        f.write_text("".join(lines))
        assert main(["check", str(f)]) == 2
        err = capsys.readouterr().err
        assert f"line {line}, column 5" in err
        assert f"bad value {value!r}" in err

    def test_missing_map_block_is_reported(self):
        text = MINIMAL.replace("map counit\n_ e 1\n", "")
        with pytest.raises(SpecParseError) as exc:
            parse_spec(text)
        assert "counit" in str(exc.value)

    def test_non_ascii_byte_has_a_position(self, tmp_path):
        p = tmp_path / "bad.spec"
        p.write_bytes(MINIMAL.encode() + "# caf\xc3\xa9\n".encode("latin-1"))
        with pytest.raises(SpecParseError) as exc:
            load_spec(p)
        assert "non-ascii" in str(exc.value)
        assert exc.value.line == 9


def catalog_corpus():
    return [
        ("kC4", group_algebra(QQ, cyclic_group(4), name="kC4")),
        ("k^S3", function_algebra(QQ, symmetric_group_3(), name="k^S3")),
        ("sweedler4", sweedler4()),
        ("taft3", taft(3, GF(7))),
    ]


class TestRoundTrips:

    @pytest.mark.parametrize("nm,h", catalog_corpus(), ids=lambda x: x
                             if isinstance(x, str) else "")
    def test_hopf_round_trip_is_exact_and_canonical(self, nm, h):
        sd = spec_from_hopf(h)
        text = serialize_spec(sd)
        again = parse_spec(text)
        assert again == sd
        assert serialize_spec(again) == text
        rebuilt = to_hopf(again)
        assert check_hopf_axioms(rebuilt).ok
        assert (rebuilt.comult - h.comult).is_zero()
        assert (rebuilt.mult - h.mult).is_zero()

    def test_comodule_round_trip(self):
        h = function_algebra(QQ, symmetric_group_3(), name="k^S3")
        v = regular_comodule(h)
        sd = spec_from_comodule(v, labels=h.labels)
        again = parse_spec(serialize_spec(sd))
        w = to_comodule(again)
        assert check_comodule(w).ok
        assert (w.coaction - v.coaction).is_zero()
        assert (w.over.comult - h.comult).is_zero()

    def test_subspace_round_trip_recovers_the_space(self):
        g = symmetric_group_3()
        kf = function_algebra(QQ, g, name="k^S3")
        s = coset_function_subspace(QQ, g, (0, 3))
        sd = spec_from_subspace(s, kf.labels, name="cosets")
        again = parse_spec(serialize_spec(sd))
        assert to_subspace(again) == s

    def test_quotient_round_trip_keeps_the_projection(self):
        _, _, q = subgroup_data(QQ, symmetric_group_3(), (0, 3))
        sd = spec_from_quotient(q)
        again = parse_spec(serialize_spec(sd))
        assert (again.maps["projection"] - q.projection).is_zero()
        assert again.over == q.coalgebra.labels

    def test_save_and_load(self, tmp_path):
        sd = spec_from_hopf(sweedler4())
        p = tmp_path / "h4.spec"
        save_spec(sd, p)
        assert load_spec(p) == sd

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                              st.fractions(max_denominator=8)),
                    max_size=8))
    def test_random_subspace_specs_round_trip(self, triples):
        ent = {}
        for r, c, v in triples:
            if v:
                ent[(r, c)] = QQ.parse(str(v))
        rows = 1 + max((r for r, _ in ent), default=0)
        vectors = LinMap(QQ, rows, 4, ent)
        sd = SpecData(QQ, "subspace", "random", ("a", "b", "c", "d"),
                      maps={"vectors": vectors})
        again = parse_spec(serialize_spec(sd))
        assert serialize_spec(again) == serialize_spec(sd)
        assert to_subspace(again) == to_subspace(sd)


class TestContentHash:

    def test_hash_ignores_the_display_name(self):
        sd = spec_from_hopf(sweedler4())
        renamed = parse_spec(serialize_spec(sd).replace(
            "name sweedler4", "name something else"))
        assert content_hash(renamed) == content_hash(sd)

    def test_hash_is_invariant_under_label_reordering(self):
        h = sweedler4()
        sd = spec_from_hopf(h)
        # present the same structure under a reversed basis enumeration
        perm = list(reversed(range(h.dim)))
        lut = {old: new for new, old in enumerate(perm)}
        maps = {}
        for mname in sd.maps:
            m = sd.maps[mname]
            legs_r = 2 if mname == "comult" else (0 if mname == "counit"
                                                  else 1)
            legs_c = 2 if mname == "mult" else (0 if mname == "unit" else 1)
            ent = {}
            for (r, c), v in m.entries():
                nr = (lut[r // h.dim] * h.dim + lut[r % h.dim]
                      if legs_r == 2 else (lut[r] if legs_r else r))
                nc = (lut[c // h.dim] * h.dim + lut[c % h.dim]
                      if legs_c == 2 else (lut[c] if legs_c else c))
                ent[(nr, nc)] = v
            maps[mname] = LinMap(QQ, m.rows, m.cols, ent)
        shuffled = SpecData(QQ, "hopf", sd.name,
                            tuple(sd.basis[i] for i in perm), (), maps)
        assert shuffled != sd
        assert content_hash(shuffled) == content_hash(sd)

    def test_hash_ignores_the_choice_of_spanning_set(self):
        one = Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, 0),
                                            basis_vector(QQ, 4, 2)])
        e0, e2 = basis_vector(QQ, 4, 0), basis_vector(QQ, 4, 2)
        mixed = [e0, [QQ.add(a, b) for a, b in zip(e0, e2)],
                 [QQ.mul(QQ.from_int(3), a) for a in e2]]
        other = Subspace.from_vectors(QQ, 4, mixed)
        labels = ("1", "x", "g", "gx")
        assert one == other
        assert content_hash(spec_from_subspace(one, labels)) == \
            content_hash(spec_from_subspace(other, labels))

    def test_different_structures_hash_differently(self):
        a = spec_from_hopf(sweedler4())
        b = spec_from_hopf(group_algebra(QQ, cyclic_group(4), name="kC4"))
        assert content_hash(a) != content_hash(b)

    def test_canonical_form_sorts_labels(self):
        sd = spec_from_hopf(sweedler4())
        canon = parse_spec(canonical_text(sd))
        assert canon.basis == tuple(sorted(sd.basis))
        assert canon.name == ""
        # the canonical presentation still describes the same object
        h = to_hopf(canon)
        assert check_hopf_axioms(h).ok

    @pytest.mark.parametrize("kind", sorted(HASH_PINS))
    def test_hash_bytes_are_pinned(self, kind):
        sd = pin_specs()[kind]
        loaded = reordered(sd)
        assert (loaded.basis, loaded.over) != (sd.basis, sd.over)
        text = serialize_spec(loaded)
        assert parse_spec(text) == loaded
        assert (content_hash(loaded),
                hashlib.sha256(text.encode("ascii")).hexdigest()) \
            == HASH_PINS[kind]
        assert content_hash(loaded) == content_hash(sd)


class TestBuilders:

    def test_quotient_spec_matches_the_constructed_quotient(self):
        h = sweedler4()
        a = verify_coideal_subalgebra(h, span4(0, 2), name="span{1,g}")
        q = quotient_module_coalgebra(a)
        sd = spec_from_quotient(q)
        assert sd.kind == "quotient"
        assert sd.basis == h.labels
        assert len(sd.over) == q.dim

    def test_comodule_of_mismatched_dimensions_is_rejected(self):
        text = MINIMAL.replace("kind coalgebra", "kind comodule")
        with pytest.raises(SpecParseError):
            parse_spec(text)
