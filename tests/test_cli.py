"""Command line behavior: exit codes, report shape, determinism.

Oracles: the documented exit-code contract (0 pass, 1 check failure,
2 unusable input), dimensions known from the correspondence tests
(coset quotient of the order-two subgroup has dimension 2), and byte
comparison of reports across repeated runs with a fixed seed.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coideals

from coideals.catalog import (
    coset_function_subspace,
    function_algebra,
    subgroup_data,
    sweedler4,
    symmetric_group_3,
)
from coideals import cli
from coideals.certs import CertReport, VerificationFailed
from coideals.cli import DIM_CAP_VAR, _build_parser, main
from coideals.correspondence import (
    quotient_module_coalgebra,
    verify_coideal_subalgebra,
)
from coideals.fields import QQ
from coideals.linalg import LinMap, Subspace, basis_vector
from coideals.repcats import ComoduleData
from coideals.report import Report
from coideals.specfile import (
    save_spec,
    spec_from_coalgebra,
    spec_from_comodule,
    spec_from_hopf,
    spec_from_quotient,
    spec_from_subspace,
)


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    """A directory of spec files for the worked examples."""
    d = tmp_path_factory.mktemp("specs")
    g = symmetric_group_3()
    kf = function_algebra(QQ, g, name="k^S3")
    save_spec(spec_from_hopf(kf), d / "ks3fun.spec")
    save_spec(spec_from_subspace(coset_function_subspace(QQ, g, (0, 3)),
                                 kf.labels, name="order-two cosets"),
              d / "cosets.spec")
    _, _, q3 = subgroup_data(QQ, g, (0, 3))
    save_spec(spec_from_quotient(q3), d / "quot3.spec")

    h4 = sweedler4()
    save_spec(spec_from_hopf(h4), d / "h4.spec")
    a = verify_coideal_subalgebra(
        h4, Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, 0),
                                          basis_vector(QQ, 4, 2)]),
        name="span{1,g}")
    save_spec(spec_from_subspace(a.space, h4.labels, name="span{1,g}"),
              d / "a1g.spec")
    save_spec(spec_from_quotient(quotient_module_coalgebra(a)),
              d / "q1g.spec")
    save_spec(spec_from_coalgebra(kf.coalgebra, name="k^S3 coalgebra"),
              d / "ks3co.spec")
    # sweedler4 with one coproduct coefficient doubled: not coassociative
    (d / "bad.spec").write_text(
        (d / "h4.spec").read_text().replace("g.x x 1/1", "g.x x 2/1"))
    # sweedler4 with x g = g x instead of -g x: not associative
    (d / "badmult.spec").write_text(
        (d / "h4.spec").read_text().replace("gx x.g -1/1", "gx x.g 1/1"))
    save_spec(spec_from_comodule(_two_weights(), name="two weights"),
              d / "two.spec")
    # surjective, but its kernel span{g, gx} is not a left ideal (g.g = 1)
    # and the counit does not vanish on it
    (d / "onto1x.spec").write_text(
        "field Q\nkind quotient\nname onto 1 and x\nbasis 1 x g gx\n"
        "over [1] [x]\nmap projection\n[1] 1 1/1\n[x] x 1/1\n")
    return d


def _two_weights():
    """The comodule over k^C2 spanned by the two characters."""
    from coideals.catalog import cyclic_group
    kc2 = function_algebra(QQ, cyclic_group(2)).coalgebra
    col = {(0, 0): QQ.one, (1, 0): QQ.one,
           (2, 1): QQ.one, (3, 1): QQ.from_int(-1)}
    return ComoduleData(QQ, 2, LinMap(QQ, 4, 2, col), kc2, "right",
                        "two weights")


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCatalogAndCheck:

    def test_catalog_emit_then_check_passes(self, specs, capsys, tmp_path):
        f = tmp_path / "sw4.spec"
        code, out, _ = run(capsys, "catalog", "sweedler4", "--emit", f)
        assert code == 0
        assert out.startswith("report catalog sweedler4\n")
        code, out, _ = run(capsys, "check", f)
        assert code == 0
        assert "check FAIL" not in out
        assert "runtime -" in out

    def test_broken_coassociativity_fails_with_a_witness(self, capsys,
                                                         tmp_path):
        f = tmp_path / "sw4.spec"
        run(capsys, "catalog", "sweedler4", "--emit", f)
        text = f.read_text().replace("g.x x 1/1", "g.x x 2/1")
        bad = tmp_path / "bad.spec"
        bad.write_text(text)
        code, out, _ = run(capsys, "check", bad)
        assert code == 1
        assert "check FAIL coassoc\nwitness (x)" in out

    def test_catalog_names_build_and_certify(self, capsys):
        for name in ("k", "kC5", "kS3", "k^C3", "k^S3"):
            code, out, _ = run(capsys, "catalog", name)
            assert code == 0, name
            assert "check FAIL" not in out

    def test_taft_over_a_prime_field(self, capsys):
        code, out, _ = run(capsys, "catalog", "taft", "3", "7")
        assert code == 0
        assert "check FAIL" not in out

    @pytest.mark.parametrize("argv", [("taft", "20", "41"), ("kC1000",)],
                             ids=["taft-dim-400", "kC1000"])
    def test_oversized_catalog_instance_is_refused_before_it_is_built(
            self, argv):
        # building either instance takes longer than the timeout (kC1000
        # runs the group table's cubic associativity loop), so the cap
        # must be checked on the dimension read off the parameters
        src = str(Path(coideals.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != DIM_CAP_VAR}
        env.update(PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run(
            [sys.executable, "-m", "coideals.cli", "catalog", *argv],
            capture_output=True, text=True, env=env, timeout=10)
        assert out.returncode == 2, out.stderr
        assert "above the cap" in out.stderr
        assert out.stdout == ""

    def test_refused_certificate_exits_1_with_its_report(self, capsys,
                                                         monkeypatch):
        # VerificationFailed is a ValueError; a certificate refused
        # mid-command is a failed check, not unusable input
        def refuse(h):
            rep = CertReport("hopf axioms")
            rep.add("antipode", False, "(x)")
            raise VerificationFailed(rep)

        monkeypatch.setattr(cli, "check_hopf_axioms", refuse)
        code, out, err = run(capsys, "catalog", "sweedler4")
        assert code == 1, err
        assert out.startswith("report refused\n")
        assert "check FAIL antipode\nwitness (x)" in out
        assert err == ""

    @pytest.mark.parametrize("char,code,frag", [
        (str(10 ** 400 + 1), 2, "below 2^64"),
        ("1000000000000000003", 0, "report catalog kC3 1000000000000000003"),
    ], ids=["401-digits", "prime-near-1e18"])
    def test_large_characteristics_are_decided_at_once(self, char, code, frag):
        # trial division overflowed on the first and ran for minutes on
        # the second
        src = str(Path(coideals.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run(
            [sys.executable, "-m", "coideals.cli", "catalog", "kC3", char],
            capture_output=True, text=True, env=env, timeout=10)
        assert out.returncode == code, out.stderr
        assert frag in out.stdout + out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("argv,frag", [
        (("taft", "1_0", "7"), "taft order must be an integer, got '1_0'"),
        (("taft", "\u0662", "\u0663"),
         "taft order must be an integer, got '\u0662'"),
        (("taft", "2", "3", "-1"), "taft root must be an integer, got '-1'"),
        (("kC3", "\uff17"), "characteristic must be an integer, got '\uff17'"),
        (("kC\u0663",), "unknown catalog name 'kC\u0663'"),
        (("k^C\u0663",), "unknown catalog name 'k^C\u0663'"),
        (("kC" + "9" * 5000,), "group order must be below 2^64, got '999"),
        (("taft", "9" * 5000, "7"), "taft order must be below 2^64, got '999"),
    ], ids=["underscore", "arabic-indic", "signed-root", "fullwidth-char",
            "kC-arabic-indic", "k^C-arabic-indic", "kC-5000-digits",
            "taft-5000-digits"])
    def test_integer_tokens_are_ascii_digits_below_the_bound(
            self, capsys, argv, frag):
        code, out, err = run(capsys, "catalog", *argv)
        assert (code, out) == (2, "")
        assert frag in err
        assert "Exceeds the limit" not in err

    def test_dim_cap_takes_ascii_digits(self, capsys, monkeypatch):
        monkeypatch.setenv(DIM_CAP_VAR, "\u0666\u0664")
        code, _, err = run(capsys, "catalog", "kC3")
        assert code == 2
        assert f"{DIM_CAP_VAR} must be an integer, got '\u0666\u0664'" in err

    def test_unknown_name_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "catalog", "nope")
        assert code == 2
        assert "unknown catalog name" in err

    def test_check_reports_the_content_hash(self, specs, capsys):
        code, out, _ = run(capsys, "check", specs / "h4.spec")
        assert code == 0
        line = [l for l in out.splitlines() if l.startswith("input ")][0]
        digest = line.split()[1]
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_subspace_and_quotient_checks(self, specs, capsys):
        for name in ("cosets.spec", "quot3.spec", "ks3co.spec"):
            code, out, _ = run(capsys, "check", specs / name)
            assert code == 0, name
            assert "check FAIL" not in out

    def test_far_apart_vector_numbers_get_a_verdict(self, tmp_path):
        # vectors 0 and 10^12 make a map with 10^12 + 1 rows, all but two
        # of them zero; the child's address space is capped so that
        # densifying those rows fails fast instead of exhausting memory
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        spec = tmp_path / "far.spec"
        spec.write_text("field Q\nkind subspace\nbasis a b\nmap vectors\n"
                        f"0 a 1/1\n{10 ** 12} b 1/1\n")
        src = str(Path(coideals.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run(
            [sys.executable, "-m", "coideals.cli", "check", str(spec)],
            capture_output=True, text=True, env=env, timeout=60,
            preexec_fn=cap)
        assert "Traceback" not in out.stderr
        assert out.returncode == 1, out.stderr
        assert ("check FAIL spanning-vectors-independent\n"
                "witness dimension 2 from 1000000000001 vectors\n") in out.stdout


class TestCorrespond:

    def test_coset_example_reports_dimension_and_roundtrip(self, specs,
                                                           capsys):
        code, out, _ = run(capsys, "correspond", specs / "ks3fun.spec",
                           "--subalgebra", specs / "cosets.spec")
        assert code == 0
        assert "check ok quotient-dimension\nwitness dimension 2" in out
        assert "check ok roundtrip\nwitness exact" in out
        assert "witness quantum-homogeneous-space" in out

    def test_non_coideal_subspace_fails_checks(self, specs, capsys,
                                               tmp_path):
        h4 = sweedler4()
        s = Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, 1)])
        f = tmp_path / "notcoideal.spec"
        save_spec(spec_from_subspace(s, h4.labels, name="just x"), f)
        code, out, _ = run(capsys, "correspond", specs / "h4.spec",
                           "--subalgebra", f)
        assert code == 1
        assert "check FAIL" in out

    def test_dimension_mismatch_is_an_input_error(self, specs, capsys):
        code, _, err = run(capsys, "correspond", specs / "h4.spec",
                           "--subalgebra", specs / "cosets.spec")
        assert code == 2
        assert "6" in err and "4" in err


class TestPipelines:

    def test_mw_on_the_four_dimensional_pair(self, specs, capsys):
        code, out, _ = run(capsys, "mw", specs / "h4.spec",
                           "--subalgebra", specs / "a1g.spec")
        assert code == 0
        assert "check FAIL" not in out

    def test_theorem2_recovers_the_coset_subalgebra(self, specs, capsys):
        code, out, _ = run(capsys, "theorem2", specs / "ks3fun.spec",
                           "--quotient", specs / "quot3.spec")
        assert code == 0
        assert ("check ok recovered-subalgebra-dimension\n"
                "witness dimension 3") in out

    def test_theorem2_rejects_a_non_surjective_projection(self, specs,
                                                          capsys,
                                                          tmp_path):
        src = (specs / "q1g.spec").read_text()
        lines = [l for l in src.splitlines()
                 if not l.startswith("[gx] ")]
        f = tmp_path / "flat.spec"
        f.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "theorem2", specs / "h4.spec",
                           "--quotient", f)
        assert code == 1
        assert "check FAIL projection-surjective" in out

    def test_gamma_is_deterministic_for_a_fixed_seed(self, specs, capsys):
        args = ("gamma", specs / "h4.spec", "--quotient",
                specs / "q1g.spec", "--seed", "7")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "seed 7" in out1

    def test_gamma_seed_appears_in_the_report(self, specs, capsys):
        code, out, _ = run(capsys, "gamma", specs / "h4.spec",
                           "--quotient", specs / "q1g.spec",
                           "--seed", "11")
        assert code == 0
        assert out.splitlines()[1] == "seed 11"

    @pytest.mark.parametrize("tok,seed", [
        ("7", 7), ("007", 7), ("-5", -5), ("20260822", 20260822),
        (str(2 ** 64 - 1), 2 ** 64 - 1), (str(1 - 2 ** 64), 1 - 2 ** 64),
    ])
    @pytest.mark.parametrize("cmd", [("suite", "all"),
                                     ("gamma", "h.spec", "--quotient", "q.spec")])
    def test_seed_takes_a_signed_ascii_integer(self, cmd, tok, seed):
        assert _build_parser().parse_args([*cmd, "--seed", tok]).seed == seed

    @pytest.mark.parametrize("tok,frag", [
        ("\u0661_\u0662", "seed must be an integer, got '\u0661_\u0662'"),
        ("1_0", "seed must be an integer, got '1_0'"),
        ("+5", "seed must be an integer, got '+5'"),
        ("9" * 5000, "seed must be below 2^64 in magnitude, got '999"),
        (str(2 ** 64), f"seed must be below 2^64 in magnitude, got '{2 ** 64}'"),
    ], ids=["arabic-indic", "underscore", "plus-sign", "5000-digits", "2^64"])
    @pytest.mark.parametrize("cmd", [("suite", "all"),
                                     ("gamma", "h.spec", "--quotient", "q.spec")])
    def test_seed_outside_the_rule_exits_2_naming_it(self, capsys, cmd, tok,
                                                     frag):
        code, out, err = run(capsys, *cmd, "--seed", tok)
        assert (code, out) == (2, "")
        assert frag in err
        assert "Exceeds the limit" not in err


class TestMorita:

    def test_identity_data_on_one_coalgebra(self, specs, capsys):
        code, out, _ = run(capsys, "morita", specs / "ks3co.spec")
        assert code == 0
        assert "check FAIL" not in out

    def test_identity_data_on_a_matching_pair(self, specs, capsys):
        code, _, _ = run(capsys, "morita", specs / "ks3co.spec",
                         specs / "ks3co.spec", "--data", "identity")
        assert code == 0

    def test_identity_data_rejects_a_mismatched_pair(self, specs, capsys,
                                                     tmp_path):
        from coideals.catalog import cyclic_group, group_algebra
        other = group_algebra(QQ, cyclic_group(2), name="kC2")
        f = tmp_path / "kc2.spec"
        save_spec(spec_from_coalgebra(other.coalgebra, name="kC2"), f)
        code, _, err = run(capsys, "morita", specs / "ks3co.spec", f,
                           "--data", "identity")
        assert code == 2
        assert "agree" in err

    def test_coend_data_from_a_comodule(self, specs, capsys):
        code, out, _ = run(capsys, "morita", specs / "two.spec",
                           "--data", "coend")
        assert code == 0
        assert "check FAIL" not in out

    def test_unknown_data_mode_is_an_input_error(self, specs, capsys):
        code, _, err = run(capsys, "morita", specs / "ks3co.spec",
                           "--data", "other")
        assert code == 2
        assert "identity or coend" in err


class TestPlumbing:

    def test_missing_file_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "check", "nosuch.spec")
        assert code == 2
        assert "nosuch.spec" in err

    def test_parse_error_carries_line_and_column(self, capsys, tmp_path):
        f = tmp_path / "broken.spec"
        f.write_text("field Q\nkind hopf\nbasis a a\n")
        code, _, err = run(capsys, "check", f)
        assert code == 2
        assert "line 3, column 9" in err

    def test_wrong_kind_is_an_input_error(self, specs, capsys):
        code, _, err = run(capsys, "correspond", specs / "cosets.spec",
                           "--subalgebra", specs / "cosets.spec")
        assert code == 2
        assert "kind" in err

    def test_missing_required_option_is_usage_error(self, specs, capsys):
        code, _, _ = run(capsys, "mw", specs / "h4.spec")
        assert code == 2

    def test_dimension_cap_is_enforced(self, specs, capsys, monkeypatch):
        monkeypatch.setenv("COIDEALS_DIM_CAP", "4")
        code, _, err = run(capsys, "check", specs / "ks3fun.spec")
        assert code == 2
        assert "dimension 6" in err and "cap 4" in err
        monkeypatch.setenv("COIDEALS_DIM_CAP", "6")
        code, _, _ = run(capsys, "check", specs / "ks3fun.spec")
        assert code == 0

    def test_emitted_report_equals_stdout(self, specs, capsys, tmp_path):
        f = tmp_path / "report.txt"
        code, out, _ = run(capsys, "check", specs / "h4.spec",
                           "--emit", f)
        assert code == 0
        assert f.read_text() == out

    def test_elapsed_goes_to_stderr_only(self, specs, capsys):
        _, out, err = run(capsys, "check", specs / "h4.spec")
        assert "elapsed" in err
        assert "elapsed" not in out


# (argv, exit code, sha256 of stdout), recorded before the CLI report and
# the library report became one class; a spec file is named by basename.
GOLDEN = (
    (("check", "h4.spec"), 0,
     "bb8f1673584832675b20b6f8e55edea693575fdf77c8f4683a44f90d807fdfeb"),
    (("check", "bad.spec"), 1,
     "6fe8b76b70215c056912ab1b45c7890fad90ef788c74b8765dbc5049cf84db81"),
    (("catalog", "sweedler4"), 0,
     "5a06a32fbcde150e37ed5339f1c18b7fdb0cd73482e74a17f333d0932253594c"),
    (("correspond", "ks3fun.spec", "--subalgebra", "cosets.spec"), 0,
     "1fc891fe170f717ade211416d46d960a87e7f5b8860e8208cf26dfa762aa34fd"),
    (("mw", "h4.spec", "--subalgebra", "a1g.spec"), 0,
     "279de11277a3640309a61d3f6ea2db69083cfe77ec75044a942fdff1aed50fdf"),
    (("morita", "ks3co.spec"), 0,
     "9abf98017f27a271143028e134748a1866a775c2de9f175b74ba48f6de1192ae"),
    (("morita", "two.spec", "--data", "coend"), 0,
     "5e3241bd3e0c7a32ae97ac98ec4838b1b2016f25723150d5b8de7ca501b94046"),
    (("theorem2", "ks3fun.spec", "--quotient", "quot3.spec"), 0,
     "e734761b373f50ed8582e8e402581316b2e301039390399347e07bf7775642e4"),
    (("theorem2", "h4.spec", "--quotient", "q1g.spec"), 0,
     "85411305a07b93ca3c7a791663854e84289819e15c5adb927e18a1f23ecf22a1"),
    (("gamma", "ks3fun.spec", "--quotient", "quot3.spec",
      "--seed", "20260822"), 0,
     "ca92864282c16ad0552ac6e871184da6b9d45e34102c39049f44e9c48f1f6df3"),
    (("theorem2", "h4.spec", "--quotient", "onto1x.spec"), 1,
     "f7cc1fc2ba83ef128bd42cf30bc2a3336157460e4f7483d279bb6b559bb3dd21"),
    (("gamma", "h4.spec", "--quotient", "onto1x.spec"), 1,
     "aa7dd8f72bbbad373a59d711532402a1e212607ab985c31daaa7db4d1a30ab83"),
    (("check", "badmult.spec"), 1,
     "fc91a1063d0bf5dadf15d3bbb4bea3dcc474f9810801b000bbbbdc2d38cc6eae"),
    (("catalog", "taft", "2", "3"), 0,
     "0a9c88f294bffb3cf2843f605f49d23d1200c9908b553a8f10964bfc77ee8b3e"),
    (("catalog", "taft", "3", "7"), 0,
     "d4c490af391c9894a0961ed426b2abb46f1a612fe1b065aa96107bb3361270e1"),
    (("catalog", "taft", "4", "5"), 0,
     "e28e248fa4cf907c09242e85bd4ef0b26efd9dfb0f3a9296c7d2d962da3a90f9"),
    (("catalog", "taft", "5", "11"), 0,
     "e47f8d6a3ed11e106840c7e5f60a1c98db1536ec7c7ad6206686a39ccb668d08"),
    (("catalog", "taft", "6", "7"), 0,
     "a5664585ce0deac0ec4943fb2641eaa98c3511b11da1bae4e554b0f3464edc12"),
    (("catalog", "taft", "8", "17"), 0,
     "8ae8fc67371ef015333124b8d95ef1dd537570df1ded1e2016a1ff88ff6983c4"),
)


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_report_bytes_are_pinned(specs, capsys, argv, code, digest):
    argv = [specs / a if a.endswith(".spec") else a for a in argv]
    got, out, _ = run(capsys, *argv)
    assert (got, hashlib.sha256(out.encode("ascii")).hexdigest()) \
        == (code, digest)


def test_serialize_cleans_text_and_defaults_the_witness():
    rep = Report("check\nsome  file")
    rep.add("first\n name", False)
    rep.add("second", True, "with\t tab")
    rep.assume("one\n note")
    rep.assume("one note")
    rep.assume("other")
    assert rep.serialize() == (
        "report check some file\n"
        "seed -\n"
        "assume one note\n"
        "assume other\n"
        "check FAIL first name\n"
        "witness no witness recorded\n"
        "check ok second\n"
        "witness with tab\n"
        "runtime -\n")
    assert rep.exit_code == 1
