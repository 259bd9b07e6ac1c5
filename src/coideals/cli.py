"""Command line front end over the spec-file interchange format.

Exit codes: 0 every check passed, 1 at least one check failed, 2 the
input was unusable (parse error, wrong kind, dimension mismatch, unknown
catalog name).  Reports go to stdout; `--emit` additionally writes them
to a file, except for `catalog`, where `--emit` writes the constructed
instance as a spec file.  Wall-clock time is printed to stderr only, so
stdout and emitted reports are byte-identical across runs for the same
inputs and seed.  The environment variable COIDEALS_DIM_CAP (default 64)
bounds the dimension of any loaded or constructed carrier.
"""

import argparse
import os
import sys
from functools import cache
from time import perf_counter

from .catalog import (
    cyclic_group,
    function_algebra,
    group_algebra,
    symmetric_group_3,
    sweedler4,
    taft,
)
from .certs import CertReport, VerificationFailed
from .correspondence import (
    classify_quantum,
    default_test_comodules,
    mw_equivalence_check,
    quotient_data,
    quotient_module_coalgebra,
    quotient_through_section,
    roundtrip_correspondence,
    verify_coideal_subalgebra,
)
from .fields import GF, QQ, int_token
from .hopf import check_hopf_axioms
from .linalg import find_section, rank, regroup
from .monadics import gamma_isomorphism, theorem2_pipeline
from .morita import (
    coend_pre_equivalence,
    identity_pre_equivalence,
    verify_pre_equivalence,
)
from .repcats import ComoduleData, check_comodule, regular_comodule, regular_comodule_of
from .report import content_hash
from .specfile import (
    SpecParseError,
    load_spec,
    save_spec,
    spec_from_hopf,
    to_coalgebra,
    to_comodule,
    to_hopf,
    to_subspace,
)
from .suite import DEFAULT_SEED, run_all

DIM_CAP_VAR = "COIDEALS_DIM_CAP"


class InputError(Exception):
    """Unusable input: reported on stderr, exit code 2."""


def _dim_cap():
    return _int_param(os.environ.get(DIM_CAP_VAR, "64"), DIM_CAP_VAR)


def _cap_check(dim, what):
    cap = _dim_cap()
    if dim > cap:
        raise InputError(f"{what} has dimension {dim}, above the cap "
                         f"{cap}; raise {DIM_CAP_VAR} to allow it")


def _load(path, kinds=None):
    try:
        sd = load_spec(path)
    except OSError as e:
        raise InputError(f"{path}: {e.strerror or e}")
    except SpecParseError as e:
        raise InputError(f"{path}: {e}")
    if kinds is not None and sd.kind not in kinds:
        raise InputError(f"{path}: kind {sd.kind!r} not usable here, "
                         f"expected {' or '.join(kinds)}")
    _cap_check(max(sd.dim, len(sd.over)), path)
    return sd


def _int_param(tok, what):
    n = int_token(tok, what)
    if n is None:
        raise InputError(f"{what} must be an integer, got {tok!r}")
    return n


def _seed(tok):
    """A --seed value: an optional leading - and then ASCII digits, of
    magnitude below 2^64."""
    neg = tok.startswith("-")
    try:
        n = int_token(tok[1:] if neg else tok, "seed")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be below 2^64 in magnitude, got {tok!r}")
    if n is None:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer, got {tok!r}")
    return -n if neg else n


CATALOG_NAMES = "k, kC<n>, kS3, k^C<n>, k^S3, sweedler4, taft <n> <p> [<q>]"


def _catalog_object(name, params):
    """Parse a catalog name and its parameters, then build the instance
    once the dimension it will have has passed the cap check."""
    what = f"catalog {name}"
    if name == "sweedler4":
        if params:
            raise InputError("sweedler4 takes no parameters")
        _cap_check(4, what)
        return sweedler4()
    if name == "taft":
        if len(params) not in (2, 3):
            raise InputError("taft takes <n> <p> [<q>]")
        n = _int_param(params[0], "taft order")
        p = _int_param(params[1], "taft characteristic")
        try:
            fld = GF(p)
            q = fld.from_int(_int_param(params[2], "taft root")) \
                if len(params) == 3 else None
            _cap_check(n * n, what)
            return taft(n, fld, q)
        except ValueError as e:
            raise InputError(str(e))
    if len(params) > 1:
        raise InputError(f"{name} takes at most one parameter, a prime")
    fld = QQ
    if params:
        try:
            fld = GF(_int_param(params[0], "characteristic"))
        except ValueError as e:
            raise InputError(str(e))
    # a group algebra kG or function algebra k^G has dimension |G|
    digits = (name[3:] if name.startswith("k^C")
              else name[2:] if name.startswith("kC") else "")
    order = int_token(digits, "group order")
    if name in ("k", "kS3", "k^S3"):
        order = 1 if name == "k" else 6
    elif not order:
        raise InputError(f"unknown catalog name {name!r}; "
                         f"known: {CATALOG_NAMES}")
    _cap_check(order, what)
    group = symmetric_group_3() if name.endswith("S3") else cyclic_group(order)
    builder = function_algebra if name.startswith("k^") else group_algebra
    return builder(fld, group, name=name)


def _emit_and_print(rep, emit, t0):
    text = rep.serialize()
    sys.stdout.write(text)
    if emit:
        with open(emit, "w", encoding="ascii") as fh:
            fh.write(text)
    print(f"elapsed {perf_counter() - t0:.2f}s", file=sys.stderr)
    return rep.exit_code


def _object_checks(rep, sd, path):
    if sd.kind == "hopf":
        rep.merge(check_hopf_axioms(to_hopf(sd)))
    elif sd.kind == "coalgebra":
        rep.merge(to_coalgebra(sd).check())
    elif sd.kind == "comodule":
        v = to_comodule(sd)
        rep.merge(v.over.check(), "over ")
        rep.merge(check_comodule(v))
    elif sd.kind == "subspace":
        s = to_subspace(sd)
        nvec = sd.maps["vectors"].rows
        rep.add("spanning-vectors-independent", s.dim == nvec,
                f"dimension {s.dim} from {nvec} vectors")
    elif sd.kind == "pairing":
        du, dh = sd.dim, len(sd.over)
        r = rank(regroup(sd.maps["pairing"], (), (du, dh), (0,), (1,)))
        rep.add("no-left-kernel", r == du, f"rank {r} of {du}")
        rep.add("no-right-kernel", r == dh, f"rank {r} of {dh}")
    elif sd.kind == "quotient":
        pi = sd.maps["projection"]
        r = rank(pi)
        rep.add("projection-surjective", r == pi.rows,
                f"rank {r} of {pi.rows}")
    else:
        raise InputError(f"{path}: no checks defined for kind {sd.kind!r}")


def _cmd_check(args, t0):
    sd = _load(args.spec)
    rep = CertReport(f"check {os.path.basename(args.spec)}")
    rep.add_input(content_hash(sd), sd.kind)
    _object_checks(rep, sd, args.spec)
    return _emit_and_print(rep, args.emit, t0)


def _cmd_catalog(args, t0):
    h = _catalog_object(args.name, args.params)
    sd = spec_from_hopf(h)
    rep = CertReport(" ".join(["catalog", args.name] + args.params))
    rep.add_input(content_hash(sd), "constructed instance")
    rep.merge(check_hopf_axioms(h))
    if args.emit:
        save_spec(sd, args.emit)
    return _emit_and_print(rep, None, t0)


def _verified_subalgebra(args, rep):
    sd = _load(args.spec, kinds=("hopf",))
    ssd = _load(args.subalgebra, kinds=("subspace",))
    h = to_hopf(sd)
    if ssd.dim != h.dim:
        raise InputError(f"{args.subalgebra}: ambient dimension {ssd.dim} "
                         f"does not match the carrier dimension {h.dim}")
    rep.add_input(content_hash(sd), "ambient")
    rep.add_input(content_hash(ssd), "subalgebra")
    a = verify_coideal_subalgebra(h, to_subspace(ssd),
                                  name=ssd.name or "subalgebra")
    rep.merge(a.report)
    return h, a


def _cmd_correspond(args, t0):
    rep = CertReport(f"correspond {os.path.basename(args.spec)} "
                     f"{os.path.basename(args.subalgebra)}")
    h, a = _verified_subalgebra(args, rep)
    if a.ok:
        q = quotient_module_coalgebra(a)
        rep.merge(q.report, "quotient ")
        rep.add("quotient-dimension", True, f"dimension {q.dim}")
        rt = roundtrip_correspondence(h, subalgebras=[a], quotients=[q])
        rep.merge(rt)
        rep.add("roundtrip", rt.ok, "exact" if rt.ok else "inexact")
        label, _ = classify_quantum(a)
        rep.add("classification", True, label)
    return _emit_and_print(rep, args.emit, t0)


def _cmd_mw(args, t0):
    rep = CertReport(f"mw {os.path.basename(args.spec)} "
                     f"{os.path.basename(args.subalgebra)}")
    h, a = _verified_subalgebra(args, rep)
    if a.ok:
        comodules = None
        if args.objects:
            q = quotient_module_coalgebra(a)
            b = q.coalgebra
            comodules = default_test_comodules(q)
            for path in args.objects:
                vsd = _load(path, kinds=("comodule",))
                if len(vsd.over) != b.dim:
                    raise InputError(
                        f"{path}: comodule is over dimension "
                        f"{len(vsd.over)}, the quotient has {b.dim}")
                v = ComoduleData(h.field, vsd.dim, vsd.maps["coaction"], b,
                                 "right", vsd.name or os.path.basename(path))
                rep.add_input(content_hash(vsd), "test object")
                rep.merge(check_comodule(v), f"object {v.name} ")
                comodules.append(v)
        try:
            mw = mw_equivalence_check(a, test_comodules=comodules)
            rep.merge(mw.report)
        except VerificationFailed as e:
            rep.merge(e.report, "precondition ")
    return _emit_and_print(rep, args.emit, t0)


def _quotient_from_files(args, rep):
    """Load a carrier and a projection, induce the quotient structure
    through a section, and certify the result honestly."""
    sd = _load(args.spec, kinds=("hopf",))
    qsd = _load(args.quotient, kinds=("quotient",))
    h = to_hopf(sd)
    pi = qsd.maps["projection"]
    if pi.cols != h.dim:
        raise InputError(f"{args.quotient}: projection source dimension "
                         f"{pi.cols} does not match the carrier "
                         f"dimension {h.dim}")
    rep.add_input(content_hash(sd), "ambient")
    rep.add_input(content_hash(qsd), "quotient")
    sec = find_section(pi)
    if sec is None:
        rep.add("projection-surjective", False,
                f"rank {rank(pi)} of {pi.rows}")
        return h, None
    b, sigma = quotient_through_section(h, pi, sec, qsd.over)
    try:
        qd = quotient_data(h, b, pi, sigma, section=sec,
                           name=qsd.name or "quotient")
    except VerificationFailed as e:
        rep.merge(e.report)
        return h, None
    rep.merge(qd.report)
    return h, qd


def _cmd_theorem2(args, t0):
    rep = CertReport(f"theorem2 {os.path.basename(args.spec)} "
                     f"{os.path.basename(args.quotient)}")
    h, qd = _quotient_from_files(args, rep)
    if qd is not None:
        try:
            res = theorem2_pipeline(qd)
            rep.merge(res.report)
            rep.add("recovered-subalgebra-dimension", True,
                    f"dimension {res.subalgebra.space.dim}")
        except VerificationFailed as e:
            rep.merge(e.report, "pipeline ")
    return _emit_and_print(rep, args.emit, t0)


def _cmd_gamma(args, t0):
    rep = CertReport(f"gamma {os.path.basename(args.spec)} "
                     f"{os.path.basename(args.quotient)}",
                     seed=args.seed)
    h, qd = _quotient_from_files(args, rep)
    if qd is not None:
        breg = regular_comodule_of(qd.coalgebra, "quotient regular")
        try:
            res = gamma_isomorphism(regular_comodule(h), breg, qd,
                                        seed=args.seed)
            rep.merge(res.report)
        except VerificationFailed as e:
            rep.merge(e.report, "comparison ")
    return _emit_and_print(rep, args.emit, t0)


def _cmd_morita(args, t0):
    names = " ".join(os.path.basename(p) for p in args.specs)
    rep = CertReport(f"morita {names} --data {args.data}")
    if args.data == "identity":
        if len(args.specs) not in (1, 2):
            raise InputError("identity data takes one coalgebra spec or a "
                             "matching pair")
        sds = [_load(p, kinds=("coalgebra", "hopf")) for p in args.specs]
        coalgebras = [to_coalgebra(sd) for sd in sds]
        if len(coalgebras) == 2 and coalgebras[0] != coalgebras[1]:
            raise InputError("identity data needs the two coalgebras to "
                             "agree entry for entry")
        for sd in sds:
            rep.add_input(content_hash(sd), "coalgebra")
        e = identity_pre_equivalence(coalgebras[0])
    elif args.data == "coend":
        if len(args.specs) != 1:
            raise InputError("coend data takes exactly one comodule spec")
        vsd = _load(args.specs[0], kinds=("comodule",))
        rep.add_input(content_hash(vsd), "comodule")
        try:
            e = coend_pre_equivalence(to_comodule(vsd))
        except VerificationFailed as err:
            rep.merge(err.report, "construction ")
            return _emit_and_print(rep, args.emit, t0)
    else:
        raise InputError(f"--data takes identity or coend, got {args.data!r}")
    rep.merge(verify_pre_equivalence(e))
    return _emit_and_print(rep, args.emit, t0)


def _cmd_suite(args, t0):
    rep = run_all(seed=args.seed)
    return _emit_and_print(rep, args.emit, t0)


@cache
def _build_parser():
    """The parser, built on first use; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="coideals",
        description="certified checks on finite-dimensional coideal "
                    "subalgebras, quotient coalgebras, and their "
                    "representation categories")
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(name, fn, text):
        sp = sub.add_parser(name, help=text, description=text)
        sp.set_defaults(fn=fn)
        sp.add_argument("--emit", metavar="FILE",
                        help="also write the report to this file"
                        if name != "catalog" else
                        "write the instance as a spec file")
        return sp

    sp = command("check", _cmd_check,
                 "verify the declared structure of one spec file")
    sp.add_argument("spec")

    sp = command("catalog", _cmd_catalog,
                 f"build and certify a named instance ({CATALOG_NAMES})")
    sp.add_argument("name")
    sp.add_argument("params", nargs="*")

    sp = command("correspond", _cmd_correspond,
                 "verify a coideal subalgebra, form its quotient, and "
                 "round-trip the correspondence")
    sp.add_argument("spec")
    sp.add_argument("--subalgebra", required=True, metavar="FILE")

    sp = command("mw", _cmd_mw,
                 "certify the module-comodule equivalence composites")
    sp.add_argument("spec")
    sp.add_argument("--subalgebra", required=True, metavar="FILE")
    sp.add_argument("--objects", nargs="*", metavar="FILE",
                    help="extra comodule specs over the quotient")

    sp = command("theorem2", _cmd_theorem2,
                 "run the reconstruction pipeline from a quotient "
                 "projection")
    sp.add_argument("spec")
    sp.add_argument("--quotient", required=True, metavar="FILE")

    sp = command("gamma", _cmd_gamma,
                 "certify the comparison isomorphism with seeded checks")
    sp.add_argument("spec")
    sp.add_argument("--quotient", required=True, metavar="FILE")
    sp.add_argument("--seed", type=_seed, default=DEFAULT_SEED)

    sp = command("morita", _cmd_morita,
                 "certify pre-equivalence data between two coalgebras")
    sp.add_argument("specs", nargs="+")
    sp.add_argument("--data", default="identity",
                    help="identity (coalgebra specs) or coend "
                         "(one comodule spec)")

    sp = command("suite", _cmd_suite, "run the full acceptance battery")
    sp.add_argument("what", choices=["all"])
    sp.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    return p


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    t0 = perf_counter()
    try:
        return args.fn(args, t0)
    except VerificationFailed as e:
        # a constructor refused mid-command; the certificate explains it.
        # VerificationFailed is a ValueError, so this clause comes first
        sys.stdout.write(CertReport("refused").merge(e.report).serialize())
        return 1
    except (InputError, SpecParseError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
