"""Time two source trees of coideals against each other in one process.

    python3 scripts/paired_passes.py PARENT_SRC CHANGE_SRC \\
        --workload suite_pass --seconds 60

PARENT_SRC and CHANGE_SRC are directories that each hold a `coideals`
package (the `src` directory of a checkout).  Both are loaded into this
one process as two package copies under their own names, so host drift
between separate processes does not enter the comparison.  The workload
is run once untimed on each side, and the two outputs must be equal.
Then timed passes alternate between the sides, the order flipping every
round, until `--seconds` have gone by, and every pass's output must equal
the first.  The script prints each side's median and quartiles of the
pass wall time, the median over rounds of the ratio change/parent, and in
how many rounds the change was faster.

The workloads repeat the certifications of the benchmark of the same
names: the Hopf axiom certificates of taft(n, GF(p)) through the CLI,
theorem2 and gamma through the CLI on spec files, and one pass of the
acceptance battery, criteria 1 to 11.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# (order n, characteristic p) of taft(n, GF(p)): dimensions 4 to 36.
TAFT_INSTANCES = ((2, 3), (3, 7), (4, 5), (5, 11), (6, 7))


def load(src, name):
    """The coideals package under src, imported as the package `name`."""
    init = Path(src).resolve() / "coideals" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no coideals package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def _cli(pkg, argv):
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def hopf_axioms(pkg, workdir):
    return lambda: [_cli(pkg, ["catalog", "taft", str(n), str(p)])
                    for n, p in TAFT_INSTANCES]


def theorem2_cli(pkg, workdir):
    def sub(name):
        return importlib.import_module(f"{pkg.__name__}.{name}")

    catalog, corr, linalg = sub("catalog"), sub("correspondence"), sub("linalg")
    specfile, qq = sub("specfile"), sub("fields").QQ
    g = catalog.symmetric_group_3()
    path = {name: str(Path(workdir) / f"{name}.spec")
            for name in ("ks3fun", "quot3", "h4", "q1g")}
    specfile.save_spec(specfile.spec_from_hopf(
        catalog.function_algebra(qq, g, name="k^S3")), path["ks3fun"])
    specfile.save_spec(specfile.spec_from_quotient(
        catalog.subgroup_data(qq, g, (0, 3))[2]), path["quot3"])
    h4 = catalog.sweedler4()
    specfile.save_spec(specfile.spec_from_hopf(h4), path["h4"])
    span = linalg.Subspace.from_vectors(qq, 4, [linalg.basis_vector(qq, 4, i)
                                                for i in (0, 2)])
    a = corr.verify_coideal_subalgebra(h4, span, name="span{1,g}")
    specfile.save_spec(specfile.spec_from_quotient(
        corr.quotient_module_coalgebra(a)), path["q1g"])
    seed = str(sub("suite").DEFAULT_SEED)
    calls = (["theorem2", path["ks3fun"], "--quotient", path["quot3"]],
             ["theorem2", path["h4"], "--quotient", path["q1g"]],
             ["gamma", path["ks3fun"], "--quotient", path["quot3"],
              "--seed", seed])
    return lambda: [_cli(pkg, argv) for argv in calls]


def suite_pass(pkg, workdir):
    suite = importlib.import_module(f"{pkg.__name__}.suite")
    return lambda: suite.run_once(suite.DEFAULT_SEED)


WORKLOADS = {w.__name__: w for w in (hopf_axioms, theorem2_cli, suite_pass)}


def quartiles(xs):
    """(lower quartile, median, upper quartile) of at least one value."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def paired(passes, seconds):
    """Alternate the two pass functions, the order flipping each round,
    until `seconds` have gone by (at least one round); each one's outputs
    must equal the first.  Returns the wall times of both sides."""
    reference = passes[0]()
    if passes[1]() != reference:
        raise SystemExit("the two trees give different outputs")
    times = ([], [])
    started = perf_counter()
    while not times[0] or perf_counter() - started < seconds:
        order = (0, 1) if len(times[0]) % 2 == 0 else (1, 0)
        for side in order:
            t0 = perf_counter()
            out = passes[side]()
            times[side].append(perf_counter() - t0)
            if out != reference:
                raise SystemExit(f"pass {len(times[side])} of side {side} "
                                 "changed its output")
    return times


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("parent_src")
    p.add_argument("change_src")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        passes = []
        for side, src in enumerate((args.parent_src, args.change_src)):
            pkg = load(src, f"coideals_side{side}")
            workdir = Path(tmp) / str(side)
            workdir.mkdir()
            passes.append(WORKLOADS[args.workload](pkg, workdir))
        parent, change = paired(passes, args.seconds)
    ratios = [c / q for q, c in zip(parent, change)]
    for name, xs in (("parent", parent), ("change", change)):
        q1, q2, q3 = quartiles(xs)
        print(f"{name}: median {q2:.4f} s, quartiles {q1:.4f}-{q3:.4f} s")
    wins = sum(c < q for q, c in zip(parent, change))
    print(f"median ratio change/parent {statistics.median(ratios):.3f}, "
          f"change faster in {wins}/{len(ratios)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
