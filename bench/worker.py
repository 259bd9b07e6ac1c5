"""One workload in one fresh process: set up, run passes, check outputs.

Started by run.py; prints one JSON object on its last stdout line.  A
pass runs every certification of the workload once, one after another
(a closed loop with one client).  Passes repeat until `--seconds` have
gone by; the pass under way then finishes.  With `--trace 1` the first
pass runs plain and the rest run under the tracer, so the difference is
the tracing overhead.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

from tracer import Tracer, combine
from workloads import WORKLOADS, Certification

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def import_coideals():
    """Import the package from this checkout's src, never another copy."""
    sys.path.insert(0, str(SRC))
    try:
        import coideals
        import coideals.cli  # noqa: F401  (imports coideals.suite too)
    except ImportError as e:
        raise SystemExit(f"cannot import coideals from {SRC}: {e}")
    where = Path(coideals.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"coideals resolves to {where}, outside {SRC}; "
                         "refusing to time another copy")
    return coideals


def failing_check(report):
    """The first check line of a report that is not ok, or None."""
    return next((line for line in report.splitlines()
                 if line.startswith("check ")
                 and not line.startswith("check ok ")), None)


class Checker:
    """Compares report bytes with the digests in digests.json.

    A certification that does not depend on the seed is compared with its
    recorded digest for every seed; a seeded one only at the recorded
    seed, and otherwise with its own first pass in this process.
    """

    def __init__(self, seed):
        with open(HERE / "digests.json", encoding="ascii") as fh:
            recorded = json.load(fh)
        self.digests = recorded["digests"]
        self.at_recorded_seed = seed == recorded["seed"]
        self.first = {}

    def problems(self, cert, outcome):
        if isinstance(outcome, BaseException):
            return [f"raised {type(outcome).__name__}: {outcome}"]
        code, text, err = outcome
        found = []
        if code != 0:
            found.append(f"exit code {code}: {err.strip()}")
        bad = failing_check(text)
        if bad:
            found.append(bad)
        digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        if self.at_recorded_seed or not cert.seeded:
            want = self.digests.get(cert.name)
        else:
            want = self.first.setdefault(cert.name, digest)
        if digest != want:
            found.append(f"report sha256 {digest}, expected {want}")
        return found


def run_certifications(certs):
    outcomes = []
    for cert in certs:
        try:
            outcomes.append(cert.run())
        except Exception as e:  # a failed certification, counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outcomes.append(e)
    return outcomes


class Passes:
    """Timed passes with their checked outcomes.

    `body` runs one pass and returns one outcome per certification.
    """

    def __init__(self, certs, checker, body=None):
        self.certs = certs
        self.checker = checker
        self.body = body or (lambda: run_certifications(certs))
        self.wall = []
        self.cpu = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self):
        t0, c0 = perf_counter(), process_time()
        outcomes = self.body()
        self.wall.append(perf_counter() - t0)
        self.cpu.append(process_time() - c0)
        for cert, outcome in zip(self.certs, outcomes):
            self.attempted += 1
            found = self.checker.problems(cert, outcome)
            if found:
                self.failed += 1
                self.problems.append(f"pass {len(self.wall)} {cert.name}: "
                                     + "; ".join(found))

    def repeat(self, seconds, started):
        """Run passes until `seconds` have gone by since `started`."""
        while True:
            self.run()
            if perf_counter() - started >= seconds:
                return


def environment(coideals):
    import sympy
    return {"python": sys.version.split()[0], "sympy": sympy.__version__,
            "coideals_file": str(Path(coideals.__file__).resolve()),
            "COIDEALS_DIM_CAP": os.environ.get("COIDEALS_DIM_CAP")}


def measure(certs, args):
    checker = Checker(args.seed)
    started = perf_counter()
    plain = Passes(certs, checker)
    if not args.trace:
        plain.repeat(args.seconds, started)
        return plain, {"wall_s": plain.wall, "cpu_s": plain.cpu,
                       "peak_rss_mb": resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024}
    plain.run()
    tracer = Tracer()
    spanned = [Certification(c.name, tracer.span(f"certification {c.name}",
                                                 c.run), c.seeded)
               for c in certs]
    counts = []

    def traced_body():
        outcomes, pass_counts = tracer.run_pass(
            len(counts), lambda: run_certifications(spanned))
        counts.append(pass_counts)
        return outcomes
    traced = Passes(certs, checker, traced_body)
    tracer.install()
    try:
        traced.repeat(args.seconds, started)
    finally:
        tracer.uninstall()
    per_pass = [tracer.metrics(i, c) for i, c in enumerate(counts)]
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write_jsonl(trace_file)
    layers, unstable = combine(per_pass)
    layers["trace.overhead_s"] = (statistics.median(traced.wall)
                                  - statistics.median(plain.wall))
    for key in unstable:
        traced.problems.append(f"counter {key} differs between traced passes")
    # the plain pass is checked too; fold its outcomes in
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.problems += plain.problems
    return traced, {"layers": layers, "trace_file": str(trace_file)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and report its time")
    args = p.parse_args(argv)

    t0 = perf_counter()
    coideals = import_coideals()
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        certs = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = perf_counter() - t0
        result = {"setup_s": setup_s, "env": environment(coideals)}
        if not args.setup_only:
            passes, extra = measure(certs, args)
            result.update(extra, attempted=passes.attempted,
                          failed=passes.failed, problems=passes.problems,
                          passes=len(passes.wall))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
