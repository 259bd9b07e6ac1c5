"""Run the reconstruction pipeline on functions on the symmetric group S4.

The Hopf algebra is k^S4 over QQ (dimension 24), and the quotient is
functions on the order-2 subgroup that the transposition (0 1)
generates.  The pipeline's monad stage cotensors objects up to T^2 V of
the regular comodule, so this is the largest instance the workbench
runs end to end; it takes about 0.5 s (0.4 to 0.5 s and 71 MB peak RSS
in 3 fresh runs on a 2-vCPU x86-64 VM).  tests/test_demos.py runs it in a fresh process
and asserts exit 0.

The address space of this process is capped at 2.5 GB with
RLIMIT_AS, so a run that would need more fails with MemoryError instead
of pressing on the machine.  The script prints the verdict, the wall
time, the peak resident set size and the sha256 of the serialized
report.  It exits 0 when every check passed and the sha256 equals the
pinned REPORT_SHA256, and 1 otherwise.

    PYTHONPATH=src python3 scripts/ks4_theorem2.py
"""

import hashlib
import itertools
import resource
import sys
import time

from coideals.catalog import FiniteGroupTable, subgroup_data
from coideals.certs import VerificationFailed
from coideals.fields import QQ
from coideals.monadics import theorem2_pipeline

AS_LIMIT = int(2.5 * 2**30)
REPORT_SHA256 = "aee60fa71bcc68efe9a3c71992540549f397a12996dbe575682eb50cc05e75a5"


def symmetric_group_4():
    """S4 on permutations of 0..3 in lexicographic order; a permutation p
    is labelled by its images, and p*q is p after q."""
    elems = list(itertools.permutations(range(4)))
    idx = {p: i for i, p in enumerate(elems)}
    table = [[idx[tuple(p[q[i]] for i in range(4))] for q in elems]
             for p in elems]
    return FiniteGroupTable(["p" + "".join(map(str, p)) for p in elems], table)


def main():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))
    g = symmetric_group_4()
    transposition = g.labels.index("p1023")
    t0 = time.perf_counter()
    _, _, q = subgroup_data(QQ, g, (0, transposition))
    try:
        rep = theorem2_pipeline(q).report
    except VerificationFailed as e:
        rep = e.report
    seconds = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    text = rep.serialize()
    print(f"verdict {'ok' if rep.ok else 'FAIL'}")
    print(f"seconds {seconds:.1f}")
    print(f"peak_rss_mb {peak_mb:.0f}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"report_sha256 {digest}")
    if digest != REPORT_SHA256:
        print(f"report_sha256 differs from the pinned {REPORT_SHA256}")
        return 1
    return rep.exit_code


if __name__ == "__main__":
    sys.exit(main())
