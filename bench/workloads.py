"""The benchmark's workloads: their inputs and their certifications.

A workload function is called once per process, after `coideals` has
been imported; it writes the inputs and returns the certifications, and
both steps count as set-up time.  A certification is a name and a
callable returning (exit code, report text, stderr text).  One pass runs
every certification once, in order.  The seed reaches the program only
through `suite.run_once(seed)` and `gamma --seed`; every other input is
fixed.
"""

import contextlib
import io
import os

# (order n, characteristic p) of taft(n, GF(p)): dimensions 4, 9, 16, 25, 36.
TAFT_INSTANCES = ((2, 3), (3, 7), (4, 5), (5, 11), (6, 7))


class Certification:
    """One certification of a pass.

    `seeded` marks a certification whose report depends on the workload
    seed; the others produce the same bytes for every seed.
    """

    def __init__(self, name, run, seeded=False):
        self.name = name
        self.run = run
        self.seeded = seeded


def _cli(argv):
    # Looked up on the module at call time, so a traced run sees the
    # rebound `cli.main`.
    from coideals import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _suite_once(seed):
    from coideals import suite
    rows = suite.run_once(seed)
    text = "".join(f"check {'ok' if ok else 'FAIL'} criterion-{num:02d} "
                   f"{detail}\n" for num, ok, detail in rows)
    return 0, text, ""


def hopf_axioms(seed, workdir):
    """Why: the Hopf axiom certificate of `coideals catalog taft n p` at
    dimensions 4 to 36.  Almost all of its time is LinMap.tensor and @
    materializing mult (x) mult over GF(p), with no rref and no Fraction
    arithmetic.  It exercises "apply, don't materialize" and bypasses the
    exact-kernel work, and it sets the peak memory (about 0.9 GB)."""
    return [Certification(f"catalog taft {n} {p}",
                          lambda argv=["catalog", "taft", str(n), str(p)]:
                          _cli(argv))
            for n, p in TAFT_INSTANCES]


def theorem2_cli(seed, workdir):
    """Why: the Theorem 2 reconstruction and the comparison isomorphism
    through the CLI on spec files.  Its time is a few hundred large QQ
    eliminations inside monad_from_adjunction and repeated
    comodule_on_subspace on the same objects, so a faster exact kernel or
    memoized functor values show here."""
    from coideals.catalog import (
        function_algebra,
        subgroup_data,
        sweedler4,
        symmetric_group_3,
    )
    from coideals.correspondence import (
        quotient_module_coalgebra,
        verify_coideal_subalgebra,
    )
    from coideals.fields import QQ
    from coideals.linalg import Subspace, basis_vector
    from coideals.specfile import save_spec, spec_from_hopf, spec_from_quotient

    def path(name):
        return os.path.join(workdir, name)

    g = symmetric_group_3()
    kf = function_algebra(QQ, g, name="k^S3")
    save_spec(spec_from_hopf(kf), path("ks3fun.spec"))
    _, _, q3 = subgroup_data(QQ, g, (0, 3))
    save_spec(spec_from_quotient(q3), path("quot3.spec"))
    h4 = sweedler4()
    save_spec(spec_from_hopf(h4), path("h4.spec"))
    a = verify_coideal_subalgebra(
        h4, Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, 0),
                                          basis_vector(QQ, 4, 2)]),
        name="span{1,g}")
    save_spec(spec_from_quotient(quotient_module_coalgebra(a)),
              path("q1g.spec"))
    calls = (
        ("theorem2 ks3fun quot3", False,
         ["theorem2", path("ks3fun.spec"), "--quotient", path("quot3.spec")]),
        ("theorem2 h4 q1g", False,
         ["theorem2", path("h4.spec"), "--quotient", path("q1g.spec")]),
        ("gamma ks3fun quot3", True,
         ["gamma", path("ks3fun.spec"), "--quotient", path("quot3.spec"),
          "--seed", str(seed)]),
    )
    return [Certification(name, lambda argv=argv: _cli(argv), seeded)
            for name, seeded, argv in calls]


def suite_pass(seed, workdir):
    """Why: one pass of the acceptance battery, criteria 1 to 11.  It
    reaches every module, and its eliminations are about 12k tiny rref
    calls, so per-call overhead shows here even where a kernel change
    wins on theorem2_cli.  The criteria keep their own time budgets: a
    blown budget is a failed certification."""
    return [Certification("suite run_once", lambda: _suite_once(seed),
                          seeded=True)]


WORKLOADS = {w.__name__: w for w in (hopf_axioms, theorem2_cli, suite_pass)}
