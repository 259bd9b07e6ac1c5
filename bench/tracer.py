"""Spans and counts around calls into the coideals modules, from outside.

`Tracer.install` rebinds each traced function in every `coideals.*`
namespace that holds it (modules import each other's functions by name)
and patches traced methods on their classes.  A span records name, start,
end, parent span and pass id; spans stay in memory until `write_jsonl`.
Counts are kept where a span alone cannot give them: rref cells, nonzeros
of matmul/tensor results, field operations and recorded checks.
"""

import json
import statistics
import sys
from collections import Counter
from time import perf_counter

# (span name, module, attribute): the layer boundaries that are timed.
SPANS = (
    ("linalg.rref", "coideals.linalg", "rref"),
    ("linalg.kernel_of", "coideals.linalg", "kernel_of"),
    ("linalg.coords", "coideals.linalg", "Subspace.coords"),
    ("linalg.matmul", "coideals.linalg", "LinMap.__matmul__"),
    ("linalg.tensor", "coideals.linalg", "LinMap.tensor"),
    ("hopf.check_hopf_axioms", "coideals.hopf", "check_hopf_axioms"),
    ("repcats.comodule_on_subspace", "coideals.repcats",
     "comodule_on_subspace"),
    ("repcats.cotensor", "coideals.repcats", "cotensor"),
    ("monadics.monad_from_adjunction", "coideals.monadics",
     "monad_from_adjunction"),
    ("monadics.check_monad_laws", "coideals.monadics", "check_monad_laws"),
    ("correspondence.ses_cross_check", "coideals.correspondence",
     "ses_cross_check"),
    ("correspondence.is_faithfully_flat", "coideals.correspondence",
     "is_faithfully_flat"),
    ("morita.verify_pre_equivalence", "coideals.morita",
     "verify_pre_equivalence"),
    ("specfile.load_spec", "coideals.specfile", "load_spec"),
    ("report.serialize", "coideals.report", "Report.serialize"),
    ("cli.main", "coideals.cli", "main"),
)

# (counter name, module, class, methods): calls counted without a span.
# Field.sub and Field.div go through these primitives.
COUNTED = (
    ("fields.qq_ops", "coideals.fields", "RationalField",
     ("add", "mul", "neg", "inv")),
    ("fields.gf_ops", "coideals.fields", "PrimeField",
     ("add", "mul", "neg", "inv")),
    ("certs.checks", "coideals.certs", "CertReport", ("add",)),
)

# Counter suffixes that must repeat exactly between passes and runs.
EXACT_SUFFIXES = (".calls", ".cells", ".max_cells", "_ops", ".out_nnz",
                  "certs.checks")


def _rref_cells(counts, args, out):
    mat = args[1]
    cells = len(mat) * (len(mat[0]) if mat else 0)
    counts["linalg.rref.cells"] += cells
    if cells > counts["linalg.rref.max_cells"]:
        counts["linalg.rref.max_cells"] = cells


def _out_nnz(key):
    def hook(counts, args, out):
        counts[key] += out.nnz()
    return hook


HOOKS = {
    "linalg.rref": _rref_cells,
    "linalg.matmul": _out_nnz("linalg.matmul.out_nnz"),
    "linalg.tensor": _out_nnz("linalg.tensor.out_nnz"),
}


def _coideals_modules():
    return [m for name, m in sys.modules.items()
            if (name == "coideals" or name.startswith("coideals."))
            and m is not None]


class Tracer:
    """Records spans and counts for the passes run while installed."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, pass id]
        self.counts = Counter()
        self.pass_id = None
        self._stack = []
        self._undo = []

    # -- patching -------------------------------------------------------

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind_everywhere(self, module, attr, new):
        """Rebind a module-level function in every namespace holding it."""
        old = getattr(sys.modules[module], attr)
        for mod in _coideals_modules():
            if getattr(mod, attr, None) is old:
                self._rebind(mod, attr, new)

    def install(self):
        for name, module, attr in SPANS:
            owner = sys.modules[module]
            *cls, attr = attr.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                self._rebind(owner, attr,
                             self.span(name, getattr(owner, attr)))
            else:
                self._rebind_everywhere(module, attr,
                                        self.span(name, getattr(owner, attr)))
        suite = sys.modules["coideals.suite"]
        criteria = []
        for num, label, fn in suite.CRITERIA:
            wrapped = self.span(f"suite.criterion_{num:02d}", fn)
            self._rebind_everywhere("coideals.suite", fn.__name__, wrapped)
            criteria.append((num, label, wrapped))
        # run_once reads the criteria from this tuple, not by name
        self._rebind(suite, "CRITERIA", tuple(criteria))
        for key, module, cls, methods in COUNTED:
            owner = getattr(sys.modules[module], cls)
            for meth in methods:
                self._rebind(owner, meth,
                             self._counted(key, getattr(owner, meth)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def span(self, name, fn):
        spans, stack = self.spans, self._stack
        counts = self.counts
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.pass_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out
        return traced

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # -- passes ---------------------------------------------------------

    def run_pass(self, pass_id, body):
        """Run body() as one pass under a root span.

        Returns body's result and the pass's counters."""
        self.pass_id = pass_id
        self.counts.clear()
        out = self.span("pass", body)()
        return out, dict(self.counts)

    def metrics(self, pass_id, counts):
        """Per-layer metrics of one pass: calls, inclusive and self seconds
        per span name, plus the pass's counters."""
        spans = self.spans
        ids = [i for i, s in enumerate(spans) if s[4] == pass_id]
        child = Counter()
        for i in ids:
            _, start, end, parent, _ = spans[i]
            if parent is not None:
                child[parent] += end - start
        out = Counter(counts)
        for i in ids:
            name, start, end, parent, _ = spans[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child[i]
            if not self._nested_in_same(i):
                out[f"{name}.s"] += end - start
        return dict(out)

    def _nested_in_same(self, i):
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_jsonl(self, path):
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, pass_id) in enumerate(
                    self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "pass": pass_id}) + "\n")


def is_exact(key):
    return key.endswith(EXACT_SUFFIXES)


def combine(per_pass):
    """Median over passes; exact counters must agree between passes.

    Returns (metrics, names of counters that differed between passes).
    """
    keys = sorted(set().union(*per_pass))
    merged, unstable = {}, []
    for key in keys:
        values = [m.get(key, 0) for m in per_pass]
        if is_exact(key):
            if len(set(values)) > 1:
                unstable.append(key)
            merged[key] = statistics.median_low(values)
        else:
            merged[key] = statistics.median(values)
    return merged, unstable
