"""The benchmark tracer's hooks still name functions that exist.

`bench/tracer.py` rebinds the functions and methods listed in its `SPANS`
and `COUNTED` tables; a renamed target makes a traced benchmark run fail
with AttributeError.  The tracer is read from its file here, never
installed, so the benchmark's files are left as they are.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
TABLES = runpy.run_path(str(TRACER))


def resolve(module, dotted):
    owner = importlib.import_module(module)
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("name,module,attr", TABLES["SPANS"],
                         ids=[s[0] for s in TABLES["SPANS"]])
def test_every_span_target_resolves(name, module, attr):
    assert callable(resolve(module, attr))


@pytest.mark.parametrize("key,module,cls,methods", TABLES["COUNTED"],
                         ids=[c[0] for c in TABLES["COUNTED"]])
def test_every_counted_method_resolves(key, module, cls, methods):
    for meth in methods:
        assert callable(resolve(module, f"{cls}.{meth}"))


def test_hooks_belong_to_spans_and_suite_criteria_are_listed():
    assert set(TABLES["HOOKS"]) <= {s[0] for s in TABLES["SPANS"]}
    suite = importlib.import_module("coideals.suite")
    assert all(callable(fn) for _, _, fn in suite.CRITERIA)
