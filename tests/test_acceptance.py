"""Acceptance battery: every stated criterion as one pass/fail line.

Each criterion runs through the same functions the command line suite
uses, at the stated exactness (all arithmetic is exact, so tolerance is
equality) and within the stated time budgets, which the criterion
functions enforce internally.  The final test runs the whole battery
twice with the same seed and byte-compares the serialized reports.
"""

import hashlib

import pytest

from coideals.suite import CRITERIA, DEFAULT_SEED, run_all


@pytest.mark.parametrize(
    "num,label,fn", CRITERIA,
    ids=[f"{num:02d}-{label.replace(' ', '-')}" for num, label, _ in CRITERIA])
def test_criterion(num, label, fn):
    ok, detail = fn(DEFAULT_SEED)
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {label}"
          f" ({detail})")
    assert ok, detail


def test_criterion_12_determinism():
    first = run_all(DEFAULT_SEED)
    second = run_all(DEFAULT_SEED)
    ok = first.serialize() == second.serialize() and first.ok
    print(f"criterion 12 {'PASS' if ok else 'FAIL'}: determinism of the "
          f"battery (two full runs byte-identical, "
          f"{first.elapsed + second.elapsed:.1f}s total)")
    assert first.serialize() == second.serialize()
    # recorded before the CLI report and the library report became one class
    assert hashlib.sha256(first.serialize().encode("ascii")).hexdigest() \
        == "7bd3a438bc88d6174fb813b7e9475ac2690326c03da4b3440cf3c69a1181c129"
    assert first.ok and second.ok
    assert first.elapsed + second.elapsed < 120.0
