"""Two traced runs of a workload count exactly the same work.

    python3 -m pytest bench/test_traced_counts.py

Each run is a fresh `run.py --trace 1` process with a one-second window,
so it makes one plain and one traced pass.  Every counter (calls, rref
cells, field operations, result nonzeros, recorded checks) must agree
between the two runs.  Both use one seed: the seeded spot checks of
`gamma` draw different vectors for different seeds, so the number of
field operations depends on it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from tracer import is_exact  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=170)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout
    return {k: m["value"] for k, m in result["metrics"].items() if is_exact(k)}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_traced_runs_count_the_same_work(workload):
    first = traced_counts(workload, 11)
    second = traced_counts(workload, 11)
    assert first == second
    assert first["certs.checks"] > 0
