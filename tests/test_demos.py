"""The demo scripts print the same bytes: each runs in a fresh process and
its stdout is compared with a sha256 digest recorded from the demos'
output before the helpers they reach were folded together."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coideals

DEMOS = Path(__file__).resolve().parents[1] / "demos"

DIGESTS = {
    "coend_equivalence.py":
        "965a8f283bc6ebde762cf17b1d04c2501860646c9fb909148124e906f0948937",
    "correspondence_tour.py":
        "df6bbb17a5fc6633699e016d488aa2fd19d0dceb79314ff8fb634021b9b7ddac",
    "group_function_subgroups.py":
        "800f6b0396dba997e4bc6c2125131e11bcf69eb3517d880300d175b2e82cb333",
    "reconstruction_pipeline.py":
        "0e45c0f527d76d6a7ea8f3bd312342aeabf18aeec48b69ce33ec33c123f23100",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_stdout_is_pinned(name):
    src = str(Path(coideals.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, str(DEMOS / name)],
                         capture_output=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == DIGESTS[name]


def test_ks4_theorem2_script_passes():
    # k^S4, the largest pipeline the workbench runs; the script exits 0
    # only when every check passed and its report sha256 is the pinned one
    src = str(Path(coideals.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, str(DEMOS.parent / "scripts" / "ks4_theorem2.py")],
                         capture_output=True, env=env, timeout=120)
    assert out.returncode == 0, out.stdout.decode() + out.stderr.decode()


def test_paired_passes_script_times_a_tree_against_itself():
    # both sides are this checkout's src, so the outputs must agree, every
    # round times both sides, and the summary names both and the ratio
    src = str(Path(coideals.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, str(DEMOS.parent / "scripts" / "paired_passes.py"),
                          src, src, "--workload", "theorem2_cli", "--seconds", "1"],
                         capture_output=True, env=env, timeout=120, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["parent", "change"]
    wins, rounds = map(int, lines[2].split(" in ")[1].split()[0].split("/"))
    assert lines[2].startswith("median ratio change/parent ")
    assert 0 <= wins <= rounds and rounds >= 1
