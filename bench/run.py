"""Benchmark of the coideals workbench.

    python3 bench/run.py --workload hopf_axioms --seed 20260822 \\
        --seconds 30 --trace 0

Workloads are defined, with the reason each was chosen, in workloads.py.
Each run starts the workload in its own fresh single-threaded process
(worker.py), never two at once.  With `--trace 0` it prints the
end-to-end metrics: set-up time (median over several fresh processes),
wall and CPU seconds per pass (medians), peak resident memory and the
share of certifications that passed.  With `--trace 1` it prints the
per-layer metrics of a traced run and writes its spans as JSONL under
.bench_out/.  Metric names and units come from BENCHMARK.json.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Fresh processes that only set up, half before and half after the
# measuring one, so the samples span the run: set-up time is the median
# of all of them and the measuring process.
SETUP_SAMPLES = 2
# A run must end within this many seconds.
DEADLINE_S = 170


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coideals").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spawn(args, extra, deadline):
    """Run worker.py to completion; return its JSON result."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    # a fixed hash seed keeps set iteration, and so the work done, the
    # same from process to process
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              cwd=ROOT,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker did not finish within {DEADLINE_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(res, setups):
    attempted = res["attempted"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(res["wall_s"]),
        "cpu_s": statistics.median(res["cpu_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_ratio": (attempted - res["failed"]) / attempted,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    if not (ROOT / "src" / "coideals" / "__init__.py").is_file():
        raise SystemExit(f"no coideals sources under {ROOT / 'src'}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    def setup_samples(n):
        return [spawn(args, ["--setup-only"], deadline)["setup_s"]
                for _ in range(0 if args.trace else n)]

    setups = setup_samples(SETUP_SAMPLES // 2)
    res = spawn(args, [], deadline)
    setups += [res["setup_s"]] + setup_samples(SETUP_SAMPLES // 2)

    env = dict(res["env"], nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)), commit=commit(),
               src_sha256=source_digest())
    print("env " + json.dumps(env, sort_keys=True))
    for problem in res["problems"]:
        print("FAILED " + problem)
    values = (res["layers"] if args.trace else end_to_end(res, setups))
    print(f"{args.workload} seed {args.seed}: {res['passes']} "
          f"{'traced ' if args.trace else ''}passes, "
          f"{res['attempted']} certifications, {res['failed']} failed"
          + (f", spans in {res['trace_file']}" if args.trace else ""))
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value} {m['unit']}")
    print(json.dumps({"correct": not res["problems"],
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
