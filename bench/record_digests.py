"""Record the sha256 of every certification's report at the default seed.

    python3 bench/record_digests.py

Runs each workload's certifications once and rewrites digests.json.
Run it only on a commit whose reports are known good: the benchmark
counts every later difference from these digests as a failure.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile

from worker import HERE, OUT, ROOT, failing_check, import_coideals
from workloads import WORKLOADS


def main():
    import_coideals()
    from coideals.suite import DEFAULT_SEED
    OUT.mkdir(exist_ok=True)
    digests = {}
    for name, build in WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
        try:
            for cert in build(DEFAULT_SEED, workdir):
                code, text, err = cert.run()
                if code != 0 or failing_check(text):
                    raise SystemExit(f"{cert.name} did not pass:\n{text}{err}")
                digests[cert.name] = hashlib.sha256(
                    text.encode("ascii")).hexdigest()
                print(cert.name, digests[cert.name], file=sys.stderr)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    with open(HERE / "digests.json", "w", encoding="ascii") as fh:
        json.dump({"seed": DEFAULT_SEED, "commit": commit or None,
                   "digests": digests}, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
