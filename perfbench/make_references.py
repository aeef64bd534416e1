"""Write the correctness references of one workload and seed.

    PYTHONPATH=src python3 perfbench/make_references.py --workload mf_sweep --seed 1 --requests 12

Runs requests 0..N-1 exactly as the benchmark does (jobs = 1) and stores
every Delta Phi(omega0), every time delay and the sha256 of every data
file in perfbench/references/<workload>_seed<seed>.json. Regenerate only
on a commit whose physics is trusted: the benchmark then holds later
commits to these numbers (1e-10 relative) and bytes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--requests", type=int, required=True)
    args = p.parse_args(argv)
    outdir = Path(".perfbench_out") / f"references-{args.workload}-{args.seed}"
    outdir.mkdir(parents=True, exist_ok=True)
    records = []
    try:
        for i in range(args.requests):
            req = workloads.make_request(args.workload, args.seed, i)
            outcome = workloads.RUNNERS[args.workload](req, outdir)
            issues = check.problems(outcome, [], None)
            if issues:
                print(f"request {i} fails the any-seed check: {issues}", file=sys.stderr)
                return 1
            records.append(check.record(i, outcome))
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    check.REF_DIR.mkdir(exist_ok=True)
    path = check.ref_path(args.workload, args.seed)
    payload = {"workload": args.workload, "seed": args.seed, "requests": records}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(records)} requests)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
