"""Seeded qwcavity benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mf_sweep --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in BENCHMARK.json. The run starts
SETUP_PROBES fresh interpreters that only import qwcavity and build the
inputs, then one measurement interpreter (`measure.py`). `setup_s` is the
median, over all of them, of the time from spawning the interpreter to
its inputs being ready. With --trace 0 the result holds the end-to-end
metrics, with --trace 1 the per-layer ones. A provenance line (machine,
BLAS, versions, commit, source size) is printed just before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path("src")
PACKAGE = SRC / "qwcavity"
SETUP_PROBES = 4
DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child(args, extra, timeout):
    """Run measure.py in a fresh interpreter; return (spawn time, parsed last line)."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.resolve()), env.get("PYTHONPATH")]))
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"measure.py exited with {proc.returncode}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def provenance() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in BLAS_ENV if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "unset -> library default",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py"))),
    }


def main(argv=None) -> int:
    spec_path = Path("BENCHMARK.json")
    if not (PACKAGE / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the root of a qwcavity checkout (src/qwcavity and BENCHMARK.json "
              "not found)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    p = argparse.ArgumentParser(description="qwcavity benchmark, one workload per run")
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    t_start = time.monotonic()
    setups = []
    for _ in range(SETUP_PROBES):
        t_spawn, probe = _child(args, ["--setup-only"], timeout=60)
        setups.append(probe["t_ready"] - t_spawn)
    budget = DEADLINE_S - (time.monotonic() - t_start)
    t_spawn, res = _child(
        args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], timeout=budget)
    setups.append(res["t_ready"] - t_spawn)

    measured = dict(res["metrics"], setup_s=statistics.median(setups))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"{args.workload} seed {args.seed}: {len(res['walls_s'])} requests, "
          f"{res['failed']}/{res['attempted']} results failed", file=sys.stderr)
    print(json.dumps({"provenance": provenance(), "workload": args.workload, "seed": args.seed,
                      "request_walls_s": res["walls_s"], "setup_samples_s": setups}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
