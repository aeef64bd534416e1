"""One measurement process: set up, run requests in a closed loop, check them.

Started by `run.py` in a fresh interpreter, from the root of a checkout,
with `src` on PYTHONPATH. Prints one JSON line; `t_ready` is the
CLOCK_MONOTONIC time at which the inputs were ready, from which `run.py`
derives the set-up time.

  --setup-only   import, build the inputs, report t_ready and exit.
  --trace 0      untraced requests until --seconds have passed.
  --trace 1      one warm-up request, then each request twice, untraced and
                 traced, until --seconds have passed; then the Lindblad RHS
                 microbenchmark and, on lb_sweep, one Lindblad point serial
                 and pooled (jobs = nproc).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import qwcavity.cli as cli
from qwcavity.lindblad import HilbertConfig, lindblad_rhs
from qwcavity.model import Frame

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_ROOT = Path(".perfbench_out")
SETUP_REQUESTS = 8             # requests whose inputs are built during set-up
RHS_PHOTONS = (4, 8, 15)       # n_photon_max for dims 45, 81, 144 at nu_max = 2, two wells
RHS_RHO_SEED = 20230921
RHS_WARMUP = 20
RHS_BUDGET_S = 0.4
# untraced requests still wrap `evolve`, once per multi-second call, to read
# its diagnostics for the check
PLAIN = ((cli, "evolve", "lindblad.evolve"),)
TRACED = tracing.CLI_PATCHES


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Loop:
    """Runs requests of one workload, checks each and counts the results."""

    def __init__(self, workload: str, seed: int, outdir: Path):
        self.workload = workload
        self.seed = seed
        self.outdir = outdir
        self.refs = check.load_reference(workload, seed)
        self.attempted = 0
        self.failed = 0

    def request(self, index: int, tracer: tracing.Tracer, patches):
        """Run request `index` with `patches` on; return (wall_s, outcome or None)."""
        req = workloads.make_request(self.workload, self.seed, index)
        run = workloads.RUNNERS[self.workload]
        tracer.install(patches)
        first = len(tracer.spans)
        root = tracer.open("bench.request")
        t0 = time.perf_counter()
        try:
            outcome = run(req, self.outdir)
        except Exception:
            traceback.print_exc()
            outcome = None
        wall = time.perf_counter() - t0
        tracer.close(root, failed=outcome is None)
        tracer.restore()
        diags = [s.attrs["diagnostics"] for s in tracer.spans[first:] if "diagnostics" in s.attrs]
        issues = ["request raised"] if outcome is None else check.problems(
            outcome, diags, self.refs.get(index))
        for line in issues:
            print(f"check failed: {self.workload} seed {self.seed} request {index}: {line}",
                  file=sys.stderr)
        self.attempted += req.n_results
        self.failed += req.n_results if issues else 0
        return wall, outcome


def rhs_microbench() -> dict:
    """Warmed median time of one public `lindblad_rhs` call per dimension."""
    cfg = cli.two_well_config(u_over_gamma=1.0, f0_over_kappa=0.2)
    out = {}
    for n_ph in RHS_PHOTONS:
        h = HilbertConfig(n_photon_max=n_ph, nu_max=2, n_wells=2)
        dim = h.dim
        rng = np.random.default_rng(RHS_RHO_SEED)
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        t = cfg.pulse.center
        t0 = time.perf_counter()
        for _ in range(RHS_WARMUP):   # discarded: context build and cold caches
            lindblad_rhs(rho, t, cfg, h, Frame.ROTATING)
        per_call = (time.perf_counter() - t0) / RHS_WARMUP
        samples = []
        for _ in range(max(30, min(2000, int(RHS_BUDGET_S / per_call)))):
            t0 = time.perf_counter()
            lindblad_rhs(rho, t, cfg, h, Frame.ROTATING)
            samples.append(time.perf_counter() - t0)
        out[f"lindblad.rhs_us.d{dim}"] = 1e6 * statistics.median(samples)
    return out


def pool_pass(loop: Loop) -> dict:
    """One Lindblad Delta Phi point (run and baseline: two solves) at jobs = 1
    and again at the CLI's default --jobs, untraced, paired in one process."""
    req = workloads.make_request(loop.workload, loop.seed, 0)
    point = req.points()[:1]
    jobs = os.cpu_count() or 1
    walls, cpus, shifts = {}, {}, {}
    for n in (1, jobs):
        cpu0, t0 = _cpu_s(), time.perf_counter()
        shifts[n] = cli.sweep_phase_shifts(point, "lindblad", cli.SpectralPolicy(), jobs=n,
                                           dt=workloads.LB_DT, **workloads.LB_HILBERT)
        walls[n], cpus[n] = time.perf_counter() - t0, _cpu_s() - cpu0
    loop.attempted += 1
    if shifts[jobs] != shifts[1]:
        print("check failed: pooled Delta Phi differs from the serial one", file=sys.stderr)
        loop.failed += 1
    speedup = walls[1] / walls[jobs]
    return {
        "cli.pool.jobs": jobs,
        "cli.pool.speedup": speedup,
        "cli.pool.efficiency": speedup / jobs,
        "cli.pool.cpu_per_wall": cpus[jobs] / walls[jobs],
    }


def measure(args) -> dict:
    outdir = OUT_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    loop = Loop(args.workload, args.seed, outdir)
    inputs = [workloads.make_request(args.workload, args.seed, i).configs()
              for i in range(SETUP_REQUESTS)]
    t_ready = time.monotonic()
    if args.setup_only:
        return {"t_ready": t_ready, "inputs": len(inputs)}

    outdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            return {"t_ready": t_ready, **traced(loop, args.seconds)}
        return {"t_ready": t_ready, **untraced(loop, args.seconds)}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def untraced(loop: Loop, seconds: float) -> dict:
    walls = []
    t_start = time.perf_counter()
    index = 0
    while not walls or time.perf_counter() - t_start < seconds:
        wall, _ = loop.request(index, tracing.Tracer(), PLAIN)
        walls.append(wall)
        index += 1
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "walls_s": walls,
        "metrics": {
            "wall_s": statistics.median(walls),
            "results_per_s": (loop.attempted - loop.failed) / sum(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def traced(loop: Loop, seconds: float) -> dict:
    tracer = tracing.Tracer()
    plain_walls, traced_walls = [], []
    cpu = 0.0
    t_start = time.perf_counter()
    # request 0 warms lazy imports and first-call paths, so the first pair
    # does not charge them to whichever copy runs first
    loop.request(0, tracing.Tracer(), PLAIN)
    index = 1
    pair_s = 0.0
    # start a pair only if it should end within --seconds: the pooled pass
    # and the microbenchmark still follow
    while not traced_walls or time.perf_counter() - t_start + pair_s < seconds:
        t_pair = time.perf_counter()
        # alternate which copy runs first, so warm caches favour neither
        order = (False, True) if index % 2 == 0 else (True, False)
        for full in order:
            if full:
                cpu0 = _cpu_s()
                wall, _ = loop.request(index, tracer, TRACED)
                cpu += _cpu_s() - cpu0
                traced_walls.append(wall)
            else:
                wall, _ = loop.request(index, tracing.Tracer(), PLAIN)
                plain_walls.append(wall)
        pair_s = time.perf_counter() - t_pair
        index += 1
    metrics = tracing.summarize(tracer.spans)
    traced_s = sum(traced_walls)
    metrics.update({
        "proc.cpu_s": cpu,
        "trace.overhead_frac": traced_s / sum(plain_walls) - 1.0,
        "trace.accounted_frac": 1.0 - metrics["bench.layer_self_s"] / traced_s,
        "cli.pool.jobs": 1,
        "cli.pool.speedup": 1.0,
        "cli.pool.efficiency": 1.0,
        "cli.pool.cpu_per_wall": cpu / traced_s,
    })
    metrics.update(rhs_microbench())
    if loop.workload == "lb_sweep":
        metrics.update(pool_pass(loop))
    spans_path = OUT_ROOT / f"spans-{loop.workload}-seed{loop.seed}.json"
    spans_path.write_text(json.dumps(tracer.dump()) + "\n")
    return {
        "attempted": loop.attempted,
        "failed": loop.failed,
        "walls_s": traced_walls,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
