"""Seeded inputs and request bodies of the benchmark workloads.

A workload is an endless, deterministic stream of requests. Request `i`
of workload `w` under seed `s` draws its parameters from
`random.Random(f"{w}:{s}:{i}")`, so the same (w, s, i) always yields the
same configs and the program never sees the seed itself. Each request is
stratified so that its cost hardly depends on the draw: that keeps the
median request time steady from one seed to the next.

Every program call goes through an attribute of `qwcavity.cli` (or a
method of a result type), so the tracer in `tracing.py` can wrap exactly
what the CLI itself calls.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import qwcavity.cli as cli

WORKLOADS = ("mf_sweep", "lb_sweep", "trace_bundle")

F3_RANGE = (0.02, 0.5)      # F0/kappa, fig3-shaped grid
U3_RANGE = (0.1, 2.0)       # U/gamma, fig3-shaped grid
F4_RANGE = (0.05, 0.5)      # F0/kappa, fig4-shaped pairs
G4_RANGE = (0.5, 1.5)       # gamma2/gamma1
W4_RANGE = (-0.02, 0.12)    # d_omega/omega0 (preset convention: omega2 = omega0 * (1 + 2 f))
F5_RANGE = (0.05, 0.5)      # F0/kappa, fig5-style Lindblad points
U5_VALUES = (0.5, 2.0)      # U/gamma, both in every request so the baseline is shared
GAMMA2_SLOW = (0.6, 2.4)    # fig2-style decay rates, log-uniform; below 2.4 the
GAMMA2_FAST = (2.4, 10.0)   # trace length grows as 1/gamma, above it is fixed
F2_STRONG = (0.1, 0.3)
F2_WEAK = 0.01

N_F3 = 7   # fit_alpha needs >= 5 drive points per U
N_U3 = 3
N_F4 = 3
LB_DT = 0.004
TRACE_DT = 1e-4
LB_HILBERT = {"n_photon_max": 8, "nu_max": 2}


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw inside each of n equal slices of [lo, hi]."""
    return [lo + (k + rng.random()) * (hi - lo) / n for k in range(n)]


@dataclass(frozen=True)
class Request:
    workload: str
    seed: int
    index: int
    params: dict

    def configs(self) -> list:
        """Every SystemConfig this request hands to the program."""
        if self.workload == "trace_bundle":
            return [cfg for _, strong, weak in self.trace_pairs() for cfg in (strong, weak)]
        return [cfg for _, cfg in self.points()]

    @property
    def n_results(self) -> int:
        """Delta Phi points, or trajectories for the trace bundle."""
        return len(self.configs())

    # --- sweep workloads -------------------------------------------------

    def points(self) -> list:
        p = self.params
        if self.workload == "mf_sweep":
            return self.fig3_points() + self.fig4_points()
        return [
            ((ug, p["f0"]), cli.two_well_config(u_over_gamma=ug, f0_over_kappa=p["f0"]))
            for ug in U5_VALUES
        ]

    def fig3_points(self) -> list:
        p = self.params
        return [
            ((ug, r), cli.two_well_config(u_over_gamma=ug, f0_over_kappa=r))
            for ug in p["u3"] for r in p["f3"]
        ]

    def fig4_points(self) -> list:
        p = self.params
        out = []
        for r, g2, w2 in zip(p["f4"], p["gamma2_ratio"], p["domega"]):
            out.append((("gamma2", g2, r), cli.two_well_config(
                u_over_gamma=0.5, f0_over_kappa=r, gamma2=g2 * cli.BASE_GAMMA)))
            out.append((("domega", w2, r), cli.two_well_config(
                u_over_gamma=0.5, f0_over_kappa=r, omega2=cli.BASE_OMEGA * (1.0 + 2.0 * w2))))
        return out

    # --- trace bundle ----------------------------------------------------

    def trace_pairs(self) -> list:
        """(gamma, strong config, weak config) for each drawn decay rate."""
        out = []
        for gamma, strong in zip(self.params["gammas"], self.params["f_strong"]):
            make = lambda r: cli.two_well_config(
                u_over_gamma=1.0, f0_over_kappa=r, gamma1=gamma, gamma2=gamma)
            out.append((gamma, make(strong), make(F2_WEAK)))
        return out


def make_request(workload: str, seed: int, index: int) -> Request:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "mf_sweep":
        params = {
            "u3": _strata(rng, *U3_RANGE, N_U3),
            "f3": _strata(rng, *F3_RANGE, N_F3),
            "f4": _strata(rng, *F4_RANGE, N_F4),
            "gamma2_ratio": _strata(rng, *G4_RANGE, N_F4),
            # a detuned well costs the RK solver steps in proportion to
            # |d_omega|, so every request spans the whole range
            "domega": _strata(rng, *W4_RANGE, N_F4)[::-1],
        }
    elif workload == "trace_bundle":
        # an antithetic pair of slow decays (u, 1 - u in log gamma) plus one
        # fast decay keeps the bundle's total trace length nearly fixed
        lo, hi = (math.log(g) for g in GAMMA2_SLOW)
        u = rng.random()
        params = {
            "gammas": [math.exp(lo + u * (hi - lo)), math.exp(hi - u * (hi - lo)),
                       math.exp(rng.uniform(*(math.log(g) for g in GAMMA2_FAST)))],
            "f_strong": [rng.uniform(*F2_STRONG) for _ in range(3)],
        }
    else:
        # alternate halves of the drive range from one request to the next
        params = {"f0": _strata(rng, *F5_RANGE, 2)[index % 2]}
    return Request(workload, seed, index, params)


# --- request bodies -------------------------------------------------------

@dataclass
class Outcome:
    """What one request produced; `check.py` judges it."""

    dphi: dict          # label -> float, every Delta Phi(omega0) computed
    files: dict         # file name -> path of every data file written
    delays: dict        # gamma label -> list of delay floats
    pairs_missing: int = 0


def _label(*parts) -> str:
    return "|".join(repr(p) if isinstance(p, float) else str(p) for p in parts)


def run_mf_sweep(req: Request, outdir: Path) -> Outcome:
    policy = cli.SpectralPolicy()
    fig3 = cli.sweep_phase_shifts(
        req.fig3_points(), "meanfield", policy, sources=("cavity", "bright"))
    fig4 = cli.sweep_phase_shifts(req.fig4_points(), "meanfield", policy)
    dphi, files = {}, {}
    for (ug, r), s in fig3:
        for src, v in s.items():
            dphi[_label("fig3", ug, r, src)] = v
    for (kind, f, r), s in fig4:
        dphi[_label("fig4", kind, f, r, "cavity")] = s["cavity"]
    for k, ug in enumerate(req.params["u3"]):
        pts = [(r, s["cavity"]) for (u, r), s in fig3 if u == ug]
        fit = cli.fit_alpha(pts, cli.two_well_config(u_over_gamma=ug, f0_over_kappa=0.1))
        path = outdir / f"alpha_u{k}.json"
        cli.write_fit_json(fit, path)
        files[path.name] = path
    return Outcome(dphi=dphi, files=files, delays={})


def run_lb_sweep(req: Request, outdir: Path) -> Outcome:
    policy = cli.SpectralPolicy()
    points = req.points()
    mf = dict(cli.sweep_phase_shifts(points, "meanfield", policy, dt=LB_DT))
    lb = dict(cli.sweep_phase_shifts(points, "lindblad", policy, dt=LB_DT, **LB_HILBERT))
    dphi, missing = {}, 0
    for label, _ in points:
        if label not in mf or label not in lb:
            missing += 1
            continue
        dphi[_label("meanfield", *label)] = mf[label]["cavity"]
        dphi[_label("lindblad", *label)] = lb[label]["cavity"]
    return Outcome(dphi=dphi, files={}, delays={}, pairs_missing=missing)


def run_trace_bundle(req: Request, outdir: Path) -> Outcome:
    policy = cli.SpectralPolicy()
    files, delays = {}, {}
    manifest = []
    for k, (gamma, strong_cfg, weak_cfg) in enumerate(req.trace_pairs()):
        # same span rule as the fig2 preset: keep post-pulse extrema of fast
        # decays above the amplitude floor
        span = (0.0, max(cli.fid_time_span(strong_cfg, policy)[1],
                         cli.BASE_T0 + 2 * cli.BASE_T + 3.0))
        trajs = {tag: cli.integrate(cfg, span, dt=TRACE_DT)
                 for tag, cfg in (("strong", strong_cfg), ("weak", weak_cfg))}
        series = cli.time_delay(trajs["strong"], trajs["weak"])
        delays[f"g{k}"] = [float(d) for d in series.delays]
        for tag, traj in trajs.items():
            for suffix, write in (("csv", traj.write_csv), ("json", traj.write_sidecar)):
                path = outdir / f"trace_g{k}_{tag}.{suffix}"
                write(path)
                files[path.name] = path
                manifest.append({"path": path.name, "bytes": path.stat().st_size})
    (outdir / "manifest.json").write_text(json.dumps({"files": manifest}, indent=2) + "\n")
    return Outcome(dphi={}, files=files, delays=delays)


RUNNERS = {
    "mf_sweep": run_mf_sweep,
    "lb_sweep": run_lb_sweep,
    "trace_bundle": run_trace_bundle,
}
