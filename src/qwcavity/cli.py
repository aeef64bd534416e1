"""Configuration-driven experiment runner.

Subcommands: simulate, sweep, spectrum, fit-alpha, compare, preset. Data
files are CSV/JSON with deterministic formatting, so re-running a spec
reproduces them byte for byte; wall-clock timestamps only ever appear in
the manifest. Exit codes: 0 ok, 2 config error, 3 solver failure, 4
validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, GridError, SolverError, TruncationError, ValidationError
from .model import (
    CavityParams,
    DipoleParams,
    Frame,
    PulseParams,
    SystemConfig,
    config_digest,
    format_config,
    load_config,
    parse_config,
    set_config_value,
    write_json,
    write_table,
)
from .meanfield import integrate
from .lindblad import DIM_CAP_DEFAULT, HilbertConfig, evolve, vacuum_state, write_checkpoints
from .spectral import (
    SpectralPolicy,
    baseline_config,
    fid_time_span,
    fit_alpha,
    phase_pipeline,
    relative_phase,
    time_delay,
    write_fit_json,
    write_phase_csv,
)

N_PHOTON_MAX_DEFAULT = 8
NU_MAX_DEFAULT = 2

log = logging.getLogger("qwcavity")


@dataclass(frozen=True)
class SweepAxis:
    key: str
    values: tuple


@dataclass(frozen=True)
class ExperimentSpec:
    config: SystemConfig
    solver: str = "meanfield"  # meanfield | lindblad | both
    sweep: tuple = ()
    policy: SpectralPolicy = SpectralPolicy()
    n_photon_max: int = N_PHOTON_MAX_DEFAULT
    nu_max: int = NU_MAX_DEFAULT
    out: str = "out"
    jobs: int = 1

    def __post_init__(self):
        if self.solver not in ("meanfield", "lindblad", "both"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if not self.sweep:
            raise ConfigError("an experiment spec needs at least one sweep axis")
        for axis in self.sweep:
            set_config_value(self.config, axis.key, axis.values[0])  # resolves or raises


# --- manifest ---------------------------------------------------------------

def _write_manifest(outdir: Path, cfg: SystemConfig, files: list[Path]) -> None:
    entries = []
    for f in sorted(files):
        data = f.read_bytes()
        entries.append(
            {"path": f.name, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        )
    write_json(
        outdir / "manifest.json",
        {
            "files": entries,
            "config_digest": config_digest(cfg),
            "created": datetime.now(timezone.utc).isoformat(),
            "tool": f"qwcavity {__version__}",
        },
    )


# --- solver plumbing --------------------------------------------------------

def _solve(cfg: SystemConfig, solver: str, policy: SpectralPolicy, n_photon_max: int, nu_max: int,
           dt: float | None = None, t_span=None):
    span = t_span if t_span is not None else fid_time_span(cfg, policy)
    if solver == "meanfield":
        return integrate(cfg, span, dt=dt)
    h = HilbertConfig(n_photon_max=n_photon_max, nu_max=nu_max, n_wells=cfg.n_wells)
    while True:
        try:
            return evolve(vacuum_state(h), span, cfg, h, dt=dt)
        except TruncationError as exc:
            # raise the Fock cutoff until the drive fits under it
            try:
                h = HilbertConfig(h.n_photon_max + 2, h.nu_max, h.n_wells)
            except ConfigError:
                raise TruncationError(
                    f"drive needs n_photon_max > {h.n_photon_max} but the dimension cap "
                    f"{DIM_CAP_DEFAULT} forbids it"
                ) from None
            log.warning("%s; restarting from t=%s with n_photon_max=%d", exc, span[0], h.n_photon_max)


def _spectra_worker(args):
    """Integrate one config and return its phase spectra per source."""
    cfg_text, solver, n_ph, nu_max, policy, sources, dt = args
    cfg = parse_config(cfg_text)
    traj = _solve(cfg, solver, policy, n_ph, nu_max, dt=dt)
    return {src: phase_pipeline(traj, policy, src) for src in sources}


def _run_spectra(tasks: dict, jobs: int):
    """tasks: key -> worker args; returns key -> {source: PhaseSpectrum}."""
    keys = list(tasks)
    if jobs <= 1 or len(keys) <= 1:
        return {k: _spectra_worker(tasks[k]) for k in keys}
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_spectra_worker, [tasks[k] for k in keys]))
    return dict(zip(keys, results))


def _phase_shift_tasks(points, solver, policy, n_ph, nu_max, sources=("cavity",), dt=None):
    """Deduplicated run+baseline task table for a list of (label, cfg)."""
    tasks = {}
    pairs = []
    for label, cfg in points:
        k_run = ("run", format_config(cfg))
        k_base = ("base", format_config(baseline_config(cfg, policy)))
        for key in (k_run, k_base):
            tasks[key] = (key[1], solver, n_ph, nu_max, policy, tuple(sources), dt)
        pairs.append((label, k_run, k_base))
    return tasks, pairs


def sweep_phase_shifts(points, solver, policy, *, n_photon_max=N_PHOTON_MAX_DEFAULT,
                       nu_max=NU_MAX_DEFAULT, sources=("cavity",), jobs=1, dt=None):
    """Delta Phi(omega0) for labelled configs, baselines shared and cached."""
    tasks, pairs = _phase_shift_tasks(points, solver, policy, n_photon_max, nu_max, sources, dt)
    done = _run_spectra(tasks, jobs)
    out = []
    for label, k_run, k_base in pairs:
        shifts = {
            src: relative_phase(done[k_run][src], done[k_base][src]).dphi_at_resonance
            for src in sources
        }
        out.append((label, shifts))
    return out


def run(spec: ExperimentSpec) -> list:
    """Execute an experiment spec and write its result bundle: one
    phase-shift table per solver. The manifest is written last and is the
    only file carrying a wall-clock timestamp.
    """
    outdir = Path(spec.out)
    outdir.mkdir(parents=True, exist_ok=True)
    solvers = ["meanfield", "lindblad"] if spec.solver == "both" else [spec.solver]
    files = []
    grids = [[]]
    for axis in spec.sweep:
        grids = [g + [(axis.key, v)] for g in grids for v in axis.values]
    points = []
    for assignment in grids:
        c = spec.config
        for key, value in assignment:
            c = set_config_value(c, key, value)
        points.append((tuple(v for _, v in assignment), c))

    for solver in solvers:
        shifts = sweep_phase_shifts(
            points, solver, spec.policy, n_photon_max=spec.n_photon_max,
            nu_max=spec.nu_max, sources=("cavity", "bright"), jobs=spec.jobs,
        )
        table = outdir / f"sweep_{solver}.csv"
        write_table(
            table,
            [f"solver: {solver}", f"baseline: {spec.policy.baseline_mode}"],
            [axis.key for axis in spec.sweep] + ["dphi_cavity", "dphi_dipole"],
            [(*label, s["cavity"], s["bright"]) for label, s in shifts],
        )
        files.append(table)
    _write_manifest(outdir, spec.config, files)
    return files


# --- frozen figure presets --------------------------------------------------

BASE_OMEGA = 40.0
BASE_KAPPA = 12.0
BASE_GAMMA = 0.6
BASE_SQRTN_G = 1.0
BASE_T = 0.155
BASE_T0 = 0.6
PRESET_IDS = ("fig2", "fig3", "fig4a", "fig4b", "fig5a", "fig5b", "fig5c")


def two_well_config(
    *,
    u_over_gamma: float,
    f0_over_kappa: float,
    gamma1: float = BASE_GAMMA,
    gamma2: float | None = None,
    omega2: float | None = None,
) -> SystemConfig:
    """Standard two-well operating point from the common parameter set."""
    g = BASE_SQRTN_G / math.sqrt(2.0)
    u = u_over_gamma * BASE_GAMMA
    d1 = DipoleParams(omega=BASE_OMEGA, anharmonicity=u, gamma=gamma1, coupling=g)
    d2 = DipoleParams(
        omega=omega2 if omega2 is not None else BASE_OMEGA,
        anharmonicity=u,
        gamma=gamma2 if gamma2 is not None else gamma1,
        coupling=g,
    )
    return SystemConfig(
        cavity=CavityParams(omega_c=BASE_OMEGA, kappa=BASE_KAPPA),
        dipoles=(d1, d2),
        pulse=PulseParams(
            amplitude=f0_over_kappa * BASE_KAPPA, carrier=BASE_OMEGA, center=BASE_T0, duration=BASE_T
        ),
        frame=Frame.ROTATING,
    )


@dataclass(frozen=True)
class FigurePreset:
    preset_id: str
    description: str
    base: SystemConfig


def get_preset(preset_id: str) -> FigurePreset:
    if preset_id not in PRESET_IDS:
        raise ConfigError(f"unknown preset {preset_id!r}; choose from {PRESET_IDS}")
    base = two_well_config(u_over_gamma=1.0, f0_over_kappa=0.2)
    descriptions = {
        "fig2": "strong/weak FID traces and extremum time delays, gamma = 0.6 and 10.0",
        "fig3": "Delta Phi(omega0) vs drive for U/gamma in {0.1, 0.5, 1.0} with alpha fits",
        "fig4a": "decay-rate inhomogeneity: gamma2/gamma1 in {0.5, 1.0, 1.5}",
        "fig4b": "frequency inhomogeneity: d_omega/omega0 in {-0.02, 0, 0.02, 0.12}",
        "fig5a": "mean-field vs Lindblad Delta Phi(omega0), U = 0.5 gamma1",
        "fig5b": "mean-field vs Lindblad Delta Phi(omega0), U = 2.0 gamma1",
        "fig5c": "second-level population dynamics at F0 = 0.3 kappa",
    }
    return FigurePreset(preset_id=preset_id, description=descriptions[preset_id], base=base)


F_GRID_FIG3 = tuple(float(r) for r in np.round(np.linspace(0.02, 0.2, 7), 10))
F_GRID_FIG4 = tuple(float(r) for r in np.round(np.linspace(0.05, 0.5, 7), 10))
F_GRID_FIG5 = (0.05, 0.125, 0.2, 0.275, 0.35, 0.425, 0.5)


def _preset_fig2(outdir: Path, policy: SpectralPolicy, jobs: int) -> list[Path]:
    files = []
    for gamma in (0.6, 10.0):
        trajs = {}
        for tag, ratio in (("strong", 0.2), ("weak", 0.01)):
            cfg = two_well_config(u_over_gamma=1.0, f0_over_kappa=ratio, gamma1=gamma, gamma2=gamma)
            # extend past the FID window so fast-decay traces keep post-pulse
            # extrema above the matching amplitude floor
            span = (0.0, max(fid_time_span(cfg, policy)[1], BASE_T0 + 2 * BASE_T + 3.0))
            # dense grid so extremum offsets of a few 1e-4 ps stay resolved
            traj = integrate(cfg, span, dt=1e-4)
            trajs[tag] = traj
            path = outdir / f"fig2_trace_gamma{gamma}_{tag}.csv"
            traj.write_csv(path)
            files.append(path)
        delays = time_delay(trajs["strong"], trajs["weak"])
        path = outdir / f"fig2_delay_gamma{gamma}.csv"
        write_table(
            path,
            [f"gamma = {gamma}", "delay of strong-drive extrema relative to weak drive"],
            ["t", "delay", "kind"],
            list(zip(delays.times, delays.delays, delays.kinds)),
        )
        files.append(path)
    return files


def _preset_fig3(outdir: Path, policy: SpectralPolicy, jobs: int) -> list[Path]:
    points = [
        ((ug, r), two_well_config(u_over_gamma=ug, f0_over_kappa=r))
        for ug in (0.1, 0.5, 1.0)
        for r in F_GRID_FIG3
    ]
    shifts = sweep_phase_shifts(points, "meanfield", policy, sources=("cavity", "bright"), jobs=jobs)
    rows = [
        (ug, r, s["cavity"], s["bright"]) for (ug, r), s in shifts
    ]
    table = outdir / "fig3_phase_shifts.csv"
    write_table(
        table,
        ["nonlinear phase shift at omega0 vs drive ratio"],
        ["u_over_gamma", "f0_over_kappa", "dphi_cavity", "dphi_dipole"],
        rows,
    )
    files = [table]
    for ug in (0.1, 0.5, 1.0):
        pts = [(r, s["cavity"]) for (u, r), s in shifts if u == ug]
        result = fit_alpha(pts, two_well_config(u_over_gamma=ug, f0_over_kappa=0.1))
        path = outdir / f"fig3_alpha_u{ug}.json"
        write_fit_json(result, path)
        files.append(path)
    return files


def _preset_fig4(outdir: Path, policy: SpectralPolicy, jobs: int, which: str) -> list[Path]:
    if which == "fig4a":
        cases = [("gamma2_over_gamma1", f) for f in (0.5, 1.0, 1.5)]
        make = lambda f, r: two_well_config(u_over_gamma=0.5, f0_over_kappa=r, gamma2=f * BASE_GAMMA)
    else:
        cases = [("domega_over_omega0", f) for f in (-0.02, 0.0, 0.02, 0.12)]
        make = lambda f, r: two_well_config(
            u_over_gamma=0.5, f0_over_kappa=r, omega2=BASE_OMEGA + 2.0 * f * BASE_OMEGA
        )
    points = [((name, f, r), make(f, r)) for name, f in cases for r in F_GRID_FIG4]
    shifts = sweep_phase_shifts(points, "meanfield", policy, jobs=jobs)
    table = outdir / f"{which}_phase_shifts.csv"
    write_table(
        table,
        ["nonlinear phase shift at omega0, U = 0.5 gamma1"],
        [cases[0][0], "f0_over_kappa", "dphi_cavity"],
        [(f, r, s["cavity"]) for (name, f, r), s in shifts],
    )
    return [table]


def _preset_fig5(outdir: Path, policy: SpectralPolicy, jobs: int, which: str,
                 n_photon_max: int, nu_max: int) -> list[Path]:
    ug = 0.5 if which == "fig5a" else 2.0
    points = [
        (r, two_well_config(u_over_gamma=ug, f0_over_kappa=r)) for r in F_GRID_FIG5
    ]
    mf = dict(sweep_phase_shifts(points, "meanfield", policy, jobs=jobs, dt=0.004))
    lb = dict(
        sweep_phase_shifts(
            points, "lindblad", policy, n_photon_max=n_photon_max, nu_max=nu_max, jobs=jobs, dt=0.004
        )
    )
    rows = [(r, mf[r]["cavity"], lb[r]["cavity"]) for r in F_GRID_FIG5]
    table = outdir / f"{which}_phase_shifts.csv"
    write_table(
        table,
        [f"U = {ug} gamma1; mean-field vs Lindblad"],
        ["f0_over_kappa", "dphi_meanfield", "dphi_lindblad"],
        rows,
    )
    report = compare_tables(rows)
    path = outdir / f"{which}_compare.json"
    write_json(path, report)
    return [table, path]


def _preset_fig5c(outdir: Path, policy: SpectralPolicy, jobs: int,
                  n_photon_max: int, nu_max: int) -> list[Path]:
    series = {}
    t_ref = None
    for ug in (0.5, 1.0, 2.0):
        cfg = two_well_config(u_over_gamma=ug, f0_over_kappa=0.3)
        h = HilbertConfig(n_photon_max=n_photon_max, nu_max=nu_max, n_wells=2)
        res = evolve(vacuum_state(h), fid_time_span(cfg, policy), cfg, h, dt=0.004)
        series[ug] = res.second_level_population()
        t_ref = res.t
    table = outdir / "fig5c_p2.csv"
    cols = ["t"] + [f"p2_u{ug}" for ug in (0.5, 1.0, 2.0)]
    rows = zip(t_ref, series[0.5], series[1.0], series[2.0])
    write_table(table, ["per-well second-level population, F0 = 0.3 kappa"], cols, rows)
    return [table]


def run_preset(preset_id: str, outdir: Path, *, policy: SpectralPolicy | None = None,
               jobs: int = 1, n_photon_max: int = N_PHOTON_MAX_DEFAULT,
               nu_max: int = NU_MAX_DEFAULT) -> list[Path]:
    preset = get_preset(preset_id)
    policy = policy or SpectralPolicy()
    outdir.mkdir(parents=True, exist_ok=True)
    cfg_path = outdir / f"{preset_id}_base_config.txt"
    cfg_path.write_text(format_config(preset.base))
    files = [cfg_path]
    if preset_id == "fig2":
        files += _preset_fig2(outdir, policy, jobs)
    elif preset_id == "fig3":
        files += _preset_fig3(outdir, policy, jobs)
    elif preset_id in ("fig4a", "fig4b"):
        files += _preset_fig4(outdir, policy, jobs, preset_id)
    elif preset_id in ("fig5a", "fig5b"):
        files += _preset_fig5(outdir, policy, jobs, preset_id, n_photon_max, nu_max)
    else:
        files += _preset_fig5c(outdir, policy, jobs, n_photon_max, nu_max)
    _write_manifest(outdir, preset.base, files)
    return files


# --- compare ----------------------------------------------------------------

def compare_tables(rows) -> dict:
    """Per-point mean-field/Lindblad ratio and regime classification."""
    floor = 1e-5
    table = []
    for r, mf, lb in rows:
        if abs(mf) < floor and abs(lb) < floor:
            regime = "negligible"
            ratio = float("nan")
        else:
            ratio = mf / lb if lb != 0 else float("inf")
            regime = "agree" if 0.5 <= ratio <= 2.0 else "breakdown"
        table.append(
            {"f0_over_kappa": r, "dphi_meanfield": mf, "dphi_lindblad": lb,
             "ratio": ratio, "regime": regime}
        )
    return {"points": table, "floor": floor}


def _read_table(path: Path) -> tuple[list[str], list[list[float]]]:
    cols, rows = None, []
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        if cols is None:
            cols = line.split(",")
            continue
        rows.append([float(v) for v in line.split(",")])
    if cols is None:
        raise ConfigError(f"{path}: empty table")
    return cols, rows


# --- CLI --------------------------------------------------------------------

def _apply_overrides(cfg: SystemConfig, overrides: list[str]) -> SystemConfig:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg = set_config_value(cfg, key.strip(), value.strip())
    return cfg


def _policy_from_args(args) -> SpectralPolicy:
    """SpectralPolicy with the fields the subcommand has flags for and the user set."""
    given = {"baseline_mode": getattr(args, "baseline", None), "t_off_factor": args.t_off_factor}
    return SpectralPolicy(**{k: v for k, v in given.items() if v is not None})


def _cmd_simulate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args.override)
    policy = _policy_from_args(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    solvers = ["meanfield", "lindblad"] if args.solver == "both" else [args.solver]
    for solver in solvers:
        traj = _solve(cfg, solver, policy, args.n_photon_max, args.nu_max)
        csv_path = outdir / f"{solver}.csv"
        traj.write_csv(csv_path)
        traj.write_sidecar(outdir / f"{solver}.json")
        files += [csv_path, outdir / f"{solver}.json"]
        if solver == "lindblad" and args.checkpoints:
            write_checkpoints(traj, outdir / "checkpoints")
            files += [outdir / "checkpoints.bin", outdir / "checkpoints.json"]
    _write_manifest(outdir, cfg, files)
    return 0


def _parse_axis(spec: str) -> SweepAxis:
    if "=" not in spec:
        raise ConfigError(f"axis must look like key=v1,v2,..., got {spec!r}")
    key, values = spec.split("=", 1)
    try:
        vals = tuple(float(v) for v in values.split(","))
    except ValueError:
        raise ConfigError(f"axis values must be numeric: {spec!r}") from None
    if not vals:
        raise ConfigError(f"axis {key!r} has no values")
    return SweepAxis(key=key.strip(), values=vals)


def _cmd_sweep(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args.override)
    run(
        ExperimentSpec(
            config=cfg,
            solver=args.solver,
            sweep=tuple(_parse_axis(a) for a in args.axis),
            policy=_policy_from_args(args),
            n_photon_max=args.n_photon_max,
            nu_max=args.nu_max,
            out=args.out,
            jobs=args.jobs,
        )
    )
    return 0


def _cmd_spectrum(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args.override)
    policy = _policy_from_args(args)
    traj = _solve(cfg, args.solver, policy, args.n_photon_max, args.nu_max)
    ps = phase_pipeline(traj, policy, args.source)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"spectrum_{args.solver}_{args.source}.csv"
    write_phase_csv(ps, path)
    _write_manifest(outdir, cfg, [path])
    return 0


def _cmd_fit_alpha(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args.override)
    cols, rows = _read_table(Path(args.table))
    if "f0_over_kappa" in cols:
        r_col = cols.index("f0_over_kappa")
    elif "pulse.F0" in cols:
        r_col = cols.index("pulse.F0")
    else:
        raise ConfigError(f"table {args.table} lacks a drive column (f0_over_kappa or pulse.F0)")
    d_col = cols.index("dphi_cavity") if "dphi_cavity" in cols else len(cols) - 1
    scale = 1.0 if "f0_over_kappa" in cols else 1.0 / cfg.cavity.kappa
    points = [(row[r_col] * scale, row[d_col]) for row in rows]
    result = fit_alpha(points, cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_fit_json(result, outdir / "alpha_fit.json")
    _write_manifest(outdir, cfg, [outdir / "alpha_fit.json"])
    return 0


def _cmd_compare(args) -> int:
    cols_m, rows_m = _read_table(Path(args.meanfield))
    cols_l, rows_l = _read_table(Path(args.lindblad))
    # sweep tables produced here always carry dphi_cavity as the value column
    val_m = {tuple(r[: cols_m.index("dphi_cavity")]): r[cols_m.index("dphi_cavity")] for r in rows_m}
    val_l = {tuple(r[: cols_l.index("dphi_cavity")]): r[cols_l.index("dphi_cavity")] for r in rows_l}
    if set(val_m) != set(val_l):
        raise ValidationError("sweep axes of the two bundles do not match")
    rows = [(k[0] if len(k) == 1 else k, val_m[k], val_l[k]) for k in sorted(val_m)]
    report = compare_tables(rows)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "compare.json", report)
    return 0


def _cmd_preset(args) -> int:
    run_preset(
        args.preset_id,
        Path(args.out),
        policy=_policy_from_args(args),
        jobs=args.jobs,
        n_photon_max=args.n_photon_max,
        nu_max=args.nu_max,
    )
    return 0


# each subcommand registers only the flags it reads
_FLAGS = {
    "--config": dict(required=True, help="path to a config file"),
    "--solver": dict(default="meanfield", choices=["meanfield", "lindblad", "both"]),
    "--jobs": dict(type=int, default=os.cpu_count() or 1),
    "--out": dict(default="out", help="output directory"),
    "--baseline": dict(default="harmonic", choices=["harmonic", "weak"]),
    "--override": dict(action="append", default=[], metavar="k=v"),
    "--t-off-factor": dict(type=float),
    "--n-photon-max": dict(type=int, default=N_PHOTON_MAX_DEFAULT),
    "--nu-max": dict(type=int, default=NU_MAX_DEFAULT),
}
_RUN_FLAGS = ("--config", "--solver", "--out", "--override", "--t-off-factor", "--n-photon-max",
              "--nu-max")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwcavity",
        description="Driven THz cavity + quantum-well FID phase nonlinearity simulator",
    )
    parser.add_argument("--version", action="version", version=f"qwcavity {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, flags, text):
        p = sub.add_parser(name, help=text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn)
        return p

    p = command("simulate", _cmd_simulate, _RUN_FLAGS, "single run, trajectory CSV + sidecar")
    p.add_argument("--checkpoints", action="store_true", help="dump density-matrix checkpoints")

    p = command("sweep", _cmd_sweep, _RUN_FLAGS + ("--jobs", "--baseline"),
                "phase shifts over one or more parameter axes")
    p.add_argument("--axis", action="append", required=True, metavar="key=v1,v2,...")

    p = command("spectrum", _cmd_spectrum, _RUN_FLAGS, "FID phase spectrum of one run")
    p.add_argument("--source", default="cavity", choices=["cavity", "bright"])

    p = command("fit-alpha", _cmd_fit_alpha, ("--config", "--out", "--override"),
                "quadratic fit of a sweep table")
    p.add_argument("--table", required=True, help="sweep CSV with a dphi column")

    p = command("compare", _cmd_compare, ("--out",), "mean-field vs Lindblad discrepancy report")
    p.add_argument("--meanfield", required=True)
    p.add_argument("--lindblad", required=True)

    p = command("preset", _cmd_preset, ("--jobs", "--out", "--baseline", "--t-off-factor",
                                        "--n-photon-max", "--nu-max"), "run a frozen figure preset")
    p.add_argument("preset_id", choices=list(PRESET_IDS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TruncationError, SolverError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (GridError, ValidationError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
