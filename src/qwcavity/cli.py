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
import itertools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, GridError, SolverError, ValidationError
from .model import (
    CavityParams,
    DipoleParams,
    PulseParams,
    SystemConfig,
    config_digest,
    format_config,
    load_config,
    parse_config,
    read_input,
    set_config_value,
    table_rows,
    write_json,
    write_table,
)
from .meanfield import integrate, integrate_batch
from .lindblad import HilbertConfig, evolve, vacuum_state, write_checkpoints
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


# --- manifest ---------------------------------------------------------------

def _write_manifest(outdir: Path, cfg: SystemConfig, files: list[Path]) -> None:
    entries = [{"path": f.name, "sha256": hashlib.sha256(f.read_bytes()).hexdigest(),
                "bytes": f.stat().st_size} for f in sorted(files)]
    write_json(outdir / "manifest.json", {
        "files": entries,
        "config_digest": config_digest(cfg),
        "created": datetime.now(timezone.utc).isoformat(),
        "tool": f"qwcavity {__version__}",
    })


# --- solver plumbing --------------------------------------------------------

def _is_lindblad(solver: str) -> bool:
    """True for "lindblad", False for "meanfield"; any other solver name is a ValidationError."""
    if solver not in ("meanfield", "lindblad"):
        raise ValidationError(f"unknown solver {solver!r}: use 'meanfield' or 'lindblad'")
    return solver == "lindblad"


def _check_kerr_level(nu_max: int) -> None:
    """A Lindblad Delta Phi or p2 reads each well's second level, so nu_max 1 is refused."""
    if nu_max < 2:
        raise ConfigError(f"--nu-max {nu_max} leaves each well without a second level, "
                          "so no Kerr term: Delta Phi and p2 are exactly 0 (use --nu-max >= 2)")


def _solve(cfg: SystemConfig, solver: str, policy: SpectralPolicy, n_photon_max: int, nu_max: int,
           dt: float | None = None):
    span = fid_time_span(cfg, policy)
    if not _is_lindblad(solver):
        return integrate(cfg, span, dt=dt)
    h = HilbertConfig(n_photon_max, nu_max, cfg.n_wells)
    return evolve(vacuum_state(h), span, cfg, h, dt=dt)


def _spectra_worker(args):
    """Phase spectra per source of each config in a chunk: a mean-field chunk as one lane
    batch (pooled or not), a Lindblad chunk (never pooled) one config at a time."""
    cfg_texts, solver, n_ph, nu_max, policy, sources, dt = args
    cfgs = [parse_config(text) for text in cfg_texts]
    if solver == "meanfield":
        trajs = integrate_batch([(cfg, fid_time_span(cfg, policy), dt) for cfg in cfgs])
    else:
        trajs = ((i, _solve(cfg, solver, policy, n_ph, nu_max, dt=dt))
                 for i, cfg in enumerate(cfgs))
    spectra = [None] * len(cfgs)
    for i, traj in trajs:
        spectra[i] = {src: phase_pipeline(traj, policy, src) for src in sources}
        del traj   # else it stays alive while the next config is solved
    return spectra


def sweep_phase_shifts(points, solver, policy, *, n_photon_max=N_PHOTON_MAX_DEFAULT,
                       nu_max=NU_MAX_DEFAULT, sources=("cavity",), jobs=1, dt=None):
    """Delta Phi(omega0) for labelled configs, each distinct run or baseline
    config solved once. Mean-field configs are split into at most `jobs` lane
    batches, pooled if two or more. Lindblad configs run in this process for any
    `jobs`: pooled workers' BLAS threads contend for the cores one evolve uses.
    An unknown solver, or a Lindblad sweep at nu_max 1, is refused before any solve."""
    lindblad = _is_lindblad(solver)
    if lindblad:
        _check_kerr_level(nu_max)
    texts = {}   # config text of every distinct run and baseline, in first-seen order
    pairs = []
    for label, cfg in points:
        run, base = format_config(cfg), format_config(baseline_config(cfg, policy))
        texts.update(dict.fromkeys((run, base)))
        pairs.append((label, run, base))
    texts = list(texts)
    n_chunks = 1 if lindblad else max(1, min(jobs, len(texts)))
    chunks = [texts[i::n_chunks] for i in range(n_chunks)]
    tasks = [(chunk, solver, n_photon_max, nu_max, policy, tuple(sources), dt) for chunk in chunks]
    if jobs <= 1 or len(tasks) <= 1:
        spectra = [_spectra_worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            spectra = list(pool.map(_spectra_worker, tasks))
    done = {text: spec for chunk, specs in zip(chunks, spectra) for text, spec in zip(chunk, specs)}
    return [
        (label, {src: relative_phase(done[run][src], done[base][src]) for src in sources})
        for label, run, base in pairs
    ]


def _phase_table(path: Path, comments, columns, points, solvers, policy: SpectralPolicy, *,
                 sources=("cavity",), jobs=1, dt=None, n_photon_max=N_PHOTON_MAX_DEFAULT,
                 nu_max=NU_MAX_DEFAULT) -> list[tuple]:
    """Write one row per labelled point, the label's values and then Delta
    Phi(omega0) of each solver and source, and return the rows."""
    shifts = [
        sweep_phase_shifts(points, solver, policy, n_photon_max=n_photon_max, nu_max=nu_max,
                           sources=sources, jobs=jobs, dt=dt)
        for solver in solvers
    ]
    rows = [
        (*label, *(per_solver[i][1][src] for per_solver in shifts for src in sources))
        for i, (label, _) in enumerate(points)
    ]
    write_table(path, comments, columns, rows)
    return rows


# --- frozen figure presets --------------------------------------------------

BASE_OMEGA = 40.0
BASE_KAPPA = 12.0
BASE_GAMMA = 0.6
BASE_SQRTN_G = 1.0
BASE_T = 0.155
BASE_T0 = 0.6


def two_well_config(
    *,
    u_over_gamma: float,
    f0_over_kappa: float,
    gamma1: float = BASE_GAMMA,
    gamma2: float | None = None,
    omega2: float | None = None,
) -> SystemConfig:
    """Standard two-well operating point from the common parameter set."""
    u, g = u_over_gamma * BASE_GAMMA, BASE_SQRTN_G / math.sqrt(2.0)
    wells = ((BASE_OMEGA, gamma1), (BASE_OMEGA if omega2 is None else omega2,
                                    gamma1 if gamma2 is None else gamma2))
    return SystemConfig(
        cavity=CavityParams(omega_c=BASE_OMEGA, kappa=BASE_KAPPA),
        dipoles=tuple(DipoleParams(omega=w, anharmonicity=u, gamma=gm, coupling=g) for w, gm in wells),
        pulse=PulseParams(
            amplitude=f0_over_kappa * BASE_KAPPA, carrier=BASE_OMEGA, center=BASE_T0, duration=BASE_T
        ),
    )


# every preset writes this config as <preset>_base_config.txt and digests it in its manifest
PRESET_BASE = two_well_config(u_over_gamma=1.0, f0_over_kappa=0.2)
F_GRID_FIG3 = tuple(float(r) for r in np.round(np.linspace(0.02, 0.2, 7), 10))
F_GRID_FIG4 = tuple(float(r) for r in np.round(np.linspace(0.05, 0.5, 7), 10))
F_GRID_FIG5 = (0.05, 0.125, 0.2, 0.275, 0.35, 0.425, 0.5)


def _preset_fig2(preset_id: str, outdir: Path, policy: SpectralPolicy, opts) -> list[Path]:
    """Strong/weak FID traces and extremum time delays, gamma = 0.6 and 10.0."""
    files = []
    for gamma in (0.6, 10.0):
        trajs = {}
        for tag, ratio in (("strong", 0.2), ("weak", 0.01)):
            cfg = two_well_config(u_over_gamma=1.0, f0_over_kappa=ratio, gamma1=gamma, gamma2=gamma)
            # extend past the FID window so fast-decay traces keep post-pulse
            # extrema above the matching amplitude floor
            span = (0.0, max(fid_time_span(cfg, policy)[1], BASE_T0 + 2 * BASE_T + 3.0))
            # dense grid so extremum offsets of a few 1e-4 ps stay resolved
            trajs[tag] = traj = integrate(cfg, span, dt=1e-4)
            path = outdir / f"fig2_trace_gamma{gamma}_{tag}.csv"
            traj.write_csv(path)
            files.append(path)
        delays = time_delay(trajs["strong"], trajs["weak"])
        path = outdir / f"fig2_delay_gamma{gamma}.csv"
        write_table(
            path,
            [f"gamma = {gamma}", "delay of strong-drive extrema relative to weak drive"],
            ["t", "delay", "kind"],
            table_rows(delays.times, delays.delays, delays.kinds),
        )
        files.append(path)
    return files


def _preset_fig3(preset_id: str, outdir: Path, policy: SpectralPolicy, opts) -> list[Path]:
    """Delta Phi(omega0) vs drive for U/gamma in {0.1, 0.5, 1.0} with alpha fits."""
    ratios = (0.1, 0.5, 1.0)
    table = outdir / "fig3_phase_shifts.csv"
    rows = _phase_table(
        table,
        ["nonlinear phase shift at omega0 vs drive ratio"],
        ["u_over_gamma", "f0_over_kappa", "dphi_cavity", "dphi_dipole"],
        [((ug, r), two_well_config(u_over_gamma=ug, f0_over_kappa=r))
         for ug in ratios for r in F_GRID_FIG3],
        ("meanfield",), policy, sources=("cavity", "bright"), jobs=opts.jobs,
    )
    files = [table]
    for ug in ratios:
        pts = [(r, dphi) for u, r, dphi, _ in rows if u == ug]
        result = fit_alpha(pts, two_well_config(u_over_gamma=ug, f0_over_kappa=0.1))
        path = outdir / f"fig3_alpha_u{ug}.json"
        write_fit_json(result, path)
        files.append(path)
    return files


def _preset_fig4(preset_id: str, outdir: Path, policy: SpectralPolicy, opts) -> list[Path]:
    """Inhomogeneity at U = 0.5 gamma1: fig4a scans the decay rates,
    gamma2/gamma1 in {0.5, 1.0, 1.5}; fig4b the frequencies, d_omega/omega0
    in {-0.02, 0, 0.02, 0.12}."""
    if preset_id == "fig4a":
        column, factors = "gamma2_over_gamma1", (0.5, 1.0, 1.5)
        make = lambda f, r: two_well_config(u_over_gamma=0.5, f0_over_kappa=r, gamma2=f * BASE_GAMMA)
    else:
        column, factors = "domega_over_omega0", (-0.02, 0.0, 0.02, 0.12)
        make = lambda f, r: two_well_config(
            u_over_gamma=0.5, f0_over_kappa=r, omega2=BASE_OMEGA + 2.0 * f * BASE_OMEGA
        )
    table = outdir / f"{preset_id}_phase_shifts.csv"
    _phase_table(
        table,
        ["nonlinear phase shift at omega0, U = 0.5 gamma1"],
        [column, "f0_over_kappa", "dphi_cavity"],
        [((f, r), make(f, r)) for f in factors for r in F_GRID_FIG4],
        ("meanfield",), policy, jobs=opts.jobs,
    )
    return [table]


def _preset_fig5(preset_id: str, outdir: Path, policy: SpectralPolicy, opts) -> list[Path]:
    """Mean-field vs Lindblad Delta Phi(omega0): fig5a at U = 0.5 gamma1,
    fig5b at U = 2.0 gamma1."""
    ug = 0.5 if preset_id == "fig5a" else 2.0
    table = outdir / f"{preset_id}_phase_shifts.csv"
    rows = _phase_table(
        table,
        [f"U = {ug} gamma1; mean-field vs Lindblad"],
        ["f0_over_kappa", "dphi_meanfield", "dphi_lindblad"],
        [((r,), two_well_config(u_over_gamma=ug, f0_over_kappa=r)) for r in F_GRID_FIG5],
        ("meanfield", "lindblad"), policy, jobs=opts.jobs, dt=0.004,
        n_photon_max=opts.n_photon_max, nu_max=opts.nu_max,
    )
    path = outdir / f"{preset_id}_compare.json"
    write_json(path, compare_tables([({"f0_over_kappa": r}, mf, lb) for r, mf, lb in rows]))
    return [table, path]


def _preset_fig5c(preset_id: str, outdir: Path, policy: SpectralPolicy, opts) -> list[Path]:
    """Second-level population dynamics at F0 = 0.3 kappa."""
    ratios = (0.5, 1.0, 2.0)
    results = [
        _solve(two_well_config(u_over_gamma=ug, f0_over_kappa=0.3), "lindblad", policy,
               opts.n_photon_max, opts.nu_max, dt=0.004)
        for ug in ratios
    ]
    table = outdir / "fig5c_p2.csv"
    write_table(
        table,
        ["per-well second-level population, F0 = 0.3 kappa"],
        ["t"] + [f"p2_u{ug}" for ug in ratios],
        table_rows(results[-1].t, *(res.second_level_population() for res in results)),
    )
    return [table]


# preset id -> builder(preset_id, outdir, policy, opts) returning the data files it wrote;
# opts carries jobs, n_photon_max and nu_max
PRESETS = {
    "fig2": _preset_fig2,
    "fig3": _preset_fig3,
    "fig4a": _preset_fig4,
    "fig4b": _preset_fig4,
    "fig5a": _preset_fig5,
    "fig5b": _preset_fig5,
    "fig5c": _preset_fig5c,
}
PRESET_IDS = tuple(PRESETS)


# --- compare ----------------------------------------------------------------

def compare_tables(rows) -> dict:
    """Mean-field/Lindblad ratio and regime of each (axis values by column, mf, lb) row."""
    floor = 1e-5
    table = []
    for axes, mf, lb in rows:
        if abs(mf) < floor and abs(lb) < floor:
            ratio, regime = float("nan"), "negligible"
        else:
            ratio = mf / lb if lb != 0 else math.copysign(math.inf, mf)
            regime = "agree" if 0.5 <= ratio <= 2.0 else "breakdown"
        table.append(
            {**axes, "dphi_meanfield": mf, "dphi_lindblad": lb, "ratio": ratio, "regime": regime}
        )
    return {"points": table, "floor": floor}


def _read_table(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = [(n, line) for n, line in enumerate(read_input(path).splitlines(), 1)
             if line and not line.startswith("#")]
    if not lines:
        raise ConfigError(f"{path}: empty table")
    header, rows = lines[0][1].split(","), []
    for n, line in lines[1:]:
        cells, row = line.split(","), []
        if len(cells) != len(header):
            raise ConfigError(f"{path}, line {n} has {len(cells)} cells, its header {len(header)}")
        for column, cell in zip(header, cells):
            try:
                value = float(cell)
            except ValueError:
                raise ConfigError(
                    f"{path}, line {n}, column {column}: {cell!r} is not a number") from None
            if not math.isfinite(value):
                raise ConfigError(
                    f"{path}, line {n}, column {column}: {cell!r} is not a finite number")
            row.append(value)
        rows.append(row)
    return header, rows


def _read_shift_table(path) -> tuple[list[str], list[list[float]], int]:
    """A table's header, rows and the index of its dphi_cavity column, which it must have."""
    cols, rows = _read_table(Path(path))
    if "dphi_cavity" not in cols:
        raise ConfigError(f"table {path} has no dphi_cavity column")
    return cols, rows, cols.index("dphi_cavity")


# --- CLI --------------------------------------------------------------------

def _apply_overrides(cfg: SystemConfig, overrides: list[str]) -> SystemConfig:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg = set_config_value(cfg, key.strip(), value.strip())
    return cfg


def _check_truncation(args, n_wells: int, lindblad: bool, kerr: bool = True) -> None:
    """Build the truncation a Lindblad solve will use: a bad one is refused before any work.
    With `kerr` the result needs a second well level (Delta Phi, p2), so nu_max 1 is refused."""
    if lindblad:
        HilbertConfig(args.n_photon_max, args.nu_max, n_wells)
        if kerr:
            _check_kerr_level(args.nu_max)


def _policy_from_args(args) -> SpectralPolicy:
    """SpectralPolicy with the fields the subcommand has flags for and the user set."""
    t_off = getattr(args, "t_off_factor", None)
    if t_off is not None and not math.isfinite(t_off):
        raise ConfigError(f"value for '--t-off-factor' must be a finite number, got {t_off}")
    given = {"baseline_mode": getattr(args, "baseline", None), "t_off_factor": t_off}
    return SpectralPolicy(**{k: v for k, v in given.items() if v is not None})


def _cmd_simulate(args, cfg: SystemConfig, policy: SpectralPolicy) -> int:
    _check_truncation(args, cfg.n_wells, args.solver != "meanfield", kerr=False)
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


def _parse_axis(spec: str) -> tuple[str, tuple]:
    if "=" not in spec:
        raise ConfigError(f"axis must look like key=v1,v2,..., got {spec!r}")
    key, values = spec.split("=", 1)
    try:
        return key.strip(), tuple(float(v) for v in values.split(","))
    except ValueError:
        raise ConfigError(f"axis values must be numeric: {spec!r}") from None


def _cmd_sweep(args, cfg: SystemConfig, policy: SpectralPolicy) -> int:
    axes = [_parse_axis(a) for a in args.axis]
    keys = [key for key, _ in axes]
    for key, values in axes:
        if keys.count(key) > 1:
            raise ConfigError(f"axis key {key!r} is given more than once")
        if len(set(values)) < len(values):
            raise ConfigError(f"axis {key!r} repeats a value: {key}={','.join(map(repr, values))}")
    points = []
    for values in itertools.product(*(vals for _, vals in axes)):
        c = cfg
        for (key, _), value in zip(axes, values):
            c = set_config_value(c, key, value)   # an unknown key raises before any file is written
        points.append((values, c))
    _check_truncation(args, cfg.n_wells, args.solver != "meanfield")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    for solver in ["meanfield", "lindblad"] if args.solver == "both" else [args.solver]:
        table = outdir / f"sweep_{solver}.csv"
        _phase_table(
            table,
            [f"solver: {solver}", f"baseline: {policy.baseline_mode}"],
            [key for key, _ in axes] + ["dphi_cavity", "dphi_dipole"],
            points, (solver,), policy, sources=("cavity", "bright"), jobs=args.jobs,
            n_photon_max=args.n_photon_max, nu_max=args.nu_max,
        )
        files.append(table)
    _write_manifest(outdir, cfg, files)
    return 0


def _cmd_spectrum(args, cfg: SystemConfig, policy: SpectralPolicy) -> int:
    traj = _solve(cfg, args.solver, policy, args.n_photon_max, args.nu_max)
    ps = phase_pipeline(traj, policy, args.source)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"spectrum_{args.solver}_{args.source}.csv"
    write_phase_csv(ps, path)
    _write_manifest(outdir, cfg, [path])
    return 0


def _cmd_fit_alpha(args, cfg: SystemConfig, policy: SpectralPolicy) -> int:
    cols, rows, d_col = _read_shift_table(args.table)
    drive = next((c for c in ("f0_over_kappa", "pulse.F0") if c in cols), None)
    if drive is None:
        raise ConfigError(f"table {args.table} lacks a drive column (f0_over_kappa or pulse.F0)")
    r_col, scale = cols.index(drive), 1.0 if drive == "f0_over_kappa" else 1.0 / cfg.cavity.kappa
    points = [(row[r_col] * scale, row[d_col]) for row in rows]
    result = fit_alpha(points, cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_fit_json(result, outdir / "alpha_fit.json")
    _write_manifest(outdir, cfg, [outdir / "alpha_fit.json"])
    return 0


def _cmd_compare(args, _cfg, _policy) -> int:
    axes, values = [], []
    for path in (args.meanfield, args.lindblad):
        cols, rows, i = _read_shift_table(path)   # the axis columns precede dphi_cavity
        axes.append(cols[:i])
        keys = [tuple(r[:i]) for r in rows]
        repeated = sorted({k for k in keys if keys.count(k) > 1})
        if repeated:
            raise ValidationError(f"table {path} repeats axis values {cols[:i]} = {repeated}")
        values.append({k: r[i] for k, r in zip(keys, rows)})
    if axes[0] != axes[1]:
        raise ValidationError(f"axis columns of the two bundles differ: {axes[0]} vs {axes[1]}")
    val_m, val_l = values
    if set(val_m) != set(val_l):
        raise ValidationError("sweep axes of the two bundles do not match")
    report = compare_tables([(dict(zip(axes[0], k)), val_m[k], val_l[k]) for k in sorted(val_m)])
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "compare.json", report)
    return 0


def _cmd_preset(args, _cfg, policy: SpectralPolicy) -> int:
    _check_truncation(args, PRESET_BASE.n_wells, args.preset_id in ("fig5a", "fig5b", "fig5c"))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg_path = outdir / f"{args.preset_id}_base_config.txt"
    cfg_path.write_text(format_config(PRESET_BASE))
    files = PRESETS[args.preset_id](args.preset_id, outdir, policy, args)
    _write_manifest(outdir, PRESET_BASE, [cfg_path] + files)
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
_RUN_FLAGS = ("--config", "--out", "--override", "--t-off-factor", "--n-photon-max", "--nu-max")


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

    p = command("simulate", _cmd_simulate, ("--solver",) + _RUN_FLAGS,
                "single run, trajectory CSV + sidecar")
    p.add_argument("--checkpoints", action="store_true", help="dump density-matrix checkpoints")

    p = command("sweep", _cmd_sweep, ("--solver",) + _RUN_FLAGS + ("--jobs", "--baseline"),
                "phase shifts over one or more parameter axes")
    p.add_argument("--axis", action="append", required=True, metavar="key=v1,v2,...")

    p = command("spectrum", _cmd_spectrum, _RUN_FLAGS, "FID phase spectrum of one run")
    p.add_argument("--solver", default="meanfield", choices=["meanfield", "lindblad"])
    p.add_argument("--source", default="cavity", choices=["cavity", "bright"])

    p = command("fit-alpha", _cmd_fit_alpha, ("--config", "--out", "--override"),
                "quadratic fit of a sweep table")
    p.add_argument("--table", required=True, help="sweep CSV with a dphi_cavity column")

    p = command("compare", _cmd_compare, ("--out",), "mean-field vs Lindblad discrepancy report")
    p.add_argument("--meanfield", required=True)
    p.add_argument("--lindblad", required=True)

    p = command("preset", _cmd_preset, ("--jobs", "--out", "--n-photon-max", "--nu-max"),
                "run a frozen figure preset")
    p.add_argument("preset_id", choices=list(PRESET_IDS))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        taken = next(p for p in (Path(args.out), *Path(args.out).parents) if p.exists())
        if not taken.is_dir():  # refused before any work is done
            raise ConfigError(f"--out {args.out}: {taken} exists and is not a directory")
        if getattr(args, "jobs", 1) < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        # config (overrides applied) and policy, read and checked once before any file is written
        cfg = _apply_overrides(load_config(args.config), args.override) if "config" in args else None
        return args.fn(args, cfg, _policy_from_args(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:   # TruncationError included
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (GridError, ValidationError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
