"""Mean-field dynamics of the driven cavity and its dipole coherences.

One set of equations of motion covers every well count: <a> plus one
Kerr oscillator per mode. Identical wells (any N) enter as the single
bright mode <B0>; an inhomogeneous set enters as one mode <b_n> per well.
Also provides the adiabatic post-pulse amplitude/phase solution used as an
oracle.

Integration runs in the configured frame; the rotating frame removes the
THz carrier and is the default. Trajectories are immutable once produced,
so independent parameter-sweep integrations can run in parallel workers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import GridError, SolverError, ValidationError
from .model import (
    Frame,
    SystemConfig,
    config_to_dict,
    drive_amplitude,
    purcell_rate,
    write_json,
    write_table,
)

RTOL_DEFAULT = 1e-9
ATOL_DEFAULT = 1e-12
SAMPLES_PER_SCALE = 20


def _frame_shift(cfg: SystemConfig) -> float:
    return cfg.pulse.carrier if cfg.frame is Frame.ROTATING else 0.0


def _modes(cfg: SystemConfig, per_well: bool) -> tuple:
    """(omega, U, gamma, g) of each mean-field mode.

    Identical wells collapse onto the bright mode B0 = sum_n b_n / sqrt(N),
    which couples with sqrt(N) g and chirps with Kerr constant U/N.
    """
    if per_well:
        return tuple((d.omega, d.anharmonicity, d.gamma, d.coupling) for d in cfg.dipoles)
    d = cfg.dipoles[0]
    return ((d.omega, d.anharmonicity / cfg.n_wells, d.gamma, cfg.collective_coupling),)


def _rhs(cfg: SystemConfig, modes):
    """Time derivative of y = (<a>, <b_1>, ..., <b_M>) for the given modes:

    da/dt   = -(kappa/2 + i dc) a - i sum_n g_n b_n - i F(t)
    db_n/dt = -(gamma_n/2 + i d_n) b_n + 2i U_n |b_n|^2 b_n - i g_n a
    """
    shift = _frame_shift(cfg)
    cavity = 0.5 * cfg.cavity.kappa + 1j * (cfg.cavity.omega_c - shift)
    consts = [(0.5 * gamma + 1j * (omega - shift), 2.0 * u, g) for omega, u, gamma, g in modes]
    pulse, frame = cfg.pulse, cfg.frame

    def rhs(t, y):
        a = y[0]
        field = -cavity * a
        out = [0j]
        for (rate, kerr, g), b in zip(consts, y[1:]):
            field -= 1j * (g * b)
            out.append(-rate * b + 1j * kerr * abs(b) ** 2 * b - 1j * g * a)
        out[0] = field - 1j * drive_amplitude(t, pulse, frame)
        return out

    return rhs


def _stored_frequencies(cfg: SystemConfig) -> list[float]:
    shift = _frame_shift(cfg)
    freqs = [abs(cfg.cavity.omega_c - shift)] + [abs(d.omega - shift) for d in cfg.dipoles]
    if cfg.frame is Frame.LAB:
        freqs.append(abs(cfg.pulse.carrier))
    return freqs


def resolution_limit(cfg: SystemConfig) -> float:
    """Largest grid spacing that still samples every stored-frame period and
    the fastest decay at >= 20 points each."""
    scales = [1.0 / cfg.cavity.kappa]
    scales += [1.0 / d.gamma for d in cfg.dipoles]
    scales += [2.0 * math.pi / w for w in _stored_frequencies(cfg) if w > 1e-12]
    return min(scales) / SAMPLES_PER_SCALE


def default_dt(cfg: SystemConfig) -> float:
    return 0.5 * min(resolution_limit(cfg), cfg.pulse.duration / SAMPLES_PER_SCALE)


def uniform_grid(t_span: tuple[float, float], dt: float) -> np.ndarray:
    t0, t1 = t_span
    if t1 <= t0:
        raise GridError(f"empty time span {t_span}")
    n = int(round((t1 - t0) / dt))
    return t0 + dt * np.arange(n + 1)


class CoherenceSeries:
    """Coherences shared by the mean-field and Lindblad result types.

    Subclasses hold `t`, `config` (its frame is the series' frame), the
    cavity series `a` and `modes`: <b_n> per well when `per_well` is set,
    else the bright mode <B0> alone.
    """

    def bright(self) -> np.ndarray:
        """Bright collective coherence <B0> in the stored frame."""
        if self.per_well:
            return self.modes.sum(axis=0) / math.sqrt(self.modes.shape[0])
        return self.modes[0]

    def dark(self) -> np.ndarray:
        """Dark-mode coherence <B1> = (<b1> - <b2>)/sqrt(2) of a pair of wells.

        Identically zero for an identical pair, whose mean field keeps only
        the bright mode.
        """
        if self.config.n_wells != 2:
            raise ValidationError("dark mode is only defined for a pair of wells")
        if not self.per_well:
            return np.zeros_like(self.a)
        return (self.modes[0] - self.modes[1]) / math.sqrt(2.0)

    def signal(self, source: str) -> np.ndarray:
        if source == "cavity":
            return self.a
        if source == "bright":
            return self.bright()
        if source == "dark":
            return self.dark()
        raise ValidationError(f"unknown source {source!r}")

    def lab_signal(self, source: str = "cavity") -> np.ndarray:
        """Coherence in the lab frame, X_lab = X_rot * exp(-i w_d t)."""
        x = self.signal(source)
        if self.config.frame is Frame.ROTATING:
            return x * np.exp(-1j * self.config.pulse.carrier * self.t)
        return x


@dataclass(frozen=True)
class MeanFieldTrajectory(CoherenceSeries):
    """Uniformly sampled mean-field solution with its config snapshot."""

    t: np.ndarray
    a: np.ndarray
    modes: np.ndarray  # shape (M, len(t))
    config: SystemConfig
    per_well: bool

    def __post_init__(self):
        steps = np.diff(self.t)
        if len(self.t) < 2 or not np.all(steps > 0):
            raise GridError("trajectory grid must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise GridError("trajectory grid must be uniform")
        if steps[0] > resolution_limit(self.config) * (1 + 1e-9):
            raise GridError(
                f"grid spacing {steps[0]:.3e} does not resolve the stored-frame "
                f"carrier/decay scales (limit {resolution_limit(self.config):.3e})"
            )
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.modes))):
            raise ValidationError("trajectory contains non-finite samples")

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def labels(self) -> dict:
        """Representation and model names written to the CSV header and sidecar."""
        if self.per_well:
            return {"representation": "local", "model": "per_well"}
        return {"representation": "bright", "model": "identical"}

    def write_csv(self, path) -> None:
        names = [f"b{i+1}" for i in range(self.modes.shape[0])] if self.per_well else ["B0"]
        series = [self.a, *self.modes]
        write_table(
            path,
            [f"frame: {self.config.frame.value}", *(f"{k}: {v}" for k, v in self.labels.items())],
            ["t"] + [f"re_{n},im_{n}" for n in ["a", *names]],
            zip(self.t.tolist(), *(part.tolist() for s in series for part in (s.real, s.imag))),
        )

    def write_sidecar(self, path) -> None:
        write_json(path, {
            "config": config_to_dict(self.config),
            "dt": self.dt,
            **self.labels,
            "frame": self.config.frame.value,
        })


def integrate(
    cfg: SystemConfig,
    t_span: tuple[float, float],
    *,
    rtol: float = RTOL_DEFAULT,
    atol: float = ATOL_DEFAULT,
    dt: float | None = None,
) -> MeanFieldTrajectory:
    """Integrate the mean-field equations on a uniform output grid.

    Identical wells integrate the bright mode alone, any other set one mode
    per well. The pulse must lie inside t_span. Coherences start at zero
    (vacuum before the pulse). Solver failures raise SolverError instead of
    returning a silently truncated trajectory.
    """
    p = cfg.pulse
    if t_span[0] > p.center - 3 * p.duration or t_span[1] < p.center + 3 * p.duration:
        raise ValidationError(f"t_span {t_span} does not cover the pulse")
    per_well = not cfg.is_homogeneous
    modes = _modes(cfg, per_well)
    rhs = _rhs(cfg, modes)
    grid = uniform_grid(t_span, dt if dt is not None else default_dt(cfg))
    sol = solve_ivp(
        lambda t, y: np.asarray(rhs(t, y), dtype=complex),
        t_span=(grid[0], grid[-1]),
        y0=np.zeros(1 + len(modes), dtype=complex),
        t_eval=grid,
        method="RK45",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise SolverError(f"mean-field integration failed: {sol.message}")
    return MeanFieldTrajectory(t=grid, a=sol.y[0], modes=sol.y[1:], config=cfg, per_well=per_well)


def instantaneous_frequency(traj: MeanFieldTrajectory) -> np.ndarray:
    """Chirped dipole frequency w0 - (2U/N)|<B0>|^2 along the grid."""
    if traj.per_well:
        raise ValidationError("instantaneous frequency is defined for identical wells")
    d = traj.config.dipoles[0]
    n = traj.config.n_wells
    return d.omega - (2.0 * d.anharmonicity / n) * np.abs(traj.bright()) ** 2


def adiabatic_field(b0, t, cfg: SystemConfig):
    """Cavity amplitude at time t with the field slaved to the dipoles (bad cavity).

    Warns when the bad-cavity conditions kappa >> gamma and
    (kappa - gamma)/4 > sqrt(N) g do not hold.
    """
    kappa = cfg.cavity.kappa
    gbar = sum(d.gamma for d in cfg.dipoles) / cfg.n_wells
    g_n = cfg.collective_coupling
    if kappa < 10.0 * gbar or (kappa - gbar) / 4.0 <= g_n:
        warnings.warn(
            "adiabatic elimination outside its regime: need kappa >> gamma and "
            f"(kappa-gamma)/4 > sqrt(N)g (kappa={kappa}, gamma={gbar}, sqrtN*g={g_n})",
            stacklevel=2,
        )
    return -1j * (2.0 * g_n / kappa) * np.asarray(b0, dtype=complex) - 1j * (
        2.0 / kappa
    ) * drive_amplitude(t, cfg.pulse, cfg.frame)


@dataclass(frozen=True)
class PostPulseOracle:
    """Inputs of the analytic free-decay solution after pulse turn-off."""

    B_off: float
    phi_off: float
    t_off: float
    gamma_tilde: float
    U: float
    N: int

    def __post_init__(self):
        if self.B_off < 0:
            raise ValidationError(f"B_off must be >= 0, got {self.B_off}")
        if self.gamma_tilde <= 0:
            raise ValidationError(f"gamma_tilde must be > 0, got {self.gamma_tilde}")


def stationary_phase(oracle: PostPulseOracle) -> float:
    """Long-time nonlinear phase offset 2*U*B_off^2/(N*gamma_tilde)."""
    return 2.0 * oracle.U * oracle.B_off**2 / (oracle.N * oracle.gamma_tilde)


def post_pulse_analytic(oracle: PostPulseOracle, t):
    """Rotating-frame <B0(t)> for t >= t_off: exponential amplitude decay
    with the saturating Kerr phase."""
    t = np.asarray(t, dtype=float)
    if np.any(t < oracle.t_off - 1e-12):
        raise ValidationError("post-pulse solution is only valid for t >= t_off")
    tau = t - oracle.t_off
    amp = oracle.B_off * np.exp(-0.5 * oracle.gamma_tilde * tau)
    phase = oracle.phi_off + stationary_phase(oracle) * (1.0 - np.exp(-oracle.gamma_tilde * tau))
    out = amp * np.exp(1j * phase)
    return out if out.ndim else complex(out)


def oracle_from_trajectory(traj: MeanFieldTrajectory, t_off: float) -> PostPulseOracle:
    """Read B_off and phi_off from a computed trajectory at t_off.

    The phase is taken in the frame rotating at the drive carrier and
    unwrapped from the pulse peak onward.
    """
    if not traj.config.is_homogeneous:
        raise ValidationError("the post-pulse oracle applies to identical wells")
    b = traj.bright()
    if traj.config.frame is Frame.LAB:
        b = b * np.exp(1j * traj.config.pulse.carrier * traj.t)
    if not traj.t[0] <= t_off <= traj.t[-1]:
        raise ValidationError(f"t_off {t_off} outside trajectory range")
    i_peak = int(np.argmax(np.abs(b)))
    phase = np.unwrap(np.angle(b[i_peak:]))
    tail = traj.t[i_peak:]
    d = traj.config.dipoles[0]
    return PostPulseOracle(
        B_off=float(np.interp(t_off, traj.t, np.abs(b))),
        phi_off=float(np.interp(t_off, tail, phase)),
        t_off=float(t_off),
        gamma_tilde=purcell_rate(traj.config),
        U=d.anharmonicity,
        N=traj.config.n_wells,
    )
