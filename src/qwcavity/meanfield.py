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

import bisect
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import RK45
from scipy.integrate._ivp.common import select_initial_step, validate_tol
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY

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
SCALAR_SUM_MAX = 3  # where dot starts blocking: numpy 2.4.6's OpenBLAS 0.3.31, x86-64
_A = [row[:s].tolist() for s, row in enumerate(RK45.A)]
_B, _C, _E = RK45.B.tolist(), RK45.C.tolist(), RK45.E.tolist()
_ERROR_EXPONENT = -1 / (RK45.error_estimator_order + 1)


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
    stats: dict = field(default_factory=dict)  # solver effort: nfev, n_steps, n_rejected

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
    grid = uniform_grid(t_span, dt if dt is not None else default_dt(cfg))
    samples, stats = _rk45(_rhs(cfg, modes), grid, 1 + len(modes), rtol, atol)
    return MeanFieldTrajectory(grid, samples[0], samples[1:], cfg, per_well, stats)


def _combine(stages, coeffs):
    """sum_j coeffs[j] * stages[j] per component, with the bits of numpy's
    dot(K.T, coeffs): sequential sums up to SCALAR_SUM_MAX components, the
    BLAS product itself above, where its blocked sums round differently."""
    if len(stages[0]) > SCALAR_SUM_MAX:
        return np.dot(np.array(stages).T, np.array(coeffs)).tolist()
    out = []
    for column in zip(*stages):
        acc = column[0] * coeffs[0]
        for k, c in zip(column[1:], coeffs[1:]):
            acc += k * c
        out.append(acc)
    return out


def _rk45(rhs, grid, n, rtol, atol):
    """solve_ivp(method="RK45", t_eval=grid) from y = 0, bit for bit: stages,
    steps and error estimates on Python complex scalars (_combine); the error
    norm (array np.abs) and the dense output (a BLAS product) round
    differently in scalar code, so both stay the numpy expressions of scipy.
    Tracks scipy 1.17's private RK45 internals; verified on one BLAS (README)."""
    rtol, atol = validate_tol(rtol, atol, n)
    fun = lambda t, y: np.asarray(rhs(t, y), dtype=complex)  # noqa: E731
    t, t_bound, y_arr = float(grid[0]), float(grid[-1]), np.zeros(n, dtype=complex)
    f_arr = fun(t, y_arr)
    h_abs = select_initial_step(fun, t, y_arr, t_bound, np.inf, f_arr, 1.0,
                                RK45.error_estimator_order, rtol, atol)
    y, f, abs_y, times = y_arr.tolist(), f_arr.tolist(), np.abs(y_arr), grid.tolist()
    out = np.empty((n, len(grid)), dtype=complex)
    i_eval = n_steps = n_rejected = 0
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise SolverError(f"mean-field integration failed: {RK45.TOO_SMALL_STEP}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            k = [f]
            for a_s, c_s in zip(_A[1:], _C[1:]):
                k.append(rhs(t + c_s * h, [yi + d * h for yi, d in zip(y, _combine(k, a_s))]))
            y_new = [yi + h * d for yi, d in zip(y, _combine(k, _B))]
            k.append(rhs(t + h, y_new))
            y_new_arr = np.array(y_new, dtype=complex)
            abs_new = np.abs(y_new_arr)
            err = np.array([d * h for d in _combine(k, _E)], dtype=complex)
            error_norm = float(np.linalg.norm(err / (atol + np.maximum(abs_y, abs_new) * rtol))
                               / n**0.5)
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(
                    MAX_FACTOR, SAFETY * error_norm**_ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**_ERROR_EXPONENT)
            rejected, n_rejected = True, n_rejected + 1
        n_steps += 1
        i_new = bisect.bisect_right(times, t_new)
        if i_new > i_eval:  # scipy's RkDenseOutput on (t, t_new]: Q = K^T P, powers of x
            x = (grid[i_eval:i_new] - t) / (t_new - t)
            p = np.array([x, x * x, x * x * x, x * x * x * x])  # np.cumprod's products
            out[:, i_eval:i_new] = ((t_new - t) * np.dot(np.array(k).T.dot(RK45.P), p)
                                    + y_arr[:, None])
            i_eval = i_new
        t, y, y_arr, abs_y, f = t_new, y_new, y_new_arr, abs_new, k[-1]
    return out, {"nfev": 2 + 6 * (n_steps + n_rejected), "n_steps": n_steps,
                 "n_rejected": n_rejected}


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
