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
from dataclasses import dataclass, field
from operator import mul

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
    effective_decay,
    format_config,
    write_json,
    write_table,
)

RTOL_DEFAULT = 1e-9
ATOL_DEFAULT = 1e-12
SAMPLES_PER_SCALE = 20
SCALAR_SUM_MAX = 3  # where dot starts blocking: numpy 2.4.6's OpenBLAS 0.3.31, x86-64
LANES_MIN = 4  # fewer lanes step faster one by one on Python scalars
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


def _lane(values):
    """Lane vector of per-lane values: the Python scalar itself for one lane,
    a numpy array for several (see _advance)."""
    return values[0] if len(values) == 1 else np.array(values)


def _factor(values):
    """Lane constants as _cmul takes them: (re, re) and (-im, im) per lane."""
    c = np.array(values, dtype=complex)[:, None]
    return np.concatenate([c.real, c.real], axis=1), np.concatenate([-c.imag, c.imag], axis=1)


def _cmul(c, x):
    """c * x over a contiguous lane vector x, rounded as Python's complex
    product: numpy's own may fuse a multiply-add, so the products of real
    and imaginary parts are rounded apart. (A factor with a zero real or
    imaginary part rounds alike either way.)"""
    c1, c2 = c
    xv = x.view(float).reshape(-1, 2)
    return (xv * c1 + xv[:, ::-1] * c2).view(complex).ravel()


def _abs2_scalar(b):
    return abs(b) ** 2


def _abs2(b):
    """abs(b) ** 2 over a lane vector, through libm's pow: np.power squares by x * x."""
    return np.array([x**2 for x in np.hypot(b.real, b.imag).tolist()])


def _rhs(lanes):
    """Time derivative of y = (<a>, <b_1>, ..., <b_M>) for lanes [(cfg, modes)]
    of one mode count M; y and the result are a list of Python complex for
    one lane, a (components, lanes) array for several:

    da/dt   = -(kappa/2 + i dc) a - i sum_n g_n b_n - i F(t)
    db_n/dt = -(gamma_n/2 + i d_n) b_n + 2i U_n |b_n|^2 b_n - i g_n a
    """
    one = len(lanes) == 1
    shifts = [_frame_shift(cfg) for cfg, _ in lanes]
    pulses, frames = [cfg.pulse for cfg, _ in lanes], [cfg.frame for cfg, _ in lanes]
    factor = _lane if one else _factor
    cavity = factor([-(0.5 * cfg.cavity.kappa + 1j * (cfg.cavity.omega_c - shift))
                     for (cfg, _), shift in zip(lanes, shifts)])
    consts = [
        (factor([-(0.5 * gamma + 1j * (omega - shift))
                 for (omega, _, gamma, _), shift in zip(mode, shifts)]),
         _lane([1j * (2.0 * u) for _, u, _, _ in mode]),
         _lane([g for *_, g in mode]),
         _lane([1j * g for *_, g in mode]))
        for mode in zip(*(modes for _, modes in lanes))
    ]
    if one:  # Python scalars, whose own rounding is the reference
        (pulse,), (frame,) = pulses, frames
        cmul, abs2, pack = mul, _abs2_scalar, list

        def drive(t):
            return drive_amplitude(t, pulse, frame)
    else:
        cmul, abs2, pack = _cmul, _abs2, np.array

        def drive(t):
            return np.array(list(map(drive_amplitude, t.tolist(), pulses, frames)))

    def rhs(t, y):
        a = y[0]
        field = cmul(cavity, a)
        out = [0j]
        for (rate, kerr, g, ig), b in zip(consts, y[1:]):
            field -= 1j * (g * b)
            out.append(cmul(rate, b) + kerr * abs2(b) * b - ig * a)
        out[0] = field - 1j * drive(t)
        return pack(out)

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
    return next(integrate_batch([(cfg, t_span, dt)], rtol=rtol, atol=atol))[1]


def integrate_batch(requests, *, rtol: float = RTOL_DEFAULT, atol: float = ATOL_DEFAULT):
    """integrate() for each (cfg, t_span, dt) request, stepped together as one
    RK45 lane batch per component count. Yields (request index, trajectory)
    as lanes finish, so a caller can use and drop each in turn; every
    trajectory has the bits integrate gives it alone."""
    lanes = []
    for cfg, t_span, dt in requests:
        p = cfg.pulse
        if t_span[0] > p.center - 3 * p.duration or t_span[1] < p.center + 3 * p.duration:
            raise ValidationError(f"t_span {t_span} does not cover the pulse")
        per_well = not cfg.is_homogeneous
        grid = uniform_grid(t_span, dt if dt is not None else default_dt(cfg))
        lanes.append((cfg, _modes(cfg, per_well), grid, per_well))
    batches: dict[int, list[int]] = {}
    for i, (_, modes, _, _) in enumerate(lanes):
        batches.setdefault(len(modes), []).append(i)
    for members in batches.values():
        for j, samples, stats in _rk45([lanes[i][:3] for i in members], rtol, atol):
            cfg, _, grid, per_well = lanes[members[j]]
            traj = MeanFieldTrajectory(grid, samples[0], samples[1:], cfg, per_well, stats)
            yield members[j], traj


def _combine(stages, coeffs, h, y=None):
    """y + (sum_j coeffs[j] * stages[j]) * h, or without y, with the bits of
    scipy's np.dot(K.T, coeffs) * h: sequential sums up to SCALAR_SUM_MAX
    components, above them the BLAS product itself, one lane at a time,
    whose blocked sums round differently. Stages as _rhs returns them."""
    block = isinstance(stages[0], np.ndarray)
    if len(stages[0]) > SCALAR_SUM_MAX:
        k, c = np.array(stages).reshape(len(stages), len(stages[0]), -1), np.array(coeffs)
        d = np.array([np.dot(np.ascontiguousarray(k[:, :, i]).T, c) for i in range(k.shape[2])])
        d = np.ascontiguousarray(d.T) if block else d[0].tolist()
    elif block:
        d = stages[0] * coeffs[0]
        for k, c in zip(stages[1:], coeffs[1:]):
            d = d + k * c
    else:
        d = []
        for column in zip(*stages):
            acc = column[0] * coeffs[0]
            for k, c in zip(column[1:], coeffs[1:]):
                acc = acc + k * c
            d.append(acc)
    if block:
        return d * h if y is None else y + d * h
    return [di * h for di in d] if y is None else [yi + di * h for yi, di in zip(y, d)]


def _block(y) -> np.ndarray:
    """(components, lanes) array of a state as _rhs takes it."""
    return y if isinstance(y, np.ndarray) else np.array(y, dtype=complex).reshape(-1, 1)


@dataclass(slots=True)
class _LaneState:
    """One lane's RK45 state, as scipy's RK45 object would hold it."""

    index: int
    cfg: SystemConfig
    modes: tuple
    grid: np.ndarray
    t: float
    h_abs: float
    t_new: float = 0.0
    min_step: float = 0.0
    rejected: bool = False
    fresh: bool = True  # the next attempt starts a new step
    steps: list = field(default_factory=list)  # (t_old, h, (y, K) of its attempt, lane column)
    n_steps: int = 0
    n_rejected: int = 0
    t_bound: float = field(init=False)

    def __post_init__(self):
        self.t_bound = float(self.grid[-1])

    def result(self, n: int) -> tuple:
        """Samples as scipy's RkDenseOutput of each step gives them on its
        (t_old, t_new]: Q = K^T P of all steps in one product, x and its
        powers elementwise, one np.dot(Q, p) per step; and solver effort."""
        t_old, h, attempts, cols = zip(*self.steps)
        self.steps = []  # an attempt's arrays go once every lane in it has its samples
        ends = np.searchsorted(self.grid, t_old[1:] + (self.t_bound,), side="right")
        counts = np.diff(ends, prepend=0)
        used = np.flatnonzero(counts).tolist()
        k = np.array([stages if isinstance(stages, list) else stages[:, :, j]
                      for (_, stages), j in ((attempts[i], cols[i]) for i in used)])
        q = k.transpose(1, 0, 2).reshape(7, -1).T.dot(RK45.P)
        counts = counts[used]
        t0, h = np.repeat(np.take(t_old, used), counts), np.repeat(np.take(h, used), counts)
        x = (self.grid - t0) / h
        p = np.array([x, x * x, x * x * x, x * x * x * x])
        bounds = np.concatenate([[0], np.cumsum(counts)]).tolist()
        samples = np.empty((n, len(x)), dtype=complex)
        for qi, a, b in zip(q.reshape(-1, n, 4), bounds, bounds[1:]):
            samples[:, a:b] = np.dot(qi, p[:, a:b])
        samples *= h
        samples += np.repeat(np.array([attempts[i][0][:, cols[i]] for i in used]).T, counts, axis=1)
        return samples, {"nfev": 2 + 6 * (self.n_steps + self.n_rejected),
                         "n_steps": self.n_steps, "n_rejected": self.n_rejected}


def _rk45(lanes, rtol, atol):
    """solve_ivp(method="RK45", t_eval=grid) from y = 0, bit for bit, for
    every lane (cfg, modes, grid) of one component count, stepped together
    by _advance; yields (lane index, samples, stats) as lanes finish.
    Tracks scipy 1.17's private RK45 internals; verified on one BLAS (README).
    """
    n = 1 + len(lanes[0][1])
    rtol, atol = validate_tol(rtol, atol, n)
    y0 = np.zeros(n, dtype=complex)
    live, f = [], []
    for cfg, modes, grid in lanes:
        one = _rhs([(cfg, modes)])
        fun = lambda t, y: np.asarray(one(t, y), dtype=complex)  # noqa: E731
        t0 = float(grid[0])
        f0 = fun(t0, y0)
        h0 = select_initial_step(fun, t0, y0, float(grid[-1]), np.inf, f0, 1.0,
                                 RK45.error_estimator_order, rtol, atol)
        live.append(_LaneState(len(live), cfg, modes, grid, t0, float(h0)))
        f.append(f0)
    if len(live) == 1:
        y, f = y0.tolist(), f[0].tolist()
    else:
        y, f = np.zeros((n, len(live)), dtype=complex), np.array(f).T.copy()
    for s in _advance(live, y, f, n, rtol, atol):
        yield s.index, *s.result(n)


def _advance(live, y, f, n, rtol, atol):
    """Step the lanes `live` from state y with derivative f to their ends,
    yielding each lane as it finishes.

    Each lane keeps scipy's own t, step size and rejected flag: a rejected
    step retries that lane alone, and a finished lane leaves the batch.
    Below LANES_MIN lanes, each goes on alone on Python scalars. Lane arrays
    round as Python's scalars (_combine, _rhs); the error norm keeps scipy's
    numpy expressions, and select_initial_step, the step factor's power,
    the drive's exp and np.dot(Q, p) stay per lane.
    """
    if isinstance(y, np.ndarray) and len(live) < LANES_MIN:
        for j, s in enumerate(live):
            yield from _advance([s], y[:, j].tolist(), f[:, j].tolist(), n, rtol, atol)
        return
    rhs, y_arr = _rhs([(s.cfg, s.modes) for s in live]), _block(y)
    abs_y = np.abs(y_arr)
    while True:
        hs = []
        for s in live:
            if s.fresh:
                s.min_step = 10 * abs(math.nextafter(s.t, math.inf) - s.t)
                s.h_abs, s.rejected = max(s.h_abs, s.min_step), False
            elif s.h_abs < s.min_step:
                raise SolverError(f"mean-field integration failed: {RK45.TOO_SMALL_STEP}")
            s.t_new = min(s.t + s.h_abs, s.t_bound)
            hs.append(s.t_new - s.t)
            s.h_abs = abs(hs[-1])
        t, h = _lane([s.t for s in live]), _lane(hs)
        k = [f]
        for a_s, c_s in zip(_A[1:], _C[1:]):
            k.append(rhs(t + c_s * h, _combine(k, a_s, h, y)))
        y_new = _combine(k, _B, h, y)
        k.append(rhs(t + h, y_new))
        y_new_arr = _block(y_new)
        abs_new = np.abs(y_new_arr)
        x = _block(_combine(k, _E, h)) / (atol + np.maximum(abs_y, abs_new) * rtol)
        parts = x.view(float).reshape(n, -1, 2)  # np.linalg.norm's dots of re and im, per lane
        norms = [math.sqrt(re + im) / n**0.5 for re, im in np.vecdot(parts, parts, axis=0).tolist()]
        attempt = (y_arr, k if len(live) == 1 else np.array(k))  # one lane's: stacked at the end
        accepted = []
        for j, (s, error_norm) in enumerate(zip(live, norms)):
            if error_norm < 1:
                factor = MAX_FACTOR if error_norm == 0 else min(
                    MAX_FACTOR, SAFETY * error_norm**_ERROR_EXPONENT)
                s.h_abs *= min(1, factor) if s.rejected else factor
                s.n_steps += 1
                s.steps.append((s.t, hs[j], attempt, j))
                s.t = s.t_new
            elif not math.isfinite(error_norm):
                raise SolverError(
                    f"mean-field integration failed at t = {s.t!r}: error norm {error_norm} "
                    f"for config {format_config(s.cfg).strip().replace(chr(10), '; ')}")
            else:
                s.h_abs *= max(MIN_FACTOR, SAFETY * error_norm**_ERROR_EXPONENT)
                s.rejected = True
                s.n_rejected += 1
            s.fresh = error_norm < 1
            accepted.append(s.fresh)
        if all(accepted):
            y, f, y_arr, abs_y = y_new, k[-1], y_new_arr, abs_new
        elif any(accepted):
            mask = np.array(accepted)
            y, f = np.where(mask, y_new, y), np.where(mask, k[-1], f)
            y_arr, abs_y = y, np.where(mask, abs_new, abs_y)
        keep = [j for j, s in enumerate(live) if s.t != s.t_bound]
        if len(keep) < len(live):
            yield from (s for s in live if s.t == s.t_bound)
            if not keep:
                return
            if len(keep) < LANES_MIN:
                yield from _advance([live[j] for j in keep], y[:, keep], f[:, keep], n, rtol, atol)
                return
            live, y, f = [live[j] for j in keep], y[:, keep].copy(), f[:, keep].copy()  # C order
            rhs, y_arr, abs_y = _rhs([(s.cfg, s.modes) for s in live]), y, abs_y[:, keep]


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
        gamma_tilde=effective_decay(traj.config),
        U=d.anharmonicity,
        N=traj.config.n_wells,
    )
