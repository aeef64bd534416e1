"""Mean-field dynamics of the driven cavity and its dipole coherences.

One set of equations of motion covers every well count: <a> plus one
Kerr oscillator per mode. Identical wells (any N) enter as the single
bright mode <B0>; an inhomogeneous set enters as one mode <b_n> per well.
Also provides the adiabatic post-pulse amplitude/phase solution used as an
oracle.

Integration runs in the frame co-rotating at the drive carrier, which
removes the THz carrier from the equations; `lab_signal` reads a coherence
out in the lab frame. Trajectories are immutable once produced, so
independent parameter-sweep integrations can run in parallel workers.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from operator import mul
from warnings import warn

import numpy as np

from .errors import GridError, SolverError, ValidationError
from .model import (
    BLOCK_ROWS,
    Frame,
    SystemConfig,
    config_to_dict,
    drive_amplitude,
    effective_decay,
    format_config,
    table_rows,
    write_json,
    write_table,
)

RTOL_DEFAULT = 1e-9
ATOL_DEFAULT = 1e-12
SAMPLES_PER_SCALE = 20
LANES_MIN = 4  # fewer lanes step faster one by one on Python scalars


# --- RK45 (Dormand & Prince, J. Comput. Appl. Math. 6, 19 (1980)) --------
#
# The tableau, step-size rule, tolerance check, RMS norm and initial step of
# scipy 1.17.1 (scipy/integrate/_ivp/rk.py and common.py; BSD-3-Clause,
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers), copied
# expression for expression and cut to the calls made here: scalar
# tolerances, grids that run forward. Both solvers step through these alone
# (_advance and lindblad's _HermitianRK45), so both keep solve_ivp's bits
# without importing scipy.integrate.

SAFETY = 0.9
MIN_FACTOR = 0.2  # Minimum allowed decrease in a step size.
MAX_FACTOR = 10  # Maximum allowed increase in a step size.
EPS = np.finfo(float).eps


class RK45:
    """Class attributes of scipy's RK45 that the steppers read."""

    TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
    error_estimator_order = 4
    n_stages = 6
    C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
    A = np.array([
        [0, 0, 0, 0, 0],
        [1/5, 0, 0, 0, 0],
        [3/40, 9/40, 0, 0, 0],
        [44/45, -56/15, 32/9, 0, 0],
        [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
        [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
    ])
    B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
    E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
    # Corresponds to the optimum value of c_6 (Shampine, Math. Comp. 46, 135 (1986)).
    P = np.array([
        [1, -8048581381/2820520608, 8663915743/2820520608,
         -12715105075/11282082432],
        [0, 0, 0, 0],
        [0, 131558114200/32700410799, -68118460800/10900136933,
         87487479700/32700410799],
        [0, -1754552775/470086768, 14199869525/1410260304,
         -10690763975/1880347072],
        [0, 127303824393/49829197408, -318862633887/49829197408,
         701980252875 / 199316789632],
        [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
        [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


ERROR_EXPONENT = -1 / (RK45.error_estimator_order + 1)


def validate_tol(rtol, atol):
    """Scalar tolerances, rtol raised to scipy's floor with scipy's warning,
    which names the line of the nearest caller outside this package."""
    if np.ndim(rtol) or np.ndim(atol):
        raise ValidationError("rtol and atol must be scalars")
    if rtol < 100 * EPS:
        level, frame = 1, sys._getframe()
        while frame.f_back and frame.f_globals.get("__package__") == __package__:
            level, frame = level + 1, frame.f_back
        warn("At least one element of `rtol` is too small. "
             f"Setting `rtol = np.maximum(rtol, {100 * EPS})`.",
             stacklevel=level)
        rtol = 100 * EPS
    if not (rtol >= 0 and atol >= 0):  # a NaN step size would never fall below min_step
        raise ValidationError(f"rtol and atol must be >= 0, got {rtol} and {atol}")
    return rtol, atol


def norm(x):
    """Compute RMS norm."""
    return np.linalg.norm(x) / x.size ** 0.5


def select_initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """Empirically select a good initial step from t0 towards t_bound > t0
    (Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4)."""
    interval_length = t_bound - t0
    scale = atol + np.abs(y0) * rtol
    d0 = norm(y0 / scale)
    d1 = norm(f0 / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -ERROR_EXPONENT
    return min(100 * h0, h1, interval_length)


def min_step(t):
    """Smallest step RK45 attempts from t: ten float spacings at t."""
    return 10 * abs(math.nextafter(t, math.inf) - t)


def rescale(h_abs, error_norm, rejected):
    """Step size after an attempt of h_abs with this error norm: below 1 the
    step is accepted and the size grows, by no more than 1 if an earlier
    attempt of the same step was `rejected`; otherwise it shrinks."""
    if error_norm < 1:
        factor = MAX_FACTOR if error_norm == 0 else min(
            MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        return h_abs * (min(1, factor) if rejected else factor)
    return h_abs * max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)


def rk45_nfev(attempts: int) -> int:
    """RHS calls of an RK45 run: f(t0), the initial step's probe, six per attempt."""
    return 2 + 6 * attempts


def dense_powers(x):
    """Rows x, x^2, x^3, x^4 of the dense output at x = (t - t_old) / h,
    multiplied as scipy's RkDenseOutput multiplies them."""
    return np.cumprod(np.tile(x, (RK45.P.shape[1], 1)), axis=0)


_A = [row[:s].tolist() for s, row in enumerate(RK45.A)]
_B, _C, _E = RK45.B.tolist(), RK45.C.tolist(), RK45.E.tolist()


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


def _abs2(b):
    """abs(b) ** 2 over a lane vector: np.float_power calls libm's pow, as Python's ** does;
    np.power and x * x multiply, which differs from pow in the last bit of some values."""
    return np.float_power(np.hypot(b.real, b.imag), 2)


def _rhs(lanes):
    """Time derivative of y = (<a>, <b_1>, ..., <b_M>) for lanes [(cfg, modes)]
    of one mode count M; y and the result are a list of Python complex for
    one lane, a (components, lanes) array for several:

    da/dt   = -(kappa/2 + i dc) a - i sum_n g_n b_n - i F(t)
    db_n/dt = -(gamma_n/2 + i d_n) b_n + 2i U_n |b_n|^2 b_n - i g_n a
    """
    one = len(lanes) == 1
    pulses = [cfg.pulse for cfg, _ in lanes]
    shifts = [p.carrier for p in pulses]
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
        (pulse,) = pulses
        cmul, abs2, pack = mul, lambda b: abs(b) ** 2, list

        def drive(t):
            return drive_amplitude(t, pulse)
    else:
        cmul, abs2, pack = _cmul, _abs2, np.array

        def drive(t):
            return np.array(list(map(drive_amplitude, t.tolist(), pulses)))

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


def resolution_limit(cfg: SystemConfig) -> float:
    """Largest grid spacing that still samples every rotating-frame period (a
    mode's detuning from the carrier) and the fastest decay at >= 20 points each."""
    shift = cfg.pulse.carrier
    detunings = [abs(cfg.cavity.omega_c - shift)] + [abs(d.omega - shift) for d in cfg.dipoles]
    scales = [1.0 / cfg.cavity.kappa]
    scales += [1.0 / d.gamma for d in cfg.dipoles]
    scales += [2.0 * math.pi / w for w in detunings if w > 1e-12]
    return min(scales) / SAMPLES_PER_SCALE


def check_resolution(cfg: SystemConfig, dt: float) -> None:
    """GridError unless a grid spacing dt is within resolution_limit(cfg)."""
    limit = resolution_limit(cfg)
    if dt > limit * (1 + 1e-9):
        raise GridError(f"grid spacing {dt:.3e} does not resolve the rotating-frame "
                        f"detuning/decay scales (limit {limit:.3e})")


def default_dt(cfg: SystemConfig) -> float:
    return 0.5 * min(resolution_limit(cfg), cfg.pulse.duration / SAMPLES_PER_SCALE)


def uniform_grid(t_span: tuple[float, float], dt: float) -> np.ndarray:
    t0, t1 = t_span
    if not 0 < t1 - t0 < math.inf:  # NaN fails too
        raise GridError(f"time span {t_span} is empty or unbounded")
    if not 0 < dt <= t1 - t0:
        raise GridError(f"time step {dt} must be > 0 and at most the span {t1 - t0}")
    n = int(round((t1 - t0) / dt))
    return t0 + dt * np.arange(n + 1)


def resolved_grid(cfg: SystemConfig, t_span: tuple[float, float], dt: float | None) -> np.ndarray:
    """Output grid of either solver: uniform_grid at dt, or default_dt(cfg)
    if dt is None; GridError, before any RHS call, unless it resolves cfg."""
    grid = uniform_grid(t_span, dt if dt is not None else default_dt(cfg))
    check_resolution(cfg, grid[1] - grid[0])
    return grid


@dataclass(frozen=True)
class CoherenceSeries:
    """Coherences on a uniform grid, the one record both solvers return: the
    cavity series `a` and `modes`, <b_n> per well when `per_well` is set,
    else the bright mode <B0> alone. The grid must be strictly increasing,
    uniform and resolve `config`, and every sample finite. Coherences are
    stored in the frame rotating at the drive carrier."""

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
        check_resolution(self.config, steps[0])
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.modes))):
            raise ValidationError("trajectory contains non-finite samples")

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def bright(self) -> np.ndarray:
        """Bright collective coherence <B0> in the rotating frame."""
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
        return self.signal(source) * np.exp(-1j * self.config.pulse.carrier * self.t)


@dataclass(frozen=True)
class MeanFieldTrajectory(CoherenceSeries):
    """Mean-field solution with its solver effort."""

    stats: dict = field(default_factory=dict)  # solver effort: nfev, n_steps, n_rejected

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
            [f"frame: {Frame.ROTATING.value}", *(f"{k}: {v}" for k, v in self.labels.items())],
            ["t"] + [f"re_{n},im_{n}" for n in ["a", *names]],
            table_rows(self.t, *(part for s in series for part in (s.real, s.imag))),
        )

    def write_sidecar(self, path) -> None:
        write_json(path, {
            "config": config_to_dict(self.config),
            "dt": self.dt,
            **self.labels,
            "frame": Frame.ROTATING.value,
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
    RK45 lane batch per component count from y = 0. Every request is checked
    before any RHS call. Yields (request index, trajectory) as lanes finish,
    so a caller can use and drop each in turn; every trajectory has the bits
    integrate gives it alone, and up to 3 components those of
    solve_ivp(method="RK45", t_eval=grid), on one BLAS (README)."""
    batches: dict[int, list[_LaneState]] = {}
    for i, (cfg, t_span, dt) in enumerate(requests):
        p = cfg.pulse
        if t_span[0] > p.center - 3 * p.duration or t_span[1] < p.center + 3 * p.duration:
            raise ValidationError(f"t_span {t_span} does not cover the pulse")
        lane = _LaneState(i, cfg, resolved_grid(cfg, t_span, dt))
        batches.setdefault(len(lane.modes), []).append(lane)
    rtol, atol = validate_tol(rtol, atol)
    for lanes in batches.values():
        y0 = np.zeros((1 + len(lanes[0].modes), len(lanes)), dtype=complex)
        f = []
        for s in lanes:
            one = _rhs([(s.cfg, s.modes)])
            fun = lambda t, y: np.asarray(one(t, y), dtype=complex)  # noqa: E731
            f.append(fun(s.t, y0[:, 0]))
            s.h_abs = float(select_initial_step(fun, s.t, y0[:, 0], s.t_bound, f[-1], rtol, atol))
        for s in _advance(lanes, y0, np.array(f).T.copy(), rtol, atol):
            yield s.index, s.result()


def _combine(stages, coeffs, h, y=None):
    """y + (sum_j coeffs[j] * stages[j]) * h, or without y, summed in stage
    order for every component count: the bits of scipy's np.dot(K.T, coeffs)
    * h up to 3 components, where OpenBLAS does not block. Stages as _rhs
    returns them."""
    if isinstance(stages[0], np.ndarray):
        d = stages[0] * coeffs[0]
        for k, c in zip(stages[1:], coeffs[1:]):
            d = d + k * c
        return d * h if y is None else y + d * h
    d = []
    for column in zip(*stages):
        acc = column[0] * coeffs[0]
        for k, c in zip(column[1:], coeffs[1:]):
            acc = acc + k * c
        d.append(acc)
    return [di * h for di in d] if y is None else [yi + di * h for yi, di in zip(y, d)]


@dataclass(slots=True)
class _LaneState:
    """One request from validation to trajectory: its index in the requests,
    config, modes and output grid; then the RK45 state scipy's RK45 object
    would hold, and each accepted step's (t_old, h, y_old, K) of this lane."""

    index: int
    cfg: SystemConfig
    grid: np.ndarray
    per_well: bool = field(init=False)
    modes: tuple = field(init=False)
    t: float = field(init=False)
    t_bound: float = field(init=False)
    h_abs: float = 0.0
    t_new: float = 0.0
    fresh: bool = True  # the next attempt starts a new step, not a retry of a rejected one
    steps: list = field(default_factory=list)
    n_rejected: int = 0

    def __post_init__(self):
        self.per_well = not self.cfg.is_homogeneous
        self.modes = _modes(self.cfg, self.per_well)
        self.t, self.t_bound = float(self.grid[0]), float(self.grid[-1])

    def result(self) -> MeanFieldTrajectory:
        """The lane's trajectory with its solver effort. Samples as scipy's
        RkDenseOutput of each step gives them on its (t_old, t_new]: Q = K^T P
        of all steps in one product, whose shape fixes its bits; then per
        group of whole steps covering at most BLOCK_ROWS samples (a longer
        step alone), x and its powers, one np.dot(Q, p) per step, * h and
        + y_old, so no temporary spans the grid."""
        t_old, h, y_old, k = zip(*self.steps)
        self.steps = []  # freed now: the batch holds a finished lane until it steps on
        ends = np.searchsorted(self.grid, t_old[1:] + (self.t_bound,), side="right")
        counts = np.diff(ends, prepend=0)
        used = np.flatnonzero(counts).tolist()
        n = 1 + len(self.modes)
        q = np.array([k[i] for i in used]).transpose(1, 0, 2)
        q = q.reshape(RK45.n_stages + 1, -1).T.dot(RK45.P).reshape(len(used), n, -1)
        counts = counts[used]
        t_old, h, y_old = np.take(t_old, used), np.take(h, used), np.array([y_old[i] for i in used])
        bounds = np.concatenate([[0], np.cumsum(counts)]).tolist()
        samples = np.empty((n, bounds[-1]), dtype=complex)
        lo = 0
        while lo < len(used):
            hi = max(lo + 1, bisect.bisect_right(bounds, bounds[lo] + BLOCK_ROWS) - 1)
            start, stop, c = bounds[lo], bounds[hi], counts[lo:hi]
            t0, hs = np.repeat(t_old[lo:hi], c), np.repeat(h[lo:hi], c)
            p = dense_powers((self.grid[start:stop] - t0) / hs)
            for qi, a, b in zip(q[lo:hi], bounds[lo:hi], bounds[lo + 1:hi + 1]):
                samples[:, a:b] = np.dot(qi, p[:, a - start:b - start])
            block = samples[:, start:stop]
            block *= hs
            block += np.repeat(y_old[lo:hi].T, c, axis=1)
            lo = hi
        return MeanFieldTrajectory(self.grid, samples[0], samples[1:], self.cfg, self.per_well, {
            "nfev": rk45_nfev(len(k) + self.n_rejected), "n_steps": len(k),
            "n_rejected": self.n_rejected})


def _advance(live, y, f, rtol, atol):
    """Step the lanes `live` from their (components, lanes) state y with
    derivative f to their ends, yielding each lane as it finishes.

    Scalars or lane arrays are chosen at the entry of the outer loop, and
    nowhere else: below LANES_MIN lanes each goes on alone on Python
    scalars, else they step together as lane arrays, which round as
    Python's scalars (_combine, _rhs). Each lane keeps scipy's own t and
    step size, and retries a rejected step on its own (`fresh`). When
    lanes finish, the others re-enter as C-ordered copies (_cmul views rows
    as floats); a loop, not a recursion, so no batch is too large to nest.
    The error norm keeps scipy's numpy expressions, and select_initial_step,
    the step factor's power, the drive's exp and np.dot(Q, p) stay per lane.
    """
    while True:
        if 1 < len(live) < LANES_MIN:
            for j, s in enumerate(live):
                yield from _advance([s], y[:, j:j + 1], f[:, j:j + 1], rtol, atol)
            return
        n, scalars = len(y), len(live) == 1
        if scalars:  # Python scalars, whose own rounding is the reference
            y, f = y[:, 0].tolist(), f[:, 0].tolist()
        rhs = _rhs([(s.cfg, s.modes) for s in live])
        while True:
            hs = []
            for s in live:
                floor = min_step(s.t)
                if s.fresh:
                    s.h_abs = max(s.h_abs, floor)
                elif s.h_abs < floor:
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
            x = _combine(k, _E, h) / (atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol)
            parts = x.view(float).reshape(n, -1, 2)  # np.linalg.norm's dots of re and im, per lane
            norms = [math.sqrt(re + im) / n**0.5
                     for re, im in np.vecdot(parts, parts, axis=0).tolist()]
            stages = None if scalars else np.array(k)
            accepted = []
            for j, (s, error_norm) in enumerate(zip(live, norms)):
                if not math.isfinite(error_norm):
                    raise SolverError(
                        f"mean-field integration failed at t = {s.t!r}: error norm {error_norm} "
                        f"for config {format_config(s.cfg).strip().replace(chr(10), '; ')}")
                s.h_abs = rescale(s.h_abs, error_norm, not s.fresh)
                s.fresh = error_norm < 1
                if s.fresh:
                    s.steps.append((s.t, hs[j], y, k) if scalars else
                                   (s.t, hs[j], y[:, j].copy(), stages[:, :, j].copy()))
                    s.t = s.t_new
                else:
                    s.n_rejected += 1
                accepted.append(s.fresh)
            if all(accepted):
                y, f = y_new, k[-1]
            elif any(accepted):
                mask = np.array(accepted)
                y, f = np.where(mask, y_new, y), np.where(mask, k[-1], f)
            keep = [j for j, s in enumerate(live) if s.t != s.t_bound]
            if len(keep) < len(live):
                break
        yield from (s for s in live if s.t == s.t_bound)
        if not keep:
            return
        live, y, f = [live[j] for j in keep], y[:, keep].copy(), f[:, keep].copy()  # C order


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

    The phase is read in the frame rotating at the drive carrier, the one
    every trajectory is stored in, and unwrapped from the pulse peak onward.
    """
    if not traj.config.is_homogeneous:
        raise ValidationError("the post-pulse oracle applies to identical wells")
    b = traj.bright()
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
