"""FID windowing, Fourier phase spectra, nonlinear phase extraction.

The Fourier convention is fixed once here: S(w) = (1/sqrt(2*pi)) *
integral dt s(t) exp(+i w t), evaluated for the lab-frame post-pulse
signal. Phases are four-quadrant angles unwrapped inside the resonance
band only. All operations are pure; sweep points can be processed in
parallel safely.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, GridError, ValidationError
from .model import (
    SystemConfig,
    effective_decay,
    envelope,
    set_config_value,
    table_rows,
    write_json,
    write_table,
)
from .meanfield import MeanFieldTrajectory

# Gaussian envelope at the default turn-off t0 + 3T is exp(-4.5) ~ 1.11e-2;
# the window check allows exactly that much residual drive.
ENVELOPE_OFF_THRESHOLD = 1.2e-2
FFT_CONVENTION = "S(w) = (2*pi)^(-1/2) * sum_j dt s(t_j) exp(+i w t_j), trapezoid ends"
MIN_TAIL = 5.0            # required trajectory length past t_off, in 1/gamma_tilde
WINDOW_TAIL = 8.0         # integration span past t_off, in 1/gamma_tilde
RESOLUTION_FACTOR = 50.0  # spectrum grid step d_omega = gamma_tilde / factor
BAND_FACTOR = 10.0        # unwrap band half-width, in gamma_tilde
NOISE_FLOOR = 1e-12       # magnitude floor relative to the band peak
WEAK_RATIO = 0.01         # F0/kappa of the 'weak' baseline
AMP_FLOOR = 1e-6          # time_delay: smallest weak extremum kept, relative to the trace peak
RESIDUAL_THRESHOLD = 0.05  # fit_alpha: largest rms residual, relative to max |dphi|, in regime


@dataclass(frozen=True)
class SpectralPolicy:
    """Windowing and read-off choices shared by a run and its baseline."""

    t_off_factor: float = 3.0      # t_off = t0 + factor * T
    baseline_mode: str = "harmonic"  # 'harmonic' (U = 0) or 'weak' (F0 = WEAK_RATIO*kappa)

    def __post_init__(self):
        if not math.isfinite(self.t_off_factor):
            raise ConfigError(f"SpectralPolicy.t_off_factor must be finite, got {self.t_off_factor}")
        if self.baseline_mode not in ("harmonic", "weak"):
            raise ValidationError(f"unknown baseline mode {self.baseline_mode!r}")

    def resolve_t_off(self, cfg: SystemConfig) -> float:
        return cfg.pulse.center + self.t_off_factor * cfg.pulse.duration


def fid_time_span(cfg: SystemConfig, policy: SpectralPolicy = SpectralPolicy()) -> tuple[float, float]:
    """Integration span that leaves WINDOW_TAIL decay lengths of FID."""
    t_off = policy.resolve_t_off(cfg)
    return (0.0, t_off + WINDOW_TAIL / effective_decay(cfg))


def baseline_config(cfg: SystemConfig, policy: SpectralPolicy = SpectralPolicy()) -> SystemConfig:
    """Reference configuration whose phase defines Phi_harm."""
    if policy.baseline_mode == "harmonic":
        out = cfg
        for n in range(cfg.n_wells):
            out = set_config_value(out, f"dipoles[{n}].U", 0.0)
        return out
    return set_config_value(cfg, "pulse.F0", WEAK_RATIO * cfg.cavity.kappa)   # the one other mode


@dataclass(frozen=True)
class FidWindow:
    """Lab-frame post-pulse segment of one coherence."""

    t: np.ndarray
    values: np.ndarray
    t_off: float
    source: str
    config: SystemConfig

    def __post_init__(self):
        if self.t[0] < self.t_off - 1e-9:
            raise ValidationError("window must start at t_off")
        # the envelope peaks at the window point nearest the pulse centre
        p = self.config.pulse
        residual = envelope(min(max(p.center, self.t[0]), self.t[-1]), p)
        if residual >= ENVELOPE_OFF_THRESHOLD:
            raise ValidationError(
                f"pulse envelope still at {residual:.2e} inside the FID window"
            )

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


def fid_window(traj, policy: SpectralPolicy = SpectralPolicy(), source: str = "cavity") -> FidWindow:
    """Cut the post-pulse FID segment out of a trajectory.

    `traj` is any `CoherenceSeries`: a mean-field or a Lindblad result.
    """
    cfg = traj.config
    t_off = policy.resolve_t_off(cfg)
    gamma_tilde = effective_decay(cfg)
    if traj.t[-1] < t_off + MIN_TAIL / gamma_tilde - 1e-9:
        raise ValidationError(
            f"trajectory too short: ends at {traj.t[-1]:.3f}, need "
            f">= {t_off + MIN_TAIL / gamma_tilde:.3f} (t_off + {MIN_TAIL}/gamma_tilde)"
        )
    keep = traj.t >= t_off - 1e-12
    return FidWindow(
        t=traj.t[keep],
        values=traj.lab_signal(source)[keep],
        t_off=t_off,
        source=source,
        config=cfg,
    )


@dataclass(frozen=True)
class Spectrum:
    """FID spectrum on the band around the dipole resonance, with its phase.

    `mask` marks the contiguous in-band bins where the phase is unwrapped
    and trustworthy; outside, `phase` holds the raw angle (NaN below the
    magnitude floor). No silent interpolation across dead bins.
    """

    omega: np.ndarray
    values: np.ndarray
    phase: np.ndarray
    magnitude: np.ndarray
    mask: np.ndarray
    omega0: float
    gamma_tilde: float
    t_off: float
    source: str


@functools.lru_cache(maxsize=None)
def _smooth_lengths(limit: int) -> tuple[int, ...]:
    """Every 2^a 3^b 5^c 7^d 11^e up to limit, sorted."""
    out = [1]
    for p in (2, 3, 5, 7, 11):
        grown = []
        for m in out:
            while m <= limit:
                grown.append(m)
                m *= p
        out = grown
    return tuple(sorted(out))


def next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= n, the lengths pocketfft transforms
    fastest: scipy.fft.next_fast_len(n) for complex input."""
    table = _smooth_lengths(1 << (n - 1).bit_length())   # the power of two >= n is in it
    return table[bisect.bisect_left(table, n)]


_workspace = np.empty(0, complex)  # fourier's padded transform; grows, never shrinks


def fourier(window: FidWindow) -> Spectrum:
    """Discrete approximation of the continuous transform on a padded grid.

    Zero-pads until the frequency step is at most gamma_tilde/RESOLUTION_FACTOR,
    corrects the end points to trapezoid weights, keeps the band within
    12 gamma_tilde of the first dipole's omega0 and unwraps its phase.

    The padded transform (2-3 MB in a sweep) is written into one reused
    per-process workspace, so a sweep does not map and zero-fill fresh
    pages for every spectrum; the band is copied out of it. Not re-entrant
    across threads (the package starts none); pool workers each own theirs.
    """
    global _workspace
    cfg = window.config
    gamma_tilde = effective_decay(cfg)
    omega0 = cfg.dipoles[0].omega
    resolution = gamma_tilde / RESOLUTION_FACTOR
    band_halfwidth = 12.0 * gamma_tilde

    dt = window.dt
    nyquist = math.pi / dt
    if nyquist <= omega0 + 10.0 * gamma_tilde:
        raise GridError(
            f"sampling too coarse: Nyquist {nyquist:.2f} rad/ps must exceed "
            f"omega0 + 10*gamma_tilde = {omega0 + 10 * gamma_tilde:.2f}"
        )

    x = window.values
    m = len(x)
    n_fft = next_fast_len(max(m, int(math.ceil(2.0 * math.pi / (resolution * dt)))))
    lo = max(omega0 - band_halfwidth, 0.0)
    hi = min(omega0 + band_halfwidth, nyquist)
    d_omega = 2.0 * math.pi / (n_fft * dt)  # bins [k0, k1) hold [lo, hi] and one more each side
    k0, k1 = max(int(lo / d_omega) - 1, 0), min(int(hi / d_omega) + 2, n_fft)
    omega = 2.0 * math.pi * np.arange(k0, k1) / (n_fft * dt)
    sel = (omega >= lo) & (omega <= hi)
    if len(_workspace) < n_fft:
        _workspace = np.empty(n_fft, complex)
    # sum_j x_j exp(+2i pi jk/n); the product copies the band out of the workspace
    rect = np.fft.ifft(x, n_fft, out=_workspace[:n_fft])[k0:k1] * n_fft
    w = omega[sel]
    trap = rect[sel] - 0.5 * x[0] - 0.5 * x[-1] * np.exp(1j * w * (m - 1) * dt)
    values = (dt / math.sqrt(2.0 * math.pi)) * np.exp(1j * w * window.t[0]) * trap
    return phase_spectrum(w, values, omega0, gamma_tilde, window.t_off, window.source)


def phase_spectrum(omega, values, omega0: float, gamma_tilde: float, t_off: float,
                   source: str) -> Spectrum:
    """Spectrum of `values` on `omega`, its phase unwrapped around omega0."""
    mag = np.abs(values)
    peak = float(mag.max())
    if peak == 0.0:
        raise ValidationError("spectrum is identically zero; phase undefined")
    alive = mag > NOISE_FLOOR * peak
    band = np.abs(omega - omega0) <= BAND_FACTOR * gamma_tilde
    if not band.any():
        raise ValidationError("resonance band not covered by the spectrum grid")

    phase = np.where(alive, np.angle(values), np.nan)
    # unwrap the contiguous alive run inside the band that contains omega0
    i0 = int(np.argmin(np.abs(omega - omega0)))
    if not (alive[i0] and band[i0]):
        raise ValidationError("spectrum magnitude at the resonance is below the noise floor")
    ok = alive & band
    lo = i0
    while lo > 0 and ok[lo - 1]:
        lo -= 1
    hi = i0
    while hi < len(ok) - 1 and ok[hi + 1]:
        hi += 1
    mask = np.zeros_like(ok)
    mask[lo : hi + 1] = True
    unwrapped = np.unwrap(np.angle(values[mask]))
    # anchor the branch at the resonance bin so the read-off there is the
    # principal four-quadrant angle, not an offset inherited from the band edge
    anchor = unwrapped[i0 - lo] - np.angle(values[i0])
    phase[mask] = unwrapped - 2.0 * math.pi * round(anchor / (2.0 * math.pi))
    return Spectrum(omega=omega, values=values, phase=phase, magnitude=mag, mask=mask,
                    omega0=omega0, gamma_tilde=gamma_tilde, t_off=t_off, source=source)


def relative_phase(run: Spectrum, base: Spectrum) -> float:
    """Delta Phi(omega0): Phi_run - Phi_baseline with the shared 2*pi branch removed.

    Both spectra must come from identically gridded windows; anything else
    is a setup error, not something to resample over.
    """
    if run.omega.shape != base.omega.shape or not np.allclose(
        run.omega, base.omega, rtol=0.0, atol=1e-12
    ):
        raise GridError("run and baseline spectra are on different frequency grids")
    if abs(run.t_off - base.t_off) > 1e-12:
        raise GridError("run and baseline use different t_off windows")
    mask = run.mask & base.mask
    dphi = run.phase[mask] - base.phase[mask]
    dphi -= 2.0 * math.pi * np.round(np.median(dphi) / (2.0 * math.pi))
    return float(np.interp(run.omega0, run.omega[mask], dphi))


def phase_pipeline(traj, policy: SpectralPolicy = SpectralPolicy(), source: str = "cavity") -> Spectrum:
    """fid_window -> fourier with one policy object."""
    return fourier(fid_window(traj, policy, source))


def nonlinear_phase_shift(
    traj, baseline_traj, policy: SpectralPolicy = SpectralPolicy(), source: str = "cavity"
) -> float:
    """Delta Phi(omega0) of a run against its baseline run."""
    return relative_phase(phase_pipeline(traj, policy, source),
                          phase_pipeline(baseline_traj, policy, source))


@dataclass(frozen=True)
class NonlinearPhaseResult:
    """Quadratic fit of Delta Phi(omega0) against the drive ratio F0/kappa."""

    points: tuple              # (F0/kappa, dphi) pairs used
    alpha: float
    quad_coeff: float          # C in dphi = C * (F0/kappa)^2
    exponent: float            # free power-law exponent diagnostic
    residual: float            # rms residual relative to max |dphi|
    fit_range: tuple           # (min, max) of F0/kappa actually fitted
    in_regime: bool
    gamma_tilde: float
    U: float
    N: int


def fit_alpha(points, cfg: SystemConfig) -> NonlinearPhaseResult:
    """Least-squares dphi = C*(F0/kappa)^2 and alpha = C*N*gamma_tilde/(2U).

    Needs at least five finite points, every F0/kappa > 0 and some dphi != 0; a
    residual above RESIDUAL_THRESHOLD or a power-law exponent far from 2
    flags the breakdown of the quadratic regime rather than silently
    extrapolating through it.
    """
    pts = sorted((float(r), float(p)) for r, p in points)
    if len(pts) < 5:
        raise ValidationError(f"need >= 5 drive points, got {len(pts)}")
    bad = [pt for pt in pts if not (math.isfinite(pt[0]) and math.isfinite(pt[1]))]
    if bad:
        raise ValidationError(f"drive points must be finite, got {bad[0]}")
    if pts[0][0] <= 0:
        raise ValidationError(f"drive ratios F0/kappa must be > 0, got {pts[0][0]}")
    if all(p == 0 for _, p in pts):
        raise ValidationError("dphi is zero at every drive point: no quadratic to fit")
    if len({(d.anharmonicity, d.gamma, d.coupling) for d in cfg.dipoles}) != 1:
        raise ValidationError("fit_alpha requires one U, gamma and g shared by every well")
    u = cfg.dipoles[0].anharmonicity
    if u <= 0:
        raise ValidationError("alpha is undefined for harmonic wells (U = 0)")
    gamma_tilde = effective_decay(cfg)

    r = np.array([p[0] for p in pts])
    dphi = np.array([p[1] for p in pts])
    quad = float(np.sum(dphi * r**2) / np.sum(r**4))
    nonzero = np.abs(dphi) > 0
    if nonzero.sum() >= 2:
        exponent = float(np.polyfit(np.log(r[nonzero]), np.log(np.abs(dphi[nonzero])), 1)[0])
    else:
        exponent = float("nan")
    residual = float(np.sqrt(np.mean((dphi - quad * r**2) ** 2)) / np.max(np.abs(dphi)))
    return NonlinearPhaseResult(
        points=tuple(pts),
        alpha=quad * cfg.n_wells * gamma_tilde / (2.0 * u),
        quad_coeff=quad,
        exponent=exponent,
        residual=residual,
        fit_range=(float(r[0]), float(r[-1])),
        in_regime=residual <= RESIDUAL_THRESHOLD,
        gamma_tilde=gamma_tilde,
        U=u,
        N=cfg.n_wells,
    )


@dataclass(frozen=True)
class DelaySeries:
    """Signed extremum time offsets strong-vs-weak along the weak trace."""

    times: np.ndarray
    delays: np.ndarray
    kinds: np.ndarray  # +1 for peaks, -1 for dips
    n_dropped: int


def _extrema(t: np.ndarray, x: np.ndarray):
    """Interior extrema with parabolic sub-sample refinement."""
    s = np.diff(x)
    idx = np.flatnonzero(s[:-1] * s[1:] < 0) + 1
    dt = t[1] - t[0]
    times, kinds, values = [], [], []
    for i in idx:
        y0, y1, y2 = x[i - 1], x[i], x[i + 1]
        curv = y0 - 2.0 * y1 + y2   # never 0 at a sign change of s: rounding is monotone
        times.append(t[i] + 0.5 * (y0 - y2) / curv * dt)
        kinds.append(1 if curv < 0 else -1)
        values.append(y1)
    return np.array(times), np.array(kinds), np.array(values)


def time_delay(strong: MeanFieldTrajectory, weak: MeanFieldTrajectory) -> DelaySeries:
    """Match same-kind extrema of Re of the lab-frame bright coherence and report
    the signed time offset of the strong trace at each weak extremum.

    Extrema are matched to the nearest candidate within half a carrier
    period; weak extrema below AMP_FLOOR of the trace peak (signal death)
    and unmatched ones are dropped.
    """
    cfg_s = set_config_value(strong.config, "pulse.F0", 0.0)
    cfg_w = set_config_value(weak.config, "pulse.F0", 0.0)
    if cfg_s != cfg_w:
        raise ValidationError("trajectories must share all parameters except F0")
    if strong.t.shape != weak.t.shape or not np.allclose(strong.t, weak.t, rtol=0, atol=1e-12):
        raise GridError("trajectories must share the time grid")

    xs = np.real(strong.lab_signal("bright"))
    xw = np.real(weak.lab_signal("bright"))
    ts, ks, _ = _extrema(strong.t, xs)
    tw, kw, vw = _extrema(weak.t, xw)
    floor = AMP_FLOOR * np.max(np.abs(xw))
    half_period = math.pi / strong.config.pulse.carrier

    times, delays, kinds = [], [], []
    dropped = 0
    for t_i, k_i, v_i in zip(tw, kw, vw):
        if abs(v_i) < floor:
            dropped += 1
            continue
        same = ts[ks == k_i]
        if len(same) == 0:
            dropped += 1
            continue
        j = int(np.argmin(np.abs(same - t_i)))
        if abs(same[j] - t_i) >= half_period:
            dropped += 1
            continue
        times.append(t_i)
        delays.append(same[j] - t_i)
        kinds.append(k_i)
    return DelaySeries(
        times=np.array(times), delays=np.array(delays), kinds=np.array(kinds), n_dropped=dropped
    )


def write_phase_csv(ps: Spectrum, path) -> None:
    write_table(
        path,
        [f"source: {ps.source}", f"t_off: {ps.t_off!r}", f"convention: {FFT_CONVENTION}"],
        ["omega", "re", "im", "magnitude", "phase_unwrapped"],
        table_rows(ps.omega, ps.values.real, ps.values.imag, ps.magnitude,
                   np.where(ps.mask, ps.phase, np.nan)),
    )


def write_fit_json(result: NonlinearPhaseResult, path) -> None:
    write_json(path, asdict(result))
