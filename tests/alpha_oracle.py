"""First-order-in-U oracle for the quadratic fit coefficient alpha.

For identical wells in the rotating frame the mean-field equations are

    da/dt = -(kappa/2 + i dc) a - i sqrt(N) g B - i F(t)
    dB/dt = -(gamma/2 + i d0) B - i sqrt(N) g a + i (2U/N) |B|^2 B

with F(t) = F0 exp(-(t - t0)^2 / (2 T^2)). Write y = (a, B) and M for the
constant linear matrix. At U = 0 the Gaussian drive gives the closed form

    y0(t) = V diag(G(lambda_k, t - t0)) V^-1 (-i F0, 0)

where M = V diag(lambda) V^-1 and G is the Gaussian-driven exponential
response below (erfc / Faddeeva form). To first order in U the Kerr term
acts as a source q(s) = (0, i (2U/N) |B0|^2 B0) for the same linear
propagator. The FID spectrum at omega0 is proportional to the window
integral S = int_{t_a}^{t_b} a(t) exp(i (omega0 - omega_d) t) dt. That
makes dPhi(omega0) = Im(S1/S0) to first order, with

    S1 = int ds  e_a . [int_{max(s, t_a)}^{t_b} exp(i delta t) exp(M (t - s)) dt] q(s).

The inner t-integral is done analytically and the outer s-integral by
composite Gauss-Legendre quadrature. S1/S0 scales as (2U/N) (F0/kappa)^2,
so alpha = C N gamma_tilde / (2U) = gamma_tilde Im(S1'/S0), where S1' is
taken at unit Kerr constant and F0 = kappa. No ODE integrator is involved.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, wofz

from qwcavity import SystemConfig, effective_decay, set_config_value


def gaussian_response(lam: complex, tau, width: float) -> np.ndarray:
    """G(lam, tau) = int_{-inf}^{tau} exp(lam (tau - u)) exp(-u^2 / (2 T^2)) du.

    Needs Re(lam) < 0. Uses the erfc form after the pulse peak and the
    Faddeeva form w(z) = exp(-z^2) erfc(-i z) before it, so neither side
    overflows.
    """
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    out = np.empty(tau.shape, dtype=complex)
    pre = width * math.sqrt(0.5 * math.pi)
    late = tau > 0
    x = (tau[late] + lam * width**2) / (math.sqrt(2.0) * width)
    out[late] = pre * np.exp(lam * tau[late] + 0.5 * (lam * width) ** 2) * erfc(-x)
    z = -1j * (tau[~late] + lam * width**2) / (math.sqrt(2.0) * width)
    out[~late] = pre * np.exp(-tau[~late] ** 2 / (2.0 * width**2)) * wofz(z)
    return out


def _linear_system(cfg: SystemConfig):
    if not cfg.is_homogeneous:
        raise ValueError("the first-order oracle applies to identical wells")
    c, d, wd = cfg.cavity, cfg.dipoles[0], cfg.pulse.carrier
    g = cfg.collective_coupling
    m = np.array(
        [
            [-(0.5 * c.kappa + 1j * (c.omega_c - wd)), -1j * g],
            [-1j * g, -(0.5 * d.gamma + 1j * (d.omega - wd))],
        ]
    )
    lam, v = np.linalg.eig(m)
    return lam, v, np.linalg.inv(v)


def linear_response(cfg: SystemConfig, t) -> np.ndarray:
    """U = 0 rotating-frame (a(t), B0(t)) from vacuum, shape (2, len(t))."""
    lam, v, vinv = _linear_system(cfg)
    p = cfg.pulse
    coef = vinv @ np.array([-1j * p.amplitude, 0.0])
    tau = np.asarray(t) - p.center
    return v @ np.array([coef[k] * gaussian_response(lam[k], tau, p.duration) for k in range(2)])


def _nodes(a: float, b: float, pieces: int, order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, pieces + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    return (0.5 * (hi - lo) * x + 0.5 * (hi + lo)).ravel(), (0.5 * (hi - lo) * w).ravel()


def first_order_alpha(
    cfg: SystemConfig, window: tuple[float, float], *, pieces: int = 64, order: int = 24
) -> float:
    """alpha to first order in U for the FID window [t_a, t_b] read at omega0.

    Independent of U and F0 by construction; `cfg` supplies kappa, gamma,
    sqrt(N) g, the detunings and the pulse shape.
    """
    lam, v, vinv = _linear_system(cfg)
    unit_cfg = set_config_value(cfg, "pulse.F0", cfg.cavity.kappa)  # F0/kappa = 1
    t_a, t_b = window
    delta = cfg.dipoles[0].omega - cfg.pulse.carrier

    t, wt = _nodes(t_a, t_b, pieces, order)
    s0 = np.sum(wt * linear_response(unit_cfg, t)[0] * np.exp(1j * delta * t))

    mu = lam + 1j * delta
    s1 = 0.0
    start = cfg.pulse.center - 10.0 * cfg.pulse.duration
    for a, b in ((start, t_a), (t_a, t_b)):
        s, ws = _nodes(a, b, pieces, order)
        b0 = linear_response(unit_cfg, s)[1]
        q = vinv @ np.array([np.zeros_like(b0), 1j * np.abs(b0) ** 2 * b0])
        lo = np.maximum(s, t_a)
        kernel = (
            np.exp(lam[:, None] * (t_b - s) + 1j * delta * t_b)
            - np.exp(lam[:, None] * (lo - s) + 1j * delta * lo)
        ) / mu[:, None]
        s1 = s1 + np.sum(ws * (v[0, :, None] * kernel * q).sum(axis=0))
    return float((s1 / s0).imag) * effective_decay(cfg)
