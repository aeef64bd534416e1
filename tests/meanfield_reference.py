"""Collective-basis reference for the mean-field equations of a well pair.

`collective_rhs` writes the pair in B0 = (b1+b2)/sqrt(2), B1 = (b1-b2)/sqrt(2)
rather than per well. With equal g and U the cavity couples to B0 alone
(with sqrt(2) g), and the wells' differences in omega and gamma, plus the
Kerr term, mix B0 and B1:

    dB0/dt = -D B0 - M B1 - i sqrt(2) g a,    dB1/dt = -D B1 - M B0,
    D = (gamma1 + gamma2)/4 + i (wbar - U (|B0|^2 + |B1|^2)),
    M = (gamma1 - gamma2)/4 + i (dw - 2 U Re(B0* B1)),

with wbar and dw the mean and half difference of the well frequencies.
`solve` integrates any such right-hand side on a uniform grid from a given
start with scipy's `solve_ivp` RK45, whose bits `qwcavity.meanfield.integrate`
reproduces from vacuum.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from qwcavity import Frame, ValidationError, drive_amplitude
from qwcavity.meanfield import ATOL_DEFAULT, RTOL_DEFAULT, default_dt, uniform_grid


def collective_rhs(cfg):
    """Time derivative of (<a>, <B0>, <B1>) for a pair with equal g and U."""
    d1, d2 = cfg.dipoles
    if d1.coupling != d2.coupling or d1.anharmonicity != d2.anharmonicity:
        raise ValidationError("collective two-well form requires equal g and U")
    shift = cfg.pulse.carrier if cfg.frame is Frame.ROTATING else 0.0
    u = d1.anharmonicity
    dc = cfg.cavity.omega_c - shift
    kappa_half = 0.5 * cfg.cavity.kappa
    gbar_half = 0.25 * (d1.gamma + d2.gamma)
    dgamma_half = 0.25 * (d1.gamma - d2.gamma)
    wbar = 0.5 * (d1.omega + d2.omega) - shift
    dw = 0.5 * (d1.omega - d2.omega)
    g_n = math.sqrt(2.0) * d1.coupling

    def rhs(t, y):
        a, b0, b1 = y
        occ = abs(b0) ** 2 + abs(b1) ** 2
        cross = (b0.conjugate() * b1).real
        diag = gbar_half + 1j * (wbar - u * occ)
        mix = dgamma_half + 1j * (dw - 2.0 * u * cross)
        da = -(kappa_half + 1j * dc) * a - 1j * g_n * b0 - 1j * drive_amplitude(t, cfg.pulse, cfg.frame)
        db0 = -diag * b0 - mix * b1 - 1j * g_n * a
        db1 = -diag * b1 - mix * b0
        return [da, db0, db1]

    return rhs


def solve_ivp_rk45(rhs, y0, grid, *, rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT):
    """scipy's solve_ivp RK45 from y0, sampled on grid."""
    return solve_ivp(
        lambda t, y: np.asarray(rhs(t, y), dtype=complex),
        t_span=(grid[0], grid[-1]),
        y0=np.asarray(y0, dtype=complex),
        t_eval=grid,
        method="RK45",
        rtol=rtol,
        atol=atol,
    )


def solve(rhs, y0, t_span, cfg, *, dt=None, rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT):
    """(grid, y) with y[:, i] the state at grid[i], started from y0."""
    grid = uniform_grid(t_span, dt if dt is not None else default_dt(cfg))
    sol = solve_ivp_rk45(rhs, y0, grid, rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return grid, sol.y
