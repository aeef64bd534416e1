"""Loop-and-dense references for the Lindblad generator and recorder.

`dense_rhs` is the master equation written directly on the D x D matrix,

    drho/dt = A rho + rho A^dag + sum_k rate_k L_k rho L_k^dag,
    A = -i (H0 + c(t) a + c*(t) a^dag) - 1/2 sum_k rate_k L_k^dag L_k,

with dense operators and no superoperator, in the frame rotating at the
drive carrier as the package writes it, or in the lab frame: there H0 keeps
the bare mode frequencies and c(t) its carrier phase exp(+i w_d t). The two
are related by U = exp(-i w_d N_exc t), N_exc the diagonal of
`excitation_number`. `SampleRecorder` records one
density matrix at a time, in the order a sample-by-sample pass checks it:
top photon level, trace and Hermiticity maxima, then the eigenvalue
checkpoint. `reference_evolve` runs the same chunked integration as
`qwcavity.lindblad.evolve`, on the public `lindblad_rhs`, with that
per-sample recorder. `ScipyHalfRK45` is evolve's half-vector step control
built on scipy's own RK45 solver class.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.integrate import RK45, solve_ivp
from scipy.integrate._ivp.common import norm, select_initial_step

from qwcavity import DensityMatrix, TruncationError, build_hamiltonian, build_operators, lindblad_rhs
from qwcavity.errors import SolverError
from qwcavity.meanfield import default_dt, uniform_grid


def drive_coefficient(cfg, t: float, *, lab: bool = False) -> complex:
    """Coefficient of `a` in H_d(t): the Gaussian pulse, with its carrier phase in the lab frame."""
    amp = cfg.pulse.amplitude * math.exp(-((t - cfg.pulse.center) ** 2) / (2.0 * cfg.pulse.duration**2))
    return amp * np.exp(1j * cfg.pulse.carrier * t) if lab else amp


def excitation_number(h) -> np.ndarray:
    """Diagonal of N_exc = a^dag a + sum_n b_n^dag b_n, which commutes with H0 and the coupling."""
    a, wells = build_operators(h)
    return sum((op.conj().T @ op).diagonal().real for op in (a, *wells))


def dense_rhs(rho: np.ndarray, t: float, cfg, h, *, lab: bool = False) -> np.ndarray:
    a, wells = build_operators(h)
    a = a.toarray()
    jumps = [(cfg.cavity.kappa, a)] + [(d.gamma, b.toarray()) for d, b in zip(cfg.dipoles, wells)]
    c = drive_coefficient(cfg, t, lab=lab)
    # at zero carrier the package's H0 subtracts nothing: the bare lab-frame H0
    h0_cfg = replace(cfg, pulse=replace(cfg.pulse, carrier=0.0)) if lab else cfg
    h_t = build_hamiltonian(h0_cfg, h).toarray() + c * a + np.conj(c) * a.conj().T
    a_eff = -1j * h_t - sum(0.5 * rate * (op.conj().T @ op) for rate, op in jumps)
    out = a_eff @ rho + rho @ a_eff.conj().T
    for rate, op in jumps:
        out += rate * (op @ rho @ op.conj().T)
    return out


class SampleRecorder:
    """Per-sample expectation series and hygiene checks."""

    def __init__(self, h, grid, n_checkpoints=17, top_level_tol=1e-4, positivity_tol=1e-6):
        nt = len(grid)
        self.h, self.grid = h, grid
        self.top_level_tol, self.positivity_tol = top_level_tol, positivity_tol
        a, wells = build_operators(h)
        self.a_t = a.toarray().T.copy()
        self.b_t = [b.toarray().T.copy() for b in wells]
        d_w = h.nu_max + 1
        idx = np.arange(h.dim)
        self.photon = idx // d_w**h.n_wells
        self.levels = [(idx // d_w ** (h.n_wells - 1 - n)) % d_w for n in range(h.n_wells)]
        self.check_idx = sorted(set(np.linspace(0, nt - 1, n_checkpoints).astype(int)))
        self.exp_a = np.empty(nt, dtype=complex)
        self.exp_n = np.empty(nt)
        self.exp_b = np.empty((h.n_wells, nt), dtype=complex)
        self.populations = np.empty((h.n_wells, d_w, nt))
        self.checkpoints = []
        self.max_trace_dev = self.max_herm_dev = self.max_top = 0.0
        self.min_eig = np.inf

    def record(self, i: int, rho: np.ndarray) -> None:
        h = self.h
        diag = rho.diagonal().real
        self.exp_a[i] = np.sum(self.a_t * rho)
        self.exp_n[i] = float(diag @ self.photon)
        for n in range(h.n_wells):
            self.exp_b[n, i] = np.sum(self.b_t[n] * rho)
            for nu in range(h.nu_max + 1):
                self.populations[n, nu, i] = diag[self.levels[n] == nu].sum()
        top = diag[self.photon == h.n_photon_max].sum()
        self.max_top = max(self.max_top, top)
        if top > self.top_level_tol:
            raise TruncationError(
                f"population {top:.2e} in the top photon level at t={self.grid[i]:.3f} "
                f"(n_photon_max={h.n_photon_max} too low for this drive)"
            )
        self.max_trace_dev = max(self.max_trace_dev, abs(diag.sum() - 1.0))
        self.max_herm_dev = max(self.max_herm_dev, float(np.abs(rho - rho.conj().T).max()))
        if i in self.check_idx:
            dm = DensityMatrix(matrix=rho.copy(), time=float(self.grid[i]))
            eig = dm.deviations()["min_eigenvalue"]
            self.min_eig = min(self.min_eig, eig)
            if eig < -self.positivity_tol:
                raise SolverError(
                    f"positivity violated at t={self.grid[i]:.3f}: min eigenvalue {eig:.2e} "
                    f"(trace dev {self.max_trace_dev:.2e}, herm dev {self.max_herm_dev:.2e})"
                )
            self.checkpoints.append(dm)

    def diagnostics(self) -> dict:
        return {
            "max_trace_dev": self.max_trace_dev,
            "max_herm_dev": self.max_herm_dev,
            "min_eigenvalue": self.min_eig,
            "max_top_population": self.max_top,
        }

    def record_chunk(self, start: int, ys: np.ndarray) -> None:
        d = self.h.dim
        for j in range(ys.shape[1]):
            self.record(start + j, ys[:, j].reshape(d, d))


def reference_evolve(rho0, t_span, cfg, h, *, rtol=1e-9, atol=1e-12, dt=None,
                     chunk=256, **recorder_kwargs) -> SampleRecorder:
    rho0 = np.asarray(rho0, dtype=complex)
    d = h.dim
    grid = uniform_grid(t_span, dt if dt is not None else default_dt(cfg))
    rec = SampleRecorder(h, grid, **recorder_kwargs)
    rec.nfev = rec.n_steps = rec.n_chunks = 0
    rec.record(0, rho0)
    y = rho0.reshape(-1)
    for start in range(0, len(grid) - 1, chunk):
        stop = min(start + chunk, len(grid) - 1)
        sol = solve_ivp(
            lambda t, yy: lindblad_rhs(yy.reshape(d, d), t, cfg, h).reshape(-1),
            t_span=(grid[start], grid[stop]),
            y0=y,
            t_eval=grid[start + 1 : stop + 1],
            method="RK45",
            rtol=rtol,
            atol=atol,
            dense_output=True,   # keeps one interpolant per accepted step; changes no step
        )
        assert sol.success, sol.message
        rec.nfev += sol.nfev
        rec.n_steps += len(sol.sol.interpolants)
        rec.n_chunks += 1
        rec.record_chunk(start + 1, sol.y)
        y = sol.y[:, -1]
    return rec


class ScipyHalfRK45(RK45):
    """scipy's RK45 on the half vector of `qwcavity.lindblad._UpperTriangle`,
    with its initial step and every error norm taken on the expanded vec(rho):
    what `evolve`'s in-package stepper does, on scipy's OdeSolver machinery."""

    def __init__(self, fun, t0, y0, t_bound, tri, *, rtol, atol):
        self._expand = tri.expand
        # a placeholder first step, so that scipy's own choice is made only once, below;
        # its one RHS call counts in nfev as it does in RK45
        super().__init__(fun, t0, y0, t_bound, rtol=rtol, atol=atol, first_step=t_bound - t0)
        self.h_abs = select_initial_step(
            lambda t, y: tri.expand(self.fun(t, y[tri.upper])), self.t, tri.expand(self.y),
            t_bound, self.max_step, tri.expand(self.f), self.direction,
            self.error_estimator_order, self.rtol, self.atol)

    def _estimate_error_norm(self, K, h, scale):
        return norm(self._expand(self._estimate_error(K, h) / scale))
