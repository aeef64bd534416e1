"""Density-matrix propagation of the driven cavity-well system.

The joint Hilbert space is a truncated Fock ladder for the cavity tensored
with (nu_max+1)-level Kerr ladders for each well, cavity index slowest.
The master equation is a sparse CSR superoperator acting on the row-major
vec(rho) (spre/spost construction, as in QuTiP). `evolve` integrates only the
upper triangle of rho, diagonal included: D(D+1)/2 of the D^2 entries, the
rest being their conjugates. Its right-hand side expands that half vector to
vec(rho) and applies the upper-triangle rows of the generator. Every norm the
RK45 step control takes (initial step, error estimate) is taken over the
expanded vector, so the accepted steps are those of RK45 on vec(rho), with the
same adaptive pair and tolerances as the mean-field solver. Observables are
read off each RK step's interpolant coefficients, without materialising the
states in between. Off the diagonal rho is Hermitian by construction, so
`max_herm_dev` is 2 max |Im rho_ii|.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.integrate import RK45
from scipy.integrate._ivp.common import norm, select_initial_step

from .errors import ConfigError, SolverError, TruncationError, ValidationError
from .meanfield import CoherenceSeries, default_dt, uniform_grid
from .model import Frame, SystemConfig, config_to_dict, drive_amplitude, write_json, write_table

DIM_CAP_DEFAULT = 4096
N_CHECKPOINTS = 17       # density matrices kept per evolve, spread evenly over the grid
TOP_LEVEL_TOL = 1e-4     # largest top-photon-level population before TruncationError
POSITIVITY_TOL = 1e-6    # most negative checkpoint eigenvalue before SolverError
CHUNK = 256              # grid samples per fresh RK45 run


@dataclass(frozen=True)
class HilbertConfig:
    """Truncation of the joint cavity (x) wells space."""

    n_photon_max: int
    nu_max: int = 2
    n_wells: int = 2

    def __post_init__(self):
        if self.n_photon_max < 1 or self.nu_max < 1 or self.n_wells < 1:
            raise ConfigError("n_photon_max, nu_max and n_wells must all be >= 1")
        if self.dim > DIM_CAP_DEFAULT:
            raise ConfigError(
                f"total dimension {self.dim} exceeds the cap {DIM_CAP_DEFAULT}; "
                "lower the truncation"
            )

    @property
    def dim(self) -> int:
        return (self.n_photon_max + 1) * (self.nu_max + 1) ** self.n_wells


def _destroy(dim: int) -> sp.csr_matrix:
    return sp.diags(np.sqrt(np.arange(1, dim)), 1, format="csr", dtype=complex)


def _embed(factors) -> sp.csr_matrix:
    out = factors[0]
    for f in factors[1:]:
        out = sp.kron(out, f, format="csr")
    return out


def build_operators(h: HilbertConfig) -> tuple[sp.csr_matrix, tuple]:
    """CSR annihilators (a, (b_1, ..., b_N)) embedded with identities on the other factors."""
    d_ph = h.n_photon_max + 1
    d_w = h.nu_max + 1
    eye_ph = sp.identity(d_ph, format="csr", dtype=complex)
    eye_w = sp.identity(d_w, format="csr", dtype=complex)
    a = _embed([_destroy(d_ph)] + [eye_w] * h.n_wells)
    wells = []
    for n in range(h.n_wells):
        factors = [eye_ph] + [eye_w] * h.n_wells
        factors[1 + n] = _destroy(d_w)
        wells.append(_embed(factors))
    return a, tuple(wells)


def build_hamiltonian(cfg: SystemConfig, h: HilbertConfig, frame: Frame = Frame.LAB) -> sp.csr_matrix:
    """Static CSR Hamiltonian: cavity + Kerr ladders + co-rotating coupling.

    In the rotating frame the drive carrier is subtracted from every mode
    frequency; the Kerr and coupling terms are invariant.
    """
    if h.n_wells != cfg.n_wells:
        raise ConfigError(
            f"HilbertConfig has {h.n_wells} wells but the system config has {cfg.n_wells}"
        )
    shift = cfg.pulse.carrier if frame is Frame.ROTATING else 0.0
    a, wells = build_operators(h)
    ham = (cfg.cavity.omega_c - shift) * (a.conj().T @ a)
    for d, b in zip(cfg.dipoles, wells):
        bd = b.conj().T
        ham = ham + (d.omega - shift) * (bd @ b)
        ham = ham - d.anharmonicity * (bd @ bd @ b @ b)
        ham = ham + d.coupling * (a @ bd + a.conj().T @ b)
    return ham.tocsr()


def _spre(op: sp.csr_matrix) -> sp.csr_matrix:
    """vec(op @ rho) = _spre(op) @ vec(rho) for row-major vec."""
    return sp.kron(op, sp.identity(op.shape[0], dtype=complex), format="csr")


def _spost(op: sp.csr_matrix) -> sp.csr_matrix:
    """vec(rho @ op) = _spost(op) @ vec(rho) for row-major vec."""
    return sp.kron(sp.identity(op.shape[0], dtype=complex), op.T, format="csr")


def _liouvillian(cfg: SystemConfig, h: HilbertConfig, frame: Frame, rows=None):
    """Master-equation generator dvec(rho)/dt = rhs(t, vec(rho)).

    L(t) = L0 + Re c(t) Lx + Im c(t) Ly for the drive Hamiltonian c a + c* a^dag,
    Lx = -i[a + a^dag, .] and Ly = [a - a^dag, .]. L0 holds -i[H0, .], the
    anticommutator -1/2 {L^dag L, .} and the jumps rate * kron(L, L*) vec(rho).
    A zero coefficient (Im c in the rotating frame, all of c once the Gaussian
    underflows) skips its matvec. `rows` keeps only those rows of dvec(rho)/dt.
    """
    a, wells = build_operators(h)
    jumps = [(cfg.cavity.kappa, a)] + [(d.gamma, b) for d, b in zip(cfg.dipoles, wells)]
    a0 = -1j * build_hamiltonian(cfg, h, frame) - sum(
        0.5 * rate * (op.conj().T @ op) for rate, op in jumps
    )
    l0 = _spre(a0) + _spost(a0.conj().T)
    for rate, op in jumps:
        l0 = l0 + rate * sp.kron(op, op.conj(), format="csr")
    plus, minus = a + a.conj().T, a - a.conj().T
    pulse = cfg.pulse
    lx, ly = -1j * (_spre(plus) - _spost(plus)), _spre(minus) - _spost(minus)
    if rows is not None:
        l0, lx, ly = l0[rows], lx[rows], ly[rows]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        c = drive_amplitude(t, pulse, frame).conjugate()   # coefficient of a in H_d(t)
        out = l0 @ y
        for coeff, gen in ((c.real, lx), (c.imag, ly)):
            if coeff != 0.0:
                term = gen @ y
                term *= coeff
                out += term
        return out

    return rhs


# lindblad_rhs is called repeatedly on one system; evolve builds its own.
_cached_liouvillian = functools.lru_cache(maxsize=1)(_liouvillian)


def lindblad_rhs(
    rho: np.ndarray, t: float, cfg: SystemConfig, h: HilbertConfig, frame: Frame = Frame.LAB
) -> np.ndarray:
    """Master-equation right-hand side for one density matrix.

    Traceless by construction and Hermiticity-preserving for Hermitian rho.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (h.dim, h.dim):
        raise ValidationError(f"rho has shape {rho.shape}, expected {(h.dim, h.dim)}")
    return _cached_liouvillian(cfg, h, frame)(t, rho.reshape(-1)).reshape(h.dim, h.dim)


def vacuum_state(h: HilbertConfig) -> np.ndarray:
    rho = np.zeros((h.dim, h.dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


@dataclass(frozen=True)
class DensityMatrix:
    """One checkpointed joint state with its sample time."""

    matrix: np.ndarray
    time: float

    def deviations(self) -> dict:
        rho = self.matrix
        return {
            "trace": abs(np.trace(rho).real - 1.0) + abs(np.trace(rho).imag),
            "hermiticity": float(np.abs(rho - rho.conj().T).max()),
            "min_eigenvalue": float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()),
        }

    def validate(self, trace_tol=1e-8, herm_tol=1e-10, eig_tol=1e-8) -> dict:
        dev = self.deviations()
        if dev["trace"] > trace_tol:
            raise ValidationError(f"trace deviation {dev['trace']:.2e} exceeds {trace_tol}")
        if dev["hermiticity"] > herm_tol:
            raise ValidationError(f"hermiticity deviation {dev['hermiticity']:.2e} exceeds {herm_tol}")
        if dev["min_eigenvalue"] < -eig_tol:
            raise ValidationError(f"negative eigenvalue {dev['min_eigenvalue']:.2e} beyond {eig_tol}")
        return dev


@dataclass(frozen=True)
class LindbladResult(CoherenceSeries):
    """Expectation series plus density-matrix checkpoints of one evolution."""

    t: np.ndarray
    a: np.ndarray
    exp_n: np.ndarray          # photon number <a^dag a>
    modes: np.ndarray          # <b_n>, shape (N, len(t))
    populations: np.ndarray    # shape (N, nu_max+1, len(t))
    config: SystemConfig
    hilbert: HilbertConfig
    checkpoints: tuple
    diagnostics: dict

    per_well = True

    def second_level_population(self) -> np.ndarray:
        """Per-well average P2(t); wells are reported jointly for N = 2."""
        if self.hilbert.nu_max < 2:
            raise ValidationError("P2 requires nu_max >= 2")
        return self.populations[:, 2, :].mean(axis=0)

    def write_csv(self, path) -> None:
        n, levels = self.modes.shape[0], range(self.hilbert.nu_max + 1)
        names = ["a", "B0"] + (["B1"] if n == 2 else [])
        series = [self.a, self.bright()] + ([self.dark()] if n == 2 else [])
        write_table(
            path,
            [f"frame: {self.config.frame.value}",
             f"n_photon_max: {self.hilbert.n_photon_max}, nu_max: {self.hilbert.nu_max}"],
            ["t"] + [f"re_{nm},im_{nm}" for nm in names]
            + [f"p{nu}_{w + 1}" for w in range(n) for nu in levels],
            zip(self.t.tolist(), *(part.tolist() for s in series for part in (s.real, s.imag)),
                *(self.populations[w, nu].tolist() for w in range(n) for nu in levels)),
        )

    def write_sidecar(self, path) -> None:
        write_json(path, {
            "config": config_to_dict(self.config),
            "hilbert": asdict(self.hilbert),
            "frame": self.config.frame.value,
            "diagnostics": self.diagnostics,
        })


class _UpperTriangle:
    """Row-major vec(rho) of a Hermitian D x D rho held as its upper triangle.

    The half vector lists rho[i, j] for i <= j in row-major order;
    `upper` are those entries' positions in vec(rho), and `index[i, j]` is
    the half-vector entry holding rho[i, j] (its conjugate for i > j).
    """

    def __init__(self, d: int):
        rows, cols = np.triu_indices(d)
        self.upper = rows * d + cols
        self.index = np.empty((d, d), dtype=np.intp)
        self.index[rows, cols] = self.index[cols, rows] = np.arange(len(rows))
        self._below = np.tri(d, k=-1, dtype=bool).reshape(-1)

    def expand(self, v: np.ndarray) -> np.ndarray:
        """vec(rho) from the half vector (or the last axis of a stack of them)."""
        full = np.take(v, self.index.reshape(-1), axis=-1)
        np.conjugate(full, out=full, where=self._below)
        return full


class _ChunkRecorder:
    """Expectation series and state hygiene, read off RK step interpolants.

    A record call covers the samples v = powers @ coeffs (see `_interpolant`)
    of the upper-triangle half vector v of rho (see `_UpperTriangle`), and
    each quantity needs only some columns of coeffs: Tr(A rho) is a dot
    product with rho[c, r] over A's nonzeros (r, c), conjugated below the
    diagonal, which powers being real allows on the coefficients. Full states
    are built only at checkpoints. Off the diagonal rho is Hermitian by
    construction, so |rho - rho^dag| peaks at 2 |Im rho_ii|.
    """

    def __init__(self, h: HilbertConfig, grid: np.ndarray, n_checkpoints: int,
                 top_level_tol: float, positivity_tol: float):
        d, nt = h.dim, len(grid)
        self.h, self.grid = h, grid
        self.top_level_tol, self.positivity_tol = top_level_tol, positivity_tol
        self.tri = _UpperTriangle(d)
        a, wells = build_operators(h)
        # (columns, conjugated, weights): Tr(op @ rho) = weights @ v[columns], conj where flagged
        self._probes = [(self.tri.index[c.col, c.row], c.col > c.row, c.data)
                        for c in (op.tocoo() for op in (a, *wells))]
        self._diag = np.diagonal(self.tri.index)
        d_w, idx = h.nu_max + 1, np.arange(d)
        photon = idx // d_w ** h.n_wells
        self._number = photon.astype(float)
        self._top = photon == h.n_photon_max
        levels = idx // d_w ** np.arange(h.n_wells - 1, -1, -1)[:, None] % d_w   # [well n, state i]
        # row (n, nu) sums the diagonal over basis states with well n at level nu
        self._level_sum = (
            levels[:, None, :] == np.arange(h.nu_max + 1)[None, :, None]
        ).reshape(-1, d).astype(float)
        self._check_idx = np.unique(np.linspace(0, nt - 1, n_checkpoints).astype(int))

        self.a = np.empty(nt, dtype=complex)
        self.exp_n = np.empty(nt)
        self.modes = np.empty((h.n_wells, nt), dtype=complex)
        self.populations = np.empty((h.n_wells, h.nu_max + 1, nt))
        self.checkpoints: list[DensityMatrix] = []
        self.max_trace_dev = 0.0
        self.max_herm_dev = 0.0
        self.max_top = 0.0
        self.min_eig = np.inf

    def record(self, start: int, coeffs: np.ndarray, powers: np.ndarray, state) -> None:
        """Record samples start, start + 1, ...: row j of powers @ coeffs.

        powers is real (m, k), coeffs complex (k, D(D+1)/2). state(j) returns
        the half vector of sample start + j and is called only at checkpoints.
        Raises exactly what a sample-by-sample pass would raise first: a
        checkpoint's SolverError before a later sample's TruncationError.
        """
        h, d, m = self.h, self.h.dim, powers.shape[0]
        sl = slice(start, start + m)
        diag_c = powers @ np.take(coeffs, self._diag, axis=1)
        diag = diag_c.real
        for series, (idx, below, vals) in zip((self.a, *self.modes), self._probes):
            gathered = np.take(coeffs, idx, axis=1)
            np.conjugate(gathered, out=gathered, where=below)
            series[sl] = powers @ (gathered @ vals)
        self.exp_n[sl] = diag @ self._number
        self.populations[:, :, sl] = (self._level_sum @ diag.T).reshape(h.n_wells, h.nu_max + 1, m)

        top = diag[:, self._top].sum(axis=1)
        trace_dev = np.abs(diag.sum(axis=1) - 1.0)
        herm_dev = 2.0 * np.abs(diag_c.imag).max(axis=1)
        over = np.flatnonzero(top > self.top_level_tol)
        first_over = int(over[0]) if len(over) else m

        lo, hi = np.searchsorted(self._check_idx, [start, start + first_over])
        for i in self._check_idx[lo:hi]:
            j = int(i) - start
            dm = DensityMatrix(matrix=self.tri.expand(state(j)).reshape(d, d), time=float(self.grid[i]))
            eig = dm.deviations()["min_eigenvalue"]
            self.min_eig = min(self.min_eig, eig)
            if eig < -self.positivity_tol:
                trace_so_far = max(self.max_trace_dev, float(trace_dev[: j + 1].max()))
                herm_so_far = max(self.max_herm_dev, float(herm_dev[: j + 1].max()))
                raise SolverError(
                    f"positivity violated at t={self.grid[i]:.3f}: min eigenvalue {eig:.2e} "
                    f"(trace dev {trace_so_far:.2e}, herm dev {herm_so_far:.2e})"
                )
            self.checkpoints.append(dm)
        if first_over < m:
            raise TruncationError(
                f"population {top[first_over]:.2e} in the top photon level at "
                f"t={self.grid[start + first_over]:.3f} "
                f"(n_photon_max={h.n_photon_max} too low for this drive)"
            )
        self.max_top = max(self.max_top, float(top.max()))
        self.max_trace_dev = max(self.max_trace_dev, float(trace_dev.max()))
        self.max_herm_dev = max(self.max_herm_dev, float(herm_dev.max()))

    def diagnostics(self) -> dict:
        return {
            "max_trace_dev": self.max_trace_dev,
            "max_herm_dev": self.max_herm_dev,
            "min_eigenvalue": float(self.min_eig),
            "max_top_population": self.max_top,
        }


def _interpolant(dense, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coeffs, powers) with powers @ coeffs = dense(t).T on one RK step.

    scipy's RkDenseOutput is y_old + h Q [x, x^2, ...] with x = (t - t_old) / h,
    so coeffs has rows y_old and h Q^T (each row a contiguous vec, cheap to
    gather from) and powers has a row [1, x, x^2, ...] per sample.
    """
    coeffs = np.empty((dense.Q.shape[1] + 1, len(dense.y_old)), dtype=complex)
    coeffs[0] = dense.y_old
    np.multiply(dense.Q.T, dense.h, out=coeffs[1:])
    return coeffs, np.vander((t - dense.t_old) / dense.h, len(coeffs), increasing=True)


class _HermitianRK45(RK45):
    """scipy's RK45 on the half vector of `_UpperTriangle`, with its step control on vec(rho).

    The initial step and every error norm are scipy's own, evaluated on the
    expanded vectors, so each step is accepted or rejected as RK45 on the
    full vec(rho) would.
    """

    def __init__(self, fun, t0: float, y0: np.ndarray, t_bound: float, tri: _UpperTriangle,
                 *, rtol: float, atol: float):
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


def evolve(
    rho0: np.ndarray,
    t_span: tuple[float, float],
    cfg: SystemConfig,
    h: HilbertConfig,
    *,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    dt: float | None = None,
) -> LindbladResult:
    """Propagate rho0 in cfg.frame and record expectation series on a uniform grid.

    The grid is integrated in chunks of CHUNK samples, each a fresh RK45
    run on the upper triangle of rho from the previous chunk's end state,
    and every sample is read off the interpolant of the step that covers it.

    Raises TruncationError when the top photon level acquires more than
    TOP_LEVEL_TOL population (the Fock cutoff is then too low for this
    drive) and SolverError when a checkpoint eigenvalue falls below
    -POSITIVITY_TOL.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (h.dim, h.dim):
        raise ValidationError(f"rho0 has shape {rho0.shape}, expected {(h.dim, h.dim)}")
    DensityMatrix(matrix=rho0, time=t_span[0]).validate()
    grid = uniform_grid(t_span, dt if dt is not None else default_dt(cfg))
    nt = len(grid)
    rec = _ChunkRecorder(h, grid, N_CHECKPOINTS, TOP_LEVEL_TOL, POSITIVITY_TOL)
    tri = rec.tri
    upper_rows = _liouvillian(cfg, h, cfg.frame, rows=tri.upper)

    def rhs(t: float, v: np.ndarray) -> np.ndarray:
        return upper_rows(t, tri.expand(v))

    y = rho0.reshape(-1)[tri.upper]
    rec.record(0, y[None, :], np.ones((1, 1)), lambda j: y)
    nfev = n_steps = n_chunks = 0
    for start in range(0, nt - 1, CHUNK):
        stop = min(start + CHUNK, nt - 1)
        t_eval = grid[start + 1 : stop + 1]
        # what solve_ivp(t_eval=...) runs, without stacking the chunk's states
        solver = _HermitianRK45(rhs, float(grid[start]), y, float(grid[stop]), tri,
                                rtol=rtol, atol=atol)
        done = 0   # samples of t_eval recorded so far
        while solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                raise SolverError(f"Lindblad integration failed: {message}")
            n_steps += 1
            covered = int(np.searchsorted(t_eval, solver.t, side="right"))
            if covered > done:
                dense, t_step = solver.dense_output(), t_eval[done:covered]
                # checkpoint states evaluate the whole step as solve_ivp does, bit for bit
                coeffs, powers = _interpolant(dense, t_step)
                rec.record(start + 1 + done, coeffs, powers, lambda j: dense(t_step)[:, j])
                done = covered
        nfev += solver.nfev
        n_chunks += 1
        # scipy's solver references itself through these closures; without the
        # cycle its arrays are freed here instead of at some later gc pass
        solver.fun = solver.fun_vectorized = None
        y = dense(t_step)[:, -1]   # the last step ends on the chunk end

    return LindbladResult(
        t=grid,
        a=rec.a,
        exp_n=rec.exp_n,
        modes=rec.modes,
        populations=rec.populations,
        config=cfg,
        hilbert=h,
        checkpoints=tuple(rec.checkpoints),
        diagnostics={**rec.diagnostics(), "nfev": nfev, "n_steps": n_steps, "n_chunks": n_chunks,
                     "dim": h.dim},
    )


def write_checkpoints(result: LindbladResult, path_base) -> None:
    """Dump checkpoints as raw row-major little-endian complex128 pairs."""
    base = Path(path_base)
    bin_path = base.with_suffix(".bin")
    payload = b"".join(
        np.ascontiguousarray(cp.matrix).astype("<c16").tobytes() for cp in result.checkpoints
    )
    bin_path.write_bytes(payload)
    write_json(base.with_suffix(".json"), {
        "file": bin_path.name,
        "dim": result.hilbert.dim,
        "count": len(result.checkpoints),
        "times": [cp.time for cp in result.checkpoints],
        "dtype": "complex128",
        "byte_order": "little",
        "layout": "row-major",
    })

