"""Density-matrix propagation of the driven cavity-well system.

The joint Hilbert space is a truncated Fock ladder for the cavity tensored
with (nu_max+1)-level Kerr ladders for each well, cavity index slowest, and
the equations are written in the frame co-rotating at the drive carrier.
The master equation is a sparse CSR superoperator acting on the row-major
vec(rho) (spre/spost construction, as in QuTiP). `evolve` integrates only the
upper triangle of rho, diagonal included: D(D+1)/2 of the D^2 entries, the
rest being their conjugates. Its right-hand side expands that half vector to
vec(rho) and applies the upper-triangle rows of the generator. Every norm the
RK45 step control takes (initial step, error estimate) is taken over the
expanded vector, so the accepted steps are those of RK45 on vec(rho), with the
same adaptive pair, tolerances, initial step, step-size rule and nfev count as
the mean-field solver, whose RK45 helpers `_HermitianRK45` calls. Samples and
checkpoints are read off one interpolant per accepted step, without
materialising the states in between, and each chunk of CHUNK samples restarts
from the state its last step ends on. Off the diagonal rho is Hermitian by
construction, so `max_herm_dev` is 2 max |Im rho_ii|.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, SolverError, TruncationError, ValidationError
from .meanfield import (
    ATOL_DEFAULT,
    RK45,
    RTOL_DEFAULT,
    CoherenceSeries,
    min_step,
    norm,
    rescale,
    rk45_nfev,
    resolved_grid,
    select_initial_step,
    validate_tol,
)
from .model import (Frame, SystemConfig, config_to_dict, drive_amplitude, table_rows, write_json,
                    write_table)

if TYPE_CHECKING:
    import scipy.sparse as sp

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


# scipy.sparse is imported where the operators are built, so that a process
# that never builds one (every mean-field run) does not pay for its import.


def _destroy(dim: int) -> sp.csr_matrix:
    import scipy.sparse as sp

    return sp.diags(np.sqrt(np.arange(1, dim)), 1, format="csr", dtype=complex)


def _embed(factors) -> sp.csr_matrix:
    import scipy.sparse as sp

    return functools.reduce(lambda out, f: sp.kron(out, f, format="csr"), factors)


def build_operators(h: HilbertConfig) -> tuple[sp.csr_matrix, tuple]:
    """CSR annihilators (a, (b_1, ..., b_N)) embedded with identities on the other factors."""
    import scipy.sparse as sp

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


def build_hamiltonian(cfg: SystemConfig, h: HilbertConfig) -> sp.csr_matrix:
    """Static CSR Hamiltonian in the rotating frame: cavity + Kerr ladders + co-rotating coupling.

    The drive carrier is subtracted from every mode frequency; the Kerr and
    coupling terms are invariant.
    """
    if h.n_wells != cfg.n_wells:
        raise ConfigError(
            f"HilbertConfig has {h.n_wells} wells but the system config has {cfg.n_wells}"
        )
    shift = cfg.pulse.carrier
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
    import scipy.sparse as sp

    return sp.kron(op, sp.identity(op.shape[0], dtype=complex), format="csr")


def _spost(op: sp.csr_matrix) -> sp.csr_matrix:
    """vec(rho @ op) = _spost(op) @ vec(rho) for row-major vec."""
    import scipy.sparse as sp

    return sp.kron(sp.identity(op.shape[0], dtype=complex), op.T, format="csr")


def _liouvillian(cfg: SystemConfig, h: HilbertConfig, rows=None):
    """Master-equation generator dvec(rho)/dt = rhs(t, vec(rho)) in the rotating frame.

    L(t) = L0 + c(t) Lx for the drive Hamiltonian c (a + a^dag) with the real
    c = F0 phi(t), and Lx = -i[a + a^dag, .]. L0 holds -i[H0, .], the
    anticommutator -1/2 {L^dag L, .} and the jumps rate * kron(L, L*) vec(rho).
    Once the Gaussian underflows, c = 0 skips the Lx matvec. `rows` keeps
    only those rows of dvec(rho)/dt.
    """
    import scipy.sparse as sp

    a, wells = build_operators(h)
    jumps = [(cfg.cavity.kappa, a)] + [(d.gamma, b) for d, b in zip(cfg.dipoles, wells)]
    a0 = -1j * build_hamiltonian(cfg, h) - sum(
        0.5 * rate * (op.conj().T @ op) for rate, op in jumps
    )
    l0 = _spre(a0) + _spost(a0.conj().T)
    for rate, op in jumps:
        l0 = l0 + rate * sp.kron(op, op.conj(), format="csr")
    plus, pulse = a + a.conj().T, cfg.pulse
    lx = -1j * (_spre(plus) - _spost(plus))
    if rows is not None:
        l0, lx = l0[rows], lx[rows]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        c = drive_amplitude(t, pulse)
        out = l0 @ y
        if c != 0.0:
            term = lx @ y
            term *= c
            out += term
        return out

    return rhs


# lindblad_rhs is called repeatedly on one system; evolve builds its own.
_cached_liouvillian = functools.lru_cache(maxsize=1)(_liouvillian)


def lindblad_rhs(
    rho: np.ndarray, t: float, cfg: SystemConfig, h: HilbertConfig, frame: Frame = Frame.ROTATING
) -> np.ndarray:
    """Master-equation right-hand side for one density matrix, in the rotating
    frame `evolve` integrates; `frame` names that frame, and any other value
    is a ValidationError.

    Traceless by construction and Hermiticity-preserving for Hermitian rho.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (h.dim, h.dim):
        raise ValidationError(f"rho has shape {rho.shape}, expected {(h.dim, h.dim)}")
    if frame is not Frame.ROTATING:
        raise ValidationError(f"frame must be Frame.ROTATING, the one frame, got {frame!r}")
    return _cached_liouvillian(cfg, h)(t, rho.reshape(-1)).reshape(h.dim, h.dim)


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
        if not np.all(np.isfinite(self.matrix)):
            raise ValidationError("density matrix contains non-finite entries")
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

    exp_n: np.ndarray          # photon number <a^dag a>
    populations: np.ndarray    # shape (N, nu_max+1, len(t))
    hilbert: HilbertConfig
    checkpoints: tuple
    diagnostics: dict

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
            [f"frame: {Frame.ROTATING.value}",
             f"n_photon_max: {self.hilbert.n_photon_max}, nu_max: {self.hilbert.nu_max}"],
            ["t"] + [f"re_{nm},im_{nm}" for nm in names]
            + [f"p{nu}_{w + 1}" for w in range(n) for nu in levels],
            table_rows(self.t, *(part for s in series for part in (s.real, s.imag)),
                       *(self.populations[w, nu] for w in range(n) for nu in levels)),
        )

    def write_sidecar(self, path) -> None:
        write_json(path, {
            "config": config_to_dict(self.config),
            "hilbert": asdict(self.hilbert),
            "frame": Frame.ROTATING.value,
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

    A record call covers the samples v = powers @ coeffs (see
    `_HermitianRK45.interpolant`) of the upper-triangle half vector v of rho
    (see `_UpperTriangle`), and each quantity needs only some columns of
    coeffs: Tr(A rho) is a dot product with rho[c, r] over A's nonzeros
    (r, c), conjugated below the diagonal, which powers being real allows on
    the coefficients. Full states are built only at the N_CHECKPOINTS
    checkpoints, from their rows of powers @ coeffs. Off the diagonal rho is
    Hermitian by construction, so |rho - rho^dag| peaks at 2 |Im rho_ii|.
    """

    def __init__(self, h: HilbertConfig, grid: np.ndarray):
        d, nt = h.dim, len(grid)
        self.h, self.grid = h, grid
        self.tri = _UpperTriangle(d)
        a, wells = build_operators(h)
        # (columns, conjugated, weights): Tr(op @ rho) = weights @ v[columns], conj where flagged
        self._probes = [(self.tri.index[c.col, c.row], c.col > c.row, c.data)
                        for c in (op.tocoo() for op in (a, *wells))]
        self._diag = np.diagonal(self.tri.index)
        # photons and each well's level of every basis state: the number operators' diagonals
        self._number, *levels = (np.rint((op.conj().T @ op).diagonal().real) for op in (a, *wells))
        self._top = self._number == h.n_photon_max
        # row (n, nu) sums the diagonal over basis states with well n at level nu
        self._level_sum = (
            np.array(levels)[:, None, :] == np.arange(h.nu_max + 1)[None, :, None]
        ).reshape(-1, d).astype(float)
        self._check_idx = np.unique(np.linspace(0, nt - 1, N_CHECKPOINTS).astype(int))

        self.a = np.empty(nt, dtype=complex)
        self.exp_n = np.empty(nt)
        self.modes = np.empty((h.n_wells, nt), dtype=complex)
        self.populations = np.empty((h.n_wells, h.nu_max + 1, nt))
        self.checkpoints: list[DensityMatrix] = []
        self.max_trace_dev = 0.0
        self.max_herm_dev = 0.0
        self.max_top = 0.0
        self.min_eig = np.inf

    def record(self, start: int, coeffs: np.ndarray, powers: np.ndarray) -> None:
        """Record samples start, start + 1, ...: row j of powers @ coeffs.

        powers is real (m, k), coeffs complex (k, D(D+1)/2). Raises exactly
        what a sample-by-sample pass would raise first: a checkpoint's
        SolverError before a later sample's TruncationError.
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
        over = np.flatnonzero(top > TOP_LEVEL_TOL)
        first_over = int(over[0]) if len(over) else m

        lo, hi = np.searchsorted(self._check_idx, [start, start + first_over])
        for i in self._check_idx[lo:hi]:
            j = int(i) - start
            dm = DensityMatrix(matrix=self.tri.expand(powers[j] @ coeffs).reshape(d, d),
                               time=float(self.grid[i]))
            eig = dm.deviations()["min_eigenvalue"]
            self.min_eig = min(self.min_eig, eig)
            if eig < -POSITIVITY_TOL:
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


class _HermitianRK45:
    """RK45 on the half vector of `_UpperTriangle`, with its step control on vec(rho).

    The steps are scipy 1.17.1's (OdeSolver.step, RungeKutta._step_impl,
    rk_step), with the same numpy calls, and take their initial step, step
    sizes and nfev from the mean-field module's RK45 helpers, so every step,
    accepted state and nfev equals scipy's RK45 class on the same half vector.
    The initial step and every error norm are evaluated on the expanded
    vectors, so each step is accepted or rejected as RK45 on the full vec(rho)
    would. The last accepted step is kept as RkDenseOutput's fields (t_old,
    h, y_old, Q = K^T P), and `interpolant` reads states inside it. Runs
    forward, t0 < t_bound.
    """

    def __init__(self, fun, t0: float, y0: np.ndarray, t_bound: float, tri: _UpperTriangle,
                 *, rtol: float, atol: float):
        self.fun, self._expand = fun, tri.expand
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self.finished = False
        self.attempts = 0
        self.rtol, self.atol = rtol, atol
        self.f = fun(t0, y0)
        self.h_abs = select_initial_step(
            lambda t, y: tri.expand(fun(t, y[tri.upper])), t0, tri.expand(y0),
            t_bound, tri.expand(self.f), self.rtol, self.atol)
        self.K = np.empty((RK45.n_stages + 1, len(y0)), dtype=complex)

    @property
    def nfev(self) -> int:
        return rk45_nfev(self.attempts)

    def error_norm(self, K, h, scale):
        return norm(self._expand(np.dot(K.T, RK45.E) * h / scale))

    def step(self) -> None:
        """Take one accepted step; raises SolverError where RK45 fails."""
        t, y = self.t, self.y
        floor = min_step(t)
        h_abs, rejected = max(self.h_abs, floor), False
        while True:
            if h_abs < floor:
                raise SolverError(f"Lindblad integration failed: {RK45.TOO_SMALL_STEP}")
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = np.abs(h)

            K = self.K
            K[0] = self.f
            for s, (a, c) in enumerate(zip(RK45.A[1:], RK45.C[1:]), start=1):
                dy = np.dot(K[:s].T, a[:s]) * h
                K[s] = self.fun(t + c * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, RK45.B)
            f_new = self.fun(t + h, y_new)
            K[-1] = f_new
            self.attempts += 1

            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self.error_norm(K, h, scale)
            h_abs = rescale(h_abs, error_norm, rejected)
            if error_norm < 1:
                break
            rejected = True
        self.t_old, self.y_old, self.t, self.y = t, y, t_new, y_new
        self.h, self.h_abs, self.f = h, h_abs, f_new
        self.finished = self.t >= self.t_bound

    @property
    def Q(self) -> np.ndarray:
        """RkDenseOutput's K^T P of the last accepted step, built only for steps that are read."""
        return self.K.T.dot(RK45.P)

    def interpolant(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(coeffs, powers) with row j of powers @ coeffs the state at t[j]: the last step's
        y_old + h Q [x, x^2, ...] at x = (t - t_old) / h, as rows y_old and h Q^T (contiguous
        vecs, cheap to gather from) and a row [1, x, x^2, ...] per sample."""
        Q = self.Q
        coeffs = np.empty((Q.shape[1] + 1, len(self.y_old)), dtype=complex)
        coeffs[0] = self.y_old
        np.multiply(Q.T, self.h, out=coeffs[1:])
        return coeffs, np.vander((t - self.t_old) / self.h, len(coeffs), increasing=True)


def evolve(
    rho0: np.ndarray,
    t_span: tuple[float, float],
    cfg: SystemConfig,
    h: HilbertConfig,
    *,
    rtol: float = RTOL_DEFAULT,
    atol: float = ATOL_DEFAULT,
    dt: float | None = None,
) -> LindbladResult:
    """Propagate rho0 in the rotating frame and record expectation series on a uniform grid.

    The grid is integrated in chunks of CHUNK samples, each a fresh RK45
    run on the upper triangle of rho from the state the previous chunk's
    last step ends on. Every sample and checkpoint is read off the
    interpolant of the step that covers it.

    Raises GridError before any RHS call where integrate would (resolved_grid),
    TruncationError when the top photon level acquires more than
    TOP_LEVEL_TOL population (the Fock cutoff is then too low for this
    drive) and SolverError when a checkpoint eigenvalue falls below
    -POSITIVITY_TOL.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (h.dim, h.dim):
        raise ValidationError(f"rho0 has shape {rho0.shape}, expected {(h.dim, h.dim)}")
    DensityMatrix(matrix=rho0, time=t_span[0]).validate()
    grid = resolved_grid(cfg, t_span, dt)
    rtol, atol = validate_tol(rtol, atol)
    nt = len(grid)
    rec = _ChunkRecorder(h, grid)
    tri = rec.tri
    upper_rows = _liouvillian(cfg, h, rows=tri.upper)

    def rhs(t: float, v: np.ndarray) -> np.ndarray:
        return upper_rows(t, tri.expand(v))

    y = rho0.reshape(-1)[tri.upper]
    rec.record(0, y[None, :], np.ones((1, 1)))
    nfev = n_steps = n_chunks = 0
    for start in range(0, nt - 1, CHUNK):
        stop = min(start + CHUNK, nt - 1)
        t_eval = grid[start + 1 : stop + 1]
        solver = _HermitianRK45(rhs, float(grid[start]), y, float(grid[stop]), tri,
                                rtol=rtol, atol=atol)
        done = 0   # samples of t_eval recorded so far
        while not solver.finished:
            solver.step()
            n_steps += 1
            covered = int(np.searchsorted(t_eval, solver.t, side="right"))
            if covered > done:
                rec.record(start + 1 + done, *solver.interpolant(t_eval[done:covered]))
                done = covered
        nfev += solver.nfev
        n_chunks += 1
        y = solver.y   # the last step ends on the chunk end

    return LindbladResult(
        t=grid,
        a=rec.a,
        exp_n=rec.exp_n,
        modes=rec.modes,
        populations=rec.populations,
        config=cfg,
        per_well=True,
        hilbert=h,
        checkpoints=tuple(rec.checkpoints),
        diagnostics={**rec.diagnostics(), "nfev": nfev, "n_steps": n_steps, "n_chunks": n_chunks,
                     "dim": h.dim},
    )


def write_checkpoints(result: LindbladResult, path_base) -> None:
    """Dump checkpoints as raw row-major little-endian complex128 pairs."""
    base = Path(path_base)
    bin_path = base.with_suffix(".bin")
    bin_path.write_bytes(b"".join(
        np.ascontiguousarray(cp.matrix).astype("<c16").tobytes() for cp in result.checkpoints))
    write_json(base.with_suffix(".json"), {
        "file": bin_path.name,
        "dim": result.hilbert.dim,
        "count": len(result.checkpoints),
        "times": [cp.time for cp in result.checkpoints],
        "dtype": "complex128",
        "byte_order": "little",
        "layout": "row-major",
    })

