"""Density-matrix propagation of the driven cavity-well system.

The joint Hilbert space is a truncated Fock ladder for the cavity tensored
with (nu_max+1)-level Kerr ladders for each well, cavity index slowest, and
the equations are written in the frame co-rotating at the drive carrier.
The master equation is a sparse CSR superoperator acting on the row-major
vec(rho) (spre/spost construction, as in QuTiP). `evolve` integrates only the
upper triangle of rho, diagonal included: D(D+1)/2 of the D^2 entries, the
rest being their conjugates. Its right-hand side never expands that half
vector: the generator's upper-triangle rows are folded onto [v, conj(v)].
Every norm the RK45 step control takes (initial step, error estimate) is
taken over the expanded vector, so the accepted steps are those of RK45 on
vec(rho), with the same adaptive pair, tolerances, initial step, step-size
rule and nfev count as the mean-field solver, whose RK45 helpers
`_HermitianRK45` calls. The recorder reads only the entries of rho its
expectation values need, and whole states only at its checkpoints. `evolve`
runs numpy's OpenBLAS on one thread, so its bits do not depend on the
library's thread count.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING
from warnings import warn

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
        for name in ("n_photon_max", "nu_max", "n_wells"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an int, got {value!r}")
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


def _generator(cfg: SystemConfig, h: HilbertConfig):
    """CSR superoperators (L0, Lx) of dvec(rho)/dt = (L0 + c(t) Lx) vec(rho) in the rotating frame.

    Lx = -i[a + a^dag, .] is the drive Hamiltonian c (a + a^dag) with the real
    c = F0 phi(t). L0 holds -i[H0, .], the anticommutator -1/2 {L^dag L, .}
    and the jumps rate * kron(L, L*) vec(rho).
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
    plus = a + a.conj().T
    return l0, -1j * (_spre(plus) - _spost(plus))


@functools.lru_cache(maxsize=1)   # lindblad_rhs is called repeatedly on one system
def _liouvillian(cfg: SystemConfig, h: HilbertConfig):
    """rhs(t, vec(rho)) of the master equation; once the Gaussian underflows,
    c = 0 skips the Lx matvec."""
    l0, lx = _generator(cfg, h)
    pulse = cfg.pulse

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        c = drive_amplitude(t, pulse)
        out = l0 @ y
        if c != 0.0:
            term = lx @ y
            term *= c
            out += term
        return out

    return rhs


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
    return _liouvillian(cfg, h)(t, rho.reshape(-1)).reshape(h.dim, h.dim)


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
        """P2(t) averaged over all N wells."""
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


@functools.cache
def _blas_threads():
    """ctypes (get, set) of the thread count of numpy's bundled OpenBLAS, looked up at the
    first call; where numpy has none, None and one warning per process."""
    import ctypes

    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))   # the copy numpy loaded: same file, same handle
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, ()
        put.restype, put.argtypes = None, (ctypes.c_int,)
        return get, put
    warn("numpy's bundled OpenBLAS was not found, so evolve runs on the library's default "
         "BLAS threads, and its last digits may depend on their count", RuntimeWarning)
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run on one numpy OpenBLAS thread and give the previous count back after.

    An idle OpenBLAS thread spins, so the stepper's small products kept a
    second core busy, and their sums could round differently at another
    thread count. The count is process-wide: not for concurrent threads.
    """
    found = _blas_threads()
    if found is None:
        yield
        return
    get, put = found
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


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

    def fold(self, op: sp.csr_matrix) -> sp.csr_matrix:
        """op's upper-triangle rows acting on [v, conj(v)] instead of vec(rho).

        The column of rho[i, j] moves to the half-vector entry that holds it,
        shifted by len(v) below the diagonal; each row keeps its nonzeros in
        their order, so its sum rounds as on the expanded vector.
        """
        import scipy.sparse as sp

        rows, n = op[self.upper], len(self.upper)
        columns = self.index.reshape(-1) + n * self._below
        return sp.csr_matrix((rows.data, columns[rows.indices], rows.indptr), shape=(n, 2 * n))


def _half_rhs(cfg: SystemConfig, h: HilbertConfig, tri: _UpperTriangle):
    """rhs(t, v) for the half vector v of rho, without expanding it: L0 and
    Lx folded onto w = [v, conj(v)] (`_UpperTriangle.fold`), in one CSR
    product [L0 | Lx] @ [w, c w]; once the Gaussian underflows, L0 @ w."""
    import scipy.sparse as sp

    l0, lx = (tri.fold(part) for part in _generator(cfg, h))
    both = sp.hstack([l0, lx], format="csr")
    n, pulse = len(tri.upper), cfg.pulse
    x = np.empty(4 * n, dtype=complex)

    def rhs(t: float, v: np.ndarray) -> np.ndarray:
        c = drive_amplitude(t, pulse)
        x[:n] = v
        np.conjugate(v, out=x[n : 2 * n])
        if c == 0.0:
            return l0 @ x[: 2 * n]
        np.multiply(x[: 2 * n], c, out=x[2 * n :])
        return both @ x

    return rhs


class _ChunkRecorder:
    """Expectation series and state hygiene of one chunk of samples at a time.

    Each quantity reads only a few entries of the upper-triangle half vector v
    of rho (see `_UpperTriangle`), its `columns`: Tr(A rho) is a dot product
    with rho[c, r] over A's nonzeros (r, c), conjugated below the diagonal,
    and the trace, top photon level and populations read the diagonal. Full
    states are built only at the N_CHECKPOINTS samples `check_idx`. Off the
    diagonal rho is Hermitian by construction, so |rho - rho^dag| peaks at
    2 |Im rho_ii|.
    """

    def __init__(self, h: HilbertConfig, grid: np.ndarray):
        d, nt = h.dim, len(grid)
        self.h, self.grid = h, grid
        self.tri = _UpperTriangle(d)
        a, wells = build_operators(h)
        probes = [(self.tri.index[c.col, c.row], c.col > c.row, c.data)
                  for c in (op.tocoo() for op in (a, *wells))]
        diag = np.diagonal(self.tri.index)
        self.columns = np.unique(np.concatenate([idx for idx, _, _ in probes] + [diag]))
        # (positions in columns, conjugated, weights): Tr(op @ rho) = weights @ v[columns][positions]
        self._probes = [(np.searchsorted(self.columns, idx), below, vals) for idx, below, vals in probes]
        self._diag = np.searchsorted(self.columns, diag)
        # photons and each well's level of every basis state: the number operators' diagonals
        self._number, *levels = (np.rint((op.conj().T @ op).diagonal().real) for op in (a, *wells))
        self._top = self._number == h.n_photon_max
        # row (n, nu) sums the diagonal over basis states with well n at level nu
        self._level_sum = (
            np.array(levels)[:, None, :] == np.arange(h.nu_max + 1)[None, :, None]
        ).reshape(-1, d).astype(float)
        self.check_idx = np.unique(np.linspace(0, nt - 1, N_CHECKPOINTS).astype(int))

        self.a = np.empty(nt, dtype=complex)
        self.exp_n = np.empty(nt)
        self.modes = np.empty((h.n_wells, nt), dtype=complex)
        self.populations = np.empty((h.n_wells, h.nu_max + 1, nt))
        self.checkpoints: list[DensityMatrix] = []
        self.max_trace_dev = 0.0
        self.max_herm_dev = 0.0
        self.max_top = 0.0
        self.min_eig = np.inf

    def record(self, start: int, samples: np.ndarray, states) -> None:
        """Record samples start, start + 1, ...: row j of samples holds the
        `columns` of sample start + j, and states the whole half vector of
        each checkpoint among them, in order.

        Raises exactly what a sample-by-sample pass would raise first: a
        checkpoint's SolverError before a later sample's TruncationError.
        """
        h, d, m = self.h, self.h.dim, len(samples)
        sl = slice(start, start + m)
        diag_c = samples[:, self._diag]
        diag = diag_c.real
        for series, (pos, below, vals) in zip((self.a, *self.modes), self._probes):
            gathered = samples[:, pos]
            np.conjugate(gathered, out=gathered, where=below)
            series[sl] = gathered @ vals
        self.exp_n[sl] = diag @ self._number
        self.populations[:, :, sl] = (self._level_sum @ diag.T).reshape(h.n_wells, h.nu_max + 1, m)

        top = diag[:, self._top].sum(axis=1)
        trace_dev = np.abs(diag.sum(axis=1) - 1.0)
        herm_dev = 2.0 * np.abs(diag_c.imag).max(axis=1)
        over = np.flatnonzero(top > TOP_LEVEL_TOL)
        first_over = int(over[0]) if len(over) else m

        lo, hi = np.searchsorted(self.check_idx, [start, start + first_over])
        for i, v in zip(self.check_idx[lo:hi], states):
            j = int(i) - start
            dm = DensityMatrix(matrix=self.tri.expand(v).reshape(d, d), time=float(self.grid[i]))
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

    def record_run(self, solver: _HermitianRK45, first: int, last: int) -> int:
        """Step solver to its t_bound, the time of sample last - 1, read samples first, ...,
        last - 1 off the interpolant of the step that covers each, and record them at once;
        return the accepted steps. Where a step fails, the samples before it are recorded
        first, so that what they raise comes first."""
        grid = self.grid[first:last]
        samples = np.empty((len(grid), len(self.columns)), dtype=complex)
        states = []   # half vectors of the checkpoints among the samples
        done = n_steps = 0
        try:
            while not solver.finished:
                solver.step()
                n_steps += 1
                covered = int(np.searchsorted(grid, solver.t, side="right"))
                if covered > done:
                    coeffs, powers = solver.interpolant(grid[done:covered], self.columns)
                    np.matmul(powers, coeffs, out=samples[done:covered])
                    lo, hi = np.searchsorted(self.check_idx, [first + done, first + covered])
                    for i in self.check_idx[lo:hi]:
                        coeffs, powers = solver.interpolant(self.grid[i : i + 1])
                        states.append(powers[0] @ coeffs)
                    done = covered
        finally:
            if done:
                self.record(first, samples[:done], states)
        return n_steps

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
    rk_step), with the same numpy calls but two trims that keep every bit (a
    step's |y| is the previous step's |y_new|, and the error norm gathers the
    expanded vector without conjugating it), and take their initial step,
    step sizes and nfev from the mean-field module's RK45 helpers, so every
    step, accepted state and nfev equals scipy's RK45 class on the same half
    vector. The initial step and every error norm are evaluated on the
    expanded vectors, so each step is accepted or rejected as RK45 on the
    full vec(rho) would. The last accepted step is kept as RkDenseOutput's fields (t_old,
    h, y_old, Q = K^T P), and `interpolant` reads states inside it; K's last
    row is the next step's start derivative. Runs forward, t0 < t_bound.
    """

    def __init__(self, fun, t0: float, y0: np.ndarray, t_bound: float, tri: _UpperTriangle,
                 *, rtol: float, atol: float):
        self.fun, self._full = fun, tri.index.reshape(-1)
        self.t, self.y, self.t_bound = t0, y0, t_bound
        self._abs_y = np.abs(y0)
        self.finished = False
        self.attempts = 0
        self.rtol, self.atol = rtol, atol
        self.K = np.empty((RK45.n_stages + 1, len(y0)), dtype=complex)
        self.K[-1] = fun(t0, y0)
        self.h_abs = select_initial_step(
            lambda t, y: tri.expand(fun(t, y[tri.upper])), t0, tri.expand(y0),
            t_bound, tri.expand(self.K[-1]), self.rtol, self.atol)

    @property
    def nfev(self) -> int:
        return rk45_nfev(self.attempts)

    def error_norm(self, K, h, scale):
        return norm(np.take(np.dot(K.T, RK45.E) * h / scale, self._full))

    def step(self) -> None:
        """Take one accepted step; raises SolverError where RK45 fails."""
        t, y = self.t, self.y
        floor = min_step(t)
        h_abs, rejected = max(self.h_abs, floor), False
        K = self.K
        K[0] = K[-1]   # attempts never write row 0
        while True:
            if h_abs < floor:
                raise SolverError(f"Lindblad integration failed: {RK45.TOO_SMALL_STEP}")
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = np.abs(h)

            for s, (a, c) in enumerate(zip(RK45.A[1:], RK45.C[1:]), start=1):
                dy = np.dot(K[:s].T, a[:s]) * h
                K[s] = self.fun(t + c * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, RK45.B)
            K[-1] = self.fun(t + h, y_new)
            self.attempts += 1

            abs_new = np.abs(y_new)
            scale = self.atol + np.maximum(self._abs_y, abs_new) * self.rtol
            error_norm = self.error_norm(K, h, scale)
            h_abs = rescale(h_abs, error_norm, rejected)
            if error_norm < 1:
                break
            rejected = True
        self.t_old, self.y_old, self.t, self.y = t, y, t_new, y_new
        self.h, self.h_abs, self._abs_y = h, h_abs, abs_new
        self.finished = self.t >= self.t_bound

    @property
    def Q(self) -> np.ndarray:
        """RkDenseOutput's K^T P of the last accepted step; `interpolant` takes it on some columns."""
        return self.K.T.dot(RK45.P)

    def interpolant(self, t: np.ndarray, columns=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(coeffs, powers) with row j of powers @ coeffs the `columns` of the state at t[j]:
        the last step's y_old + h Q [x, x^2, ...] at x = (t - t_old) / h, as rows y_old and
        h Q^T and a row [1, x, x^2, ...] per sample."""
        Q = self.K[:, columns].T.dot(RK45.P)
        coeffs = np.empty((Q.shape[1] + 1, Q.shape[0]), dtype=complex)
        coeffs[0] = self.y_old[columns]
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
    interpolant of the step that covers it, and each chunk's samples are
    recorded at once. The whole call runs numpy's OpenBLAS on one thread.

    Raises GridError before any RHS call where integrate would (resolved_grid),
    TruncationError when the top photon level acquires more than
    TOP_LEVEL_TOL population (the Fock cutoff is then too low for this
    drive) and SolverError when a checkpoint eigenvalue falls below
    -POSITIVITY_TOL, each for the first sample where a sample-by-sample pass
    would, also when the integration fails later in the same chunk.
    """
    with _one_blas_thread():
        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (h.dim, h.dim):
            raise ValidationError(f"rho0 has shape {rho0.shape}, expected {(h.dim, h.dim)}")
        DensityMatrix(matrix=rho0, time=t_span[0]).validate()
        grid = resolved_grid(cfg, t_span, dt)
        rtol, atol = validate_tol(rtol, atol)
        nt = len(grid)
        rec = _ChunkRecorder(h, grid)
        rhs = _half_rhs(cfg, h, rec.tri)

        y = rho0.reshape(-1)[rec.tri.upper]
        rec.record(0, y[None, rec.columns], [y])
        nfev = n_steps = 0
        chunks = range(0, nt - 1, CHUNK)
        for start in chunks:
            stop = min(start + CHUNK, nt - 1)
            solver = _HermitianRK45(rhs, float(grid[start]), y, float(grid[stop]), rec.tri,
                                    rtol=rtol, atol=atol)
            n_steps += rec.record_run(solver, start + 1, stop + 1)
            nfev += solver.nfev
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
            diagnostics={**rec.diagnostics(), "nfev": nfev, "n_steps": n_steps,
                         "n_chunks": len(chunks), "dim": h.dim},
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

