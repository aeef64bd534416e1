import ctypes
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import RK45
from scipy.integrate._ivp.common import norm, select_initial_step
from scipy.integrate._ivp.rk import RkDenseOutput

from qwcavity import (
    ConfigError,
    DensityMatrix,
    HilbertConfig,
    TruncationError,
    ValidationError,
    build_hamiltonian,
    build_operators,
    evolve,
    lindblad_rhs,
    set_config_value,
    vacuum_state,
    write_checkpoints,
)
from qwcavity import Frame, baseline_config, drive_amplitude, fid_time_span, integrate, nonlinear_phase_shift
from qwcavity import lindblad
from qwcavity.errors import SolverError
from qwcavity.lindblad import _ChunkRecorder, _half_rhs, _HermitianRK45, _UpperTriangle
from qwcavity.model import BLOCK_ROWS
from qwcavity.spectral import SpectralPolicy

from conftest import standard_config
from lindblad_reference import (ScipyHalfRK45, SampleRecorder, dense_rhs, drive_coefficient, excitation_number,
                                 reference_evolve)

H_SMALL = HilbertConfig(n_photon_max=1, nu_max=1, n_wells=1)
H_PAIR = HilbertConfig(n_photon_max=8, nu_max=2, n_wells=2)


def single_well_config(**kwargs):
    return standard_config(n_wells=1, **kwargs)


def at_zero_carrier(cfg):
    """cfg with pulse.omega_d = 0, where the rotating frame is the lab frame."""
    return set_config_value(cfg, "pulse.omega_d", 0.0)


def random_density_matrix(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class TestOperators:
    def test_minimal_truncation_dimension(self):
        assert H_SMALL.dim == 4

    def test_photon_annihilator_structure(self):
        a = build_operators(H_SMALL)[0].toarray()
        # two-level photon factor: a couples each |1>_ph block to |0>_ph
        # with unit amplitude and nothing else
        nz = np.argwhere(np.abs(a) > 0)
        assert len(nz) == 2
        assert np.allclose(a[np.abs(a) > 0], 1.0)
        adag_a = a.conj().T @ a
        assert np.allclose(np.diag(adag_a).real, [0, 0, 1, 1])

    def test_distinct_factors_commute(self):
        h = HilbertConfig(n_photon_max=2, nu_max=2, n_wells=2)
        a, wells = build_operators(h)
        a = a.toarray()
        b1 = wells[0].toarray()
        assert np.abs(a @ b1 - b1 @ a).max() == 0.0

    def test_well_ladder_elements(self):
        h = HilbertConfig(n_photon_max=1, nu_max=2, n_wells=1)
        b = build_operators(h)[1][0].toarray()
        values = sorted(np.round(b[np.abs(b) > 0].real, 12))
        assert values == [1.0, 1.0, pytest.approx(math.sqrt(2)), pytest.approx(math.sqrt(2))]

    def test_dimension_cap(self):
        with pytest.raises(ConfigError):
            HilbertConfig(n_photon_max=100, nu_max=3, n_wells=3)

    @pytest.mark.parametrize("name", ["n_photon_max", "nu_max", "n_wells"])
    @pytest.mark.parametrize("value", [2.5, 8.0, True, np.int64(8)])
    def test_cutoff_that_is_not_an_int_rejected(self, name, value):
        # a float breaks the basis build, and a numpy integer the sidecar's json
        fields = {"n_photon_max": 2, "nu_max": 2, "n_wells": 2, name: value}
        with pytest.raises(ConfigError, match=f"{name} must be an int"):
            HilbertConfig(**fields)


class TestHamiltonian:
    def test_uncoupled_diagonal_matches_kerr_ladder(self):
        h = HilbertConfig(n_photon_max=1, nu_max=2, n_wells=1)
        cfg = set_config_value(at_zero_carrier(single_well_config(u_over_gamma=1.0)), "dipoles[0].g", 0.0)
        ham = build_hamiltonian(cfg, h).toarray()
        assert np.abs(ham - np.diag(np.diag(ham))).max() < 1e-14
        # basis: cavity slowest -> |n_ph=0, nu=2> is index 2
        assert ham[2, 2].real == pytest.approx(78.8)
        assert ham[0, 0] == 0.0
        # |n_ph=1, nu=0> carries the cavity quantum
        assert ham[3, 3].real == pytest.approx(40.0)

    def test_hermitian(self):
        cfg = standard_config()
        ham = build_hamiltonian(cfg, H_PAIR).toarray()
        assert np.abs(ham - ham.conj().T).max() < 1e-12

    def test_single_excitation_splitting(self):
        # harmonic resonant well: the one-excitation doublet splits by 2g
        h = HilbertConfig(n_photon_max=2, nu_max=2, n_wells=1)
        cfg = at_zero_carrier(single_well_config(u_over_gamma=0.0))
        g = cfg.dipoles[0].coupling
        evals = np.linalg.eigvalsh(build_hamiltonian(cfg, h).toarray())
        doublet = evals[(evals > 35.0) & (evals < 45.0)]
        assert len(doublet) == 2
        assert doublet[1] - doublet[0] == pytest.approx(2 * g, rel=1e-10)

    def test_rotating_frame_shifts_diagonal(self):
        h = HilbertConfig(n_photon_max=1, nu_max=2, n_wells=1)
        cfg = set_config_value(single_well_config(), "dipoles[0].g", 0.0)
        lab = build_hamiltonian(at_zero_carrier(cfg), h).toarray()
        rot = build_hamiltonian(cfg, h).toarray()
        # resonant carrier removes the whole first excitation energy
        assert rot[3, 3].real == pytest.approx(0.0, abs=1e-12)
        assert lab[3, 3].real == pytest.approx(40.0)

    def test_well_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            build_hamiltonian(standard_config(), H_SMALL)


class TestRhs:
    def test_vacuum_is_stationary_without_drive(self):
        cfg = set_config_value(standard_config(), "pulse.F0", 0.0)
        rho = vacuum_state(H_PAIR)
        out = lindblad_rhs(rho, 0.6, cfg, H_PAIR)
        assert np.abs(out).max() < 1e-14

    def test_trace_free_and_hermiticity_preserving(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(H_PAIR.dim, H_PAIR.dim)) + 1j * rng.normal(size=(H_PAIR.dim, H_PAIR.dim))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        out = lindblad_rhs(rho, 0.6, standard_config(), H_PAIR)
        assert abs(np.trace(out)) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12

    def test_bare_cavity_photon_decay_rate(self):
        h = HilbertConfig(n_photon_max=2, nu_max=1, n_wells=1)
        cfg = set_config_value(single_well_config(), "dipoles[0].g", 0.0)
        cfg = set_config_value(cfg, "pulse.F0", 0.0)
        a = build_operators(h)[0]
        number = (a.conj().T @ a).toarray()
        # rho = |1_ph, 0><1_ph, 0|
        rho = np.zeros((h.dim, h.dim), dtype=complex)
        idx = 1 * (h.nu_max + 1)
        rho[idx, idx] = 1.0
        out = lindblad_rhs(rho, 0.0, cfg, h)
        rate = np.sum(number.T * out).real
        assert rate == pytest.approx(-12.0, rel=1e-12)

    def test_shape_checked(self):
        with pytest.raises(ValidationError):
            lindblad_rhs(np.zeros((3, 3), dtype=complex), 0.0, standard_config(), H_PAIR)

    def test_evolve_checks_rho0_shape(self):
        with pytest.raises(ValidationError, match=r"rho0 has shape \(3, 3\), expected \(81, 81\)"):
            evolve(np.zeros((3, 3), dtype=complex), (0.0, 0.5), standard_config(), H_PAIR)

    def test_drive_is_conjugate_of_meanfield_drive(self):
        # the coefficient of a in H_d(t) is conj(F(t)), bit for bit
        cfg = standard_config(f0_over_kappa=0.35)
        for t in np.linspace(0.0, 2.0, 2001):
            assert drive_amplitude(t, cfg.pulse).conjugate() == drive_coefficient(cfg, t)

    @pytest.mark.parametrize("n_photon_max", [4, 8])   # dim 45 and 81
    # the fifth argument as perfbench/measure.py passes it, and left out
    @pytest.mark.parametrize("frame", [Frame.ROTATING, None])
    # offsets from the pulse peak: 0, 2.4 T, a time on the pulse's flank, and
    # 40 T, where c underflows to 0
    @pytest.mark.parametrize("offset", [0.0, 0.37, 0.0676, 6.2])
    def test_matches_dense_oracle(self, n_photon_max, frame, offset):
        h = HilbertConfig(n_photon_max=n_photon_max, nu_max=2, n_wells=2)
        cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.35, omega2=41.0, gamma2=0.9)
        rho = random_density_matrix(h.dim, seed=n_photon_max)
        t = cfg.pulse.center + offset
        assert (drive_coefficient(cfg, t) == 0.0) == (offset == 6.2)
        want = dense_rhs(rho, t, cfg, h)
        got = lindblad_rhs(rho, t, cfg, h, *([] if frame is None else [frame]))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("frame", ["lab", "rotating", None])
    def test_frame_other_than_rotating_refused(self, frame):
        rho = random_density_matrix(H_SMALL.dim, seed=1)
        with pytest.raises(ValidationError, match="frame must be Frame.ROTATING"):
            lindblad_rhs(rho, 0.6, single_well_config(), H_SMALL, frame)

    @settings(max_examples=30, deadline=None)
    @given(
        u_over_gamma=st.floats(0.0, 3.0),
        f0_over_kappa=st.floats(0.0, 0.6),
        gamma2=st.floats(0.1, 10.0),
        omega2=st.floats(35.0, 45.0),
        t=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**31),
    )
    def test_trace_free_and_hermiticity_preserving_property(
        self, u_over_gamma, f0_over_kappa, gamma2, omega2, t, seed
    ):
        h = HilbertConfig(n_photon_max=3, nu_max=2, n_wells=2)
        cfg = standard_config(u_over_gamma=u_over_gamma, f0_over_kappa=f0_over_kappa,
                              gamma2=gamma2, omega2=omega2)
        out = lindblad_rhs(random_density_matrix(h.dim, seed), t, cfg, h)
        scale = max(1.0, np.abs(out).max())
        assert abs(np.trace(out)) < 1e-12 * scale
        assert np.abs(out - out.conj().T).max() < 1e-12 * scale


def to_lab(rho: np.ndarray, t: float, cfg, h) -> np.ndarray:
    """U rho U^dag for U = exp(-i w_d N_exc t): a rotating-frame state in the lab frame."""
    u = np.exp(-1j * cfg.pulse.carrier * t * excitation_number(h))
    return u[:, None] * rho * u.conj()[None, :]


class TestLabFrame:
    """The lab frame without a lab solver: the package integrates only in the
    frame rotating at the carrier, and U = exp(-i w_d N_exc t) maps it to the
    lab frame of the test-only dense reference."""

    # the pulse peak, 2.4 T after it, and 40 T after it, where the Gaussian has underflowed
    @pytest.mark.parametrize("offset", [0.0, 2.4 * 0.155, 6.2])
    def test_rotating_rhs_is_the_lab_rhs_transformed(self, offset):
        # d(U rho U^dag)/dt = U (drho/dt) U^dag - i w_d [N_exc, U rho U^dag]
        h = HilbertConfig(n_photon_max=4, nu_max=2, n_wells=2)
        cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.35, omega2=41.0, gamma2=0.9)
        t = cfg.pulse.center + offset
        rho = random_density_matrix(h.dim, seed=5)
        rho_lab, n = to_lab(rho, t, cfg, h), excitation_number(h)
        got = (to_lab(lindblad_rhs(rho, t, cfg, h), t, cfg, h)
               - 1j * cfg.pulse.carrier * (n[:, None] - n[None, :]) * rho_lab)
        want = dense_rhs(rho_lab, t, cfg, h, lab=True)
        assert (drive_coefficient(cfg, t, lab=True) == 0.0) == (offset == 6.2)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_lab_signal_is_the_lab_frame_expectation(self):
        # <a> = Tr(a U rho U^dag) at every checkpoint of one rotating-frame run
        h = HilbertConfig(n_photon_max=3, nu_max=2, n_wells=2)
        cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.05, omega2=41.0)
        res = evolve(vacuum_state(h), (0.0, 1.5), cfg, h, dt=0.004)
        a = build_operators(h)[0].toarray()
        lab = res.lab_signal("cavity")
        for cp in res.checkpoints:
            want = np.trace(a @ to_lab(cp.matrix, cp.time, cfg, h))
            assert abs(lab[np.searchsorted(res.t, cp.time)] - want) <= 1e-12 * np.abs(lab).max()
        assert np.abs(lab).max() > 0.01


class TestEvolve:
    def test_vacuum_stays_vacuum(self):
        cfg = set_config_value(standard_config(), "pulse.F0", 0.0)
        res = evolve(vacuum_state(H_PAIR), (0.0, 2.0), cfg, H_PAIR, dt=0.004)
        assert np.abs(res.a).max() == 0.0
        assert np.abs(res.modes).max() == 0.0
        assert np.abs(res.second_level_population()).max() == 0.0

    def test_second_level_population_needs_three_levels(self):
        h = HilbertConfig(n_photon_max=2, nu_max=1, n_wells=2)
        res = evolve(vacuum_state(h), (0.0, 0.5), standard_config(f0_over_kappa=0.05), h, dt=0.004)
        with pytest.raises(ValidationError, match="P2 requires nu_max >= 2"):
            res.second_level_population()

    def test_single_photon_decay_oracle(self):
        h = HilbertConfig(n_photon_max=2, nu_max=1, n_wells=1)
        cfg = set_config_value(single_well_config(), "dipoles[0].g", 0.0)
        cfg = set_config_value(cfg, "pulse.F0", 0.0)
        rho = np.zeros((h.dim, h.dim), dtype=complex)
        idx = 1 * (h.nu_max + 1)
        rho[idx, idx] = 1.0
        res = evolve(rho, (0.0, 1.2), cfg, h, dt=0.002)
        expected = np.exp(-12.0 * res.t)
        assert np.abs(res.exp_n - expected).max() < 1e-6

    def test_quasi_steady_drive_flux(self):
        # long plateau pulse on a bare cavity: kappa <n> -> 4 F0^2 / kappa
        h = HilbertConfig(n_photon_max=3, nu_max=1, n_wells=1)
        cfg = single_well_config(f0_over_kappa=0.05)
        cfg = set_config_value(cfg, "dipoles[0].g", 0.0)
        cfg = set_config_value(cfg, "pulse.t0", 40.0)
        cfg = set_config_value(cfg, "pulse.T", 25.0)
        res = evolve(vacuum_state(h), (0.0, 40.0), cfg, h, dt=0.004)
        flux = 12.0 * res.exp_n[-1]
        target = 4.0 * cfg.pulse.amplitude**2 / 12.0
        assert flux == pytest.approx(target, rel=0.02)

    def test_hygiene_diagnostics(self):
        cfg = standard_config(u_over_gamma=0.5, f0_over_kappa=0.3)
        res = evolve(vacuum_state(H_PAIR), (0.0, 3.0), cfg, H_PAIR, dt=0.004)
        assert res.diagnostics["max_trace_dev"] < 1e-8
        assert res.diagnostics["max_herm_dev"] < 1e-10
        assert res.diagnostics["min_eigenvalue"] > -1e-8
        for cp in res.checkpoints:
            cp.validate()

    def test_truncation_overflow_raises(self):
        h = HilbertConfig(n_photon_max=1, nu_max=2, n_wells=2)
        cfg = standard_config(f0_over_kappa=0.5)
        with pytest.raises(TruncationError):
            evolve(vacuum_state(h), (0.0, 2.0), cfg, h, dt=0.004)

    def test_grid_matches_meanfield_grid(self):
        cfg = standard_config(u_over_gamma=0.5, f0_over_kappa=0.05)
        res = evolve(vacuum_state(H_PAIR), (0.0, 2.0), cfg, H_PAIR, dt=0.004)
        traj = integrate(cfg, (0.0, 2.0), dt=0.004)
        assert np.array_equal(res.t, traj.t)

    def test_linear_response_phase_negligible(self):
        # at F0 = 0.01 kappa the extracted shift is below 1e-3 rad even for
        # strong anharmonicity
        policy = SpectralPolicy()
        cfg = standard_config(u_over_gamma=2.0, f0_over_kappa=0.01)
        span = fid_time_span(cfg, policy)
        run = evolve(vacuum_state(H_PAIR), span, cfg, H_PAIR, dt=0.004)
        base = evolve(vacuum_state(H_PAIR), span, baseline_config(cfg, policy), H_PAIR, dt=0.004)
        assert abs(nonlinear_phase_shift(run, base, policy)) < 1e-3

    def test_truncation_convergence_of_phase_shift(self):
        # raising the Fock cutoff by 2 moves dPhi(omega0) by < 1%
        policy = SpectralPolicy()
        cfg = standard_config(u_over_gamma=0.5, f0_over_kappa=0.5)
        span = fid_time_span(cfg, policy)
        base_cfg = baseline_config(cfg, policy)
        shifts = []
        for n_ph in (6, 8):
            h = HilbertConfig(n_photon_max=n_ph, nu_max=2, n_wells=2)
            run = evolve(vacuum_state(h), span, cfg, h, dt=0.004)
            base = evolve(vacuum_state(h), span, base_cfg, h, dt=0.004)
            shifts.append(nonlinear_phase_shift(run, base, policy))
        assert abs(shifts[1] - shifts[0]) / abs(shifts[1]) < 0.01


RECORD_TOL = 1e-14   # absolute: the recorder sums in a different order than the loop


def assert_same_record(got, diagnostics: dict, want: SampleRecorder, checkpoint_tol: float = 0.0):
    """Chunk-recorded series and diagnostics against the per-sample reference.

    Checkpoints are compared bit for bit unless `checkpoint_tol` allows more.
    """
    names = {"a": "exp_a", "exp_n": "exp_n", "modes": "exp_b", "populations": "populations"}
    for name, ref_name in names.items():
        assert np.abs(getattr(got, name) - getattr(want, ref_name)).max() <= RECORD_TOL
    for key, value in want.diagnostics().items():
        assert abs(diagnostics[key] - value) <= RECORD_TOL
    assert [cp.time for cp in got.checkpoints] == [cp.time for cp in want.checkpoints]
    for cp, ref in zip(got.checkpoints, want.checkpoints):
        if checkpoint_tol == 0.0:
            assert np.array_equal(cp.matrix, ref.matrix)
        else:
            assert np.abs(cp.matrix - ref.matrix).max() <= checkpoint_tol


def error_head(exc: Exception) -> str:
    """Error type, sample time and offending value; drops the trailing running maxima."""
    return f"{type(exc).__name__}: {str(exc).split(' (')[0]}"


class TestChunkRecorder:
    @pytest.mark.bitexact
    def test_evolve_matches_sample_reference(self):
        h, span = H_PAIR, (0.0, 3.0)
        cfg = standard_config(u_over_gamma=0.5, f0_over_kappa=0.3)
        res = evolve(vacuum_state(h), span, cfg, h, dt=0.004)
        ref = reference_evolve(vacuum_state(h), span, cfg, h, dt=0.004)
        # the reference integrates every entry of vec(rho), evolve the upper triangle
        # and its conjugate: the two states differ in rounding only
        assert_same_record(res, res.diagnostics, ref, checkpoint_tol=RECORD_TOL)
        assert res.diagnostics["nfev"] == ref.nfev
        assert res.diagnostics["n_steps"] == ref.n_steps
        assert res.diagnostics["n_chunks"] == ref.n_chunks == math.ceil((len(res.t) - 1) / 256)
        assert res.diagnostics["dim"] == h.dim

    @pytest.mark.bitexact
    def test_n_steps_counts_accepted_steps(self):
        h = HilbertConfig(n_photon_max=4, nu_max=2, n_wells=2)
        cfg = standard_config(u_over_gamma=0.5, f0_over_kappa=0.3)
        runs = [evolve(vacuum_state(h), (0.0, 1.5), cfg, h, dt=0.004) for _ in range(2)]
        ref = reference_evolve(vacuum_state(h), (0.0, 1.5), cfg, h, dt=0.004)
        assert runs[0].diagnostics["n_steps"] == runs[1].diagnostics["n_steps"] == ref.n_steps
        assert ref.n_steps > ref.n_chunks

    @pytest.mark.bitexact
    def test_interpolant_matches_scipy_dense_output(self):
        # pins the RkDenseOutput fields (t_old, h, y_old, Q) the recorder reads, and
        # the one interpolant of each accepted step to RkDenseOutput's evaluation
        h = HilbertConfig(n_photon_max=4, nu_max=2, n_wells=2)
        cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.35)
        tri = _UpperTriangle(h.dim)
        solver = _HermitianRK45(_half_rhs(cfg, h, tri), 0.0,
                                vacuum_state(h).reshape(-1)[tri.upper], 1.5, tri,
                                rtol=1e-9, atol=1e-12)
        n_steps = 0
        while not solver.finished:
            solver.step()
            n_steps += 1
            dense = RkDenseOutput(solver.t_old, solver.t, solver.y_old, solver.K.T.dot(RK45.P))
            t = np.linspace(solver.t_old, solver.t, 7)
            coeffs, powers = solver.interpolant(t)
            assert coeffs.shape == (5, h.dim * (h.dim + 1) // 2) and powers.shape == (7, 5)
            assert np.abs(powers @ coeffs - dense(t).T).max() <= 1e-15
        assert n_steps > 10

    @pytest.mark.bitexact
    def test_step_control_is_scipy_rk45_on_the_full_vector(self):
        # the half-vector solver takes its initial step and every error norm as
        # scipy's select_initial_step and norm would on the expanded vec(rho)
        h = HilbertConfig(n_photon_max=4, nu_max=2, n_wells=2)
        cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.35)
        tri = _UpperTriangle(h.dim)
        half_rhs = _half_rhs(cfg, h, tri)

        def full_rhs(t, y):
            return tri.expand(half_rhs(t, y[tri.upper]))

        y0 = vacuum_state(h).reshape(-1)[tri.upper]
        half = _HermitianRK45(half_rhs, 0.0, y0, 0.8, tri, rtol=1e-9, atol=1e-12)
        full = RK45(full_rhs, 0.0, tri.expand(y0), 0.8, rtol=1e-9, atol=1e-12)
        assert half.h_abs == full.h_abs == select_initial_step(
            full_rhs, 0.0, tri.expand(y0), 0.8, np.inf, full_rhs(0.0, tri.expand(y0)), 1, 4,
            1e-9, 1e-12)
        assert half.nfev == full.nfev == 2
        half_times, full_times = [], []
        while not half.finished:
            half.step()
            step = half.t - half.t_old
            scale = 1e-12 + np.maximum(np.abs(half.y_old), np.abs(half.y)) * 1e-9
            err = tri.expand(RK45._estimate_error(full, half.K, step)) / tri.expand(scale)
            assert half.error_norm(half.K, step, scale) == norm(err)
            # scipy's own error norm of the expanded stages is that same formula
            k_full, scale_full = tri.expand(half.K), tri.expand(scale)
            assert RK45._estimate_error_norm(full, k_full, step, scale_full) == norm(
                RK45._estimate_error(full, k_full, step) / scale_full)
            half_times.append(half.t)
        while full.status == "running":
            full.step()
            full_times.append(full.t)
        # the two runs differ in rounding only (BLAS sums a stage combination in
        # another order at another vector length), never in a step decision: the
        # step times agree to 1.5e-12 (measured), a step apart would be ~1e-2
        assert len(half_times) == len(full_times) > 20 and half.nfev == full.nfev
        assert np.abs(np.subtract(half_times, full_times)).max() <= 1e-10

    @pytest.mark.bitexact
    def test_rejected_step_is_scipy_rk45_step_by_step(self):
        # from a random pure state the first attempt is rejected; every attempt's
        # (t, h, error norm, nfev) and every accepted state equal those of the same
        # step control built on scipy's RK45 class, bit for bit
        h = HilbertConfig(n_photon_max=4, nu_max=2, n_wells=2)
        cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.35)
        tri = _UpperTriangle(h.dim)
        half_rhs = _half_rhs(cfg, h, tri)
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(h.dim) + 1j * rng.standard_normal(h.dim)
        y0 = (np.outer(psi, psi.conj()) / np.vdot(psi, psi).real).reshape(-1)[tri.upper]

        own = _HermitianRK45(half_rhs, 0.5, y0, 0.6, tri, rtol=1e-9, atol=1e-12)
        ref = ScipyHalfRK45(half_rhs, 0.5, y0, 0.6, tri, rtol=1e-9, atol=1e-12)
        attempts = ([], [])

        def logged(solver, error_norm, log):
            def wrapped(K, step, scale):
                log.append((solver.t, step, error_norm(K, step, scale), solver.nfev))
                return log[-1][2]
            return wrapped

        own.error_norm = logged(own, own.error_norm, attempts[0])
        ref._estimate_error_norm = logged(ref, ref._estimate_error_norm, attempts[1])
        assert own.h_abs == ref.h_abs and own.nfev == ref.nfev == 2
        n_steps = 0
        while not own.finished:
            own.step()
            ref.step()
            n_steps += 1
            assert (own.t, own.h_abs, own.nfev) == (ref.t, ref.h_abs, ref.nfev)
            assert np.array_equal(own.y, ref.y)
            assert np.array_equal(own.Q, ref.dense_output().Q)
        assert ref.status == "finished"
        assert attempts[0] == attempts[1]
        rejected = [a for a in attempts[0] if a[2] >= 1]
        assert rejected and len(attempts[0]) == n_steps + len(rejected)
        # the retry's error norm is below SAFETY**5, so only RK45's cap on the
        # growth factor after a rejection keeps the next step from growing
        assert attempts[0][attempts[0].index(rejected[0]) + 1][2] < 0.9**5
        assert own.nfev == 2 + 6 * len(attempts[0])

    def test_checkpoints_hermitian_off_the_diagonal(self):
        h = HilbertConfig(n_photon_max=4, nu_max=2, n_wells=2)
        cfg = standard_config(u_over_gamma=0.5, f0_over_kappa=0.3)
        res = evolve(vacuum_state(h), (0.0, 1.5), cfg, h, dt=0.004)
        herm = []
        for cp in res.checkpoints:
            m = cp.matrix
            assert np.array_equal(np.triu(m, 1), np.tril(m, -1).conj().T)
            herm.append(cp.deviations()["hermiticity"])
            assert herm[-1] == 2.0 * np.abs(np.diagonal(m).imag).max()
        assert res.diagnostics["max_herm_dev"] >= max(herm)

    def test_evolve_peak_memory(self):
        # one full-span dim-81 run: no (D^2, chunk) state matrix is ever built
        h = H_PAIR
        cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.35)
        span = fid_time_span(cfg, SpectralPolicy())
        assert span[1] > 9.6
        tracemalloc.start()
        try:
            res = evolve(vacuum_state(h), span, cfg, h, dt=0.004)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.diagnostics["dim"] == 81
        assert peak < 20e6

    def test_truncation_reports_same_first_sample(self):
        h = HilbertConfig(n_photon_max=1, nu_max=2, n_wells=2)
        cfg = standard_config(f0_over_kappa=0.5)
        errors = []
        for run in (evolve, reference_evolve):
            with pytest.raises(TruncationError) as info:
                run(vacuum_state(h), (0.0, 2.0), cfg, h, dt=0.004)
            errors.append(str(info.value))
        times = [re.search(r"t=([-0-9.]+)", e).group(1) for e in errors]
        assert times[0] == times[1]

    @pytest.mark.parametrize(
        "negative_at, overflow_at",
        [(None, None), (19, 25), (19, 19), (29, 19), (None, 3)],
    )
    def test_synthetic_chunks_match_sample_reference(self, negative_at, overflow_at, monkeypatch):
        # checkpoints of a 40-sample grid at n_checkpoints = 5: 0, 9, 19, 29, 39
        h = HilbertConfig(n_photon_max=2, nu_max=1, n_wells=2)
        d, grid = h.dim, 0.01 * np.arange(40)
        rng = np.random.default_rng(7)
        states = []
        for i in range(len(grid)):
            rho = random_density_matrix(d, seed=i)
            rho = 0.5 * (rho + rho.conj().T)   # exactly Hermitian off the diagonal
            # the one non-Hermitian part a half vector can hold
            rho += 1e-9j * np.diag(rng.normal(size=d))
            if i == negative_at:
                rho = np.diag([1.02, -0.02] + [0.0] * (d - 2)).astype(complex)
            if i == overflow_at:
                rho = np.zeros((d, d), dtype=complex)
                rho[-1, -1] = 1.0   # last basis state: top photon level
            states.append(rho.reshape(-1))
        ys = np.stack(states, axis=1)
        half = ys[_UpperTriangle(d).upper]   # what evolve integrates
        kwargs = dict(n_checkpoints=5, top_level_tol=0.99, positivity_tol=1e-6)
        for name, value in kwargs.items():
            monkeypatch.setattr(lindblad, name.upper(), value)
        chunked = _ChunkRecorder(h, grid)
        ref = SampleRecorder(h, grid, **kwargs)

        def run_chunked():
            # the columns of every sample, and the whole state of each checkpoint
            for start, stop in [(0, 1)] + [(k, min(k + 16, len(grid))) for k in range(1, len(grid), 16)]:
                states = [half[:, i] for i in chunked.check_idx if start <= i < stop]
                chunked.record(start, half[chunked.columns, start:stop].T, states)

        outcomes = []
        for run in (run_chunked, lambda: ref.record_chunk(0, ys)):
            try:
                run()
                outcomes.append(None)
            except (SolverError, TruncationError) as exc:
                outcomes.append(error_head(exc))
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is None:
            assert_same_record(chunked, chunked.diagnostics(), ref)
            assert ref.max_herm_dev > 1e-10   # the perturbation is seen
        else:
            expected = "SolverError" if negative_at is not None and negative_at < overflow_at else "TruncationError"
            assert outcomes[0].startswith(expected)

    @pytest.mark.parametrize("failing_from, expected", [(31, "SolverError"), (62, "TruncationError")])
    def test_failing_checkpoint_and_overflow_in_one_chunk(self, failing_from, expected, monkeypatch):
        # the top photon level overflows at sample 52 (t = 0.208), between the checkpoints
        # at samples 31 and 62 of the first chunk; every eigenvalue check fails from
        # sample `failing_from` on, so the first failure is the checkpoint's or the overflow's
        h = HilbertConfig(n_photon_max=1, nu_max=2, n_wells=2)
        cfg = standard_config(f0_over_kappa=0.5)
        deviations = DensityMatrix.deviations

        def failing(dm):
            dev = deviations(dm)
            return {**dev, "min_eigenvalue": -1.0} if dm.time > 0.004 * (failing_from - 0.5) else dev

        monkeypatch.setattr(DensityMatrix, "deviations", failing)
        errors = []
        for run in (evolve, reference_evolve):
            with pytest.raises((SolverError, TruncationError)) as info:
                run(vacuum_state(h), (0.0, 2.0), cfg, h, dt=0.004)
            errors.append(error_head(info.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith(expected)
        assert f"t={0.004 * (failing_from if expected == 'SolverError' else 52):.3f}" in errors[0]

    @pytest.mark.parametrize("n_photon_max, fails_from, expected",
                             [(1, 0.3, TruncationError), (4, 0.3, SolverError), (4, 1.024, SolverError)])
    def test_failed_step_raises_after_the_samples_before_it(self, n_photon_max, fails_from, expected,
                                                            monkeypatch):
        # every step from t = fails_from on fails: at 0.3 in the first chunk, where the top
        # level of n_photon_max = 1 overflows at t = 0.208, so the overflow comes first, as in
        # a sample-by-sample pass; at 1.024 on the first step of the second chunk
        h = HilbertConfig(n_photon_max=n_photon_max, nu_max=2, n_wells=2)
        cfg = standard_config(f0_over_kappa=0.5 if n_photon_max == 1 else 0.2)
        step = _HermitianRK45.step

        def failing(solver):
            if solver.t >= fails_from:
                raise SolverError("Lindblad integration failed: step size too small")
            step(solver)

        monkeypatch.setattr(_HermitianRK45, "step", failing)
        with pytest.raises(expected, match=r"t=0\.208" if expected is TruncationError else "step size"):
            evolve(vacuum_state(h), (0.0, 2.0), cfg, h, dt=0.004)


class TestBlasThreadScope:
    """evolve runs numpy's OpenBLAS on one thread and gives the previous count back."""

    @pytest.fixture
    def blas(self):
        found = lindblad._blas_threads()
        if found is None:
            pytest.skip("numpy has no bundled OpenBLAS with a thread-count setter")
        get, put = found
        original = get()
        yield get, put
        put(original)

    @pytest.mark.parametrize("outcome", ["returns", "TruncationError", "ValidationError"])
    def test_count_restored(self, outcome, blas, monkeypatch):
        get, put = blas
        cfg = standard_config(f0_over_kappa=0.5)
        h = HilbertConfig(n_photon_max=1 if outcome == "TruncationError" else 4, nu_max=2, n_wells=2)
        rho0 = np.eye(2) if outcome == "ValidationError" else vacuum_state(h)
        inside, half_rhs = [], lindblad._half_rhs   # the thread count where evolve builds its RHS

        def counted(*args):
            inside.append(get())
            return half_rhs(*args)

        monkeypatch.setattr(lindblad, "_half_rhs", counted)
        for before in (get(), get() + 1):   # the library default, then a count set beforehand
            put(before)
            if outcome == "returns":
                evolve(rho0, (0.0, 0.2), cfg, h, dt=0.004)
            else:
                with pytest.raises(getattr(lindblad, outcome)):
                    evolve(rho0, (0.0, 2.0), cfg, h, dt=0.004)
            assert get() == before
        assert inside == ([] if outcome == "ValidationError" else [1, 1])

    def test_missing_library_warns_once_and_changes_nothing(self, monkeypatch):
        h = HilbertConfig(n_photon_max=2, nu_max=2, n_wells=1)
        cfg = single_well_config(f0_over_kappa=0.05)
        pinned = evolve(vacuum_state(h), (0.0, 0.5), cfg, h, dt=0.004)

        def no_library(path):
            raise OSError(f"{path}: cannot open shared object file")

        monkeypatch.setattr(ctypes, "CDLL", no_library)
        lindblad._blas_threads.cache_clear()
        try:
            with pytest.warns(RuntimeWarning, match="OpenBLAS was not found"):
                first = evolve(vacuum_state(h), (0.0, 0.5), cfg, h, dt=0.004)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                second = evolve(vacuum_state(h), (0.0, 0.5), cfg, h, dt=0.004)
        finally:
            lindblad._blas_threads.cache_clear()
        for res in (first, second):
            assert np.array_equal(res.a, pinned.a) and np.array_equal(res.modes, pinned.modes)
            assert res.diagnostics == pinned.diagnostics


class TestDensityMatrixType:
    def test_validate_catches_bad_trace(self):
        rho = np.eye(4, dtype=complex)
        with pytest.raises(ValidationError):
            DensityMatrix(matrix=rho, time=0.0).validate()

    def test_validate_catches_non_hermitian(self):
        rho = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        rho[0, 1] = 0.1
        with pytest.raises(ValidationError):
            DensityMatrix(matrix=rho, time=0.0).validate()

    @pytest.mark.parametrize("entries, match", [
        ({(0, 0): 1.2, (1, 1): -0.2}, "negative eigenvalue -2.00e-01"),
        ({(1, 1): math.nan}, "non-finite entries"),
        ({(0, 1): math.inf, (1, 0): math.inf}, "non-finite entries"),
    ], ids=["negative_eigenvalue", "nan_diagonal", "inf_off_diagonal_pair"])
    def test_validate_refuses(self, entries, match):
        # checked before evolve's first RHS call, too
        h = HilbertConfig(n_photon_max=2, nu_max=2, n_wells=2)
        rho = vacuum_state(h)
        for idx, value in entries.items():
            rho[idx] = value
        with pytest.raises(ValidationError, match=match):
            DensityMatrix(matrix=rho, time=0.0).validate()
        with pytest.raises(ValidationError, match=match):
            evolve(rho, (0.0, 0.5), standard_config(), h, dt=0.004)

    def test_checkpoint_round_trip(self, tmp_path):
        cfg = standard_config(u_over_gamma=0.5, f0_over_kappa=0.05)
        h = HilbertConfig(n_photon_max=2, nu_max=2, n_wells=2)
        res = evolve(vacuum_state(h), (0.0, 2.0), cfg, h, dt=0.004)
        write_checkpoints(res, tmp_path / "cp")
        # decode the published format: the header names dtype, byte order and layout
        header = json.loads((tmp_path / "cp.json").read_text())
        assert (header["file"], header["dtype"], header["byte_order"], header["layout"]) == (
            "cp.bin", "complex128", "little", "row-major")
        d, count = header["dim"], header["count"]
        raw = np.frombuffer((tmp_path / "cp.bin").read_bytes(), dtype="<c16")
        assert raw.size == count * d * d and count == len(res.checkpoints)
        matrices = raw.reshape(count, d, d)
        for t, got, want in zip(header["times"], matrices, res.checkpoints):
            assert t == want.time
            assert np.array_equal(got, want.matrix)


class TestExports:
    def test_csv_columns(self, tmp_path):
        cfg = standard_config(u_over_gamma=0.5, f0_over_kappa=0.05)
        h = HilbertConfig(n_photon_max=2, nu_max=2, n_wells=2)
        res = evolve(vacuum_state(h), (0.0, 2.0), cfg, h, dt=0.004)
        path = tmp_path / "lind.csv"
        res.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[2] == (
            "t,re_a,im_a,re_B0,im_B0,re_B1,im_B1,p0_1,p1_1,p2_1,p0_2,p1_2,p2_2"
        )
        assert len(lines) == 3 + len(res.t)

    def test_csv_rows_across_blocks(self, tmp_path):
        cfg = standard_config(u_over_gamma=0.5, f0_over_kappa=0.05)
        h = HilbertConfig(n_photon_max=2, nu_max=1, n_wells=2)
        res = evolve(vacuum_state(h), (0.0, 2.0), cfg, h, dt=4e-4)
        assert len(res.t) > BLOCK_ROWS
        path = tmp_path / "lind.csv"
        res.write_csv(path)
        series = [part for s in (res.a, res.bright(), res.dark()) for part in (s.real, s.imag)]
        columns = [res.t, *series, *res.populations.reshape(-1, len(res.t))]
        want = "".join(",".join(map(repr, row)) + "\n"
                       for row in zip(*(c.tolist() for c in columns)))
        assert path.read_text().split("\n", 3)[3] == want

    def test_dark_signal_of_identical_pair_on_both_solvers(self):
        # both solvers give the dark mode of an identical pair as 0 (exactly, for
        # the mean field), while the bright mode carries the response
        cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.2)
        results = (
            integrate(cfg, (0.0, 2.0), dt=0.004),
            evolve(vacuum_state(H_PAIR), (0.0, 2.0), cfg, H_PAIR, dt=0.004),
        )
        for res in results:
            assert np.abs(res.signal("bright")).max() > 0.05
            assert np.abs(res.signal("dark")).max() < 1e-14
        assert np.all(results[0].signal("dark") == 0.0)
