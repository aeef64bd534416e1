import json
import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import RK45
from scipy.integrate._ivp import common as scipy_common
from scipy.integrate._ivp import rk as scipy_rk

from qwcavity import (
    Frame,
    GridError,
    HilbertConfig,
    PostPulseOracle,
    SolverError,
    ValidationError,
    effective_decay,
    evolve,
    fid_time_span,
    integrate,
    oracle_from_trajectory,
    post_pulse_analytic,
    set_config_value,
    stationary_phase,
    vacuum_state,
)
from qwcavity import baseline_config, drive_amplitude, lindblad, meanfield
from qwcavity.meanfield import (
    _modes,
    _rhs,
    default_dt,
    integrate_batch,
    uniform_grid,
)

from conftest import standard_config
from meanfield_reference import collective_rhs, pair_modes, solve, solve_ivp_rk45


def undriven(cfg):
    return set_config_value(cfg, "pulse.F0", 0.0)


def bright_rhs(cfg):
    """(<a>, <B0>) right-hand side of a homogeneous set."""
    return _rhs([(cfg, _modes(cfg, per_well=False))])


def local_rhs(cfg):
    """(<a>, <b_1>, ..., <b_N>) right-hand side, one mode per well."""
    return _rhs([(cfg, _modes(cfg, per_well=True))])


class TestIdenticalRhs:
    def test_hand_evaluated_point(self):
        # resonant rotating frame, a=0, B0=1, no drive:
        # da/dt = -i*sqrt(N)g = -i, dB0/dt = -gamma/2 + i(2U/N)|B0|^2 B0
        cfg = undriven(standard_config(u_over_gamma=1.0))
        da, db = bright_rhs(cfg)(0.6, [0j, 1.0 + 0j])
        assert da == pytest.approx(-1j, rel=1e-12)
        assert db == pytest.approx(-0.3 + 0.6j, rel=1e-12)

    def test_vacuum_is_fixed_point(self):
        cfg = undriven(standard_config())
        da, db = bright_rhs(cfg)(1.0, [0j, 0j])
        assert da == 0 and db == 0

    def test_harmonic_rhs_is_linear(self):
        cfg = undriven(standard_config(u_over_gamma=0.0))
        y1 = [0.2 - 0.1j, 0.4 + 0.3j]
        d1 = bright_rhs(cfg)(0.3, y1)
        d2 = bright_rhs(cfg)(0.3, [2 * v for v in y1])
        assert d2[0] == pytest.approx(2 * d1[0], rel=1e-12)
        assert d2[1] == pytest.approx(2 * d1[1], rel=1e-12)


class TestTwoWellRhs:
    def test_symmetric_collective_reduces_to_identical(self):
        cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.1)
        a, b0 = 0.1 + 0.05j, 0.3 - 0.2j
        d_id = bright_rhs(cfg)(0.7, [a, b0])
        d_tw = collective_rhs(cfg)(0.7, [a, b0, 0j])
        assert d_tw[2] == 0
        assert d_tw[0] == pytest.approx(d_id[0], rel=1e-12)
        assert d_tw[1] == pytest.approx(d_id[1], rel=1e-12)

    def test_exchange_symmetry(self):
        cfg = standard_config(u_over_gamma=0.5, f0_over_kappa=0.1)
        d = local_rhs(cfg)(0.5, [0.1j, 0.2 + 0.1j, 0.2 + 0.1j])
        assert d[1] == d[2]

    def test_local_collective_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            cfg = standard_config(
                u_over_gamma=rng.uniform(0.0, 2.0),
                f0_over_kappa=rng.uniform(0.0, 0.4),
                gamma2=rng.uniform(0.2, 1.5),
                omega2=40.0 + rng.uniform(-3.0, 3.0),
            )
            a = complex(*rng.normal(0, 0.3, 2))
            local = rng.normal(0, 0.3, 2) + 1j * rng.normal(0, 0.3, 2)
            t = rng.uniform(0.0, 2.0)
            d_loc = local_rhs(cfg)(t, [a, *local])
            d_coll = collective_rhs(cfg)(t, [a, *pair_modes(local)])
            expect = pair_modes(d_loc[1:])
            assert d_loc[0] == pytest.approx(d_coll[0], abs=1e-12)
            assert np.allclose(expect, np.array(d_coll[1:]), atol=1e-10)

    def test_rejects_wrong_well_count(self):
        # the dark mode (b1 - b2)/sqrt(2) exists only for a pair of wells
        cfg = set_config_value(standard_config(n_wells=3), "dipoles[2].gamma", 0.9)
        traj = integrate(cfg, (0.0, 2.0), dt=0.004)
        with pytest.raises(ValidationError):
            traj.dark()
        with pytest.raises(ValidationError):
            integrate(standard_config(n_wells=1), (0.0, 2.0), dt=0.004).dark()


class TestIntegrate:
    def test_zero_drive_stays_in_vacuum(self):
        cfg = undriven(standard_config())
        traj = integrate(cfg, (0.0, 3.0))
        assert np.abs(traj.a).max() == 0.0
        assert np.abs(traj.modes).max() == 0.0

    def test_harmonic_linearity_in_drive(self):
        # the 1e-10 bound checks the dynamics, so the solver error must sit
        # below it: integrate tighter than the production tolerances
        cfg = standard_config(u_over_gamma=0.0, f0_over_kappa=0.05)
        t_span = (0.0, 6.0)
        t1 = integrate(cfg, t_span, rtol=1e-12, atol=1e-15)
        t4 = integrate(
            set_config_value(cfg, "pulse.F0", 4 * cfg.pulse.amplitude), t_span,
            rtol=1e-12, atol=1e-15,
        )
        scale = np.abs(t4.a).max()
        assert np.abs(t4.a - 4 * t1.a).max() / scale < 1e-10
        assert np.abs(t4.modes - 4 * t1.modes).max() / scale < 1e-10

    def test_post_pulse_decay_is_purcell_exponential(self):
        # harmonic wells, bad cavity: |B0| after the pulse follows
        # A*exp(-gamma_tilde/2 * (t - t_off)) with gamma_tilde from the
        # Purcell formula
        cfg = standard_config(u_over_gamma=0.0, f0_over_kappa=0.05)
        gamma_tilde = effective_decay(cfg)
        t_off = 0.6 + 5 * 0.155
        traj = integrate(cfg, (0.0, t_off + 2.2 / gamma_tilde))
        sel = (traj.t >= t_off) & (traj.t <= t_off + 2.0 / gamma_tilde)
        amp = np.abs(traj.bright()[sel])
        tau = traj.t[sel] - t_off
        model = np.exp(-0.5 * gamma_tilde * tau)
        a_fit = float(amp @ model / (model @ model))
        residual = np.sqrt(np.mean((amp - a_fit * model) ** 2)) / amp.max()
        assert residual < 0.01

    def test_two_well_representations_agree(self):
        cfg = standard_config(u_over_gamma=0.5, f0_over_kappa=0.2, gamma2=0.9)
        t_span = (0.0, 6.0)
        loc = integrate(cfg, t_span)
        _, col = solve(collective_rhs(cfg), np.zeros(3), t_span, cfg)
        scale = np.abs(col[1:]).max()
        mapped = pair_modes(loc.modes)
        assert np.abs(mapped - col[1:]).max() / scale < 1e-8
        assert np.abs(loc.a - col[0]).max() / np.abs(col[0]).max() < 1e-8

    def test_dark_mode_stays_empty_for_identical_pair(self):
        cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.3)
        _, y = solve(local_rhs(cfg), np.zeros(3), (0.0, 6.0), cfg)
        assert np.abs((y[1] - y[2]) / np.sqrt(2.0)).max() < 1e-10

    def test_bright_mode_matches_per_well_solution(self):
        # identical wells: the bright mode alone carries the per-well dynamics,
        # b_n = B0/sqrt(N) for every n, at any N
        for n in (1, 2, 3):
            cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.3, n_wells=n)
            traj = integrate(cfg, (0.0, 4.0), rtol=1e-12, atol=1e-15)
            _, y = solve(local_rhs(cfg), np.zeros(1 + n), (0.0, 4.0), cfg, rtol=1e-12, atol=1e-15)
            scale = np.abs(traj.modes).max()
            assert np.abs(y[1:].sum(axis=0) / np.sqrt(n) - traj.bright()).max() / scale < 1e-8
            assert np.abs(y[0] - traj.a).max() / np.abs(traj.a).max() < 1e-8

    def test_undriven_state_relaxes_to_vacuum(self):
        cfg = undriven(standard_config())
        _, y = solve(bright_rhs(cfg), [0.1 + 0.2j, 0.3 - 0.1j], (0.0, 25.0), cfg)
        assert abs(y[0, -1]) < 1e-4
        assert abs(y[1, -1]) < 1e-4

    def test_lab_and_rotating_frames_give_same_lab_signal(self):
        cfg_rot = standard_config(u_over_gamma=1.0, f0_over_kappa=0.2)
        cfg_lab = set_config_value(cfg_rot, "frame", "lab")
        t_span = (0.0, 4.0)
        rot = integrate(cfg_rot, t_span, dt=0.002)
        lab = integrate(cfg_lab, t_span, dt=0.002)
        scale = np.abs(rot.lab_signal("bright")).max()
        diff = np.abs(rot.lab_signal("bright") - lab.lab_signal("bright")).max()
        assert diff / scale < 1e-6

    def test_span_must_cover_pulse(self):
        cfg = standard_config()
        with pytest.raises(ValidationError):
            integrate(cfg, (0.9, 3.0))

    def test_coarse_grid_rejected(self):
        cfg = standard_config()
        with pytest.raises(GridError):
            integrate(cfg, (0.0, 4.0), dt=0.05)

    def test_three_wells_reduce_to_merged_pair(self):
        # wells 2 and 3 identical: they move together as (b2 + b3)/sqrt(2), a
        # single well with sqrt(2) g and Kerr U/2 beside the distinct well 1
        cfg3 = set_config_value(
            set_config_value(standard_config(n_wells=3), "dipoles[0].gamma", 0.9),
            "dipoles[0].omega", 40.5,
        )
        d1, d2, _ = cfg3.dipoles
        merged = replace(d2, anharmonicity=d2.anharmonicity / 2, coupling=math.sqrt(2.0) * d2.coupling)
        cfg2 = replace(cfg3, dipoles=(d1, merged))
        t_span = (0.0, 6.0)
        three = integrate(cfg3, t_span, dt=0.004)
        two = integrate(cfg2, t_span, dt=0.004)
        assert three.per_well and three.modes.shape[0] == 3
        scale = np.abs(two.modes).max()
        assert np.abs(three.a - two.a).max() / np.abs(two.a).max() < 1e-8
        assert np.abs(three.modes[0] - two.modes[0]).max() / scale < 1e-8
        pair = (three.modes[1] + three.modes[2]) / math.sqrt(2.0)
        assert np.abs(pair - two.modes[1]).max() / scale < 1e-8


def solve_on(solver, cfg, t_span, **kw):
    """integrate, or evolve from the vacuum of a small two-well truncation."""
    if solver == "meanfield":
        return integrate(cfg, t_span, **kw)
    h = HilbertConfig(n_photon_max=2, nu_max=1, n_wells=2)
    return evolve(vacuum_state(h), t_span, cfg, h, **kw)


@pytest.fixture
def drive_calls(monkeypatch):
    """Times at which either solver evaluates the drive, i.e. calls its RHS."""
    calls = []

    def drive(t, pulse, frame):
        calls.append(t)
        return drive_amplitude(t, pulse, frame)

    monkeypatch.setattr(meanfield, "drive_amplitude", drive)
    monkeypatch.setattr(lindblad, "drive_amplitude", drive)
    return calls


@pytest.mark.parametrize("solver", ["meanfield", "lindblad"])
class TestSolverInputs:
    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf, 2.5],
                             ids=["zero", "negative", "nan", "inf", "longer_than_span"])
    def test_unusable_dt_is_grid_error(self, solver, dt, drive_calls):
        with pytest.raises(GridError, match=r"time step .* must be > 0 and at most the span 2\.0"):
            solve_on(solver, standard_config(), (0.0, 2.0), dt=dt)
        assert drive_calls == []

    @pytest.mark.parametrize("t_span", [(0.0, math.inf), (-math.inf, 2.0), (0.0, math.nan)],
                             ids=["inf_end", "inf_start", "nan_end"])
    def test_unbounded_span_is_grid_error(self, solver, t_span, drive_calls):
        with pytest.raises(GridError, match="is empty or unbounded"):
            solve_on(solver, standard_config(), t_span)
        assert drive_calls == []

    def test_unresolved_dt_is_grid_error_before_solving(self, solver, drive_calls):
        cfg = standard_config()
        with pytest.raises(GridError, match=r"grid spacing 1\.000e-02 does not resolve"):
            solve_on(solver, cfg, fid_time_span(cfg), dt=0.01)
        assert drive_calls == []

    @pytest.mark.parametrize("tol, match", [
        ({"atol": [1e-12, 1e-7]}, "must be scalars"),
        ({"rtol": np.full(2, 1e-9)}, "must be scalars"),
        ({"rtol": math.nan}, "must be >= 0, got nan and 1e-12"),
        ({"atol": math.nan}, "must be >= 0, got 1e-09 and nan"),
        ({"atol": -1e-12}, "must be >= 0, got 1e-09 and -1e-12"),
    ], ids=["array_atol", "array_rtol", "nan_rtol", "nan_atol", "negative_atol"])
    def test_unusable_tolerance_is_validation_error(self, solver, tol, match, drive_calls):
        with pytest.raises(ValidationError, match="rtol and atol " + match):
            solve_on(solver, standard_config(), (0.0, 2.0), **tol)
        assert drive_calls == []

    @pytest.mark.parametrize("defect, error, match", [
        ("reversed", GridError, "strictly increasing"),
        ("uneven", GridError, "must be uniform"),
        ("nan_sample", ValidationError, "non-finite samples"),
    ], ids=["reversed", "uneven", "nan_sample"])
    def test_result_record_is_checked(self, solver, defect, error, match):
        # both result types are the one CoherenceSeries record, checked alike
        res = solve_on(solver, standard_config(f0_over_kappa=0.05), (0.0, 2.0), dt=0.004)
        t, a = res.t.copy(), res.a.copy()
        if defect == "reversed":
            t = t[::-1]
        elif defect == "uneven":
            t[-1] += 0.5 * res.dt
        else:
            a[-1] = math.nan
        with pytest.raises(error, match=match):
            replace(res, t=t, a=a)
        with pytest.raises(ValidationError, match="unknown source 'sideways'"):
            res.signal("sideways")


@pytest.mark.parametrize("entry", ["integrate", "integrate_batch", "evolve"])
def test_rtol_floor_warning_names_the_calling_line(entry):
    cfg = standard_config()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if entry == "integrate":
            integrate(cfg, (0.0, 1.5), rtol=1e-15)
        elif entry == "integrate_batch":
            dict(integrate_batch([(cfg, (0.0, 1.5), None)] * 2, rtol=1e-15))
        else:  # once per run, not once per chunk
            h = HilbertConfig(n_photon_max=1, nu_max=1, n_wells=2)
            evolve(vacuum_state(h), (0.0, 0.01), cfg, h, rtol=1e-15, dt=0.001)
    assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]
    assert "rtol" in str(caught[0].message)


def test_array_tolerance_fails_a_lane_batch():
    requests = [(standard_config(f0_over_kappa=0.1 * (i + 1)), (0.0, 2.0), None) for i in range(5)]
    with pytest.raises(ValidationError, match="rtol and atol must be scalars"):
        dict(integrate_batch(requests, atol=[1e-12, 1e-7]))


def scipy_run(cfg, t_span, dt=None, **kw):
    """solve_ivp RK45 on integrate's own model, start and output grid."""
    modes = _modes(cfg, not cfg.is_homogeneous)
    grid = uniform_grid(t_span, dt if dt is not None else default_dt(cfg))
    return solve_ivp_rk45(_rhs([(cfg, modes)]), np.zeros(1 + len(modes)), grid,
                          dense_output=True, **kw)


PARITY_MAX = 3  # components up to which integrate keeps every bit of solve_ivp


def assert_close_to_solve_ivp(traj, ref):
    """Above PARITY_MAX components scipy's np.dot blocks its stage sums, which
    the lanes sum in stage order: the same grid and accepted steps, and
    every sample within 1e-14 of its series' peak."""
    got = np.vstack([traj.a, traj.modes])
    assert len(got) > PARITY_MAX
    assert traj.t.tobytes() == ref.t.tobytes()
    assert traj.stats["n_steps"] == len(ref.sol.ts) - 1
    assert np.all(np.abs(got - ref.y).max(axis=1) <= 1e-14 * np.abs(ref.y).max(axis=1))


def three_wells():
    cfg = standard_config(n_wells=3, gamma2=0.9)
    return set_config_value(cfg, "dipoles[2].omega", 39.7)


@pytest.mark.bitexact
class TestRK45Copies:
    """The tableau and helpers meanfield copies from scipy 1.17.1 keep its bits."""

    def test_tableau_and_step_constants(self):
        for name in ("A", "B", "C", "E", "P"):
            ours, theirs = getattr(meanfield.RK45, name), getattr(RK45, name)
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name
        assert meanfield.RK45.error_estimator_order == RK45.error_estimator_order
        assert meanfield.RK45.n_stages == RK45.n_stages
        assert meanfield.RK45.TOO_SMALL_STEP == RK45.TOO_SMALL_STEP
        for name in ("SAFETY", "MIN_FACTOR", "MAX_FACTOR"):
            assert getattr(meanfield, name) == getattr(scipy_rk, name), name

    @pytest.mark.parametrize("n", [2, 5, 3321])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_select_initial_step_and_norm(self, n, dtype):
        rng = np.random.default_rng(n)

        def draw(scale=1.0):
            x = scale * rng.standard_normal(n)
            return x + 1j * scale * rng.standard_normal(n) if dtype is complex else x

        y0, f0, m = draw(), draw(40.0), draw(0.3)

        def fun(t, y):
            return m * y + np.cos(t)

        for rtol, atol in ((1e-9, 1e-12), (1e-3, 1e-6)):
            # the copy runs forward at order 4 without a max_step: scipy's defaults
            ours = meanfield.select_initial_step(fun, 0.25, y0, 2.0, f0, rtol, atol)
            theirs = scipy_common.select_initial_step(fun, 0.25, y0, 2.0, np.inf, f0, 1.0, 4,
                                                      rtol, atol)
            assert ours == theirs and type(ours) is type(theirs)
        x = draw() / (1e-12 + np.abs(y0) * 1e-9)
        assert meanfield.norm(x) == scipy_common.norm(x)


@pytest.mark.bitexact
class TestStepperMatchesSolveIvp:
    """integrate steps RK45 itself; nfev, and up to PARITY_MAX components
    every sample, equal solve_ivp's."""

    @pytest.mark.parametrize("cfg, t_span, kw", [
        (standard_config(f0_over_kappa=0.5), fid_time_span(standard_config()), {}),
        (standard_config(gamma2=1.2), (0.0, 6.0), {}),
        (standard_config(omega2=40.5), (0.0, 6.0), {}),
        (three_wells(), (0.0, 6.0), {}),
        (standard_config(frame=Frame.LAB), (0.0, 1.5), {}),
        (standard_config(), (0.0, 2.0), {"dt": 1e-4}),
    ], ids=["identical", "gamma2", "omega2", "three_wells", "lab", "dt1e-4"])
    def test_samples_and_nfev_bit_identical(self, cfg, t_span, kw):
        ref = scipy_run(cfg, t_span, **kw)
        traj = integrate(cfg, t_span, **kw)
        assert ref.success
        assert np.array_equal(traj.t, ref.t)
        if traj.modes.shape[0] + 1 > PARITY_MAX:  # three_wells
            assert_close_to_solve_ivp(traj, ref)
        else:
            assert np.array_equal(traj.a, ref.y[0])
            assert np.array_equal(traj.modes, ref.y[1:])
        assert traj.stats["nfev"] == ref.nfev

    def test_clamped_rtol_warns_and_matches(self):
        cfg = standard_config()
        with pytest.warns(UserWarning, match="rtol") as scipy_warning:
            ref = scipy_run(cfg, (0.0, 1.5), rtol=1e-15)
        with pytest.warns(UserWarning, match="rtol") as own_warning:
            traj = integrate(cfg, (0.0, 1.5), rtol=1e-15)
        assert str(own_warning[0].message) == str(scipy_warning[0].message)
        assert np.array_equal(traj.a, ref.y[0]) and np.array_equal(traj.modes, ref.y[1:])
        assert traj.stats["nfev"] == ref.nfev

    def test_step_count_is_hand_stepped_rk45(self):
        cfg = standard_config(gamma2=1.2)
        modes = _modes(cfg, per_well=True)
        rhs = _rhs([(cfg, modes)])
        grid = uniform_grid((0.0, 6.0), default_dt(cfg))
        solver = RK45(lambda t, y: np.asarray(rhs(t, y), dtype=complex), grid[0],
                      np.zeros(1 + len(modes), dtype=complex), grid[-1],
                      rtol=meanfield.RTOL_DEFAULT, atol=meanfield.ATOL_DEFAULT)
        n_steps = 0
        while solver.status == "running":
            solver.step()
            n_steps += 1
        stats = integrate(cfg, (0.0, 6.0)).stats
        assert stats["n_steps"] == n_steps
        assert stats["nfev"] == solver.nfev == 2 + 6 * (n_steps + stats["n_rejected"])

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_drive_raises_solver_error(self, monkeypatch):
        calls = []

        def nan_drive(t, pulse, frame):
            calls.append(t)
            return math.nan

        monkeypatch.setattr(meanfield, "drive_amplitude", nan_drive)
        with pytest.raises(SolverError, match=r"at t = 0\.0: error norm nan for config "
                                              r"cavity\.omega_c = 40\.0; .*; frame = rotating$"):
            integrate(standard_config(), (0.0, 2.0))
        # f(t0) and select_initial_step's probe, then the six stages of the first attempt
        assert len(calls) == 2 + 6


def lane_requests():
    """(cfg, t_span, dt) of a mixed lane batch: every stepper case above, then
    the U = 0 baselines of the identical pair, the two spreads and the three wells."""
    pair = standard_config(f0_over_kappa=0.5)
    runs = [
        (pair, fid_time_span(pair), None),
        (standard_config(gamma2=1.2), (0.0, 6.0), None),
        (standard_config(omega2=40.5), (0.0, 6.0), None),
        (standard_config(frame=Frame.LAB), (0.0, 1.5), None),
        (standard_config(), (0.0, 2.0), 1e-4),
        (three_wells(), (0.0, 6.0), None),
    ]
    return runs + [(baseline_config(runs[i][0]), *runs[i][1:]) for i in (0, 1, 2, 5)]


def solve_batch(requests):
    """integrate_batch's trajectories in request order."""
    out = dict(integrate_batch(requests))
    return [out[i] for i in range(len(requests))]


def trajectory_bytes(traj):
    return traj.t.tobytes(), traj.a.tobytes(), traj.modes.tobytes(), traj.stats


@pytest.mark.bitexact
class TestLaneBatch:
    """Lanes stepped together keep every bit of their one-lane solves, and
    up to PARITY_MAX components every bit of solve_ivp's."""

    @pytest.fixture(scope="class")
    def batch(self):
        return solve_batch(lane_requests())

    def test_batch_mixes_component_counts_and_rejections(self, batch):
        assert sorted({traj.modes.shape[0] for traj in batch}) == [1, 2, 3]
        assert len(batch) == 10 and any(traj.stats["n_rejected"] for traj in batch)

    @pytest.mark.parametrize("i", range(10))
    def test_lane_bytes_equal_solve_ivp_and_integrate(self, batch, i):
        cfg, t_span, dt = lane_requests()[i]
        ref = scipy_run(cfg, t_span, dt=dt)
        assert ref.success
        if batch[i].modes.shape[0] + 1 > PARITY_MAX:  # the three wells and their baseline
            assert_close_to_solve_ivp(batch[i], ref)
        else:
            assert (batch[i].t.tobytes(), batch[i].a.tobytes(), batch[i].modes.tobytes()) == (
                ref.t.tobytes(), ref.y[0].tobytes(), ref.y[1:].tobytes())
        assert batch[i].stats["nfev"] == ref.nfev
        assert trajectory_bytes(batch[i]) == trajectory_bytes(integrate(cfg, t_span, dt=dt))

    def test_independent_of_batch_order_and_composition(self, batch):
        requests = lane_requests()
        want = [trajectory_bytes(traj) for traj in batch]
        reordered = solve_batch(requests[::-1])[::-1]
        assert [trajectory_bytes(traj) for traj in reordered] == want
        for part in (requests[::2], requests[1::2], requests[3:7]):
            got = solve_batch(part)
            assert [trajectory_bytes(traj) for traj in got] == [
                want[requests.index(r)] for r in part]

    def test_lanes_leaving_alone_and_in_groups(self):
        # four lanes end together, leaving one; then lanes end one by one
        # while at least LANES_MIN stay stepping together
        short = [(standard_config(f0_over_kappa=0.2), (0.0, 1.5), None)] * 4
        long = [(standard_config(f0_over_kappa=0.05 * (i + 1)), (0.0, 1.5 + 0.25 * i), None)
                for i in range(1, meanfield.LANES_MIN + 3)]
        for requests in (short + long[-1:], short + long):
            got = [trajectory_bytes(traj) for traj in solve_batch(requests)]
            assert got == [trajectory_bytes(integrate(cfg, span)) for cfg, span, _ in requests]

    def test_lanes_leaving_one_by_one_do_not_nest_generators(self):
        # each finish hands the others to _advance's own loop, so a batch
        # far larger than the stack depth left still runs
        requests = [(standard_config(f0_over_kappa=0.01 * (i + 1)), (0.0, 1.5 + 0.05 * i), None)
                    for i in range(80)]
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            out = dict(integrate_batch(requests))
        finally:
            sys.setrecursionlimit(limit)
        assert sorted(out) == list(range(len(requests)))

    def test_four_component_lanes_equal_alone_and_take_solve_ivp_steps(self):
        # two lanes end together, then one at a time: the others step on as
        # lane arrays until fewer than LANES_MIN go on alone
        requests = [(set_config_value(three_wells(), "pulse.F0", 1.2 * (i + 1)),
                     (0.0, 3.0 + 0.5 * max(i - 1, 0)), None)
                    for i in range(meanfield.LANES_MIN + 3)]
        batch = solve_batch(requests)
        assert {traj.modes.shape[0] + 1 for traj in batch} == {4}
        got = [trajectory_bytes(traj) for traj in batch]
        assert got == [trajectory_bytes(integrate(cfg, span)) for cfg, span, _ in requests]
        ref = scipy_run(*requests[-1][:2])
        assert_close_to_solve_ivp(batch[-1], ref)
        assert batch[-1].stats["nfev"] == ref.nfev

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_lane_fails_the_batch_within_its_first_step(self, monkeypatch):
        good = [standard_config(f0_over_kappa=0.1 * (i + 1)) for i in range(meanfield.LANES_MIN)]
        bad = standard_config(f0_over_kappa=0.45)
        calls = {cfg.pulse: 0 for cfg in good + [bad]}

        def drive(t, pulse, frame):
            calls[pulse] += 1
            return math.nan if pulse == bad.pulse else drive_amplitude(t, pulse, frame)

        monkeypatch.setattr(meanfield, "drive_amplitude", drive)
        named = re.escape(f"pulse.F0 = {bad.pulse.amplitude!r};")
        with pytest.raises(SolverError, match="error norm nan for config .*" + named):
            solve_batch([(cfg, (0.0, 2.0), None) for cfg in good + [bad]])
        # f(t0) and select_initial_step's probe, then the six stages of the
        # one attempt every lane of the batch made
        assert set(calls.values()) == {2 + 6}


class TestPostPulseOracle:
    ORACLE = PostPulseOracle(B_off=1.0, phi_off=0.2, t_off=1.0, gamma_tilde=14.0 / 15.0, U=0.6, N=2)

    def test_initial_condition(self):
        value = post_pulse_analytic(self.ORACLE, 1.0)
        assert value == pytest.approx(1.0 * np.exp(0.2j), rel=1e-12)

    def test_harmonic_phase_is_constant(self):
        oracle = PostPulseOracle(B_off=0.5, phi_off=0.2, t_off=1.0, gamma_tilde=1.0, U=0.0, N=2)
        t = np.linspace(1.0, 8.0, 15)
        assert np.allclose(np.angle(post_pulse_analytic(oracle, t)), 0.2)

    def test_stationary_phase_value(self):
        # 2*0.6*1/(2*0.9333...) = 0.642857...
        assert stationary_phase(self.ORACLE) == pytest.approx(0.6428571428571429, rel=1e-12)

    def test_stationary_phase_scalings(self):
        assert stationary_phase(
            PostPulseOracle(B_off=1.0, phi_off=0.0, t_off=0.0, gamma_tilde=1.0, U=0.0, N=2)
        ) == 0.0
        quad = stationary_phase(
            PostPulseOracle(B_off=1.0, phi_off=0.0, t_off=0.0, gamma_tilde=1.0, U=0.6, N=4)
        )
        assert quad == pytest.approx(0.5 * stationary_phase(
            PostPulseOracle(B_off=1.0, phi_off=0.0, t_off=0.0, gamma_tilde=1.0, U=0.6, N=2)
        ))

    def test_long_time_limit_is_stationary_phase(self):
        value = post_pulse_analytic(self.ORACLE, 1.0 + 40.0 / self.ORACLE.gamma_tilde)
        assert np.angle(value) == pytest.approx(0.2 + stationary_phase(self.ORACLE), abs=1e-9)

    @pytest.mark.parametrize("field, value, match", [
        ("B_off", -0.1, "B_off must be >= 0"), ("gamma_tilde", 0.0, "gamma_tilde must be > 0"),
    ], ids=["negative_B_off", "zero_gamma_tilde"])
    def test_unphysical_inputs_rejected(self, field, value, match):
        with pytest.raises(ValidationError, match=match):
            replace(self.ORACLE, **{field: value})

    @pytest.mark.parametrize("gamma2, t_off, match", [
        (0.9, 1.5, "applies to identical wells"), (None, 2.5, "t_off 2.5 outside trajectory range"),
    ], ids=["inhomogeneous", "t_off_past_the_end"])
    def test_oracle_from_trajectory_refuses(self, gamma2, t_off, match):
        traj = integrate(standard_config(gamma2=gamma2), (0.0, 2.0), dt=0.004)
        with pytest.raises(ValidationError, match=match):
            oracle_from_trajectory(traj, t_off)

    def test_requires_post_pulse_times(self):
        with pytest.raises(ValidationError):
            post_pulse_analytic(self.ORACLE, 0.5)

    def test_numerical_solution_matches_oracle(self):
        # strongest in-scope drive, window starting after the fast cavity
        # transient has died out
        cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.2)
        gamma_tilde = effective_decay(cfg)
        t_off = 0.6 + 5 * 0.155
        traj = integrate(cfg, (0.0, t_off + 3.3 / gamma_tilde), dt=0.002)
        oracle = oracle_from_trajectory(traj, t_off)
        sel = (traj.t >= t_off) & (traj.t <= t_off + 3.0 / gamma_tilde)
        predicted = post_pulse_analytic(oracle, traj.t[sel])
        numeric = traj.bright()[sel]
        amp_err = np.abs(np.abs(numeric) - np.abs(predicted)) / np.abs(predicted)
        i0 = np.flatnonzero(sel)[0]
        phase_num = np.unwrap(np.angle(traj.bright()))[i0 : i0 + sel.sum()]
        phase_err = np.abs(phase_num - np.unwrap(np.angle(predicted)))
        assert amp_err.max() < 0.05
        assert phase_err.max() < 0.05

    def test_lab_frame_trajectory_gives_the_rotating_frame_oracle(self):
        # the oracle reads the phase in the frame rotating at the carrier whatever
        # frame the run was integrated in; the two runs differ by solver error
        # only (5.0e-9 relative in B_off, 6.8e-10 in phi_off, measured)
        cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.2)
        t_off = 0.6 + 5 * 0.155
        span = (0.0, t_off + 3.3 / effective_decay(cfg))
        rot, lab = (oracle_from_trajectory(integrate(replace(cfg, frame=frame), span, dt=0.002), t_off)
                    for frame in (Frame.ROTATING, Frame.LAB))
        assert lab.B_off == pytest.approx(rot.B_off, rel=1e-7)
        assert lab.phi_off == pytest.approx(rot.phi_off, abs=1e-7)
        assert (lab.t_off, lab.gamma_tilde, lab.U, lab.N) == (rot.t_off, rot.gamma_tilde, rot.U, rot.N)


class TestTrajectoryExport:
    def test_csv_and_sidecar(self, tmp_path, base_config):
        traj = integrate(base_config, (0.0, 2.0), dt=0.004)
        csv_path = tmp_path / "traj.csv"
        traj.write_csv(csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "# frame: rotating"
        assert lines[3] == "t,re_a,im_a,re_B0,im_B0"
        assert len(lines) == 4 + len(traj.t)
        traj.write_sidecar(tmp_path / "traj.json")
        sidecar = json.loads((tmp_path / "traj.json").read_text())
        assert sidecar["config"]["pulse"]["F0"] == base_config.pulse.amplitude
        assert sidecar["frame"] == "rotating"

    def test_local_representation_columns(self, tmp_path):
        cfg = standard_config(gamma2=0.9)
        traj = integrate(cfg, (0.0, 2.0), dt=0.004)
        path = tmp_path / "tw.csv"
        traj.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[1:3] == ["# representation: local", "# model: per_well"]
        assert lines[3] == "t,re_a,im_a,re_b1,im_b1,re_b2,im_b2"
