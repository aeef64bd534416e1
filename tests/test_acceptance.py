"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line with the
measured quantities before asserting, so `pytest -s` (or the captured
output of a failing test) documents the whole scorecard.
"""

import functools
import math
import time

import numpy as np
import pytest

from qwcavity import (
    HilbertConfig,
    SpectralPolicy,
    baseline_config,
    effective_decay,
    evolve,
    fid_time_span,
    fid_window,
    fit_alpha,
    integrate,
    nonlinear_phase_shift,
    oracle_from_trajectory,
    post_pulse_analytic,
    relative_phase,
    set_config_value,
    stationary_phase,
    time_delay,
    vacuum_state,
)
from qwcavity.meanfield import ATOL_DEFAULT, RTOL_DEFAULT

from alpha_oracle import first_order_alpha
from conftest import standard_config

POLICY = SpectralPolicy()
# oracle comparisons start two extra pulse widths later so the fast cavity
# transient (decay rate ~kappa/2) has left the window
ORACLE_POLICY = SpectralPolicy(t_off_factor=5.0)
GAMMA = 0.6
KAPPA = 12.0
OMEGA0 = 40.0
F_GRID_ALPHA = tuple(float(r) for r in np.linspace(0.02, 0.2, 7))
F_GRID_LINDBLAD = (0.05, 0.2, 0.35, 0.5)
HILBERT = HilbertConfig(n_photon_max=8, nu_max=2, n_wells=2)
DT_COMPARE = 0.004  # shared grid for mean-field vs Lindblad comparisons

_mf_cache = {}
_lb_cache = {}


def mf_traj(cfg, dt=None):
    key = (cfg, dt)
    if key not in _mf_cache:
        _mf_cache[key] = integrate(cfg, fid_time_span(cfg, POLICY), dt=dt)
    return _mf_cache[key]


def lb_result(cfg):
    if cfg not in _lb_cache:
        _lb_cache[cfg] = evolve(
            vacuum_state(HILBERT), fid_time_span(cfg, POLICY), cfg, HILBERT, dt=DT_COMPARE
        )
    return _lb_cache[cfg]


def mf_dphi(cfg, source="cavity", dt=None):
    run = mf_traj(cfg, dt)
    base = mf_traj(baseline_config(cfg, POLICY), dt)
    return nonlinear_phase_shift(run, base, POLICY, source)


def lb_dphi(cfg):
    run = lb_result(cfg)
    base = lb_result(baseline_config(cfg, POLICY))
    return nonlinear_phase_shift(run, base, POLICY)


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def alpha_fit(ug):
    points = [
        (r, mf_dphi(standard_config(u_over_gamma=ug, f0_over_kappa=r))) for r in F_GRID_ALPHA
    ]
    return fit_alpha(points, standard_config(u_over_gamma=ug))


def alpha_oracle():
    """First-order-in-U alpha on the FID window the fits read (see alpha_oracle.py)."""
    cfg = standard_config(f0_over_kappa=F_GRID_ALPHA[-1])
    win = fid_window(mf_traj(cfg), policy=POLICY)
    return first_order_alpha(cfg, (float(win.t[0]), float(win.t[-1])))


def test_criterion_1_alpha_fit_reproduction():
    started = time.monotonic()
    fits = {ug: alpha_fit(ug) for ug in (0.1, 0.5)}
    elapsed = time.monotonic() - started
    oracle = alpha_oracle()

    failures = []
    for ug, fit in fits.items():
        if not 3.5 * 0.85 <= fit.alpha <= 3.5 * 1.15:
            failures.append(f"alpha(U/gamma={ug})={fit.alpha:.3f} outside 3.5+-15%")
        if not 1.9 <= fit.exponent <= 2.1:
            failures.append(f"exponent(U/gamma={ug})={fit.exponent:.3f} outside 2.0+-0.1")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    detail = (
        f"alpha={{0.1: {fits[0.1].alpha:.3f}, 0.5: {fits[0.5].alpha:.3f}}} (target 3.5+-15%), "
        f"exponent={{0.1: {fits[0.1].exponent:.3f}, 0.5: {fits[0.5].exponent:.3f}}} "
        f"(target 2.0+-0.1), first-order-in-U oracle alpha={oracle:.3f}, runtime {elapsed:.1f}s"
    )
    report(1, "alpha-fit reproduction", not failures, detail)
    assert not failures, failures


def test_criterion_1_alpha_matches_first_order_oracle():
    """fit_alpha computes the alpha its docstring defines, C*N*gamma_tilde/(2U).

    The oracle propagates the linear (a, B0) pair in closed form under the
    Gaussian drive and adds the Kerr term as a first-order source; it never
    calls the RK45 integrator. On the quadratic branch (exponent 2.000) the
    fitted alpha and the oracle must agree to 2% at both anharmonicities.
    """
    oracle = alpha_oracle()
    errors = {ug: alpha_fit(ug).alpha / oracle - 1.0 for ug in (0.1, 0.5)}
    ok = all(abs(e) < 0.02 for e in errors.values())
    report(
        "1b",
        "alpha vs first-order oracle",
        ok,
        f"oracle alpha={oracle:.4f}; fit/oracle - 1 = "
        + ", ".join(f"U/gamma={ug}: {e:+.2e}" for ug, e in errors.items())
        + " (< 2%)",
    )
    assert ok, errors


def test_criterion_2_anharmonicity_ordering():
    shift = {
        ug: mf_dphi(standard_config(u_over_gamma=ug, f0_over_kappa=0.2))
        for ug in (0.1, 0.5, 1.0)
    }
    harmonic_cfg = standard_config(u_over_gamma=0.0, f0_over_kappa=0.2)
    weak = integrate(
        set_config_value(harmonic_cfg, "pulse.F0", 0.01 * KAPPA),
        fid_time_span(harmonic_cfg, POLICY),
    )
    harm = nonlinear_phase_shift(mf_traj(harmonic_cfg), weak, POLICY)

    failures = []
    if not shift[0.1] < shift[0.5] < shift[1.0]:
        failures.append(f"ordering violated: {shift}")
    if not abs(harm) < 1e-3:
        failures.append(f"harmonic run |dphi|={abs(harm):.2e} >= 1e-3")
    detail = (
        f"dphi(U/gamma=0.1,0.5,1.0)=({shift[0.1]:.5f}, {shift[0.5]:.5f}, {shift[1.0]:.5f}) "
        f"strictly increasing; harmonic |dphi|={abs(harm):.2e}"
    )
    report(2, "anharmonicity ordering", not failures, detail)
    assert not failures, failures


PULSE_END = 0.6 + 2 * 0.155
# plateau read-off window, in units of 1/gamma_tilde after the pulse end
PLATEAU_WINDOW = (3.0, 6.0)


@functools.lru_cache(maxsize=None)
def _delay_summary(gamma, rtol=RTOL_DEFAULT, atol=ATOL_DEFAULT):
    """In-pulse max |delay| and post-pulse plateau of the strong-vs-weak delay.

    The plateau is the median |delay| over t - t_end_pulse in
    [3, 6]/gamma_tilde. post_pulse_analytic saturates the Kerr phase as
    1 - exp(-gamma_tilde*tau), so from 3/gamma_tilde on it sits within 5% of
    its stationary value, while the FID is still far above the extremum
    floor and the integrator's atol. A read-off where the trace dies would
    depend on amp_floor, on where the span ends and on atol instead.
    """
    cfg_s = standard_config(u_over_gamma=1.0, f0_over_kappa=0.2, gamma=gamma, gamma2=gamma)
    cfg_w = set_config_value(cfg_s, "pulse.F0", 0.01 * KAPPA)
    gamma_tilde = effective_decay(cfg_s)
    lo, hi = (PULSE_END + w / gamma_tilde for w in PLATEAU_WINDOW)
    t_end = max(fid_time_span(cfg_s, POLICY)[1], hi + 1.0 / gamma_tilde)
    strong = integrate(cfg_s, (0.0, t_end), dt=1e-4, rtol=rtol, atol=atol)
    weak = integrate(cfg_w, (0.0, t_end), dt=1e-4, rtol=rtol, atol=atol)
    series = time_delay(strong, weak)
    in_pulse = np.abs(series.delays[series.times <= PULSE_END])
    plateau = np.abs(series.delays[(series.times >= lo) & (series.times <= hi)])
    return float(in_pulse.max()), float(np.median(plateau))


def test_criterion_3_time_delay_persistence():
    started = time.monotonic()
    in_slow, plateau_slow = _delay_summary(0.6)
    in_fast, plateau_fast = _delay_summary(10.0)
    elapsed = time.monotonic() - started

    failures = []
    if not plateau_slow >= 0.5 * in_slow:
        failures.append(
            f"gamma=0.6 plateau {plateau_slow:.2e} < 50% of in-pulse max {in_slow:.2e}"
        )
    if not plateau_fast < 0.1 * in_fast:
        failures.append(
            f"gamma=10 plateau {plateau_fast:.2e} not below 10% of in-pulse max {in_fast:.2e}"
        )
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")

    def regime(gamma):
        cfg = standard_config(u_over_gamma=1.0, gamma=gamma, gamma2=gamma)
        u = cfg.dipoles[0].anharmonicity
        return f"U/gamma={u / gamma:.2f}, gamma_tilde={effective_decay(cfg):.3f}"

    detail = (
        f"plateau = median |delay| over [{PLATEAU_WINDOW[0]:g}, {PLATEAU_WINDOW[1]:g}]/gamma_tilde "
        f"after the pulse; gamma=0.6 ({regime(0.6)}): plateau/in-pulse = "
        f"{plateau_slow:.2e}/{in_slow:.2e} = {plateau_slow / in_slow:.2f} (need >= 0.5); "
        f"gamma=10 ({regime(10.0)}): {plateau_fast:.2e}/{in_fast:.2e} = "
        f"{plateau_fast / in_fast:.2f} (need < 0.1); runtime {elapsed:.1f}s"
    )
    report(3, "time-delay persistence", not failures, detail)
    assert not failures, failures


def test_criterion_3_plateau_converged_in_tolerances():
    """Criterion 3's plateau/in-pulse ratio moves < 5% when rtol and atol
    are both tightened 100x, so the number it is judged on is not integrator
    noise."""
    shifts = {}
    for gamma in (0.6, 10.0):
        in_d, plateau_d = _delay_summary(gamma)
        in_t, plateau_t = _delay_summary(gamma, RTOL_DEFAULT / 100, ATOL_DEFAULT / 100)
        shifts[gamma] = (plateau_t / in_t) / (plateau_d / in_d) - 1.0
    ok = all(abs(v) < 0.05 for v in shifts.values())
    report(
        "3b",
        "delay plateau tolerance convergence",
        ok,
        "plateau/in-pulse change at rtol, atol / 100: "
        + ", ".join(f"gamma={g}: {v:+.1e}" for g, v in shifts.items())
        + " (< 5%)",
    )
    assert ok, shifts


def test_criterion_4_analytic_oracle_agreement():
    cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.2)
    gamma_tilde = effective_decay(cfg)
    t_off = ORACLE_POLICY.resolve_t_off(cfg)
    traj = integrate(cfg, (0.0, t_off + 13.0 / gamma_tilde), dt=0.002)
    oracle = oracle_from_trajectory(traj, t_off)

    sel = (traj.t >= t_off) & (traj.t <= t_off + 3.0 / gamma_tilde)
    predicted = post_pulse_analytic(oracle, traj.t[sel])
    numeric = traj.bright()[sel]
    amp_err = float((np.abs(np.abs(numeric) - np.abs(predicted)) / np.abs(predicted)).max())
    i0 = int(np.flatnonzero(sel)[0])
    phase_num = np.unwrap(np.angle(traj.bright()))[i0 : i0 + int(sel.sum())]
    phase_err = float(np.abs(phase_num - np.unwrap(np.angle(predicted))).max())

    full_phase = np.unwrap(np.angle(traj.bright()))
    accumulated = float(full_phase[-1] - np.interp(t_off, traj.t, full_phase))
    target = stationary_phase(oracle)
    ss_err = abs(accumulated / target - 1.0)

    failures = []
    if amp_err >= 0.05:
        failures.append(f"amplitude error {amp_err:.3f} >= 5%")
    if phase_err >= 0.05:
        failures.append(f"phase error {phase_err:.3f} >= 0.05 rad")
    if ss_err >= 0.10:
        failures.append(f"stationary-phase mismatch {ss_err:.3f} >= 10%")
    detail = (
        f"window t_off=t0+5T: max amp err {amp_err * 100:.2f}% (<5%), max phase err "
        f"{phase_err:.4f} rad (<0.05), accumulated phase {accumulated:.5f} vs "
        f"2UB^2/(N*gamma_tilde)={target:.5f} ({ss_err * 100:.1f}%, <10%)"
    )
    report(4, "analytic oracle agreement", not failures, detail)
    assert not failures, failures


def test_criterion_5_dipole_cavity_phase_equivalence():
    worst = 0.0
    for ug in (0.1, 0.5, 1.0):
        for r in F_GRID_ALPHA:
            cfg = standard_config(u_over_gamma=ug, f0_over_kappa=r)
            d_cav = mf_dphi(cfg, "cavity")
            d_dip = mf_dphi(cfg, "bright")
            worst = max(worst, abs(d_cav - d_dip))
    ok = worst < 0.01
    report(
        5,
        "dipole-cavity phase equivalence",
        ok,
        f"max |dphi_cavity - dphi_dipole| = {worst:.5f} rad over the drive sweep (< 0.01)",
    )
    assert ok, worst


def test_criterion_6_lindblad_validation():
    ratios = {}
    for r in F_GRID_LINDBLAD:
        cfg = standard_config(u_over_gamma=0.5, f0_over_kappa=r)
        ratios[r] = mf_dphi(cfg, dt=DT_COMPARE) / lb_dphi(cfg)

    cfg_weak = standard_config(u_over_gamma=0.5, f0_over_kappa=0.05)
    lb = lb_result(cfg_weak)
    mf = mf_traj(cfg_weak, dt=DT_COMPARE)
    l2 = float(np.linalg.norm(lb.a - mf.a) / np.linalg.norm(lb.a))

    failures = []
    for r, ratio in ratios.items():
        if not 0.5 <= ratio <= 2.0:
            failures.append(f"F0/kappa={r}: mean-field/Lindblad ratio {ratio:.2f} outside [0.5, 2]")
    if l2 >= 0.05:
        failures.append(f"weak-drive <a(t)> relative L2 error {l2:.4f} >= 5%")
    detail = (
        "mf/Lindblad dphi ratios "
        + ", ".join(f"{r}: {v:.2f}" for r, v in ratios.items())
        + f" (all within factor 2); weak-drive (F0=0.05k) <a(t)> L2 error {l2:.2e} (< 5%), "
        f"dphi ratio there {ratios[0.05]:.2f}"
    )
    report(6, "Lindblad validation", not failures, detail)
    assert not failures, failures


def test_criterion_7_blockade_regime():
    blocked = {}
    for r in (0.2, 0.3, 0.35):
        blocked[r] = lb_dphi(standard_config(u_over_gamma=2.0, f0_over_kappa=r))
    rising = {}
    for r in (0.45, 0.5):
        rising[r] = lb_dphi(standard_config(u_over_gamma=2.0, f0_over_kappa=r))

    p2_max = {}
    for ug in (0.5, 1.0, 2.0):
        res = lb_result(standard_config(u_over_gamma=ug, f0_over_kappa=0.3))
        p2_max[ug] = float(res.second_level_population().max())

    failures = []
    for r, v in blocked.items():
        if not abs(v) < 0.01:
            failures.append(f"blockade broken: |dphi({r})| = {abs(v):.4f} >= 0.01")
    if not (rising[0.45] > blocked[0.35] and rising[0.5] > rising[0.45]):
        failures.append(f"no growth past the blockade threshold: {blocked[0.35]:.4f}, {rising}")
    if not p2_max[0.5] > p2_max[1.0] > p2_max[2.0]:
        failures.append(f"P2 not strictly decreasing in U: {p2_max}")
    detail = (
        f"U=2gamma: dphi(0.2,0.3,0.35)=({blocked[0.2]:.4f}, {blocked[0.3]:.4f}, "
        f"{blocked[0.35]:.4f}) all < 0.01; dphi(0.45,0.5)=({rising[0.45]:.4f}, "
        f"{rising[0.5]:.4f}) rising; max P2 at F0=0.3k: "
        + ", ".join(f"U/gamma={u}: {p:.2e}" for u, p in p2_max.items())
    )
    report(7, "blockade regime", not failures, detail)
    assert not failures, failures


def test_criterion_8_inhomogeneity_trends():
    """Orderings under d_gamma and small d_omega, and the large-d_omega limit.

    At d_omega/omega0 = 0.12 (omega2 = 49.6) well 2 sits 9.6 rad/ps off
    resonance, about 10 gamma_tilde: it is barely excited, its Kerr term
    drops out, and its linear dispersive pull is shared with the harmonic
    baseline and cancels in dPhi. The pair then reduces to the cavity plus
    one resonant well with g1 = 1/sqrt(2): the `identical` model with
    N = 1, g = g1 and the same U and gamma, integrated separately here.

    That limit is not the homogeneous value. Per well the Kerr shift is the
    same in both, 2U|b|^2 = (2U/N)|B|^2 with B = sqrt(N) b, but the pair
    radiates through the cavity faster: gamma_tilde = gamma + 4 N g^2/kappa
    is 0.933 for the pair against gamma + 4 g1^2/kappa = 0.767 for the lone
    well. The stationary phase 2U|b_off|^2/gamma_tilde per well is
    therefore 1.22x larger for the lone well at equal b_off, and 1.26x with
    the measured b_off (oracle_from_trajectory at t0 + 3T); dPhi(omega0)
    comes out 1.67x the homogeneous value for every d_omega/omega0 from
    0.12 to 0.5. So the large-detuning point is compared with the lone-well
    limit, at the same 10% tolerance the homogeneous comparison had.
    """
    f_grid = (0.05, 0.1625, 0.275, 0.3875, 0.5)
    cases = {
        "hom": {},
        "gm": {"gamma2": 0.5 * GAMMA},   # d_gamma < 0
        "gp": {"gamma2": 1.5 * GAMMA},   # d_gamma > 0
        "w2": {"omega2": OMEGA0 + 2 * 0.02 * OMEGA0},
        "w12": {"omega2": OMEGA0 + 2 * 0.12 * OMEGA0},
    }
    shift = {
        name: {
            r: mf_dphi(standard_config(u_over_gamma=0.5, f0_over_kappa=r, **kw))
            for r in f_grid
        }
        for name, kw in cases.items()
    }

    failures = []
    for r in f_grid:
        if not shift["gm"][r] > shift["hom"][r]:
            failures.append(f"d_gamma<0 not enhancing at F0/kappa={r}")
        if not shift["gp"][r] < shift["hom"][r]:
            failures.append(f"d_gamma>0 not reducing at F0/kappa={r}")
        if not shift["w2"][r] > shift["hom"][r]:
            failures.append(f"small detuning not enhancing at F0/kappa={r}")
    g1 = standard_config().dipoles[0].coupling
    lone = {
        r: mf_dphi(
            set_config_value(
                standard_config(u_over_gamma=0.5, f0_over_kappa=r, n_wells=1), "dipoles[0].g", g1
            )
        )
        for r in f_grid
    }
    to_lone = {r: abs(shift["w12"][r] / lone[r] - 1.0) for r in f_grid}
    worst_lone = max(to_lone.values())
    if worst_lone >= 0.10:
        failures.append(
            f"large detuning |dphi/lone-well - 1| up to {worst_lone:.2f} >= 10%"
        )
    to_hom = {r: shift["w12"][r] / shift["hom"][r] for r in f_grid}
    mid = f_grid[2]
    detail = (
        f"at F0/kappa={mid}: hom={shift['hom'][mid]:.5f}, dgamma<0 {shift['gm'][mid]:.5f}, "
        f"dgamma>0 {shift['gp'][mid]:.5f}, d_omega=2% {shift['w2'][mid]:.5f} (orderings hold "
        f"at every drive); d_omega=12% {shift['w12'][mid]:.5f} vs lone-well limit "
        f"{lone[mid]:.5f}: deviation up to {worst_lone * 100:.1f}% (need < 10%); "
        f"vs homogeneous: ratio {min(to_hom.values()):.3f}-{max(to_hom.values()):.3f}"
    )
    report(8, "inhomogeneity trends", not failures, detail)
    assert not failures, failures


def test_criterion_9_quantum_state_hygiene():
    failures = []
    if not _lb_cache:  # standalone invocation: sample one standard evolution
        lb_result(standard_config(u_over_gamma=0.5, f0_over_kappa=0.3))
    # hygiene across every Lindblad evolution run in this session
    worst = {"max_trace_dev": 0.0, "max_herm_dev": 0.0, "min_eigenvalue": 0.0}
    for res in _lb_cache.values():
        worst["max_trace_dev"] = max(worst["max_trace_dev"], res.diagnostics["max_trace_dev"])
        worst["max_herm_dev"] = max(worst["max_herm_dev"], res.diagnostics["max_herm_dev"])
        worst["min_eigenvalue"] = min(worst["min_eigenvalue"], res.diagnostics["min_eigenvalue"])
    if worst["max_trace_dev"] >= 1e-8:
        failures.append(f"trace deviation {worst['max_trace_dev']:.2e} >= 1e-8")
    if worst["max_herm_dev"] >= 1e-10:
        failures.append(f"hermiticity deviation {worst['max_herm_dev']:.2e} >= 1e-10")
    if worst["min_eigenvalue"] <= -1e-8:
        failures.append(f"eigenvalue {worst['min_eigenvalue']:.2e} <= -1e-8")

    # empty-cavity single-photon decay against exp(-kappa t)
    h = HilbertConfig(n_photon_max=2, nu_max=1, n_wells=1)
    cfg = standard_config(n_wells=1)
    cfg = set_config_value(cfg, "dipoles[0].g", 0.0)
    cfg = set_config_value(cfg, "pulse.F0", 0.0)
    rho = np.zeros((h.dim, h.dim), dtype=complex)
    rho[2, 2] = 1.0  # |1_ph, 0>
    res = evolve(rho, (0.0, 1.2), cfg, h, dt=0.002)
    decay_err = float(np.abs(res.exp_n - np.exp(-KAPPA * res.t)).max())
    if decay_err >= 1e-6:
        failures.append(f"photon decay error {decay_err:.2e} >= 1e-6")

    # quasi-steady weak drive: kappa <n> = 4 F0^2 / kappa
    h_flux = HilbertConfig(n_photon_max=3, nu_max=1, n_wells=1)
    cfg_flux = standard_config(n_wells=1, f0_over_kappa=0.05)
    cfg_flux = set_config_value(cfg_flux, "dipoles[0].g", 0.0)
    cfg_flux = set_config_value(cfg_flux, "pulse.t0", 40.0)
    cfg_flux = set_config_value(cfg_flux, "pulse.T", 25.0)
    res_flux = evolve(vacuum_state(h_flux), (0.0, 40.0), cfg_flux, h_flux, dt=0.004)
    flux = KAPPA * float(res_flux.exp_n[-1])
    target = 4.0 * cfg_flux.pulse.amplitude**2 / KAPPA
    flux_err = abs(flux / target - 1.0)
    if flux_err >= 0.02:
        failures.append(f"flux mismatch {flux_err * 100:.1f}% >= 2%")

    detail = (
        f"over {len(_lb_cache)} Lindblad runs: |tr-1| <= {worst['max_trace_dev']:.1e}, "
        f"hermiticity <= {worst['max_herm_dev']:.1e}, min eig >= {worst['min_eigenvalue']:.1e}; "
        f"single-photon decay err {decay_err:.1e} (<1e-6); flux err {flux_err * 100:.2f}% (<2%)"
    )
    report(9, "quantum-state hygiene", not failures, detail)
    assert not failures, failures
