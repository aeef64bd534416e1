import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from qwcavity import (
    ConfigError,
    GridError,
    HilbertConfig,
    PostPulseOracle,
    SpectralPolicy,
    ValidationError,
    baseline_config,
    effective_decay,
    evolve,
    fid_time_span,
    fid_window,
    fit_alpha,
    fourier,
    integrate,
    nonlinear_phase_shift,
    phase_pipeline,
    phase_spectrum,
    post_pulse_analytic,
    relative_phase,
    set_config_value,
    stationary_phase,
    time_delay,
    vacuum_state,
)
from qwcavity import spectral
from qwcavity.cli import two_well_config
from qwcavity.meanfield import ATOL_DEFAULT, RTOL_DEFAULT, MeanFieldTrajectory, default_dt
from qwcavity.spectral import RESOLUTION_FACTOR, FidWindow, write_fit_json, write_phase_csv

from conftest import standard_config

GAMMA_TILDE = 14.0 / 15.0  # purcell rate of the standard config
T_OFF_DEFAULT = 0.6 + 3 * 0.155


def tone_window(phi0=0.0, t_start=T_OFF_DEFAULT, dt=0.002, decay=GAMMA_TILDE, omega=40.0,
                tail=10.0, cfg=None):
    """Synthetic decaying tone exp(i phi0) exp(-decay/2 (t-t0)) exp(-i omega t)."""
    cfg = cfg or standard_config()
    t = t_start + dt * np.arange(int(tail / decay / dt))
    values = np.exp(1j * phi0) * np.exp(-0.5 * decay * (t - t_start)) * np.exp(-1j * omega * t)
    return FidWindow(t=t, values=values, t_off=t_start, source="cavity", config=cfg)


def phase_at(ps):
    """Unwrapped phase of a spectrum at its resonance omega0."""
    return float(np.interp(ps.omega0, ps.omega[ps.mask], ps.phase[ps.mask]))


class TestFidWindow:
    def test_default_turn_off_time(self, base_config):
        traj = integrate(base_config, fid_time_span(base_config))
        win = fid_window(traj)
        assert win.t_off == pytest.approx(1.065)
        assert win.t[0] >= win.t_off - 1e-12

    def test_envelope_residual_at_window_start(self, base_config):
        traj = integrate(base_config, fid_time_span(base_config))
        win = fid_window(traj)
        from qwcavity import envelope

        ratio = envelope(win.t_off, base_config.pulse) / envelope(0.6, base_config.pulse)
        assert ratio == pytest.approx(math.exp(-4.5), rel=1e-12)
        # first stored sample sits at or past the turn-off time
        assert envelope(win.t[0], base_config.pulse) <= ratio * (1 + 1e-12)

    def test_zero_trajectory_gives_zero_window(self, base_config):
        cfg = set_config_value(base_config, "pulse.F0", 0.0)
        traj = integrate(cfg, fid_time_span(cfg))
        win = fid_window(traj)
        assert np.abs(win.values).max() == 0.0

    def test_short_trajectory_rejected(self, base_config):
        traj = integrate(base_config, (0.0, 2.0))
        with pytest.raises(ValidationError):
            fid_window(traj)

    def test_window_starting_before_t_off_rejected(self):
        with pytest.raises(ValidationError, match="window must start at t_off"):
            replace(tone_window(), t_off=T_OFF_DEFAULT + 0.01)

    def test_window_inside_pulse_rejected(self, base_config):
        traj = integrate(base_config, fid_time_span(base_config))
        with pytest.raises(ValidationError):
            fid_window(traj, policy=SpectralPolicy(t_off_factor=0.5))

    def test_window_around_pulse_centre_rejected(self, base_config):
        # t_off before the pulse centre: the window holds the envelope peak
        traj = integrate(base_config, fid_time_span(base_config))
        with pytest.raises(ValidationError, match="envelope still at 1.00e"):
            fid_window(traj, policy=SpectralPolicy(t_off_factor=-1.0))

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_non_finite_t_off_factor_refused_where_the_policy_is_built(self, factor):
        # a nan turn-off time used to reach fid_window as an empty window (IndexError)
        with pytest.raises(ConfigError, match=f"SpectralPolicy.t_off_factor must be finite, got {factor}"):
            SpectralPolicy(t_off_factor=factor)
        with pytest.raises(ConfigError):
            replace(SpectralPolicy(), t_off_factor=factor)


class TestFourier:
    def test_zero_window_gives_zero_spectrum(self, base_config):
        cfg = set_config_value(base_config, "pulse.F0", 0.0)
        traj = integrate(cfg, fid_time_span(cfg))
        # the transform is exactly zero, so its phase is undefined
        with pytest.raises(ValidationError, match="identically zero"):
            fourier(fid_window(traj))

    def test_lorentzian_line_from_decaying_tone(self):
        spec = fourier(tone_window())
        mag = np.abs(spec.values)
        peak = mag.argmax()
        assert spec.omega[peak] == pytest.approx(40.0, abs=2 * (spec.omega[1] - spec.omega[0]))
        # FWHM of the Lorentzian line |S|^2 equals the decay rate
        power = mag**2
        half = power.max() / 2.0
        above = spec.omega[power >= half]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(GAMMA_TILDE, rel=0.02)
        # peak value of the analytic pair: (1/sqrt(2pi)) * 2/decay
        assert mag.max() == pytest.approx(2.0 / GAMMA_TILDE / math.sqrt(2 * math.pi), rel=0.02)

    def test_phase_at_resonance_recovers_offset(self):
        ps = fourier(tone_window(phi0=0.3))
        assert phase_at(ps) == pytest.approx(0.3, abs=0.01)

    def test_constant_phase_factor_shifts_every_bin(self):
        s0 = fourier(tone_window(phi0=0.0))
        s1 = fourier(tone_window(phi0=0.4))
        dphi = np.angle(s1.values / s0.values)
        assert np.allclose(dphi, 0.4, atol=1e-9)

    def test_aliasing_rejected(self, base_config):
        win = tone_window(dt=0.1)
        with pytest.raises(GridError):
            fourier(win)

    @settings(max_examples=20, deadline=None)
    @given(phi0=st.floats(-3.0, 3.0))
    def test_shift_invariance_property(self, phi0):
        base = tone_window(phi0=0.0, tail=6.0)
        shifted = FidWindow(
            t=base.t, values=base.values * np.exp(1j * phi0), t_off=base.t_off,
            source="cavity", config=base.config,
        )
        p0 = fourier(base)
        p1 = fourier(shifted)
        delta = (p1.phase[p1.mask] - p0.phase[p0.mask] - phi0 + math.pi) % (2 * math.pi) - math.pi
        assert np.abs(delta).max() < 1e-9

    def test_time_translation_covariance(self):
        tau = 0.35
        base = tone_window()
        delayed = FidWindow(
            t=base.t + tau, values=base.values, t_off=base.t_off + tau,
            source="cavity", config=base.config,
        )
        p0 = fourier(base)
        p1 = fourier(delayed)
        w0 = p0.omega0
        expected = (w0 * tau + math.pi) % (2 * math.pi) - math.pi
        measured = (phase_at(p1) - phase_at(p0) + math.pi) % (2 * math.pi) - math.pi
        assert measured == pytest.approx(expected, abs=1e-6)
        # a common delay cancels in the relative phase
        base_b = tone_window(phi0=0.1)
        delayed_b = FidWindow(
            t=base_b.t + tau, values=base_b.values, t_off=base_b.t_off + tau,
            source="cavity", config=base_b.config,
        )
        r0 = relative_phase(fourier(base_b), p0)
        r1 = relative_phase(fourier(delayed_b), p1)
        assert r1 == pytest.approx(r0, abs=1e-9)


def full_length_fourier(window):
    """fourier's band (omega, values), with omega, the band selection and the
    n_fft scaling evaluated on every padded bin before the band is cut."""
    gamma_tilde = effective_decay(window.config)
    omega0 = window.config.dipoles[0].omega
    dt, x = window.dt, window.values
    m = len(x)
    resolution = gamma_tilde / RESOLUTION_FACTOR
    n_fft = next_fast_len(max(m, int(math.ceil(2.0 * math.pi / (resolution * dt)))))
    rect = np.fft.ifft(x, n_fft) * n_fft
    omega = 2.0 * math.pi * np.arange(n_fft) / (n_fft * dt)
    sel = (omega >= max(omega0 - 12.0 * gamma_tilde, 0.0)) & (
        omega <= min(omega0 + 12.0 * gamma_tilde, math.pi / dt))
    w = omega[sel]
    trap = rect[sel] - 0.5 * x[0] - 0.5 * x[-1] * np.exp(1j * w * (m - 1) * dt)
    return w, (dt / math.sqrt(2.0 * math.pi)) * np.exp(1j * w * window.t[0]) * trap


@pytest.mark.bitexact
def test_next_fast_len_is_scipy_complex_next_fast_len():
    ns = range(1, 2**18 + 1)
    assert [spectral.next_fast_len(n) for n in ns] == [next_fast_len(n) for n in ns]


@pytest.mark.bitexact
class TestBandOnlyTransform:
    @pytest.mark.parametrize("gamma, clamped_at_zero", [(0.6, False), (10.0, True)])
    def test_band_bit_identical_to_full_length_transform(self, gamma, clamped_at_zero):
        # gamma = 10 is fig2's broad pair: omega0 - 12 gamma_tilde < 0, so
        # the band starts at the zero-frequency bin
        cfg = two_well_config(u_over_gamma=1.0, f0_over_kappa=0.2, gamma1=gamma, gamma2=gamma)
        window = fid_window(integrate(cfg, fid_time_span(cfg)))
        spec = fourier(window)
        omega, values = full_length_fourier(window)
        ref = phase_spectrum(omega, values, spec.omega0, spec.gamma_tilde, window.t_off, "cavity")
        assert (spec.omega0 - 12.0 * spec.gamma_tilde < 0.0) == clamped_at_zero
        assert (spec.omega[0] == 0.0) == clamped_at_zero
        assert np.array_equal(spec.omega, omega)
        assert np.array_equal(spec.values, values)
        assert np.array_equal(spec.phase, ref.phase, equal_nan=True)
        assert np.array_equal(spec.mask, ref.mask)


@pytest.mark.bitexact
class TestTransformWorkspace:
    """fourier pads into one reused, grow-only workspace per process."""

    @pytest.fixture(scope="class")
    def windows(self):
        """n_fft 84,375 (dt 0.004), 14,641 (gamma = 10) and 161,700 (default dt)."""
        out = []
        for gamma, dt in ((0.6, 0.004), (10.0, None), (0.6, None)):
            cfg = two_well_config(u_over_gamma=1.0, f0_over_kappa=0.2, gamma1=gamma, gamma2=gamma)
            out.append(fid_window(integrate(cfg, fid_time_span(cfg), dt=dt)))
        return out

    def test_bits_and_no_aliasing_as_the_workspace_grows_and_shrinks(self, windows, monkeypatch):
        monkeypatch.setattr(spectral, "_workspace", np.empty(0, complex))
        small, broad, standard = windows
        kept, sizes = [], []
        for window in (small, broad, standard, broad):   # grows, shrinks, grows again, shrinks
            spec = fourier(window)
            omega, values = full_length_fourier(window)
            assert np.array_equal(spec.omega, omega)
            assert np.array_equal(spec.values, values)
            kept.append((spec, spec.values.copy(), spec.phase.copy()))
            sizes.append(len(spectral._workspace))
        assert sizes == [84375, 84375, 161700, 161700]
        for spec, values, phase in kept:   # no spectrum reads the reused workspace
            assert np.array_equal(spec.values, values)
            assert np.array_equal(spec.phase, phase, equal_nan=True)

    def test_second_call_allocates_no_padded_array(self, windows):
        """Measured tracemalloc peak of the second call: 0.16 MB here, 2.62 MB
        when each call allocated its own padded transform (n_fft = 161,700)."""
        standard = windows[2]
        fourier(standard)
        tracemalloc.start()
        try:
            fourier(standard)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 161700 * 16 / 2


def synthetic_phase_spectrum(phase_value, omega0=40.0):
    omega = omega0 + np.linspace(-5.0, 5.0, 201)
    values = np.exp(1j * phase_value) * np.ones_like(omega) / (1.0 + (omega - omega0) ** 2)
    return phase_spectrum(omega, values, omega0, 1.0, 1.0, "cavity")


class TestPhaseSpectrum:
    def test_real_positive_spectrum_has_zero_phase(self):
        ps = synthetic_phase_spectrum(0.0)
        assert np.abs(ps.phase[ps.mask]).max() == 0.0

    def test_imaginary_spectrum_quadrant(self):
        ps = synthetic_phase_spectrum(math.pi / 2)
        assert np.allclose(ps.phase[ps.mask], math.pi / 2)

    def test_zero_spectrum_rejected(self):
        with pytest.raises(ValidationError):
            phase_spectrum(np.linspace(39.0, 41.0, 11), np.zeros(11, dtype=complex),
                           40.0, 1.0, 1.0, "cavity")

    @pytest.mark.parametrize("centre, dead_bin, match", [
        (60.0, None, "resonance band not covered"),
        (40.0, 100, "magnitude at the resonance is below the noise floor"),
    ], ids=["band_off_grid", "dead_resonance_bin"])
    def test_unreadable_resonance_rejected(self, centre, dead_bin, match):
        omega = centre + np.linspace(-5.0, 5.0, 201)
        values = np.ones_like(omega, dtype=complex)
        if dead_bin is not None:
            values[dead_bin] = 0.0
        with pytest.raises(ValidationError, match=match):
            phase_spectrum(omega, values, 40.0, 1.0, 1.0, "cavity")

    def test_dead_bins_masked_not_interpolated(self):
        omega = 40.0 + np.linspace(-5.0, 5.0, 201)
        values = np.ones_like(omega, dtype=complex) / (1.0 + (omega - 40.0) ** 2)
        values[:40] = 0.0  # kill the far wing
        ps = phase_spectrum(omega, values, 40.0, 1.0, 1.0, "cavity")
        assert not ps.mask[:40].any()
        assert np.isnan(ps.phase[:40]).all()
        assert ps.mask[100]


class TestRelativePhase:
    def test_identical_runs_cancel(self):
        ps = synthetic_phase_spectrum(0.7)
        assert relative_phase(ps, ps) == 0.0

    def test_grid_mismatch_rejected(self):
        a = synthetic_phase_spectrum(0.1)
        omega = 40.0 + np.linspace(-5.0, 5.0, 205)
        values = np.ones_like(omega, dtype=complex)
        b = phase_spectrum(omega, values, 40.0, 1.0, 1.0, "cavity")
        with pytest.raises(GridError):
            relative_phase(a, b)

    def test_t_off_mismatch_rejected(self):
        omega = 40.0 + np.linspace(-5.0, 5.0, 201)
        values = np.ones_like(omega, dtype=complex) / (1.0 + (omega - 40.0) ** 2)
        run, base = (phase_spectrum(omega, values, 40.0, 1.0, t_off, "cavity") for t_off in (1.0, 1.1))
        with pytest.raises(GridError, match="different t_off windows"):
            relative_phase(run, base)

    def test_branch_cut_straddling_phases(self):
        # run and baseline sit on opposite sides of the +-pi branch; the
        # physical difference is small and must come out that way
        run = synthetic_phase_spectrum(math.pi - 0.001)
        base = synthetic_phase_spectrum(-math.pi + 0.001)
        assert relative_phase(run, base) == pytest.approx(-0.002, abs=1e-9)

    def test_baseline_modes_agree(self):
        # harmonic and weak-drive baselines give the same dPhi(omega0) to 5%
        cfg = standard_config(u_over_gamma=0.5, f0_over_kappa=0.2)
        span = fid_time_span(cfg, SpectralPolicy())
        run = integrate(cfg, span)
        shifts = {}
        for mode in ("harmonic", "weak"):
            policy = SpectralPolicy(baseline_mode=mode)
            base = integrate(baseline_config(cfg, policy), span)
            shifts[mode] = nonlinear_phase_shift(run, base, policy)
        assert shifts["weak"] == pytest.approx(shifts["harmonic"], rel=0.05)

    def test_unknown_baseline_mode_rejected(self, base_config):
        with pytest.raises(ValidationError, match="unknown baseline mode 'strong'"):
            baseline_config(base_config, SpectralPolicy(baseline_mode="strong"))

    @pytest.mark.parametrize("mode", ["strong", "Harmonic", ""])
    def test_unknown_baseline_mode_refused_where_the_policy_is_built(self, mode):
        with pytest.raises(ValidationError, match=f"unknown baseline mode {mode!r}"):
            SpectralPolicy(baseline_mode=mode)
        with pytest.raises(ValidationError, match=f"unknown baseline mode {mode!r}"):
            replace(SpectralPolicy(), baseline_mode=mode)

    def test_harmonic_run_vs_weak_baseline_is_null(self):
        # a harmonic run and a weak-drive run are phase-equivalent
        cfg = standard_config(u_over_gamma=0.0, f0_over_kappa=0.2)
        policy = SpectralPolicy()
        span = fid_time_span(cfg, policy)
        run = integrate(cfg, span)
        weak = integrate(set_config_value(cfg, "pulse.F0", 0.01 * 12.0), span)
        dphi = nonlinear_phase_shift(run, weak, policy)
        assert abs(dphi) < 1e-3


def converged_shifts(solve, cfg, dt, rtol, atol):
    """dPhi(omega0) of `solve(cfg, span, dt=, rtol=, atol=)` and its baseline: as
    given, with rtol and atol both tightened 100x, and with dt halved."""
    policy = SpectralPolicy()
    span = fid_time_span(cfg, policy)
    base = baseline_config(cfg, policy)
    return [nonlinear_phase_shift(solve(cfg, span, **kw), solve(base, span, **kw), policy)
            for kw in (dict(dt=dt, rtol=rtol, atol=atol),
                       dict(dt=dt, rtol=rtol / 100, atol=atol / 100),
                       dict(dt=dt / 2, rtol=rtol, atol=atol))]


class TestPhaseShiftConvergence:
    """dPhi(omega0) at the standard point (U = gamma, F0 = 0.2 kappa) moves by
    less than a bound set from the measured change when rtol and atol are
    tightened 100x, or when dt is halved.

    The dt change comes from the read-off, not from the ODE. The FID window
    starts at the first grid sample at or after t_off, and dPhi moves in
    proportion to how late that is. At default_dt / 4 and / 8 the window
    starts at the same time, 1.0e-4 ps late, and the mean-field dPhi of the
    two agrees to 2.4e-7 relative.
    """

    def test_meanfield(self, base_config):
        """Measured: 3.0e-9 relative for the tolerances (bound 1e-8). For dt,
        default_dt (2.08e-3 ps) against half of it, 2.1e-3 relative (bound
        3e-3): the window starts 1.7e-3 ps late, then 6.3e-4 ps."""
        ref, tight, half = converged_shifts(integrate, base_config, default_dt(base_config),
                                            RTOL_DEFAULT, ATOL_DEFAULT)
        assert abs(tight / ref - 1.0) < 1e-8
        assert abs(half / ref - 1.0) < 3e-3

    def test_lindblad(self, base_config):
        """n_photon_max 4, nu_max 2 (dim 45), dt 0.004 as in the fig5 presets.
        Measured: 1.6e-10 relative for the tolerances (bound 1e-9). For dt,
        4.1e-3 relative (bound 6e-3): the window starts 3e-3 ps late, then
        1e-3 ps. nu_max 1 would test nothing: a two-level well has no Kerr
        term, so the run equals its harmonic baseline and dPhi is exactly 0."""
        h = HilbertConfig(n_photon_max=4, nu_max=2, n_wells=2)
        solve = lambda cfg, span, **kw: evolve(vacuum_state(h), span, cfg, h, **kw)
        ref, tight, half = converged_shifts(solve, base_config, 0.004, 1e-9, 1e-12)
        assert abs(tight / ref - 1.0) < 1e-9
        assert abs(half / ref - 1.0) < 6e-3


class TestDipoleCavityEquivalence:
    def test_harmonic_run_gives_null_shifts(self):
        cfg = standard_config(u_over_gamma=0.0, f0_over_kappa=0.2)
        policy = SpectralPolicy()
        span = fid_time_span(cfg, policy)
        run = integrate(cfg, span)
        base = integrate(baseline_config(cfg, policy), span)
        assert abs(nonlinear_phase_shift(run, base, policy)) < 1e-6
        assert abs(nonlinear_phase_shift(run, base, policy, "bright")) < 1e-6

    def test_filter_phase_constant_across_drive(self):
        # the cavity-vs-dipole spectral phase offset at omega0 depends on
        # the filter only, not on the drive strength
        policy = SpectralPolicy()
        offsets = []
        for ratio in (0.05, 0.2):
            cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=ratio)
            span = fid_time_span(cfg, policy)
            run = integrate(cfg, span)
            offsets.append(phase_at(phase_pipeline(run, policy, "cavity"))
                           - phase_at(phase_pipeline(run, policy, "bright")))
        # constant to within the cavity/dipole equivalence tolerance
        assert offsets[0] == pytest.approx(offsets[1], abs=0.01)


class TestFitAlpha:
    def test_exact_quadratic_recovery(self, base_config):
        gamma_tilde = effective_decay(base_config)
        u, n = 0.6, 2
        ratios = np.linspace(0.02, 0.2, 7)
        points = [(r, 3.5 * (2 * u / (n * gamma_tilde)) * r**2) for r in ratios]
        result = fit_alpha(points, base_config)
        assert result.alpha == pytest.approx(3.5, rel=1e-12)
        assert result.exponent == pytest.approx(2.0, abs=1e-9)
        assert result.residual < 1e-12
        assert result.in_regime

    def test_needs_five_points(self, base_config):
        with pytest.raises(ValidationError):
            fit_alpha([(0.05, 1e-3), (0.1, 4e-3), (0.15, 9e-3)], base_config)

    def test_harmonic_config_rejected(self):
        cfg = standard_config(u_over_gamma=0.0)
        with pytest.raises(ValidationError):
            fit_alpha([(r, r**2) for r in (0.02, 0.05, 0.1, 0.15, 0.2)], cfg)

    @pytest.mark.parametrize("key, value", [("dipoles[1].gamma", 1.2), ("dipoles[1].g", 0.9),
                                            ("dipoles[1].U", 0.3)], ids=["gamma", "g", "U"])
    def test_rejects_inhomogeneous_wells(self, base_config, key, value):
        cfg = set_config_value(base_config, key, value)
        with pytest.raises(ValidationError, match="one U, gamma and g shared by every well"):
            fit_alpha([(r, r**2) for r in (0.02, 0.05, 0.1, 0.15, 0.2)], cfg)

    @pytest.mark.parametrize("points, match", [
        ([(-0.1, 1e-2)] + [(r, r**2) for r in (0.05, 0.1, 0.15, 0.2)], r"must be > 0, got -0\.1"),
        ([(0.0, 0.0)] + [(r, r**2) for r in (0.05, 0.1, 0.15, 0.2)], r"must be > 0, got 0\.0"),
        ([(r, 0.0) for r in (0.02, 0.05, 0.1, 0.15, 0.2)], "dphi is zero at every drive point"),
    ], ids=["negative_ratio", "zero_ratio", "all_zero_dphi"])
    def test_degenerate_points_rejected(self, base_config, points, match):
        with pytest.raises(ValidationError, match=match):
            fit_alpha(points, base_config)

    @pytest.mark.parametrize("bad", [(0.3, math.nan), (math.inf, 0.09), (0.3, -math.inf),
                                     (math.nan, 0.09)],
                             ids=["nan_dphi", "inf_ratio", "inf_dphi", "nan_ratio"])
    def test_non_finite_points_rejected(self, base_config, bad):
        points = [(r, r**2) for r in (0.05, 0.1, 0.15, 0.2)] + [bad]
        with pytest.raises(ValidationError, match="drive points must be finite"):
            fit_alpha(points, base_config)

    def test_one_nonzero_point_has_no_exponent(self, base_config):
        points = [(r, 0.0) for r in (0.02, 0.05, 0.1, 0.15)] + [(0.2, 0.04)]
        result = fit_alpha(points, base_config)
        assert math.isnan(result.exponent)
        assert result.quad_coeff == pytest.approx(0.04 * 0.2**2 / sum(r**4 for r, _ in points))

    def test_cubic_data_flagged_out_of_regime(self, base_config):
        points = [(r, 0.1 * r**3) for r in np.linspace(0.05, 0.5, 7)]
        result = fit_alpha(points, base_config)
        assert not result.in_regime
        assert result.exponent == pytest.approx(3.0, abs=1e-6)


def fid_trajectory(cfg, values, t):
    """Wrap a lab-frame bright-mode series as a trajectory, which stores it in
    the frame rotating at the carrier, so that lab_signal gives `values` back."""
    return MeanFieldTrajectory(
        t=t,
        a=np.zeros_like(values),
        modes=(values * np.exp(1j * cfg.pulse.carrier * t))[None, :],
        config=cfg,
        per_well=False,
    )


class TestTimeDelay:
    def test_identical_traces_have_zero_delay(self, base_config):
        traj = integrate(base_config, (0.0, 4.0), dt=2e-4)
        delays = time_delay(traj, traj)
        assert len(delays.delays) > 40
        assert np.abs(delays.delays).max() < 1e-12

    def test_known_phase_lag_is_recovered(self, base_config):
        # identical envelopes, pure phase offset: delay = dphi / omega0
        dphi = 0.02
        dt = 1e-4
        t = 1.0 + dt * np.arange(40000)
        env = np.exp(-0.45 * (t - 1.0))
        weak = fid_trajectory(base_config, env * np.exp(-1j * 40.0 * t), t)
        strong = fid_trajectory(base_config, env * np.exp(-1j * 40.0 * t + 1j * dphi), t)
        delays = time_delay(strong, weak)
        assert np.abs(delays.delays - dphi / 40.0).max() < 2e-6

    def test_mismatched_parameters_rejected(self, base_config):
        traj = integrate(base_config, (0.0, 4.0), dt=2e-4)
        other = integrate(standard_config(u_over_gamma=0.5), (0.0, 4.0), dt=2e-4)
        with pytest.raises(ValidationError):
            time_delay(traj, other)

    def test_mismatched_grids_rejected(self, base_config):
        t = 1.0 + 1e-4 * np.arange(4001)
        weak, strong = (fid_trajectory(base_config, np.exp(-1j * 40.0 * tt), tt) for tt in (t, t[:-1]))
        with pytest.raises(GridError, match="must share the time grid"):
            time_delay(strong, weak)

    @pytest.mark.parametrize("strong_omega", [0.0, 4.0], ids=["no_extrema", "extrema_too_far"])
    def test_unmatched_extrema_dropped(self, base_config, strong_omega):
        # the strong trace has no extremum within half a carrier period of most
        # weak extrema: flat (omega 0) or oscillating ten times slower
        t = 1.0 + 1e-4 * np.arange(40000)
        env = np.exp(-0.45 * (t - 1.0))
        weak = fid_trajectory(base_config, env * np.exp(-1j * 40.0 * t), t)
        strong = fid_trajectory(base_config, env * np.exp(-1j * strong_omega * t), t)
        delays = time_delay(strong, weak)
        n_weak = len(delays.delays) + delays.n_dropped
        assert n_weak > 40 and delays.n_dropped > n_weak // 2
        assert np.all(np.abs(delays.delays) < math.pi / 40.0)
        if strong_omega == 0.0:
            assert len(delays.delays) == 0

    def test_asymptotic_delay_matches_stationary_phase(self, base_config):
        # analytic post-pulse signals: the late-time extremum offset equals
        # the stationary Kerr phase divided by the carrier
        oracle = PostPulseOracle(
            B_off=0.15, phi_off=0.0, t_off=1.065, gamma_tilde=GAMMA_TILDE, U=0.6, N=2
        )
        harmonic = PostPulseOracle(
            B_off=0.15, phi_off=0.0, t_off=1.065, gamma_tilde=GAMMA_TILDE, U=0.0, N=2
        )
        dt = 1e-4
        t = 1.065 + dt * np.arange(int(12 / GAMMA_TILDE / dt))
        strong = post_pulse_analytic(oracle, t) * np.exp(-1j * 40.0 * t)
        weak = post_pulse_analytic(harmonic, t) * np.exp(-1j * 40.0 * t)
        delays = time_delay(
            fid_trajectory(base_config, strong, t),
            fid_trajectory(base_config, weak, t),
        )
        target = stationary_phase(oracle) / 40.0
        late = delays.delays[-10:]
        assert np.mean(late) == pytest.approx(target, rel=0.05)


class TestExports:
    def test_phase_csv(self, tmp_path):
        ps = fourier(tone_window(phi0=0.2))
        path = tmp_path / "spec.csv"
        write_phase_csv(ps, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# source: cavity"
        assert lines[3] == "omega,re,im,magnitude,phase_unwrapped"
        assert len(lines) == 4 + len(ps.omega)

    def test_fit_json(self, tmp_path, base_config):
        import json

        points = [(r, 0.1 * r**2) for r in np.linspace(0.02, 0.2, 7)]
        result = fit_alpha(points, base_config)
        path = tmp_path / "fit.json"
        write_fit_json(result, path)
        payload = json.loads(path.read_text())
        assert payload["exponent"] == pytest.approx(2.0, abs=1e-9)
        assert len(payload["points"]) == 7
