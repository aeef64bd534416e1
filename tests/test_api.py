import qwcavity

# The package's public names. Adding or removing one is an API change: update
# this list in the same change, and the README if it names the export.
PUBLIC = [
    "CavityParams", "ConfigError", "DelaySeries", "DensityMatrix", "DipoleParams", "FidWindow",
    "Frame", "GridError", "HilbertConfig", "LindbladResult", "MeanFieldTrajectory",
    "NonlinearPhaseResult", "PostPulseOracle", "PulseParams", "SolverError", "SpectralPolicy",
    "Spectrum", "SystemConfig", "TruncationError", "ValidationError",
    "baseline_config", "build_hamiltonian", "build_operators", "drive_amplitude",
    "effective_decay", "envelope", "evolve", "fid_time_span", "fid_window", "fit_alpha",
    "format_config", "fourier", "integrate", "lindblad_rhs", "load_config",
    "nonlinear_phase_shift", "oracle_from_trajectory", "parse_config", "phase_pipeline",
    "phase_spectrum", "post_pulse_analytic", "relative_phase", "set_config_value",
    "stationary_phase", "time_delay",
    "vacuum_state", "write_checkpoints",
    # the submodules
    "errors", "lindblad", "meanfield", "model", "spectral",
]


def test_public_names_are_the_reviewed_list():
    assert sorted(qwcavity.__all__) == sorted(PUBLIC)
