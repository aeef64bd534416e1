"""Simulator for nonlinear phase transfer from quantum-well dipoles to a
driven, lossy THz cavity: mean-field chirping dynamics, full Lindblad
propagation, and FID phase-spectrum analysis.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    GridError,
    SolverError,
    TruncationError,
    ValidationError,
)
from .model import (
    CavityParams,
    DipoleParams,
    Frame,
    PulseParams,
    SystemConfig,
    drive_amplitude,
    effective_decay,
    envelope,
    format_config,
    load_config,
    parse_config,
    purcell_rate,
    set_config_value,
)
from .meanfield import (
    MeanFieldTrajectory,
    PostPulseOracle,
    integrate,
    oracle_from_trajectory,
    post_pulse_analytic,
    stationary_phase,
)
from .lindblad import (
    DensityMatrix,
    HilbertConfig,
    LindbladResult,
    build_hamiltonian,
    build_operators,
    evolve,
    lindblad_rhs,
    read_checkpoints,
    vacuum_state,
    write_checkpoints,
)
from .spectral import (
    DelaySeries,
    FidWindow,
    NonlinearPhaseResult,
    SpectralPolicy,
    Spectrum,
    baseline_config,
    fid_time_span,
    fid_window,
    fit_alpha,
    fourier,
    nonlinear_phase_shift,
    phase_at,
    phase_pipeline,
    phase_spectrum,
    relative_phase,
    time_delay,
)

__all__ = [name for name in dir() if not name.startswith("_")]
