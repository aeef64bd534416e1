import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# Run in a fresh interpreter: what the package imports on the way to a
# mean-field result, then to a Lindblad one.
FOOTPRINT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import qwcavity, qwcavity.cli
from qwcavity import HilbertConfig, evolve, fid_time_span, integrate, phase_pipeline, vacuum_state
snapshots = {"import": scipy_modules()}
cfg = qwcavity.cli.two_well_config(u_over_gamma=1.0, f0_over_kappa=0.2)
phase_pipeline(integrate(cfg, fid_time_span(cfg)))
snapshots["meanfield"] = scipy_modules()
h = HilbertConfig(n_photon_max=2, nu_max=1, n_wells=2)
evolve(vacuum_state(h), (0.0, 0.2), cfg, h, dt=0.004)
snapshots["lindblad"] = scipy_modules()
print(json.dumps(snapshots))
"""


@pytest.mark.bitexact
def test_import_footprint():
    env = dict(os.environ, PYTHONPATH=str(Path(qwcavity.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, capture_output=True,
                         text=True, check=True).stdout
    snapshots = json.loads(out.strip().splitlines()[-1])
    # importing the package and the CLI, and a mean-field phase spectrum, load no scipy
    assert snapshots["import"] == snapshots["meanfield"] == []
    # a Lindblad run loads scipy.sparse for its operators, and still no scipy.integrate or scipy.fft
    lindblad = snapshots["lindblad"]
    assert "scipy.sparse" in lindblad
    assert not [m for m in lindblad if m.startswith(("scipy.integrate", "scipy.fft"))]
