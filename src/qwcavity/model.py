"""Physical parameter types, Kerr ladder, pulse envelope, and collective modes.

Units: angular frequencies and decay rates in rad/ps (equivalently 1/ps),
times in ps. All parameter containers are frozen dataclasses; every function
here is pure, so sharing across threads or worker processes is safe.
"""

from __future__ import annotations

import enum
import hashlib
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError


class Frame(enum.Enum):
    """Reference frame for stored coherences and equations of motion."""

    LAB = "lab"
    ROTATING = "rotating"  # co-rotating at the drive carrier


@dataclass(frozen=True)
class DipoleParams:
    """One quantum-well dipole: fundamental frequency, Kerr anharmonicity,
    relaxation rate and cavity coupling (all rad/ps)."""

    omega: float
    anharmonicity: float
    gamma: float
    coupling: float

    def __post_init__(self):
        if self.omega <= 0:
            raise ConfigError(f"dipole omega must be > 0, got {self.omega}")
        if self.anharmonicity < 0:
            raise ConfigError(f"anharmonicity must be >= 0, got {self.anharmonicity}")
        if self.gamma <= 0:
            raise ConfigError(f"dipole gamma must be > 0, got {self.gamma}")
        if self.coupling < 0:
            raise ConfigError(f"coupling must be >= 0, got {self.coupling}")


@dataclass(frozen=True)
class CavityParams:
    omega_c: float
    kappa: float

    def __post_init__(self):
        if self.kappa <= 0:
            raise ConfigError(f"kappa must be > 0, got {self.kappa}")
        if self.omega_c <= 0:
            raise ConfigError(f"omega_c must be > 0, got {self.omega_c}")


@dataclass(frozen=True)
class PulseParams:
    """Gaussian drive pulse: amplitude F0, carrier, center time and width."""

    amplitude: float
    carrier: float
    center: float
    duration: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigError(f"pulse duration must be > 0, got {self.duration}")
        if self.amplitude < 0:
            raise ConfigError(f"pulse amplitude must be >= 0, got {self.amplitude}")


@dataclass(frozen=True)
class SystemConfig:
    cavity: CavityParams
    dipoles: tuple[DipoleParams, ...]
    pulse: PulseParams
    frame: Frame = Frame.ROTATING

    def __post_init__(self):
        if isinstance(self.dipoles, list):
            object.__setattr__(self, "dipoles", tuple(self.dipoles))
        if len(self.dipoles) < 1:
            raise ConfigError("at least one dipole is required")

    @property
    def n_wells(self) -> int:
        return len(self.dipoles)

    @property
    def is_homogeneous(self) -> bool:
        first = self.dipoles[0]
        return all(d == first for d in self.dipoles)

    @property
    def collective_coupling(self) -> float:
        """sqrt(sum_n g_n^2); equals sqrt(N) g for identical wells."""
        return math.sqrt(sum(d.coupling**2 for d in self.dipoles))


def eigenenergy(nu: int, d: DipoleParams) -> float:
    """Kerr-ladder eigenvalue omega*nu - U*(nu^2 - nu) for level nu >= 0."""
    if nu < 0 or nu != int(nu):
        raise ValidationError(f"level index must be a non-negative integer, got {nu}")
    nu = int(nu)
    return d.omega * nu - d.anharmonicity * (nu**2 - nu)


def level_spacing(nu: int, d: DipoleParams) -> float:
    """Transition frequency between levels nu and nu+1: omega - 2*U*nu."""
    if nu < 0 or nu != int(nu):
        raise ValidationError(f"level index must be a non-negative integer, got {nu}")
    return d.omega - 2.0 * d.anharmonicity * int(nu)


def purcell_rate(cfg: SystemConfig) -> float:
    """Cavity-enhanced dipole decay rate gamma*(1 + 4*N*g^2/(kappa*gamma)).

    Only defined for wells with identical gamma and g; for other sets
    effective_decay gives the same formula on the mean gamma.
    """
    if len({d.gamma for d in cfg.dipoles}) != 1 or len({d.coupling for d in cfg.dipoles}) != 1:
        raise ValidationError(
            "purcell_rate requires identical dipole gamma and g; "
            "use effective_decay for inhomogeneous sets"
        )
    return effective_decay(cfg)


def effective_decay(cfg: SystemConfig) -> float:
    """Purcell-style effective decay built from mean gamma and sum g^2.

    Equals purcell_rate for homogeneous configs; for inhomogeneous sets it
    sets window lengths and spectral resolutions.
    """
    gamma = sum(d.gamma for d in cfg.dipoles) / len(cfg.dipoles)
    ng2 = cfg.collective_coupling**2
    return gamma * (1.0 + 4.0 * ng2 / (cfg.cavity.kappa * gamma))


def envelope(t, p: PulseParams):
    """Gaussian envelope exp(-(t-t0)^2/(2 T^2)), peak value 1 at t = t0."""
    t = np.asarray(t, dtype=float)
    out = np.exp(-((t - p.center) ** 2) / (2.0 * p.duration**2))
    return out if out.ndim else float(out)


def drive_amplitude(t: float, p: PulseParams, frame: Frame):
    """Complex drive F0*phi(t)*exp(-i w_d t) at one time t; the carrier phase
    is dropped in the rotating frame, where the value is a real float."""
    amp = p.amplitude * math.exp(-((t - p.center) ** 2) / (2.0 * p.duration**2))
    return amp if frame is Frame.ROTATING else amp * np.exp(-1j * p.carrier * t)


@dataclass(frozen=True)
class CollectiveCoefficients:
    """Unitary map between local well amplitudes and collective modes.

    Row alpha holds exp(i*2*pi*alpha*n/N)/sqrt(N); alpha = 0 is the uniform
    bright mode, the remaining rows span the dark manifold.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("collective transform needs N >= 1")

    @property
    def matrix(self) -> np.ndarray:
        alpha = np.arange(self.n)[:, None]
        wells = np.arange(self.n)[None, :]
        return np.exp(2j * np.pi * alpha * wells / self.n) / math.sqrt(self.n)


def to_collective(local: np.ndarray) -> np.ndarray:
    """Map local amplitudes b_n to collective modes B_alpha."""
    local = np.asarray(local, dtype=complex)
    return CollectiveCoefficients(local.shape[0]).matrix @ local


def to_local(collective: np.ndarray) -> np.ndarray:
    """Inverse of to_collective: b_n = (1/sqrt(N)) sum_a exp(-i2pi a n/N) B_a."""
    collective = np.asarray(collective, dtype=complex)
    c = CollectiveCoefficients(collective.shape[0]).matrix
    return c.conj().T @ collective


# --- configuration file format -------------------------------------------
#
# Flat "key = value" lines; '#' starts a comment. Normative keys:
#   cavity.omega_c, cavity.kappa,
#   dipoles[n].omega | U | gamma | g      (n = 0 .. N-1, contiguous),
#   pulse.F0 | omega_d | t0 | T,
#   frame  (lab | rotating)

_DIPOLE_KEY = re.compile(r"^dipoles\[(\d+)\]\.(omega|U|gamma|g)$")
_DIPOLE_FIELDS = {"omega": "omega", "U": "anharmonicity", "gamma": "gamma", "g": "coupling"}
_SCALAR_KEYS = {
    "cavity.omega_c",
    "cavity.kappa",
    "pulse.F0",
    "pulse.omega_d",
    "pulse.t0",
    "pulse.T",
}


def parse_config(text: str) -> SystemConfig:
    scalars: dict[str, float] = {}
    frame_value: str | None = None
    dipoles: dict[int, dict[str, float]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "frame":
            frame_value = value
            continue
        m = _DIPOLE_KEY.match(key)
        if m:
            idx, fld = int(m.group(1)), m.group(2)
            try:
                dipoles.setdefault(idx, {})[_DIPOLE_FIELDS[fld]] = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: bad numeric value {value!r}") from None
            continue
        if key in _SCALAR_KEYS:
            try:
                scalars[key] = float(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: bad numeric value {value!r}") from None
            continue
        raise ConfigError(f"line {lineno}: unknown key {key!r}")

    missing = _SCALAR_KEYS - scalars.keys()
    if missing:
        raise ConfigError(f"missing keys: {sorted(missing)}")
    if frame_value is None:
        raise ConfigError("missing key 'frame'")
    try:
        frame = Frame(frame_value)
    except ValueError:
        raise ConfigError(f"frame must be 'lab' or 'rotating', got {frame_value!r}") from None
    if not dipoles:
        raise ConfigError("no dipoles[n].* entries found")
    if sorted(dipoles) != list(range(len(dipoles))):
        raise ConfigError(f"dipole indices must be contiguous from 0, got {sorted(dipoles)}")

    wells = []
    for idx in range(len(dipoles)):
        entry = dipoles[idx]
        missing_fields = set(_DIPOLE_FIELDS.values()) - entry.keys()
        if missing_fields:
            raise ConfigError(f"dipoles[{idx}] missing fields: {sorted(missing_fields)}")
        wells.append(DipoleParams(**entry))

    return SystemConfig(
        cavity=CavityParams(omega_c=scalars["cavity.omega_c"], kappa=scalars["cavity.kappa"]),
        dipoles=tuple(wells),
        pulse=PulseParams(
            amplitude=scalars["pulse.F0"],
            carrier=scalars["pulse.omega_d"],
            center=scalars["pulse.t0"],
            duration=scalars["pulse.T"],
        ),
        frame=frame,
    )


def format_config(cfg: SystemConfig) -> str:
    lines = [
        f"cavity.omega_c = {float(cfg.cavity.omega_c)!r}",
        f"cavity.kappa = {float(cfg.cavity.kappa)!r}",
    ]
    for n, d in enumerate(cfg.dipoles):
        lines += [
            f"dipoles[{n}].omega = {float(d.omega)!r}",
            f"dipoles[{n}].U = {float(d.anharmonicity)!r}",
            f"dipoles[{n}].gamma = {float(d.gamma)!r}",
            f"dipoles[{n}].g = {float(d.coupling)!r}",
        ]
    lines += [
        f"pulse.F0 = {float(cfg.pulse.amplitude)!r}",
        f"pulse.omega_d = {float(cfg.pulse.carrier)!r}",
        f"pulse.t0 = {float(cfg.pulse.center)!r}",
        f"pulse.T = {float(cfg.pulse.duration)!r}",
        f"frame = {cfg.frame.value}",
    ]
    return "\n".join(lines) + "\n"


def load_config(path) -> SystemConfig:
    return parse_config(Path(path).read_text())


def config_digest(cfg: SystemConfig) -> str:
    """Stable sha256 of the canonical config text, for manifests."""
    return hashlib.sha256(format_config(cfg).encode()).hexdigest()


def config_to_dict(cfg: SystemConfig) -> dict:
    return {
        "cavity": {"omega_c": cfg.cavity.omega_c, "kappa": cfg.cavity.kappa},
        "dipoles": [
            {"omega": d.omega, "U": d.anharmonicity, "gamma": d.gamma, "g": d.coupling}
            for d in cfg.dipoles
        ],
        "pulse": {
            "F0": cfg.pulse.amplitude,
            "omega_d": cfg.pulse.carrier,
            "t0": cfg.pulse.center,
            "T": cfg.pulse.duration,
        },
        "frame": cfg.frame.value,
    }


def set_config_value(cfg: SystemConfig, key: str, value) -> SystemConfig:
    """Return a copy of cfg with one file-format key replaced.

    Accepts the same key grammar as the config file, so sweep axes and CLI
    overrides resolve against existing keys only.
    """
    if key == "frame":
        try:
            return replace(cfg, frame=Frame(str(value)))
        except ValueError:
            raise ConfigError(f"frame must be 'lab' or 'rotating', got {value!r}") from None

    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"value for {key!r} must be numeric, got {value!r}") from None

    if key == "cavity.omega_c":
        return replace(cfg, cavity=replace(cfg.cavity, omega_c=value))
    if key == "cavity.kappa":
        return replace(cfg, cavity=replace(cfg.cavity, kappa=value))
    if key == "pulse.F0":
        return replace(cfg, pulse=replace(cfg.pulse, amplitude=value))
    if key == "pulse.omega_d":
        return replace(cfg, pulse=replace(cfg.pulse, carrier=value))
    if key == "pulse.t0":
        return replace(cfg, pulse=replace(cfg.pulse, center=value))
    if key == "pulse.T":
        return replace(cfg, pulse=replace(cfg.pulse, duration=value))
    m = _DIPOLE_KEY.match(key)
    if m:
        idx, fld = int(m.group(1)), m.group(2)
        if idx >= len(cfg.dipoles):
            raise ConfigError(f"{key!r}: config has only {len(cfg.dipoles)} dipole(s)")
        wells = list(cfg.dipoles)
        wells[idx] = replace(wells[idx], **{_DIPOLE_FIELDS[fld]: value})
        return replace(cfg, dipoles=tuple(wells))
    raise ConfigError(f"unknown config key {key!r}")
