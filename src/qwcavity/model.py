"""Physical parameter types, Kerr ladder, pulse envelope, collective modes,
and the config and data-file formats.

Units: angular frequencies and decay rates in rad/ps (equivalently 1/ps),
times in ps. All parameter containers are frozen dataclasses; every function
but the file readers and writers is pure, so sharing across threads or worker
processes is safe.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
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
# Flat "key = value" lines; '#' starts a comment. The file lists the cavity
# keys, then dipoles[n].<key> for n = 0 .. N-1 (contiguous), then the pulse
# keys and `frame = lab | rotating`. The two tables below are the numeric
# keys: file key -> (part of SystemConfig, field), and dipole key -> field.

_SCALAR_FIELDS = {
    "cavity.omega_c": ("cavity", "omega_c"),
    "cavity.kappa": ("cavity", "kappa"),
    "pulse.F0": ("pulse", "amplitude"),
    "pulse.omega_d": ("pulse", "carrier"),
    "pulse.t0": ("pulse", "center"),
    "pulse.T": ("pulse", "duration"),
}
_DIPOLE_FIELDS = {"omega": "omega", "U": "anharmonicity", "gamma": "gamma", "g": "coupling"}
_DIPOLE_KEY = re.compile(rf"^dipoles\[(\d+)\]\.({'|'.join(_DIPOLE_FIELDS)})$")


def parse_config(text: str) -> SystemConfig:
    parts: dict[str, dict[str, float]] = {"cavity": {}, "pulse": {}}
    frame_value: str | None = None
    dipoles: dict[int, dict[str, float]] = {}
    seen: dict[tuple, int] = {}   # (part or dipole index, field) -> line of its entry

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        m = _DIPOLE_KEY.match(key)
        if key == "frame":
            slot = ("frame",)
        elif m:
            idx, fld = int(m.group(1)), _DIPOLE_FIELDS[m.group(2)]
            entry, slot = dipoles.setdefault(idx, {}), (idx, fld)
        elif key in _SCALAR_FIELDS:
            part, fld = _SCALAR_FIELDS[key]
            entry, slot = parts[part], (part, fld)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if slot in seen:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {seen[slot]}")
        seen[slot] = lineno
        if key == "frame":
            frame_value = value
            continue
        try:
            entry[fld] = float(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad numeric value {value!r}") from None

    missing = [key for key, (part, fld) in _SCALAR_FIELDS.items() if fld not in parts[part]]
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
        cavity=CavityParams(**parts["cavity"]),
        dipoles=tuple(wells),
        pulse=PulseParams(**parts["pulse"]),
        frame=frame,
    )


def format_config(cfg: SystemConfig) -> str:
    scalars = [(key, getattr(getattr(cfg, p), fld)) for key, (p, fld) in _SCALAR_FIELDS.items()]
    wells = [
        (f"dipoles[{n}].{key}", getattr(d, fld))
        for n, d in enumerate(cfg.dipoles)
        for key, fld in _DIPOLE_FIELDS.items()
    ]
    # the cavity keys come first, then the dipoles, then the pulse
    lines = [f"{key} = {float(value)!r}" for key, value in scalars[:2] + wells + scalars[2:]]
    return "\n".join(lines) + f"\nframe = {cfg.frame.value}\n"


def load_config(path) -> SystemConfig:
    return parse_config(Path(path).read_text())


def config_digest(cfg: SystemConfig) -> str:
    """Stable sha256 of the canonical config text, for manifests."""
    return hashlib.sha256(format_config(cfg).encode()).hexdigest()


def config_to_dict(cfg: SystemConfig) -> dict:
    """The config as nested file keys: {"cavity": {"omega_c": ...}, "dipoles": [...], ...}."""
    out = {"cavity": {}, "pulse": {}}
    for key, (part, fld) in _SCALAR_FIELDS.items():
        out[part][key.split(".", 1)[1]] = getattr(getattr(cfg, part), fld)
    out["dipoles"] = [{k: getattr(d, f) for k, f in _DIPOLE_FIELDS.items()} for d in cfg.dipoles]
    out["frame"] = cfg.frame.value
    return out


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

    m = _DIPOLE_KEY.match(key)
    if m:
        idx, fld = int(m.group(1)), m.group(2)
        if idx >= len(cfg.dipoles):
            raise ConfigError(f"{key!r}: config has only {len(cfg.dipoles)} dipole(s)")
        wells = list(cfg.dipoles)
        wells[idx] = replace(wells[idx], **{_DIPOLE_FIELDS[fld]: value})
        return replace(cfg, dipoles=tuple(wells))
    if key not in _SCALAR_FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    part, fld = _SCALAR_FIELDS[key]
    return replace(cfg, **{part: replace(getattr(cfg, part), **{fld: value})})


# --- data file format -------------------------------------------------------
#
# Every table and JSON file the package writes: '# ' comment lines, one
# header line and comma-separated rows; JSON indented with sorted keys.

def _fmt(value) -> str:
    """Floats as repr (round-trips exactly), integers as int, anything else as str."""
    if type(value) is float:   # the bulk of every trajectory table
        return repr(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_table(path, comments, columns, rows) -> None:
    """CSV with one '# ' line per comment, a header row and one line per row.

    Rows are formatted and written in blocks, so a long table is never held
    as one string.
    """
    rows = iter(rows)
    with open(path, "w") as f:
        f.write("".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n")
        while block := [",".join(map(_fmt, row)) for row in itertools.islice(rows, 4096)]:
            f.write("\n".join(block) + "\n")


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
