"""Physical parameter types, the pulse envelope and drive, and the config and
data-file formats.

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

from .errors import ConfigError


class Frame(enum.Enum):
    """Reference frame for stored coherences and equations of motion."""

    LAB = "lab"
    ROTATING = "rotating"  # co-rotating at the drive carrier


def _check_fields(params, positive, nonnegative=()) -> None:
    """Every field of a parameter type is finite, those named in `positive`
    are > 0 and those in `nonnegative` >= 0, however the type was built."""
    for name, value in vars(params).items():
        if not math.isfinite(value):
            raise ConfigError(f"{type(params).__name__}.{name} must be finite, got {value}")
        if (name in positive and value <= 0) or (name in nonnegative and value < 0):
            bound = "> 0" if name in positive else ">= 0"
            raise ConfigError(f"{type(params).__name__}.{name} must be {bound}, got {value}")


@dataclass(frozen=True)
class DipoleParams:
    """One quantum-well dipole: fundamental frequency, Kerr anharmonicity,
    relaxation rate and cavity coupling (all rad/ps)."""

    omega: float
    anharmonicity: float
    gamma: float
    coupling: float

    def __post_init__(self):
        _check_fields(self, positive=("omega", "gamma"), nonnegative=("anharmonicity", "coupling"))


@dataclass(frozen=True)
class CavityParams:
    omega_c: float
    kappa: float

    def __post_init__(self):
        _check_fields(self, positive=("omega_c", "kappa"))


@dataclass(frozen=True)
class PulseParams:
    """Gaussian drive pulse: amplitude F0, carrier, center time and width."""

    amplitude: float
    carrier: float
    center: float
    duration: float

    def __post_init__(self):
        _check_fields(self, positive=("duration",), nonnegative=("amplitude",))


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


def effective_decay(cfg: SystemConfig) -> float:
    """Cavity-enhanced dipole decay rate gamma*(1 + 4*N*g^2/(kappa*gamma)).

    Built from the mean gamma and sum g^2, so for inhomogeneous wells it is
    the rate that sets window lengths and spectral resolutions.
    """
    gamma = sum(d.gamma for d in cfg.dipoles) / len(cfg.dipoles)
    ng2 = cfg.collective_coupling**2
    return gamma * (1.0 + 4.0 * ng2 / (cfg.cavity.kappa * gamma))


def envelope(t: float, p: PulseParams) -> float:
    """Gaussian envelope exp(-(t-t0)^2/(2 T^2)) at one time t, peak value 1 at t = t0."""
    return math.exp(-((t - p.center) ** 2) / (2.0 * p.duration**2))


def drive_amplitude(t: float, p: PulseParams, frame: Frame):
    """Complex drive F0*phi(t)*exp(-i w_d t) at one time t; the carrier phase
    is dropped in the rotating frame, where the value is a real float."""
    amp = p.amplitude * envelope(t, p)
    return amp if frame is Frame.ROTATING else amp * np.exp(-1j * p.carrier * t)


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


def _number(key: str, text) -> float:
    """A config value as a finite float; anything else is a ConfigError naming the key."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"value for {key!r} must be a finite number, got {text!r}")
    return value


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
            entry[fld] = _number(key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None

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


def read_input(path) -> str:
    """Text of an input file the user named; a missing or unreadable one is a ConfigError."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None


def load_config(path) -> SystemConfig:
    return parse_config(read_input(path))


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

    value = _number(key, value)
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
