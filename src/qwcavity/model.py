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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError


class Frame(enum.Enum):
    """The frame of every equation of motion and stored coherence: co-rotating
    at the drive carrier (`lab_signal` reads a coherence in the lab frame)."""

    ROTATING = "rotating"


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


def drive_amplitude(t: float, p: PulseParams) -> float:
    """Drive F0*phi(t) at one time t: real in the frame co-rotating at its carrier."""
    return p.amplitude * envelope(t, p)


# --- configuration file format -------------------------------------------
#
# Flat "key = value" lines; '#' starts a comment. The file lists the cavity
# keys, then dipoles[n].<key> for n = 0 .. N-1 (contiguous), then the pulse
# keys and `frame = rotating`, the one frame (a required key that takes no
# other value and cannot be overridden). The two tables below are the numeric
# keys: file key -> (part of SystemConfig, field), and dipole key -> field.
# A slot is (part or dipole index, field). The reader, the writers and
# set_config_value resolve a key with `_slot`, list a config's keys with
# `_entries` and build a config with `_build`.

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


def _slot(key: str) -> tuple:
    """The slot of a numeric file key; any other key is a ConfigError."""
    if m := _DIPOLE_KEY.match(key):
        return int(m.group(1)), _DIPOLE_FIELDS[m.group(2)]
    if key not in _SCALAR_FIELDS:
        raise ConfigError(f"unknown config key {key!r}")
    return _SCALAR_FIELDS[key]


def _entries(cfg: SystemConfig):
    """(file key, slot, value) of every numeric key of cfg, in file order."""
    scalars = list(_SCALAR_FIELDS.items())
    wells = [(f"dipoles[{n}].{key}", (n, fld))
             for n in range(cfg.n_wells) for key, fld in _DIPOLE_FIELDS.items()]
    for key, (where, fld) in scalars[:2] + wells + scalars[2:]:   # cavity, dipoles, pulse
        part = cfg.dipoles[where] if isinstance(where, int) else getattr(cfg, where)
        yield key, (where, fld), getattr(part, fld)


def _build(values: dict) -> SystemConfig:
    """The SystemConfig of slot -> value; a missing key or dipole is a ConfigError."""
    missing = [key for key, slot in _SCALAR_FIELDS.items() if slot not in values]
    if missing:
        raise ConfigError(f"missing keys: {sorted(missing)}")
    wells = sorted({where for where, _ in values if isinstance(where, int)})
    if not wells:
        raise ConfigError("no dipoles[n].* entries found")
    if wells != list(range(len(wells))):
        raise ConfigError(f"dipole indices must be contiguous from 0, got {wells}")
    fields = {where: {} for where in ("cavity", "pulse", *wells)}
    for (where, fld), value in values.items():
        fields[where][fld] = value
    for n in wells:
        if absent := set(_DIPOLE_FIELDS.values()) - fields[n].keys():
            raise ConfigError(f"dipoles[{n}] missing fields: {sorted(absent)}")
    return SystemConfig(cavity=CavityParams(**fields["cavity"]),
                        dipoles=tuple(DipoleParams(**fields[n]) for n in wells),
                        pulse=PulseParams(**fields["pulse"]))


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
    values: dict[tuple, float] = {}
    seen: dict[tuple, int] = {}   # slot, or ("frame",), -> line of its entry
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            slot = ("frame",) if key == "frame" else _slot(key)
            if slot in seen:
                raise ConfigError(f"key {key!r} repeats line {seen[slot]}")
            seen[slot] = lineno
            if key != "frame":
                values[slot] = _number(key, value)
            elif value != Frame.ROTATING.value:
                raise ConfigError(f"frame must be 'rotating', got {value!r}")
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    if ("frame",) not in seen:
        raise ConfigError("missing key 'frame'")
    return _build(values)


def format_config(cfg: SystemConfig) -> str:
    lines = [f"{key} = {float(value)!r}" for key, _, value in _entries(cfg)]
    return "\n".join(lines) + f"\nframe = {Frame.ROTATING.value}\n"


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
    out = {"cavity": {}, "pulse": {}, "dipoles": [{} for _ in cfg.dipoles]}
    for key, (where, _), value in _entries(cfg):
        part = out["dipoles"][where] if isinstance(where, int) else out[where]
        part[key.rsplit(".", 1)[1]] = value
    out["frame"] = Frame.ROTATING.value
    return out


def set_config_value(cfg: SystemConfig, key: str, value) -> SystemConfig:
    """Return a copy of cfg with one file-format key replaced.

    Accepts the same key grammar as the config file, so sweep axes and CLI
    overrides resolve against existing keys only; `frame` has one value and
    is refused.
    """
    if key == "frame":
        raise ConfigError("'frame' cannot be set: both solvers integrate in the rotating frame")
    value = _number(key, value)
    slot = _slot(key)
    if isinstance(slot[0], int) and slot[0] >= cfg.n_wells:
        raise ConfigError(f"{key!r}: config has only {cfg.n_wells} dipole(s)")
    return _build({**{s: v for _, s, v in _entries(cfg)}, slot: value})


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


BLOCK_ROWS = 4096  # rows per block of a written table, samples per dense-output group


def table_rows(*arrays):
    """Rows across equal-length arrays as Python scalars (`_fmt`'s fast
    branch), converted BLOCK_ROWS at a time, so no whole column becomes a
    list; columns of unequal length are a ValidationError, not truncated."""
    if len({len(a) for a in arrays}) > 1:
        raise ValidationError(f"table columns differ in length: {[len(a) for a in arrays]}")
    return itertools.chain.from_iterable(zip(*(a[i:i + BLOCK_ROWS].tolist() for a in arrays))
                                         for i in range(0, len(arrays[0]), BLOCK_ROWS))


def write_table(path, comments, columns, rows) -> None:
    """CSV with one '# ' line per comment, a header row and one line per row.

    Rows are formatted and written BLOCK_ROWS at a time, so a long table is
    never held as one string; with rows from table_rows, no column is held
    as Python scalars either.
    """
    rows = iter(rows)
    with open(path, "w") as f:
        f.write("".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n")
        while block := [",".join(map(_fmt, row)) for row in itertools.islice(rows, BLOCK_ROWS)]:
            f.write("\n".join(block) + "\n")


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
