import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwcavity import (
    CavityParams,
    ConfigError,
    DipoleParams,
    Frame,
    PulseParams,
    SystemConfig,
    drive_amplitude,
    effective_decay,
    envelope,
    format_config,
    parse_config,
    set_config_value,
)
from qwcavity.model import (
    _DIPOLE_FIELDS,
    _SCALAR_FIELDS,
    config_digest,
    config_to_dict,
    write_json,
    write_table,
)

from conftest import standard_config


class TestPurcellRate:
    def test_reference_value(self):
        cfg = standard_config()
        assert effective_decay(cfg) == pytest.approx(0.6 * (1 + 4.0 / 7.2), rel=1e-12)

    def test_uncoupled_limit(self):
        cfg = standard_config()
        cfg = set_config_value(cfg, "dipoles[0].g", 0.0)
        cfg = set_config_value(cfg, "dipoles[1].g", 0.0)
        assert effective_decay(cfg) == 0.6

    def test_enhancement_linear_in_ng2(self):
        cfg1 = standard_config()
        cfg2 = standard_config()
        for n in range(2):
            cfg2 = set_config_value(cfg2, f"dipoles[{n}].g", 1.0)  # N g^2: 1 -> 2
        # doubling N g^2 at fixed kappa, gamma doubles the enhancement
        enh1 = effective_decay(cfg1) - 0.6
        enh2 = effective_decay(cfg2) - 0.6
        assert enh2 == pytest.approx(2.0 * enh1, rel=1e-12)

    @given(g_low=st.floats(0.01, 2.0), scale=st.floats(1.01, 4.0))
    def test_strictly_increasing_in_coupling(self, g_low, scale):
        def rate(g):
            cfg = standard_config()
            cfg = set_config_value(cfg, "dipoles[0].g", g)
            cfg = set_config_value(cfg, "dipoles[1].g", g)
            return effective_decay(cfg)

        assert rate(g_low * scale) > rate(g_low)


class TestPulse:
    PULSE = PulseParams(amplitude=2.4, carrier=40.0, center=0.6, duration=0.155)

    def test_peak_is_one(self):
        assert envelope(0.6, self.PULSE) == 1.0

    def test_two_sigma_value(self):
        assert envelope(0.6 + 2 * 0.155, self.PULSE) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_even_envelope(self):
        left = envelope(0.6 - 2 * 0.155, self.PULSE)
        right = envelope(0.6 + 2 * 0.155, self.PULSE)
        assert left == pytest.approx(right, rel=1e-12)

    def test_zero_amplitude_drive(self):
        p = PulseParams(amplitude=0.0, carrier=40.0, center=0.6, duration=0.155)
        assert drive_amplitude(1.0, p, Frame.LAB) == 0.0

    def test_rotating_frame_peak(self):
        assert drive_amplitude(0.6, self.PULSE, Frame.ROTATING) == pytest.approx(2.4)

    def test_lab_frame_carrier_phase(self):
        # carrier phase pi at the pulse center flips the sign
        p = PulseParams(amplitude=2.4, carrier=math.pi / 0.6, center=0.6, duration=0.155)
        value = drive_amplitude(0.6, p, Frame.LAB)
        assert value == pytest.approx(-2.4, rel=1e-12)


class TestValidation:
    def test_gamma_must_be_positive(self):
        with pytest.raises(ConfigError):
            DipoleParams(omega=40.0, anharmonicity=0.6, gamma=0.0, coupling=1.0)

    def test_anharmonicity_nonnegative(self):
        with pytest.raises(ConfigError):
            DipoleParams(omega=40.0, anharmonicity=-0.1, gamma=0.6, coupling=1.0)

    def test_kappa_positive(self):
        with pytest.raises(ConfigError):
            CavityParams(omega_c=40.0, kappa=-1.0)

    def test_duration_positive(self):
        with pytest.raises(ConfigError):
            PulseParams(amplitude=1.0, carrier=40.0, center=0.0, duration=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("params, name", [
        pytest.param(p, f.name, id=f"{type(p).__name__}.{f.name}")
        for p in (DipoleParams(omega=40.0, anharmonicity=0.6, gamma=0.6, coupling=1.0),
                  CavityParams(omega_c=40.0, kappa=12.0),
                  PulseParams(amplitude=1.0, carrier=40.0, center=0.6, duration=0.155))
        for f in fields(p)
    ])
    def test_non_finite_field_rejected(self, params, name, value):
        """Built through the API, not parsed from text: each type checks its own fields."""
        with pytest.raises(ConfigError, match=rf"^{type(params).__name__}\.{name} must be finite"):
            replace(params, **{name: value})

    def test_dipole_list_becomes_a_hashable_tuple(self, base_config):
        cfg = replace(base_config, dipoles=list(base_config.dipoles))
        assert cfg.dipoles == base_config.dipoles and isinstance(cfg.dipoles, tuple)
        assert hash(cfg) == hash(base_config)

    def test_needs_a_dipole(self):
        with pytest.raises(ConfigError):
            SystemConfig(
                cavity=CavityParams(omega_c=40.0, kappa=12.0),
                dipoles=(),
                pulse=PulseParams(amplitude=1.0, carrier=40.0, center=0.6, duration=0.155),
            )


class TestConfigFile:
    def test_round_trip(self, base_config):
        assert parse_config(format_config(base_config)) == base_config

    def test_normative_keys_present(self, base_config):
        text = format_config(base_config)
        for key in (
            "cavity.omega_c",
            "cavity.kappa",
            "dipoles[0].omega",
            "dipoles[1].U",
            "dipoles[0].gamma",
            "dipoles[1].g",
            "pulse.F0",
            "pulse.omega_d",
            "pulse.t0",
            "pulse.T",
            "frame",
        ):
            assert f"{key} = " in text

    def test_comments_and_blank_lines_ignored(self, base_config):
        text = "# a comment\n\n" + format_config(base_config) + "\n# trailing\n"
        assert parse_config(text) == base_config

    def test_unknown_key_rejected(self, base_config):
        text = format_config(base_config) + "cavity.quality = 3\n"
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_missing_key_rejected(self, base_config):
        lines = [l for l in format_config(base_config).splitlines() if not l.startswith("pulse.T")]
        with pytest.raises(ConfigError):
            parse_config("\n".join(lines))

    def test_bad_frame_rejected(self, base_config):
        text = format_config(base_config).replace("frame = rotating", "frame = spinning")
        with pytest.raises(ConfigError):
            parse_config(text)
        with pytest.raises(ConfigError, match="frame must be 'lab' or 'rotating', got 'sideways'"):
            set_config_value(base_config, "frame", "sideways")

    @pytest.mark.parametrize("drop, extra, match", [
        (None, "cavity.kappa 12.0", "expected 'key = value', got 'cavity.kappa 12.0'"),
        ("frame", "", "missing key 'frame'"),
        ("dipoles", "", r"no dipoles\[n\]\.\* entries found"),
        ("dipoles[1].g =", "", r"dipoles\[1\] missing fields: \['coupling'\]"),
    ], ids=["line_without_equals", "no_frame", "no_dipoles", "dipole_missing_field"])
    def test_malformed_text_rejected(self, base_config, drop, extra, match):
        lines = [ln for ln in format_config(base_config).splitlines()
                 if drop is None or not ln.startswith(drop)]
        with pytest.raises(ConfigError, match=match):
            parse_config("\n".join(lines + [extra]))

    def test_non_contiguous_dipoles_rejected(self, base_config):
        text = format_config(base_config).replace("dipoles[1]", "dipoles[3]")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_digest_stable(self, base_config):
        assert config_digest(base_config) == config_digest(parse_config(format_config(base_config)))

    def test_set_config_value_paths(self, base_config):
        cfg = set_config_value(base_config, "pulse.F0", 1.2)
        assert cfg.pulse.amplitude == 1.2
        cfg = set_config_value(cfg, "dipoles[1].gamma", 0.9)
        assert cfg.dipoles[1].gamma == 0.9
        assert cfg.dipoles[0].gamma == 0.6
        cfg = set_config_value(cfg, "frame", "lab")
        assert cfg.frame is Frame.LAB

    def test_set_unknown_key_rejected(self, base_config):
        with pytest.raises(ConfigError):
            set_config_value(base_config, "pulse.area", 1.0)
        with pytest.raises(ConfigError):
            set_config_value(base_config, "dipoles[5].g", 1.0)


# every numeric file key of a two-well config
FILE_KEYS = list(_SCALAR_FIELDS) + [f"dipoles[{n}].{k}" for n in range(2) for k in _DIPOLE_FIELDS]


class TestConfigKeys:
    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from(FILE_KEYS), value=st.floats(0.01, 100.0))
    def test_every_key_sets_formats_and_parses(self, key, value):
        cfg = set_config_value(standard_config(), key, value)
        text = format_config(cfg)
        assert f"\n{key} = {value!r}\n" in "\n" + text
        assert parse_config(text) == cfg
        nested = config_to_dict(cfg)
        m = re.match(r"dipoles\[(\d+)\]\.(\w+)$", key)
        entry = nested["dipoles"][int(m.group(1))] if m else nested[key.split(".")[0]]
        assert entry[key.rsplit(".", 1)[1]] == value
        with pytest.raises(ConfigError):
            set_config_value(cfg, key, "fast")
        with pytest.raises(ConfigError):
            parse_config(text.replace(f"{key} = {value!r}", f"{key} = fast"))

    def test_repeated_key_rejected_with_both_lines(self):
        text = format_config(standard_config())
        first = text.splitlines().index(f"pulse.F0 = {standard_config().pulse.amplitude!r}") + 1
        last = text.count("\n") + 1
        with pytest.raises(ConfigError, match=rf"line {last}: .*repeats line {first}$"):
            parse_config(text + "pulse.F0 = 9.0\n")

    @pytest.mark.parametrize("key", FILE_KEYS + ["frame"])
    def test_every_key_rejected_when_repeated(self, key):
        text = format_config(standard_config())
        line = next(ln for ln in text.splitlines() if ln.startswith(f"{key} = "))
        with pytest.raises(ConfigError, match="repeats line"):
            parse_config(text + line + "\n")
        # the same slot spelled with another index format is a repeat too
        if key.startswith("dipoles[0]"):
            with pytest.raises(ConfigError, match="repeats line"):
                parse_config(text + line.replace("[0]", "[00]") + "\n")

    @given(n=st.integers(2, 40), key=st.sampled_from(sorted(_DIPOLE_FIELDS)))
    def test_out_of_range_dipole_index_rejected(self, n, key):
        with pytest.raises(ConfigError):
            set_config_value(standard_config(), f"dipoles[{n}].{key}", 1.0)

    def test_nested_dict_layout(self, base_config):
        nested = config_to_dict(base_config)
        assert nested["cavity"] == {"omega_c": 40.0, "kappa": 12.0}
        assert nested["pulse"] == {"F0": 0.2 * 12.0, "omega_d": 40.0, "t0": 0.6, "T": 0.155}
        g = 1.0 / math.sqrt(2)
        assert nested["dipoles"][1] == {"omega": 40.0, "U": 0.6, "gamma": 0.6, "g": g}
        assert nested["frame"] == "rotating"


class TestDataFiles:
    def test_write_table_exact_text(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [
            (0.1, np.int64(3), "peak"),
            (1e-300, -7, "dip"),
            (np.float64(-0.0), float("nan"), np.int32(-2)),
        ]
        write_table(path, ["note", "gamma = 0.6"], ["x", "y", "kind"], rows)
        assert path.read_text() == (
            "# note\n# gamma = 0.6\nx,y,kind\n0.1,3,peak\n1e-300,-7,dip\n-0.0,nan,-2\n"
        )

    def test_write_table_without_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, [], ["t", "delay"], [])
        assert path.read_text() == "t,delay\n"

    def test_write_table_spanning_several_blocks(self, tmp_path):
        path = tmp_path / "t.csv"
        t = 1e-4 * np.arange(10_000)
        write_table(path, ["frame: rotating"], ["t", "x"], zip(t.tolist(), (-t).tolist()))
        expected = "".join(f"{v!r},{-v!r}\n" for v in t.tolist())
        assert path.read_text() == "# frame: rotating\nt,x\n" + expected

    def test_write_json_exact_text(self, tmp_path):
        path = tmp_path / "p.json"
        payload = {"b": [0.1, 1e-300, np.float64(-0.0)], "a": {"n": 3, "s": "x"}, "c": float("nan")}
        write_json(path, payload)
        assert path.read_text() == (
            '{\n  "a": {\n    "n": 3,\n    "s": "x"\n  },\n'
            '  "b": [\n    0.1,\n    1e-300,\n    -0.0\n  ],\n  "c": NaN\n}\n'
        )
