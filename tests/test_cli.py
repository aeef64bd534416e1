import json
import logging
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwcavity
from qwcavity import SolverError, format_config, parse_config, purcell_rate, set_config_value
from qwcavity.cli import ExperimentSpec, PRESET_IDS, _read_table, get_preset, main, two_well_config
from qwcavity.model import write_table

from conftest import standard_config


@pytest.fixture
def fast_config_path(tmp_path):
    """Larger gamma shrinks the FID window so CLI runs stay quick."""
    cfg = standard_config(u_over_gamma=1.0, f0_over_kappa=0.2, gamma=3.0, gamma2=3.0)
    path = tmp_path / "config.txt"
    path.write_text(format_config(cfg))
    return path


def read_data_files(outdir):
    return {
        f.name: f.read_bytes()
        for f in sorted(outdir.iterdir())
        if f.name != "manifest.json"
    }


class TestSimulate:
    def test_writes_trajectory_and_manifest(self, tmp_path, fast_config_path):
        out = tmp_path / "run"
        rc = main(["simulate", "--config", str(fast_config_path), "--out", str(out)])
        assert rc == 0
        assert (out / "meanfield.csv").exists()
        assert (out / "meanfield.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        names = {e["path"] for e in manifest["files"]}
        assert names == {"meanfield.csv", "meanfield.json"}
        import hashlib

        for entry in manifest["files"]:
            digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_override_changes_output(self, tmp_path, fast_config_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["simulate", "--config", str(fast_config_path), "--out", str(out1)]) == 0
        assert main([
            "simulate", "--config", str(fast_config_path), "--out", str(out2),
            "--override", "pulse.F0=1.2",
        ]) == 0
        assert (out1 / "meanfield.csv").read_bytes() != (out2 / "meanfield.csv").read_bytes()

    def test_lindblad_solver_with_checkpoints(self, tmp_path, fast_config_path):
        out = tmp_path / "lb"
        rc = main([
            "simulate", "--config", str(fast_config_path), "--solver", "lindblad",
            "--out", str(out), "--n-photon-max", "4", "--checkpoints",
        ])
        assert rc == 0
        assert (out / "lindblad.csv").exists()
        assert (out / "checkpoints.bin").exists()
        header = json.loads((out / "checkpoints.json").read_text())
        assert header["dtype"] == "complex128"


class TestLogging:
    def test_fock_escalation_logged_at_warning(self, tmp_path, fast_config_path, caplog):
        args = ["simulate", "--config", str(fast_config_path), "--solver", "lindblad",
                "--n-photon-max", "1", "--nu-max", "1", "--out", str(tmp_path / "run")]
        with caplog.at_level(logging.WARNING, logger="qwcavity"):
            assert main(args) == 0
        escalations = [r for r in caplog.records if r.name == "qwcavity"]
        assert escalations and all(r.levelno == logging.WARNING for r in escalations)
        assert "n_photon_max=3" in escalations[0].getMessage()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pooled_escalations_reach_stderr(self, tmp_path, fast_config_path, caplog, method):
        """Pool workers have no handler of their own; logging's last resort prints there too."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        args = ["sweep", "--config", str(fast_config_path), "--solver", "lindblad",
                "--n-photon-max", "1", "--nu-max", "1", "--axis", "pulse.F0=1.2,2.4"]
        with caplog.at_level(logging.WARNING, logger="qwcavity"):
            assert main(args + ["--jobs", "1", "--out", str(tmp_path / "serial")]) == 0
        expected = sorted(r.getMessage() for r in caplog.records if r.name == "qwcavity")
        assert expected
        script = ("import multiprocessing, sys; multiprocessing.set_start_method(sys.argv[1]); "
                  "from qwcavity.cli import main; sys.exit(main(sys.argv[2:]))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(qwcavity.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", script, method, *args, "--jobs", "2",
             "--out", str(tmp_path / "pooled")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert sorted(proc.stderr.splitlines()) == expected
        assert read_data_files(tmp_path / "pooled") == read_data_files(tmp_path / "serial")


class TestRunSpec:
    def test_empty_sweep_undriven_writes_zero_trajectory(self, tmp_path):
        # a spec without axes is refused; the single run is `simulate`
        from qwcavity import ConfigError

        cfg = set_config_value(
            standard_config(gamma=3.0, gamma2=3.0), "pulse.F0", 0.0
        )
        with pytest.raises(ConfigError):
            ExperimentSpec(config=cfg, out=str(tmp_path / "empty"))
        config_path = tmp_path / "undriven.txt"
        config_path.write_text(format_config(cfg))
        out = tmp_path / "empty"
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        data = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in
             (out / "meanfield.csv").read_text().splitlines()[4:]]
        )
        assert np.abs(data).max() == 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {e["path"] for e in manifest["files"]} == {"meanfield.csv", "meanfield.json"}

    def test_unknown_solver_rejected(self):
        from qwcavity import ConfigError

        with pytest.raises(ConfigError):
            ExperimentSpec(config=standard_config(), solver="exact")


class TestSweepAndReproducibility:
    def test_sweep_table_and_byte_stability(self, tmp_path, fast_config_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        args = [
            "sweep", "--config", str(fast_config_path),
            "--axis", "pulse.F0=0.6,1.2,2.4", "--jobs", "1",
        ]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert read_data_files(out1) == read_data_files(out2)
        table = (out1 / "sweep_meanfield.csv").read_text().splitlines()
        assert table[2] == "pulse.F0,dphi_cavity,dphi_dipole"
        assert len(table) == 6

    def test_unknown_axis_key_is_config_error(self, tmp_path, fast_config_path):
        rc = main([
            "sweep", "--config", str(fast_config_path),
            "--axis", "pulse.area=1,2", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2


class TestSpectrumCommand:
    def test_writes_phase_spectrum(self, tmp_path, fast_config_path):
        out = tmp_path / "spec"
        rc = main([
            "spectrum", "--config", str(fast_config_path), "--source", "cavity",
            "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "spectrum_meanfield_cavity.csv").read_text().splitlines()
        assert lines[3] == "omega,re,im,magnitude,phase_unwrapped"
        assert len(lines) > 100


class TestFitAlphaCommand:
    def test_fit_from_synthetic_table(self, tmp_path, fast_config_path):
        cfg = parse_config(fast_config_path.read_text())
        gamma_tilde = purcell_rate(cfg)
        u, n = cfg.dipoles[0].anharmonicity, 2
        rows = ["f0_over_kappa,dphi_cavity"]
        for r in np.linspace(0.02, 0.2, 7):
            rows.append(f"{float(r)!r},{float(3.5 * (2 * u / (n * gamma_tilde)) * r**2)!r}")
        table = tmp_path / "table.csv"
        table.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fit"
        rc = main([
            "fit-alpha", "--config", str(fast_config_path),
            "--table", str(table), "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads((out / "alpha_fit.json").read_text())
        assert payload["alpha"] == pytest.approx(3.5, rel=1e-9)

    def test_too_few_points_is_validation_error(self, tmp_path, fast_config_path):
        table = tmp_path / "table.csv"
        table.write_text("f0_over_kappa,dphi_cavity\n0.1,0.01\n0.2,0.04\n")
        rc = main([
            "fit-alpha", "--config", str(fast_config_path),
            "--table", str(table), "--out", str(tmp_path / "fit"),
        ])
        assert rc == 4


class TestReadTable:
    def test_reads_written_table_back_exactly(self, tmp_path):
        rows = [(0.1, 1e-300, -0.0, 3), (2.5, float("nan"), 1e300, np.int64(-4))]
        path = tmp_path / "t.csv"
        write_table(path, ["solver: meanfield", "baseline: harmonic"], ["a", "b", "c", "d"], rows)
        cols, got = _read_table(path)
        assert cols == ["a", "b", "c", "d"]
        assert [[repr(v) for v in row] for row in got] == [
            [repr(float(v)) for v in row] for row in rows
        ]


class TestCompareCommand:
    def _table(self, path, values):
        rows = ["f0_over_kappa,dphi_cavity"]
        rows += [f"{r!r},{v!r}" for r, v in values]
        path.write_text("\n".join(rows) + "\n")

    def test_identical_bundles_ratio_one(self, tmp_path):
        values = [(0.1, 0.01), (0.2, 0.04), (0.3, 0.09)]
        self._table(tmp_path / "mf.csv", values)
        self._table(tmp_path / "lb.csv", values)
        rc = main([
            "compare", "--meanfield", str(tmp_path / "mf.csv"),
            "--lindblad", str(tmp_path / "lb.csv"), "--out", str(tmp_path / "cmp"),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "cmp" / "compare.json").read_text())
        assert all(p["ratio"] == 1.0 for p in report["points"])
        assert all(p["regime"] == "agree" for p in report["points"])

    def test_axis_mismatch_rejected(self, tmp_path):
        self._table(tmp_path / "mf.csv", [(0.1, 0.01), (0.2, 0.04)])
        self._table(tmp_path / "lb.csv", [(0.1, 0.01), (0.25, 0.04)])
        rc = main([
            "compare", "--meanfield", str(tmp_path / "mf.csv"),
            "--lindblad", str(tmp_path / "lb.csv"), "--out", str(tmp_path / "cmp"),
        ])
        assert rc == 4


class TestExitCodes:
    def test_bad_config_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("cavity.quality = 7\n")
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_bad_override(self, tmp_path, fast_config_path):
        rc = main([
            "simulate", "--config", str(fast_config_path),
            "--override", "nonsense", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2

    def test_solver_failure_maps_to_three(self, tmp_path, fast_config_path, monkeypatch):
        import qwcavity.cli as cli

        def boom(*args, **kwargs):
            raise SolverError("stiffness failure")

        monkeypatch.setattr(cli, "_solve", boom)
        rc = main(["simulate", "--config", str(fast_config_path), "--out", str(tmp_path / "o")])
        assert rc == 3


class TestPresets:
    def test_all_presets_round_trip_through_parser(self):
        for preset_id in PRESET_IDS:
            preset = get_preset(preset_id)
            assert parse_config(format_config(preset.base)) == preset.base

    def test_preset_base_parameters(self):
        base = get_preset("fig3").base
        assert base.cavity.omega_c == 40.0
        assert base.cavity.kappa == 12.0
        assert base.dipoles[0].gamma == 0.6
        assert base.pulse.duration == 0.155
        assert base.pulse.center == 0.6
        # sqrt(N) g = 1
        assert base.collective_coupling == pytest.approx(1.0)

    def test_override_requires_explicit_flag(self, tmp_path):
        # presets are frozen: preset has no --override, and argparse exits with 2
        with pytest.raises(SystemExit) as exc:
            main([
                "preset", "fig3", "--out", str(tmp_path / "p"),
                "--override", "pulse.F0=1.0",
            ])
        assert exc.value.code == 2

    def test_fig5c_preset_runs(self, tmp_path):
        out = tmp_path / "fig5c"
        rc = main(["preset", "fig5c", "--out", str(out), "--n-photon-max", "4", "--jobs", "1"])
        assert rc == 0
        table = (out / "fig5c_p2.csv").read_text().splitlines()
        assert table[1] == "t,p2_u0.5,p2_u1.0,p2_u2.0"
        manifest = json.loads((out / "manifest.json").read_text())
        assert any(e["path"] == "fig5c_p2.csv" for e in manifest["files"])

    def test_two_well_config_shape(self):
        cfg = two_well_config(u_over_gamma=0.5, f0_over_kappa=0.3, gamma2=0.9, omega2=41.6)
        assert cfg.dipoles[1].gamma == 0.9
        assert cfg.dipoles[1].omega == 41.6
        assert cfg.dipoles[0].anharmonicity == pytest.approx(0.3)
        assert cfg.pulse.amplitude == pytest.approx(0.3 * 12.0)
