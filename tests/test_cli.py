import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwcavity
from qwcavity import (
    ConfigError,
    SolverError,
    SpectralPolicy,
    ValidationError,
    baseline_config,
    effective_decay,
    fid_time_span,
    format_config,
    integrate,
    load_config,
    nonlinear_phase_shift,
    parse_config,
    set_config_value,
)
import qwcavity.cli as cli
from qwcavity.cli import PRESET_BASE, PRESET_IDS, _read_table, main, two_well_config
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

    @pytest.mark.parametrize("given_by", ["config", "override"])
    def test_lab_frame_is_config_error(self, given_by, tmp_path, fast_config_path, capsys):
        # both solvers integrate in the rotating frame only
        if given_by == "config":
            path = tmp_path / "lab.txt"
            path.write_text(fast_config_path.read_text().replace("frame = rotating", "frame = lab"))
            argv = ["--config", str(path)]
        else:
            argv = ["--config", str(fast_config_path), "--override", "frame=lab"]
        assert main(["simulate", *argv, "--solver", "both", "--out", str(tmp_path / "o")]) == 2
        assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def run_pooled(method, argv):
    """`qwcavity` in a fresh interpreter whose pool workers start by `method`."""
    script = ("import multiprocessing, sys; multiprocessing.set_start_method(sys.argv[1]); "
              "from qwcavity.cli import main; sys.exit(main(sys.argv[2:]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(qwcavity.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", script, method, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("method", ["fork", "spawn"])
class TestPooledMatchesSerial:
    """A --jobs 2 sweep against the same sweep at --jobs 1. Only mean-field sweeps
    pool (TestPoolScope); a Lindblad sweep must fail the same way at either."""

    def test_pooled_sweep_writes_the_serial_data(self, method, tmp_path, fast_config_path):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        # 2 runs and 2 harmonic baselines: two lane batches of two at --jobs 2
        args = ["sweep", "--config", str(fast_config_path), "--axis", "pulse.F0=0.6,1.2"]
        assert main(args + ["--jobs", "1", "--out", str(tmp_path / "serial")]) == 0
        proc = run_pooled(method, args + ["--jobs", "2", "--out", str(tmp_path / "pooled")])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert read_data_files(tmp_path / "pooled") == read_data_files(tmp_path / "serial")
        assert list(read_data_files(tmp_path / "serial")) == ["sweep_meanfield.csv"]
        cols, rows = _read_table(tmp_path / "serial" / "sweep_meanfield.csv")
        assert len(rows) == 2 and all(row[cols.index("dphi_cavity")] != 0.0 for row in rows)

    def test_truncation_failure_is_the_serial_one(self, method, tmp_path, fast_config_path,
                                                  capsys):
        """The cutoff given is the cutoff solved at: --jobs 1 or 2, the same exit 3."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        args = ["sweep", "--config", str(fast_config_path), "--solver", "lindblad",
                "--n-photon-max", "1", "--nu-max", "2", "--axis", "pulse.F0=0.3,0.6"]
        assert main(args + ["--jobs", "1", "--out", str(tmp_path / "serial")]) == 3
        serial = capsys.readouterr().err
        assert serial.startswith("solver failure: ") and serial.count("\n") == 1
        assert "(n_photon_max=1 too low for this drive)" in serial
        proc = run_pooled(method, args + ["--jobs", "2", "--out", str(tmp_path / "pooled")])
        assert (proc.returncode, proc.stderr) == (3, serial)
        for out in ("serial", "pooled"):
            assert not any((tmp_path / out).iterdir())


def record_pools(monkeypatch) -> list:
    """Put a stand-in for cli's process pool that runs the tasks in this process,
    and return the list it fills with the worker count of each pool built."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    return sizes


class TestPoolScope:
    """--jobs fans out mean-field lane batches only: pooled Lindblad workers' BLAS
    threads contend for the cores that one evolve already uses."""

    def test_lindblad_sweep_builds_no_pool(self, tmp_path, fast_config_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a Lindblad sweep built a process pool")

        args = ["sweep", "--config", str(fast_config_path), "--solver", "lindblad",
                "--n-photon-max", "2", "--nu-max", "2", "--axis", "pulse.F0=0.3,0.6"]
        assert main(args + ["--jobs", "1", "--out", str(tmp_path / "serial")]) == 0
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        assert main(args + ["--jobs", "2", "--out", str(tmp_path / "jobs2")]) == 0
        assert read_data_files(tmp_path / "jobs2") == read_data_files(tmp_path / "serial")

    @pytest.mark.parametrize("jobs", [2, 5000])
    def test_meanfield_sweep_builds_one_pool(self, jobs, fast_config_path, monkeypatch):
        cfg = load_config(fast_config_path)
        points = [((f0,), set_config_value(cfg, "pulse.F0", f0)) for f0 in (0.6, 1.2)]
        serial = cli.sweep_phase_shifts(points, "meanfield", SpectralPolicy())
        sizes = record_pools(monkeypatch)
        assert cli.sweep_phase_shifts(points, "meanfield", SpectralPolicy(), jobs=jobs) == serial
        assert sizes == [min(jobs, 4)]   # 2 runs and 2 baselines

    def test_both_solvers_pool_the_meanfield_half_only(self, tmp_path, fast_config_path,
                                                       monkeypatch):
        """As preset fig5a: one table, mean-field and Lindblad columns, at --jobs 2."""
        cfg = load_config(fast_config_path)
        points = [((f0,), set_config_value(cfg, "pulse.F0", f0)) for f0 in (0.3, 0.6)]

        def table(name, jobs):
            return cli._phase_table(tmp_path / name, [], ["f0", "dphi_mf", "dphi_lb"], points,
                                    ("meanfield", "lindblad"), SpectralPolicy(), jobs=jobs,
                                    n_photon_max=2, nu_max=2)

        serial = table("serial.csv", 1)
        sizes = record_pools(monkeypatch)
        assert table("jobs2.csv", 2) == serial
        assert sizes == [2]
        assert (tmp_path / "jobs2.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


def refuse_solves(monkeypatch) -> None:
    """Make every solver entry point the CLI calls fail the test if it is reached."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a solve started before the inputs were checked")

    for name in ("integrate", "integrate_batch", "evolve"):
        monkeypatch.setattr(cli, name, unreachable)


class TestLibraryChecks:
    """What the CLI refuses, the library functions under it refuse too, before any solve."""

    @pytest.mark.parametrize("solver", ["lindbald", "both", "Meanfield", ""])
    def test_unknown_solver_is_validation_error(self, solver, monkeypatch):
        refuse_solves(monkeypatch)
        cfg = standard_config(gamma=3.0, gamma2=3.0)
        named = rf"unknown solver {solver!r}: use 'meanfield' or 'lindblad'"
        with pytest.raises(ValidationError, match=named):
            cli.sweep_phase_shifts([((1.0,), cfg)], solver, SpectralPolicy())
        with pytest.raises(ValidationError, match=named):
            cli._solve(cfg, solver, SpectralPolicy(), 4, 2)

    def test_lindblad_sweep_of_two_level_wells_is_config_error(self, monkeypatch):
        """At nu_max 1 no Kerr term exists, so a Lindblad Delta Phi would be exactly 0."""
        refuse_solves(monkeypatch)
        points = [((1.0, 0.1), two_well_config(u_over_gamma=1.0, f0_over_kappa=0.1))]
        with pytest.raises(ConfigError, match="--nu-max 1 leaves each well without a second level"):
            cli.sweep_phase_shifts(points, "lindblad", SpectralPolicy(), n_photon_max=4, nu_max=1,
                                   dt=0.004)


class TestRunSpec:
    def test_empty_sweep_undriven_writes_zero_trajectory(self, tmp_path):
        # a sweep without axes is a usage error; the single run is `simulate`
        cfg = set_config_value(
            standard_config(gamma=3.0, gamma2=3.0), "pulse.F0", 0.0
        )
        config_path = tmp_path / "undriven.txt"
        config_path.write_text(format_config(cfg))
        out = tmp_path / "empty"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(config_path), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()
        assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
        data = np.array(
            [[float(v) for v in line.split(",")[1:]] for line in
             (out / "meanfield.csv").read_text().splitlines()[4:]]
        )
        assert np.abs(data).max() == 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {e["path"] for e in manifest["files"]} == {"meanfield.csv", "meanfield.json"}

    def test_unknown_solver_rejected(self, tmp_path, fast_config_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", str(fast_config_path), "--solver", "exact",
                  "--axis", "pulse.F0=1.2", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2


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

    def test_lindblad_bytes_do_not_depend_on_blas_threads(self, tmp_path, fast_config_path):
        # evolve runs numpy's OpenBLAS on one thread whatever OPENBLAS_NUM_THREADS says
        from qwcavity import lindblad
        if lindblad._blas_threads() is None:
            pytest.skip("numpy has no bundled OpenBLAS with a thread-count setter")
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(qwcavity.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH", "")])
        args = ["sweep", "--config", str(fast_config_path), "--solver", "lindblad", "--jobs", "1",
                "--n-photon-max", "4", "--nu-max", "2", "--axis", "pulse.F0=1.2,2.4"]
        files = []
        for name, extra in (("default", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
            proc = subprocess.run([sys.executable, "-m", "qwcavity.cli", *args, "--out", str(tmp_path / name)],
                                  capture_output=True, text=True, env={**env, **extra}, timeout=300)
            assert (proc.returncode, proc.stderr) == (0, "")
            files.append(read_data_files(tmp_path / name))
        assert files[0] == files[1]
        assert list(files[0]) == ["sweep_lindblad.csv"]

    def test_shared_baselines_give_the_single_run_shift(self, fast_config_path):
        # two anharmonicities share one harmonic baseline in the sweep
        policy = SpectralPolicy()
        cfg = load_config(fast_config_path)
        points = [((u,), set_config_value(set_config_value(cfg, "dipoles[0].U", u),
                                          "dipoles[1].U", u)) for u in (0.3, 0.6)]
        swept = cli.sweep_phase_shifts(points, "meanfield", policy, sources=("cavity", "bright"))
        assert len({format_config(baseline_config(c, policy)) for _, c in points}) == 1
        for (_, shifts), (_, point) in zip(swept, points):
            span = fid_time_span(point, policy)
            run = integrate(point, span)
            base = integrate(baseline_config(point, policy), span)
            for src in ("cavity", "bright"):
                assert shifts[src] == nonlinear_phase_shift(run, base, policy, src)
            assert shifts["cavity"] != 0.0

    def test_repeated_axis_key_is_config_error(self, tmp_path, fast_config_path, capsys):
        """The last axis would win in every config, so the first axis's labels would lie."""
        rc = main([
            "sweep", "--config", str(fast_config_path), "--axis", "pulse.F0=0.6",
            "--axis", "pulse.F0=1.2,2.4", "--jobs", "1", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert "config error: axis key 'pulse.F0' is given more than once" in (
            capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("values", ["0.6,0.6", "0.6,1.2,0.60"])
    def test_repeated_axis_value_is_config_error(self, values, tmp_path, fast_config_path,
                                                 capsys):
        """Two rows of one point would make a table that compare refuses."""
        rc = main(["sweep", "--config", str(fast_config_path), "--axis", f"pulse.F0={values}",
                   "--jobs", "1", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "config error: axis 'pulse.F0' repeats a value: pulse.F0=0.6," in (
            capsys.readouterr().err)
        assert not (tmp_path / "x").exists()

    def test_pool_is_no_larger_than_its_tasks(self, tmp_path, fast_config_path, monkeypatch):
        """A one-point sweep is two solves (run and baseline): --jobs 5000 asks for two
        workers. The pool is a stand-in that runs the tasks in this process."""
        args = ["sweep", "--config", str(fast_config_path), "--axis", "pulse.F0=1.2"]
        assert main(args + ["--jobs", "1", "--out", str(tmp_path / "serial")]) == 0
        sizes = record_pools(monkeypatch)
        assert main(args + ["--jobs", "5000", "--out", str(tmp_path / "pooled")]) == 0
        assert sizes == [2]
        assert read_data_files(tmp_path / "pooled") == read_data_files(tmp_path / "serial")

    @pytest.mark.parametrize("axis, message", [
        ("pulse.F0", "axis must look like key=v1,v2,..., got 'pulse.F0'"),
        ("pulse.F0=a,b", "axis values must be numeric: 'pulse.F0=a,b'"),
    ], ids=["no_values", "text_values"])
    def test_malformed_axis_is_config_error(self, axis, message, tmp_path, fast_config_path,
                                           capsys):
        rc = main(["sweep", "--config", str(fast_config_path), "--axis", axis,
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_axis_key_is_config_error(self, tmp_path, fast_config_path):
        rc = main([
            "sweep", "--config", str(fast_config_path),
            "--axis", "pulse.area=1,2", "--out", str(tmp_path / "x"),
        ])
        assert rc == 2
        assert not (tmp_path / "x").exists()


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

    def test_solver_both_is_usage_error(self, tmp_path, fast_config_path):
        # a spectrum is of one run: meanfield or lindblad
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--config", str(fast_config_path), "--solver", "both",
                  "--out", str(tmp_path / "spec")])
        assert exc.value.code == 2
        assert not (tmp_path / "spec").exists()


class TestFitAlphaCommand:
    def test_fit_from_synthetic_table(self, tmp_path, fast_config_path):
        cfg = parse_config(fast_config_path.read_text())
        gamma_tilde = effective_decay(cfg)
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

    def test_table_without_dphi_cavity_is_config_error(self, tmp_path, fast_config_path, capsys):
        """A fig5a/fig5b table has no dphi_cavity column; no other column stands in for it."""
        table = tmp_path / "fig5a_phase_shifts.csv"
        write_table(table, ["U = 0.5 gamma1; mean-field vs Lindblad"],
                    ["f0_over_kappa", "dphi_meanfield", "dphi_lindblad"],
                    [(r, r * r, 0.8 * r * r) for r in (0.05, 0.125, 0.2, 0.275, 0.35)])
        rc = main(["fit-alpha", "--config", str(fast_config_path),
                   "--table", str(table), "--out", str(tmp_path / "fit")])
        assert rc == 2
        assert f"config error: table {table} has no dphi_cavity column" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("rows, message", [
        ("-0.1,0.01\n0.1,0.01\n0.2,0.04\n0.3,0.09\n0.4,0.16\n",
         "drive ratios F0/kappa must be > 0, got -0.1"),
        ("0,0\n0,0\n0,0\n0,0\n0,0\n", "drive ratios F0/kappa must be > 0, got 0.0"),
        ("0.1,0\n0.2,0\n0.3,0\n0.4,0\n0.5,0\n", "dphi is zero at every drive point"),
    ], ids=["negative_ratio", "zeros", "all_zero_dphi"])
    def test_degenerate_table_is_validation_error(self, tmp_path, fast_config_path, capsys,
                                                  rows, message):
        table = tmp_path / "table.csv"
        table.write_text("f0_over_kappa,dphi_cavity\n" + rows)
        rc = main(["fit-alpha", "--config", str(fast_config_path),
                   "--table", str(table), "--out", str(tmp_path / "fit")])
        assert rc == 4
        assert f"validation failure: {message}" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("text, message", [
        ("# solver: meanfield\n# baseline: harmonic\n", "{table}: empty table"),
        ("dipoles[0].U,dphi_cavity\n0.3,0.01\n0.6,0.02\n",
         "table {table} lacks a drive column (f0_over_kappa or pulse.F0)"),
    ], ids=["comments_only", "no_drive_column"])
    def test_table_without_points_or_drive_is_config_error(self, text, message, tmp_path,
                                                          fast_config_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(text)
        rc = main(["fit-alpha", "--config", str(fast_config_path),
                   "--table", str(table), "--out", str(tmp_path / "fit")])
        assert rc == 2
        assert f"config error: {message.format(table=table)}" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_too_few_points_is_validation_error(self, tmp_path, fast_config_path):
        table = tmp_path / "table.csv"
        table.write_text("f0_over_kappa,dphi_cavity\n0.1,0.01\n0.2,0.04\n")
        rc = main([
            "fit-alpha", "--config", str(fast_config_path),
            "--table", str(table), "--out", str(tmp_path / "fit"),
        ])
        assert rc == 4


def _table_with_text_cell(tmp_path):
    """A drive/dphi table whose second data row (line 4) ends in a word."""
    table = tmp_path / "table.csv"
    table.write_text("# solver: meanfield\nf0_over_kappa,dphi_cavity,kind\n"
                     "0.1,0.01,1\n0.2,0.04,peak\n0.3,0.09,1\n")
    return table


class TestReadTable:
    def test_text_cell_in_fit_alpha_is_config_error(self, tmp_path, fast_config_path, capsys):
        table = _table_with_text_cell(tmp_path)
        rc = main(["fit-alpha", "--config", str(fast_config_path),
                   "--table", str(table), "--out", str(tmp_path / "fit")])
        assert rc == 2
        assert f"{table}, line 4, column kind: 'peak' is not a number" in capsys.readouterr().err
        assert not (tmp_path / "fit").exists()

    def test_text_cell_in_compare_is_config_error(self, tmp_path, capsys):
        table = _table_with_text_cell(tmp_path)
        (tmp_path / "lb.csv").write_text("f0_over_kappa,dphi_cavity\n0.1,0.01\n")
        rc = main(["compare", "--meanfield", str(table), "--lindblad", str(tmp_path / "lb.csv"),
                   "--out", str(tmp_path / "cmp")])
        assert rc == 2
        assert f"{table}, line 4, column kind: 'peak' is not a number" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("command", ["fit-alpha", "compare"])
    def test_ragged_row_is_config_error(self, command, tmp_path, fast_config_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("f0_over_kappa,dphi_cavity\n0.1,0.01\n0.2\n0.3,0.09\n")
        inputs = {"fit-alpha": ["--config", str(fast_config_path), "--table", str(table)],
                  "compare": ["--meanfield", str(table), "--lindblad", str(table)]}[command]
        assert main([command, *inputs, "--out", str(tmp_path / "o")]) == 2
        assert f"{table}, line 3 has 1 cells, its header 2" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, table_text, line, column, cell", [
        ("fit-alpha", "f0_over_kappa,dphi_cavity\n0.1,0.01\n0.2,nan\n0.3,0.09\n0.4,0.16\n"
         "0.5,0.25\n", 3, "dphi_cavity", "nan"),
        ("fit-alpha", "f0_over_kappa,dphi_cavity\n0.1,0.01\n0.2,0.04\n0.3,0.09\n0.4,0.16\n"
         "inf,0.25\n", 6, "f0_over_kappa", "inf"),
        ("compare", "f0_over_kappa,dphi_cavity\n0.1,0.01\n0.2,-inf\n", 3, "dphi_cavity", "-inf"),
        ("compare", "f0_over_kappa,dphi_cavity\n0.1,0.01\nnan,nan\n", 3, "f0_over_kappa", "nan"),
    ], ids=["fit_alpha_nan_dphi", "fit_alpha_inf_drive", "compare_inf", "compare_nan_row"])
    def test_non_finite_cell_is_config_error(self, command, table_text, line, column, cell,
                                             tmp_path, fast_config_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text(table_text)
        inputs = {"fit-alpha": ["--config", str(fast_config_path), "--table", str(table)],
                  "compare": ["--meanfield", str(table), "--lindblad", str(table)]}[command]
        assert main([command, *inputs, "--out", str(tmp_path / "o")]) == 2
        assert (f"{table}, line {line}, column {column}: {cell!r} is not a finite number"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_reads_written_table_back_exactly(self, tmp_path):
        rows = [(0.1, 1e-300, -0.0, 3), (2.5, 5e-324, 1e300, np.int64(-4))]
        path = tmp_path / "t.csv"
        write_table(path, ["solver: meanfield", "baseline: harmonic"], ["a", "b", "c", "d"], rows)
        cols, got = _read_table(path)
        assert cols == ["a", "b", "c", "d"]
        assert [[repr(v) for v in row] for row in got] == [
            [repr(float(v)) for v in row] for row in rows
        ]


class TestCompareCommand:
    def _table(self, path, values, header="f0_over_kappa,dphi_cavity"):
        rows = [header]
        rows += [",".join(repr(v) for v in row) for row in values]
        path.write_text("\n".join(rows) + "\n")

    def _compare(self, tmp_path):
        return main([
            "compare", "--meanfield", str(tmp_path / "mf.csv"),
            "--lindblad", str(tmp_path / "lb.csv"), "--out", str(tmp_path / "cmp"),
        ])

    def test_points_carry_one_key_per_axis_column(self, tmp_path):
        header = "pulse.F0,dipoles[0].gamma,dphi_cavity,dphi_dipole"
        values = [(0.6, 0.9, 0.02, 0.5), (0.6, 0.6, 0.01, 0.5), (1.2, 0.6, 0.04, 0.5)]
        self._table(tmp_path / "mf.csv", values, header)
        self._table(tmp_path / "lb.csv", [(f, g, 2 * v, d) for f, g, v, d in values], header)
        assert self._compare(tmp_path) == 0
        report = json.loads((tmp_path / "cmp" / "compare.json").read_text())
        assert [(p["pulse.F0"], p["dipoles[0].gamma"], p["ratio"]) for p in report["points"]] == [
            (0.6, 0.6, 0.5), (0.6, 0.9, 0.5), (1.2, 0.6, 0.5)
        ]
        assert all("f0_over_kappa" not in p for p in report["points"])

    def test_table_without_dphi_cavity_is_config_error(self, tmp_path, capsys):
        header = "f0_over_kappa,dphi_meanfield,dphi_lindblad"
        for name in ("mf.csv", "lb.csv"):
            self._table(tmp_path / name, [(0.1, 0.01, 0.01)], header)
        assert self._compare(tmp_path) == 2
        assert "dphi_cavity" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_repeated_axis_values_rejected(self, tmp_path, capsys):
        # a dict keyed by the axis values would keep only the last of the two rows
        header = "pulse.F0,dphi_cavity"
        self._table(tmp_path / "mf.csv", [(0.6, 0.01), (0.6, 0.05), (1.2, 0.04)], header)
        self._table(tmp_path / "lb.csv", [(0.6, 0.01), (1.2, 0.04)], header)
        assert self._compare(tmp_path) == 4
        assert f"table {tmp_path / 'mf.csv'} repeats axis values ['pulse.F0'] = [(0.6,)]" in (
            capsys.readouterr().err)
        assert not (tmp_path / "cmp").exists()

    def test_differing_axis_columns_rejected(self, tmp_path):
        values = [(0.1, 0.01), (0.2, 0.04)]
        self._table(tmp_path / "mf.csv", values)
        self._table(tmp_path / "lb.csv", values, "pulse.F0,dphi_cavity")
        assert self._compare(tmp_path) == 4

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

    def test_points_below_the_floor_on_both_sides_are_negligible(self):
        report = cli.compare_tables([
            ({"f0_over_kappa": 0.01}, 4e-6, -9e-6),    # both below the floor
            ({"f0_over_kappa": 0.02}, 4e-6, 2e-5),     # one side above it
        ])
        assert report["floor"] == 1e-5
        low, high = report["points"]
        assert low["regime"] == "negligible" and math.isnan(low["ratio"])
        assert (high["regime"], high["ratio"]) == ("breakdown", 4e-6 / 2e-5)

    def test_zero_lindblad_shift_gives_an_infinite_ratio_of_the_meanfield_sign(self):
        report = cli.compare_tables([({"f": 1.0}, -1e-3, 0.0), ({"f": 2.0}, 1e-3, -0.0)])
        assert [(p["ratio"], p["regime"]) for p in report["points"]] == [
            (-math.inf, "breakdown"), (math.inf, "breakdown")]

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

    @pytest.mark.parametrize("key, value, where", [
        ("dipoles[0].gamma", "nan", "file"), ("pulse.T", "inf", "--override"),
        ("pulse.F0", "nan", "--axis"), ("--t-off-factor", "nan", "spectrum"),
    ])
    def test_non_finite_value_is_config_error(self, key, value, where, tmp_path, fast_config_path,
                                              capsys):
        config = fast_config_path
        if where == "file":
            config = tmp_path / "non_finite.txt"
            kept = [ln for ln in fast_config_path.read_text().splitlines() if not ln.startswith(key)]
            config.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
        inputs = ["--config", str(config)]
        argv = {"file": ["simulate", *inputs],
                "--override": ["simulate", *inputs, where, f"{key}={value}"],
                "--axis": ["sweep", *inputs, where, f"{key}={value}"],
                "spectrum": ["spectrum", *inputs, key, value]}[where]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert f"value for {key!r} must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "spectrum", "fit-alpha"])
    @pytest.mark.parametrize("override, message", [
        ("nonsense", "override must look like key=value, got 'nonsense'"),
        ("pulse.area=1.0", "unknown config key 'pulse.area'"),
        ("dipoles[2].g=1.0", "'dipoles[2].g': config has only 2 dipole(s)"),
    ], ids=["no_equals", "unknown_key", "missing_dipole"])
    def test_bad_override_is_refused_before_any_file(self, command, override, message, tmp_path,
                                                     fast_config_path, monkeypatch, capsys):
        refuse_solves(monkeypatch)
        table = tmp_path / "table.csv"
        table.write_text("f0_over_kappa,dphi_cavity\n0.1,0.01\n")
        extra = {"sweep": ["--axis", "pulse.F0=1.2"], "fit-alpha": ["--table", str(table)]}
        rc = main([command, "--config", str(fast_config_path), *extra.get(command, []),
                   "--override", override, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--config"), ("fit-alpha", "--config"), ("fit-alpha", "--table"),
        ("compare", "--meanfield"), ("compare", "--lindblad"),
    ])
    def test_missing_input_file_is_config_error(self, command, flag, tmp_path, fast_config_path,
                                                capsys):
        table = tmp_path / "table.csv"
        table.write_text("f0_over_kappa,dphi_cavity\n0.1,0.01\n")
        inputs = {"simulate": {"--config": fast_config_path},
                  "fit-alpha": {"--config": fast_config_path, "--table": table},
                  "compare": {"--meanfield": table, "--lindblad": table}}[command]
        missing = tmp_path / "missing.txt"
        argv = [command, "--out", str(tmp_path / "o")]
        for name, path in {**inputs, flag: missing}.items():
            argv += [name, str(path)]
        assert main(argv) == 2
        assert f"config error: cannot read {missing}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, nested", [
        ("simulate", False), ("simulate", True), ("fit-alpha", False), ("compare", False),
    ])
    def test_out_naming_a_file_is_config_error(self, command, nested, tmp_path, fast_config_path,
                                               monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for name in ("_solve", "fit_alpha", "compare_tables"):
            monkeypatch.setattr(cli, name, unreachable)
        table = tmp_path / "table.csv"
        table.write_text("f0_over_kappa,dphi_cavity\n0.1,0.01\n")
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = taken / "sub" if nested else taken
        inputs = {"simulate": ["--config", str(fast_config_path)],
                  "fit-alpha": ["--config", str(fast_config_path), "--table", str(table)],
                  "compare": ["--meanfield", str(table), "--lindblad", str(table)]}[command]
        assert main([command, *inputs, "--out", str(out)]) == 2
        assert f"config error: --out {out}: {taken} exists and is not a directory" in (
            capsys.readouterr().err)
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize("command, n_photon_max, error", [
        ("simulate", 0, "n_photon_max, nu_max and n_wells must all be >= 1"),
        ("sweep", 500, "total dimension 4509 exceeds the cap"),
        ("preset", 500, "total dimension 4509 exceeds the cap"),
    ])
    def test_bad_truncation_is_refused_before_any_work(self, command, n_photon_max, error,
                                                       tmp_path, fast_config_path, monkeypatch,
                                                       capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("a solve started before the truncation was checked")

        for name in ("integrate", "integrate_batch", "evolve"):
            monkeypatch.setattr(cli, name, unreachable)
        run = ["--config", str(fast_config_path), "--solver", "both"]
        argv = {"simulate": ["simulate", *run],
                "sweep": ["sweep", *run, "--axis", "pulse.F0=1.2,2.4", "--jobs", "1"],
                "preset": ["preset", "fig5a", "--jobs", "1"]}[command]
        rc = main([*argv, "--n-photon-max", str(n_photon_max), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"config error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--solver", "lindblad"], ["sweep", "--solver", "both"],
        ["preset", "fig5a"], ["preset", "fig5b"], ["preset", "fig5c"],
    ])
    def test_two_level_wells_refused_where_the_kerr_level_is_read(self, argv, tmp_path,
                                                                   fast_config_path, capsys):
        """At --nu-max 1 a Lindblad Delta Phi, or fig5c's p2, is exactly 0."""
        if argv[0] == "sweep":
            argv = [*argv, "--config", str(fast_config_path), "--axis", "pulse.F0=1.2"]
        rc = main([*argv, "--nu-max", "1", "--jobs", "1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error: --nu-max 1 leaves each well without a second level" in (
            capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["simulate", "spectrum"])
    def test_two_level_wells_accepted_for_one_trajectory(self, command, tmp_path,
                                                         fast_config_path):
        assert main([command, "--config", str(fast_config_path), "--solver", "lindblad",
                     "--n-photon-max", "4", "--nu-max", "1", "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("command", ["sweep", "preset"])
    def test_jobs_below_one_is_config_error(self, command, tmp_path, fast_config_path, capsys):
        argv = {"sweep": ["sweep", "--config", str(fast_config_path), "--axis", "pulse.F0=1.2"],
                "preset": ["preset", "fig3"]}[command]
        assert main([*argv, "--jobs", "0", "--out", str(tmp_path / "o")]) == 2
        assert "config error: --jobs must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_solver_failure_maps_to_three(self, tmp_path, fast_config_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverError("stiffness failure")

        monkeypatch.setattr(cli, "_solve", boom)
        rc = main(["simulate", "--config", str(fast_config_path), "--out", str(tmp_path / "o")])
        assert rc == 3


TRACE = "t,re_a,im_a,re_B0,im_B0"
FIG5 = "f0_over_kappa,dphi_meanfield,dphi_lindblad"
# preset -> {data file: (CSV column header, rows) or (JSON list key, length)};
# fig5a/fig5b run on a two-point drive grid
PRESET_FILES = {
    "fig2": {
        "fig2_trace_gamma0.6_strong.csv": (TRACE, 96365),
        "fig2_trace_gamma0.6_weak.csv": (TRACE, 96365),
        "fig2_trace_gamma10.0_strong.csv": (TRACE, 39101),
        "fig2_trace_gamma10.0_weak.csv": (TRACE, 39101),
        "fig2_delay_gamma0.6.csv": ("t,delay,kind", 123),
        "fig2_delay_gamma10.0.csv": ("t,delay,kind", 47),
    },
    "fig3": {
        "fig3_phase_shifts.csv": ("u_over_gamma,f0_over_kappa,dphi_cavity,dphi_dipole", 21),
        **{f"fig3_alpha_u{ug}.json": ("points", 7) for ug in (0.1, 0.5, 1.0)},
    },
    "fig4a": {"fig4a_phase_shifts.csv": ("gamma2_over_gamma1,f0_over_kappa,dphi_cavity", 21)},
    "fig4b": {"fig4b_phase_shifts.csv": ("domega_over_omega0,f0_over_kappa,dphi_cavity", 28)},
    "fig5a": {"fig5a_phase_shifts.csv": (FIG5, 2), "fig5a_compare.json": ("points", 2)},
    "fig5b": {"fig5b_phase_shifts.csv": (FIG5, 2), "fig5b_compare.json": ("points", 2)},
    "fig5c": {"fig5c_p2.csv": ("t,p2_u0.5,p2_u1.0,p2_u2.0", 2410)},
}


class TestPresets:
    def test_all_presets_round_trip_through_parser(self):
        assert parse_config(format_config(PRESET_BASE)) == PRESET_BASE

    def test_preset_base_parameters(self):
        base = PRESET_BASE
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

    @pytest.mark.parametrize("flag, value", [("--t-off-factor", "5"), ("--baseline", "weak")])
    def test_policy_flags_are_usage_errors(self, flag, value, tmp_path):
        # presets run at the default SpectralPolicy, so their manifests' config
        # digest names everything that shaped the data
        with pytest.raises(SystemExit) as exc:
            main(["preset", "fig3", flag, value, "--out", str(tmp_path / "p")])
        assert exc.value.code == 2
        assert not (tmp_path / "p").exists()

    def test_fig5c_preset_runs(self, tmp_path):
        out = tmp_path / "fig5c"
        rc = main(["preset", "fig5c", "--out", str(out), "--n-photon-max", "4", "--jobs", "1"])
        assert rc == 0
        table = (out / "fig5c_p2.csv").read_text().splitlines()
        assert table[1] == "t,p2_u0.5,p2_u1.0,p2_u2.0"
        manifest = json.loads((out / "manifest.json").read_text())
        assert any(e["path"] == "fig5c_p2.csv" for e in manifest["files"])

    def test_fig5c_fails_at_a_low_fock_cutoff(self, tmp_path, capsys):
        """No retry at a raised cutoff: the first overflow ends the preset."""
        out = tmp_path / "fig5c"
        rc = main(["preset", "fig5c", "--out", str(out), "--n-photon-max", "2", "--jobs", "1"])
        assert rc == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("solver failure: ")
        assert "(n_photon_max=2 too low for this drive)" in lines[0]
        assert not (out / "fig5c_p2.csv").exists()

    @pytest.mark.parametrize("preset_id", PRESET_IDS)
    def test_preset_writes_its_files(self, preset_id, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "F_GRID_FIG5", (0.05, 0.2))
        out = tmp_path / preset_id
        rc = main(["preset", preset_id, "--out", str(out), "--jobs", "1", "--n-photon-max", "4"])
        assert rc == 0
        expected = PRESET_FILES[preset_id]
        manifest = json.loads((out / "manifest.json").read_text())
        names = {f"{preset_id}_base_config.txt", *expected}
        assert {e["path"] for e in manifest["files"]} == names
        assert {f.name for f in out.iterdir()} == names | {"manifest.json"}
        assert parse_config((out / f"{preset_id}_base_config.txt").read_text()) == PRESET_BASE
        for name, (header, n_rows) in expected.items():
            if name.endswith(".json"):
                assert len(json.loads((out / name).read_text())[header]) == n_rows
            else:
                lines = [ln for ln in (out / name).read_text().splitlines() if not ln.startswith("#")]
                assert (lines[0], len(lines) - 1) == (header, n_rows)

    def test_two_well_config_rejects_non_finite_ratios(self):
        with pytest.raises(qwcavity.ConfigError, match="anharmonicity must be finite"):
            two_well_config(u_over_gamma=float("nan"), f0_over_kappa=0.2)
        with pytest.raises(qwcavity.ConfigError, match="amplitude must be finite"):
            two_well_config(u_over_gamma=1.0, f0_over_kappa=float("inf"))

    def test_two_well_config_shape(self):
        cfg = two_well_config(u_over_gamma=0.5, f0_over_kappa=0.3, gamma2=0.9, omega2=41.6)
        assert cfg.dipoles[1].gamma == 0.9
        assert cfg.dipoles[1].omega == 41.6
        assert cfg.dipoles[0].anharmonicity == pytest.approx(0.3)
        assert cfg.pulse.amplitude == pytest.approx(0.3 * 12.0)
