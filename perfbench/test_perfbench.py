"""Self-tests of the benchmark harness (not part of the program's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check  # noqa: E402
import qwcavity.cli as cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qwcavity.model import format_config  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    def inputs(seed):
        return [[format_config(c) for c in workloads.make_request(workload, seed, i).configs()]
                for i in range(4)]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def _outcome(dphi):
    return workloads.Outcome(dphi=dict(dphi), files={}, delays={})


def test_check_rejects_dphi_perturbed_by_1e9_relative():
    dphi = {"fig3|0.5|0.1|cavity": 0.0123456789, "fig3|0.5|0.1|bright": -0.0987654321}
    ref = {"dphi": dict(dphi), "delays": {}, "files": {}}
    assert check.problems(_outcome(dphi), [], ref) == []
    for key in dphi:
        bad = dict(dphi, **{key: dphi[key] * (1 + 1e-9)})
        assert check.problems(_outcome(bad), [], ref)
        near = dict(dphi, **{key: dphi[key] * (1 + 1e-11)})
        assert check.problems(_outcome(near), [], ref) == []


def test_check_rejects_non_finite_and_bad_diagnostics():
    assert check.problems(_outcome({"x": float("nan")}), [], None)
    ok = {"max_trace_dev": 1e-12, "max_herm_dev": 1e-15, "min_eigenvalue": -1e-14}
    assert check.problems(_outcome({"x": 0.1}), [ok], None) == []
    assert check.problems(_outcome({"x": 0.1}), [dict(ok, max_herm_dev=1e-9)], None)


def test_tracer_restores_every_patched_attribute():
    owners = {id(owner): owner for owner, _, _ in tracing.CLI_PATCHES}
    before = {k: dict(vars(o)) for k, o in owners.items()}
    tracer = tracing.Tracer()
    tracer.install()
    assert all(vars(owner)[attr] is not before[id(owner)][attr]
               for owner, attr, _ in tracing.CLI_PATCHES)
    tracer.restore()
    for k, owner in owners.items():
        after = dict(vars(owner))
        assert after.keys() == before[k].keys()
        assert all(after[name] is before[k][name] for name in after)


def test_self_times_partition_the_root_span():
    tracer = tracing.Tracer()
    tracer.install()
    root = tracer.open("bench.request")
    try:
        cfg = workloads.make_request("mf_sweep", 1, 0).configs()[0]
        cli.baseline_config(cfg, cli.SpectralPolicy())
        cli.format_config(cfg)
    finally:
        tracer.close(root)
        tracer.restore()
    spans = tracer.spans
    assert {s.name for s in spans} == {"bench.request", "spectral.baseline_config", "model.config"}
    assert sum(s.self_s for s in spans) == pytest.approx(spans[root].duration, rel=1e-9)
