"""Correctness check of one request's outcome.

Any seed: every Delta Phi(omega0) and every time delay is finite,
mean-field/Lindblad pairs are complete, each Lindblad run's diagnostics
stay within the `DensityMatrix.validate` default tolerances, and every
data file was written. Seeds with a shipped reference
(`references/<workload>_seed<seed>.json`, written by
`make_references.py`) must also reproduce every Delta Phi(omega0) and
delay to 1e-10 relative and every data file byte for byte (sha256).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
from pathlib import Path

from qwcavity.lindblad import DensityMatrix

REF_DIR = Path(__file__).resolve().parent / "references"
RTOL = 1e-10

_TOL = {k: v.default for k, v in inspect.signature(DensityMatrix.validate).parameters.items()
        if v.default is not inspect.Parameter.empty}


def ref_path(workload: str, seed: int) -> Path:
    return REF_DIR / f"{workload}_seed{seed}.json"


def load_reference(workload: str, seed: int) -> dict:
    """Reference records keyed by request index; empty if none shipped."""
    path = ref_path(workload, seed)
    if not path.is_file():
        return {}
    return {r["index"]: r for r in json.loads(path.read_text())["requests"]}


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def record(index: int, outcome) -> dict:
    """The reference record of one request's outcome."""
    return {
        "index": index,
        "dphi": outcome.dphi,
        "delays": outcome.delays,
        "files": {name: sha256(path) for name, path in sorted(outcome.files.items())},
    }


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def diagnostics_problems(diags: list[dict]) -> list[str]:
    out = []
    for d in diags:
        if d["max_trace_dev"] > _TOL["trace_tol"]:
            out.append(f"trace deviation {d['max_trace_dev']:.2e}")
        if d["max_herm_dev"] > _TOL["herm_tol"]:
            out.append(f"hermiticity deviation {d['max_herm_dev']:.2e}")
        if d["min_eigenvalue"] < -_TOL["eig_tol"]:
            out.append(f"negative eigenvalue {d['min_eigenvalue']:.2e}")
    return out


def problems(outcome, diags: list[dict], ref: dict | None) -> list[str]:
    """Everything wrong with one outcome; empty when it passes."""
    out = []
    if outcome.pairs_missing:
        out.append(f"{outcome.pairs_missing} mean-field/Lindblad pairs incomplete")
    out += [f"non-finite dphi {k}" for k, v in outcome.dphi.items() if not math.isfinite(v)]
    for k, series in outcome.delays.items():
        if not series:
            out.append(f"no matched extrema for {k}")
        out += [f"non-finite delay in {k}" for v in series if not math.isfinite(v)]
    out += [f"missing file {n}" for n, p in outcome.files.items() if not Path(p).is_file()]
    out += diagnostics_problems(diags)
    if ref is None or out:
        return out
    if set(ref["dphi"]) != set(outcome.dphi):
        out.append("dphi labels differ from the reference")
    out += [f"dphi {k}: {v!r} vs reference {ref['dphi'][k]!r}"
            for k, v in outcome.dphi.items() if k in ref["dphi"] and not close(v, ref["dphi"][k])]
    for k, series in outcome.delays.items():
        want = ref["delays"].get(k, [])
        if len(want) != len(series) or not all(map(close, series, want)):
            out.append(f"delays {k} differ from the reference")
    got = {name: sha256(path) for name, path in outcome.files.items()}
    if got != ref["files"]:
        out += [f"file {n} differs from the reference" for n in sorted(set(got) | set(ref["files"]))
                if got.get(n) != ref["files"].get(n)]
    return out
