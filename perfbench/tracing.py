"""In-memory spans around the program's public functions.

The tracer replaces attributes of `qwcavity.cli` (the names the CLI
itself calls), `qwcavity.spectral.set_config_value` (called inside
`baseline_config` and `time_delay`) and the write methods of the two
trajectory types with wrappers that open a span. `restore()` puts every
original back. Spans record name, start, end, parent and a run id; a
span's self time is its duration minus that of its direct children.
Pool workers run untraced: their spans would need hooks in the program.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
import uuid
from dataclasses import dataclass, field

import qwcavity.cli as cli
import qwcavity.lindblad as lindblad
import qwcavity.meanfield as meanfield
import qwcavity.spectral as spectral

LAYERS = ("model", "meanfield", "lindblad", "spectral", "cli", "bench")

# (owner, attribute, span name); the span's layer is the part before the first dot
CLI_PATCHES = (
    (cli, "sweep_phase_shifts", "cli.sweep"),
    (cli, "integrate", "meanfield.integrate"),
    (cli, "evolve", "lindblad.evolve"),
    (cli, "vacuum_state", "lindblad.vacuum_state"),
    (cli, "phase_pipeline", "spectral.phase_pipeline"),
    (cli, "relative_phase", "spectral.relative_phase"),
    (cli, "fit_alpha", "spectral.fit_alpha"),
    (cli, "time_delay", "spectral.time_delay"),
    (cli, "baseline_config", "spectral.baseline_config"),
    (cli, "fid_time_span", "spectral.fid_time_span"),
    (cli, "format_config", "model.config"),
    (cli, "parse_config", "model.config"),
    (cli, "set_config_value", "model.config"),
    (spectral, "set_config_value", "model.config"),
    (cli, "write_fit_json", "cli.write"),
    (meanfield.MeanFieldTrajectory, "write_csv", "cli.write"),
    (meanfield.MeanFieldTrajectory, "write_sidecar", "cli.write"),
    (lindblad.LindbladResult, "write_csv", "cli.write"),
    (lindblad.LindbladResult, "write_sidecar", "cli.write"),
)


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    failed: bool = False
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _observe(name: str, args, result, span: Span) -> None:
    """Counters read off a call's arguments and result at the boundary."""
    if name == "cli.sweep":
        span.attrs["points"] = len(args[0])
    elif name in ("meanfield.integrate", "lindblad.evolve"):
        span.attrs["samples"] = len(result.t)
        if name == "lindblad.evolve":
            span.attrs["diagnostics"] = dict(result.diagnostics)
    elif name == "spectral.phase_pipeline":
        span.attrs["band_bins"] = int(result.mask.sum())
    elif name == "cli.write":
        span.attrs["bytes"] = os.path.getsize(args[1])   # (result or self, path)


class Tracer:
    """Owns the span list and the patches; one per traced process."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # --- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, failed: bool = False) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration
        return span

    def call(self, name: str, fn, args, kwargs):
        idx = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(idx, failed=True)
            raise
        _observe(name, args, result, self.spans[idx])
        self.close(idx)
        return result

    # --- patching --------------------------------------------------------

    def install(self, patches=CLI_PATCHES) -> None:
        for owner, attr, name in patches:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def dump(self) -> list[dict]:
        return [
            {"run": self.run_id, "id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "failed": s.failed, **s.attrs}
            for i, s in enumerate(self.spans)
        ]


# --- per-layer summary ----------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def summarize(spans: list[Span]) -> dict:
    """Per-layer metrics of the spans of traced requests (no units)."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def total(name, key="self_s"):
        return float(sum(getattr(s, key) for s in by.get(name, ())))

    def attr(name, key):
        return [s.attrs[key] for s in by.get(name, ()) if key in s.attrs]

    out = {}
    ev = by.get("lindblad.evolve", [])
    ok = [s for s in ev if not s.failed]
    lb_samples = sum(attr("lindblad.evolve", "samples"))
    out.update({
        "lindblad.evolve.calls": len(ev),
        "lindblad.evolve.failed": len(ev) - len(ok),
        "lindblad.evolve.self_s": total("lindblad.evolve"),
        "lindblad.evolve.ms_p50": 1e3 * _median([s.duration for s in ev]),
        "lindblad.evolve.ms_max": 1e3 * max((s.duration for s in ev), default=0.0),
        "lindblad.evolve.useful_frac": len(ok) / len(ev) if ev else 0.0,
        "lindblad.samples": lb_samples,
        "lindblad.us_per_sample": 1e6 * total("lindblad.evolve", "duration") / lb_samples
        if lb_samples else 0.0,
    })
    mf = by.get("meanfield.integrate", [])
    mf_samples = sum(attr("meanfield.integrate", "samples"))
    out.update({
        "meanfield.integrate.calls": len(mf),
        "meanfield.integrate.self_s": total("meanfield.integrate"),
        "meanfield.integrate.ms_p50": 1e3 * _median([s.duration for s in mf]),
        "meanfield.samples": mf_samples,
        "meanfield.us_per_sample": 1e6 * total("meanfield.integrate", "duration") / mf_samples
        if mf_samples else 0.0,
    })
    pp = by.get("spectral.phase_pipeline", [])
    out.update({
        "spectral.phase_pipeline.calls": len(pp),
        "spectral.phase_pipeline.self_s": total("spectral.phase_pipeline"),
        "spectral.phase_pipeline.ms_p50": 1e3 * _median([s.duration for s in pp]),
        "spectral.band_bins": _median(attr("spectral.phase_pipeline", "band_bins")),
        "spectral.relative_phase.self_s": total("spectral.relative_phase"),
        "spectral.fit_alpha.self_s": total("spectral.fit_alpha"),
        "spectral.time_delay.self_s": total("spectral.time_delay"),
    })
    # a solve is a successful integrate/evolve made by a sweep; each Delta
    # Phi point asks for two (run and baseline), so sharing shows below 1
    sweeps = {i for i, s in enumerate(spans) if s.name == "cli.sweep"}
    solves = sum(
        1 for s in spans
        if s.name in ("meanfield.integrate", "lindblad.evolve") and not s.failed
        and s.parent in sweeps
    )
    requested = sum(2 * spans[i].attrs.get("points", 0) for i in sweeps)
    written = sum(attr("cli.write", "bytes"))
    write_s = total("cli.write", "duration")
    out.update({
        "cli.solves": solves,
        "cli.solve_share_frac": solves / requested if requested else 0.0,
        "cli.self_s": sum(s.self_s for s in spans if s.layer == "cli" and s.name != "cli.write"),
        "cli.write.self_s": total("cli.write"),
        "cli.write.bytes": written,
        "cli.write.mb_per_s": written / 1e6 / write_s if write_s else 0.0,
        "model.config.calls": len(by.get("model.config", [])),
        "model.config.self_s": total("model.config"),
    })
    for layer in LAYERS:
        out[f"{layer}.layer_self_s"] = sum(s.self_s for s in spans if s.layer == layer)
    return out
