"""Runtime spans around msiblockade's public functions, from outside ``src/``.

``Tracer.install`` replaces module attributes (the names ``msiblockade.sweep``
imported, and the home-module names the benchmark and
``convergence_scan`` look up) with wrappers that record a span per call:
name, start, end, parent span and job id, plus a few facts read off the
result. Spans stay in memory until ``write`` at the end of the run.
Only calls in the benchmark's own process are spanned; the process pool
of ``run_sweep(threads > 1)`` is not benchmarked.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

from msiblockade import analytic, fock, liouvillian, model, semiclassical, sweep


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "info")

    def __init__(self, name, parent, job):
        self.name, self.parent, self.job = name, parent, job
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _pole(result) -> bool:
    statuses = (result.status_c, result.status_e) if hasattr(result, "status_c") else (result.status,)
    return any(s.value != "ok" for s in statuses)


# (home module, attribute, span name, fact read off (result, args)); each
# is wrapped in its home module and, where it imported the name, in sweep
_LAYERS = (
    (analytic, "g2_analytic", "analytic.g2", lambda out, args: _pole(out)),
    (analytic, "amplitude_steady_states", "analytic.amplitudes", lambda out, args: _pole(out)),
    (fock, "make_space", "fock.make_space", None),
    (model, "build_effective_hamiltonian", "model.hamiltonian", None),
    (model, "build_full_hamiltonian", "model.hamiltonian", None),
    (model, "build_collapse_ops", "model.collapse", None),
    (liouvillian, "build_liouvillian", "liouvillian.assemble", lambda out, args: (out.dim, out.matrix.nnz)),
    (liouvillian, "steady_state", "liouvillian.steady", lambda out, args: (out.method, out.residual)),
    (liouvillian, "mode_statistics", "liouvillian.stats", None),
    (liouvillian, "convergence_scan", "liouvillian.convergence_scan", None),
    (semiclassical, "reduced_fixed_point", "semiclassical.fixed_point", lambda out, args: out[2]),
)
_LAYER_TARGETS = [
    (owner, attr, name, facts)
    for home, attr, name, facts in _LAYERS
    for owner in (home, sweep)
    if hasattr(owner, attr)
]


def _csv_facts(out, args):
    return len(out), len(args[0].rows)


TARGETS = [
    (sweep, "run_sweep", "sweep.run_sweep", None),
    (sweep.SweepResult, "to_csv", "sweep.to_csv", _csv_facts),
    *_LAYER_TARGETS,
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def install(self, wrap_targets) -> None:
        for owner, attr, name, facts in wrap_targets:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, facts))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run(self, job_id: int, fn, *args):
        """Call ``fn`` with spans recorded under ``job_id``."""
        self._job = job_id
        try:
            return fn(*args)
        finally:
            self._job = None

    def _wrap(self, fn, name, facts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else -1, self._job)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                span.info = {"error": type(exc).__name__}
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if facts is not None:
                span.info = facts(out, args)
            return out

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.job, s.info]) + "\n")


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers from one traced phase; see NOTES.md for definitions.

    ``_s`` metrics are mean seconds per call (0 when the layer was not
    called); counts are totals over the phase.
    """
    by_name: dict[str, list[Span]] = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent >= 0:
            child_time[s.parent] += s.duration

    def calls(name):
        return by_name.get(name, [])

    def mean_s(name):
        return _mean([s.duration for s in calls(name)])

    def facts(*names):
        return [s.info for n in names for s in calls(n) if not isinstance(s.info, dict)]

    steady = calls("liouvillian.steady")
    solved = [s for s in steady if not isinstance(s.info, dict)]
    direct = [s.duration for s in solved if s.info[0] == "direct"]
    krylov = [s.duration for s in solved if s.info[0] == "krylov"]
    assembled = facts("liouvillian.assemble")
    csv = facts("sweep.to_csv")
    return {
        "liouvillian.steady_direct_s": _mean(direct),
        "liouvillian.steady_krylov_s": _mean(krylov),
        "liouvillian.steady_calls": len(steady),
        "liouvillian.steady_direct_calls": len(direct),
        "liouvillian.steady_krylov_calls": len(krylov),
        "liouvillian.steady_errors": len(steady) - len(solved),
        "liouvillian.residual_max": max((s.info[1] for s in solved), default=0.0),
        "liouvillian.assemble_s": mean_s("liouvillian.assemble"),
        "liouvillian.superop_dim": _mean([a[0] for a in assembled]),
        "liouvillian.superop_nnz": _mean([a[1] for a in assembled]),
        "liouvillian.stats_s": mean_s("liouvillian.stats"),
        "liouvillian.convergence_scan_s": mean_s("liouvillian.convergence_scan"),
        "model.hamiltonian_s": mean_s("model.hamiltonian"),
        "model.collapse_s": mean_s("model.collapse"),
        "model.calls": len(calls("model.hamiltonian")) + len(calls("model.collapse")),
        "analytic.g2_s": mean_s("analytic.g2"),
        "analytic.amplitudes_s": mean_s("analytic.amplitudes"),
        "analytic.pole_share": _mean([float(p) for p in facts("analytic.g2", "analytic.amplitudes")]),
        "semiclassical.fixed_point_s": mean_s("semiclassical.fixed_point"),
        "semiclassical.converged_share": _mean([float(c) for c in facts("semiclassical.fixed_point")]),
        "sweep.self_s": _mean([s.duration - child_time[i] for i, s in enumerate(spans) if s.name == "sweep.run_sweep"]),
        "sweep.csv_s": mean_s("sweep.to_csv"),
        "sweep.csv_bytes": _mean([c[0] for c in csv]),
        "sweep.rows": sum(c[1] for c in csv),
    }
