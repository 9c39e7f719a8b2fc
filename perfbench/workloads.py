"""Seeded sweep jobs for each benchmark workload, and how to run one.

A job is what one ``msiblockade sweep`` invocation does: a ``SweepSpec`` run
through ``run_sweep`` and rendered by ``SweepResult.to_csv``. The
``master_krylov`` workload also has convergence-scan jobs at the figure
presets' gate truncation. Every job's parameters come from the workload
seed; windows bracket the figure presets (g_omega, g_kappa in [0, 1000],
J <= 0.5 omega_m, Delta in +-0.5 omega_m, kappa log-spaced as in fig7, but
over a narrower window) and keep the analytic poles and the two-photon
resonance at Delta = +J.

These choices keep every job inside the region where the program's
outputs pass the checks in ``checks.py``; each avoids a program defect
that NOTES.md describes and ``tests/test_known_defects.py`` reproduces:

* fixed J is a whole number of Hz, so ``J**2 - delta_c * delta_e`` is
  exactly 0 at Delta = -J and the amplitude route reports its pole;
* master-equation jobs that cross Delta = +J (detuning cuts, convergence
  scans) have g_kappa = 0: the effective model is then trace preserving,
  and the steady-state residual stays below 1e-10 at the resonance;
* the Krylov solve that checks a sampled ``master_effective`` point
  agrees with the direct one only where the two-photon moment is well
  above its float64 floor, or kappa is near the presets' 5e3 Hz: detuning
  cuts drive at ``STRONG_DRIVE``, and kappa cuts span ``KAPPA_WINDOW``.

Module attributes of msiblockade are looked up at call time, so the
tracer's runtime wrappers see every call.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

from msiblockade import fock, liouvillian, model, sweep
from msiblockade.model import SystemParams
from msiblockade.sweep import AxisSpec, SweepSpec

WORKLOADS = ("analytic_map", "master_direct", "master_krylov")

OMEGA_M = 1.0e6
# rates and drives the figure presets share
BASE = SystemParams(omega_m=OMEGA_M, kappa_c=5.0e3, kappa_e=5.0e3, eps_c=5.0e3, eps_e=5.0e3, J=2.0e5)

# Grid sizes make every job last a few tenths of a second or more, so the
# timer and per-job set-up are small beside the work being measured.
MAP_COUNT = 64            # analytic maps are MAP_COUNT x MAP_COUNT grids
CUT_COUNT = 16            # master_direct 1-D cuts
FULL_COUNT = 2            # master_full cuts at (4,4,8): ~1 s per point
FULL_TRUNCATION = (4, 4, 8)
# the presets' gate scans (6, 6) -> (12, 12); only the (12, 12) rung lies
# above DIRECT_LIMIT (12^4 = 20736), so only it is scanned here, keeping the
# workload on the Krylov path. The (6, 6) rung is master_direct's solve.
SCAN_LADDER = ((12, 12),)
# ranges of the low and high ends of kappa-cut windows, around BASE's 5e3 Hz
KAPPA_WINDOW = ((2.0e3, 3.0e3), (6.0e3, 8.0e3))
# detuning-cut drive: n >= 3e-3 over the whole window
STRONG_DRIVE = 5.0e4
SEMICLASSICAL_EVERY = 4   # one analytic_map job in each block of four adds the semiclassical tier
# jobs per full cycle of job kinds; runs end on a cycle boundary so every
# run has the same job mix
CYCLE = {"analytic_map": 12, "master_direct": 3, "master_krylov": 3}


@dataclass(frozen=True)
class Job:
    id: int
    kind: str
    points: int
    spec: SweepSpec | None = None
    params: SystemParams | None = None   # convergence-scan jobs


def _span(rng: random.Random, lo: tuple[float, float], hi: tuple[float, float]) -> tuple[float, float]:
    return rng.uniform(*lo), rng.uniform(*hi)


def _log_span(rng: random.Random, lo: tuple[float, float], hi: tuple[float, float]) -> tuple[float, float]:
    return 10 ** rng.uniform(*map(math.log10, lo)), 10 ** rng.uniform(*map(math.log10, hi))


def _delta_axis(rng, name, count):
    lo, hi = _span(rng, (-0.5 * OMEGA_M, -0.35 * OMEGA_M), (0.35 * OMEGA_M, 0.5 * OMEGA_M))
    return AxisSpec(name, lo, hi, count)


def _coupling_axis(rng, name, count):
    lo, hi = _span(rng, (0.0, 200.0), (800.0, 1000.0))
    return AxisSpec(name, lo, hi, count)


def _kappa_axis(rng, count):
    lo, hi = _log_span(rng, *KAPPA_WINDOW)
    return AxisSpec("kappa", lo, hi, count, "log")


def _fixed(rng, **overrides) -> SystemParams:
    """Seeded couplings and tunnelling; detuning at the blockade point -J."""
    J = float(round(rng.uniform(0.1 * OMEGA_M, 0.4 * OMEGA_M)))
    p = BASE.with_(g_omega=rng.uniform(0.0, 1000.0), g_kappa=rng.uniform(0.0, 1000.0), J=J, delta_c=-J, delta_e=-J)
    return p.with_(**overrides)


def _analytic_map(rng: random.Random, i: int, semiclassical: bool) -> Job:
    kind = ("detuning_map", "j_delta_map", "coupling_map")[i % 3]
    if kind == "detuning_map":
        axes = (_delta_axis(rng, "delta_c", MAP_COUNT), _delta_axis(rng, "delta_e", MAP_COUNT))
    elif kind == "j_delta_map":
        lo, hi = _span(rng, (0.0, 0.05 * OMEGA_M), (0.45 * OMEGA_M, 0.5 * OMEGA_M))
        axes = (AxisSpec("J", lo, hi, MAP_COUNT), _delta_axis(rng, "delta", MAP_COUNT))
    else:
        axes = (_coupling_axis(rng, "g_omega", MAP_COUNT), _coupling_axis(rng, "g_kappa", MAP_COUNT))
    tiers = ("analytic", "semiclassical") if semiclassical else ("analytic",)
    spec = SweepSpec(axes=axes, fixed=_fixed(rng), tiers=tiers)
    return Job(i, kind, MAP_COUNT * MAP_COUNT, spec)


def _master_cut(rng: random.Random, i: int) -> Job:
    kind = ("detuning_cut", "coupling_cut", "kappa_cut")[i % 3]
    if kind == "detuning_cut":
        axis = _delta_axis(rng, "delta", CUT_COUNT)
    elif kind == "coupling_cut":
        axis = _coupling_axis(rng, ("g_kappa", "g_omega")[(i // 3) % 2], CUT_COUNT)
    else:
        axis = _kappa_axis(rng, CUT_COUNT)
    if kind == "detuning_cut":
        fixed = _fixed(rng, g_kappa=0.0, eps_c=STRONG_DRIVE, eps_e=STRONG_DRIVE)
    else:
        fixed = _fixed(rng)
    spec = SweepSpec(axes=(axis,), fixed=fixed, tiers=("analytic", "master_effective"))
    return Job(i, kind, CUT_COUNT, spec)


def _krylov_job(rng: random.Random, i: int) -> Job:
    kind = ("full_detuning_cut", "full_coupling_cut", "convergence_scan")[i % 3]
    gamma = 10 ** rng.uniform(1.0, 3.0)
    if kind == "convergence_scan":
        # successive scans take turns over thirds of the detuning window,
        # so every run mixes cheap and near-resonant (slow) Krylov solves alike
        third = (i // 3) % 3
        delta = rng.uniform((third / 3.0 - 0.5) * OMEGA_M, ((third + 1) / 3.0 - 0.5) * OMEGA_M)
        return Job(i, kind, len(SCAN_LADDER), params=_fixed(rng, g_kappa=0.0, delta_c=delta, delta_e=delta))
    if kind == "full_detuning_cut":
        axis = _delta_axis(rng, "delta", FULL_COUNT)
    else:
        axis = _coupling_axis(rng, "g_kappa", FULL_COUNT)
    spec = SweepSpec(
        axes=(axis,), fixed=_fixed(rng, gamma=gamma), tiers=("master_full",), trunc_full=FULL_TRUNCATION
    )
    return Job(i, kind, FULL_COUNT, spec)


def job_stream(workload: str, seed: int) -> Iterator[Job]:
    """Endless deterministic job sequence for ``workload``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; valid: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    i = 0
    while True:
        if workload == "analytic_map":
            if i % SEMICLASSICAL_EVERY == 0:
                # the first and last job of a block of four are of the same
                # map kind, so each 12-job cycle has one semiclassical job of
                # each kind; the fixed-point cost differs by kind
                semi_slot = rng.choice((0, SEMICLASSICAL_EVERY - 1))
            yield _analytic_map(rng, i, i % SEMICLASSICAL_EVERY == semi_slot)
        elif workload == "master_krylov":
            yield _krylov_job(rng, i)
        else:
            yield _master_cut(rng, i)
        i += 1


def scan_builder(p: SystemParams):
    """Truncation -> effective-model Liouvillian, as the presets' gate builds it."""

    def build(levels):
        space = fock.make_space(levels)
        H = model.build_effective_hamiltonian(p, space)
        ops = model.build_collapse_ops(p, space, "standard")
        return liouvillian.build_liouvillian(H, ops, "sandwich")

    return build


def run_scan(params: SystemParams, ladder=SCAN_LADDER):
    """Convergence scan; returns its rows and the steady-state result of each.

    ``convergence_scan`` keeps only observables, so the residual and notes
    of each solve are caught on their way out of ``steady_state``.
    """
    solves = []
    solve = liouvillian.steady_state

    def keep(*args, **kwargs):
        res = solve(*args, **kwargs)
        solves.append(res)
        return res

    liouvillian.steady_state = keep
    try:
        rows = liouvillian.convergence_scan(scan_builder(params), ladder)
    finally:
        liouvillian.steady_state = solve
    return rows, solves


def run_job(job: Job):
    """Execute one job; sweep jobs return CSV text, scans (rows, solves)."""
    if job.spec is None:
        return run_scan(job.params)
    return sweep.run_sweep(job.spec).to_csv()


def warm_up() -> None:
    """First calls of every path a workload uses, on tiny problems."""
    spec = SweepSpec(
        axes=(AxisSpec("delta", -2.0e5, 2.0e5, 2),),
        fixed=BASE.with_(g_omega=200.0, g_kappa=500.0, gamma=100.0),
        tiers=sweep.TIERS,
        trunc_effective=(3, 3),
        trunc_full=(2, 2, 3),
    )
    sweep.run_sweep(spec).to_csv()
    L = scan_builder(spec.fixed)((3, 3))
    liouvillian.mode_statistics(liouvillian.steady_state(L, method="krylov").state, 0)
