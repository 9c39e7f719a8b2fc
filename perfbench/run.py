"""Closed-loop sweep-job benchmark: one client runs seeded jobs back to back.

    python3 perfbench/run.py --workload analytic_map --seed 1 --seconds 24 --trace 0

Job latency counts only the job itself (run_sweep to finished CSV text);
output checks run between jobs, off the clock. With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it measures half the
time untraced and half traced on the same job sequence and reports
per-layer metrics plus the tracing overhead, writing its spans to
``perfbench/out/``. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, SOURCE, use_checkout_source  # noqa: E402

PROBE = Path(__file__).resolve().parent / "probe.py"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 5


@dataclass
class Phase:
    """Points and latency of each job one measuring phase ran.

    Both timings are medians over job-kind cycles: a whole cycle keeps the
    job mix fixed, and the median discounts a cycle that a noisy
    neighbour slowed down.
    """

    cycle: int
    points: list[int] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)

    def _cycles(self):
        c = self.cycle
        return [(sum(self.points[i:i + c]), sum(self.latencies[i:i + c])) for i in range(0, len(self.points), c)]

    @property
    def points_per_s(self) -> float:
        """Median over cycles of points per second of job time."""
        return statistics.median(points / busy for points, busy in self._cycles())

    @property
    def job_p50_s(self) -> float:
        """Median over cycles of the mean job latency in the cycle."""
        return statistics.median(busy / self.cycle for _, busy in self._cycles())


def measure(workload, seed, seconds, checker, tracer=None, after_cycle=None) -> Phase:
    """Run the seed's jobs until ``seconds`` of job time have passed.

    The phase ends on the first job-kind cycle boundary after that, so
    every phase has the same mix of job kinds. ``after_cycle`` is called,
    off the clock, at each cycle boundary.
    """
    from perfbench import workloads

    phase = Phase(workloads.CYCLE[workload])
    busy = 0.0
    for job in workloads.job_stream(workload, seed):
        t0 = perf_counter()
        if tracer is None:
            out = workloads.run_job(job)
        else:
            out = tracer.run(job.id, workloads.run_job, job)
        dt = perf_counter() - t0
        busy += dt
        phase.points.append(job.points)
        phase.latencies.append(dt)
        if job.spec is None:
            checker.check_scan(job, out)
        else:
            checker.check_sweep(job, out)
        if len(phase.latencies) % phase.cycle == 0:
            if after_cycle is not None:
                after_cycle()
            if busy >= seconds:
                return phase


def peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process to its first job ready."""
    t0 = monotonic()
    done = subprocess.run(
        [sys.executable, str(PROBE), workload, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    return float(done.stdout.split()[-1]) - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not use_checkout_source():
        print(f"error: no msiblockade sources under {SOURCE}", file=sys.stderr)
        return 2
    import msiblockade

    if Path(msiblockade.__file__).resolve().parent != SOURCE / "msiblockade":
        print(f"error: imported msiblockade from {msiblockade.__file__}, not {SOURCE}", file=sys.stderr)
        return 2
    from perfbench import checks, tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; valid: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workloads.warm_up()
    checker = checks.Checker(args.seed)

    if not args.trace:
        # set-up probes run between cycles, so they sample the host's speed
        # over the whole run rather than in one burst
        setups = []

        def probe():
            if len(setups) < SETUP_PROBES:
                setups.append(setup_probe(args.workload, args.seed))

        phase = measure(args.workload, args.seed, args.seconds, checker, after_cycle=probe)
        while len(setups) < SETUP_PROBES:
            probe()
        metrics = {
            "points_per_s": phase.points_per_s,
            "job_p50_s": phase.job_p50_s,
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": statistics.median(setups),
        }
        section = "end_to_end"
    else:
        half = args.seconds / 2.0
        untraced = measure(args.workload, args.seed, half, checker)
        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS)
        try:
            traced = measure(args.workload, args.seed, half, checker, tracer)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans)
        metrics.update({
            "trace.untraced_points_per_s": untraced.points_per_s,
            "trace.traced_points_per_s": traced.points_per_s,
            "trace.overhead_share": 1.0 - traced.points_per_s / untraced.points_per_s,
            "trace.spans": len(tracer.spans),
        })
        section = "per_layer"
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    for message in checker.messages:
        print(f"check failed: {message}", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    result = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in declared}
    for name, m in result.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
