"""Output checks for every job a run executes.

Every CSV row and every scan row is checked; a seeded grid point per sweep
job is also recomputed by a second route. A row that fails any check
counts once towards the run's ``failed`` total. A check that fails
because the program is wrong stays failing: no tolerance below widens
with the parameters of the point, and a solve that flags its own result
fails. The defects these checks find at this commit are listed in
NOTES.md.

Tolerances, and why they are what they are:

* ``RESIDUAL_LIMIT``: the steady-state residual bound of the library's own
  tests, for every master row and every scan solve.
* Analytic versus amplitude route: both are exact at kappa = 0 but round
  differently; agreement is required to ``ROUTE_RTOL * cond**2``, with
  ``cond`` the worst cancellation ratio among the closed form's factors.
  A point where the amplitude route reports a pole verifies nothing; the
  row must then name that pole in its status.
* Direct versus Krylov steady state: the library tests' tolerance
  ``SOLVER_RTOL``, plus for g2 the float64 floor of the two-photon moment
  the presets' truncation gate uses (``MOMENT_FLOOR / n**2``).
"""

from __future__ import annotations

import math
import random

from msiblockade import analytic, fock, liouvillian, model
from msiblockade.model import derived_couplings

RESIDUAL_LIMIT = 1e-10
ROUTE_RTOL = 1e-10
SOLVER_RTOL = 1e-5
MOMENT_FLOOR = 2e-11

# cells each tier defines; the others are empty by design
DEFINED = {
    "analytic": ("g2_c", "g2_e", "n_c", "n_e"),
    "master_effective": ("g2_c", "g2_e", "n_c", "n_e", "residual"),
    "master_full": ("g2_c", "g2_e", "n_c", "n_e", "residual"),
    "semiclassical": ("n_c", "n_e"),
}
VALUE_COLUMNS = ("g2_c", "g2_e", "n_c", "n_e", "status", "residual")


def _cell(text: str) -> float | None:
    return float(text) if text else None


def route_condition(p) -> float:
    """Worst cancellation ratio among the factors of the closed-form g2."""
    d = derived_couplings(p)

    def ratio(magnitude, value):
        return magnitude / abs(value) if value else math.inf

    return max(
        1.0,
        ratio(abs(p.J) + abs(p.delta_c), p.J + p.delta_c),
        ratio(abs(p.J) + abs(p.delta_e), p.J + p.delta_e),
        ratio(p.J**2 + abs(p.delta_c * p.delta_e), d.D_J),
        ratio(abs(p.delta_c) + abs(p.delta_e), d.K),
        ratio(abs(2.0 * p.omega_m * d.K + d.G) * abs(d.D_J) + abs(d.G) * p.delta_e**2, d.f_A),
    )


def effective_liouvillian(p, trunc):
    space = fock.make_space(trunc)
    H = model.build_effective_hamiltonian(p, space)
    return liouvillian.build_liouvillian(H, model.build_collapse_ops(p, space, "standard"), "sandwich")


def _close(a: float, b: float, tol: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= tol


def solve_problem(res) -> str | None:
    """What is wrong with a steady-state result, if anything."""
    if res.notes:
        return f"solver flagged its result: {'; '.join(res.notes)}"
    if not res.residual <= RESIDUAL_LIMIT:
        return f"residual {res.residual:.3e} > {RESIDUAL_LIMIT:.0e}"
    return None


class Checker:
    """Accumulates attempted and failed row counts over a run."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"check:{seed}")
        self.attempted = 0
        self._failed: set[tuple[int, int]] = set()
        self.messages: list[str] = []

    @property
    def failed(self) -> int:
        return len(self._failed)

    def _fail(self, job_id: int, row: int, why: str) -> None:
        self._failed.add((job_id, row))
        if len(self.messages) < 20:
            self.messages.append(f"job {job_id} row {row}: {why}")

    # -- sweep jobs ---------------------------------------------------------

    def check_sweep(self, job, csv_text: str) -> None:
        spec = job.spec
        lines = csv_text.split("\n")
        header = [ax.name for ax in spec.axes] + ["tier", *VALUE_COLUMNS]
        grid = list(spec.grid())
        expected = [(v, t) for v in grid for t in spec.tiers]
        self.attempted += len(expected)
        if lines[0] != ",".join(header) or lines[-1] != "" or len(lines) != len(expected) + 2:
            for i in range(len(expected)):
                self._fail(job.id, i, "CSV shape does not match the grid")
            return
        rows = {}
        for i, ((values, tier), line) in enumerate(zip(expected, lines[1:-1])):
            cells = line.split(",")
            if len(cells) != len(header):
                self._fail(job.id, i, f"{len(cells)} cells, expected {len(header)}")
                continue
            n_ax = len(spec.axes)
            row = dict(zip(VALUE_COLUMNS, cells[n_ax + 1:]))
            rows[(values, tier)] = (i, row)
            why = self._row_problem(values, tier, cells[:n_ax], cells[n_ax], row)
            if why:
                self._fail(job.id, i, why)
        values = grid[self.rng.randrange(len(grid))]
        if (values, "analytic") in rows:
            self._sample_analytic(job.id, spec.point_params(values), *rows[(values, "analytic")])
        if (values, "master_effective") in rows:
            self._sample_master(job.id, spec, values, *rows[(values, "master_effective")])

    def _row_problem(self, values, tier, axis_cells, tier_cell, row) -> str | None:
        try:
            if tier_cell != tier or axis_cells != [repr(float(v)) for v in values]:
                return f"row out of grid order: {axis_cells} {tier_cell}"
            status = row["status"]
            if status.startswith("error"):
                return f"status {status}"
            nums = {k: _cell(row[k]) for k in VALUE_COLUMNS if k != "status"}
        except ValueError as exc:
            return f"unparsable cell: {exc}"
        for k in DEFINED[tier]:
            if nums[k] is None and status == "ok":
                return f"{k} empty with status ok"
            if nums[k] is not None and not math.isfinite(nums[k]):
                return f"{k} not finite"
        for k in ("n_c", "n_e", "g2_c", "g2_e"):
            if nums[k] is not None and nums[k] < 0.0:
                return f"{k} = {nums[k]} < 0"
        if tier.startswith("master"):
            if status != "ok":
                return f"solver flagged its result: {status}"
            if nums["residual"] is None or not nums["residual"] <= RESIDUAL_LIMIT:
                return f"residual {row['residual']} > {RESIDUAL_LIMIT:.0e}"
        return None

    def _sample_analytic(self, job_id, p, i, row) -> None:
        amps = analytic.amplitude_steady_states(p)
        if amps.status.value != "ok":
            if f"amps:{amps.status.value}" not in row["status"]:
                self._fail(job_id, i, f"amplitude route at {amps.status.value} but status {row['status']!r}")
            return
        tol = ROUTE_RTOL * route_condition(p) ** 2
        for name, route in zip(("g2_c", "g2_e"), amps.g2()):
            cell = _cell(row[name])
            closed = math.inf if cell is None else cell
            if not _close(closed, route, tol * abs(closed) if math.isfinite(closed) else 0.0):
                self._fail(job_id, i, f"analytic {name} {closed!r} != amplitude route {route!r} (rtol {tol:.1e})")

    def _sample_master(self, job_id, spec, values, i, row) -> None:
        L = effective_liouvillian(spec.point_params(values), spec.trunc_effective)
        try:
            direct = liouvillian.steady_state(L, method="direct")
            krylov = liouvillian.steady_state(L, method="krylov")
        except liouvillian.SteadyStateError as exc:
            self._fail(job_id, i, f"sample re-solve failed: {exc}")
            return
        why = solve_problem(krylov)
        if why:
            self._fail(job_id, i, f"krylov re-solve: {why}")
        for mode, tag in ((0, "c"), (1, "e")):
            n_d, g2_d = liouvillian.mode_statistics(direct.state, mode)
            n_k, g2_k = liouvillian.mode_statistics(krylov.state, mode)
            checks = (
                (f"n_{tag}", n_d, n_k, SOLVER_RTOL * abs(n_d)),
                (f"g2_{tag}", g2_d, g2_k, SOLVER_RTOL * abs(g2_d) + MOMENT_FLOOR / max(n_d, 1e-300) ** 2),
            )
            for name, d, k, tol in checks:
                cell = _cell(row[name])
                if cell is not None and cell != d:
                    self._fail(job_id, i, f"{name} in CSV {cell!r} != direct re-solve {d!r}")
                if not _close(d, k, tol):
                    self._fail(job_id, i, f"{name} direct {d!r} != krylov {k!r} (tol {tol:.1e})")

    # -- convergence-scan jobs ----------------------------------------------

    def check_scan(self, job, out) -> None:
        """Scan rows, and the steady-state solve behind each of them."""
        rows, solves = out
        self.attempted += len(rows)
        if len(solves) != len(rows):
            for i in range(len(rows)):
                self._fail(job.id, i, f"{len(solves)} steady-state solves for {len(rows)} scan rows")
            return
        for i, (r, res) in enumerate(zip(rows, solves)):
            nums = [r.n_c, r.n_e, r.g2_c, r.g2_e, *(r.deltas or {}).values()]
            if not all(math.isfinite(x) for x in nums):
                self._fail(job.id, i, f"non-finite scan row {r}")
            elif min(r.n_c, r.n_e, r.g2_c, r.g2_e) < 0.0:
                self._fail(job.id, i, f"negative occupation or g2 in scan row {r}")
            elif why := solve_problem(res):
                self._fail(job.id, i, f"scan solve at {r.truncation}: {why}")
