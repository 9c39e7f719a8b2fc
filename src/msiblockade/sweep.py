"""Parameter-sweep engine: point evaluation, configs, grid execution, CSV output.

A sweep is one or two axes over SystemParams fields (plus the compound
aliases ``delta``, ``kappa``, ``eps`` that move both cavities together),
evaluated on any subset of the four model tiers. ``run_sweep`` evaluates
the ``analytic`` and ``semiclassical`` tiers once over the whole grid, as
arrays (``SweepSpec.param_arrays``), and the master-equation tiers point
by point through ``evaluate_point``, which is also the ``g2`` command's
one-point evaluator and uses the same array code for the grid tiers. Row
order is row-major over the axes, tiers in ``TIERS`` order.
``SweepResult`` holds the rows as columns, and ``SweepResult.to_csv`` is
the one sweep CSV format (the figure presets append derived ``log10_*``
columns through it); floats use shortest round-trip formatting so
identical specs give byte-identical files.
"""

from __future__ import annotations

import difflib
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import yaml

from .analytic import amplitude_occupations, amplitude_steady_states_grid, g2_analytic_grid
from .fock import make_space
from .liouvillian import build_liouvillian, mode_statistics, steady_state
from .model import (
    RATE_FIELDS,
    SystemParams,
    build_collapse_ops,
    build_effective_hamiltonian,
    build_full_hamiltonian,
)
from .semiclassical import reduced_fixed_point_grid

TIERS = ("analytic", "master_effective", "master_full", "semiclassical")
# tiers evaluated over a whole grid at once, as arrays
GRID_TIERS = ("analytic", "semiclassical")
# the value cells of a row, after its axis values and tier
VALUE_FIELDS = ("g2_c", "g2_e", "n_c", "n_e", "status", "residual")

# default Fock truncations: levels per cavity (effective model), and
# cavity, cavity, mechanics (full model)
TRUNC_EFFECTIVE = (6, 6)
TRUNC_FULL = (4, 4, 8)

# compound axis names that sweep both cavities at once
AXIS_ALIASES = {
    "delta": ("delta_c", "delta_e"),
    "kappa": ("kappa_c", "kappa_e"),
    "eps": ("eps_c", "eps_e"),
}

PARAM_FIELDS = RATE_FIELDS
AXIS_NAMES = PARAM_FIELDS + tuple(AXIS_ALIASES)


class ConfigError(ValueError):
    """A sweep configuration failed validation."""


def _suggest(key: str, valid, kind: str = "key") -> str:
    close = difflib.get_close_matches(key, list(valid), n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return f"unknown {kind} {key!r}{hint}"


def _canonical_tiers(tiers) -> tuple[str, ...]:
    """The requested tiers, validated, deduplicated and in TIERS order."""
    for t in tiers:
        if t not in TIERS:
            raise ConfigError(_suggest(str(t), TIERS, "tier"))
    if not tiers:
        raise ConfigError("need at least one tier")
    return tuple(t for t in TIERS if t in tiers)


@dataclass(frozen=True)
class AxisSpec:
    name: str
    min: float
    max: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ConfigError(_suggest(self.name, AXIS_NAMES))
        for bound, value in (("min", self.min), ("max", self.max)):
            if not math.isfinite(value):
                raise ConfigError(f"axis {self.name!r}: {bound} must be finite, got {value}")
        if self.count < 2:
            raise ConfigError(f"axis {self.name!r}: count must be >= 2, got {self.count}")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"axis {self.name!r}: scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and (self.min <= 0 or self.max <= 0):
            raise ConfigError(f"axis {self.name!r}: log scale requires positive range")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.logspace(math.log10(self.min), math.log10(self.max), self.count)
        return np.linspace(self.min, self.max, self.count)

    def param_updates(self, value: float) -> dict:
        names = AXIS_ALIASES.get(self.name, (self.name,))
        return {n: float(value) for n in names}


@dataclass(frozen=True)
class SweepSpec:
    axes: tuple[AxisSpec, ...]
    fixed: SystemParams = SystemParams()
    tiers: tuple[str, ...] = ("analytic",)
    trunc_effective: tuple[int, int] = TRUNC_EFFECTIVE
    trunc_full: tuple[int, int, int] = TRUNC_FULL
    output: str | None = None

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ConfigError(f"need 1 or 2 axes, got {len(self.axes)}")
        # rows come out in TIERS order, so the spec states them that way too
        object.__setattr__(self, "tiers", _canonical_tiers(self.tiers))
        if len(self.trunc_effective) != 2:
            raise ConfigError(f"truncations.effective needs exactly 2 mode levels, got {self.trunc_effective}")
        if len(self.trunc_full) != 3:
            raise ConfigError(f"truncations.full needs exactly 3 mode levels, got {self.trunc_full}")

    def grid(self):
        """Row-major iteration over the axis product, as tuples of floats."""
        return itertools.product(*(ax.values().tolist() for ax in self.axes))

    def param_arrays(self) -> dict[str, np.ndarray]:
        """Each rate, detuning and drive as a flat array over the grid, in
        the order of :meth:`grid`; an alias axis fills both of its fields."""
        # repeat/tile rather than np.meshgrid: numpy 2.4's broadcast_to,
        # which meshgrid calls, keeps a small object alive on every call
        values = [ax.values() for ax in self.axes]
        size = math.prod(len(v) for v in values)
        arrays = {name: np.full(size, getattr(self.fixed, name), dtype=float) for name in RATE_FIELDS}
        inner = size
        for ax, v in zip(self.axes, values):
            inner //= len(v)
            grid = np.tile(np.repeat(v, inner), size // (len(v) * inner))
            for name in AXIS_ALIASES.get(ax.name, (ax.name,)):
                arrays[name] = grid
        return arrays

    def point_params(self, values) -> SystemParams:
        updates = {}
        for ax, v in zip(self.axes, values):
            updates.update(ax.param_updates(v))
        return self.fixed.with_(**updates)


@dataclass(frozen=True)
class SweepRow:
    axis_values: tuple[float, ...]
    tier: str
    g2_c: float | None
    g2_e: float | None
    n_c: float | None
    n_e: float | None
    status: str
    residual: float | None


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's rows, held as columns in row order.

    ``columns`` maps each CSV column (the axis names, ``tier``, then
    VALUE_FIELDS) to one entry per row: a float array for a numeric
    column, where a non-finite value is an empty cell, and a list of str
    for ``tier`` and ``status``. ``rows`` reads them as SweepRow records.
    """

    spec: SweepSpec
    columns: dict

    @property
    def rows(self) -> Sequence[SweepRow]:
        return _Rows(self)

    def to_csv(self, log_cols=()) -> str:
        """CSV text; each name in ``log_cols`` (a numeric row field such as
        ``g2_c``) appends a derived ``log10_<name>`` column, empty where the
        value is missing or not positive."""
        header = [*self.columns, *(f"log10_{c}" for c in log_cols)]
        cols = [_fmt_column(c) for c in self.columns.values()]
        cols += [_log10_column(self.columns[c]) for c in log_cols]
        return "\n".join([",".join(header), *map(",".join, zip(*cols))]) + "\n"

    def write_csv(self, path, log_cols=()) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv(log_cols))

    def tier_rows(self, tier: str) -> list[SweepRow]:
        return [r for r in self.rows if r.tier == tier]

    @property
    def hard_errors(self) -> int:
        return sum(1 for s in self.columns["status"] if s.startswith("error"))


class _Rows(Sequence):
    """The rows of a SweepResult as SweepRow records, each made when read."""

    def __init__(self, result: SweepResult):
        self._columns = result.columns
        self._axes = [ax.name for ax in result.spec.axes]

    def __len__(self) -> int:
        return len(self._columns["tier"])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        i = range(len(self))[i]
        c = self._columns
        axis_values = tuple(float(c[name][i]) for name in self._axes)
        return _row(axis_values, c["tier"][i], [c[f][i] for f in VALUE_FIELDS])


def _fmt(v) -> str:
    """Shortest round-trip decimal; empty cell for missing/non-finite."""
    if v is None:
        return ""
    v = float(v)
    if not math.isfinite(v):
        return ""
    return repr(v)


def _fmt_column(col) -> list[str]:
    """A column's CSV cells: ``_fmt`` of each number, computed once per
    distinct bit pattern (axis columns repeat few values); str cells as
    they are."""
    if isinstance(col, list):
        return col
    col = np.ascontiguousarray(col, dtype=float)
    bits = col.view(np.int64).tolist()
    cells = {b: _fmt(v) for b, v in dict(zip(bits, col.tolist())).items()}
    return [cells[b] for b in bits]


def _log10_column(col) -> list[str]:
    return [repr(math.log10(v)) if v > 0 and math.isfinite(v) else "" for v in col.tolist()]


def _cell(v) -> float | None:
    """A numeric row cell: the float, or None where it is missing or not finite."""
    return float(v) if v is not None and math.isfinite(v) else None


def _row(axis_values, tier: str, cells) -> SweepRow:
    g2_c, g2_e, n_c, n_e, status, residual = cells
    return SweepRow(axis_values, tier, _cell(g2_c), _cell(g2_e), _cell(n_c), _cell(n_e), status, _cell(residual))


def _error_status(exc: Exception) -> str:
    return f"error:{type(exc).__name__}:{exc}"


# -- tier evaluation ---------------------------------------------------------
#
# A tier's cells over n points are (g2_c, g2_e, n_c, n_e, status, residual):
# float arrays with NaN for an empty cell, and a list of status strings.


def _tier_liouvillian(p: SystemParams, trunc, full: bool):
    """The effective (two-mode) or full (three-mode) model's Liouvillian."""
    space = make_space(trunc)
    if full:
        H = build_full_hamiltonian(p, space)
        ops = build_collapse_ops(p, space, "displacement_modified")
    else:
        H = build_effective_hamiltonian(p, space)
        ops = build_collapse_ops(p, space, "standard")
    return build_liouvillian(H, ops, "sandwich")


def _analytic_status(pole_fA: bool, pole_jc: bool, amps: str) -> str:
    parts = []
    if pole_fA:
        parts += ["c:pole_fA", "e:pole_fA"]
    elif pole_jc:
        parts.append("e:pole_JplusDeltaC")
    if amps and not (pole_fA and amps == "pole_fA"):
        parts.append(f"amps:{amps}")
    return ";".join(parts) or "ok"


# amplitude-route outcomes beside "ok": its two poles, and doubles that are
# not finite without a pole (omega_m = 0 leaves the Kerr shift undefined)
_AMPS = ("", "pole_DJ", "pole_fA", "undefined")


def _analytic_cells(q) -> tuple:
    """Closed-form g2, and occupations from the amplitude route where the drives are equal."""
    g2_c, g2_e, pole_fA, pole_jc = g2_analytic_grid(q)
    n = len(g2_c)
    n_c = np.full(n, np.nan)
    n_e = np.full(n, np.nan)
    amps = np.zeros(n, dtype=int)
    equal = np.flatnonzero(q["eps_c"] == q["eps_e"])
    cc, ce, cce, ccc, cee, pole_DJ, pole_amp_fA = amplitude_steady_states_grid({k: v[equal] for k, v in q.items()})
    n_c[equal], n_e[equal] = amplitude_occupations(cc, ce, cce, ccc, cee)
    undefined = ~(pole_DJ | pole_amp_fA) & ~np.isfinite(n_c[equal])
    amps[equal] = np.select([pole_DJ, pole_amp_fA, undefined], [1, 2, 3])
    code = pole_fA + 2 * pole_jc + 4 * amps
    table = {c: _analytic_status(bool(c & 1), bool(c & 2), _AMPS[c >> 2]) for c in np.unique(code).tolist()}
    status = [table[c] for c in code.tolist()]
    return g2_c, g2_e, n_c, n_e, status, np.full(n, np.nan)


def _semiclassical_cells(q) -> tuple:
    """Mean-field occupations |alpha|^2 at the reduced system's fixed points."""
    ac, ae, converged, pole = reduced_fixed_point_grid(q)
    h_c, h_e = np.hypot(ac.real, ac.imag), np.hypot(ae.real, ae.imag)
    labels = ("no_convergence", "ok", "pole_DJ")
    status = [labels[c] for c in np.where(pole, 2, converged.astype(int)).tolist()]
    nan = np.full(len(ac), np.nan)
    return nan, nan, h_c * h_c, h_e * h_e, status, nan


def _grid_cells(tier: str, q) -> tuple:
    """One grid tier's cells over the points of ``q`` (see SweepSpec.param_arrays)."""
    try:
        return (_analytic_cells if tier == "analytic" else _semiclassical_cells)(q)
    except Exception as exc:  # a failed tier is recorded in its rows, never fatal
        nan = np.full(len(q["J"]), np.nan)
        return nan, nan, nan, nan, [_error_status(exc)] * len(nan), nan


def _eval_master(p: SystemParams, trunc, full: bool) -> tuple:
    res = steady_state(_tier_liouvillian(p, trunc, full))
    n_c, g2_c = mode_statistics(res.state, 0)
    n_e, g2_e = mode_statistics(res.state, 1)
    status = "ok" if not res.notes else ";".join(res.notes)
    return g2_c, g2_e, n_c, n_e, status, res.residual


def evaluate_point(
    p: SystemParams,
    tiers,
    trunc_effective=TRUNC_EFFECTIVE,
    trunc_full=TRUNC_FULL,
    axis_values=(),
) -> list[SweepRow]:
    """One row per requested tier at parameter point ``p``, in TIERS order.

    The grid tiers run the same array code as ``run_sweep``, on one point.
    An unknown or empty ``tiers`` raises :class:`ConfigError`. A tier that
    fails at this point is not fatal: its row carries empty cells and an
    ``error:<type>:<message>`` status. ``axis_values`` labels the rows with
    the point's grid coordinates.
    """
    rows = []
    for tier in _canonical_tiers(tiers):
        if tier in GRID_TIERS:
            cells = [c[0] for c in _grid_cells(tier, p.as_arrays())]
        else:
            try:
                cells = _eval_master(p, trunc_full if tier == "master_full" else trunc_effective, tier == "master_full")
            except Exception as exc:  # per-point failures are recorded, never fatal
                cells = (None, None, None, None, _error_status(exc), None)
        rows.append(_row(tuple(axis_values), tier, cells))
    return rows


def _point_errors(spec: SweepSpec) -> list[str | None] | None:
    """Per grid point, the error status of its invalid SystemParams, or None.

    Returns None when every point is valid. Each axis value is validated
    once; only a point where two axis values are invalid is built whole,
    to name the field SystemParams checks first.
    """
    per_axis = []
    for ax in spec.axes:
        messages = []
        for v in ax.values().tolist():
            try:
                spec.fixed.with_(**ax.param_updates(v))
                messages.append(None)
            except ValueError as exc:
                messages.append(_error_status(exc))
        per_axis.append(messages)
    if not any(m for messages in per_axis for m in messages):
        return None
    errors = []
    for values, messages in zip(spec.grid(), itertools.product(*per_axis)):
        bad = [m for m in messages if m]
        if len(bad) > 1:
            try:
                spec.point_params(values)
            except ValueError as exc:
                bad = [_error_status(exc)]
        errors.append(bad[0] if bad else None)
    return errors


def _rows_to_cells(rows) -> tuple:
    values = [[getattr(r, f) for r in rows] for f in VALUE_FIELDS]
    return tuple(
        col if f == "status" else np.array([np.nan if v is None else v for v in col], dtype=float)
        for f, col in zip(VALUE_FIELDS, values)
    )


def _scatter(cells, valid, errors) -> tuple:
    """A tier's cells at the ``valid`` points, spread over the whole grid;
    the other points carry their error status and empty cells."""
    out = []
    for col in cells:
        if isinstance(col, list):
            full = list(errors)
            for i, s in zip(valid.tolist(), col):
                full[i] = s
        else:
            full = np.full(len(errors), np.nan)
            full[valid] = col
        out.append(full)
    return tuple(out)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every grid point on every requested tier.

    The grid tiers (GRID_TIERS) are evaluated once over the whole grid, the
    master-equation tiers point by point, in order. Rows come out in
    row-major grid order. A point whose parameters are invalid (a negative
    or non-finite rate) gets an ``error:ValueError:...`` row on every tier.
    """
    arrays = spec.param_arrays()
    n = len(arrays["J"])
    errors = _point_errors(spec)
    valid = np.arange(n) if errors is None else np.flatnonzero([e is None for e in errors])
    q = arrays if errors is None else {k: v[valid] for k, v in arrays.items()}
    cells = {t: _grid_cells(t, q) for t in spec.tiers if t in GRID_TIERS}
    master = tuple(t for t in spec.tiers if t not in GRID_TIERS)
    if master:
        points = list(spec.grid())
        per_point = [
            evaluate_point(spec.point_params(points[i]), master, spec.trunc_effective, spec.trunc_full)
            for i in valid.tolist()
        ]
        for k, tier in enumerate(master):
            cells[tier] = _rows_to_cells([rows[k] for rows in per_point])

    if errors is not None:
        cells = {t: _scatter(c, valid, errors) for t, c in cells.items()}
    T = len(spec.tiers)
    columns = {ax.name: np.repeat(arrays[AXIS_ALIASES.get(ax.name, (ax.name,))[0]], T) for ax in spec.axes}
    columns["tier"] = list(spec.tiers) * n
    for k, field in enumerate(VALUE_FIELDS):
        col = [None] * (n * T) if field == "status" else np.empty(n * T)
        for t, tier in enumerate(spec.tiers):
            col[t::T] = cells[tier][k]
        columns[field] = col
    return SweepResult(spec, columns)


# -- configuration ----------------------------------------------------------

_TOP_KEYS = ("axes", "fixed", "tiers", "truncations", "output")
_AXIS_KEYS = ("name", "min", "max", "count", "scale")
_TRUNC_KEYS = ("effective", "full")


def _check_keys(mapping, valid, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(mapping).__name__}")
    for key in mapping:
        if key not in valid:
            raise ConfigError(f"in {where}: " + _suggest(str(key), valid))


def _number(value, key: str, kind=float):
    """``kind(value)``, or a ConfigError naming ``key``; an ``int`` must
    equal the value it is read from, so 3.9 is refused rather than cut to 3."""
    try:
        number = kind(value)
        exact = kind is not int or number == float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc
    if not exact:
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return number


def _levels(value, key: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of mode levels, got {value!r}")
    return tuple(_number(x, key, int) for x in value)


def parse_config(text: str) -> SweepSpec:
    """Parse and fully validate a YAML sweep configuration.

    Unknown keys are rejected with a nearest-match hint; all missing
    required fields are reported in a single error.
    """
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    _check_keys(raw, _TOP_KEYS, "config")

    missing = []
    if "axes" not in raw or not raw["axes"]:
        missing.append("axes (list of {name, min, max, count[, scale]})")
    if missing:
        raise ConfigError("missing required fields: " + "; ".join(missing))

    if not isinstance(raw["axes"], list):
        raise ConfigError(f"axes must be a list, got {raw['axes']!r}")
    axes = []
    for i, ax in enumerate(raw["axes"]):
        _check_keys(ax, _AXIS_KEYS, f"axes[{i}]")
        ax_missing = [k for k in ("name", "min", "max", "count") if k not in ax]
        if ax_missing:
            raise ConfigError(f"axes[{i}] missing required fields: {', '.join(ax_missing)}")
        axes.append(
            AxisSpec(
                name=str(ax["name"]),
                min=_number(ax["min"], f"axes[{i}].min"),
                max=_number(ax["max"], f"axes[{i}].max"),
                count=_number(ax["count"], f"axes[{i}].count", int),
                scale=str(ax.get("scale", "linear")),
            )
        )

    fixed_raw = raw.get("fixed", {}) or {}
    _check_keys(fixed_raw, PARAM_FIELDS + ("n_th", "t_bath"), "fixed")
    values = {k: _number(v, f"fixed.{k}") for k, v in fixed_raw.items()}
    try:
        fixed = SystemParams(**values)
    except ValueError as exc:  # SystemParams' range checks name the field
        raise ConfigError(f"fixed: {exc}") from exc

    tiers = raw.get("tiers", ["analytic"])
    if not isinstance(tiers, list):
        raise ConfigError("tiers must be a list")

    trunc_raw = raw.get("truncations", {}) or {}
    _check_keys(trunc_raw, _TRUNC_KEYS, "truncations")
    output = raw.get("output")
    return SweepSpec(
        axes=tuple(axes),
        fixed=fixed,
        tiers=tuple(tiers),
        trunc_effective=_levels(trunc_raw.get("effective", TRUNC_EFFECTIVE), "truncations.effective"),
        trunc_full=_levels(trunc_raw.get("full", TRUNC_FULL), "truncations.full"),
        output=str(output) if output is not None else None,
    )


def serialize(spec: SweepSpec) -> str:
    """Canonical YAML text for a spec; parse(serialize(parse(x))) is stable."""
    doc = {
        "axes": [
            {"name": ax.name, "min": ax.min, "max": ax.max, "count": ax.count, "scale": ax.scale}
            for ax in spec.axes
        ],
        "fixed": {k: getattr(spec.fixed, k) for k in PARAM_FIELDS},
        "tiers": list(spec.tiers),
        "truncations": {"effective": list(spec.trunc_effective), "full": list(spec.trunc_full)},
    }
    if spec.output is not None:
        doc["output"] = spec.output
    return yaml.safe_dump(doc, sort_keys=False)
