"""Parameter-sweep engine: point evaluation, configs, grid execution, CSV output.

A sweep is one or two axes over SystemParams fields (plus the compound
aliases ``delta``, ``kappa``, ``eps`` that move both cavities together),
evaluated on any subset of the four model tiers. ``evaluate_point`` is the
one place a parameter point is evaluated: ``run_sweep`` calls it for every
grid point, and the ``g2`` command for its single point. Row order is
row-major over the axes, tiers in ``TIERS`` order, fixed regardless of
execution parallelism. ``SweepResult.to_csv`` is the one sweep CSV format
(the figure presets append derived ``log10_*`` columns through it); floats
use shortest round-trip formatting so identical specs give byte-identical
files.
"""

from __future__ import annotations

import difflib
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np
import yaml

from .analytic import amplitude_steady_states, g2_analytic
from .fock import make_space
from .liouvillian import build_liouvillian, mode_statistics, steady_state
from .model import SystemParams, build_collapse_ops, build_effective_hamiltonian, build_full_hamiltonian
from .semiclassical import reduced_fixed_point

TIERS = ("analytic", "master_effective", "master_full", "semiclassical")

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

PARAM_FIELDS = tuple(
    f.name for f in fields(SystemParams) if f.name not in ("n_th", "t_bath")
)
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


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]

    def to_csv(self, log_cols=()) -> str:
        """CSV text; each name in ``log_cols`` (a numeric row field such as
        ``g2_c``) appends a derived ``log10_<name>`` column, empty where the
        value is missing or not positive."""
        header = [ax.name for ax in self.spec.axes] + [
            "tier", "g2_c", "g2_e", "n_c", "n_e", "status", "residual",
        ] + [f"log10_{c}" for c in log_cols]
        lines = [",".join(header)]
        for r in self.rows:
            cells = [_fmt(v) for v in r.axis_values]
            cells += [r.tier, _fmt(r.g2_c), _fmt(r.g2_e), _fmt(r.n_c), _fmt(r.n_e), r.status, _fmt(r.residual)]
            cells += [_fmt_log10(getattr(r, c)) for c in log_cols]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write_csv(self, path, log_cols=()) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv(log_cols))

    def tier_rows(self, tier: str) -> list[SweepRow]:
        return [r for r in self.rows if r.tier == tier]

    @property
    def hard_errors(self) -> int:
        return sum(1 for r in self.rows if r.status.startswith("error"))


def _fmt(v) -> str:
    """Shortest round-trip decimal; empty cell for missing/non-finite."""
    if v is None:
        return ""
    v = float(v)
    if not math.isfinite(v):
        return ""
    return repr(v)


def _fmt_log10(v) -> str:
    return _fmt(math.log10(v)) if v is not None and v > 0 else ""


# -- per-point tier evaluation ---------------------------------------------
#
# Each _eval_* returns the row cells (g2_c, g2_e, n_c, n_e, status, residual).


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


def _eval_analytic(p: SystemParams) -> tuple:
    res = g2_analytic(p)
    status_parts = []
    if res.status_c.value != "ok":
        status_parts.append(f"c:{res.status_c.value}")
    if res.status_e.value != "ok":
        status_parts.append(f"e:{res.status_e.value}")
    n_c = n_e = None
    if p.eps_c == p.eps_e:
        amps = amplitude_steady_states(p)
        if amps.status.value == "ok":
            n_c, n_e = amps.occupations()
        elif amps.status.value not in " ".join(status_parts):
            status_parts.append(f"amps:{amps.status.value}")
    status = ";".join(status_parts) if status_parts else "ok"
    g2_c = res.g2_c if math.isfinite(res.g2_c) else None
    g2_e = res.g2_e if math.isfinite(res.g2_e) else None
    return g2_c, g2_e, n_c, n_e, status, None


def _eval_master(p: SystemParams, trunc, full: bool) -> tuple:
    res = steady_state(_tier_liouvillian(p, trunc, full))
    n_c, g2_c = mode_statistics(res.state, 0)
    n_e, g2_e = mode_statistics(res.state, 1)
    status = "ok" if not res.notes else ";".join(res.notes)
    g2_c = g2_c if math.isfinite(g2_c) else None
    g2_e = g2_e if math.isfinite(g2_e) else None
    return g2_c, g2_e, n_c, n_e, status, res.residual


def _eval_semiclassical(p: SystemParams) -> tuple:
    ac, ae, ok = reduced_fixed_point(p)
    status = "ok" if ok else "no_convergence"
    return None, None, abs(ac) ** 2, abs(ae) ** 2, status, None


def evaluate_point(
    p: SystemParams,
    tiers,
    trunc_effective=TRUNC_EFFECTIVE,
    trunc_full=TRUNC_FULL,
    axis_values=(),
) -> list[SweepRow]:
    """One row per requested tier at parameter point ``p``, in TIERS order.

    An unknown or empty ``tiers`` raises :class:`ConfigError`. A tier that
    fails at this point is not fatal: its row carries empty cells and an
    ``error:<type>:<message>`` status. ``axis_values`` labels the rows with
    the point's grid coordinates.
    """
    rows = []
    for tier in _canonical_tiers(tiers):
        try:
            if tier == "analytic":
                cells = _eval_analytic(p)
            elif tier == "master_effective":
                cells = _eval_master(p, trunc_effective, full=False)
            elif tier == "master_full":
                cells = _eval_master(p, trunc_full, full=True)
            else:
                cells = _eval_semiclassical(p)
        except Exception as exc:  # per-point failures are recorded, never fatal
            cells = (None, None, None, None, f"error:{type(exc).__name__}:{exc}", None)
        rows.append(SweepRow(tuple(axis_values), tier, *cells))
    return rows


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Evaluate every grid point on every requested tier.

    Points are independent; with ``threads > 1`` they run in a process
    pool, but rows are aggregated in fixed row-major grid order either way.
    """
    points = list(spec.grid())
    args = (
        map(spec.point_params, points),
        itertools.repeat(spec.tiers),
        itertools.repeat(spec.trunc_effective),
        itertools.repeat(spec.trunc_full),
        points,
    )
    if threads > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunk = max(1, len(points) // (8 * threads))
            per_point = list(pool.map(evaluate_point, *args, chunksize=chunk))
    else:
        per_point = map(evaluate_point, *args)
    rows = tuple(row for rows in per_point for row in rows)
    return SweepResult(spec, rows)


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
    """``kind(value)``, or a ConfigError naming ``key``."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc


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
