"""Figure presets: named parameter studies with CSV + plot-script output.

Each preset writes one CSV per panel, a plain-text gnuplot script that
plots those CSVs, and (when matplotlib is importable) a rendered PNG.
Presets with a master-equation tier run a truncation-convergence gate
first and refuse to produce output from an unconverged truncation.

Axis spans not fixed by the preset definitions (2-D detuning windows, the kappa
span, the noise-surface ranges) are chosen to bracket every feature the
text names; see the preset docstrings.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .analytic import effective_noise
from .liouvillian import convergence_scan
from .model import SystemParams
from .sweep import TRUNC_EFFECTIVE, AxisSpec, SweepSpec, _fmt, _tier_liouvillian, run_sweep

FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8")

# parameters shared by all presets
_BASE = SystemParams(
    omega_m=1.0e6, kappa_c=5.0e3, kappa_e=5.0e3,
    eps_c=5.0e3, eps_e=5.0e3, J=2.0e5,
)

GATE_TOLERANCE = 1e-3
# absolute accuracy limit of the steady-state two-photon moment
# <a^dag a^dag a a> in float64 (empirical, conservative); g2 differences
# below MOMENT_FLOOR / n^2 are solver noise, not truncation error
MOMENT_FLOOR = 2e-11


class PresetGateError(RuntimeError):
    """A preset's truncation-convergence gate failed."""


@dataclass(frozen=True)
class PanelFiles:
    name: str
    csv_path: str


def _gate_master_effective(params_list, trunc=TRUNC_EFFECTIVE) -> None:
    """Check g2 stability under doubled truncation at probe points.

    Probing the full grid at doubled truncation would defeat the point of
    the gate (it would cost more than the figure); endpoints and centers
    of each panel are probed instead. The pass condition is a mixed
    tolerance: relative GATE_TOLERANCE plus an absolute floor
    MOMENT_FLOOR / n^2, because at deep blockade the two-photon moment
    sits below the solvers' absolute accuracy and its relative scatter
    says nothing about truncation.
    """
    doubled = tuple(2 * t for t in trunc)
    for p in params_list:
        lo, hi = convergence_scan(lambda levels: _tier_liouvillian(p, levels, full=False), [trunc, doubled])
        for mode, g2_lo, g2_hi, n in (
            ("c", lo.g2_c, hi.g2_c, max(lo.n_c, hi.n_c)),
            ("e", lo.g2_e, hi.g2_e, max(lo.n_e, hi.n_e)),
        ):
            # n floored at 1e-150, whose square is still a positive float
            tol = GATE_TOLERANCE * max(abs(g2_lo), abs(g2_hi)) + MOMENT_FLOOR / max(n, 1e-150) ** 2
            if abs(g2_hi - g2_lo) > tol:
                raise PresetGateError(
                    f"truncation gate failed at {p}: doubling {trunc} moves g2_{mode} "
                    f"from {g2_lo:.6e} to {g2_hi:.6e} (tolerance {tol:.2e})"
                )


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


# -- individual presets -----------------------------------------------------


def _fig2(out_dir: str) -> list[PanelFiles]:
    """Effective noise and photon temperature over (photon number, bath T).

    Spans: mean photon number 0..10 (51 points), bath temperature
    10 mK..300 K log-spaced (51 points); the quoted reference point
    (N=2, T=10 K) sits inside.
    """
    p = _BASE.with_(g_omega=200.0, g_kappa=500.0)
    n_grid = np.linspace(0.0, 10.0, 51)
    t_grid = np.logspace(-2, math.log10(300.0), 51)
    lines = ["n_photon,t_bath,n_eff,t_eff,flags"]
    for n in n_grid:
        for t in t_grid:
            rep = effective_noise(p, float(n), float(t))
            flags = ";".join(rep.notes) if rep.notes else "ok"
            lines.append(f"{_fmt(n)},{_fmt(t)},{_fmt(rep.n_eff)},{_fmt(rep.t_eff)},{flags}")
    path = os.path.join(out_dir, "fig2_noise.csv")
    _write_text(path, "\n".join(lines) + "\n")
    return [PanelFiles("noise", path)]


def _panel(out_dir: str, fig: str, name: str, spec: SweepSpec, probes=(), log_cols=("g2_c", "g2_e")) -> PanelFiles:
    """One panel: gate the master tier at the ``probes`` axis values (when
    there are any), sweep ``spec`` and write ``<fig>_<name>.csv`` with a
    ``log10_*`` column per name in ``log_cols``."""
    if probes:
        _gate_master_effective([spec.point_params(v) for v in probes], spec.trunc_effective)
    path = os.path.join(out_dir, f"{fig}_{name}.csv")
    run_sweep(spec).write_csv(path, log_cols=log_cols)
    return PanelFiles(name, path)


def fig3_spec() -> SweepSpec:
    """Detuning sweep preset: analytic vs master-equation g2, 401 points."""
    return SweepSpec(
        axes=(AxisSpec("delta", -5.0e5, 5.0e5, 401),),
        fixed=_BASE.with_(g_omega=200.0, g_kappa=500.0),
        tiers=("analytic", "master_effective"),
    )


def _fig3(out_dir: str) -> list[PanelFiles]:
    return [_panel(out_dir, "fig3", "detuning", fig3_spec(), probes=((-5.0e5,), (0.0,), (5.0e5,)))]


def _fig45(out_dir: str, fig: str) -> list[PanelFiles]:
    """Analytic g2 maps over (delta_c, delta_e) in [-0.5, 0.5] omega_m.

    One panel per dissipative coupling value; fig4 reports the
    optomechanical cavity, fig5 the empty cavity.
    """
    axes = (AxisSpec("delta_c", -5.0e5, 5.0e5, 101), AxisSpec("delta_e", -5.0e5, 5.0e5, 101))
    fixed = _BASE.with_(g_omega=400.0)
    log_cols = ("g2_c",) if fig == "fig4" else ("g2_e",)
    return [
        _panel(out_dir, fig, f"gk{int(gk)}", SweepSpec(axes, fixed.with_(g_kappa=gk)), log_cols=log_cols)
        for gk in (0.0, 200.0, 400.0, 600.0)
    ]


def _fig6(out_dir: str) -> list[PanelFiles]:
    """Master-equation g2 over the coupling plane (g_omega, g_kappa).

    Span 0..1000 Hz on both axes (brackets every coupling value used
    elsewhere), 41x41, at the near-blockade detuning delta = -J.
    """
    spec = SweepSpec(
        axes=(AxisSpec("g_omega", 0.0, 1000.0, 41), AxisSpec("g_kappa", 0.0, 1000.0, 41)),
        fixed=_BASE.with_(delta_c=-2.0e5, delta_e=-2.0e5),
        tiers=("master_effective",),
    )
    probes = ((0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0), (1000.0, 1000.0), (500.0, 500.0))
    return [_panel(out_dir, "fig6", "couplings", spec, probes)]


def _fig7(out_dir: str) -> list[PanelFiles]:
    """Master-equation g2 versus dissipation kappa at delta = -J.

    kappa/omega_m log-spaced over 1e-9..1e-1 (33 points) per dissipative
    coupling value; brackets the minimum locations and the g2 -> 1 tail.
    """
    axes = (AxisSpec("kappa", 1.0e-9 * 1.0e6, 1.0e-1 * 1.0e6, 33, "log"),)
    fixed = _BASE.with_(g_omega=200.0, delta_c=-2.0e5, delta_e=-2.0e5)
    probes = ((1.0e-3,), (1.0e5,))
    return [
        _panel(out_dir, "fig7", f"gk{int(gk)}", SweepSpec(axes, fixed.with_(g_kappa=gk), ("master_effective",)), probes)
        for gk in (0.0, 200.0, 400.0, 600.0)
    ]


def _fig8(out_dir: str) -> list[PanelFiles]:
    """Analytic g2 over (J, delta) with delta_c = delta_e = delta.

    J in 0..0.5 omega_m, delta in -0.5..0.5 omega_m, 101x101; contains the
    blockade line J = -delta and the delta = 0 bunching row.
    """
    spec = SweepSpec(
        axes=(AxisSpec("J", 0.0, 5.0e5, 101), AxisSpec("delta", -5.0e5, 5.0e5, 101)),
        fixed=_BASE.with_(g_omega=200.0, g_kappa=500.0),
    )
    return [_panel(out_dir, "fig8", "j_delta", spec)]


_BUILDERS = {
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": lambda out: _fig45(out, "fig4"),
    "fig5": lambda out: _fig45(out, "fig5"),
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
}

_HEATMAP_FIGS = {"fig2", "fig4", "fig5", "fig6", "fig8"}


def _read_header(path: str) -> list[str]:
    with open(path) as fh:
        return fh.readline().rstrip("\n").split(",")


def _plot_column(fig_id: str, header: list[str]) -> int:
    """0-based index of the CSV column both renderers plot: ``n_eff`` on fig2,
    the last ``log10_*`` column on the other maps, ``log10_g2_c`` on the lines."""
    if fig_id == "fig2":
        return header.index("n_eff")
    if fig_id in _HEATMAP_FIGS:
        return max(i for i, name in enumerate(header) if name.startswith("log10_"))
    return header.index("log10_g2_c")


def _gnuplot_script(fig_id: str, panels: list[PanelFiles], out_dir: str) -> str:
    # gnuplot numbers columns from 1
    cols = [_plot_column(fig_id, _read_header(p.csv_path)) + 1 for p in panels]
    lines = [
        f"# {fig_id}: generated plot script (gnuplot)",
        "set datafile separator ','",
        f"set output '{fig_id}.svg'",
        "set terminal svg size 900,700",
    ]
    if fig_id in _HEATMAP_FIGS:
        lines += ["set view map", "set pm3d interpolate 2,2"]
        for p, col in zip(panels, cols):
            rel = os.path.basename(p.csv_path)
            lines.append(f"# panel {p.name}")
            lines.append(f"splot '{rel}' skip 1 using 1:2:(${col}) with pm3d title '{p.name}'")
    elif fig_id == "fig3":
        rel, col = os.path.basename(panels[0].csv_path), cols[0]
        lines += [
            "set xlabel 'delta / omega_m'",
            "set ylabel 'log10 g2'",
            f"plot '{rel}' skip 1 using ($1/1e6):(stringcolumn(2) eq 'analytic' ? ${col} : 1/0) with lines title 'analytic', \\",
            f"     '{rel}' skip 1 using ($1/1e6):(stringcolumn(2) eq 'master_effective' ? ${col} : 1/0) with lines title 'master'",
        ]
    else:  # fig7 line panels
        lines += ["set logscale x", "set xlabel 'kappa / omega_m'", "set ylabel 'log10 g2_c'"]
        plot_parts = []
        for p, col in zip(panels, cols):
            rel = os.path.basename(p.csv_path)
            plot_parts.append(f"'{rel}' skip 1 using ($1/1e6):{col} with lines title '{p.name}'")
        lines.append("plot " + ", \\\n     ".join(plot_parts))
    return "\n".join(lines) + "\n"


def _render_png(fig_id: str, panels: list[PanelFiles], out_dir: str) -> str | None:
    """Best-effort matplotlib rendering of the CSV panels; None if unavailable."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return None
    import csv as _csv

    def read(path):
        with open(path) as fh:
            rdr = _csv.reader(fh)
            header = next(rdr)
            rows = list(rdr)
        return header, rows

    n = len(panels)
    ncols = 2 if n > 1 else 1
    nrows = (n + ncols - 1) // ncols
    fig, axes = plt.subplots(nrows, ncols, figsize=(6 * ncols, 4.5 * nrows), squeeze=False)
    for k, panel in enumerate(panels):
        ax = axes[k // ncols][k % ncols]
        header, rows = read(panel.csv_path)
        zi = _plot_column(fig_id, header)
        if fig_id in _HEATMAP_FIGS:
            xi, yi = 0, 1
            pts = [(float(r[xi]), float(r[yi]), float(r[zi])) for r in rows if r[zi] != ""]
            xs = sorted({p[0] for p in pts})
            ys = sorted({p[1] for p in pts})
            grid = np.full((len(ys), len(xs)), np.nan)
            xidx = {v: i for i, v in enumerate(xs)}
            yidx = {v: i for i, v in enumerate(ys)}
            for x, y, z in pts:
                grid[yidx[y], xidx[x]] = z
            im = ax.pcolormesh(xs, ys, grid, shading="nearest", cmap="viridis")
            fig.colorbar(im, ax=ax)
            ax.set_xlabel(header[xi])
            ax.set_ylabel(header[yi])
        else:
            tiers = sorted({r[1] for r in rows})
            for tier in tiers:
                data = [(float(r[0]), float(r[zi])) for r in rows if r[1] == tier and r[zi] != ""]
                if data:
                    xs, ys = zip(*data)
                    ax.plot(xs, ys, label=tier)
            if fig_id == "fig7":
                ax.set_xscale("log")
            ax.set_xlabel(header[0])
            ax.set_ylabel("log10 g2_c")
            ax.legend()
        ax.set_title(f"{fig_id} {panel.name}")
    for k in range(n, nrows * ncols):
        axes[k // ncols][k % ncols].set_visible(False)
    png = os.path.join(out_dir, f"{fig_id}.png")
    fig.tight_layout()
    fig.savefig(png, dpi=120)
    plt.close(fig)
    return png


def reproduce(fig_id: str, out_dir: str, render: bool = True) -> dict:
    """Write a figure preset's CSV panels, plot script, and optional PNG.

    Returns a manifest dict with the written paths.
    """
    if fig_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {fig_id!r}; valid: {', '.join(FIGURE_IDS)}")
    os.makedirs(out_dir, exist_ok=True)
    panels = _BUILDERS[fig_id](out_dir)
    script_path = os.path.join(out_dir, f"{fig_id}.gnuplot")
    _write_text(script_path, _gnuplot_script(fig_id, panels, out_dir))
    png = _render_png(fig_id, panels, out_dir) if render else None
    return {
        "figure": fig_id,
        "panels": {p.name: p.csv_path for p in panels},
        "plot_script": script_path,
        "png": png,
    }
