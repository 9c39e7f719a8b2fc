"""Command-line interface.

Subcommands: ``g2`` (single-point evaluation across tiers, through
``sweep.evaluate_point``, the same code every sweep row comes from),
``sweep`` (config-driven grid), ``reproduce`` (figure presets), ``check``
(invariant suite).
"""

from __future__ import annotations

import math
import sys

import click

from . import __version__, blas
from .figures import FIGURE_IDS, reproduce as reproduce_figure
from .sweep import (
    TIERS,
    TRUNC_FULL,
    ConfigError,
    _tier_liouvillian,
    evaluate_point,
    parse_config,
    run_sweep,
)
from .model import RATE_FIELDS, SystemParams


@click.group()
@click.version_option(__version__)
def main():
    """Photon anti-bunching in a dissipatively coupled two-cavity model."""


def _param_options(fn):
    """One float option per rate field of SystemParams, with its default;
    the flag is the field name lower-cased with ``_`` as ``-`` (``--j``)."""
    defaults = SystemParams()
    for name in reversed(RATE_FIELDS):
        flag = f"--{name.lower().replace('_', '-')}"
        fn = click.option(flag, type=float, default=getattr(defaults, name), show_default=True)(fn)
    return fn


@main.command()
@_param_options
@click.option("--tiers", default="analytic,master_effective", show_default=True,
              help="Comma-separated subset of: " + ",".join(TIERS))
def g2(tiers, j, **params):
    """Evaluate g2(0) and occupations at a single parameter point."""
    tier_list = tuple(t.strip() for t in tiers.split(",") if t.strip())
    try:
        p = SystemParams(J=j, **params)
    except ValueError as exc:  # its message names the field, e.g. "kappa_c must be nonnegative"
        raise click.UsageError(str(exc)) from exc
    try:
        rows = evaluate_point(p, tier_list)
    except ConfigError as exc:
        raise click.BadParameter(f"{exc}; valid: {', '.join(TIERS)}") from exc
    width = max(len(r.tier) for r in rows)
    for r in rows:
        def s(v):
            return "-" if v is None or (isinstance(v, float) and not math.isfinite(v)) else f"{v:.6e}"
        click.echo(
            f"{r.tier:<{width}}  g2_c={s(r.g2_c):>12}  g2_e={s(r.g2_e):>12}  "
            f"n_c={s(r.n_c):>12}  n_e={s(r.n_e):>12}  status={r.status}"
        )
    if any(r.status.startswith("error") for r in rows):
        sys.exit(1)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False, writable=True))
def sweep(config_path, out_path):
    """Run a configured parameter sweep and write the CSV."""
    with open(config_path) as fh:
        text = fh.read()
    try:
        spec = parse_config(text)
    except ConfigError as exc:
        raise click.ClickException(f"bad config: {exc}") from exc
    result = run_sweep(spec)
    result.write_csv(out_path)
    n_err = result.hard_errors
    click.echo(f"wrote {len(result.rows)} rows to {out_path}" + (f" ({n_err} point errors)" if n_err else ""))
    if n_err:
        sys.exit(1)


@main.command("reproduce")
@click.argument("figid", type=click.Choice(FIGURE_IDS))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--no-render", is_flag=True, help="Skip the PNG (CSV + plot script only).")
def reproduce_cmd(figid, out_dir, no_render):
    """Regenerate a figure preset: CSV panels, plot script, PNG."""
    manifest = reproduce_figure(figid, out_dir, render=not no_render)
    for name, path in manifest["panels"].items():
        click.echo(f"panel {name}: {path}")
    click.echo(f"plot script: {manifest['plot_script']}")
    if manifest["png"]:
        click.echo(f"rendered: {manifest['png']}")
    elif not no_render:
        click.echo("rendering skipped (matplotlib not installed)")


@main.command()
def check():
    """Run the built-in invariant suite (fast subset of the test suite).

    First prints the OpenBLAS libraries the steady-state solver's one-thread
    budget acts on, with their current thread counts, or "none found".
    """
    found = ", ".join(f"{lib.name} ({lib.get_num_threads()} threads)" for lib in blas.libraries())
    click.echo(f"blas: {found or 'none found'}")
    failures = []

    def step(name, fn):
        try:
            fn()
            click.echo(f"ok   {name}")
        except Exception as exc:
            failures.append(name)
            click.echo(f"FAIL {name}: {exc}")

    step("analytic blockade identities", _check_identities)
    step("liouvillian trace/hermiticity/positivity", _check_liouvillian)
    step("steady-state vs evolution consistency", _check_evolution)
    step("amplitude-route g2 matches closed form", _check_amplitude_route)
    if failures:
        raise click.ClickException(f"{len(failures)} check(s) failed: {', '.join(failures)}")
    click.echo("all checks passed")


def _check_identities():
    from .analytic import g2_analytic

    p = SystemParams(J=2.0e5, delta_c=0.0, delta_e=0.0, g_omega=200.0, g_kappa=500.0)
    res = g2_analytic(p)
    assert abs(res.g2_c) < 1e-10, f"g2_c = {res.g2_c}"
    assert abs(res.g2_e - 4.0) < 4e-8, f"g2_e = {res.g2_e}"


def _check_liouvillian():
    from .liouvillian import steady_state

    p = SystemParams(J=2.0e5, delta_c=-2.0e5, delta_e=-2.0e5, g_omega=200.0,
                     g_kappa=500.0, eps_c=5.0e3, eps_e=5.0e3, gamma=100.0, n_th=0.0)
    res = steady_state(_tier_liouvillian(p, TRUNC_FULL, full=True))
    st = res.state
    assert abs(st.trace() - 1.0) < 1e-10
    assert st.hermiticity_defect() < 1e-10
    assert st.min_eigenvalue() >= -1e-8
    assert res.residual < 1e-10, f"residual {res.residual}"


def _check_evolution():
    import numpy as np

    from .liouvillian import evolve, steady_state, vacuum_state

    p = SystemParams(J=2.0e5, delta_c=-1.0e5, delta_e=-1.0e5, g_omega=200.0,
                     g_kappa=500.0, eps_c=5.0e3, eps_e=5.0e3)
    L = _tier_liouvillian(p, (4, 4), full=False)
    ss = steady_state(L).state
    traj = evolve(vacuum_state(L.space), L, [30.0 / p.kappa_c])
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(traj[-1].matrix - ss.matrix)))
    assert dist < 1e-6, f"trace distance {dist}"


def _check_amplitude_route():
    from .analytic import amplitude_steady_states, g2_analytic

    p = SystemParams(J=2.0e5, delta_c=-1.3e5, delta_e=-0.7e5, g_omega=200.0,
                     g_kappa=500.0, eps_c=5.0e3, eps_e=5.0e3)
    closed = g2_analytic(p)
    amp_c, amp_e = amplitude_steady_states(p).g2()
    assert abs(amp_c - closed.g2_c) <= 1e-10 * abs(closed.g2_c)
    assert abs(amp_e - closed.g2_e) <= 1e-10 * abs(closed.g2_e)


if __name__ == "__main__":
    main()
