"""Acceptance gate: ten criteria, one printed pass/fail line each.

Each test prints ``CRITERION nn [PASS|FAIL] <summary>`` directly to the
terminal (bypassing capture) and then asserts, so the printed verdict and
the pytest outcome always agree. Criteria that the model genuinely cannot
meet are implemented faithfully and left red; see the failure messages
for the measured values.
"""

import filecmp
import math

import numpy as np
import pytest

from msiblockade.analytic import (
    amplitude_dynamics,
    amplitude_steady_states,
    effective_noise,
    effective_temperature,
    g2_analytic,
)
from msiblockade.fock import make_space
from msiblockade.figures import fig3_spec, reproduce
from msiblockade.liouvillian import (
    build_liouvillian,
    evolve,
    mode_statistics,
    steady_state,
    vacuum_state,
)
from msiblockade.model import (
    SystemParams,
    build_collapse_ops,
    build_effective_hamiltonian,
    build_full_hamiltonian,
)
from msiblockade.sweep import AxisSpec, SweepSpec, run_sweep

OMEGA_M = 1.0e6


def base_params(**kw):
    """Reference parameter set shared by the detuning-sweep criteria."""
    p = dict(
        omega_m=OMEGA_M, kappa_c=5.0e3, kappa_e=5.0e3,
        g_omega=200.0, g_kappa=500.0, J=2.0e5, eps_c=5.0e3, eps_e=5.0e3,
    )
    p.update(kw)
    return SystemParams(**p)


def report(capsys, num, ok, summary):
    with capsys.disabled():
        print(f"CRITERION {num:2d} [{'PASS' if ok else 'FAIL'}] {summary}", flush=True)


@pytest.fixture(scope="module")
def fig3_result():
    """The 401-point detuning sweep (analytic + master tiers), shared by
    the reproduction and tier-agreement criteria."""
    return run_sweep(fig3_spec())


def _tier_curve(result, tier):
    """(delta, g2_c) arrays for one tier; non-finite g2 as nan."""
    rows = result.tier_rows(tier)
    x = np.array([r.axis_values[0] for r in rows])
    y = np.array([r.g2_c if r.g2_c is not None else np.nan for r in rows])
    return x, y


def test_criterion_01_blockade_identities(capsys):
    res = g2_analytic(base_params(delta_c=0.0, delta_e=0.0))
    ok_c = abs(res.g2_c) < 1e-10
    ok_e = abs(res.g2_e - 4.0) / 4.0 < 1e-8
    ok = ok_c and ok_e
    report(capsys, 1, ok, f"analytic identities: g2_c={res.g2_c:.3e}, g2_e={res.g2_e:.10f}")
    assert ok_c, f"g2_c at delta=0 should vanish, got {res.g2_c}"
    assert ok_e, f"g2_e at delta=0 should be 4, got {res.g2_e}"


def test_criterion_02_hyperbola_locus(capsys):
    J = 2.0e5
    worst = 0.0
    for dc in np.logspace(4, 6, 20):
        res = g2_analytic(base_params(delta_c=float(dc), delta_e=J**2 / float(dc)))
        worst = max(worst, res.g2_c)
    ok = worst < 1e-8
    report(capsys, 2, ok, f"hyperbola delta_c*delta_e=J^2: max g2_c={worst:.3e}")
    assert ok, f"worst g2_c on the hyperbola locus: {worst}"


def test_criterion_03_detuning_sweep_reproduction(capsys, fig3_result):
    x_a, y_a = _tier_curve(fig3_result, "analytic")
    x_m, y_m = _tier_curve(fig3_result, "master_effective")
    step = x_a[1] - x_a[0]
    target = -0.2 * OMEGA_M

    i_a = int(np.nanargmin(y_a))
    i_m = int(np.nanargmin(y_m))
    min_loc_ok_a = abs(x_a[i_a] - target) <= step + 1e-9
    min_loc_ok_m = abs(x_m[i_m] - target) <= step + 1e-9
    deeper_ok = y_a[i_a] < y_m[i_m]
    tail = x_a > 0.25 * OMEGA_M
    tail_ok = bool(
        np.all(np.abs(y_a[tail] - 1.0) < 0.2) and np.all(np.abs(y_m[tail] - 1.0) < 0.2)
    )
    ok = min_loc_ok_a and min_loc_ok_m and deeper_ok and tail_ok
    report(
        capsys, 3, ok,
        f"detuning-sweep minima: analytic at {x_a[i_a]:.3g} (g2={y_a[i_a]:.3g}), "
        f"master at {x_m[i_m]:.3g} (g2={y_m[i_m]:.3g}), tail-to-1 {'ok' if tail_ok else 'violated'}",
    )
    assert min_loc_ok_a, f"analytic minimum at {x_a[i_a]}, expected within {step} of {target}"
    assert min_loc_ok_m, f"master minimum at {x_m[i_m]}, expected within {step} of {target}"
    assert deeper_ok, f"analytic minimum {y_a[i_a]} not deeper than master {y_m[i_m]}"
    assert tail_ok, "g2_c does not stay within 0.2 of 1 for delta > 0.25 omega_m"


def test_criterion_04_tier_agreement_away_from_poles(capsys, fig3_result):
    x_a, y_a = _tier_curve(fig3_result, "analytic")
    _, y_m = _tier_curve(fig3_result, "master_effective")
    # exclusion windows around the three analytic singular loci on this
    # axis: the blockade zero at -0.2 omega_m, the bunching pole at 0, and
    # the two-photon-resonance pole at +0.2 omega_m
    window = 0.02 * OMEGA_M
    keep = np.ones_like(x_a, dtype=bool)
    for locus in (-0.2 * OMEGA_M, 0.0, 0.2 * OMEGA_M):
        keep &= np.abs(x_a - locus) > window
    keep &= np.isfinite(y_a) & np.isfinite(y_m) & (y_a > 0) & (y_m > 0)
    dlog = np.abs(np.log10(y_a[keep]) - np.log10(y_m[keep]))
    worst = float(np.max(dlog))
    ok = worst < 0.5
    report(capsys, 4, ok, f"tier agreement off-pole: max |dlog10 g2_c| = {worst:.3f} over {int(keep.sum())} points")
    assert ok, f"max |delta log10 g2_c| = {worst}"


def test_criterion_05_kappa_minimum_trend(capsys):
    locations = []
    for gk in (0.0, 200.0, 400.0, 600.0):
        spec = SweepSpec(
            axes=(AxisSpec("kappa", 1.0e-9 * OMEGA_M, 1.0e-1 * OMEGA_M, 33, "log"),),
            fixed=base_params(g_kappa=gk, delta_c=-2.0e5, delta_e=-2.0e5, kappa_c=0.0, kappa_e=0.0),
            tiers=("master_effective",),
        )
        x, y = _tier_curve(run_sweep(spec), "master_effective")
        locations.append(float(x[int(np.nanargmin(y))]))
    ok = all(b >= a for a, b in zip(locations, locations[1:]))
    report(capsys, 5, ok, f"kappa of g2_c minimum vs g_kappa: {['%.3g' % l for l in locations]}")
    assert ok, f"minimum locations not nondecreasing in g_kappa: {locations}"


def test_criterion_06_effective_temperature(capsys):
    p = base_params()
    rep = effective_noise(p, 2.0, 10.0)
    t_eff = effective_temperature(rep.n_eff, p.omega_m)
    ok = 4e-7 <= t_eff <= 1.6e-6
    report(capsys, 6, ok, f"T_eff(N=2, T_b=10 K) = {t_eff:.3e} K (band 4e-7..1.6e-6)")
    assert ok, f"T_eff = {t_eff}"
    assert t_eff == pytest.approx(rep.t_eff, rel=1e-12)


# shipped Hermitian-model (full three-mode) presets used by criterion 7
_HERMITIAN_PRESETS = (
    base_params(delta_c=-2.0e5, delta_e=-2.0e5, gamma=100.0, n_th=0.0),
    base_params(delta_c=-1.0e5, delta_e=-1.0e5, gamma=2.0e3, n_th=0.5),
    base_params(delta_c=0.0, delta_e=0.0, gamma=500.0, n_th=0.0, g_kappa=0.0),
)


def test_criterion_07_liouvillian_property_suite(capsys):
    failures = []
    for i, p in enumerate(_HERMITIAN_PRESETS):
        space = make_space((3, 3, 6))
        H = build_full_hamiltonian(p, space)
        ops = build_collapse_ops(p, space, "displacement_modified")
        L_sand = build_liouvillian(H, ops, "sandwich")
        L_comm = build_liouvillian(H, ops, "commutator")

        scale = max(abs(L_sand.matrix).max(), 1.0)
        conv = abs((L_sand.matrix - L_comm.matrix)).max() / scale
        if conv > 1e-12:
            failures.append(f"preset {i}: convention disagreement {conv:.2e}")

        res = steady_state(L_sand)
        if res.residual >= 1e-10:
            failures.append(f"preset {i}: steady residual {res.residual:.2e}")
        if res.state.min_eigenvalue() < -1e-8:
            failures.append(f"preset {i}: negativity {res.state.min_eigenvalue():.2e}")

        for st in evolve(vacuum_state(space), L_sand, np.linspace(5e-5, 5e-4, 5)):
            if abs(st.trace() - 1.0) >= 1e-8:
                failures.append(f"preset {i}: trace drift {abs(st.trace() - 1.0):.2e}")
                break
            if st.hermiticity_defect() >= 1e-8:
                failures.append(f"preset {i}: hermiticity drift {st.hermiticity_defect():.2e}")
                break
    ok = not failures
    report(capsys, 7, ok, f"Liouvillian invariants on {len(_HERMITIAN_PRESETS)} full-model presets"
           + ("" if ok else ": " + "; ".join(failures)))
    assert ok, "; ".join(failures)


def test_criterion_08_oracle_equivalences(capsys):
    # (a) driven linear cavity: <n> = 4 eps^2 / kappa^2 at resonance
    p_lin = SystemParams(kappa_c=5.0e3, kappa_e=5.0e3, eps_c=50.0, eps_e=0.0, J=0.0)
    space2 = make_space((6, 2))
    L = build_liouvillian(
        build_effective_hamiltonian(p_lin, space2), build_collapse_ops(p_lin, space2)
    )
    n_num, _ = mode_statistics(steady_state(L).state, 0)
    n_ref = 4.0 * p_lin.eps_c**2 / p_lin.kappa_c**2
    err_a = abs(n_num - n_ref) / n_ref
    ok_a = err_a < 1e-6

    # (b) kappa -> 0 weak-drive evolution vs the five-amplitude ODEs; the
    # drive is weak enough that ground-state depletion (absent from the
    # fixed-C0 amplitude model) stays below the comparison tolerance, and
    # sample times avoid the recurrence instants where populations vanish
    p_wd = base_params(kappa_c=0.0, kappa_e=0.0, g_kappa=0.0,
                       delta_c=-1.0e5, delta_e=-1.0e5, eps_c=500.0, eps_e=500.0)
    space = make_space((6, 6))
    L0 = build_liouvillian(build_effective_hamiltonian(p_wd, space), [])
    period = 2.0 * math.pi / abs(p_wd.delta_c)
    ts = period * np.linspace(0.25, 9.25, 10)
    traj = evolve(vacuum_state(space), L0, ts, rtol=1e-10)
    amps = amplitude_dynamics(p_wd, ts)
    err_b = 0.0
    for st, amp in zip(traj, amps):
        n_c_me, _ = mode_statistics(st, 0)
        n_e_me, _ = mode_statistics(st, 1)
        n_c_amp, n_e_amp = amp.occupations()
        err_b = max(err_b, abs(n_c_me - n_c_amp) / n_c_amp, abs(n_e_me - n_e_amp) / n_e_amp)
    ok_b = err_b < 1e-4

    # (c) amplitude-route g2 vs the closed-form correlations
    p_amp = base_params(delta_c=-1.3e5, delta_e=-0.7e5)
    closed = g2_analytic(p_amp)
    amp_c, amp_e = amplitude_steady_states(p_amp).g2()
    err_c = max(abs(amp_c - closed.g2_c) / closed.g2_c, abs(amp_e - closed.g2_e) / closed.g2_e)
    ok_c = err_c < 1e-10

    ok = ok_a and ok_b and ok_c
    report(capsys, 8, ok,
           f"oracles: linear-cavity {err_a:.1e} (<1e-6), weak-drive {err_b:.1e} (<1e-4), "
           f"amplitude-route {err_c:.1e} (<1e-10)")
    assert ok_a, f"linear-cavity occupation relative error {err_a}"
    assert ok_b, f"weak-drive population relative error {err_b}"
    assert ok_c, f"amplitude-route g2 relative error {err_c}"


def test_criterion_09_truncation_convergence(capsys):
    # the full 401-point grid at doubled truncation is far beyond the
    # ten-minute budget; every 10th grid point (41 points, same span and
    # endpoints) is compared at (6,6) vs (12,12) levels
    def sweep_at(trunc):
        spec = SweepSpec(
            axes=(AxisSpec("delta", -5.0e5, 5.0e5, 41),),
            fixed=fig3_spec().fixed,
            tiers=("master_effective",),
            trunc_effective=trunc,
        )
        return _tier_curve(run_sweep(spec), "master_effective")

    x, y_lo = sweep_at((6, 6))
    _, y_hi = sweep_at((12, 12))
    rel = np.abs(y_hi - y_lo) / np.abs(y_lo)
    worst = int(np.nanargmax(rel))
    ok = bool(np.all(rel < 1e-3))
    report(capsys, 9, ok,
           f"doubled truncation: max relative g2_c change {rel[worst]:.3e} at delta={x[worst]:.3g}"
           f" ({int(np.sum(rel >= 1e-3))}/{len(x)} points over 1e-3)")
    assert ok, (
        f"g2_c moves by {rel[worst]:.3e} at delta={x[worst]:.3g} when truncation doubles; "
        f"points over tolerance: {[f'{v:.3g}' for v in x[rel >= 1e-3]]}"
    )


def test_criterion_10_reproduce_determinism(capsys, tmp_path):
    m1 = reproduce("fig4", str(tmp_path / "run1"), render=False)
    m2 = reproduce("fig4", str(tmp_path / "run2"), render=False)
    mismatches = []
    for name, path1 in m1["panels"].items():
        path2 = m2["panels"][name]
        if not filecmp.cmp(path1, path2, shallow=False):
            mismatches.append(name)
    ok = not mismatches and set(m1["panels"]) == set(m2["panels"])
    report(capsys, 10, ok, f"two fig4 runs byte-identical across {len(m1['panels'])} panels")
    assert ok, f"panel CSVs differ between runs: {mismatches}"
