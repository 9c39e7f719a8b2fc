"""Mean-field tier: full four-variable dynamics, reduced model, fixed points."""

import random

import numpy as np
import pytest
from scipy.optimize import root

from msiblockade.model import SystemParams
from msiblockade.semiclassical import (
    MeanFieldState,
    full_rhs,
    full_steady_state,
    integrate_full,
    linear_fixed_point,
    nonlinear_coefficient,
    reduced_fixed_point,
    reduced_fixed_point_grid,
    reduced_rhs,
)


def params(**kw):
    base = dict(
        omega_m=1.0e6, kappa_c=5.0e3, kappa_e=5.0e3, gamma=2.0e3,
        g_omega=200.0, g_kappa=500.0, J=2.0e5,
        delta_c=-1.0e5, delta_e=-1.0e5, eps_c=5.0e3, eps_e=5.0e3,
    )
    base.update(kw)
    return SystemParams(**base)


class TestFullDynamics:
    def test_origin_fixed_without_drive(self):
        p = params(eps_c=0.0, eps_e=0.0)
        d = full_rhs(MeanFieldState(), p)
        assert d.q == 0.0 and d.p == 0.0
        assert d.alpha_c == 0.0 and d.alpha_e == 0.0
        final = integrate_full(p, [1e-3])[-1]
        assert abs(final.alpha_c) < 1e-12 and abs(final.q) < 1e-12

    def test_g_omega_zero_mechanics_rings_down(self):
        p = params(g_omega=0.0)
        s0 = MeanFieldState(q=1.0, p=0.0)
        final = integrate_full(p, [50.0 / p.gamma], initial=s0)[-1]
        assert abs(final.q) < 1e-8
        assert abs(final.p) < 1e-8

    def test_steady_mechanical_displacement(self):
        # classical elimination: Q_ss = -g_omega |alpha_c|^2 / omega_m
        p = params()
        st = full_steady_state(p)
        n_c = abs(st.alpha_c) ** 2
        assert st.q == pytest.approx(-p.g_omega * n_c / p.omega_m, rel=1e-6)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            integrate_full(params(), [2.0, 1.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="t_grid"):
            integrate_full(params(), [])

    def test_undamped_needs_explicit_settle_time(self):
        p = params(kappa_c=0.0, kappa_e=0.0, gamma=0.0, g_kappa=0.0)
        with pytest.raises(ValueError, match="settle_time"):
            full_steady_state(p)


class TestReducedModel:
    def test_nonlinear_coefficient_sign_structure(self):
        # real part +g_kappa g_omega / 2 omega_m opposes the -kappa_c/2 loss
        p = params()
        c = nonlinear_coefficient(p)
        assert c.real == pytest.approx(p.g_kappa * p.g_omega / (2.0 * p.omega_m))
        assert c.real > 0.0
        assert c.imag == pytest.approx(2.0 * p.g_omega**2 / (2.0 * p.omega_m))

    def test_nonlinear_term_vanishes_at_origin(self):
        p = params()
        dac, dae = reduced_rhs(0.0, 0.0, p)
        assert dac == p.eps_c and dae == p.eps_e

    def test_linear_fixed_point_solves_system(self):
        p = params(g_omega=0.0, g_kappa=0.0)
        ac, ae = linear_fixed_point(p)
        dac, dae = reduced_rhs(ac, ae, p)
        assert abs(dac) < 1e-8 * abs(p.eps_c)
        assert abs(dae) < 1e-8 * abs(p.eps_e)

    def test_reduced_fixed_point_converges_and_is_stationary(self):
        p = params()
        ac, ae, ok = reduced_fixed_point(p)
        assert ok
        dac, dae = reduced_rhs(ac, ae, p)
        assert abs(dac) < 1e-6 and abs(dae) < 1e-6

    def test_reduced_matches_full_on_preset(self):
        # elimination validity at delta = -0.1 omega_m
        p = params()
        full = full_steady_state(p)
        ac, ae, ok = reduced_fixed_point(p)
        assert ok
        assert abs(ac) ** 2 == pytest.approx(abs(full.alpha_c) ** 2, rel=1e-3)
        assert abs(ae) ** 2 == pytest.approx(abs(full.alpha_e) ** 2, rel=1e-3)

    def test_weak_drive_linearity(self):
        p = params()
        a1, _, _ = reduced_fixed_point(p)
        a2, _, _ = reduced_fixed_point(p.with_(eps_c=p.eps_c / 2.0, eps_e=p.eps_e / 2.0))
        assert abs(a2) == pytest.approx(abs(a1) / 2.0, rel=1e-2)


def hybr_fixed_point(p, tol=1e-12):
    """Reference: scipy's hybr root of the reduced equations from the linear seed, with the library's converged test."""
    m = np.array([[1j * p.delta_c - 0.5 * p.kappa_c, -1j * p.J], [-1j * p.J, 1j * p.delta_e - 0.5 * p.kappa_e]])
    ac0, ae0 = np.linalg.solve(m, [-p.eps_c, -p.eps_e])

    def residual(y):
        dac, dae = reduced_rhs(y[0] + 1j * y[1], y[2] + 1j * y[3], p)
        return [dac.real, dac.imag, dae.real, dae.imag]

    sol = root(residual, [ac0.real, ac0.imag, ae0.real, ae0.imag], method="hybr", tol=tol)
    ok = sol.success and np.max(np.abs(residual(sol.x))) < max(abs(p.eps_c), abs(p.eps_e), 1.0) * 1e-8
    return complex(sol.x[0], sol.x[1]), complex(sol.x[2], sol.x[3]), bool(ok)


def random_points(seed, eps_range, count=300):
    """Points over the benchmark maps' windows: J, detunings and couplings as the presets span them."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        delta_c = rng.uniform(-5.0e5, 5.0e5)
        delta_e = delta_c if rng.random() < 0.5 else rng.uniform(-5.0e5, 5.0e5)
        kappa = 10 ** rng.uniform(3.0, 4.5)
        eps = 10 ** rng.uniform(*np.log10(eps_range))
        points.append(params(
            J=rng.uniform(0.0, 5.0e5), delta_c=delta_c, delta_e=delta_e, kappa_c=kappa, kappa_e=kappa,
            g_omega=rng.uniform(0.0, 1000.0), g_kappa=rng.uniform(0.0, 1000.0), eps_c=eps, eps_e=eps,
        ))
    return points


def as_grid(points):
    return {k: np.concatenate([p.as_arrays()[k] for p in points]) for k in points[0].as_arrays()}


class TestBatchedFixedPoint:
    @pytest.mark.parametrize("eps_range", [(5.0e3, 5.0e3), (1.0e6, 3.0e6)], ids=["preset_drive", "strong_drive"])
    def test_matches_hybr_where_hybr_converges(self, eps_range):
        points = random_points(7, eps_range)
        ac, ae, converged, pole = reduced_fixed_point_grid(as_grid(points))
        assert not pole.any()
        hybr_converged = 0
        for i, p in enumerate(points):
            ref_c, ref_e, ref_ok = hybr_fixed_point(p)
            if not ref_ok:
                continue
            hybr_converged += 1
            # a point hybr solves must not be lost
            assert converged[i], p
            assert abs(ac[i] - ref_c) <= 1e-12 * abs(ref_c), p
            assert abs(ae[i] - ref_e) <= 1e-12 * abs(ref_e), p
        assert hybr_converged > 0.9 * len(points)

    def test_grid_points_equal_scalar_calls(self):
        points = random_points(11, (1.0e4, 1.0e6), count=40)
        ac, ae, converged, _ = reduced_fixed_point_grid(as_grid(points))
        for i, p in enumerate(points):
            assert reduced_fixed_point(p) == (ac[i], ae[i], converged[i])

    def test_linear_seed_pole_at_zero_kappa(self):
        # kappa = 0 on the D_J pole: the linear system is singular
        p = params(kappa_c=0.0, kappa_e=0.0, delta_c=-2.0e5, delta_e=-2.0e5)
        ac, ae, converged, pole = reduced_fixed_point_grid(p.as_arrays())
        assert pole[0] and not converged[0]
        assert np.isnan(ac[0]) and np.isnan(ae[0])
        with pytest.raises(np.linalg.LinAlgError, match="D_J pole"):
            linear_fixed_point(p)
        ac, ae, ok = reduced_fixed_point(p)
        assert not ok
