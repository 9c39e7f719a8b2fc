"""Closed-form correlations, amplitude equations, effective noise/temperature."""

import cmath
import math

import numpy as np
import pytest
from scipy.constants import hbar, k as k_B

from msiblockade.analytic import (
    PoleStatus,
    TruncatedState,
    amplitude_dynamics,
    amplitude_steady_states,
    effective_noise,
    effective_temperature,
    g2_analytic,
)
from msiblockade.model import SystemParams, thermal_occupation
from msiblockade.sweep import evaluate_point


def params(**kw):
    base = dict(
        omega_m=1.0e6, kappa_c=5.0e3, kappa_e=5.0e3, g_omega=200.0, g_kappa=500.0,
        J=2.0e5, delta_c=-1.0e5, delta_e=-1.0e5, eps_c=5.0e3, eps_e=5.0e3,
    )
    base.update(kw)
    return SystemParams(**base)


class TestG2Analytic:
    def test_blockade_identity_at_zero_detuning(self):
        res = g2_analytic(params(delta_c=0.0, delta_e=0.0))
        assert abs(res.g2_c) < 1e-10
        assert res.g2_e == pytest.approx(4.0, rel=1e-8)

    def test_hyperbola_gives_zero(self):
        # D_J = 0 on delta_c * delta_e = J^2 (point chosen off the
        # J + delta_c = 0 bunching pole, where g2_e diverges instead)
        p = params(delta_c=-1.0e5, delta_e=-4.0e5)
        res = g2_analytic(p)
        assert res.g2_c == 0.0 and res.g2_e == 0.0

    def test_hyperbola_vertex_meets_bunching_pole(self):
        # at delta_c = delta_e = -J both loci coincide: g2_c -> 0, g2_e -> inf
        res = g2_analytic(params(delta_c=-2.0e5, delta_e=-2.0e5))
        assert res.g2_c == 0.0
        assert math.isinf(res.g2_e)
        assert res.status_e is PoleStatus.POLE_J_PLUS_DELTA_C

    def test_linear_model_is_coherent(self):
        res = g2_analytic(params(g_omega=0.0))
        assert res.g2_c == pytest.approx(1.0, rel=1e-12)
        assert res.g2_e == pytest.approx(1.0, rel=1e-12)

    def test_bunching_pole_at_j_equals_minus_delta_c(self):
        res = g2_analytic(params(delta_c=-2.0e5, delta_e=-1.5e5))
        assert math.isinf(res.g2_e)
        assert res.status_e is PoleStatus.POLE_J_PLUS_DELTA_C
        assert math.isfinite(res.g2_c)

    def test_fa_pole_flagged(self):
        # K = 0 and D_J = 0 simultaneously: f_A = -G delta_e^2... choose
        # parameters that null f_A directly instead: g_omega = 0 removes G,
        # then f_A = 2 omega_m K D_J; K = 0 makes it vanish.
        res = g2_analytic(params(g_omega=0.0, delta_c=1.0e5, delta_e=-1.0e5))
        assert math.isinf(res.g2_c) and math.isinf(res.g2_e)
        assert res.status_c is PoleStatus.POLE_FA


class TestAmplitudeSteadyStates:
    def test_zero_drive_all_vacuum(self):
        st = amplitude_steady_states(params(eps_c=0.0, eps_e=0.0))
        assert st.cc == 0.0 and st.cee == 0.0
        assert st.c0 == 1.0

    def test_blockade_point_is_dj_pole(self):
        st = amplitude_steady_states(params(delta_c=-2.0e5, delta_e=-2.0e5))
        assert st.status is PoleStatus.POLE_DJ

    def test_blockade_point_is_dj_pole_for_any_j(self):
        # J**2 rounds away from J * J = (-J) * (-J) for this J; D_J must
        # still be exactly 0 at delta_c = delta_e = -J
        J = 130450.06581225092
        st = amplitude_steady_states(params(J=J, delta_c=-J, delta_e=-J))
        assert st.status is PoleStatus.POLE_DJ

    def test_zero_omega_m_is_undefined(self):
        # the Kerr shift G/(2 omega_m) of the double-excitation system is
        # undefined at omega_m = 0 (driven, D_J != 0): no "ok" with NaN doubles
        st = amplitude_steady_states(params(omega_m=0.0))
        assert st.status is PoleStatus.UNDEFINED and str(st.status) == "undefined"
        assert math.isfinite(st.cc) and math.isfinite(st.ce) and st.cc != 0.0
        assert all(cmath.isnan(x) for x in (st.cce, st.ccc, st.cee))

    def test_zero_omega_m_undefined_matches_sweep_row(self):
        p = params(omega_m=0.0)
        (row,) = evaluate_point(p, ("analytic",))
        assert f"amps:{amplitude_steady_states(p).status}" in row.status

    def test_zero_omega_m_without_drive_is_vacuum(self):
        st = amplitude_steady_states(params(omega_m=0.0, eps_c=0.0, eps_e=0.0))
        assert st.status is PoleStatus.OK and st.cc == 0.0 and st.ccc == 0.0

    def test_unequal_drives_rejected(self):
        with pytest.raises(ValueError, match="equal drives"):
            amplitude_steady_states(params(eps_e=1.0))

    def test_amplitude_route_matches_closed_form_equal_detunings(self):
        p = params(delta_c=-1.0e5, delta_e=-1.0e5)
        closed = g2_analytic(p)
        amp_c, amp_e = amplitude_steady_states(p).g2()
        assert amp_c == pytest.approx(closed.g2_c, rel=1e-10)
        assert amp_e == pytest.approx(closed.g2_e, rel=1e-10)

    @pytest.mark.parametrize(
        "dc,de",
        [(-1.3e5, -0.7e5), (0.5e5, 1.5e5), (-3.0e5, 2.0e5), (-0.37e5, -2.9e5)],
    )
    def test_amplitude_route_matches_closed_form_general(self, dc, de):
        p = params(delta_c=dc, delta_e=de)
        closed = g2_analytic(p)
        amp_c, amp_e = amplitude_steady_states(p).g2()
        assert amp_c == pytest.approx(closed.g2_c, rel=1e-10)
        assert amp_e == pytest.approx(closed.g2_e, rel=1e-10)

    def test_weak_driving_hierarchy(self):
        st = amplitude_steady_states(params())
        assert st.hierarchy_ok()

    def test_occupations_positive(self):
        n_c, n_e = amplitude_steady_states(params()).occupations()
        assert n_c > 0 and n_e > 0


class TestAmplitudeDynamics:
    def test_no_drive_constant(self):
        p = params(eps_c=0.0, eps_e=0.0)
        traj = amplitude_dynamics(p, np.linspace(1e-6, 1e-4, 5))
        for st in traj:
            assert abs(st.cc) < 1e-12 and abs(st.cee) < 1e-12

    def test_decoupled_empty_cavity_stays_empty(self):
        p = params(J=0.0, eps_e=0.0, eps_c=5.0e3)
        traj = amplitude_dynamics(p, [1e-4])
        assert abs(traj[-1].ce) < 1e-10
        assert abs(traj[-1].cee) < 1e-10

    def test_damped_long_time_limit_matches_steady_state(self):
        # a small uniform regularizer makes the kappa = 0 linear system
        # settle toward the steady amplitudes; it must sit well below the
        # detunings (bias ~ damping/|delta|) yet large enough that the
        # settling time stays integrable (steps scale as omega/damping)
        p = params(delta_c=-1.0e5, delta_e=-1.0e5)
        damping = 1e-3 * p.omega_m
        ss = amplitude_steady_states(p)
        final = amplitude_dynamics(p, [20.0 / damping], damping=damping, rtol=1e-8)[-1]
        assert final.cc == pytest.approx(ss.cc, rel=5e-2)
        assert final.ccc == pytest.approx(ss.ccc, rel=5e-2)
        g2_t, _ = final.g2()
        g2_s, _ = ss.g2()
        assert g2_t == pytest.approx(g2_s, rel=0.1)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            amplitude_dynamics(params(), [2.0, 1.0])


class TestAnalyticProperties:
    def test_detuning_swap_changes_g2c_generally(self):
        p = params(delta_c=-1.3e5, delta_e=-0.6e5)
        swapped = params(delta_c=-0.6e5, delta_e=-1.3e5)
        a, b = g2_analytic(p).g2_c, g2_analytic(swapped).g2_c
        # the asymmetry enters only through f_A's G*delta_e^2 term, so it is
        # small at these couplings but well above float noise
        assert abs(a - b) > 1e-8
        # equal detunings trivially symmetric
        q = params(delta_c=-1.0e5, delta_e=-1.0e5)
        assert g2_analytic(q).g2_c == g2_analytic(q).g2_c

    def test_uniform_scaling_behavior(self):
        """Document the actual scaling behavior of the closed forms.

        Scaling all six frequencies {delta_c, delta_e, J, omega_m, g_omega,
        g_kappa} by a common factor s IS an exact symmetry of the g2
        formulas: G scales as s^2, and every term of f_A then carries s^5,
        while numerator and denominator of each ratio scale identically.
        A hypothetical "G scales quadratically so the ratio changes" claim
        fails on direct evaluation; this regression test pins the true
        behavior so nondimensionalization bugs still get caught (a
        *partial* scaling, leaving g_omega fixed, is NOT a symmetry).
        """
        p = params(delta_c=-1.3e5, delta_e=-0.8e5)
        base = g2_analytic(p)
        s = 3.7
        scaled = g2_analytic(
            p.with_(
                delta_c=s * p.delta_c, delta_e=s * p.delta_e, J=s * p.J,
                omega_m=s * p.omega_m, g_omega=s * p.g_omega, g_kappa=s * p.g_kappa,
            )
        )
        assert scaled.g2_c == pytest.approx(base.g2_c, rel=1e-12)
        assert scaled.g2_e == pytest.approx(base.g2_e, rel=1e-12)
        # partial scaling (couplings held fixed) breaks the ratio
        partial = g2_analytic(
            p.with_(delta_c=s * p.delta_c, delta_e=s * p.delta_e, J=s * p.J, omega_m=s * p.omega_m)
        )
        assert abs(partial.g2_c - base.g2_c) > 1e-8

    def test_g2c_nonincreasing_in_g_kappa_on_blockade_line(self):
        # on delta_c = delta_e = -J the |f_A| grows with |G|; approach the
        # line from nearby (on it g2_c is exactly 0 for every g_kappa)
        vals = []
        for gk in (0.0, 200.0, 400.0, 600.0):
            p = params(g_kappa=gk, delta_c=-2.001e5, delta_e=-2.001e5)
            vals.append(g2_analytic(p).g2_c)
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_hyperbola_locus_decade(self):
        J = 2.0e5
        for dc in np.logspace(4, 6, 20):
            p = params(J=J, delta_c=dc, delta_e=J**2 / dc)
            res = g2_analytic(p)
            assert res.g2_c < 1e-8
            assert res.g2_e < 1e-8


class TestEffectiveNoise:
    def test_zero_photons_zero_noise(self):
        rep = effective_noise(params(), 0.0, 300.0)
        assert rep.n_eff == 0.0
        assert rep.t_eff == 0.0

    def test_dispersive_only_closed_form(self):
        p = params(g_kappa=0.0)
        N, T = 3.0, 20.0
        rep = effective_noise(p, N, T)
        n_th = thermal_occupation(p.omega_m, T)
        expected = (p.g_omega**2 / p.omega_m**2) * N * n_th / p.kappa_c
        assert rep.n_eff == pytest.approx(expected, rel=1e-12)

    def test_reference_point_order_of_magnitude(self):
        rep = effective_noise(params(), 2.0, 10.0)
        assert rep.n_eff == pytest.approx(5.4e-5, rel=0.2)
        assert 4e-7 <= rep.t_eff <= 1.6e-6

    def test_clamping_flagged_below_thresholds(self):
        rep = effective_noise(params(), 0.5, 10.0)
        assert rep.clamped
        assert any("clamped" in n for n in rep.notes)

    def test_complex_term_flagged(self):
        rep = effective_noise(params(), 3.0, 10.0)
        assert rep.complex_term_taken_by_magnitude

    def test_xi_amp_is_sqrt(self):
        rep = effective_noise(params(), 2.0, 10.0)
        assert rep.xi_amp == pytest.approx(math.sqrt(rep.n_eff))

    def test_monotone_in_photon_number_and_temperature(self):
        p = params()
        n1 = effective_noise(p, 2.0, 10.0).n_eff
        n2 = effective_noise(p, 5.0, 10.0).n_eff
        n3 = effective_noise(p, 5.0, 100.0).n_eff
        assert n1 < n2 < n3

    def test_input_validation(self):
        with pytest.raises(ValueError):
            effective_noise(params(), -1.0, 10.0)
        with pytest.raises(ValueError):
            effective_noise(params(), 1.0, -10.0)


class TestEffectiveTemperature:
    def test_zero_occupation(self):
        assert effective_temperature(0.0, 1.0e6) == 0.0

    def test_reference_value(self):
        # n = 5.3e-5 at omega_ref = 1e6 -> about 7.7e-7 K
        t = effective_temperature(5.3e-5, 1.0e6)
        expected = hbar * 1.0e6 / (k_B * math.log1p(1.0 / 5.3e-5))
        assert t == pytest.approx(expected, rel=1e-12)
        assert t == pytest.approx(7.7e-7, rel=0.05)

    def test_round_trip_inversion(self):
        for n in (1e-6, 5.3e-5, 0.1, 2.0):
            t = effective_temperature(n, 1.0e6)
            back = thermal_occupation(1.0e6, t)
            assert back == pytest.approx(n, rel=1e-10)

    def test_monotone_in_occupation(self):
        ts = [effective_temperature(n, 1e6) for n in (1e-6, 1e-4, 1e-2, 1.0)]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            effective_temperature(-1e-3, 1e6)
