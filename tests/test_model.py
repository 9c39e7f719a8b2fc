"""Parameter record, Hamiltonian builders, collapse operators, cavity geometry."""

import math
import warnings

import numpy as np
import pytest

from msiblockade.fock import basis_state, expectation, make_space, max_abs, max_abs_diff
from msiblockade.model import (
    CavityGeometry,
    SystemParams,
    build_collapse_ops,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    derived_couplings,
    kappa_of_displacement,
    sqrt_kappa_expansion,
    thermal_occupation,
)


def params(**kw):
    base = dict(
        omega_m=1.0e6, kappa_c=5.0e3, kappa_e=5.0e3, g_omega=200.0, g_kappa=500.0,
        J=2.0e5, delta_c=-1.0e5, delta_e=-1.0e5, eps_c=5.0e3, eps_e=5.0e3,
    )
    base.update(kw)
    return SystemParams(**base)


class TestSystemParams:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="kappa_c"):
            params(kappa_c=-1.0)
        with pytest.raises(ValueError, match="omega_m"):
            params(omega_m=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        for name in ("omega_m", "kappa_c", "J", "delta_e", "eps_c", "n_th", "t_bath"):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                params(**{name: value})

    def test_detunings_and_drives_any_sign(self):
        p = params(delta_c=-3e5, delta_e=4e5, eps_c=-100.0)
        assert p.delta_e == 4e5

    def test_thermal_consistency_enforced(self):
        n = thermal_occupation(1.0e6, 10.0)
        params(n_th=n, t_bath=10.0)  # consistent pair accepted
        with pytest.raises(ValueError, match="inconsistent"):
            params(n_th=2.0 * n + 1.0, t_bath=10.0)

    def test_thermal_phonons_resolution(self):
        assert params().thermal_phonons == 0.0
        assert params(n_th=3.5).thermal_phonons == 3.5
        p = params(t_bath=10.0)
        assert p.thermal_phonons == pytest.approx(thermal_occupation(1e6, 10.0))

    def test_coupling_weight_accessors(self):
        p = params()
        assert p.coupling_weight_dispersive == pytest.approx(200.0 / 5.0e3)
        assert p.coupling_weight_dissipative == pytest.approx(500.0 / 5.0e3)

    def test_with_returns_modified_copy(self):
        p = params()
        q = p.with_(delta_c=0.0)
        assert q.delta_c == 0.0 and p.delta_c == -1.0e5


class TestDerivedCouplings:
    def test_g_omega_zero_kills_g(self):
        assert derived_couplings(params(g_omega=0.0)).G == 0.0

    def test_dj_zero_on_hyperbola_vertex(self):
        d = derived_couplings(params(delta_c=-2.0e5, delta_e=-2.0e5, J=2.0e5))
        assert d.D_J == 0.0

    def test_k_zero_antisymmetric_detuning(self):
        d = derived_couplings(params(delta_c=3.0e5, delta_e=-3.0e5))
        assert d.K == 0.0

    def test_field_formulas(self):
        p = params()
        d = derived_couplings(p)
        assert d.G == 2.0 * p.g_omega**2 - 1j * p.g_kappa * p.g_omega
        assert d.K == p.delta_c + p.delta_e
        assert d.D_J == p.J**2 - p.delta_c * p.delta_e
        assert d.f_A == (2.0 * p.omega_m * d.K + d.G) * d.D_J - d.G * p.delta_e**2
        assert d.f_B == 2.0 * p.J**2 + 2.0 * p.J * d.K + p.delta_c * d.K

    def test_purity(self):
        p = params()
        a, b = derived_couplings(p), derived_couplings(p)
        assert a == b


class TestEffectiveHamiltonian:
    def test_wrong_mode_count(self):
        with pytest.raises(ValueError, match="2-mode"):
            build_effective_hamiltonian(params(), make_space([4, 4, 4]))

    def test_linear_case_hermitian(self):
        H = build_effective_hamiltonian(params(g_omega=0.0, g_kappa=0.0), make_space([4, 4]))
        assert H.is_hermitian()

    def test_real_kerr_hermitian(self):
        H = build_effective_hamiltonian(params(g_kappa=0.0), make_space([4, 4]))
        assert H.is_hermitian()

    def test_kerr_matrix_element_on_two_photons(self):
        # a^dag a^dag a a on |n_c=2> has eigenvalue 2: diagonal shift -G/(2 omega_m) * 2
        p = params()
        s = make_space([4, 4])
        H = build_effective_hamiltonian(p, s).data
        i20 = s.basis_index((2, 0))
        i10 = s.basis_index((1, 0))
        G = derived_couplings(p).G
        kerr_shift = H[i20, i20] - 2.0 * H[i10, i10]
        assert kerr_shift == pytest.approx(-(G / (2.0 * p.omega_m)) * 2.0)

    def test_anti_hermitian_part_is_kerr_gain(self):
        p = params()
        s = make_space([5, 3])
        H = build_effective_hamiltonian(p, s)
        from msiblockade.fock import annihilation

        a = annihilation(s, 0)
        quad = a.dag() @ a.dag() @ a @ a
        expected = (1j * p.g_kappa * p.g_omega / (2.0 * p.omega_m)) * quad
        assert max_abs_diff(H.anti_hermitian_part(), expected) < 1e-12


class TestFullHamiltonian:
    def test_wrong_mode_count(self):
        with pytest.raises(ValueError, match="3-mode"):
            build_full_hamiltonian(params(), make_space([4, 4]))

    def test_always_hermitian(self):
        for kw in ({}, {"g_kappa": 0.0}, {"g_omega": 900.0, "delta_c": 3e5}):
            H = build_full_hamiltonian(params(**kw), make_space([3, 3, 4]))
            assert max_abs(H - H.dag()) < 1e-12

    def test_mechanical_ground_energy(self):
        # (omega_m/2) <0|Q^2 + P^2|0> = omega_m even at 2 mechanical levels
        p = params(g_omega=0.0, g_kappa=0.0, J=0.0, delta_c=0.0, delta_e=0.0, eps_c=0.0, eps_e=0.0)
        s = make_space([2, 2, 2])
        H = build_full_hamiltonian(p, s)
        vac = basis_state(s, (0, 0, 0))
        assert expectation(H, vac).real == pytest.approx(p.omega_m)

    def test_g_omega_zero_commutes_with_phonon_number(self):
        from msiblockade.fock import number

        p = params(g_omega=0.0)
        s = make_space([3, 3, 4])
        H = build_full_hamiltonian(p, s)
        nb = number(s, 2)
        assert max_abs(H @ nb - nb @ H) < 1e-9 * p.omega_m

    def test_dispersive_term_sign(self):
        # +g_omega Q n_c: <1,0,1|H|1,0,0> picks up g_omega <1|Q|0> = g_omega
        p = params(J=0.0, eps_c=0.0, eps_e=0.0)
        s = make_space([3, 2, 3])
        H = build_full_hamiltonian(p, s).data
        i = s.basis_index((1, 0, 1))
        j = s.basis_index((1, 0, 0))
        assert H[i, j] == pytest.approx(p.g_omega)


class TestCollapseOps:
    def test_standard_two_mode(self):
        ops = build_collapse_ops(params(), make_space([4, 4]), "standard")
        assert len(ops) == 2

    def test_zero_rates_dropped(self):
        ops = build_collapse_ops(params(kappa_e=0.0), make_space([4, 4]), "standard")
        assert len(ops) == 1

    def test_mechanical_pair_with_thermal_bath(self):
        p = params(gamma=10.0, n_th=0.5)
        ops = build_collapse_ops(p, make_space([3, 3, 3]), "standard")
        assert len(ops) == 4  # two cavities + b and b^dag
        p0 = params(gamma=10.0, n_th=0.0)
        assert len(build_collapse_ops(p0, make_space([3, 3, 3]), "standard")) == 3

    def test_displacement_modified_requires_three_modes(self):
        with pytest.raises(ValueError, match="3-mode"):
            build_collapse_ops(params(), make_space([4, 4]), "displacement_modified")

    def test_g_kappa_zero_variants_coincide(self):
        p = params(g_kappa=0.0, gamma=5.0, n_th=0.1)
        s = make_space([3, 3, 3])
        std = build_collapse_ops(p, s, "standard")
        mod = build_collapse_ops(p, s, "displacement_modified")
        assert len(std) == len(mod)
        for a, b in zip(std, mod):
            assert max_abs_diff(a, b) < 1e-14

    def test_displacement_modified_form(self):
        # (sqrt(kc) + g_k/(2 sqrt(kc)) Q) a_c: first-order amplitude on one photon
        p = params(gamma=0.0)
        s = make_space([3, 2, 3])
        op = build_collapse_ops(p, s, "displacement_modified")[0].data
        # <0,0,0| O |1,0,0> = sqrt(kc); <0,0,1| O |1,0,0> = g_k/(2 sqrt(kc))
        r0 = s.basis_index((0, 0, 0))
        r1 = s.basis_index((0, 0, 1))
        c = s.basis_index((1, 0, 0))
        assert op[r0, c] == pytest.approx(math.sqrt(p.kappa_c))
        assert op[r1, c] == pytest.approx(p.g_kappa / (2.0 * math.sqrt(p.kappa_c)))

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            build_collapse_ops(params(), make_space([4, 4]), "exotic")


class TestCavityGeometry:
    GEOM = CavityGeometry(length=0.01, transmissivity=0.001, x_zpf=1e-15)

    def test_kappa_formula(self):
        g = self.GEOM
        assert g.kappa_c == pytest.approx(g.c_light * g.transmissivity**2 / (4.0 * g.length))

    def test_zero_displacement_orders_agree(self):
        g = self.GEOM
        assert kappa_of_displacement(g, 0.0, "exact") == pytest.approx(g.kappa_c)
        assert kappa_of_displacement(g, 0.0, "first") == pytest.approx(g.kappa_c)

    def test_half_length_contraction_doubles_kappa(self):
        g = self.GEOM
        assert kappa_of_displacement(g, -g.length / 2.0, "exact") == pytest.approx(2.0 * g.kappa_c)

    def test_first_order_error_bound(self):
        g = self.GEOM
        for frac in (0.01, 0.05, 0.2):
            x = frac * g.length
            err = abs(kappa_of_displacement(g, x, "exact") - kappa_of_displacement(g, x, "first"))
            bound = g.kappa_c * frac**2 / (1.0 - frac)
            assert err <= bound * (1.0 + 1e-12)

    def test_g_kappa_sign_and_magnitude(self):
        g = self.GEOM
        assert g.g_kappa == pytest.approx(-(g.kappa_c / g.length) * g.x_zpf)
        assert g.g_kappa < 0.0

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CavityGeometry(length=-1.0, transmissivity=0.5, x_zpf=1e-15)
        with pytest.raises(ValueError):
            CavityGeometry(length=1.0, transmissivity=1.5, x_zpf=1e-15)
        with pytest.raises(ValueError):
            kappa_of_displacement(self.GEOM, -self.GEOM.length, "exact")


class TestSqrtKappaExpansion:
    def test_zero_displacement(self):
        g = TestCavityGeometry.GEOM
        assert sqrt_kappa_expansion(g, 0.0) == pytest.approx(math.sqrt(g.kappa_c))

    def test_small_ratio_relative_error(self):
        # g_k Q / k_c = 0.1: sqrt(1.1) vs 1.05 -> relative error <= 1.3e-3
        g = TestCavityGeometry.GEOM
        q = 0.1 * g.kappa_c / g.g_kappa
        approx = sqrt_kappa_expansion(g, q)
        exact = math.sqrt(g.kappa_c + g.g_kappa * q)
        assert abs(approx - exact) / exact <= 1.3e-3

    def test_validity_warning(self):
        g = TestCavityGeometry.GEOM
        q = 2.5 * g.kappa_c / g.g_kappa
        with pytest.warns(UserWarning, match="validity"):
            sqrt_kappa_expansion(g, q)


class TestConstants:
    def test_codata_values_equal_scipy_constants(self):
        from scipy.constants import hbar, k

        from msiblockade import analytic, model

        assert model.HBAR == hbar
        assert model.K_B == k
        assert analytic.HBAR is model.HBAR
        assert analytic.K_B is model.K_B


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(1e6, 0.0) == 0.0

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError):
            thermal_occupation(1e6, -1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_temperature_rejected(self, t):
        with pytest.raises(ValueError, match="finite"):
            thermal_occupation(1e6, t)

    # hbar omega / kB T ~ 7.6e3 overflows exp; kB * 5e-324 underflows to 0
    @pytest.mark.parametrize("t", [1e-9, 5e-324])
    def test_deep_quantum_limit_is_zero_without_warning(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert thermal_occupation(1e6, t) == 0.0
            assert SystemParams(t_bath=t).thermal_phonons == 0.0

    def test_bose_value(self):
        from scipy.constants import hbar, k

        w, t = 1e6, 10.0
        expected = 1.0 / math.expm1(hbar * w / (k * t))
        assert thermal_occupation(w, t) == pytest.approx(expected, rel=1e-12)


class TestIntegrateTimeGrid:
    """The shared ODE driver behind evolve, amplitude_dynamics and integrate_full."""

    @staticmethod
    def _vacuum_evolution(t_grid):
        from msiblockade.liouvillian import DensityMatrix, build_liouvillian, evolve

        s = make_space([2, 2])
        L = build_liouvillian(build_effective_hamiltonian(params(), s), build_collapse_ops(params(), s))
        rho0 = DensityMatrix(s, np.diag([1.0, 0.0, 0.0, 0.0]))
        return rho0, evolve(rho0, L, t_grid)

    @pytest.mark.parametrize("t_grid", [[math.inf], [math.nan], [0.0, math.nan], [-math.inf, 0.0]])
    def test_non_finite_time_rejected(self, t_grid):
        # solve_ivp never returns on these spans
        from msiblockade.analytic import amplitude_dynamics
        from msiblockade.semiclassical import integrate_full

        with pytest.raises(ValueError, match="t_grid must be finite"):
            integrate_full(params(), t_grid)
        with pytest.raises(ValueError, match="t_grid must be finite"):
            amplitude_dynamics(params(), t_grid)
        with pytest.raises(ValueError, match="t_grid must be finite"):
            self._vacuum_evolution(t_grid)

    @pytest.mark.parametrize("settle_time", [math.nan, math.inf])
    def test_non_finite_settle_time_rejected(self, settle_time):
        from msiblockade.semiclassical import full_steady_state

        with pytest.raises(ValueError, match="t_grid must be finite"):
            full_steady_state(params(), settle_time=settle_time)

    @pytest.mark.parametrize("t", [0.0, -1e-3])
    def test_single_time_at_start_is_the_initial_state(self, t):
        # the span from min(0, t) to t has zero length: the one column is y0
        from msiblockade.analytic import amplitude_dynamics
        from msiblockade.semiclassical import MeanFieldState, full_steady_state, integrate_full

        rho0, (rho,) = self._vacuum_evolution([t])
        assert np.array_equal(rho.matrix, rho0.matrix)
        (amps,) = amplitude_dynamics(params(), [t])
        assert (amps.c0, amps.cc, amps.ce, amps.cce, amps.ccc, amps.cee) == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert integrate_full(params(), [t]) == [MeanFieldState(0.0, 0.0, 0.0, 0.0)]
        if t == 0.0:
            assert full_steady_state(params(), settle_time=t) == MeanFieldState(0.0, 0.0, 0.0, 0.0)
