"""Superoperator assembly, steady states, evolution, convergence scans."""

import math

import numpy as np
import pytest

from msiblockade import liouvillian
from msiblockade.figures import MOMENT_FLOOR
from msiblockade.fock import OperatorMatrix, annihilation, make_space, number
from msiblockade.liouvillian import (
    DensityMatrix,
    SteadyStateError,
    Superoperator,
    build_liouvillian,
    convergence_scan,
    devectorize,
    evolve,
    mode_statistics,
    pure_state,
    steady_state,
    vacuum_state,
    vectorize,
)
from msiblockade.model import (
    SystemParams,
    build_collapse_ops,
    build_effective_hamiltonian,
    build_full_hamiltonian,
)

# Krylov-versus-reference tolerance: relative, plus for g2 the float64 floor
# of the two-photon moment (MOMENT_FLOOR / n^2)
SOLVER_RTOL = 1e-5


def fig3_params(**kw):
    base = dict(
        omega_m=1.0e6, kappa_c=5.0e3, kappa_e=5.0e3, g_omega=200.0, g_kappa=500.0,
        J=2.0e5, delta_c=-1.0e5, delta_e=-1.0e5, eps_c=5.0e3, eps_e=5.0e3,
    )
    base.update(kw)
    return SystemParams(**base)


def effective_liouvillian(p, levels=(6, 6), convention="sandwich"):
    s = make_space(levels)
    H = build_effective_hamiltonian(p, s)
    return build_liouvillian(H, build_collapse_ops(p, s, "standard"), convention)


class TestVectorization:
    def test_identity_column_stacking(self):
        s = make_space([2])
        rho = DensityMatrix(s, np.eye(2, dtype=complex))
        assert np.allclose(vectorize(rho), [1.0, 0.0, 0.0, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        s = make_space([5])
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = m + m.conj().T
        rho = DensityMatrix(s, m)
        back = devectorize(vectorize(rho), s)
        assert np.allclose(back.matrix, m)

    def test_kron_identity_dim3(self):
        # vec(A rho B) = (B^T kron A) vec(rho)
        rng = np.random.default_rng(5)
        s = make_space([3])
        A, B, R = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
        lhs = (A @ R @ B).reshape(-1, order="F")
        rhs = np.kron(B.T, A) @ R.reshape(-1, order="F")
        assert np.allclose(lhs, rhs)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            devectorize(np.zeros(5), make_space([2]))


class TestBuildLiouvillian:
    def test_amplitude_damping_action(self):
        # H = 0, one collapse sqrt(k) a: L|1><1| = k(|0><0| - |1><1|)
        s = make_space([2])
        k = 3.0
        H = 0.0 * number(s, 0)
        L = build_liouvillian(H, [math.sqrt(k) * annihilation(s, 0)])
        rho1 = pure_state(s, [0.0, 1.0])
        out = L.apply(rho1).matrix
        assert np.allclose(out, k * np.diag([1.0, -1.0]))

    def test_coherent_part_traceless(self):
        p = fig3_params(g_kappa=0.0)
        s = make_space([4, 4])
        H = build_effective_hamiltonian(p, s)
        L = build_liouvillian(H, [])
        rng = np.random.default_rng(9)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = DensityMatrix(s, m + m.conj().T)
        assert abs(np.trace(L.apply(rho).matrix)) < 1e-9

    def test_trace_preservation_left_null_vector(self):
        p = fig3_params(g_kappa=0.0)
        L = effective_liouvillian(p, (4, 4))
        # scaled: entries are of order omega_m
        assert L.trace_preservation_defect() / abs(L.matrix).max() < 1e-12

    def test_convention_agreement_hermitian(self):
        p = fig3_params(g_kappa=0.0)
        Lc = effective_liouvillian(p, (4, 4), "commutator")
        Ls = effective_liouvillian(p, (4, 4), "sandwich")
        assert abs(Lc.matrix - Ls.matrix).max() < 1e-12

    def test_sandwich_kerr_gain_on_two_photon_projector(self):
        # difference of the two conventions on |n_c=2><n_c=2| is the
        # anti-Hermitian Kerr part: +(g_k g_w / 2 w_m) n(n-1) gain-like diagonal
        p = fig3_params()
        s = make_space([4, 4])
        H = build_effective_hamiltonian(p, s)
        Ls = build_liouvillian(H, [], "sandwich")
        Lc = build_liouvillian(H, [], "commutator")
        i2 = s.basis_index((2, 0))
        rho = DensityMatrix(s, np.zeros((16, 16), dtype=complex))
        rho.matrix[i2, i2] = 1.0
        diff = (Ls.apply(rho).matrix - Lc.apply(rho).matrix)[i2, i2]
        rate = p.g_kappa * p.g_omega / (2.0 * p.omega_m)
        # anti-Hermitian part acts twice (left and right): -i(-iA rho - rho(+iA)) = ... = 2A rho
        assert diff.real == pytest.approx(2.0 * rate * 2.0 * 1.0, rel=1e-10)
        assert abs(diff.imag) < 1e-12

    def test_space_mismatch(self):
        p = fig3_params()
        H = build_effective_hamiltonian(p, make_space([4, 4]))
        bad = annihilation(make_space([3, 3]), 0)
        with pytest.raises(ValueError, match="different space"):
            build_liouvillian(H, [bad])


def random_model(seed, dims, convention):
    """A small Liouvillian with a non-Hermitian H and every kind of jump the factors must handle.

    Jumps: damping of each mode, the thermal b / b^dag pair on the last
    mode, sqrt(gamma) n dephasing (a nonzero diagonal), a random complex
    jump, and a sum of two of them (overlapping off-diagonal supports).
    """
    rng = np.random.default_rng(seed)
    s = make_space(dims)
    N = s.dim
    h = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    h[rng.random((N, N)) < 0.6] = 0.0
    H = OperatorMatrix(s, h * 10.0 ** rng.uniform(0, 5))
    a = [annihilation(s, m) for m in range(s.n_modes)]
    jumps = [math.sqrt(rng.uniform(0.1, 10.0)) * op for op in a]
    jumps += [math.sqrt(rng.uniform(0.1, 10.0)) * a[-1].dag(), math.sqrt(rng.uniform(0.1, 10.0)) * number(s, 0)]
    o = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    o[rng.random((N, N)) < 0.7] = 0.0
    jumps += [OperatorMatrix(s, o), jumps[0] + 0.3 * jumps[-1]]
    return build_liouvillian(H, jumps, convention)


def physical_models():
    p = fig3_params(gamma=100.0, n_th=0.4, delta_c=-2.0e5 + 1.0e3, delta_e=-2.0e5 + 1.0e3)
    yield effective_liouvillian(p, (6, 6))
    yield effective_liouvillian(p, (12, 12))
    s = make_space((3, 3, 4))
    yield build_liouvillian(build_full_hamiltonian(p, s), build_collapse_ops(p, s, "displacement_modified"))


class TestMatrixFreeFactors:
    """Residual and max|L| come from H and the jumps; the matrix is assembled only on demand."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("convention", ["commutator", "sandwich"])
    def test_entry_scale_equals_assembled_max(self, seed, convention):
        dims = [(3,), (2, 3), (3, 3), (2, 2, 3)][seed % 4]
        L = random_model(seed, dims, convention)
        assert liouvillian._generator(L)[3] == abs(L.matrix).max()

    def test_entry_scale_equals_assembled_max_on_physical_models(self):
        for L in physical_models():
            assert liouvillian._generator(L)[3] == abs(L.matrix).max()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("convention", ["commutator", "sandwich"])
    def test_residual_matches_sparse_product(self, seed, convention):
        L = random_model(seed, (3, 3), convention)
        rng = np.random.default_rng(100 + seed)
        m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        P, Q, jumps, scale = liouvillian._generator(L)
        res = liouvillian._finish(L.space, rho, P, Q, jumps, scale, "test")
        free = P @ rho + rho @ Q + sum(o @ rho @ o.conj().T for o in jumps)
        sparse = L.apply(DensityMatrix(L.space, rho)).matrix
        assert np.linalg.norm(free - sparse) <= 1e-13 * np.linalg.norm(sparse)
        reference = np.linalg.norm(L.matrix @ vectorize(rho)) / (abs(L.matrix).max() * np.linalg.norm(rho))
        assert res.residual == pytest.approx(reference, rel=1e-13)

    def test_krylov_leaves_matrix_unassembled(self):
        L = effective_liouvillian(fig3_params())
        krylov = steady_state(L, method="krylov")
        assert "matrix" not in vars(L)
        direct = steady_state(L, method="direct")
        assert "matrix" in vars(L) and L.matrix is L.matrix
        assert np.max(np.abs(direct.state.matrix - krylov.state.matrix)) < 1e-9
        assert max(direct.residual, krylov.residual) <= 1e-10


class TestSteadyState:
    def test_driven_linear_cavity_occupation(self):
        # single driven damped cavity at resonance: <n> = 4 eps^2 / kappa^2
        k, eps = 5.0e3, 0.01 * 5.0e3
        s = make_space([6])
        H = eps * (annihilation(s, 0).dag() + annihilation(s, 0))
        L = build_liouvillian(H, [math.sqrt(k) * annihilation(s, 0)])
        res = steady_state(L)
        n, _ = mode_statistics(res.state, 0)
        assert n == pytest.approx(4.0 * eps**2 / k**2, rel=1e-6)

    def test_no_drive_gives_vacuum(self):
        p = fig3_params(eps_c=0.0, eps_e=0.0)
        res = steady_state(effective_liouvillian(p, (4, 4)))
        expected = vacuum_state(make_space([4, 4])).matrix
        assert np.max(np.abs(res.state.matrix - expected)) < 1e-12

    def test_residual_contract(self):
        res = steady_state(effective_liouvillian(fig3_params()))
        assert res.residual < 1e-10

    def test_physicality(self):
        res = steady_state(effective_liouvillian(fig3_params(g_kappa=0.0)))
        st = res.state
        assert abs(st.trace() - 1.0) < 1e-10
        assert st.hermiticity_defect() < 1e-10
        assert st.min_eigenvalue() >= -1e-8

    def test_degenerate_manifold_reported(self):
        # no dissipation at all: every diagonal state is steady
        p = fig3_params(kappa_c=0.0, kappa_e=0.0, eps_c=0.0, eps_e=0.0, g_kappa=0.0)
        s = make_space([3, 3])
        H = build_effective_hamiltonian(p, s)
        L = build_liouvillian(H, [])
        with pytest.raises(SteadyStateError):
            steady_state(L)

    def test_krylov_matches_direct(self):
        p = fig3_params()
        L = effective_liouvillian(p, (6, 6))
        direct = steady_state(L, method="direct")
        krylov = steady_state(L, method="krylov")
        assert np.max(np.abs(direct.state.matrix - krylov.state.matrix)) < 1e-9
        n_d, g2_d = mode_statistics(direct.state, 0)
        n_k, g2_k = mode_statistics(krylov.state, 0)
        assert n_k == pytest.approx(n_d, rel=1e-8)
        assert g2_k == pytest.approx(g2_d, rel=1e-5)

    @pytest.mark.parametrize("cond_limit", [liouvillian.EIGENBASIS_COND_LIMIT, 0.0], ids=["eigenbasis", "schur"])
    def test_krylov_matches_direct_for_commutator(self, cond_limit, monkeypatch):
        # non-Hermitian H: the commutator and sandwich states differ here by
        # 1e-4 in g2, ten times the tolerance. The generator does not keep
        # the trace, so both residuals sit near 8e-9, above the 1e-10 gate;
        # the moments are compared instead.
        p = fig3_params(g_omega=1000.0, g_kappa=1000.0, delta_c=-2.0e5, delta_e=-2.0e5, eps_c=5.0e4, eps_e=5.0e4)
        L = effective_liouvillian(p, convention="commutator")
        direct = steady_state(L, method="direct")
        monkeypatch.setattr(liouvillian, "EIGENBASIS_COND_LIMIT", cond_limit)
        krylov = steady_state(L, method="krylov")
        assert not krylov.notes
        for mode in (0, 1):
            n_d, g2_d = mode_statistics(direct.state, mode)
            n_k, g2_k = mode_statistics(krylov.state, mode)
            assert n_k == pytest.approx(n_d, rel=SOLVER_RTOL)
            assert abs(g2_k - g2_d) <= SOLVER_RTOL * abs(g2_d) + MOMENT_FLOOR / n_d**2

    def test_krylov_handles_driven_resonance(self):
        # hard point: hybrid-mode resonance with n ~ 4 photons
        p = fig3_params(delta_c=2.0e5, delta_e=2.0e5)
        L = effective_liouvillian(p, (12, 12))
        res = steady_state(L)  # auto -> krylov at dim 20736
        assert res.method == "krylov"
        n, _ = mode_statistics(res.state, 0)
        assert 3.0 < n < 5.0
        assert res.residual < 1e-6

    @pytest.mark.parametrize(
        "J, kappa, g_omega, g_kappa",
        [
            # an earlier Krylov solve returned g2 = 1.274 here against the
            # direct solve's 1.000, with residual 8.8e-11 and no note
            (312583.0, 42417.62505741053, 33.775620244847815, 943.7787530895548),
            # the eigenbasis solve without the power steps missed by 2.3 tolerances
            (319074.0, 12513.646584035707, 320.68597786425056, 856.5527332532338),
        ],
    )
    def test_krylov_matches_direct_at_defect_point(self, J, kappa, g_omega, g_kappa):
        # Delta = -J, the presets' drive, n ~ 1e-4: the two-photon moment is
        # near its float64 floor
        p = fig3_params(
            g_omega=g_omega, g_kappa=g_kappa, J=J, delta_c=-J, delta_e=-J, kappa_c=kappa, kappa_e=kappa,
        )
        L = effective_liouvillian(p)
        direct = steady_state(L, method="direct")
        krylov = steady_state(L, method="krylov")
        assert krylov.residual <= 1e-10 and not krylov.notes
        for mode in (0, 1):
            n, g2_d = mode_statistics(direct.state, mode)
            _, g2_k = mode_statistics(krylov.state, mode)
            assert abs(g2_k - g2_d) <= SOLVER_RTOL * abs(g2_d) + MOMENT_FLOOR / n**2

    def test_krylov_needs_dissipation(self):
        p = fig3_params(kappa_c=0.0, kappa_e=0.0, g_kappa=0.0)
        s = make_space([3, 3])
        L = build_liouvillian(build_effective_hamiltonian(p, s), [])
        with pytest.raises(SteadyStateError, match="degenerate"):
            steady_state(L, method="krylov")


class TestKrylovSylvesterBranches:
    """The Krylov solve inverts L0 in an eigenbasis, or by Schur when cond(V) is large."""

    @staticmethod
    def solve_recording_branch(L, monkeypatch):
        branches = []
        inverse = liouvillian._sylvester_inverse

        def spy(*args):
            solve, branch = inverse(*args)
            branches.append(branch)
            return solve, branch

        monkeypatch.setattr(liouvillian, "_sylvester_inverse", spy)
        res = steady_state(L, method="krylov")
        monkeypatch.setattr(liouvillian, "_sylvester_inverse", inverse)
        return res, branches

    def test_eigenbasis_and_schur_agree_when_well_conditioned(self, monkeypatch):
        L = effective_liouvillian(fig3_params(delta_c=-2.0e5, delta_e=-2.0e5), (12, 12))
        eig, branches = self.solve_recording_branch(L, monkeypatch)
        assert branches == ["eigenbasis"]
        monkeypatch.setattr(liouvillian, "EIGENBASIS_COND_LIMIT", 0.0)
        schur, branches = self.solve_recording_branch(L, monkeypatch)
        assert branches == ["schur"]
        for res in (eig, schur):
            assert res.residual <= 1e-10 and not res.notes
        for mode in (0, 1):
            n_s, g2_s = mode_statistics(schur.state, mode)
            n_e, g2_e = mode_statistics(eig.state, mode)
            assert abs(n_e - n_s) <= SOLVER_RTOL * n_s
            assert abs(g2_e - g2_s) <= SOLVER_RTOL * abs(g2_s) + MOMENT_FLOOR / n_s**2

    def test_ill_conditioned_eigenbasis_falls_back_to_schur(self, monkeypatch):
        # kappa = 1e4 Hz, 1e3 Hz below the hybrid resonance Delta = +J: cond(V) ~ 2e4,
        # where the eigenbasis solve's residual exceeds 1e-10
        p = fig3_params(g_kappa=0.0, kappa_c=1.0e4, kappa_e=1.0e4, delta_c=2.0e5 - 1.0e3, delta_e=2.0e5 - 1.0e3)
        res, branches = self.solve_recording_branch(effective_liouvillian(p, (12, 12)), monkeypatch)
        assert branches == ["schur"]
        assert res.residual <= 1e-10 and not res.notes


class TestEvolve:
    def test_zero_generator_constant(self):
        s = make_space([3])
        H = 0.0 * number(s, 0)
        L = build_liouvillian(H, [])
        rho0 = pure_state(s, [0.0, 1.0, 0.0])
        traj = evolve(rho0, L, [0.5, 1.0])
        for st in traj:
            assert np.max(np.abs(st.matrix - rho0.matrix)) < 1e-9

    def test_amplitude_damping_exponential(self):
        s = make_space([2])
        k = 2.0
        H = 0.0 * number(s, 0)
        L = build_liouvillian(H, [math.sqrt(k) * annihilation(s, 0)])
        ts = np.linspace(0.1, 2.0, 5)
        traj = evolve(pure_state(s, [0.0, 1.0]), L, ts)
        for t, st in zip(ts, traj):
            assert st.matrix[1, 1].real == pytest.approx(math.exp(-k * t), abs=1e-6)

    def test_long_time_matches_steady_state(self):
        # self-consistency on the detuning-sweep preset point delta = -0.1 omega_m
        p = fig3_params()
        L = effective_liouvillian(p, (4, 4))
        ss = steady_state(L).state
        final = evolve(vacuum_state(make_space([4, 4])), L, [30.0 / p.kappa_c])[-1]
        dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(final.matrix - ss.matrix)))
        assert dist < 1e-6

    def test_trace_and_hermiticity_preserved(self):
        p = fig3_params(g_kappa=0.0)  # Hermitian H
        L = effective_liouvillian(p, (4, 4))
        ts = np.linspace(1e-5, 5e-4, 8)
        for st in evolve(vacuum_state(make_space([4, 4])), L, ts):
            assert abs(st.trace() - 1.0) < 1e-8
            assert st.hermiticity_defect() < 1e-8

    def test_t_grid_validation(self):
        s = make_space([2])
        L = build_liouvillian(0.0 * number(s, 0), [])
        with pytest.raises(ValueError):
            evolve(vacuum_state(s), L, [2.0, 1.0])


class TestAmplitudeOracle:
    def test_kappa_zero_weak_drive_matches_amplitude_dynamics(self):
        # dissipation-free weak-drive evolution vs the five-amplitude ODEs
        from msiblockade.analytic import amplitude_dynamics

        # drive weak enough that C0 depletion (absent from the fixed-C0
        # amplitude model) is below the tolerance; sample times offset by a
        # quarter period because the commensurate normal modes (1e5, 3e5)
        # recur to the vacuum at whole periods, where populations vanish
        p = fig3_params(kappa_c=0.0, kappa_e=0.0, g_kappa=0.0, eps_c=500.0, eps_e=500.0)
        s = make_space([6, 6])
        H = build_effective_hamiltonian(p, s)
        L = build_liouvillian(H, [])
        period = 2.0 * math.pi / abs(p.delta_c)
        ts = period * np.linspace(0.25, 9.25, 10)
        traj = evolve(vacuum_state(s), L, ts, rtol=1e-10)
        amps = amplitude_dynamics(p, ts)
        for st, amp in zip(traj, amps):
            n_c_me, _ = mode_statistics(st, 0)
            n_e_me, _ = mode_statistics(st, 1)
            n_c_amp, n_e_amp = amp.occupations()
            assert n_c_me == pytest.approx(n_c_amp, rel=1e-4, abs=0.0)
            assert n_e_me == pytest.approx(n_e_amp, rel=1e-4, abs=0.0)


class TestConvergenceScan:
    @staticmethod
    def builder(p):
        def build(levels):
            s = make_space(levels)
            H = build_effective_hamiltonian(p, s)
            return build_liouvillian(H, build_collapse_ops(p, s, "standard"))

        return build

    def test_weak_drive_occupation_converged_by_four_levels(self):
        p = fig3_params()
        rows = convergence_scan(self.builder(p), [(4, 4), (6, 6)])
        assert rows[0].n_c < 1.0
        assert rows[1].deltas["n_c"] < 1e-6

    def test_doubling_converged_preset_g2_stable(self):
        p = fig3_params()
        rows = convergence_scan(self.builder(p), [(4, 4), (8, 8)])
        assert rows[1].deltas["g2_c"] < 1e-4

    def test_single_truncation_no_deltas(self):
        rows = convergence_scan(self.builder(fig3_params()), [(4, 4)])
        assert len(rows) == 1 and rows[0].deltas is None

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            convergence_scan(self.builder(fig3_params()), [])
