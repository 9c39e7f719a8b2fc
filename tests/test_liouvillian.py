"""Superoperator assembly, steady states, evolution, convergence scans."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from msiblockade import blas, liouvillian
from msiblockade.figures import MOMENT_FLOOR
from msiblockade.fock import OperatorMatrix, annihilation, make_space, number, occupations
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
from msiblockade.sweep import _tier_liouvillian

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


def kron_superoperator(L):
    """Reference: L assembled by scipy.sparse Kronecker products from H and the jumps.

    -i(kron(I, H) - kron(H_right^T, I)) + sum_o kron(conj o, o) - (kron(I,
    o^dag o) + kron((o^dag o)^T, I)) / 2 in column stacking, built without
    the library's factors, so that it checks ``L.matrix`` independently.
    """
    Hs = sp.csr_matrix(L.hamiltonian.data)
    eye = sp.identity(L.space.dim, format="csr", dtype=complex)
    right = Hs if L.convention == "commutator" else Hs.conj().T
    Lm = -1j * (sp.kron(eye, Hs, format="csr") - sp.kron(right.T, eye, format="csr"))
    for o in L.collapse_ops:
        od = sp.csr_matrix(o.data)
        odo = od.conj().T @ od
        Lm = Lm + sp.kron(od.conj(), od, format="csr")
        Lm = Lm - 0.5 * (sp.kron(eye, odo, format="csr") + sp.kron(odo.T, eye, format="csr"))
    return Lm.tocsr()


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

    def test_trace_preservation_defect_is_the_kerr_gain(self):
        # sandwich with the paper's complex Kerr term: tr(L rho) = tr(i (H^dag - H)
        # rho), whose largest entry is (g_kappa g_omega / omega_m) n_c (n_c - 1)
        # at n_c = 5, i.e. 0.1 * 20 = 2
        L = effective_liouvillian(fig3_params(delta_c=-2.0e5, delta_e=-2.0e5))
        K = kron_superoperator(L)
        left = vectorize(np.eye(L.space.dim, dtype=complex)).conj()
        reference = np.max(np.abs(left @ K))
        defect = L.trace_preservation_defect()
        assert abs(defect - reference) <= 1e-15 * abs(K).max()
        assert defect == pytest.approx(2.0, rel=1e-15)
        assert "matrix" not in vars(L)

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


def full_liouvillian(p, levels):
    s = make_space(levels)
    return build_liouvillian(build_full_hamiltonian(p, s), build_collapse_ops(p, s, "displacement_modified"))


# every build_collapse_ops jump has a zero diagonal and no two share an
# off-diagonal position, so max|L| from the entry classes is exact on these
_THERMAL = dict(gamma=100.0, n_th=0.4, delta_c=-2.0e5 + 1.0e3, delta_e=-2.0e5 + 1.0e3)
_FIG7 = dict(g_kappa=200.0, delta_c=-2.0e5, delta_e=-2.0e5)
PHYSICAL_MODELS = {
    "thermal-6-6": lambda: effective_liouvillian(fig3_params(**_THERMAL), (6, 6)),
    "thermal-12-12": lambda: effective_liouvillian(fig3_params(**_THERMAL), (12, 12)),
    "thermal-full-3-3-4": lambda: full_liouvillian(fig3_params(**_THERMAL), (3, 3, 4)),
    "fig3-delta-min": lambda: effective_liouvillian(fig3_params(delta_c=-5.0e5, delta_e=-5.0e5)),
    "fig3-delta-0": lambda: effective_liouvillian(fig3_params(delta_c=0.0, delta_e=0.0)),
    "fig3-delta-max": lambda: effective_liouvillian(fig3_params(delta_c=5.0e5, delta_e=5.0e5)),
    "fig7-kappa-1e-3": lambda: effective_liouvillian(fig3_params(kappa_c=1.0e-3, kappa_e=1.0e-3, **_FIG7)),
    "fig7-kappa-1e5": lambda: effective_liouvillian(fig3_params(kappa_c=1.0e5, kappa_e=1.0e5, **_FIG7)),
    "gate-12-12": lambda: effective_liouvillian(fig3_params(delta_c=0.0, delta_e=0.0), (12, 12)),
    # of the 2214 fig3, fig6 and fig7 preset points, the one where max|L|
    # summed in the factor order (P_ii + Q_jj, then the jumps) is an ulp off
    # the Kronecker assembly's: 2000153.792994681 against 2000153.7929946815
    "fig6-g350-25": lambda: effective_liouvillian(
        fig3_params(g_omega=350.0, g_kappa=25.0, delta_c=-2.0e5, delta_e=-2.0e5)
    ),
    "thermal-full-2-2-3": lambda: full_liouvillian(fig3_params(**_THERMAL), (2, 2, 3)),
    "thermal-full-4-4-8": lambda: full_liouvillian(fig3_params(**_THERMAL), (4, 4, 8)),
}


# the random models' spaces, by seed % 4
RANDOM_DIMS = [(3,), (2, 3), (3, 3), (2, 2, 3)]


def assert_matches_kron_reference(L):
    ref = kron_superoperator(L)
    assert L.matrix.nnz == ref.nnz
    assert abs(L.matrix - ref).max() <= 1e-15 * abs(ref).max()


class TestMatrixFreeFactors:
    """Residual and max|L| come from H and the jumps; the matrix is built only on demand."""

    @pytest.mark.parametrize("build", PHYSICAL_MODELS.values(), ids=PHYSICAL_MODELS.keys())
    def test_matrix_matches_kronecker_reference_on_physical_models(self, build):
        assert_matches_kron_reference(build())

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("convention", ["commutator", "sandwich"])
    def test_matrix_matches_kronecker_reference_on_random_models(self, seed, convention):
        assert_matches_kron_reference(random_model(seed, RANDOM_DIMS[seed % 4], convention))

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("convention", ["commutator", "sandwich"])
    def test_entry_scale_equals_assembled_max(self, seed, convention):
        # dephasing diagonals and overlapping jumps: the scale is an upper
        # bound on max|L| here, below the crude max|P| + max|Q| + sum max|o|^2
        L = random_model(seed, RANDOM_DIMS[seed % 4], convention)
        P, Q, jumps, scale = liouvillian._generator(L)
        crude = abs(P).max() + abs(Q).max() + sum(abs(o).max() ** 2 for o in jumps)
        assert abs(L.matrix).max() * (1.0 - 1e-15) <= scale <= crude

    @pytest.mark.parametrize("build", PHYSICAL_MODELS.values(), ids=PHYSICAL_MODELS.keys())
    def test_entry_scale_equals_assembled_max_on_physical_models(self, build):
        L = build()
        assert liouvillian._generator(L)[3] == abs(L.matrix).max()

    @pytest.mark.parametrize("case", ["jumps-only", "dephased-drive"])
    def test_entry_scale_tight_where_an_off_diagonal_class_dominates(self, case):
        if case == "jumps-only":
            # H = i D / 2 cancels P and Q under sandwich: L = sum_o kron(conj o, o),
            # so the largest entry is in the class i != k, j != l
            s = make_space((3, 3))
            jumps = [2.0 * annihilation(s, 0), 0.5 * annihilation(s, 1)]
            H = OperatorMatrix(s, 0.5j * sum(o.data.conj().T @ o.data for o in jumps))
        else:
            # a drive along the jump's off-diagonal support adds to its diagonal
            # term: the largest entries are in the classes i != k, j = l and i = k, j != l
            s = make_space((4,))
            jumps = [annihilation(s, 0) + 0.5 * number(s, 0)]
            H = OperatorMatrix(s, 10.0j * annihilation(s, 0).data)
        L = build_liouvillian(H, jumps, "sandwich")
        exact = abs(kron_superoperator(L)).max()
        assert exact * (1.0 - 1e-15) <= liouvillian._generator(L)[3] <= exact * (1.0 + 1e-15)

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
        K = kron_superoperator(L)
        sparse = devectorize(K @ vectorize(rho), L.space).matrix
        assert np.linalg.norm(free - sparse) <= 1e-13 * np.linalg.norm(sparse)
        reference = np.linalg.norm(K @ vectorize(rho)) / (abs(K).max() * np.linalg.norm(rho))
        assert res.residual == pytest.approx(reference, rel=1e-13)

    def test_krylov_leaves_matrix_unassembled(self):
        L = effective_liouvillian(fig3_params())
        krylov = steady_state(L, method="krylov")
        assert "matrix" not in vars(L)
        direct = steady_state(L, method="direct")
        assert "matrix" not in vars(L)
        assert np.max(np.abs(direct.state.matrix - krylov.state.matrix)) < 1e-9
        assert max(direct.residual, krylov.residual) <= 1e-10


def trace_row_reference(L):
    """The trace-row system from the Kronecker reference: L / max|L|, row 0 -> tr(rho) = 1."""
    n = L.space.dim
    K = kron_superoperator(L)
    A = (K / abs(K).max()).toarray()
    A[0] = 0.0
    A[0, :: n + 1] = 1.0
    return A


def kron_trace_row_system(P, Q, jumps, scale):
    """Reference: the trace-row system assembled by scipy.sparse Kronecker products.

    L = kron(I, P) + kron(Q^T, I) + sum_o kron(conj o, o), divided by
    ``scale``, with row 0 replaced by ones at (0, k(n+1)).
    """
    n = P.shape[0]
    eye = sp.identity(n, dtype=complex, format="csr")
    Lm = sp.kron(eye, sp.csr_matrix(P), format="csr") + sp.kron(sp.csr_matrix(Q.T), eye, format="csr")
    for o in jumps:
        Lm = Lm + sp.kron(o.conj(), o, format="csr")
    trace = sp.csr_matrix((np.ones(n, dtype=complex), ([0] * n, np.arange(n) * (n + 1))), shape=(1, n * n))
    return sp.vstack([trace, (Lm / scale)[1:]], format="coo")


def numeric_rcm_band(A):
    """Reference: ``A`` ordered by reverse Cuthill-McKee on the numeric A + A^T, in LAPACK band storage."""
    perm = reverse_cuthill_mckee(A.tocsr(), symmetric_mode=False)
    inv = np.empty(perm.size, dtype=np.intp)
    inv[perm] = np.arange(perm.size)
    r, c = inv[A.row], inv[A.col]
    kl, ku = int(np.max(r - c)), int(np.max(c - r))
    ab = np.zeros((2 * kl + ku + 1, perm.size), dtype=complex, order="F")
    ab[kl + ku + r - c, c] = A.data
    return ab, kl, ku, inv


def reference_band(L):
    return numeric_rcm_band(kron_trace_row_system(*liouvillian._generator(L)))


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_band(got, want):
    (ab, kl, ku, inv), (ab_ref, kl_ref, ku_ref, inv_ref) = got, want
    assert (kl, ku) == (kl_ref, ku_ref)
    assert np.array_equal(inv, inv_ref)
    assert ab.shape == ab_ref.shape and ab.flags.f_contiguous
    assert np.array_equal(bits(ab.T), bits(ab_ref.T))


def phased_effective_liouvillian(p, levels):
    """The effective model with i J (a_c^dag a_e - a_e^dag a_c) and i eps (a^dag - a).

    Same sparsity pattern as the real couplings, but entries of L + L^T
    cancel, so an ordering taken on the numeric A + A^T loses edges. (Not
    the same physics: one gauge cannot make J and both drives imaginary, and
    n_c is 5 times the real couplings' at fig3_params().)
    """
    s = make_space(levels)
    a_c, a_e = annihilation(s, 0), annihilation(s, 1)
    H = build_effective_hamiltonian(replace(p, J=0.0, eps_c=0.0, eps_e=0.0), s)
    H = (
        H + 1j * p.J * (a_c.dag() @ a_e - a_c @ a_e.dag())
        + 1j * p.eps_c * (a_c.dag() - a_c) + 1j * p.eps_e * (a_e.dag() - a_e)
    )
    return build_liouvillian(H, build_collapse_ops(p, s), "sandwich")


def dephased_liouvillian(loss=0.0):
    """A drive on mode 1, damping on mode 0 and dephasing on mode 1: some entries of L sum to exactly 0.

    On the diagonal, L[(i,i),(i,i)] = 0 wherever mode 0 is empty. ``loss``
    adds -i loss a1^dag a1 to H, which keeps the pattern of the factors
    but makes those entries -2 loss n1(i). The steady state is unique:
    |0><0| on mode 0 times the identity / 3 on mode 1 at loss 0.
    """
    s = make_space((3, 3))
    a1 = annihilation(s, 1)
    H = a1 + a1.dag() - 1j * loss * number(s, 1)
    return build_liouvillian(H, [2.0 * annihilation(s, 0), number(s, 1)], "sandwich")


def dense_steady_state(L):
    n = L.space.dim
    b = np.zeros(n * n, dtype=complex)
    b[0] = 1.0
    return devectorize(np.linalg.solve(trace_row_reference(L), b), L.space).normalized()


# the effective model at (3,3) to (8,8), non-Hermitian H (g_kappa > 0), in an
# order that alternates patterns: no drive, then drive, then no drive again
_BAND_MODELS = [
    ((3, 3), dict(eps_c=0.0, eps_e=0.0)),
    ((3, 3), dict()),
    ((4, 4), dict(g_omega=0.0)),
    ((3, 3), dict(eps_c=0.0, eps_e=0.0, delta_c=0.0, delta_e=0.0)),
    ((4, 4), dict(J=0.0)),
    ((5, 5), dict()),
    ((4, 4), dict(g_omega=0.0)),
    ((6, 6), dict(eps_c=5.0e4, eps_e=5.0e4)),
    ((5, 7), dict(g_omega=0.0, g_kappa=0.0)),
    ((6, 6), dict(delta_c=0.0, delta_e=0.0)),
    ((7, 7), dict(kappa_c=1.0e-3, kappa_e=1.0e-3)),
    ((3, 3), dict(eps_c=0.0, eps_e=0.0)),
    ((8, 8), dict()),
]


class TestBandedDirect:
    """The direct solve: trace-row band from the factors, ordered by RCM once per pattern, LAPACK gbsv."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda convention: effective_liouvillian(fig3_params(g_kappa=500.0), (3, 3), convention),
            lambda convention: effective_liouvillian(fig3_params(g_kappa=500.0), (4, 4), convention),
            # H and jumps neither Hermitian nor symmetric: a transposed factor shows
            lambda convention: random_model(0, (3, 3), convention),
        ],
        ids=["effective-3-3", "effective-4-4", "random-3-3"],
    )
    @pytest.mark.parametrize("convention", ["commutator", "sandwich"])
    def test_band_unpermuted_equals_trace_row_matrix(self, build, convention):
        L = build(convention)
        ab, kl, ku, inv = liouvillian._trace_row_band(*liouvillian._generator(L))
        size = ab.shape[1]
        assert not ab[:kl].any()
        band = np.zeros((size, size), dtype=complex)
        for c in range(size):
            rows = np.arange(max(0, c - ku), min(size, c + kl + 1))
            band[rows, c] = ab[kl + ku + rows - c, c]
        reference = trace_row_reference(L)
        assert np.max(np.abs(band[np.ix_(inv, inv)] - reference)) <= 1e-15 * np.max(np.abs(reference))

    @pytest.mark.parametrize("convention", ["commutator", "sandwich"])
    def test_band_equals_kronecker_reference_bit_for_bit(self, convention):
        # one process, patterns alternating: a layout taken for the wrong
        # pattern from the cache would show here
        liouvillian._pattern.cache_clear()
        liouvillian._band_layout.cache_clear()
        for levels, kw in _BAND_MODELS:
            L = effective_liouvillian(fig3_params(**kw), levels, convention)
            assert_same_band(liouvillian._trace_row_band(*liouvillian._generator(L)), reference_band(L))
        info = liouvillian._band_layout.cache_info()
        assert info.hits > 0 and info.currsize <= info.maxsize

    def test_entries_that_sum_to_zero_solve_to_the_dense_state(self):
        L = dephased_liouvillian()
        P, Q, jumps, _ = liouvillian._generator(L)
        # at |0, m><0, m| for m = 1, 2, P, Q and the dephasing jump each put an
        # entry on L's diagonal, and they sum to exactly 0
        assert np.all(np.diagonal(P)[1:3] != 0) and jumps[1].diagonal()[1:3].all()
        assert np.array_equal(np.flatnonzero(L.matrix.diagonal() == 0), [0, 10, 20])
        res = steady_state(L, method="direct")
        dense = dense_steady_state(L).matrix
        assert np.max(np.abs(res.state.matrix - dense)) <= 1e-14
        assert np.max(np.abs(dense - np.kron(np.diag([1.0, 0.0, 0.0]), np.eye(3) / 3))) <= 1e-14

    def test_layout_is_keyed_by_the_pattern_alone(self):
        # the same pattern with and without cancelling entries: one layout
        cancelling, loss = dephased_liouvillian(), dephased_liouvillian(loss=0.5)
        assert cancelling.matrix.nnz < loss.matrix.nnz
        liouvillian._band_layout.cache_clear()
        for L in (cancelling, loss):
            liouvillian._trace_row_band(*liouvillian._generator(L))
        info = liouvillian._band_layout.cache_info()
        assert (info.currsize, info.hits) == (1, 1)

    def test_phased_couplings_keep_the_band(self):
        # the numeric A + A^T ordering gave kl = ku = 1281 here: an 80 MB band
        p = fig3_params()
        L = phased_effective_liouvillian(p, (6, 6))
        _, kl, ku, _ = liouvillian._trace_row_band(*liouvillian._generator(L))
        real = liouvillian._trace_row_band(*liouvillian._generator(effective_liouvillian(p)))
        assert (kl, ku) == (real[1], real[2]) == (155, 155)
        direct, krylov = steady_state(L, method="direct"), steady_state(L, method="krylov")
        assert direct.residual <= 1e-10
        for mode in (0, 1):
            n_k, g2_k = mode_statistics(krylov.state, mode)
            n_d, g2_d = mode_statistics(direct.state, mode)
            assert n_d == pytest.approx(n_k, rel=SOLVER_RTOL)
            assert abs(g2_d - g2_k) <= SOLVER_RTOL * abs(g2_k) + MOMENT_FLOOR / n_k**2

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("convention", ["commutator", "sandwich"])
    def test_random_models_match_reference_and_dense_solve(self, seed, convention):
        # dephasing diagonals and overlapping jumps: the ordering may differ
        # from the reference only where the reference's numeric A + A^T
        # cancelled an entry of the pattern
        L = random_model(seed, RANDOM_DIMS[seed % 4], convention)
        inv = liouvillian._trace_row_band(*liouvillian._generator(L))[3]
        if not np.array_equal(inv, reference_band(L)[3]):
            A = kron_trace_row_system(*liouvillian._generator(L)).tocsr()
            unit = A.copy()
            unit.data[:] = 1.0
            assert (A + A.T).nnz < (unit + unit.T).nnz
        # steady_state hermitizes and normalizes its candidate; these
        # generators need not preserve hermiticity
        dense = dense_steady_state(L).matrix
        dense = 0.5 * (dense + dense.conj().T)
        dense /= np.trace(dense).real
        res = steady_state(L, method="direct")
        assert np.max(np.abs(res.state.matrix - dense)) <= 1e-9 * np.max(np.abs(dense))

    @pytest.mark.parametrize(
        "params",
        [
            fig3_params(),
            # fig7's smallest kappa on its g_kappa = 0 panel
            fig3_params(kappa_c=1.0e-3, kappa_e=1.0e-3, g_kappa=0.0, delta_c=-2.0e5, delta_e=-2.0e5),
        ],
        ids=["fig3", "fig7_kappa_1e-3"],
    )
    # "band" is the band LU on its own: the drive-order series serves fig3
    # through steady_state, while the kappa = 1e-3 Hz row is left to the LU
    @pytest.mark.parametrize("method", ["direct", "krylov", "band"])
    def test_matches_dense_solve(self, params, method):
        L = effective_liouvillian(params)
        dense = dense_steady_state(L)
        if method == "band":
            res = band(L)
        else:
            res = steady_state(L, method=method)
        assert res.method == ("direct" if method == "band" else method)
        for mode in (0, 1):
            n_ref, g2_ref = mode_statistics(dense, mode)
            n_s, g2_s = mode_statistics(res.state, mode)
            assert n_s == pytest.approx(n_ref, rel=SOLVER_RTOL)
            assert abs(g2_s - g2_ref) <= SOLVER_RTOL * abs(g2_ref) + MOMENT_FLOOR / n_ref**2


def graded_model(seed, dims):
    """A random photon-graded Lindbladian: only the drive changes N = sum of occupations, by one.

    H is Hermitian: a random complex matrix on each N-sector plus a weak
    random coupling of neighbouring sectors (the drive). Each of the two
    jumps is a random complex matrix from sector N + 1 to N.
    """
    rng = np.random.default_rng(seed)
    s = make_space(dims)
    N = sum(occupations(s, m) for m in range(s.n_modes))
    step = N[:, None] - N[None, :]

    def rand():
        return rng.normal(size=(s.dim, s.dim)) + 1j * rng.normal(size=(s.dim, s.dim))

    h = 1e3 * rand() * (step == 0) + 2.0 * rand() * (step == 1)
    jumps = [OperatorMatrix(s, 30.0 * rand() * (step == -1)) for _ in range(2)]
    return OperatorMatrix(s, h + h.conj().T), jumps


def dephased(L, gamma):
    """L with a sqrt(gamma) a^dag a jump on mode 0 added."""
    return build_liouvillian(L.hamiltonian, [*L.collapse_ops, math.sqrt(gamma) * number(L.space, 0)], L.convention)


def series(L):
    return liouvillian._steady_series(L, *liouvillian._generator(L))


def band(L):
    """The band LU on its own, under the one-thread budget steady_state enters."""
    with blas.single_thread():
        return liouvillian._steady_band(L, *liouvillian._generator(L))


def assert_same_result(got, want):
    assert np.array_equal(bits(got.state.matrix), bits(want.state.matrix))
    assert got.residual == want.residual and got.method == want.method == "direct"


# the preset point, J = -Delta = 2e5, g_omega = 200, g_kappa = 500
PRESET = dict(delta_c=-2.0e5, delta_e=-2.0e5)


class TestDriveOrderSeries:
    """The drive-order series where it is certified; else the band LU, or Krylov above DIRECT_LIMIT."""

    # refined trace-row values: dense LU in double with long-double residual
    # corrections on the dense (6,6) and (8,8) systems; (12,12), the presets'
    # gate rung above DIRECT_LIMIT, is held to the (6,6) value. The band LU
    # gives 1.0000094090205205 and 0.9999980657704106, and Krylov gave
    # 1.0000096501443096 at (12,12) before the series was tried there.
    @pytest.mark.parametrize(
        "levels, g2_c",
        [((6, 6), 1.0000102535448436), ((8, 8), 1.0000102535448445), ((12, 12), 1.0000102535448436)],
        ids=["6-6", "8-8", "12-12"],
    )
    def test_preset_point_matches_refined_value(self, levels, g2_c):
        res = steady_state(effective_liouvillian(fig3_params(**PRESET), levels))
        assert res.method == "direct"
        assert abs(mode_statistics(res.state, 0)[1] - g2_c) <= 1e-12 * g2_c

    def test_full_model_is_left_to_krylov(self):
        # the displacement-modified cavity jump does not lower N by exactly one
        L = _tier_liouvillian(fig3_params(**PRESET), (4, 4, 8), full=True)
        assert L.dim > liouvillian.DIRECT_LIMIT
        P, Q, _, scale = liouvillian._generator(L)
        assert liouvillian._series_sums(L, P, Q, scale) is None
        assert steady_state(L).method == "krylov"

    def test_fig3_edge_matches_refined_value(self):
        # Delta = -5e5, where the band LU gives 1.0000001586 at (6,6) and
        # 1.00014055 at (8,8)
        res = steady_state(effective_liouvillian(fig3_params(delta_c=-5.0e5, delta_e=-5.0e5)), method="direct")
        assert abs(mode_statistics(res.state, 0)[1] - 1.0000001766) <= 1e-9

    @pytest.mark.parametrize(
        "params",
        [fig3_params(**PRESET), fig3_params(g_omega=650.0, g_kappa=825.0, **PRESET)],
        ids=["preset", "fig6-650-825"],
    )
    def test_certified_rows_take_the_series(self, params):
        L = effective_liouvillian(params)
        got = series(L)
        assert got is not None and got.residual <= liouvillian.SERIES_TOL
        assert_same_result(steady_state(L, method="direct"), got)

    @pytest.mark.parametrize(
        "build",
        [
            # the benchmark's detuning cuts: a 5e4 Hz drive, Delta near +J
            lambda: effective_liouvillian(
                fig3_params(g_kappa=0.0, eps_c=5.0e4, eps_e=5.0e4, delta_c=1.9e5, delta_e=1.9e5)
            ),
            # defect 2's point: the K = 8 and K = 10 sums give g2_c =
            # 1.23751491694 and 1.23751491693 (refined: 1.2375149169), 8.6e-12
            # apart, so the row is not certified
            lambda: effective_liouvillian(
                fig3_params(g_omega=800.0, g_kappa=800.0, J=3.0e5, delta_c=-3.0e5, delta_e=-3.0e5,
                            kappa_c=1.0, kappa_e=1.0)
            ),
            # a sqrt(gamma) a^dag a dephasing jump keeps N: not photon-graded
            lambda: dephased(effective_liouvillian(fig3_params(**PRESET)), gamma=10.0),
        ],
        ids=["detuning-cut-5e4", "kappa-1", "dephasing"],
    )
    def test_uncertified_rows_take_the_band_lu_bit_for_bit(self, build):
        L = build()
        assert series(L) is None
        assert_same_result(steady_state(L, method="direct"), band(L))

    def test_diverging_series_bails_out_before_its_last_order(self, monkeypatch):
        # at the detuning cut's point the partial-sum residual grows from
        # 4.8 at K = 2 to 241 at K = 4; the series stops there, so only the
        # band LU's state reaches _finish
        L = effective_liouvillian(fig3_params(g_kappa=0.0, eps_c=5.0e4, eps_e=5.0e4, delta_c=1.9e5, delta_e=1.9e5))
        finished = []
        finish = liouvillian._finish
        monkeypatch.setattr(liouvillian, "_finish", lambda *args: finished.append(args) or finish(*args))
        steady_state(L, method="direct")
        assert len(finished) == 1

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("convention", ["commutator", "sandwich"])
    def test_random_graded_models_solve_the_trace_row_system(self, seed, convention):
        # the commutator branch diagonalizes Q0 on its own; with Hermitian H
        # both conventions give the same state
        H, jumps = graded_model(seed, [(6,), (3, 4), (4, 4), (2, 2, 3)][seed])
        L = build_liouvillian(H, jumps, convention)
        got = series(L)
        assert got is not None
        dense = dense_steady_state(L).matrix
        assert np.max(np.abs(got.state.matrix - dense)) <= 1e-12 * np.max(np.abs(dense))
        for mode in range(L.space.n_modes):
            n_ref, g2_ref = mode_statistics(DensityMatrix(L.space, dense), mode)
            n_s, g2_s = mode_statistics(got.state, mode)
            assert n_s == pytest.approx(n_ref, rel=1e-10)
            assert abs(g2_s - g2_ref) <= SOLVER_RTOL * abs(g2_ref) + MOMENT_FLOOR / n_ref**2

    def test_non_hermitian_commutator_model_left_to_the_band_lu(self):
        # the trace-row solution is not Hermitian here, so the hermitized
        # series state misses the residual gate (7.8e-12)
        L = effective_liouvillian(fig3_params(**PRESET), convention="commutator")
        assert series(L) is None
        assert_same_result(steady_state(L, method="direct"), band(L))


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
        with pytest.raises(SteadyStateError, match="degenerate"):
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
        res = steady_state(L)  # the series refuses the row; krylov at dim 20736
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

    @pytest.mark.parametrize("method", ["direct", "krylov"])
    def test_driven_without_dissipation_raises(self, method):
        # the trace-row LU returned a "state" with min eigenvalue -1.49 and
        # residual 6.6e-18 here, and mode_statistics then read n = 0
        L = effective_liouvillian(fig3_params(kappa_c=0.0, kappa_e=0.0))
        assert not L.collapse_ops
        with pytest.raises(SteadyStateError, match="no dissipation: the steady manifold is degenerate"):
            steady_state(L, method=method)

    def test_removed_auto_method_names_the_valid_ones(self):
        L = effective_liouvillian(fig3_params(), (3, 3))
        with pytest.raises(ValueError, match=r"^unknown method 'auto'; valid: direct, krylov$"):
            steady_state(L, "auto")

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


class TestModeStatistics:
    def test_negative_occupation_returned_as_computed(self):
        # a non-physical state: diagonal (1.15, -0.1, -0.05) on one mode
        # gives <n> = -0.2 and <a^dag a^dag a a> = -0.1
        rho = DensityMatrix(make_space([3]), np.diag([1.15, -0.1, -0.05]))
        n, g2 = mode_statistics(rho, 0)
        assert n == pytest.approx(-0.2, rel=1e-15)
        assert g2 == pytest.approx(-0.1 / 0.04, rel=1e-14)

    def test_undriven_mode_has_infinite_g2(self):
        n, g2 = mode_statistics(vacuum_state(make_space([3, 3])), 1)
        assert n == 0.0 and g2 == float("inf")


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
