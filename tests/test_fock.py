"""Fock-space construction and operator algebra."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from msiblockade.fock import (
    DENSE_LIMIT,
    HilbertSpace,
    OperatorMatrix,
    SpaceMismatchError,
    StateVector,
    annihilation,
    basis_state,
    coherent_state,
    combine,
    creation,
    displacement_q,
    expectation,
    identity,
    make_space,
    max_abs,
    max_abs_diff,
    momentum_p,
    number,
    occupations,
)
from msiblockade.liouvillian import build_liouvillian, mode_statistics, steady_state
from msiblockade.model import (
    SystemParams,
    build_collapse_ops,
    build_effective_hamiltonian,
    build_full_hamiltonian,
)


class TestHilbertSpace:
    def test_total_dimension_two_modes(self):
        assert make_space([6, 6]).dim == 36

    def test_total_dimension_three_modes(self):
        assert make_space([4, 4, 8]).dim == 128

    def test_degenerate_truncation_rejected(self):
        with pytest.raises(ValueError, match="at least 2 levels"):
            make_space([1])
        with pytest.raises(ValueError, match="at least 2 levels"):
            make_space([4, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_space([])

    def test_basis_index_ordering(self):
        s = make_space([3, 4])
        assert s.basis_index((0, 0)) == 0
        assert s.basis_index((0, 3)) == 3
        assert s.basis_index((1, 0)) == 4
        assert s.basis_index((2, 3)) == 11

    def test_basis_index_validates(self):
        s = make_space([3, 4])
        with pytest.raises(ValueError):
            s.basis_index((3, 0))
        with pytest.raises(ValueError):
            s.basis_index((0,))

    def test_immutability(self):
        s = make_space([3, 3])
        with pytest.raises(Exception):
            s.mode_dims = (2, 2)


class TestLadderOperators:
    def test_annihilation_matrix_element(self):
        # dim-3 mode: a|2> = sqrt(2)|1>
        s = make_space([3])
        a = annihilation(s, 0).dense_array()
        assert a[1, 2] == pytest.approx(math.sqrt(2))
        # a|0> = 0
        assert np.allclose(a[:, 0], 0.0)

    def test_embedded_annihilation_second_mode(self):
        # two-mode [3,3], mode 1: a_1|0,2> = sqrt(2)|0,1>
        s = make_space([3, 3])
        a1 = annihilation(s, 1).dense_array()
        col = s.basis_index((0, 2))
        row = s.basis_index((0, 1))
        expected = np.zeros(9)
        expected[row] = math.sqrt(2)
        assert np.allclose(a1[:, col], expected)
        # hand-built Kronecker product agrees entrywise
        single = np.diag(np.sqrt([1.0, 2.0]), 1)
        assert np.allclose(a1, np.kron(np.eye(3), single))

    def test_number_diagonal(self):
        s = make_space([4])
        assert np.allclose(number(s, 0).dense_array(), np.diag([0.0, 1.0, 2.0, 3.0]))

    def test_creation_is_adjoint(self):
        s = make_space([5])
        assert max_abs_diff(creation(s, 0), annihilation(s, 0).dag()) == 0.0

    def test_number_equals_adag_a(self):
        s = make_space([5, 3])
        for m in (0, 1):
            n_direct = number(s, m)
            n_built = creation(s, m) @ annihilation(s, m)
            assert max_abs_diff(n_direct, n_built) < 1e-14

    def test_q_hermitian_and_element(self):
        s = make_space([4])
        q = displacement_q(s, 0)
        assert q.is_hermitian()
        assert q.dense_array()[1, 0] == pytest.approx(1.0)

    def test_qp_commutator_truncation(self):
        # [Q, P] = 2i on levels 0..N-2; deviant corner from truncation
        s = make_space([5])
        q, p = displacement_q(s, 0), momentum_p(s, 0)
        comm = (q @ p - p @ q).dense_array()
        expected = 2j * np.eye(5)
        expected[4, 4] = -2j * 4  # truncated corner
        assert np.allclose(comm, expected)

    def test_bad_mode_index(self):
        s = make_space([3, 3])
        with pytest.raises(IndexError):
            annihilation(s, 2)


class TestCombine:
    def test_commutator_a_adag(self):
        # on dim-4 mode: [a, a^dag] = diag(1, 1, 1, -3)
        s = make_space([4])
        a = annihilation(s, 0)
        comm = combine(a, a.dag(), "commutator")
        assert np.allclose(comm.dense_array(), np.diag([1.0, 1.0, 1.0, -3.0]))

    def test_adjoint_of_scaled(self):
        s = make_space([3])
        a = annihilation(s, 0)
        c = 2.0 - 0.5j
        lhs = (c * a).dag()
        rhs = np.conj(c) * a.dag()
        assert max_abs_diff(lhs, rhs) < 1e-15

    def test_scale_by_zero(self):
        s = make_space([3])
        assert max_abs(combine(annihilation(s, 0), 0.0, "scale")) == 0.0

    def test_product_adjoint_reverses(self):
        rng = np.random.default_rng(7)
        s = make_space([4])
        A = OperatorMatrix(s, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        B = OperatorMatrix(s, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert max_abs_diff((A @ B).dag(), B.dag() @ A.dag()) < 1e-14

    def test_adjoint_involution(self):
        rng = np.random.default_rng(11)
        s = make_space([5])
        A = OperatorMatrix(s, rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        assert max_abs_diff(A.dag().dag(), A) == 0.0

    def test_space_mismatch_rejected(self):
        a = annihilation(make_space([3]), 0)
        b = annihilation(make_space([4]), 0)
        with pytest.raises(SpaceMismatchError):
            combine(a, b, "add")

    def test_unknown_kind(self):
        a = annihilation(make_space([3]), 0)
        with pytest.raises(ValueError, match="op_kind"):
            combine(a, a, "divide")


class TestEmbeddingProperties:
    def test_distinct_modes_commute(self):
        s = make_space([4, 4, 4])
        a0, a2 = annihilation(s, 0), annihilation(s, 2)
        assert max_abs(a0 @ a2 - a2 @ a0) < 1e-14
        assert max_abs(a0 @ a2.dag() - a2.dag() @ a0) < 1e-14

    def test_embedding_commutes_with_algebra(self):
        # embed(A . B) = embed(A) . embed(B) for single-mode A, B
        s = make_space([4, 3])
        a = annihilation(s, 0)
        n_embedded_product = a.dag() @ a
        n_direct = number(s, 0)
        assert max_abs_diff(n_embedded_product, n_direct) < 1e-14

    def test_sparse_dense_parity(self):
        s = make_space([4, 4])
        for build in (annihilation, creation, number, displacement_q, momentum_p):
            dense = build(s, 1, sparse=False)
            sparse = build(s, 1, sparse=True)
            assert not dense.is_sparse and sparse.is_sparse
            assert np.max(np.abs(dense.dense_array() - sparse.dense_array())) <= 1e-12

    def test_sparse_dense_parity_arithmetic(self):
        s = make_space([4, 4])
        ad = annihilation(s, 0, sparse=False)
        asp = annihilation(s, 0, sparse=True)
        lhs = (ad.dag() @ ad + 2.0 * ad).dense_array()
        rhs = (asp.dag() @ asp + 2.0 * asp).dense_array()
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_default_representation_threshold(self):
        small = make_space([6, 6])
        assert not annihilation(small, 0).is_sparse
        big = make_space([16, 16])
        assert big.dim >= DENSE_LIMIT and annihilation(big, 0).is_sparse


class TestStatesAndExpectation:
    def test_number_in_fock_state(self):
        s = make_space([4])
        psi = basis_state(s, (2,))
        assert expectation(number(s, 0), psi) == pytest.approx(2.0)

    def test_annihilation_in_vacuum(self):
        s = make_space([4])
        psi = basis_state(s, (0,))
        assert expectation(annihilation(s, 0), psi) == pytest.approx(0.0)

    def test_coherent_state_occupation(self):
        # <n> for alpha = 0.3, truncation 10 -> 0.09 within 1e-6
        s = make_space([10])
        psi = coherent_state(s, 0, 0.3)
        assert expectation(number(s, 0), psi).real == pytest.approx(0.09, abs=1e-6)

    def test_coherent_state_multimode_vacuum_elsewhere(self):
        s = make_space([8, 4])
        psi = coherent_state(s, 0, 0.4)
        assert expectation(number(s, 1), psi).real == pytest.approx(0.0, abs=1e-12)

    def test_normalization(self):
        s = make_space([3])
        psi = StateVector(s, np.array([2.0, 0.0, 0.0]))
        assert psi.normalized().norm() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            StateVector(s, np.zeros(3)).normalized()

    def test_expectation_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            expectation(number(make_space([3]), 0), basis_state(make_space([4]), (0,)))


def kron_chain(space, mode, single, sparse):
    """Reference builder: Kronecker-embed a single-mode matrix, identities elsewhere."""
    op = None
    for k, d in enumerate(space.mode_dims):
        factor = single if k == mode else sp.identity(d, format="csr", dtype=complex)
        op = factor if op is None else sp.kron(op, factor, format="csr")
    result = OperatorMatrix(space, op)
    want_sparse = space.dim >= DENSE_LIMIT if sparse is None else sparse
    return result if want_sparse else result.to_dense()


def reference_ladder(space, mode, sparse):
    d = space.mode_dims[mode]
    return kron_chain(space, mode, sp.diags(np.sqrt(np.arange(1, d)), 1, format="csr", dtype=complex), sparse)


def reference_number(space, mode, sparse):
    d = space.mode_dims[mode]
    return kron_chain(space, mode, sp.diags(np.arange(d, dtype=float), 0, format="csr", dtype=complex), sparse)


def storage_bytes(op):
    """Every array an operator stores, with its dtype, for a byte-for-byte comparison."""
    if op.is_sparse:
        d = op.data
        return [(a.dtype.str, a.shape, a.tobytes()) for a in (d.data, d.indices, d.indptr)]
    return [(op.data.dtype.str, op.data.shape, op.data.tobytes())]


DIRECT_BUILD_SPACES = [(5,), (2,), (3, 4), (6, 6), (12, 12), (16, 16), (2, 3, 4), (4, 4, 8), (3, 2, 5)]


class TestDirectBuilders:
    """Ladder and number operators are built from occupations, not Kronecker chains."""

    @pytest.mark.parametrize("dims", DIRECT_BUILD_SPACES)
    @pytest.mark.parametrize("sparse", [None, False, True])
    def test_byte_identical_to_kron_chain(self, dims, sparse):
        s = make_space(dims)
        for mode in range(s.n_modes):
            pairs = (
                (annihilation(s, mode, sparse), reference_ladder(s, mode, sparse)),
                (creation(s, mode, sparse), reference_ladder(s, mode, sparse).dag()),
                (number(s, mode, sparse), reference_number(s, mode, sparse)),
            )
            for built, ref in pairs:
                assert built.is_sparse == ref.is_sparse
                assert storage_bytes(built) == storage_bytes(ref)

    def test_occupations_follow_basis_index(self):
        s = make_space([3, 2, 4])
        for idx, occ in enumerate(np.ndindex(*s.mode_dims)):
            assert s.basis_index(occ) == idx
            assert [int(occupations(s, m)[idx]) for m in range(3)] == list(occ)


def trace_form_statistics(rho, mode):
    """mode_statistics as Tr(n rho) and Tr(a^dag a^dag a a rho) with the assembled operators."""
    a = annihilation(rho.space, mode)
    n = float(np.real(np.trace(number(rho.space, mode).dense_array() @ rho.matrix)))
    quad = (a.dag() @ a.dag() @ a @ a).dense_array()
    g2_num = float(np.real(np.trace(quad @ rho.matrix)))
    if n <= 0.0:
        return max(n, 0.0), float("inf")
    return n, g2_num / n**2


class TestModeStatisticsDiagonal:
    @pytest.mark.parametrize(
        "dims, delta",
        [((6, 6), -2.0e5), ((6, 6), 1.0e5), ((6, 6), 2.0e5), ((4, 4, 8), -2.0e5), ((4, 4, 8), 0.0)],
    )
    def test_bit_identical_to_trace_form(self, dims, delta):
        p = SystemParams(
            g_omega=200.0, g_kappa=500.0, J=2.0e5, delta_c=delta, delta_e=delta,
            eps_c=5.0e3, eps_e=5.0e3, gamma=100.0, n_th=0.3,
        )
        s = make_space(dims)
        if len(dims) == 3:
            L = build_liouvillian(build_full_hamiltonian(p, s), build_collapse_ops(p, s, "displacement_modified"))
        else:
            L = build_liouvillian(build_effective_hamiltonian(p, s), build_collapse_ops(p, s, "standard"))
        # the sparse-LU solve is left out at (4,4,8), where it takes seconds
        for method in ("direct", "krylov") if len(dims) == 2 else ("krylov",):
            rho = steady_state(L, method=method).state
            for mode in range(s.n_modes):
                assert mode_statistics(rho, mode) == trace_form_statistics(rho, mode)
