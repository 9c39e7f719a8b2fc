"""Truncated multimode Fock spaces and the complex operator algebra on them.

Operators are stored dense (numpy) for small spaces and sparse (CSR) for
large ones; both representations go through the same code paths and agree
entrywise. All values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# total dimension above which operators default to sparse storage
DENSE_LIMIT = 256


class SpaceMismatchError(ValueError):
    """Two operands live on different Hilbert spaces."""


@dataclass(frozen=True)
class HilbertSpace:
    """Ordered tensor product of truncated bosonic modes.

    ``mode_dims[k]`` is the number of retained Fock levels of mode ``k``
    (levels 0..d-1). The mode ordering is fixed: operators built on the
    same space always use the same Kronecker ordering.
    """

    mode_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.mode_dims)
        if len(dims) == 0:
            raise ValueError("a Hilbert space needs at least one mode")
        for d in dims:
            if d < 2:
                raise ValueError(
                    f"mode dimension {d} is a degenerate truncation; every mode "
                    "needs at least 2 levels (vacuum plus one excitation)"
                )
        object.__setattr__(self, "mode_dims", dims)

    @property
    def n_modes(self) -> int:
        return len(self.mode_dims)

    @property
    def dim(self) -> int:
        return math.prod(self.mode_dims)

    def check_mode(self, mode: int) -> int:
        if not 0 <= mode < self.n_modes:
            raise IndexError(f"mode index {mode} out of range for {self.n_modes} modes")
        return mode

    def basis_index(self, occupations: tuple[int, ...]) -> int:
        """Flat index of the product basis ket |n_0, n_1, ...>."""
        if len(occupations) != self.n_modes:
            raise ValueError("need one occupation number per mode")
        idx = 0
        for n, d in zip(occupations, self.mode_dims):
            if not 0 <= n < d:
                raise ValueError(f"occupation {n} exceeds truncation {d}")
            idx = idx * d + n
        return idx


def make_space(mode_dims) -> HilbertSpace:
    """Build a truncated Fock space from per-mode level counts."""
    return HilbertSpace(tuple(mode_dims))


def _same_space(a: "OperatorMatrix", b) -> None:
    if a.space != b.space:
        raise SpaceMismatchError(
            f"operands live on different spaces: {a.space.mode_dims} vs {b.space.mode_dims}"
        )


class OperatorMatrix:
    """A complex matrix acting on a :class:`HilbertSpace`.

    Thin wrapper around either an ndarray or a CSR matrix; arithmetic keeps
    the representation (mixed operands are promoted to sparse).
    """

    __slots__ = ("space", "data")

    def __init__(self, space: HilbertSpace, data):
        if data.shape != (space.dim, space.dim):
            raise ValueError(f"matrix shape {data.shape} does not match space dim {space.dim}")
        self.space = space
        if sp.issparse(data):
            self.data = data.tocsr().astype(complex)
        else:
            self.data = np.asarray(data, dtype=complex)

    # -- representation ----------------------------------------------------

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.data)

    def to_dense(self) -> "OperatorMatrix":
        if self.is_sparse:
            return OperatorMatrix(self.space, self.data.toarray())
        return self

    def to_sparse(self) -> "OperatorMatrix":
        if self.is_sparse:
            return self
        return OperatorMatrix(self.space, sp.csr_matrix(self.data))

    def dense_array(self) -> np.ndarray:
        return self.data.toarray() if self.is_sparse else self.data

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _same_space(self, other)
        a, b = _align(self, other)
        return OperatorMatrix(self.space, a + b)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _same_space(self, other)
        a, b = _align(self, other)
        return OperatorMatrix(self.space, a - b)

    def __mul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.data * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "OperatorMatrix":
        return self * (-1.0)

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        _same_space(self, other)
        a, b = _align(self, other)
        return OperatorMatrix(self.space, a @ b)

    def dag(self) -> "OperatorMatrix":
        return OperatorMatrix(self.space, self.data.conj().T)

    def hermitian_part(self) -> "OperatorMatrix":
        return 0.5 * (self + self.dag())

    def anti_hermitian_part(self) -> "OperatorMatrix":
        return 0.5 * (self - self.dag())

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return max_abs(self - self.dag()) < tol

    def trace(self) -> complex:
        if self.is_sparse:
            return complex(self.data.diagonal().sum())
        return complex(np.trace(self.data))


def _align(a: OperatorMatrix, b: OperatorMatrix):
    """Promote mixed dense/sparse operand pairs to a common representation."""
    if a.is_sparse == b.is_sparse:
        return a.data, b.data
    return a.to_sparse().data, b.to_sparse().data


def max_abs(op: OperatorMatrix) -> float:
    d = op.data
    if sp.issparse(d):
        return 0.0 if d.nnz == 0 else float(np.max(np.abs(d.data)))
    return float(np.max(np.abs(d))) if d.size else 0.0


def max_abs_diff(a: OperatorMatrix, b: OperatorMatrix) -> float:
    return max_abs(a - b)


# -- operator builders -----------------------------------------------------


def _want_sparse(space: HilbertSpace, sparse: bool | None) -> bool:
    if sparse is None:
        return space.dim >= DENSE_LIMIT
    return sparse


def occupations(space: HilbertSpace, mode: int) -> np.ndarray:
    """Occupation number of ``mode`` in each product basis state, in basis order."""
    d = space.mode_dims[space.check_mode(mode)]
    stride = math.prod(space.mode_dims[mode + 1:])
    return np.arange(space.dim) // stride % d


def _build(space: HilbertSpace, rows, cols, values, sparse: bool | None) -> OperatorMatrix:
    """Operator with ``values`` at (rows, cols), one entry per row at most; rows increasing."""
    n = space.dim
    if _want_sparse(space, sparse):
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        return OperatorMatrix(space, sp.csr_matrix((values.astype(complex), cols, indptr), shape=(n, n)))
    data = np.zeros((n, n), dtype=complex)
    data[rows, cols] = values
    return OperatorMatrix(space, data)


def annihilation(space: HilbertSpace, mode: int, sparse: bool | None = None) -> OperatorMatrix:
    """Ladder operator a with <n-1|a|n> = sqrt(n), embedded at ``mode``.

    Built in one step from each basis state's occupation: row r holds
    sqrt(n_r + 1) at column r + stride, where stride is the basis-index step
    of one quantum in ``mode``.
    """
    occ = occupations(space, mode)
    stride = math.prod(space.mode_dims[mode + 1:])
    rows = np.flatnonzero(occ < space.mode_dims[mode] - 1)
    return _build(space, rows, rows + stride, np.sqrt(occ[rows] + 1.0), sparse)


def creation(space: HilbertSpace, mode: int, sparse: bool | None = None) -> OperatorMatrix:
    return annihilation(space, mode, sparse).dag()


def number(space: HilbertSpace, mode: int, sparse: bool | None = None) -> OperatorMatrix:
    occ = occupations(space, mode)
    rows = np.flatnonzero(occ)
    return _build(space, rows, rows, occ[rows].astype(float), sparse)


def identity(space: HilbertSpace, sparse: bool | None = None) -> OperatorMatrix:
    eye = sp.identity(space.dim, format="csr", dtype=complex)
    result = OperatorMatrix(space, eye)
    return result if _want_sparse(space, sparse) else result.to_dense()


def displacement_q(space: HilbertSpace, mode: int, sparse: bool | None = None) -> OperatorMatrix:
    """Dimensionless displacement Q = b + b^dag."""
    b = annihilation(space, mode, sparse)
    return b + b.dag()


def momentum_p(space: HilbertSpace, mode: int, sparse: bool | None = None) -> OperatorMatrix:
    """Dimensionless momentum P = -i (b - b^dag); [Q, P] = 2i before truncation."""
    b = annihilation(space, mode, sparse)
    return -1j * (b - b.dag())


def combine(a: OperatorMatrix, b: OperatorMatrix | complex | None, op_kind: str) -> OperatorMatrix:
    """Pointwise operator algebra entry point: add, multiply, scale, adjoint, commutator."""
    if op_kind == "add":
        return a + b
    if op_kind == "multiply":
        return a @ b
    if op_kind == "scale":
        return a * b
    if op_kind == "adjoint":
        return a.dag()
    if op_kind == "commutator":
        return a @ b - b @ a
    raise ValueError(f"unknown op_kind {op_kind!r}")


# -- states ----------------------------------------------------------------


@dataclass(frozen=True)
class StateVector:
    """Pure state on a :class:`HilbertSpace`."""

    space: HilbertSpace
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.dim,):
            raise ValueError("amplitude vector length must equal the space dimension")
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.space, self.amplitudes / n)


def basis_state(space: HilbertSpace, occupations) -> StateVector:
    amps = np.zeros(space.dim, dtype=complex)
    amps[space.basis_index(tuple(occupations))] = 1.0
    return StateVector(space, amps)


def coherent_state(space: HilbertSpace, mode: int, alpha: complex) -> StateVector:
    """Truncated coherent state |alpha> on one mode, vacuum elsewhere."""
    space.check_mode(mode)
    d = space.mode_dims[mode]
    single = np.array([alpha**n / math.sqrt(math.factorial(n)) for n in range(d)], dtype=complex)
    single *= math.exp(-abs(alpha) ** 2 / 2)
    amps = np.array([1.0], dtype=complex)
    for k, dk in enumerate(space.mode_dims):
        factor = single if k == mode else np.eye(1, dk, 0, dtype=complex).ravel()
        amps = np.kron(amps, factor)
    return StateVector(space, amps)


def expectation(op: OperatorMatrix, state) -> complex:
    """<A> in a StateVector (as <psi|A|psi>) or a density matrix (as Tr(A rho)).

    Accepts anything exposing ``space`` and a dense ``matrix`` attribute as a
    density matrix, so ``liouvillian.DensityMatrix`` works without an import
    cycle.
    """
    if isinstance(state, StateVector):
        if op.space != state.space:
            raise SpaceMismatchError("operator and state live on different spaces")
        psi = state.amplitudes
        return complex(np.vdot(psi, op.data @ psi))
    if hasattr(state, "matrix") and hasattr(state, "space"):
        if op.space != state.space:
            raise SpaceMismatchError("operator and state live on different spaces")
        prod = op.data @ state.matrix
        if sp.issparse(prod):
            return complex(prod.diagonal().sum())
        return complex(np.trace(prod))
    raise TypeError(f"cannot take expectation in {type(state).__name__}")
