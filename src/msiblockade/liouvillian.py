"""Vectorized master equation: the Lindblad generator, steady states, evolution.

Column-stacking convention throughout: vec(A rho B) = (B^T kron A) vec(rho).
A :class:`Superoperator` holds the Hamiltonian and the collapse operators.
Everything works from the split L rho = P rho + rho Q + sum_o o rho o^H,
with P = -i H - D/2, Q = i H_right - D/2 (so Q = P^H for ``sandwich``) and
D = sum_o o^H o (:func:`_generator`). In column stacking that is L =
kron(I, P) + kron(Q^T, I) + sum_o kron(conj o, o), and :func:`_entries`
is the one place its entries are summed: at each position, P + Q^T first,
then each jump in turn. Both the band LU below and the CSR ``matrix``
(read by :func:`evolve` and ``apply`` only, built on first read and then
cached) take their entries from it; no steady-state solver reads
``matrix``.

:func:`steady_state` has one route, ``direct`` (the default), tried in
this order:

1. The trace-row system (L with its vacuum row replaced by tr(rho) = 1)
   solved order by order in the drive (:func:`_series_sums`), at every
   size, where the basis is graded by the photon number N = n_c + n_e
   (the drive changes N by one, the cavity jumps lower it by one, the
   mechanical jumps and the rest of L keep it). Each order is a
   back-substitution of small Sylvester equations over the blocks of
   N-sectors, so small moments such as <a^dag a^dag a a> keep their own
   scale. On the effective model a whole anti-diagonal of blocks is
   solved at once; on the full model, whose sectors carry the mechanics,
   block by block, with a fixed point on the mechanical jumps and one
   small LU for the photon-vacuum block. A row takes the series only
   when it is certified (:func:`_steady_series`: the partial sums at
   orders K - 2 and K agree in every mode's n and g2, and the residual is
   small); K is SERIES_ORDER, and on the full model grows while the gap
   between the sums shrinks fast enough, and the series stops early when
   its residual is not converging.
2. At or below ``DIRECT_LIMIT``, the same system by RCM-banded LU (LAPACK
   ``gbsv``): :func:`_entries`' sums are scattered straight into band
   storage and factored with partial pivoting. The reverse Cuthill-McKee
   renumbering, the bandwidths and the scatter positions depend only on
   the sparsity pattern of the factors; they are taken on the pattern
   (not on values, whose sums can cancel) once per pattern and cached.
3. Above ``DIRECT_LIMIT``, a matrix-free Krylov method built from the
   same factors: with L0 X = P X + X Q and the jump part
   sum_k o_k X o_k^H, the steady state is the dominant eigenvector of
   M = -L0^{-1} Jump (eigenvalue 1). Each application of M applies the
   jumps as sparse (CSR) operators and inverts L0 as a Sylvester equation
   in the eigenbases of P and Q (four dense products), falling back to a
   Schur-factored ``trsyl`` solve when either eigenvector matrix's
   condition number exceeds ``EIGENBASIS_COND_LIMIT``. Two power steps
   x <- M x polish ARPACK's Ritz vector. ``krylov`` is this solve alone.

The whole solve, from :func:`_generator` to the residual, runs with the
bundled OpenBLAS libraries at one thread (``blas.single_thread``, entered
once in :func:`steady_state`), so its digits, the residual's included, do
not depend on the caller's thread count; the caller's counts are restored
when it returns or raises. Every route takes the residual from the
factors and its scale max|L| from the entry classes
(:func:`_entry_scale`), so none needs the matrix for it; max|L| is exact
on every model ``build_collapse_ops`` makes and an upper bound otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import get_lapack_funcs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from . import blas
from .fock import HilbertSpace, OperatorMatrix, occupations
from .model import _integrate

# superoperator dimension above which steady_state hands the rows the
# drive-order series refuses to the matrix-free Krylov solve instead of
# the band LU. The RCM-banded LU's band takes 16 (3 kl + 1) L.dim bytes
# and its bandwidth grows with the truncation: kl = 155, 360 and 695 on
# the effective model at (6,6), (8,8) and (10,10), bands of 10, 71 and
# 334 MB, and 2 GB on master_full at (4,4,8). A (6,6) band LU takes about
# 15.5 ms, 12.6 ms of it in gbsv (2-vCPU host, best of 40)
DIRECT_LIMIT = 10_000

# the drive-order series in front of the band LU and the Krylov solve
# (:func:`_series_sums`): the first order K at which it tests a row, the
# order it never goes past, and the tolerance its rows must meet: the
# K - 2 and K partial sums' n and g2, the residual, and the residual
# extrapolated to SERIES_ORDER after order 4. The cap is where a row
# stops being cheaper than Krylov: on master_full at (4,4,8) a row the
# series certifies by K = 14 costs 11-17 ms and one at K = 20-30 22-37
# ms, against about 66 ms for a Krylov solve (2-vCPU host, one thread).
# Of the 96 such rows of the benchmark's master_krylov seeds
# 1-8, 9, 47, 58 and 68 certify by K = 10, 14, 20 and 30
SERIES_ORDER = 10
SERIES_ORDER_CAP = 30
SERIES_TOL = 1e-12
# fixed-point sweeps per block on the jumps that keep the photon number
# (:func:`_block_series`); over those 96 rows a block takes 3.1 on
# average and 8 at most
SERIES_SWEEPS = 60
_EPS = float(np.finfo(float).eps)
_EPS2 = _EPS**2

CONVENTIONS = ("commutator", "sandwich")


class SteadyStateError(RuntimeError):
    """Steady-state solve failed or the steady manifold is degenerate."""


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state on a :class:`HilbertSpace` (dense storage)."""

    space: HilbertSpace
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError(f"matrix shape {m.shape} does not match space dim {self.space.dim}")
        object.__setattr__(self, "matrix", m)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.min(sla.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))))

    def normalized(self) -> "DensityMatrix":
        tr = self.trace()
        if tr == 0:
            raise ValueError("cannot normalize a traceless matrix")
        return DensityMatrix(self.space, self.matrix / tr)


def vacuum_state(space: HilbertSpace) -> DensityMatrix:
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[0, 0] = 1.0
    return DensityMatrix(space, m)


def pure_state(space: HilbertSpace, amplitudes) -> DensityMatrix:
    psi = np.asarray(amplitudes, dtype=complex)
    return DensityMatrix(space, np.outer(psi, psi.conj()))


# -- vectorization ----------------------------------------------------------


def vectorize(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """Column-stack a density matrix into a vector."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return m.reshape(-1, order="F").copy()


def devectorize(vec: np.ndarray, space: HilbertSpace) -> DensityMatrix:
    """Inverse of :func:`vectorize`."""
    v = np.asarray(vec, dtype=complex)
    if v.shape != (space.dim**2,):
        raise ValueError(f"vector length {v.shape} does not match space dim {space.dim}^2")
    return DensityMatrix(space, v.reshape(space.dim, space.dim, order="F"))


# -- superoperator ----------------------------------------------------------


@dataclass(frozen=True)
class Superoperator:
    """Lindblad generator on the vectorized space, held as its building blocks.

    L rho = -i(H rho - rho H_right) + sum_o (o rho o^dag - 1/2 {o^dag o, rho}),
    with H_right = H for the ``commutator`` convention and H^dag for
    ``sandwich``. Collapse operators carry their sqrt(rate) prefactor.

    ``matrix`` is the CSR superoperator of shape (dim^2, dim^2), built on
    first read from the entries the band LU sums (:func:`_entries`), with
    those that sum to exactly 0 dropped, and then cached. Only
    :func:`evolve` and :meth:`apply` read it; every steady-state solver
    (the series and the RCM-banded LU build their own trace-row system),
    every residual and :meth:`trace_preservation_defect` work from
    ``hamiltonian`` and ``collapse_ops``.
    """

    space: HilbertSpace
    convention: str
    hamiltonian: OperatorMatrix = field(repr=False)
    collapse_ops: tuple[OperatorMatrix, ...] = field(default=(), repr=False)

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}, got {self.convention!r}")
        object.__setattr__(self, "collapse_ops", tuple(self.collapse_ops))
        for op in (self.hamiltonian, *self.collapse_ops):
            if op.space != self.space:
                raise ValueError("Hamiltonian or collapse operator lives on a different space")

    @property
    def dim(self) -> int:
        return self.space.dim**2

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The superoperator, summed from the factors on first read."""
        _, keys, v = _entries(*_generator(self)[:3])
        stored = v != 0
        rows, cols = np.divmod(keys[stored], self.dim)
        indptr = np.searchsorted(rows, np.arange(self.dim + 1))
        return sp.csr_matrix((v[stored], cols, indptr), shape=(self.dim, self.dim))

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        return devectorize(self.matrix @ vectorize(rho), self.space)

    def trace_preservation_defect(self) -> float:
        """max |(vec I)^dag L| column-wise; zero iff trace is conserved.

        tr(L rho) = tr((P + Q + D) rho) = tr(i (H_right - H) rho), so this is
        max |H_right - H|: 0 for ``commutator``, the anti-Hermitian part of
        H for ``sandwich``.
        """
        H = self.hamiltonian.data
        R = H if self.convention == "commutator" else H.conj().T
        return float(np.max(np.abs(R - H)))


def build_liouvillian(
    H: OperatorMatrix,
    collapse_ops,
    convention: str = "sandwich",
) -> Superoperator:
    """The Lindblad superoperator for Hamiltonian ``H`` and jumps.

    Collapse operators carry their sqrt(rate) prefactor. Coherent part:
    ``commutator`` -> -i(H rho - rho H); ``sandwich`` -> -i(H rho - rho H^dag).
    The two coincide for Hermitian H; for the non-Hermitian effective model
    sandwich is the hermiticity-preserving default. Nothing is assembled
    here: see :class:`Superoperator` for when ``matrix`` is built.
    """
    return Superoperator(H.space, convention, H, collapse_ops)


def _entry_scale(P, Q, ops) -> float:
    """max |L| over the superoperator's entries, class by class, without assembling it.

    With the dense jumps ``ops``, L[(i,j),(k,l)] = P_ik d_jl + Q_lj d_ik +
    sum_o conj(o_jl) o_ik. The diagonal (i = k, j = l) is summed in the
    order of :func:`_entries`: P_ii + Q_jj, then each jump. Off it, with
    F = sum_o max|diag o| |o|, the class i != k, j = l is bounded by
    |P| + F, the class i = k, j != l by |Q^T| + F and the class i != k,
    j != l by sum_o max|o_off| |o_off|. When no jump has a diagonal entry
    and no two jumps share an off-diagonal position (every model
    ``build_collapse_ops`` makes), the result is ``abs(L.matrix).max()``
    bit for bit; otherwise it is an upper bound.
    """
    off = ~np.eye(P.shape[0], dtype=bool)
    v = np.diagonal(P)[:, None] + np.diagonal(Q)[None, :]
    F = G = 0.0
    for o in ops:
        d = np.diagonal(o)
        v = v + d.conj()[None, :] * d[:, None]
        a = np.abs(o) * off
        F, G = F + np.abs(d).max() * a, G + a.max() * a
    side = (np.maximum(np.abs(P), np.abs(Q.T)) + F) * off
    return float(max(np.abs(v).max(), side.max(), np.max(G)))


def _csr(d: np.ndarray) -> sp.csr_matrix:
    """``sp.csr_matrix(d)`` for a dense 2-D ``d``, without the detour through COO."""
    n, m = d.shape
    nz = np.flatnonzero(d)
    indptr = np.searchsorted(nz, np.arange(0, n * m + 1, m)).astype(np.int32)
    return sp.csr_matrix((d.ravel()[nz], (nz % m).astype(np.int32), indptr), shape=(n, m))


def _generator(L: Superoperator):
    """(P, Q, jumps, scale) with L rho = P rho + rho Q + sum_o o rho o^dag.

    P = -i H - D/2 and Q = i H_right - D/2 with D = sum_o o^dag o, dense;
    ``jumps`` are the collapse operators in CSR form; ``scale`` is max |L|
    (:func:`_entry_scale`: exact on every model ``build_collapse_ops`` makes,
    an upper bound otherwise), floored at 1e-300 for use as a divisor.
    """
    H = L.hamiltonian.data
    R = H if L.convention == "commutator" else H.conj().T
    ops = [o.data for o in L.collapse_ops]
    decay = sum((o.conj().T @ o for o in ops), np.zeros(H.shape, dtype=complex))
    P, Q = -1j * H - 0.5 * decay, 1j * R - 0.5 * decay
    return P, Q, [_csr(o) for o in ops], max(_entry_scale(P, Q, ops), 1e-300)


# -- steady state -----------------------------------------------------------


@dataclass(frozen=True)
class SteadyStateResult:
    state: DensityMatrix
    residual: float
    method: str
    notes: tuple[str, ...] = field(default_factory=tuple)


def _finish(space, rho_raw, P, Q, jumps, scale: float, method: str, notes=()) -> SteadyStateResult:
    """Hermitize and normalize a solver's candidate and take its residual from the factors."""
    rho = 0.5 * (rho_raw + rho_raw.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-300:
        raise SteadyStateError("solver returned a traceless candidate (degenerate steady manifold?)")
    rho = rho / tr
    Lrho = P @ rho + rho @ Q + sum((o.conj() @ (o @ rho).T).T for o in jumps)
    resid = float(np.linalg.norm(Lrho) / (scale * np.linalg.norm(rho)))
    return SteadyStateResult(DensityMatrix(space, rho), resid, method, tuple(notes))


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only: the caches below hand the same arrays to every caller."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=4)
def _pattern(n: int, p_nz: bytes, q_nz: bytes, jump_nz: tuple[tuple[bytes, bytes], ...]):
    """(keys, maps): every position r n^2 + c of L that one of its terms writes to.

    In column stacking kron(I, P) puts P_ik at (i + n j, k + n j) for every
    j, kron(Q^T, I) puts Q_lj at (i + n j, i + n l) for every i, and
    kron(conj o, o) puts conj(o_jl) o_ik at (i + n j, k + n l). The
    arguments are the bytes of P's and Q's flat (C order) nonzero indices
    and of each jump's int32 CSR (indptr, indices). ``keys`` holds the
    positions sorted, so row 0 comes first; ``maps[t]`` sends term t's
    entries, in the order :func:`_entries` builds their values, to
    their index in ``keys``.
    """
    span, ramp = n * n, np.arange(n, dtype=np.intp)
    i, k = np.divmod(np.frombuffer(p_nz, np.intp), n)
    block = n * ramp[:, None]
    terms = [(block + i) * span + block + k]
    l, j = np.divmod(np.frombuffer(q_nz, np.intp), n)
    terms.append((n * j[:, None] + ramp) * span + n * l[:, None] + ramp)
    for ptr, ind in jump_nz:
        r = np.repeat(ramp, np.diff(np.frombuffer(ptr, np.int32)))
        c = np.frombuffer(ind, np.int32).astype(np.intp)
        terms.append((n * r[:, None] + r) * span + n * c[:, None] + c)
    keys, inverse = np.unique(np.concatenate([t.ravel() for t in terms]), return_inverse=True)
    return _frozen(keys), [_frozen(m) for m in np.split(inverse, np.cumsum([t.size for t in terms])[:-1])]


def _entries(P, Q, jumps):
    """(pattern, keys, values): L = kron(I, P) + kron(Q^T, I) + sum_o kron(conj o, o), entry by entry.

    ``pattern`` is the :func:`_pattern` key of the factors and ``keys`` its
    sorted positions r n^2 + c; ``values[t]`` is the entry at ``keys[t]``,
    summed as P + Q^T first and then each jump in turn. Entries that sum to
    exactly 0 are kept.
    """
    n = P.shape[0]
    p_nz, q_nz = np.flatnonzero(P), np.flatnonzero(Q)
    jump_nz = tuple(
        (o.indptr.astype(np.int32, copy=False).tobytes(), o.indices.astype(np.int32, copy=False).tobytes())
        for o in jumps
    )
    pattern = (n, p_nz.tobytes(), q_nz.tobytes(), jump_nz)
    keys, maps = _pattern(*pattern)
    v = np.zeros(keys.size, dtype=complex)
    v[maps[0]] += np.tile(P.ravel()[p_nz], n)
    v[maps[1]] += np.repeat(Q.ravel()[q_nz], n)
    for m, o in zip(maps[2:], jumps):
        v[m] += np.outer(o.data.conj(), o.data).ravel()
    return pattern, keys, v


@dataclass(frozen=True)
class _BandLayout:
    """Where the trace-row system's entries go in LAPACK band storage.

    ``flat`` holds the positions, in the Fortran-order band of shape
    (2 kl + ku + 1, n^2), of the pattern's entries from ``start`` on (those
    of row 0 come before it). ``trace`` holds the trace row's positions;
    row and column r of the system become ``inv[r]``.
    """

    kl: int
    ku: int
    inv: np.ndarray
    start: int
    flat: np.ndarray
    trace: np.ndarray


@lru_cache(maxsize=4)
def _band_layout(pattern: tuple) -> _BandLayout:
    """The layout for :func:`_pattern` ``(*pattern)``.

    Reverse Cuthill-McKee runs on the pattern with unit values, so that no
    edge of A + A^T cancels.
    """
    n, size = pattern[0], pattern[0] ** 2
    keys, _ = _pattern(*pattern)
    start = int(np.searchsorted(keys, size))
    rows, cols = np.divmod(keys[start:], size)
    rows = np.concatenate([np.zeros(n, dtype=np.intp), rows])
    cols = np.concatenate([np.arange(n) * (n + 1), cols])
    graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(size, size))
    perm = reverse_cuthill_mckee(graph, symmetric_mode=False)
    inv = np.empty(size, dtype=np.intp)
    inv[perm] = np.arange(size)
    r, c = inv[rows], inv[cols]
    kl, ku = int(np.max(r - c)), int(np.max(c - r))
    at = kl + ku + r - c + c * (2 * kl + ku + 1)
    return _BandLayout(kl, ku, _frozen(inv), start, _frozen(at[n:]), _frozen(at[:n]))


def _trace_row_band(P, Q, jumps, scale: float):
    """(ab, kl, ku, inv): L / scale with row 0 replaced by tr(rho) = 1, in RCM-ordered band storage.

    L's entries are :func:`_entries`' sums, scaled as a sparse matrix
    divided by ``scale`` is; row 0 becomes ones at (0, k(n+1)). The
    ordering, the bandwidths and the scatter positions depend only on the
    pattern, so they are cached per pattern (:func:`_pattern`,
    :func:`_band_layout`). Entry (r, c) sits at ab[kl + ku + inv[r] -
    inv[c], inv[c]] of the Fortran-order array, whose top kl rows stay zero
    for the fill of ``gbsv``'s row interchanges.
    """
    n = P.shape[0]
    pattern, _, v = _entries(P, Q, jumps)
    layout = _band_layout(pattern)
    ab = np.zeros((2 * layout.kl + layout.ku + 1) * n * n, dtype=complex)
    ab[layout.flat] = v[layout.start:] * (1 / scale)
    ab[layout.trace] = 1.0
    return ab.reshape((-1, n * n), order="F"), layout.kl, layout.ku, layout.inv


@dataclass(frozen=True)
class _Grading:
    """A space's basis graded by the photon number N = n_c + n_e, for :func:`_series_sums`.

    The photons are modes 0 and 1 (mode 0 alone on a one-mode space); on
    the full model's space mode 2, the mechanics, is in every sector.
    ``far`` marks the entries (i, j) of an operator with |N_i - N_j| > 1,
    ``unlowered`` those with N_i != N_j - 1 and ``unkept`` those with
    N_i != N_j. ``order`` lists the states with N <= top by N (the vacuum,
    state 0, first), where top is SERIES_ORDER when the vacuum sector is
    one state (:func:`_square_series`) and SERIES_ORDER_CAP otherwise, and
    ``ends[m]`` counts those with N <= m, for m up to SERIES_ORDER_CAP. On
    that order, ``step`` holds |N_i - N_j|, ``reach`` marks the entries
    with N_i + N_j <= SERIES_ORDER but the vacuum one, and
    ``antidiagonal[m]`` marks, on the leading ``ends[m]`` square, those
    with N_i + N_j = m, for m up to SERIES_ORDER. ``sectors`` holds, per
    sector size s, the (rows, cols) indices of shape (count, s, s) that
    stack the diagonal blocks of that size, and ``bounds[p]`` the slice of
    sector N = p.
    """

    far: np.ndarray
    unlowered: np.ndarray
    unkept: np.ndarray
    order: np.ndarray
    ends: np.ndarray
    step: np.ndarray
    reach: np.ndarray
    antidiagonal: tuple[np.ndarray, ...]
    sectors: tuple[tuple[np.ndarray, np.ndarray], ...]
    bounds: tuple[slice, ...]


@lru_cache(maxsize=4)
def _grading(mode_dims: tuple[int, ...]) -> _Grading:
    space = HilbertSpace(mode_dims)
    N = sum(occupations(space, m) for m in range(min(2, space.n_modes))).astype(np.int16)
    top = SERIES_ORDER if np.count_nonzero(N == 0) == 1 else SERIES_ORDER_CAP
    order = np.flatnonzero(N <= top)
    order = order[np.argsort(N[order], kind="stable")]
    grade = N[order]
    ends = np.searchsorted(grade, np.arange(SERIES_ORDER_CAP + 1), side="right")
    total = grade[:, None] + grade[None, :]
    reach = total <= SERIES_ORDER
    reach[0, 0] = False
    starts, sizes = np.concatenate([[0], ends[:-1]]), np.diff(ends, prepend=0)
    sectors = []
    for size in np.unique(sizes[sizes > 0]):
        at = starts[sizes == size][:, None, None] + np.zeros((size, size), dtype=np.intp)
        ramp = np.arange(size)
        sectors.append((_frozen(at + ramp[:, None]), _frozen(at + ramp[None, :])))
    step = N[:, None] - N[None, :]
    return _Grading(
        _frozen(np.abs(step) > 1),
        _frozen(step != -1),
        _frozen(step != 0),
        _frozen(order),
        _frozen(ends),
        _frozen(np.abs(grade[:, None] - grade[None, :])),
        _frozen(reach),
        tuple(_frozen(total[:e, :e] == m) for m, e in enumerate(ends[: SERIES_ORDER + 1])),
        tuple(sectors),
        tuple(slice(s, s + z) for s, z in zip(starts[: grade[-1] + 1], sizes)),
    )


def _sector_eig(A: np.ndarray, sectors):
    """(w, V, V^-1) with A = V diag(w) V^-1, for A block diagonal over ``sectors`` (:class:`_Grading`)."""
    w, V, Vi = np.empty(A.shape[0], dtype=complex), np.zeros_like(A), np.zeros_like(A)
    for rows, cols in sectors:
        w[rows[:, :, 0]], V[rows, cols] = np.linalg.eig(A[rows, cols])
        Vi[rows, cols] = np.linalg.inv(V[rows, cols])
    return w, V, Vi


def _square_series(L: Superoperator, P, Q, scale: float, jumps):
    """The series where the vacuum sector is one state, as (orders, fock, diagonal, residual), or None.

    Every jump lowers N by one here. The operators live on the leading
    square of the states with N <= SERIES_ORDER, a whole anti-diagonal
    p + q of blocks is solved at once, masked on that square, and
    ``orders`` ends at SERIES_ORDER.
    """
    g = _grading(L.space.mode_dims)
    ends, n = g.ends, g.order.size
    block = np.ix_(g.order, g.order)
    P = P[block]
    sandwich = L.convention == "sandwich"
    try:
        w, V, Vi = _sector_eig(np.where(g.step == 0, P, 0), g.sectors)
        if sandwich:  # Q0 = P0^H = U diag(u) U^-1 with U = V^-H
            u, U, Ui = w.conj(), Vi.conj().T, V.conj().T
        else:
            Q = Q[block]
            u, U, Ui = _sector_eig(np.where(g.step == 0, Q, 0), g.sectors)
    except np.linalg.LinAlgError:  # a defective sector
        return None
    cond = max(np.abs(A).sum(axis=0).max() * np.abs(B).sum(axis=0).max() for A, B in ((V, Vi), (U, Ui)))
    if cond > EIGENBASIS_COND_LIMIT:
        return None
    # -1 / (w_i + u_j) on the blocks the series reaches, but not the vacuum
    # entry, whose equation is the trace's
    denominator = np.where(g.reach, w[:, None] + u[None, :], 1.0)
    if np.any(denominator == 0):
        return None
    S = np.where(g.reach, -1.0 / denominator, 0.0)
    S = [S[:e, :e] * mask for e, mask in zip(ends, g.antidiagonal)]
    # the drive and the jumps in the eigenbases: X~ = V^-1 X U
    P1 = Vi @ np.where(g.step == 1, P, 0) @ V
    left = np.stack([Vi @ o[block] @ V for o in jumps])
    if sandwich:
        Q1, right = P1.conj().T, left.conj().transpose(0, 2, 1)
    else:
        Q1 = Ui @ np.where(g.step == 1, Q, 0) @ U
        right = np.stack([Ui @ o[block].conj().T @ U for o in jumps])
    trace = (Ui @ V).T  # tr X = sum(X~ * trace)

    def drive(rho, k):
        """L1 rho on the leading ends[k] square, rho an order k - 1 term."""
        a, b = ends[k - 1], ends[k]
        source = np.zeros((b, b), dtype=complex)
        source[:, :a] = P1[:b, :a] @ rho[:a, :a]
        source[:a, :] += rho[:a, :a] @ Q1[:a, :b]
        return source

    def orders():
        rho = total = np.zeros((n, n), dtype=complex)
        rho[0, 0] = 1.0
        for k in range(1, SERIES_ORDER + 1):
            source = drive(rho, k)
            rho = np.zeros((n, n), dtype=complex)
            for m in range(k, 0, -2):
                e = ends[m]
                X = source[:e, :e] * S[m]
                rho[:e, :e] += X
                if m > 2:  # the jumps feed anti-diagonal m - 2 (m = 2 feeds only the vacuum entry)
                    f = ends[m - 2]
                    source[:f, :f] += np.sum(left[:, :f, :e] @ X @ right[:, :e, :f], axis=0)
            if k % 2 == 0:
                rho[0, 0] = -np.sum(rho * trace)
            total = total + rho
            yield rho, total

    def fock(t):
        full = np.zeros((L.space.dim, L.space.dim), dtype=complex)
        full[block] = V @ t @ Ui
        return full

    def diagonal(t):
        return fock(t).diagonal()

    def residual(rho, k):
        b = ends[k + 1]
        return np.linalg.norm(V[:b, :b] @ drive(rho, k + 1) @ Ui[:b, :b]) / scale

    return orders(), fock, diagonal, residual


def _jump_sum(lefts, X, rights):
    """sum_o a_o X b_o over the pairs of ``lefts`` and ``rights`` (0 when there are none)."""
    out = 0.0
    for a, b in zip(lefts, rights):
        out = out + a @ X @ b
    return out


def _block_series(L: Superoperator, P, Q, scale: float, lowering, keeping):
    """The series where the vacuum sector holds the mechanics, as (orders, fock, diagonal, residual), or None.

    Block (p, q) of order k solves P0_p X + X Q0_q + sum_keep o X o^H = -S
    with S = (L1 rho_(k-1))_pq + sum_low o rho_k(p+1, q+1) o^H, where the
    jumps in ``lowering`` lower N by one and those in ``keeping`` (the
    mechanical b and b^dag) keep it. Off the vacuum block it is a fixed
    point on the keeping jumps in the sector eigenbases, summed as a
    Neumann series until a term is below the rounding of the sum; None
    when that takes more than ``SERIES_SWEEPS`` sweeps or a term is as
    large as the first (it diverges). The vacuum block (p = q = 0) is the
    mechanics' own Lindblad problem; it is solved by one LU of its d^2
    equations in the Fock basis, the vacuum entry's replaced by the trace,
    and None when that LU is numerically singular (no keeping jump:
    undamped mechanics). For ``sandwich`` rho_k is Hermitian, so only
    blocks with p <= q are solved and the rest mirrored. Every operator
    and every rho_k is held sector by sector, as sector-sized blocks.
    """
    if not keeping:
        return None
    g = _grading(L.space.mode_dims)
    sectors, sandwich = range(len(g.bounds)), L.convention == "sandwich"
    top = sectors[-1]

    def sub(A, p, q):  # block (p, q) of the Fock-ordered A
        return A[np.ix_(g.order[g.bounds[p]], g.order[g.bounds[q]])]

    # each sector's P0_p = V_p diag(w_p) Vi_p and Q0_q = U_q diag(u_q) Ui_q,
    # and the 1-norm condition test, as in :func:`_square_series` but held
    # per sector: the whole space's block-diagonal V is mostly zeros here
    try:
        w, V = zip(*(np.linalg.eig(sub(P, p, p)) for p in sectors))
        Vi = [np.linalg.inv(v) for v in V]
        if sandwich:
            u, U, Ui = [x.conj() for x in w], [v.conj().T for v in Vi], [v.conj().T for v in V]
        else:
            u, U = zip(*(np.linalg.eig(sub(Q, q, q)) for q in sectors))
            Ui = [np.linalg.inv(v) for v in U]
    except np.linalg.LinAlgError:  # a defective sector
        return None
    if max(max(np.abs(a).sum(axis=0).max() for a in A) * max(np.abs(b).sum(axis=0).max() for b in B)
           for A, B in ((V, Vi), (U, Ui))) > EIGENBASIS_COND_LIMIT:
        return None

    # the drive, and the lowering (feed) and keeping jumps, in the eigenbases:
    # Vi_p A_pq V_q on the left of X, Ui_p A_pq U_q on its right
    def left(A, p, q):
        return Vi[p] @ sub(A, p, q) @ V[q]

    near = {p: [r for r in (p - 1, p + 1) if 0 <= r <= top] for p in sectors}
    drive_left = {(p, r): left(P, p, r) for p in sectors for r in near[p]}
    feed_left = [[left(o, p, p + 1) for o in lowering] for p in sectors[:-1]]
    keep_left = [[left(o, p, p) for o in keeping] for p in sectors]
    if sandwich:  # Q = P^H and U = V^-H: every right factor is a left one's adjoint
        drive_right = {(r, q): a.conj().T for (q, r), a in drive_left.items()}
        feed_right, keep_right = ([[a.conj().T for a in x] for x in y] for y in (feed_left, keep_left))
    else:
        drive_right = {(r, q): Ui[r] @ sub(Q, r, q) @ U[q] for q in sectors for r in near[q]}
        feed_right = [[Ui[q + 1] @ sub(o, q, q + 1).conj().T @ U[q] for o in lowering] for q in sectors[:-1]]
        keep_right = [[Ui[q] @ sub(o, q, q).conj().T @ U[q] for o in keeping] for q in sectors]
    trace = [(Ui[p] @ V[p]).T for p in sectors]  # tr of sector p's block X = sum(X~ * trace[p])

    # the vacuum block in the Fock basis, column-stacked, with the vacuum
    # entry's equation replaced by the trace
    d = V[0].shape[0]
    eye = np.eye(d)
    A = np.kron(eye, sub(P, 0, 0)) + np.kron(sub(Q, 0, 0).T, eye)
    for o in keeping:
        o = sub(o, 0, 0)
        A += np.kron(o.conj(), o)
    A[0] = 0.0
    A[0, :: d + 1] = 1.0
    getrf, getrs, gecon = get_lapack_funcs(("getrf", "getrs", "gecon"), (A,))
    lu, piv, info = getrf(A)
    if info != 0 or gecon(lu, np.abs(A).sum(axis=0).max())[0] < _EPS:
        return None

    def vacuum(source, trace_value):
        b = -(V[0] @ source @ Ui[0]).ravel(order="F")
        b[0] = trace_value
        x, _ = getrs(lu, piv, b)
        return Vi[0] @ x.reshape(d, d, order="F") @ U[0]

    divisors = {}

    def fixed_point(source, p, q):
        if (p, q) not in divisors:
            denominator = w[p][:, None] + u[q][None, :]
            divisors[p, q] = None if np.any(denominator == 0) else -1.0 / denominator
        S = divisors[p, q]
        if S is None:
            return None
        X = term = source * S
        bound = np.vdot(X, X).real  # squared Frobenius norms from here on
        for _ in range(SERIES_SWEEPS):
            term = _jump_sum(keep_left[p], term, keep_right[q]) * S
            size = np.vdot(term, term).real
            X += term
            if size <= _EPS2 * bound:
                return X
            if not size < bound:  # a term as large as the first: the fixed point diverges
                return None
        return None

    def drive(rho, p, q):
        """(L1 rho)_pq in the eigenbases, from rho's blocks in the neighbouring sectors."""
        out = np.zeros((V[p].shape[0], V[q].shape[0]), dtype=complex)
        for r in near[p]:
            if (r, q) in rho:
                out += drive_left[p, r] @ rho[r, q]
        for r in near[q]:
            if (p, r) in rho:
                out += rho[p, r] @ drive_right[r, q]
        return out

    def blocks(m, solved=True):
        """The blocks (p, q) with p + q = m; those solved (with ``sandwich``, p <= q), or all."""
        return [(p, m - p) for p in range(max(0, m - top), min(m, top) + 1) if not (solved and sandwich) or 2 * p <= m]

    def solve(rho, k):
        """rho_k, as blocks, from rho_(k-1) (no blocks and k = 0 for rho_0), or None."""
        new = {}
        for m in range(min(k, 2 * top - k % 2), -1, -2):
            for p, q in blocks(m):
                source = drive(rho, p, q)
                if (p + 1, q + 1) in new:
                    source += _jump_sum(feed_left[p], new[p + 1, q + 1], feed_right[q])
                if m:
                    X = fixed_point(source, p, q)
                    if X is None:
                        return None
                else:
                    X = vacuum(source, (k == 0) - sum(np.sum(new[p, p] * trace[p]) for p in sectors[1:] if (p, p) in new))
                new[p, q] = X
                if sandwich and p != q:
                    new[q, p] = X.conj().T
        return new

    def orders():
        rho = total = solve({}, 0)
        for k in range(1, SERIES_ORDER_CAP + 1):
            rho = solve(rho, k)
            if rho is None:
                yield None
                return
            total = {**total, **{key: total[key] + X if key in total else X for key, X in rho.items()}}
            yield rho, total

    def fock(t):
        full = np.zeros((L.space.dim, L.space.dim), dtype=complex)
        for (p, q), X in t.items():
            full[np.ix_(g.order[g.bounds[p]], g.order[g.bounds[q]])] = V[p] @ X @ Ui[q]
        return full

    def diagonal(t):
        out = np.zeros(L.space.dim, dtype=complex)
        for p in sectors:
            if (p, p) in t:
                out[g.order[g.bounds[p]]] = np.einsum("ij,ji->i", V[p], t[p, p] @ Ui[p])
        return out

    def residual(rho, k):
        pairs = (pq for m in range(k + 1, -1, -2) for pq in blocks(m, solved=False))
        return np.sqrt(sum(np.linalg.norm(V[p] @ drive(rho, p, q) @ Ui[q]) ** 2 for p, q in pairs)) / scale

    return orders(), fock, diagonal, residual


def _moment_gap(space: HilbertSpace, a: np.ndarray, b: np.ndarray) -> float:
    """The largest relative difference of every mode's n and g2 between the diagonals ``a`` and ``b``.

    Relative to ``b``'s moments; inf where a moment is not finite, or where
    one of ``b``'s is 0 and ``a``'s is not.
    """
    gap = 0.0
    for mode in range(space.n_modes):
        for x, y in zip(_moments(space, a, mode), _moments(space, b, mode)):
            if x == y:
                continue
            if not (np.isfinite(x) and np.isfinite(y) and y != 0):
                return float("inf")
            gap = max(gap, abs(x - y) / abs(y))
    return gap


def _series_sums(L: Superoperator, P, Q, scale: float):
    """The diagonal of the partial sum of rho = sum_k rho_k at order K - 2, and that at K; or None.

    N is the photon number n_c + n_e (:class:`_Grading`). L = L0 + L1,
    where L1 rho = P1 rho + rho Q1 holds the parts of P and Q that change N
    by one (the drive) and L0 rho = P0 rho + rho Q0 + sum_o o rho o^H the
    rest: every jump lowers N by one (the cavities') or keeps it (the
    mechanics'). rho_0 is L0's steady state, and order k solves
    L0 rho_k = -L1 rho_(k-1) in every entry but the vacuum one, which
    tr rho_k = 0 replaces: term by term, the trace-row system of the band
    LU. rho_k lives on the blocks (p, q) of N-sectors with p + q <= k of k's
    parity; from the highest p + q down, block (p, q) is the Sylvester
    equation P0_p X + X Q0_q = -(L1 rho_(k-1))_pq - sum_o o rho_k(p+1, q+1)
    o^H, plus the keeping jumps' sum_o o X o^H. Each sector's P0_p (and,
    for ``commutator``, Q0_q) is diagonalized once, so every solve is an
    elementwise division in those eigenbases. Where the vacuum sector is
    one state (the effective model) no jump keeps N, rho_0 = |0><0| and
    :func:`_square_series` solves each anti-diagonal at once; where it holds
    the mechanics (the full model) :func:`_block_series` goes block by block.
    The K sum is the dense rho on the whole space and the K - 2 sum's
    diagonal a vector on it (zero where N is beyond the order reached).

    On the effective model K = SERIES_ORDER. On the full model K is the
    first even order from SERIES_ORDER on where the K - 2 and K sums agree
    to ``SERIES_TOL`` relative in every mode's n and g2, or
    SERIES_ORDER_CAP: past SERIES_ORDER the series goes on two orders at a
    time only while the geometric extrapolation of the last two such gaps
    reaches SERIES_TOL by SERIES_ORDER_CAP.

    None, when the series cannot serve L: a jump that neither lowers nor
    keeps N, a keeping jump on a one-state vacuum sector, or an entry of P
    or Q that changes N by more than one; a zero Sylvester denominator, a
    defective sector, a sector eigenbasis with 1-norm condition number
    above ``EIGENBASIS_COND_LIMIT``, a singular vacuum block or a fixed
    point that does not converge (:func:`_block_series`); when the residual
    ||L1 rho_K|| / max|L| of the partial sums at K = 2 and K = 4,
    extrapolated geometrically, stays above ``SERIES_TOL`` at
    K = SERIES_ORDER; or, on the full model, when the gaps stop the series
    before they reach ``SERIES_TOL``.
    """
    g = _grading(L.space.mode_dims)
    if np.any(P[g.far]) or np.any(Q[g.far]):
        return None
    lowering, keeping = [], []
    for o in L.collapse_ops:
        if not np.any(o.data[g.unlowered]):
            lowering.append(o.data)
        elif not np.any(o.data[g.unkept]):
            keeping.append(o.data)
        else:
            return None
    if g.ends[0] == 1:
        series, top = None if keeping else _square_series(L, P, Q, scale, lowering), SERIES_ORDER
    else:
        series, top = _block_series(L, P, Q, scale, lowering, keeping), SERIES_ORDER_CAP
    if series is None:
        return None
    orders, fock, diagonal, residual = series
    # the residuals at K = 2 and 4, and the partial sums, their diagonals and their gaps at the last two even orders
    partial, sums, diagonals, gaps = {}, [None, None], [None, None], [None, None]
    for k, step in enumerate(orders, 1):
        if step is None:
            return None
        rho, total = step
        if k in (2, 4):
            # the residual of the partial sum at K = k, ||L1 rho_k|| / max|L|
            partial[k] = residual(rho, k)
        if k == 4:
            # bail out when r4 (r4 / r2)^((K - 4) / 2), the geometric extrapolation
            # to K = SERIES_ORDER, exceeds SERIES_TOL (in a form that cannot overflow)
            r2, r4 = partial[2], partial[4]
            if r4 > SERIES_TOL and r4 > r2 * (SERIES_TOL / r4) ** (2 / (SERIES_ORDER - 4)):
                return None
        if k % 2:
            continue
        sums = [sums[1], total]
        if k == top:  # no order past it: the certification in _steady_series decides
            return diagonal(sums[0]), fock(total)
        # the gaps only decide whether to go past SERIES_ORDER
        if k < SERIES_ORDER - 4 or top == SERIES_ORDER:
            continue
        diagonals = [diagonals[1], diagonal(total)]
        if k < SERIES_ORDER - 2:
            continue
        gaps = [gaps[1], _moment_gap(L.space, *diagonals)]
        if k < SERIES_ORDER:
            continue
        last, gap = gaps
        if gap <= SERIES_TOL:
            return diagonals[0], fock(total)
        # go on while gap (gap / last)^((SERIES_ORDER_CAP - k) / 2), the geometric
        # extrapolation to the cap, reaches SERIES_TOL (in a form that cannot overflow)
        if not gap <= last * (SERIES_TOL / gap) ** (2 / (SERIES_ORDER_CAP - k)):
            return None
    return None


def _steady_series(L: Superoperator, P, Q, jumps, scale: float) -> SteadyStateResult | None:
    """The drive-order series' steady state when it is certified, else None.

    Certified: every mode's n and g2 are finite and agree between the
    partial sums at K - 2 and K (:func:`_series_sums`) to ``SERIES_TOL``
    relative, and :func:`_finish`'s residual is at most ``SERIES_TOL``.
    """
    sums = _series_sums(L, P, Q, scale)
    if sums is None:
        return None
    short, total = sums
    res = _finish(L.space, total, P, Q, jumps, scale, "direct")
    if not res.residual <= SERIES_TOL:
        return None
    for mode in range(L.space.n_modes):
        for a, b in zip(_moments(L.space, short, mode), _moments(L.space, res.state.matrix.diagonal(), mode)):
            if not (np.isfinite(b) and abs(a - b) <= SERIES_TOL * abs(b)):
                return None
    return res


def _steady_band(L: Superoperator, P, Q, jumps, scale: float) -> SteadyStateResult:
    """The trace-row system solved by RCM-banded LU (LAPACK ``gbsv``)."""
    ab, kl, ku, inv = _trace_row_band(P, Q, jumps, scale)
    # right-hand side: 1 in the trace row, wherever the renumbering put it
    b = np.zeros(ab.shape[1], dtype=complex)
    b[inv[0]] = 1.0
    (gbsv,) = get_lapack_funcs(("gbsv",), (ab, b))
    _, _, y, info = gbsv(kl, ku, ab, b, overwrite_ab=True, overwrite_b=True)
    if info > 0:
        raise SteadyStateError(
            "trace-constrained system is singular: the steady manifold is "
            f"degenerate beyond trace normalization (gbsv zero pivot {info})"
        )
    if info < 0:
        raise ValueError(f"gbsv rejected argument {-info}")
    x = y[inv]
    if not np.all(np.isfinite(x)):
        raise SteadyStateError("direct solve produced non-finite entries (singular system)")
    return _finish(L.space, devectorize(x, L.space).matrix, P, Q, jumps, scale, "direct")


# cond(V) of P = V diag(w) V^-1 (or of Q's eigenvectors) above which the
# Krylov solve inverts L0 through Schur forms instead of eigenbases. The
# eigenbasis solve's residual grows with cond(V); measured on the sandwich
# effective model at (12,12), kappa 5e3 to 5e4 Hz, Delta = J and J - 1e3:
# 1.4e-13 at cond(V) = 232, 1.1e-12 at 695, 7e-12 at 1.7e3, 3-4e-11 at
# 4.7e3 to 1.2e4, and 1.7e-10 at 2.2e4 (kappa = 1e4 Hz, Delta = J - 1e3),
# above the 1e-10 limit; the Schur solve stays at ~2e-15. Over fig7's kappa
# (1e-3 to 1e5 Hz), four detunings and three g, cond(V) stays below 120 on
# master_full at (4,4,8) and is above the limit at 3 % of (12,12) points.
# At the limit the eigenbasis residual is about 20 times below 1e-10.
EIGENBASIS_COND_LIMIT = 1e3

# ARPACK's relative accuracy (0: machine precision) and its cap on Arnoldi
# restarts in the Krylov steady state
KRYLOV_TOL = 0.0
KRYLOV_MAXITER = 10_000


def _sylvester_inverse(P: np.ndarray, Q: np.ndarray, convention: str):
    """(solve, branch): solve(C) is the X with P X + X Q = -C.

    Where the eigenvectors of P = V diag(w) V^-1 and Q = U diag(u) U^-1 are
    both well conditioned, the equation turns elementwise:
    X = V [(V^-1 C U) / -(w_i + u_j)] U^-1, four matrix products per solve.
    Otherwise P and Q are Schur-factored and each solve is a pair of unitary
    rotations around LAPACK's triangular trsyl. For ``sandwich`` Q = P^H, so
    Q's factors come from P's (U = V^-H, u = conj w; Q's Schur form is the
    adjoint of P's); for ``commutator`` Q is factored itself.
    """
    sandwich = convention == "sandwich"
    w, V = np.linalg.eig(P)
    if sandwich:
        well_conditioned = np.linalg.cond(V) <= EIGENBASIS_COND_LIMIT
    else:
        u, U = np.linalg.eig(Q)
        well_conditioned = max(np.linalg.cond(V), np.linalg.cond(U)) <= EIGENBASIS_COND_LIMIT
    if well_conditioned:
        Vi = np.linalg.inv(V)
        if sandwich:
            u, U, Ui = w.conj(), Vi.conj().T, V.conj().T
        else:
            Ui = np.linalg.inv(U)
        scale = -1.0 / (w[:, None] + u[None, :])
        return (lambda C: V @ ((Vi @ C @ U) * scale) @ Ui), "eigenbasis"
    T, Z = sla.schur(P, output="complex")
    S, W = (T, Z) if sandwich else sla.schur(Q, output="complex")
    Zh, Wh = Z.conj().T, W.conj().T
    (trsyl,) = get_lapack_funcs(("trsyl",), (T,))

    def solve(C):
        Y, s, info = trsyl(T, S, -(Zh @ C @ W), tranb="C" if sandwich else "N")
        if info != 0:
            raise SteadyStateError(f"Sylvester solve failed (trsyl info={info})")
        return Z @ (Y / s) @ Wh

    return solve, "schur"


def _steady_krylov(L: Superoperator, P, Q, jumps, scale: float) -> SteadyStateResult:
    """The dominant eigenvector of M = -L0^{-1} Jump by ARPACK, from :func:`_generator`'s factors."""
    N = L.space.dim
    # L0 X = P X + X Q (Q = P^H for sandwich); each application of
    # M = -L0^{-1} Jump is one jump sum and one Sylvester solve
    solve, _ = _sylvester_inverse(P, Q, L.convention)
    # jumps as CSR: o X o^H = (conj(o) (o X)^T)^T costs O(nnz N), not two N^3 products
    pairs = [(o, o.conj()) for o in jumps]

    def apply_m(xvec):
        X = xvec.reshape(N, N)
        C = sum((oc @ (o @ X).T).T for o, oc in pairs)
        return solve(C).ravel()

    Mop = spla.LinearOperator((N * N, N * N), matvec=apply_m, dtype=complex)
    v0 = np.eye(N, dtype=complex).ravel() / N
    try:
        w, v = spla.eigs(Mop, k=1, which="LM", v0=v0, tol=KRYLOV_TOL, maxiter=KRYLOV_MAXITER)
    except spla.ArpackNoConvergence as exc:
        raise SteadyStateError(f"Krylov steady-state iteration did not converge: {exc}") from exc
    # ARPACK's Ritz vector keeps rounding-level error along M's other
    # eigenvectors, which the small two-photon moment feels; two power
    # steps shrink it by |lambda_2|^2. Over 1000 (6,6) points at
    # Delta = -J (kappa 3e3 to 1e5 Hz) the largest direct-versus-Krylov
    # g2 gap, in units of 1e-5 |g2| + 2e-11 / n^2, fell from 2.3 to 0.036
    # (the Schur solve without these steps: 0.32).
    x = apply_m(apply_m(v[:, 0]))
    notes = []
    gap = abs(abs(w[0]) - 1.0)
    if gap > 1e-4:
        notes.append(f"dominant eigenvalue off unity by {gap:.2e}")
    return _finish(L.space, x.reshape(N, N), P, Q, jumps, scale, "krylov", notes)


def steady_state(L: Superoperator, method: str = "direct") -> SteadyStateResult:
    """Solve L vec(rho) = 0 with unit trace, at one OpenBLAS thread.

    ``direct`` (the default) is the module's route: the drive-order series
    where it is certified, else the band LU up to ``DIRECT_LIMIT`` and
    Krylov above it. ``krylov`` is the Krylov solve alone. The result's
    ``method`` names the solver that produced the state: ``direct`` for the
    series and the band LU, ``krylov`` for Krylov.

    The residual is ||L vec(rho)||_2 / (max|L| * ||rho||_2), i.e. relative
    to the operator scale (raw Liouvillian entries are of order omega_m,
    so an absolute residual would just restate the frequency units). It is
    computed from the factors, L rho = P rho + rho Q + sum_o o rho o^H, and
    max|L| from the entry classes: ``L.matrix``'s largest entry bit for bit
    when no jump has a diagonal entry and no two jumps share an
    off-diagonal position (every ``build_collapse_ops`` model), an upper
    bound on it otherwise.

    An unknown ``method`` raises ``ValueError``. A generator without
    collapse operators, a singular trace-constrained system (steady-state
    degeneracy beyond normalization) or a Krylov solve that does not
    converge raises :class:`SteadyStateError` rather than returning an
    arbitrary element of the manifold.
    """
    if method not in ("direct", "krylov"):
        raise ValueError(f"unknown method {method!r}; valid: direct, krylov")
    if not L.collapse_ops:
        # without jumps the trace-row LU can still return a candidate (a
        # driven point gave min eigenvalue -1.5 at residual 7e-18)
        raise SteadyStateError("no dissipation: the steady manifold is degenerate")
    with blas.single_thread():
        factors = _generator(L)
        if method == "direct":
            res = _steady_series(L, *factors)
            if res is not None:
                return res
            if L.dim <= DIRECT_LIMIT:
                return _steady_band(L, *factors)
        return _steady_krylov(L, *factors)


# -- time evolution ---------------------------------------------------------


def evolve(
    rho0: DensityMatrix,
    L: Superoperator,
    t_grid,
    rtol: float = 1e-8,
    atol: float = 1e-12,
) -> list[DensityMatrix]:
    """Adaptive integration of d vec(rho)/dt = L vec(rho) over ``t_grid``.

    ``scipy.integrate`` is imported on the first call, not with the package.
    """
    if rho0.space != L.space:
        raise ValueError("initial state and superoperator live on different spaces")
    Lm = L.matrix
    y = _integrate(lambda t, z: Lm @ z, vectorize(rho0), t_grid, rtol, atol, "master-equation")
    return [devectorize(y[:, k], L.space) for k in range(y.shape[1])]


# -- observables ------------------------------------------------------------


def mode_statistics(rho: DensityMatrix, mode: int) -> tuple[float, float]:
    """(mean photon number, g2(0)) of one mode in a density matrix.

    g2 = <a^dag a^dag a a> / <a^dag a>^2; infinite when the occupation
    vanishes (no photons to correlate). A negative occupation (a
    non-physical state) is returned as computed, with the same ratio for
    g2, for the caller to flag. Both operators are diagonal in the
    Fock basis, so the moments are read off rho's diagonal; the diagonal of
    a^dag a^dag a a is formed in the order of that operator product
    ((sqrt(n) sqrt(n-1)) sqrt(n-1)) sqrt(n), which keeps the result equal bit
    for bit to Tr(A rho) with the assembled operators.
    """
    return _moments(rho.space, rho.matrix.diagonal(), mode)


def _moments(space: HilbertSpace, diag: np.ndarray, mode: int) -> tuple[float, float]:
    """:func:`mode_statistics` from the diagonal ``diag`` of a state on ``space``."""
    occ = occupations(space, mode).astype(float)
    root, lower = np.sqrt(occ), np.sqrt(np.maximum(occ - 1.0, 0.0))
    quad = root * lower * lower * root
    n = float(np.real(np.sum(occ * diag)))
    g2_num = float(np.real(np.sum(quad * diag)))
    if n == 0.0:
        return n, float("inf")
    return n, g2_num / n**2


# -- truncation convergence -------------------------------------------------


@dataclass(frozen=True)
class ConvergenceRow:
    truncation: tuple[int, ...]
    n_c: float
    n_e: float
    g2_c: float
    g2_e: float
    # relative change vs the previous row, None on the first row
    deltas: dict | None = None


def convergence_scan(builder, truncations) -> list[ConvergenceRow]:
    """Steady-state observables versus Fock truncation.

    ``builder`` maps a truncation entry (whatever shape the caller uses,
    e.g. an int of levels per cavity or a per-mode tuple) to a
    :class:`Superoperator`; the scan solves each steady state and tabulates
    cavity occupations and g2 with successive relative deltas.
    """
    truncations = list(truncations)
    if not truncations:
        raise ValueError("need at least one truncation entry")
    rows: list[ConvergenceRow] = []
    prev: ConvergenceRow | None = None
    for trunc in truncations:
        L = builder(trunc)
        res = steady_state(L)
        n_c, g2_c = mode_statistics(res.state, 0)
        n_e, g2_e = mode_statistics(res.state, 1)
        deltas = None
        if prev is not None:
            def rel(new, old):
                denom = max(abs(old), 1e-300)
                return abs(new - old) / denom
            deltas = {
                "n_c": rel(n_c, prev.n_c),
                "n_e": rel(n_e, prev.n_e),
                "g2_c": rel(g2_c, prev.g2_c),
                "g2_e": rel(g2_e, prev.g2_e),
            }
        row = ConvergenceRow(tuple(L.space.mode_dims), n_c, n_e, g2_c, g2_e, deltas)
        rows.append(row)
        prev = row
    return rows
