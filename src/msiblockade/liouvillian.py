"""Vectorized master equation: the Lindblad generator, steady states, evolution.

Column-stacking convention throughout: vec(A rho B) = (B^T kron A) vec(rho).
A :class:`Superoperator` holds the Hamiltonian and the collapse operators;
its CSR ``matrix`` is assembled from Kronecker products only when read
(by the sparse-LU steady state, :func:`evolve`, ``apply`` and
``trace_preservation_defect``) and then cached. Steady states are solved
directly (trace-row replacement + sparse LU) for small superoperators;
above ``DIRECT_LIMIT`` a matrix-free Krylov method is used that never
forms the superoperator: the Liouvillian is split into its
non-Hermitian-evolution part L0 X = P X + X Q (P = -i H - D/2, Q =
i H_right - D/2, so Q = P^H for ``sandwich``) and the jump part
sum_k o_k X o_k^H, and the steady state is recovered as the dominant
eigenvector of M = -L0^{-1} Jump (eigenvalue 1). Each application of M
applies the jumps as sparse (CSR) operators and inverts L0 as a Sylvester
equation in the eigenbases of P and Q (four dense products), falling back
to a Schur-factored ``trsyl`` solve when either eigenvector matrix's
condition number exceeds ``EIGENBASIS_COND_LIMIT``. Two power steps
x <- M x polish ARPACK's Ritz vector before the residual is taken. The Krylov solve runs with the
bundled OpenBLAS libraries at one thread (``blas.single_thread``); the
caller's thread counts are restored when it returns or raises. Both
solvers take the residual from the factors, L rho = P rho + rho Q +
sum_o o rho o^H, and its scale max|L| from the entry formula
(:func:`_entry_scale`), so neither needs the matrix for it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
from scipy.linalg import get_lapack_funcs

from . import blas
from .fock import HilbertSpace, OperatorMatrix, occupations

# superoperator dimension above which steady_state switches to the
# matrix-free Krylov solver (direct LU time grows fast beyond ~10^4)
DIRECT_LIMIT = 10_000

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

    def cleaned(self, clip: float = 1e-8) -> "DensityMatrix":
        """Reporting-time cleanup: hermitize, clip eigenvalues in [-clip, 0), renormalize."""
        herm = 0.5 * (self.matrix + self.matrix.conj().T)
        vals, vecs = sla.eigh(herm)
        if np.min(vals) < -clip:
            raise ValueError(f"state is unphysical: eigenvalue {np.min(vals):.3e} < -{clip:.0e}")
        vals = np.clip(vals, 0.0, None)
        out = (vecs * vals) @ vecs.conj().T
        return DensityMatrix(self.space, out / np.trace(out))

    def is_physical(self, tol_herm: float = 1e-10, tol_trace: float = 1e-10, tol_pos: float = 1e-8) -> bool:
        return (
            self.hermiticity_defect() < tol_herm
            and abs(self.trace() - 1.0) < tol_trace
            and self.min_eigenvalue() >= -tol_pos
        )


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

    ``matrix`` is the CSR superoperator of shape (dim^2, dim^2), assembled
    from Kronecker products on first read and then cached. Only the
    sparse-LU steady state, :func:`evolve`, :meth:`apply` and
    :meth:`trace_preservation_defect` read it; the Krylov steady state and
    every residual work from ``hamiltonian`` and ``collapse_ops``.
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
        """The superoperator, assembled from Kronecker products on first read."""
        Hs =self.hamiltonian.to_sparse().data
        eye = sp.identity(self.space.dim, format="csr", dtype=complex)
        right = Hs if self.convention == "commutator" else Hs.conj().T
        L = -1j * (sp.kron(eye, Hs, format="csr") - sp.kron(right.T, eye, format="csr"))
        for o in self.collapse_ops:
            od = o.to_sparse().data
            odo = od.conj().T @ od
            L = L + sp.kron(od.conj(), od, format="csr")
            L = L - 0.5 * (sp.kron(eye, odo, format="csr") + sp.kron(odo.T, eye, format="csr"))
        return L.tocsr()

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        return devectorize(self.matrix @ vectorize(rho), self.space)

    def trace_preservation_defect(self) -> float:
        """max |(vec I)^dag L| column-wise; zero iff trace is conserved."""
        n = self.space.dim
        left = vectorize(np.eye(n, dtype=complex)).conj()
        return float(np.max(np.abs(left @ self.matrix)))


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


def _entry_scale(H: np.ndarray, R: np.ndarray, jumps, K) -> float:
    """max |L| over the superoperator's entries, without assembling it.

    ``K`` holds the dense o^dag o of each jump. With H_right = R,
    L[(i,j),(k,l)] = -i (H_ik d_jl - d_ik R_lj)
                     + sum_o [conj(o_jl) o_ik - 1/2 (d_jl K_ik + d_ik K_lj)].
    The four position classes (diagonal; i != k, j = l; i = k, j != l;
    i != k, j != l) are each evaluated with the float operations of the
    Kronecker assembly in :attr:`Superoperator.matrix`, in its order, so the
    result equals ``abs(L.matrix).max()`` bit for bit. The j-dependence of
    the second class (and the i-dependence of the third) enters only
    through the jumps' diagonals, so each runs once per distinct tuple of
    them; the last class is a sum of outer products over the jumps'
    off-diagonal supports, one block per group of overlapping supports.
    """
    N = H.shape[0]
    dense = [o.toarray() for o in jumps]
    diags = np.stack([np.diagonal(o) for o in dense], axis=1) if jumps else np.zeros((N, 0))

    def off_max(v):
        a = np.abs(v)
        np.fill_diagonal(a, 0.0)
        return a.max()

    # i = k, j = l; v[i, j]
    v = -1j * (np.diagonal(H)[:, None] - np.diagonal(R)[None, :])
    for d, k in zip(diags.T, K):
        kd = np.diagonal(k)
        v = v + d.conj()[None, :] * d[:, None]
        v = v - 0.5 * (kd[:, None] + kd[None, :])
    scale = np.abs(v).max()
    for t in np.unique(diags, axis=0):
        # i != k, j = l with conj(o_jj) = conj(t); v[i, k]
        v = -1j * H
        for c, o, k in zip(t.conj(), dense, K):
            if c != 0:
                v = v + c * o
            v = v - 0.5 * k
        scale = max(scale, off_max(v))
        # i = k, j != l with o_ii = t; v[j, l]
        v = -1j * (0 - R.T)
        for c, o, k in zip(t, dense, K):
            if c != 0:
                v = v + o.conj() * c
            v = v - 0.5 * k.T
        scale = max(scale, off_max(v))
    # i != k, j != l: sum_o conj(o_jl) o_ik over pairs of off-diagonal entries
    flat = [o.ravel() for o in dense]
    supports = [np.flatnonzero(f) for f in flat]
    supports = [s[s % (N + 1) != 0] for s in supports]
    groups: list[list[int]] = []
    for m, s in enumerate(supports):
        joined = [g for g in groups if any(np.intersect1d(s, supports[n]).size for n in g)]
        groups = [g for g in groups if g not in joined] + [sorted(sum(joined, [m]))]
    for g in groups:
        union = np.unique(np.concatenate([supports[m] for m in g]))
        v = np.zeros((union.size, union.size), dtype=complex)
        for m in g:
            u = flat[m][union]
            v = v + np.multiply.outer(u.conj(), u)
        scale = max(scale, np.abs(v).max(initial=0.0))
    return float(scale)


def _generator(L: Superoperator):
    """(P, Q, jumps, scale) with L rho = P rho + rho Q + sum_o o rho o^dag.

    P = -i H - D/2 and Q = i H_right - D/2 with D = sum_o o^dag o, dense;
    ``jumps`` are the collapse operators in CSR form; ``scale`` is max |L|
    (:func:`_entry_scale`), floored at 1e-300 for use as a divisor.
    """
    H = L.hamiltonian.dense_array()
    R = H if L.convention == "commutator" else H.conj().T
    jumps = [o.to_sparse().data for o in L.collapse_ops]
    K = [o.conj().T @ o for o in jumps]
    decay = sum(K, sp.csr_matrix(H.shape, dtype=complex)).toarray()
    scale = max(_entry_scale(H, R, jumps, [k.toarray() for k in K]), 1e-300)
    return -1j * H - 0.5 * decay, 1j * R - 0.5 * decay, jumps, scale


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


def _steady_direct(L: Superoperator) -> SteadyStateResult:
    n = L.space.dim
    P, Q, jumps, scale = _generator(L)
    A = (L.matrix / scale).tolil()
    trace_row = np.zeros(n * n, dtype=complex)
    trace_row[:: n + 1] = 1.0
    A[0] = trace_row
    A = A.tocsc()
    b = np.zeros(n * n, dtype=complex)
    b[0] = 1.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", spla.MatrixRankWarning)
            lu = spla.splu(A)
    except (RuntimeError, spla.MatrixRankWarning) as exc:
        raise SteadyStateError(
            "trace-constrained system is singular: the steady manifold is "
            f"degenerate beyond trace normalization ({exc})"
        ) from exc
    x = lu.solve(b)
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


def _steady_krylov(L: Superoperator, tol: float, maxiter: int) -> SteadyStateResult:
    if not L.collapse_ops:
        raise SteadyStateError("no dissipation: the steady manifold is degenerate")
    N = L.space.dim
    with blas.single_thread():
        # L0 X = P X + X Q (Q = P^H for sandwich); each application of
        # M = -L0^{-1} Jump is one jump sum and one Sylvester solve
        P, Q, jumps, scale = _generator(L)
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
            w, v = spla.eigs(Mop, k=1, which="LM", v0=v0, tol=tol, maxiter=maxiter)
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


def steady_state(
    L: Superoperator,
    method: str = "auto",
    tol: float = 0.0,
    maxiter: int = 10_000,
) -> SteadyStateResult:
    """Solve L vec(rho) = 0 with unit trace.

    ``direct`` replaces one row with the trace constraint and LU-factors;
    ``krylov`` is the matrix-free Sylvester/Arnoldi path for large spaces
    (Sylvester solves P X + X Q = -C in the eigenbases of P and Q, or
    through their Schur forms when an eigenvector matrix has condition
    number above ``EIGENBASIS_COND_LIMIT``; ARPACK's eigenvector polished
    by two power steps; one OpenBLAS thread for the whole solve, the
    caller's thread counts restored afterwards); ``auto`` picks by
    superoperator dimension. Only ``direct`` assembles ``L.matrix``. The
    residual is ||L vec(rho)||_2 / (max|L| * ||rho||_2), i.e. relative to
    the operator scale (raw Liouvillian entries are of order omega_m, so an
    absolute residual would just restate the frequency units). Both methods
    compute it without the matrix: L rho = P rho + rho Q + sum_o o rho o^H
    with P = -i H - D/2, Q = i H_right - D/2 and D = sum_o o^H o, and
    max|L| from the entry formula, equal bit for bit to the assembled
    matrix's largest entry.

    A singular trace-constrained system (steady-state degeneracy beyond
    normalization) raises :class:`SteadyStateError` rather than returning
    an arbitrary element of the manifold.
    """
    if method not in ("auto", "direct", "krylov"):
        raise ValueError(f"unknown method {method!r}")
    if method == "auto":
        method = "direct" if L.dim <= DIRECT_LIMIT else "krylov"
    if method == "direct":
        return _steady_direct(L)
    return _steady_krylov(L, tol, maxiter)


# -- time evolution ---------------------------------------------------------


def evolve(
    rho0: DensityMatrix,
    L: Superoperator,
    t_grid,
    rtol: float = 1e-8,
    atol: float = 1e-12,
) -> list[DensityMatrix]:
    """Adaptive integration of d vec(rho)/dt = L vec(rho) over ``t_grid``."""
    if rho0.space != L.space:
        raise ValueError("initial state and superoperator live on different spaces")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    Lm = L.matrix
    y0 = vectorize(rho0)
    # pack complex into real for solve_ivp
    n2 = y0.size

    def rhs(t, y):
        dz = Lm @ (y[:n2] + 1j * y[n2:])
        return np.concatenate([dz.real, dz.imag])

    t0 = min(0.0, t_grid[0])
    sol = solve_ivp(
        rhs,
        (t0, t_grid[-1]),
        np.concatenate([y0.real, y0.imag]),
        t_eval=t_grid,
        method="DOP853",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise RuntimeError(f"master-equation integration failed: {sol.message}")
    return [devectorize(sol.y[:n2, k] + 1j * sol.y[n2:, k], L.space) for k in range(sol.y.shape[1])]


# -- observables ------------------------------------------------------------


def mode_statistics(rho: DensityMatrix, mode: int) -> tuple[float, float]:
    """(mean photon number, g2(0)) of one mode in a density matrix.

    g2 = <a^dag a^dag a a> / <a^dag a>^2; infinite when the occupation
    vanishes (no photons to correlate). Both operators are diagonal in the
    Fock basis, so the moments are read off rho's diagonal; the diagonal of
    a^dag a^dag a a is formed in the order of that operator product
    ((sqrt(n) sqrt(n-1)) sqrt(n-1)) sqrt(n), which keeps the result equal bit
    for bit to Tr(A rho) with the assembled operators.
    """
    occ = occupations(rho.space, mode).astype(float)
    root, lower = np.sqrt(occ), np.sqrt(np.maximum(occ - 1.0, 0.0))
    quad = root * lower * lower * root
    diag = rho.matrix.diagonal()
    n = float(np.real(np.sum(occ * diag)))
    g2_num = float(np.real(np.sum(quad * diag)))
    if n <= 0.0:
        return max(n, 0.0), float("inf")
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
