"""Vectorized master equation: superoperator assembly, steady states, evolution.

Column-stacking convention throughout: vec(A rho B) = (B^T kron A) vec(rho).
Steady states are solved directly (trace-row replacement + sparse LU) for
small superoperators; above ``DIRECT_LIMIT`` a matrix-free Krylov method is
used that never forms the superoperator: the Liouvillian is split into its
non-Hermitian-evolution part L0 X = A X + X A^H (A = -i H_nh) and the jump
part sum_k o_k X o_k^H, and the steady state is recovered as the dominant
eigenvector of M = -L0^{-1} Jump (eigenvalue 1). Each application of M
applies the jumps as sparse (CSR) operators and inverts L0 as a Sylvester
equation in A's eigenbasis (four dense products), falling back to a
Schur-factored ``trsyl`` solve when the eigenvectors' condition number
exceeds ``EIGENBASIS_COND_LIMIT``. Two power steps x <- M x polish ARPACK's
Ritz vector before the residual is taken. The Krylov solve runs with the
bundled OpenBLAS libraries at one thread (``blas.single_thread``); the
caller's thread counts are restored when it returns or raises.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
from scipy.linalg import get_lapack_funcs

from . import blas
from .fock import HilbertSpace, OperatorMatrix, number, annihilation

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


# -- superoperator assembly -------------------------------------------------


@dataclass(frozen=True)
class Superoperator:
    """Liouvillian matrix on the vectorized space, plus its building blocks.

    ``matrix`` is CSR of shape (dim^2, dim^2). ``hamiltonian`` and
    ``collapse_ops`` are retained so large-dimension solvers can work
    matrix-free without re-deriving them.
    """

    space: HilbertSpace
    matrix: sp.spmatrix = field(repr=False)
    convention: str = "sandwich"
    hamiltonian: OperatorMatrix | None = field(default=None, repr=False)
    collapse_ops: tuple[OperatorMatrix, ...] = field(default=(), repr=False)

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}, got {self.convention!r}")
        n2 = self.space.dim**2
        if self.matrix.shape != (n2, n2):
            raise ValueError("superoperator shape does not match space dim squared")

    @property
    def dim(self) -> int:
        return self.space.dim**2

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
    """Assemble the Lindblad superoperator for Hamiltonian ``H`` and jumps.

    Collapse operators carry their sqrt(rate) prefactor. Coherent part:
    ``commutator`` -> -i(H rho - rho H); ``sandwich`` -> -i(H rho - rho H^dag).
    The two coincide for Hermitian H; for the non-Hermitian effective model
    sandwich is the hermiticity-preserving default.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    space = H.space
    collapse_ops = tuple(collapse_ops)
    for o in collapse_ops:
        if o.space != space:
            raise ValueError("collapse operator lives on a different space")

    Hs = H.to_sparse().data.tocsr()
    n = space.dim
    eye = sp.identity(n, format="csr", dtype=complex)
    right = Hs if convention == "commutator" else Hs.conj().T
    L = -1j * (sp.kron(eye, Hs, format="csr") - sp.kron(right.T, eye, format="csr"))
    for o in collapse_ops:
        od = o.to_sparse().data.tocsr()
        odo = od.conj().T @ od
        L = L + sp.kron(od.conj(), od, format="csr")
        L = L - 0.5 * (sp.kron(eye, odo, format="csr") + sp.kron(odo.T, eye, format="csr"))
    return Superoperator(space, L.tocsr(), convention, H, collapse_ops)


# -- steady state -----------------------------------------------------------


@dataclass(frozen=True)
class SteadyStateResult:
    state: DensityMatrix
    residual: float
    method: str
    notes: tuple[str, ...] = field(default_factory=tuple)


def _finish(space, rho_raw, L: Superoperator, method: str, notes=()) -> SteadyStateResult:
    rho = 0.5 * (rho_raw + rho_raw.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-300:
        raise SteadyStateError("solver returned a traceless candidate (degenerate steady manifold?)")
    rho = rho / tr
    scale = max(float(abs(L.matrix).max()), 1e-300)
    resid = float(np.linalg.norm(L.matrix @ vectorize(rho)) / (scale * np.linalg.norm(rho)))
    return SteadyStateResult(DensityMatrix(space, rho), resid, method, tuple(notes))


def _steady_direct(L: Superoperator) -> SteadyStateResult:
    n = L.space.dim
    scale = max(float(abs(L.matrix).max()), 1e-300)
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
    return _finish(L.space, devectorize(x, L.space).matrix, L, "direct")


# cond(V) of A = V diag(w) V^-1 above which the Krylov solve inverts L0
# through the Schur form instead of the eigenbasis. The eigenbasis solve's
# residual grows with cond(V); measured on the effective model at (12,12),
# kappa 5e3 to 5e4 Hz, Delta = J and J - 1e3: 1.4e-13 at cond(V) = 232,
# 1.1e-12 at 695, 7e-12 at 1.7e3, 3-4e-11 at 4.7e3 to 1.2e4, and 1.7e-10 at
# 2.2e4 (kappa = 1e4 Hz, Delta = J - 1e3), above the 1e-10 limit; the Schur
# solve stays at ~2e-15. Over fig7's kappa (1e-3 to 1e5 Hz), four detunings
# and three g, cond(V) stays below 120 on master_full at (4,4,8) and is
# above the limit at 3 % of (12,12) points. At the limit the eigenbasis
# residual is about 20 times below 1e-10.
EIGENBASIS_COND_LIMIT = 1e3


def _sylvester_inverse(A: np.ndarray):
    """(solve, branch): solve(C) is the X with A X + X A^H = -C.

    Where A's eigenvectors V are well conditioned, A = V diag(w) V^-1 turns
    the equation elementwise: X = V [(V^-1 C V^-H) / -(w_i + conj w_j)] V^H,
    four matrix products per solve. Otherwise A is Schur-factored and each
    solve is a pair of unitary rotations around LAPACK's triangular trsyl.
    """
    w, V = np.linalg.eig(A)
    if np.linalg.cond(V) <= EIGENBASIS_COND_LIMIT:
        Vi = np.linalg.inv(V)
        Vh, Vih = V.conj().T, Vi.conj().T
        scale = -1.0 / (w[:, None] + w.conj()[None, :])
        return (lambda C: V @ ((Vi @ C @ Vih) * scale) @ Vh), "eigenbasis"
    T, Q = sla.schur(A, output="complex")
    Qh = Q.conj().T
    (trsyl,) = get_lapack_funcs(("trsyl",), (T,))

    def solve(C):
        Y, s, info = trsyl(T, T, -(Qh @ C @ Q), tranb="C")
        if info != 0:
            raise SteadyStateError(f"Sylvester solve failed (trsyl info={info})")
        return Q @ (Y / s) @ Qh

    return solve, "schur"


def _steady_krylov(L: Superoperator, tol: float, maxiter: int) -> SteadyStateResult:
    if L.hamiltonian is None:
        raise SteadyStateError(
            "matrix-free solve needs the Hamiltonian/collapse factorization; "
            "build the superoperator with build_liouvillian"
        )
    if not L.collapse_ops:
        raise SteadyStateError("no dissipation: the steady manifold is degenerate")
    N = L.space.dim
    with blas.single_thread():
        # jumps as CSR: o X o^H = (conj(o) (o X)^T)^T costs O(nnz N), not two N^3 products
        ops = [o.to_sparse().data.tocsr() for o in L.collapse_ops]
        pairs = [(o, o.conj()) for o in ops]
        decay = sum(o.conj().T @ o for o in ops).toarray()
        # L0 X = A X + X A^H with A = -i H_nh; each application of
        # M = -L0^{-1} Jump is one jump sum and one Sylvester solve
        A = -1j * (L.hamiltonian.dense_array() - 0.5j * decay)
        solve, _ = _sylvester_inverse(A)

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
    return _finish(L.space, x.reshape(N, N), L, "krylov", notes)


def steady_state(
    L: Superoperator,
    method: str = "auto",
    tol: float = 0.0,
    maxiter: int = 10_000,
) -> SteadyStateResult:
    """Solve L vec(rho) = 0 with unit trace.

    ``direct`` replaces one row with the trace constraint and LU-factors;
    ``krylov`` is the matrix-free Sylvester/Arnoldi path for large spaces
    (Sylvester solves in the eigenbasis of A = -i H_nh, or through its Schur
    form when the eigenvector matrix V has cond(V) above
    ``EIGENBASIS_COND_LIMIT``; ARPACK's eigenvector polished by two power
    steps; one OpenBLAS thread for the whole solve, the caller's thread
    counts restored afterwards); ``auto`` picks by
    superoperator dimension. The residual is
    ||L vec(rho)||_2 / (max|L| * ||rho||_2), i.e. relative to the operator
    scale (raw Liouvillian entries are of order omega_m, so an absolute
    residual would just restate the frequency units).

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
    vanishes (no photons to correlate).
    """
    a = annihilation(rho.space, mode)
    n_op = number(rho.space, mode)
    n = float(np.real(np.trace(n_op.dense_array() @ rho.matrix)))
    quad = (a.dag() @ a.dag() @ a @ a).dense_array()
    g2_num = float(np.real(np.trace(quad @ rho.matrix)))
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
