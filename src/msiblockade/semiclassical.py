"""Mean-field (noise-free) tier.

Classical limits of the Langevin equations: the full four-variable system
(Q, P, alpha_c, alpha_e), the mechanically eliminated two-mode reduced
system with its cubic nonlinearity, and their fixed points. The reduced
fixed point is found over whole parameter grids at once
(``reduced_fixed_point_grid``: a batched Newton solve seeded by Cramer's
rule on the linear system); ``reduced_fixed_point`` evaluates the same
code on one point. This tier is a cross-check on occupations only; it
makes no g2 claims.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .model import SystemParams


@dataclass(frozen=True)
class MeanFieldState:
    q: float = 0.0
    p: float = 0.0
    alpha_c: complex = 0.0
    alpha_e: complex = 0.0

    def photon_numbers(self) -> tuple[float, float]:
        return abs(self.alpha_c) ** 2, abs(self.alpha_e) ** 2


def full_rhs(s: MeanFieldState, p: SystemParams) -> MeanFieldState:
    """Time derivative of the full mean-field system (vacuum input, no noise)."""
    nq = p.omega_m * s.p
    np_ = -p.g_omega * abs(s.alpha_c) ** 2 - p.omega_m * s.q - p.gamma * s.p
    # kappa_c/2 (1 + g_kappa/kappa_c Q) written as (kappa_c + g_kappa Q)/2
    dac = (
        (1j * (p.delta_c - p.g_omega * s.q) - 0.5 * (p.kappa_c + p.g_kappa * s.q)) * s.alpha_c
        - 1j * p.J * s.alpha_e
        + p.eps_c
    )
    dae = (1j * p.delta_e - 0.5 * p.kappa_e) * s.alpha_e - 1j * p.J * s.alpha_c + p.eps_e
    return MeanFieldState(q=nq, p=np_, alpha_c=dac, alpha_e=dae)


def _pack(s: MeanFieldState) -> np.ndarray:
    return np.array([s.q, s.p, s.alpha_c.real, s.alpha_c.imag, s.alpha_e.real, s.alpha_e.imag])


def _unpack(y) -> MeanFieldState:
    return MeanFieldState(q=y[0], p=y[1], alpha_c=y[2] + 1j * y[3], alpha_e=y[4] + 1j * y[5])


def integrate_full(
    p: SystemParams, t_grid, initial: MeanFieldState | None = None, rtol: float = 1e-8
) -> list[MeanFieldState]:
    """Adaptive integration of the full mean-field system over ``t_grid``."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    s0 = initial or MeanFieldState()

    def rhs(t, y):
        return _pack(full_rhs(_unpack(y), p))

    t0 = min(0.0, t_grid[0])
    sol = solve_ivp(rhs, (t0, t_grid[-1]), _pack(s0), t_eval=t_grid, method="DOP853", rtol=rtol, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"mean-field integration failed: {sol.message}")
    return [_unpack(sol.y[:, k]) for k in range(sol.y.shape[1])]


def full_steady_state(p: SystemParams, settle_time: float | None = None) -> MeanFieldState:
    """Long-time state of the full system (needs gamma > 0 and kappa > 0 to settle)."""
    if settle_time is None:
        rates = [r for r in (p.gamma, p.kappa_c, p.kappa_e) if r > 0]
        if not rates:
            raise ValueError("undamped system does not settle; give settle_time explicitly")
        settle_time = 50.0 / min(rates)
    return integrate_full(p, np.array([settle_time]))[-1]


# -- reduced two-mode dynamics ---------------------------------------------


def nonlinear_coefficient(p: SystemParams) -> complex:
    """Coefficient of |alpha_c|^2 alpha_c in the reduced equation.

    (2 i g_omega^2 + g_kappa g_omega) / (2 omega_m): its real part
    +g_kappa g_omega / (2 omega_m) opposes the -kappa_c/2 linear loss.
    """
    return (2j * p.g_omega**2 + p.g_kappa * p.g_omega) / (2.0 * p.omega_m)


def reduced_rhs(alpha_c: complex, alpha_e: complex, p: SystemParams) -> tuple[complex, complex]:
    """Time derivatives of the mechanically eliminated optical amplitudes."""
    dac = (
        (1j * p.delta_c - 0.5 * p.kappa_c) * alpha_c
        + nonlinear_coefficient(p) * abs(alpha_c) ** 2 * alpha_c
        - 1j * p.J * alpha_e
        + p.eps_c
    )
    dae = (1j * p.delta_e - 0.5 * p.kappa_e) * alpha_e - 1j * p.J * alpha_c + p.eps_e
    return dac, dae


# -- fixed points over parameter arrays --------------------------------------
#
# The ``_grid`` functions take a mapping from SystemParams field names to
# equal-length float arrays (``SweepSpec.param_arrays`` for a sweep,
# ``SystemParams.as_arrays`` for one point). Each point's arithmetic, and its
# number of Newton steps, depend on that point alone.

NEWTON_MAX_STEPS = 100


def _complex(re, im):
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def linear_fixed_point_grid(q):
    """Fixed points (alpha_c, alpha_e, pole) of the reduced system without its nonlinear term.

    Cramer's rule on [[i dc - kc/2, -iJ], [-iJ, i de - ke/2]] (alpha_c,
    alpha_e) = (-eps_c, -eps_e). ``pole`` marks a zero determinant, which
    needs kappa_c * kappa_e = 0 and is the D_J = J^2 - dc*de pole at kappa = 0;
    the amplitudes are NaN there.
    """
    kc, ke = 0.5 * q["kappa_c"], 0.5 * q["kappa_e"]
    dc, de, J = q["delta_c"], q["delta_e"], q["J"]
    eps_c, eps_e = q["eps_c"], q["eps_e"]
    det_r = kc * ke - dc * de + J * J
    det_i = -(kc * de + dc * ke)
    pole = (det_r == 0.0) & (det_i == 0.0)
    ok = ~pole
    dr, di = det_r[ok], det_i[ok]
    mod2 = dr * dr + di * di
    # Cramer numerators of alpha_c and alpha_e, (real, imaginary), each divided by det
    numerators = (
        (eps_c * ke, -(eps_c * de + J * eps_e)),
        (eps_e * kc, -(dc * eps_e + J * eps_c)),
    )
    alpha = np.full((2, len(J)), np.nan, dtype=complex)
    for a, (num_r, num_i) in zip(alpha, numerators):
        nr, ni = num_r[ok], num_i[ok]
        a[ok] = _complex((nr * dr + ni * di) / mod2, (ni * dr - nr * di) / mod2)
    return alpha[0], alpha[1], pole


def linear_fixed_point(p: SystemParams) -> tuple[complex, complex]:
    """Fixed point of the reduced system with the nonlinear term dropped.

    Raises ``numpy.linalg.LinAlgError`` on the pole of
    :func:`linear_fixed_point_grid`.
    """
    ac, ae, pole = linear_fixed_point_grid(p.as_arrays())
    if pole[0]:
        raise np.linalg.LinAlgError("singular linear system: the D_J pole at kappa = 0")
    return complex(ac[0]), complex(ae[0])


def _residual(c, x, jacobian=False):
    """Real residual (m, 4) of the reduced equations at x = (Re ac, Im ac, Re ae, Im ae),
    and with ``jacobian`` its exact Jacobian (m, 4, 4); ``c`` holds per-point constants."""
    dc, de, kc, ke, J, cr, ci, eps_c, eps_e = c
    xr, xi, yr, yi = x.T
    n = xr * xr + xi * xi
    u = cr * xr - ci * xi  # (cr + i ci) alpha_c = u + i v
    v = cr * xi + ci * xr
    F = np.stack(
        [
            -kc * xr - dc * xi + n * u + J * yi + eps_c,
            dc * xr - kc * xi + n * v - J * yr,
            -ke * yr - de * yi + J * xi + eps_e,
            de * yr - ke * yi - J * xr,
        ],
        axis=1,
    )
    if not jacobian:
        return F
    jac = np.zeros((len(xr), 4, 4))
    jac[:, 0, 0] = -kc + 2.0 * xr * u + n * cr
    jac[:, 0, 1] = -dc + 2.0 * xi * u - n * ci
    jac[:, 0, 3] = J
    jac[:, 1, 0] = dc + 2.0 * xr * v + n * ci
    jac[:, 1, 1] = -kc + 2.0 * xi * v + n * cr
    jac[:, 1, 2] = -J
    jac[:, 2, 1] = J
    jac[:, 2, 2] = -ke
    jac[:, 2, 3] = -de
    jac[:, 3, 0] = -J
    jac[:, 3, 2] = de
    jac[:, 3, 3] = -ke
    return F, jac


def reduced_fixed_point_grid(q, tol: float = 1e-12):
    """Fixed points (alpha_c, alpha_e, converged, pole) of the reduced nonlinear system.

    Newton's method on the four real unknowns with the exact Jacobian,
    started from :func:`linear_fixed_point_grid`. A point stops when its
    step is at most ``tol`` times its largest component, when its Jacobian
    is singular or its iterate is not finite, or after NEWTON_MAX_STEPS.
    It has converged when its largest residual component is below
    max(|eps_c|, |eps_e|, 1) * 1e-8. At a ``pole`` of the linear seed the
    amplitudes are NaN and the point has not converged.
    """
    two_w = 2.0 * q["omega_m"]
    g_omega = q["g_omega"]
    coeff = np.full((2, len(two_w)), np.nan)  # nonlinear_coefficient; undefined at omega_m = 0
    np.divide((q["g_kappa"] * g_omega, 2.0 * (g_omega * g_omega)), two_w, out=coeff, where=two_w != 0.0)
    c = np.stack([
        q["delta_c"], q["delta_e"], 0.5 * q["kappa_c"], 0.5 * q["kappa_e"], q["J"],
        coeff[0], coeff[1], q["eps_c"], q["eps_e"],
    ])
    ac0, ae0, pole = linear_fixed_point_grid(q)
    x = np.stack([ac0.real, ac0.imag, ae0.real, ae0.imag], axis=1)
    active = np.flatnonzero(~pole)
    # a diverging iterate may overflow; it then stops as not finite and fails the residual test
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_STEPS):
            if not active.size:
                break
            xa = x[active]
            F, jac = _residual(c[:, active], xa, jacobian=True)
            det = np.linalg.det(jac)
            movable = np.isfinite(det) & (det != 0.0)
            step = np.zeros_like(xa)
            step[movable] = np.linalg.solve(jac[movable], -F[movable, :, None])[:, :, 0]
            xa += step
            x[active] = xa
            small = np.max(np.abs(step), axis=1) <= tol * np.max(np.abs(xa), axis=1)
            active = active[movable & ~small & np.isfinite(xa).all(axis=1)]
        residual = np.max(np.abs(_residual(c, x)), axis=1)
    scale = np.maximum(np.maximum(np.abs(q["eps_c"]), np.abs(q["eps_e"])), 1.0)
    converged = residual < scale * 1e-8
    return _complex(x[:, 0], x[:, 1]), _complex(x[:, 2], x[:, 3]), converged, pole


def reduced_fixed_point(p: SystemParams, tol: float = 1e-12) -> tuple[complex, complex, bool]:
    """Fixed point of the reduced nonlinear system.

    Newton iteration seeded from the linear solution; returns
    (alpha_c, alpha_e, converged). One point of :func:`reduced_fixed_point_grid`.
    """
    ac, ae, converged, _ = reduced_fixed_point_grid(p.as_arrays(), tol)
    return complex(ac[0]), complex(ae[0]), bool(converged[0])
