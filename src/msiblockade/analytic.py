"""Closed-form weak-driving machinery.

Implements the truncated-ansatz amplitude equations (vacuum, single and
double excitations of the two optical modes), their steady states, the
resulting zero-delay second-order correlations, and the effective
noise / temperature of the reduced optical model.

The closed-form correlations and the amplitude steady states are computed
over whole parameter grids as arrays (``g2_analytic_grid``,
``amplitude_steady_states_grid``); ``g2_analytic`` and
``amplitude_steady_states`` evaluate the same code on one point.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.constants import hbar as HBAR, k as K_B
from scipy.integrate import solve_ivp

from .model import SystemParams, derived_couplings, thermal_occupation


class PoleStatus(enum.Enum):
    """Why a closed-form value is reported as infinite, or not at all.

    The three poles are zeros of a denominator. ``UNDEFINED`` is the
    amplitude route's status where its double-excitation amplitudes are not
    finite without a pole: at omega_m = 0 the Kerr shift G/(2 omega_m) is
    undefined (sweep rows write ``amps:undefined``).
    """

    OK = "ok"
    POLE_DJ = "pole_DJ"
    POLE_FA = "pole_fA"
    POLE_J_PLUS_DELTA_C = "pole_JplusDeltaC"
    UNDEFINED = "undefined"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class G2Result:
    g2_c: float
    g2_e: float
    status_c: PoleStatus = PoleStatus.OK
    status_e: PoleStatus = PoleStatus.OK


# -- whole-grid evaluation ---------------------------------------------------
#
# The functions ending in ``_grid`` take a mapping from SystemParams field
# names to equal-length float arrays (``SweepSpec.param_arrays`` for a sweep,
# ``SystemParams.as_arrays`` for one point) and evaluate every point at once.
# Complex quantities are carried as separate real and imaginary arrays and
# combined with CPython's complex formulas, so each point's result is
# independent of the array it sits in and agrees with scalar Python complex
# arithmetic; squares are products (x * x), so D_J = J*J - dc*de is exactly
# 0 at dc = de = -J. Poles are boolean masks; no division by zero is done.


def _cdiv(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) elementwise, as CPython divides complex numbers.

    Every denominator must be nonzero.
    """
    rr = np.empty(np.shape(br))
    ri = np.empty(np.shape(br))
    ar, ai = np.broadcast_to(ar, rr.shape), np.broadcast_to(ai, rr.shape)
    # through the larger of the denominator's parts
    m = np.abs(br) >= np.abs(bi)
    ratio = bi[m] / br[m]
    denom = br[m] + bi[m] * ratio
    rr[m] = (ar[m] + ai[m] * ratio) / denom
    ri[m] = (ai[m] - ar[m] * ratio) / denom
    m = ~m
    ratio = br[m] / bi[m]
    denom = br[m] * ratio + bi[m]
    rr[m] = (ar[m] * ratio + ai[m]) / denom
    ri[m] = (ai[m] * ratio - ar[m]) / denom
    return rr, ri


def _abs2(re, im):
    """|re + i im|^2 as hypot(re, im) squared, the value abs(z) ** 2 rounds to."""
    h = np.hypot(re, im)
    return h * h


def _couplings(q):
    """Real and imaginary parts of G, and K, D_J, f_A, f_B (see derived_couplings)."""
    g_omega, g_kappa = q["g_omega"], q["g_kappa"]
    J, dc, de = q["J"], q["delta_c"], q["delta_e"]
    G_r = 2.0 * (g_omega * g_omega)
    G_i = -(g_kappa * g_omega)
    K = dc + de
    D_J = J * J - dc * de
    de2 = de * de
    f_A_r = (2.0 * q["omega_m"] * K + G_r) * D_J - G_r * de2
    f_A_i = G_i * D_J - G_i * de2
    f_B = 2.0 * (J * J) + 2.0 * J * K + dc * K
    return G_r, G_i, K, D_J, f_A_r, f_A_i, f_B


def g2_analytic_grid(q):
    """Closed-form (g2_c, g2_e, pole_fA, pole_JplusDeltaC) over parameter arrays.

    The formulas and poles are those of :func:`g2_analytic`: both values
    are +inf where ``pole_fA`` (f_A = 0), g2_e is +inf where
    ``pole_JplusDeltaC`` (J + Delta_c = 0 off the f_A pole).
    """
    G_r, G_i, K, D_J, f_A_r, f_A_i, f_B = _couplings(q)
    wK = 2.0 * q["omega_m"] * K
    jc = q["J"] + q["delta_c"]
    pole_fA = (f_A_r == 0.0) & (f_A_i == 0.0)
    pole_jc = ~pole_fA & (jc == 0.0)
    g2_c = np.full(len(K), np.inf)
    g2_e = np.full(len(K), np.inf)
    c = ~pole_fA
    g2_c[c] = _abs2(*_cdiv(wK[c] * D_J[c], 0.0, f_A_r[c], f_A_i[c]))
    e = c & ~pole_jc
    jc2 = jc[e] * jc[e]
    num_r = D_J[e] * (G_r[e] * f_B[e] + wK[e] * jc2)
    num_i = D_J[e] * (G_i[e] * f_B[e])
    g2_e[e] = _abs2(*_cdiv(num_r, num_i, jc2 * f_A_r[e], jc2 * f_A_i[e]))
    return g2_c, g2_e, pole_fA, pole_jc


def g2_analytic(p: SystemParams) -> G2Result:
    """Zero-delay second-order correlations of both cavities at kappa = 0.

    g2_c = |2 omega_m K D_J / f_A|^2
    g2_e = |D_J [G f_B + 2 omega_m K (J+Delta_c)^2] / ((J+Delta_c)^2 f_A)|^2

    Vanishing denominators are reported as +inf with a status flag rather
    than raising. One point of :func:`g2_analytic_grid`.
    """
    g2_c, g2_e, pole_fA, pole_jc = g2_analytic_grid(p.as_arrays())
    if pole_fA[0]:
        return G2Result(math.inf, math.inf, PoleStatus.POLE_FA, PoleStatus.POLE_FA)
    if pole_jc[0]:
        return G2Result(float(g2_c[0]), math.inf, PoleStatus.OK, PoleStatus.POLE_J_PLUS_DELTA_C)
    return G2Result(float(g2_c[0]), float(g2_e[0]))


@dataclass(frozen=True)
class TruncatedState:
    """Amplitudes of the weak-driving ansatz |psi> over {|00>,|10>,|01>,|11>,|20>,|02>}."""

    c0: complex = 1.0
    cc: complex = 0.0
    ce: complex = 0.0
    cce: complex = 0.0
    ccc: complex = 0.0
    cee: complex = 0.0
    status: PoleStatus = PoleStatus.OK

    def occupations(self) -> tuple[float, float]:
        n_c, n_e = amplitude_occupations(self.cc, self.ce, self.cce, self.ccc, self.cee)
        return float(n_c), float(n_e)

    def g2(self) -> tuple[float, float]:
        """(g2_c, g2_e) from the leading-order amplitude ratios 2|C_jj|^2 / |C_j|^4."""
        g2_c = math.inf if self.cc == 0 else 2.0 * abs(self.ccc) ** 2 / abs(self.cc) ** 4
        g2_e = math.inf if self.ce == 0 else 2.0 * abs(self.cee) ** 2 / abs(self.ce) ** 4
        return g2_c, g2_e

    def hierarchy_ok(self, ratio: float = 5.0) -> bool:
        """Diagnostic: |C0| >> singles >> doubles, by the given magnitude ratio."""
        singles = max(abs(self.cc), abs(self.ce))
        doubles = max(abs(self.cce), abs(self.ccc), abs(self.cee))
        if singles == 0.0:
            return doubles == 0.0
        return abs(self.c0) >= ratio * singles and (doubles == 0.0 or singles >= ratio * doubles)


def amplitude_occupations(cc, ce, cce, ccc, cee):
    """(n_c, n_e) = (|Cc|^2 + |Cce|^2 + 2|Ccc|^2, |Ce|^2 + |Cce|^2 + 2|Cee|^2), elementwise."""
    double = _abs2(np.real(cce), np.imag(cce))
    n_c = _abs2(np.real(cc), np.imag(cc)) + double + 2.0 * _abs2(np.real(ccc), np.imag(ccc))
    n_e = _abs2(np.real(ce), np.imag(ce)) + double + 2.0 * _abs2(np.real(cee), np.imag(cee))
    return n_c, n_e


def amplitude_steady_states_grid(q):
    """Steady amplitudes (cc, ce, cce, ccc, cee, pole_DJ, pole_fA) over parameter arrays.

    The equations are those of :func:`amplitude_steady_states`, for drives
    ``q["eps_c"]`` (equal to ``q["eps_e"]``, which callers check). Zero
    drive gives the vacuum; ``pole_DJ`` marks a singular single-excitation
    system (D_J = 0), ``pole_fA`` a singular double-excitation one
    (stacked 3x3 determinant 0). Amplitudes a pole leaves undetermined are
    NaN, as are the doubles where the 3x3 system is not finite (omega_m = 0).
    """
    eps = q["eps_c"]
    n = len(eps)
    cc = np.zeros(n)
    ce = np.zeros(n)
    doubles = np.zeros((n, 3), dtype=complex)
    driven = eps != 0.0
    G_r, G_i, K, D_J, *_ = _couplings(q)
    pole_DJ = driven & (D_J == 0.0)
    live = driven & ~pole_DJ
    cc[pole_DJ] = ce[pole_DJ] = np.nan
    doubles[pole_DJ] = np.nan
    J, dc, de, e = q["J"][live], q["delta_c"][live], q["delta_e"][live], eps[live]
    d = D_J[live]
    cc_l = -e * (J + de) / d
    ce_l = -e * (J + dc) / d
    cc[live], ce[live] = cc_l, ce_l
    # doubles: linear 3x3 in (Cce, Ccc, Cee), Kerr shift G/(2 omega_m) on Ccc
    s2 = math.sqrt(2.0)
    two_w = 2.0 * q["omega_m"][live]
    kerr = np.full((2, len(J)), np.nan)  # undefined at omega_m = 0
    np.divide((G_r[live], G_i[live]), two_w, out=kerr, where=two_w != 0.0)
    m = np.zeros((len(J), 3, 3), dtype=complex)
    m[:, 0, 0] = K[live]
    m[:, 0, 1] = m[:, 0, 2] = m[:, 1, 0] = m[:, 2, 0] = -s2 * J
    m[:, 1, 1].real = 2.0 * (dc + kerr[0])
    m[:, 1, 1].imag = 2.0 * kerr[1]
    m[:, 2, 2] = 2.0 * de
    rhs = np.empty((len(J), 3, 1), dtype=complex)
    rhs[:, 0, 0] = e * (cc_l + ce_l)
    rhs[:, 1, 0] = s2 * e * cc_l
    rhs[:, 2, 0] = s2 * e * ce_l
    det = np.full(len(J), np.nan, dtype=complex)
    finite = np.isfinite(m).all(axis=(1, 2))
    det[finite] = np.linalg.det(m[finite])
    singular = det == 0.0
    solvable = np.isfinite(det) & ~singular
    pole_fA = np.zeros(n, dtype=bool)
    live_idx = np.flatnonzero(live)
    pole_fA[live_idx[singular]] = True
    doubles[live_idx[~solvable]] = np.nan
    doubles[live_idx[solvable]] = np.linalg.solve(m[solvable], rhs[solvable])[:, :, 0]
    return cc, ce, doubles[:, 0], doubles[:, 1], doubles[:, 2], pole_DJ, pole_fA


def amplitude_steady_states(p: SystemParams) -> TruncatedState:
    """Steady state of the weak-driving amplitude equations at kappa = 0.

    Solved exactly from the linear single- and double-excitation systems
    (with C0 = 1) rather than from pre-expanded closed forms; the resulting
    g2 ratios reproduce the closed-form correlations to machine precision.
    Requires equal drives eps_c = eps_e. One point of
    :func:`amplitude_steady_states_grid`. Where the doubles are not finite
    without a pole (driven, D_J != 0, omega_m = 0) the status is
    ``UNDEFINED`` and they are NaN.
    """
    if p.eps_c != p.eps_e:
        raise ValueError("amplitude steady states assume equal drives eps_c = eps_e")
    cc, ce, cce, ccc, cee, pole_DJ, pole_fA = amplitude_steady_states_grid(p.as_arrays())
    if pole_DJ[0]:
        return TruncatedState(status=PoleStatus.POLE_DJ)
    if pole_fA[0]:
        return TruncatedState(cc=float(cc[0]), ce=float(ce[0]), status=PoleStatus.POLE_FA)
    doubles = complex(cce[0]), complex(ccc[0]), complex(cee[0])
    status = PoleStatus.OK if all(map(cmath.isfinite, doubles)) else PoleStatus.UNDEFINED
    return TruncatedState(1.0, float(cc[0]), float(ce[0]), *doubles, status)


def amplitude_dynamics(
    p: SystemParams,
    t_grid,
    initial: TruncatedState | None = None,
    damping: float = 0.0,
    rtol: float = 1e-10,
) -> list[TruncatedState]:
    """Integrate the five coupled amplitude ODEs over ``t_grid``.

    ``damping`` adds a small uniform decay -damping * C to every excited
    amplitude; the undamped linear system oscillates forever, so
    steady-state comparisons use a vanishing regularizer (~1e-6 omega_m).
    C0 is held constant (its depletion is beyond the truncation order).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if initial is None:
        initial = TruncatedState()
    c0 = complex(initial.c0)
    d = derived_couplings(p)
    kerr = d.G / (2.0 * p.omega_m)
    s2 = math.sqrt(2.0)

    def rhs(t, y):
        cc, ce, cce, ccc, cee = y[:5] + 1j * y[5:]
        dcc = -1j * (p.eps_c * c0 + p.J * ce - p.delta_c * cc) - damping * cc
        dce = -1j * (p.eps_e * c0 + p.J * cc - p.delta_e * ce) - damping * ce
        dcce = -1j * (p.eps_e * cc + p.eps_c * ce + s2 * p.J * (cee + ccc) - d.K * cce) - damping * cce
        dccc = -1j * (s2 * p.eps_c * cc + s2 * p.J * cce - 2.0 * (p.delta_c + kerr) * ccc) - damping * ccc
        dcee = -1j * (s2 * p.eps_e * ce + s2 * p.J * cce - 2.0 * p.delta_e * cee) - damping * cee
        dz = np.array([dcc, dce, dcce, dccc, dcee])
        return np.concatenate([dz.real, dz.imag])

    y0 = np.array([initial.cc, initial.ce, initial.cce, initial.ccc, initial.cee], dtype=complex)
    y0 = np.concatenate([y0.real, y0.imag])
    t0 = min(0.0, t_grid[0])
    sol = solve_ivp(rhs, (t0, t_grid[-1]), y0, t_eval=t_grid, method="DOP853", rtol=rtol, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"amplitude integration failed: {sol.message}")
    states = []
    for k in range(sol.y.shape[1]):
        cc, ce, cce, ccc, cee = sol.y[:5, k] + 1j * sol.y[5:, k]
        states.append(TruncatedState(c0=c0, cc=cc, ce=ce, cce=cce, ccc=ccc, cee=cee))
    return states


# -- effective noise and temperature ---------------------------------------


@dataclass(frozen=True)
class NoiseReport:
    """Effective environmental excitation seen by the reduced optical model."""

    n_eff: float
    xi_amp: float
    t_eff: float
    clamped: bool = False
    complex_term_taken_by_magnitude: bool = False
    notes: tuple[str, ...] = field(default_factory=tuple)


def effective_noise(p: SystemParams, n_photon: float, t_bath: float) -> NoiseReport:
    """Effective noise occupation of the reduced optical model.

    n_eff is the bracketed combination of the coupling rates, the mean
    photon number N and the thermal phonon number, divided by kappa_c; the
    noise amplitude is sqrt(n_eff).

    The first term's coefficient is complex as printed in the source
    closed form while the left-hand side is a nonnegative occupation; its
    contribution is folded in by magnitude and flagged. The factorial-
    moment factors (N^3 - 3N^2 + 2N) and (N - 1) are clamped at zero below
    threshold (they descend from nonnegative normally-ordered moments);
    clamping is flagged.
    """
    if n_photon < 0:
        raise ValueError("mean photon number must be nonnegative")
    if t_bath < 0:
        raise ValueError("bath temperature must be nonnegative")
    N = float(n_photon)
    wm2 = p.omega_m**2
    kc = p.kappa_c
    n_th = thermal_occupation(p.omega_m, t_bath)
    notes = []

    cubic = N**3 - 3.0 * N**2 + 2.0 * N
    linear = N - 1.0
    clamped = cubic < 0.0 or linear < 0.0
    if clamped:
        notes.append("factorial-moment radicand clamped at zero")
    factor1 = math.sqrt(6.0 * max(cubic, 0.0)) - N * math.sqrt(max(linear, 0.0))
    term1 = (p.g_kappa**4 + 2j * p.g_omega * p.g_kappa**3) / (16.0 * wm2 * kc**1.5)
    complex_term = term1.imag != 0.0 and factor1 != 0.0
    if complex_term:
        notes.append("complex first coefficient folded in by magnitude")
    contrib1 = abs(term1 * factor1)
    contrib2 = (4.0 * p.g_omega**2 * p.g_kappa**2 + p.g_kappa**4) / (16.0 * wm2 * kc) * max(N**2 - N, 0.0)
    contrib3 = (p.g_kappa**2 + 4.0 * p.g_omega**2) / (4.0 * wm2) * N * n_th

    n_eff = (contrib1 + contrib2 + contrib3) / kc
    return NoiseReport(
        n_eff=n_eff,
        xi_amp=math.sqrt(n_eff),
        t_eff=effective_temperature(n_eff, p.omega_m),
        clamped=clamped,
        complex_term_taken_by_magnitude=complex_term,
        notes=tuple(notes),
    )


def effective_temperature(n_eff: float, omega_ref: float) -> float:
    """Temperature whose Bose occupation at omega_ref equals n_eff; 0 at n_eff = 0."""
    if n_eff < 0:
        raise ValueError("occupation must be nonnegative")
    if n_eff == 0.0:
        return 0.0
    return HBAR * omega_ref / (K_B * math.log1p(1.0 / n_eff))
