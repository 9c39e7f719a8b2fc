"""Physical parameters and model builders.

Houses the system parameter record, the derived coupling combinations used
by the closed-form correlation functions, the effective two-mode
(complex-Kerr) and full three-mode Hamiltonians, the Lindblad collapse
operators in both standard and displacement-modified form, and the
cavity-length expansion that produces the dissipative coupling rate.

Frequencies are angular rates throughout with hbar = 1; the mode ordering
on multimode spaces is fixed as (cavity c, cavity e, mechanics b).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.constants import hbar as HBAR, k as K_B

from .fock import (
    HilbertSpace,
    OperatorMatrix,
    annihilation,
    displacement_q,
    identity,
    momentum_p,
    number,
)


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose occupation 1/(exp(hbar*omega/kB*T) - 1); zero at T = 0."""
    if temperature < 0:
        raise ValueError("temperature must be nonnegative")
    if temperature == 0.0 or omega <= 0.0:
        return 0.0
    return 1.0 / np.expm1(HBAR * omega / (K_B * temperature))


@dataclass(frozen=True)
class SystemParams:
    """All rates, detunings and drives of the two-cavity optomechanical model.

    Every frequency-like field is an angular rate (rad/s). ``n_th`` is the
    thermal phonon occupation of the mechanical bath; ``t_bath`` (K) is
    optional and, when given together with ``n_th``, must be consistent
    with it through the Bose distribution at ``omega_m``.
    """

    omega_m: float = 1.0e6
    kappa_c: float = 5.0e3
    kappa_e: float = 5.0e3
    gamma: float = 0.0
    g_omega: float = 0.0
    g_kappa: float = 0.0
    J: float = 0.0
    delta_c: float = 0.0
    delta_e: float = 0.0
    eps_c: float = 0.0
    eps_e: float = 0.0
    n_th: float | None = None
    t_bath: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        for name in ("omega_m", "kappa_c", "kappa_e", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.n_th is not None and self.n_th < 0:
            raise ValueError("n_th must be nonnegative")
        if self.t_bath is not None and self.t_bath < 0:
            raise ValueError("t_bath must be nonnegative")
        if self.n_th is not None and self.t_bath is not None:
            from_t = thermal_occupation(self.omega_m, self.t_bath)
            scale = max(abs(self.n_th), abs(from_t), 1e-300)
            if abs(self.n_th - from_t) / scale > 1e-6:
                raise ValueError(
                    f"n_th={self.n_th} inconsistent with t_bath={self.t_bath} K "
                    f"(Bose occupation at omega_m gives {from_t})"
                )

    @property
    def thermal_phonons(self) -> float:
        """Mechanical bath occupation, resolved from whichever field was given."""
        if self.n_th is not None:
            return self.n_th
        if self.t_bath is not None:
            return thermal_occupation(self.omega_m, self.t_bath)
        return 0.0

    @property
    def coupling_weight_dispersive(self) -> float:
        """Dispersive weight A = g_omega / kappa_c."""
        return self.g_omega / self.kappa_c

    @property
    def coupling_weight_dissipative(self) -> float:
        """Dissipative weight B = g_kappa / kappa_c."""
        return self.g_kappa / self.kappa_c

    def with_(self, **changes) -> "SystemParams":
        return replace(self, **changes)

    def as_arrays(self) -> dict[str, np.ndarray]:
        """Each rate, detuning and drive as a one-element float array: this
        point as input to the whole-grid tier functions (``*_grid``)."""
        return {name: np.array([getattr(self, name)], dtype=float) for name in RATE_FIELDS}


# the SystemParams fields that sweeps vary and the tier functions read
RATE_FIELDS = tuple(f.name for f in fields(SystemParams) if f.name not in ("n_th", "t_bath"))


@dataclass(frozen=True)
class DerivedCouplings:
    """Combinations of couplings and detunings entering the closed-form g2."""

    G: complex
    K: float
    D_J: float
    f_A: complex
    f_B: float


def derived_couplings(p: SystemParams) -> DerivedCouplings:
    G = 2.0 * p.g_omega**2 - 1j * p.g_kappa * p.g_omega
    K = p.delta_c + p.delta_e
    # products, not ** 2: D_J is then exactly 0 at delta_c = delta_e = -J
    D_J = p.J * p.J - p.delta_c * p.delta_e
    f_A = (2.0 * p.omega_m * K + G) * D_J - G * (p.delta_e * p.delta_e)
    f_B = 2.0 * (p.J * p.J) + 2.0 * p.J * K + p.delta_c * K
    return DerivedCouplings(G=G, K=K, D_J=D_J, f_A=f_A, f_B=f_B)


# -- Hamiltonians ----------------------------------------------------------


def _check_modes(space: HilbertSpace, n: int, what: str) -> None:
    if space.n_modes != n:
        raise ValueError(f"{what} needs a {n}-mode space, got {space.n_modes} modes")


def build_effective_hamiltonian(p: SystemParams, space: HilbertSpace) -> OperatorMatrix:
    """Two-mode effective Hamiltonian with the complex-Kerr term.

    H = sum_j [-Delta_j n_j + eps_j (a_j^dag + a_j)] + J (a_c^dag a_e + h.c.)
        - G/(2 omega_m) a_c^dag a_c^dag a_c a_c,  G = 2 g_omega^2 - i g_kappa g_omega.

    Non-Hermitian whenever g_kappa * g_omega != 0; the Hermitian and
    anti-Hermitian parts are retrievable via ``hermitian_part`` /
    ``anti_hermitian_part`` on the result.
    """
    _check_modes(space, 2, "effective Hamiltonian")
    a_c = annihilation(space, 0)
    a_e = annihilation(space, 1)
    G = derived_couplings(p).G
    H = (
        -p.delta_c * number(space, 0)
        - p.delta_e * number(space, 1)
        + p.eps_c * (a_c.dag() + a_c)
        + p.eps_e * (a_e.dag() + a_e)
        + p.J * (a_c.dag() @ a_e + a_c @ a_e.dag())
        - (G / (2.0 * p.omega_m)) * (a_c.dag() @ a_c.dag() @ a_c @ a_c)
    )
    return H


def build_full_hamiltonian(p: SystemParams, space: HilbertSpace) -> OperatorMatrix:
    """Three-mode Hamiltonian (cavity c, cavity e, mechanics b), always Hermitian.

    The displacement-modified detuning gives the dispersive term
    +g_omega Q n_c; the dissipative coupling does not enter H at all, only
    the displacement-modified collapse operator.
    """
    _check_modes(space, 3, "full Hamiltonian")
    a_c = annihilation(space, 0)
    a_e = annihilation(space, 1)
    Q = displacement_q(space, 2)
    P = momentum_p(space, 2)
    n_c = number(space, 0)
    H = (
        -p.delta_c * n_c
        + p.g_omega * (Q @ n_c)
        - p.delta_e * number(space, 1)
        + 0.5 * p.omega_m * (Q @ Q + P @ P)
        + p.J * (a_c.dag() @ a_e + a_c @ a_e.dag())
        + p.eps_c * (a_c.dag() + a_c)
        + p.eps_e * (a_e.dag() + a_e)
    )
    return H


def build_collapse_ops(
    p: SystemParams, space: HilbertSpace, variant: str = "standard"
) -> list[OperatorMatrix]:
    """Collapse operators for the Lindblad dissipators.

    ``standard``: sqrt(kappa_c) a_c, sqrt(kappa_e) a_e, and on three-mode
    spaces the mechanical pair sqrt(gamma (n_th+1)) b / sqrt(gamma n_th)
    b^dag. ``displacement_modified`` (three-mode only) replaces the first
    by (sqrt(kappa_c) + g_kappa/(2 sqrt(kappa_c)) Q) a_c.

    Zero-rate operators are dropped.
    """
    if variant not in ("standard", "displacement_modified"):
        raise ValueError(f"unknown collapse variant {variant!r}")
    if space.n_modes not in (2, 3):
        raise ValueError("collapse operators are defined on 2- or 3-mode spaces")
    if variant == "displacement_modified" and space.n_modes != 3:
        raise ValueError("displacement_modified collapse needs the 3-mode space (Q lives on mode b)")

    ops: list[OperatorMatrix] = []
    a_c = annihilation(space, 0)
    if variant == "displacement_modified" and p.g_kappa != 0.0:
        if p.kappa_c <= 0.0:
            raise ValueError("displacement_modified collapse needs kappa_c > 0")
        Q = displacement_q(space, 2)
        amp = np.sqrt(p.kappa_c) * identity(space) + (p.g_kappa / (2.0 * np.sqrt(p.kappa_c))) * Q
        ops.append(amp @ a_c)
    elif p.kappa_c > 0.0:
        ops.append(np.sqrt(p.kappa_c) * a_c)
    if p.kappa_e > 0.0:
        ops.append(np.sqrt(p.kappa_e) * annihilation(space, 1))
    if space.n_modes == 3 and p.gamma > 0.0:
        b = annihilation(space, 2)
        n_th = p.thermal_phonons
        ops.append(np.sqrt(p.gamma * (n_th + 1.0)) * b)
        if n_th > 0.0:
            ops.append(np.sqrt(p.gamma * n_th) * b.dag())
    return ops


# -- cavity-length expansion (dissipative coupling origin) -----------------


@dataclass(frozen=True)
class CavityGeometry:
    """Single-ended cavity with a movable ideal end mirror."""

    length: float
    transmissivity: float
    x_zpf: float
    c_light: float = 299792458.0

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("cavity length must be positive")
        if abs(self.transmissivity) > 1:
            raise ValueError("|transmissivity| cannot exceed 1")

    @property
    def kappa_c(self) -> float:
        """Linewidth at zero displacement, c |tau|^2 / (4 L)."""
        return self.c_light * abs(self.transmissivity) ** 2 / (4.0 * self.length)

    @property
    def g_kappa(self) -> float:
        """Dissipative coupling per zero-point motion, -(kappa_c / L) x_zpf."""
        return -(self.kappa_c / self.length) * self.x_zpf


def kappa_of_displacement(geom: CavityGeometry, x: float, order: str = "exact") -> float:
    """Cavity linewidth at mirror displacement x (meters)."""
    if geom.length + x <= 0:
        raise ValueError("displaced cavity length L + x must stay positive")
    if order == "exact":
        return geom.c_light * abs(geom.transmissivity) ** 2 / (4.0 * (geom.length + x))
    if order == "first":
        return geom.kappa_c * (1.0 - x / geom.length)
    raise ValueError(f"unknown expansion order {order!r}")


def sqrt_kappa_expansion(geom: CavityGeometry, q: float) -> float:
    """First-order amplitude sqrt(kappa_c) (1 + g_kappa/(2 kappa_c) Q).

    Relative error against sqrt(kappa_c + g_kappa Q) is second order in
    g_kappa Q / kappa_c; outside |g_kappa Q / kappa_c| < 2 the linearized
    amplitude is unreliable (it can even go negative) and a warning is
    issued.
    """
    kc = geom.kappa_c
    ratio = geom.g_kappa * q / kc
    if abs(ratio) >= 2.0:
        warnings.warn(
            f"sqrt-kappa expansion outside its validity range: |g_kappa Q / kappa_c| = {abs(ratio):.3g} >= 2",
            stacklevel=2,
        )
    return np.sqrt(kc) * (1.0 + 0.5 * ratio)
