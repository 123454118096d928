"""Two-qubit chain between two bosonic baths, with optional transverse drive.

System Hamiltonian (qubit 1 is the left tensor factor):

    H_S(t) = Σ_i [ε_i σ_i^z + f_i(t) σ_i^x] + λ (σ_1^+ σ_2^- + σ_1^- σ_2^+),
    f_i(t) = a_i sin(ω_i t).

Each qubit couples to its own bath.  The dissipator uses jump operators in
the instantaneous single-qubit eigenbasis |e(t)⟩, |g(t)⟩ obtained by the
rotation tan θ_i = f_i/ε_i, with rates carrying the zeroth-order decay rate
plus the first-order finite-memory correction:

    γ_i^z = γ(0) sin²θ + γ¹(0) sinθ d(sinθ)/dt
    γ_i^∓ = γ(±2E_i) cos²θ + γ¹(±2E_i) cosθ d(cosθ)/dt,   E_i = (ε_i² + f_i²)^½

where γ¹ denotes twice the real part of the memory-correction rate.  With
the drive off (θ = 0) the generator reduces exactly to the static local
master equation with rates γ(±2ε_i); both right-hand sides then agree bit
for bit.

The generator applied to ρ is

    dρ/dt = -i[H_S, ρ] + ζ² Σ_i { γ_i^z (ŝ_z ρ ŝ_z - ρ)
            + γ_i^- (ŝ_- ρ ŝ_+ - ½{ŝ_+ ŝ_-, ρ})
            + γ_i^+ (ŝ_+ ρ ŝ_- - ½{ŝ_- ŝ_+, ρ}) }.

Basis ordering: |↑↑⟩, |↑↓⟩, |↓↑⟩, |↓↓⟩.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .baths import BathParams, decay_rate, memory_correction_rate
from .errors import PositivityError
from .linalg import embed_qubit_op

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

SX = (embed_qubit_op(PAULI_X, 1), embed_qubit_op(PAULI_X, 2))
SZ = (embed_qubit_op(PAULI_Z, 1), embed_qubit_op(PAULI_Z, 2))
SP = (embed_qubit_op(SIGMA_PLUS, 1), embed_qubit_op(SIGMA_PLUS, 2))
SM = (embed_qubit_op(SIGMA_MINUS, 1), embed_qubit_op(SIGMA_MINUS, 2))
HOP = SP[0] @ SM[1] + SM[0] @ SP[1]

IDENTITY4 = np.eye(4, dtype=complex)


def _non_negative_violations(name: str, value: float) -> list:
    if not math.isfinite(value):
        return [f"{name} must be finite, got {value}"]
    if value < 0:
        return [f"{name} must be non-negative, got {value}"]
    return []


@dataclass(frozen=True)
class QubitParams:
    """Splitting ε and transverse drive f(t) = a sin(ωt) for one qubit."""

    epsilon: float
    drive_amplitude: float = 0.0
    drive_frequency: float = 0.0

    def __post_init__(self):
        problems = []
        if not self.epsilon > 0:
            problems.append(f"epsilon must be positive, got {self.epsilon}")
        for name in ("drive_amplitude", "drive_frequency"):
            problems += _non_negative_violations(name, getattr(self, name))
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True)
class SystemConfig:
    """Full model parameters: two qubits, two baths, couplings."""

    qubit1: QubitParams
    qubit2: QubitParams
    bath1: BathParams
    bath2: BathParams
    coupling: float       # exchange coupling λ
    zeta2: float          # squared system-bath coupling ζ²

    def __post_init__(self):
        problems = []
        for name in ("zeta2", "coupling"):
            problems += _non_negative_violations(name, getattr(self, name))
        if problems:
            raise ValueError("; ".join(problems))
        min_gap = 2.0 * min(self.qubit1.epsilon, self.qubit2.epsilon)
        if abs(self.coupling) > 0.5 * min_gap:
            warnings.warn(
                f"exchange coupling {self.coupling} is not small against the "
                f"minimal gap {min_gap}; the weak-coupling premise is strained",
                stacklevel=2,
            )
        if self.is_driven and not (self.bath1.high_temperature and self.bath2.high_temperature):
            warnings.warn(
                "driven rates use high-temperature closed forms but some bath "
                "has k_B T below its cutoff",
                stacklevel=2,
            )

    @property
    def is_driven(self) -> bool:
        return any(
            q.drive_amplitude != 0.0 and q.drive_frequency != 0.0
            for q in (self.qubit1, self.qubit2)
        )

    def qubit(self, i: int) -> QubitParams:
        if i == 1:
            return self.qubit1
        if i == 2:
            return self.qubit2
        raise ValueError(f"qubit index must be 1 or 2, got {i}")

    def bath(self, i: int) -> BathParams:
        if i == 1:
            return self.bath1
        if i == 2:
            return self.bath2
        raise ValueError(f"bath index must be 1 or 2, got {i}")


def drive(i: int, t: float, cfg: SystemConfig) -> float:
    """Drive field f_i(t) = a_i sin(ω_i t)."""
    q = cfg.qubit(i)
    if q.drive_amplitude == 0.0 or q.drive_frequency == 0.0:
        # exact zero (not a signed zero from 0.0 * sin) so the static and
        # time-dependent generators coincide bitwise when the drive is off
        return 0.0
    return q.drive_amplitude * math.sin(q.drive_frequency * t)


def _drive_dot(i: int, t: float, cfg: SystemConfig) -> float:
    q = cfg.qubit(i)
    if q.drive_amplitude == 0.0 or q.drive_frequency == 0.0:
        return 0.0
    return q.drive_amplitude * q.drive_frequency * math.cos(q.drive_frequency * t)


def mixing_angle(i: int, t: float, cfg: SystemConfig) -> float:
    """θ_i(t) = arctan(f_i/ε_i)."""
    return math.atan(drive(i, t, cfg) / cfg.qubit(i).epsilon)


def _mixing_angle_dot(eps: float, f: float, fdot: float) -> float:
    return eps * fdot / (eps * eps + f * f)


def instantaneous_gap(i: int, t: float, cfg: SystemConfig) -> float:
    """Half-gap E_i(t) = (ε_i² + f_i²)^½; levels sit at ±E_i."""
    return math.hypot(cfg.qubit(i).epsilon, drive(i, t, cfg))


def bare_hamiltonian(t: float, cfg: SystemConfig) -> np.ndarray:
    """Σ_i ε_i σ_i^z + f_i(t) σ_i^x (no interaction term)."""
    return (
        cfg.qubit1.epsilon * SZ[0]
        + cfg.qubit2.epsilon * SZ[1]
        + drive(1, t, cfg) * SX[0]
        + drive(2, t, cfg) * SX[1]
    )


def interaction_hamiltonian(cfg: SystemConfig) -> np.ndarray:
    """λ (σ_1^+ σ_2^- + σ_1^- σ_2^+)."""
    return cfg.coupling * HOP


def hamiltonian(t: float, cfg: SystemConfig) -> np.ndarray:
    """Full system Hamiltonian H_S(t)."""
    return bare_hamiltonian(t, cfg) + interaction_hamiltonian(cfg)


def _sigma_hat(theta: float):
    """Qubit jump operators in the frame rotated by the mixing angle."""
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    e = np.array([c, s], dtype=complex)
    g = np.array([-s, c], dtype=complex)
    sz = np.outer(e, e.conj()) - np.outer(g, g.conj())
    sp = np.outer(e, g.conj())
    return sz, sp, sp.conj().T


def instantaneous_jump_ops(i: int, t: float, cfg: SystemConfig):
    """Embedded (ŝ_z, ŝ_+, ŝ_-) for qubit i in its instantaneous eigenbasis."""
    sz, sp, sm = _sigma_hat(mixing_angle(i, t, cfg))
    return (
        embed_qubit_op(sz, i),
        embed_qubit_op(sp, i),
        embed_qubit_op(sm, i),
    )


class _BathTerm(NamedTuple):
    sz: np.ndarray
    sp: np.ndarray
    sm: np.ndarray
    proj_ee: np.ndarray   # ŝ_+ ŝ_-
    proj_gg: np.ndarray   # ŝ_- ŝ_+
    gz: float
    gm: float
    gp: float


def _rate_triplet(eps: float, b: BathParams, f: float, fdot: float):
    theta = math.atan(f / eps)
    theta_dot = _mixing_angle_dot(eps, f, fdot)
    gap2 = 2.0 * math.hypot(eps, f)
    st = math.sin(theta)
    ct = math.cos(theta)
    dsin = ct * theta_dot
    dcos = -st * theta_dot

    gz = decay_rate(0.0, b) * st * st \
        + 2.0 * memory_correction_rate(0.0, b).real * st * dsin
    gm = decay_rate(gap2, b) * ct * ct \
        + 2.0 * memory_correction_rate(gap2, b).real * ct * dcos
    gp = decay_rate(-gap2, b) * ct * ct \
        + 2.0 * memory_correction_rate(-gap2, b).real * ct * dcos
    return theta, gz, gm, gp


def _bath_terms(i: int, cfg: SystemConfig, f: float, fdot: float) -> _BathTerm:
    q = cfg.qubit(i)
    theta, gz, gm, gp = _rate_triplet(q.epsilon, cfg.bath(i), f, fdot)
    sz, sp, sm = _sigma_hat(theta)
    sz4 = embed_qubit_op(sz, i)
    sp4 = embed_qubit_op(sp, i)
    sm4 = embed_qubit_op(sm, i)
    return _BathTerm(sz4, sp4, sm4, sp4 @ sm4, sm4 @ sp4, gz, gm, gp)


def dissipation_rates(i: int, t: float, cfg: SystemConfig):
    """Instantaneous rates (γ_z, γ_-, γ_+) for bath i.

    Not clipped: a transiently negative value is reported as-is.
    """
    _, gz, gm, gp = _rate_triplet(
        cfg.qubit(i).epsilon, cfg.bath(i),
        drive(i, t, cfg), _drive_dot(i, t, cfg),
    )
    return gz, gm, gp


def _apply_dissipator(rho: np.ndarray, term: _BathTerm) -> np.ndarray:
    out = np.zeros_like(rho)
    if term.gz != 0.0:
        out += term.gz * (term.sz @ rho @ term.sz - rho)
    out += term.gm * (
        term.sm @ rho @ term.sp - 0.5 * (term.proj_ee @ rho + rho @ term.proj_ee)
    )
    out += term.gp * (
        term.sp @ rho @ term.sm - 0.5 * (term.proj_gg @ rho + rho @ term.proj_gg)
    )
    return out


def _apply_generator(rho, h_mat, terms, zeta2):
    out = -1j * (h_mat @ rho - rho @ h_mat)
    for term in terms:
        out += zeta2 * _apply_dissipator(rho, term)
    return out


@lru_cache(maxsize=128)
def _static_parts(cfg: SystemConfig):
    h0 = hamiltonian(0.0, cfg)
    # drive fields forced to zero: the static master equation ignores them
    terms = (_bath_terms(1, cfg, 0.0, 0.0), _bath_terms(2, cfg, 0.0, 0.0))
    return h0, terms


def _td_parts(t: float, cfg: SystemConfig):
    terms = (
        _bath_terms(1, cfg, drive(1, t, cfg), _drive_dot(1, t, cfg)),
        _bath_terms(2, cfg, drive(2, t, cfg), _drive_dot(2, t, cfg)),
    )
    return hamiltonian(t, cfg), terms


def tdlme_rhs(rho: np.ndarray, t: float, cfg: SystemConfig) -> np.ndarray:
    """Right-hand side of the time-dependent master equation at time t."""
    h_mat, terms = _td_parts(t, cfg)
    return _apply_generator(rho, h_mat, terms, cfg.zeta2)


def lme_rhs(rho: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Static master equation right-hand side; drive amplitudes are ignored."""
    h0, terms = _static_parts(cfg)
    return _apply_generator(rho, h0, terms, cfg.zeta2)


def dissipator(i: int, rho: np.ndarray, t: float, cfg: SystemConfig) -> np.ndarray:
    """Single-bath dissipator 𝓛_i[ρ] at time t, without the ζ² factor."""
    term = _bath_terms(i, cfg, drive(i, t, cfg), _drive_dot(i, t, cfg))
    return _apply_dissipator(rho, term)


def _superop_sandwich(op: np.ndarray) -> np.ndarray:
    # row-major vec: vec(A ρ A†) = (A ⊗ conj(A)) vec(ρ)
    return np.kron(op, op.conj())


def _superop_left_right(op: np.ndarray) -> np.ndarray:
    eye = np.eye(op.shape[0], dtype=complex)
    return np.kron(op, eye) + np.kron(eye, op.T)


@lru_cache(maxsize=128)
def liouvillian_matrix(cfg: SystemConfig) -> np.ndarray:
    """16x16 generator matrix of the static master equation (row-major vec)."""
    h0, terms = _static_parts(cfg)
    eye16 = np.eye(16, dtype=complex)
    eye4 = np.eye(4, dtype=complex)
    liou = -1j * (np.kron(h0, eye4) - np.kron(eye4, h0.T))
    for term in terms:
        diss = np.zeros((16, 16), dtype=complex)
        if term.gz != 0.0:
            diss += term.gz * (_superop_sandwich(term.sz) - eye16)
        diss += term.gm * (
            np.kron(term.sm, term.sp.T) - 0.5 * _superop_left_right(term.proj_ee)
        )
        diss += term.gp * (
            np.kron(term.sp, term.sm.T) - 0.5 * _superop_left_right(term.proj_gg)
        )
        liou += cfg.zeta2 * diss
    return liou


def gibbs_product_state(cfg: SystemConfig) -> np.ndarray:
    """Product of single-qubit thermal states exp(-β_i ε_i σ_z)/Z_i."""
    factors = []
    for i in (1, 2):
        x = cfg.bath(i).beta * cfg.qubit(i).epsilon
        z = 2.0 * math.cosh(x)
        factors.append(np.diag([math.exp(-x) / z, math.exp(x) / z]).astype(complex))
    return np.kron(factors[0], factors[1])


def maximum_entropy_state() -> np.ndarray:
    return IDENTITY4 / 4.0


def validate_density(rho: np.ndarray, herm_tol: float = 1e-10,
                     trace_tol: float = 1e-10, eig_tol: float = 1e-8) -> None:
    """Raise if rho is not a valid density matrix within tolerances."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    dev = float(np.max(np.abs(rho - rho.conj().T)))
    if dev > herm_tol:
        raise ValueError(f"density matrix is not Hermitian (max deviation {dev:.3e})")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {tr} is not 1 within {trace_tol}")
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if low < -eig_tol:
        raise PositivityError(f"density matrix has eigenvalue {low:.3e}")
