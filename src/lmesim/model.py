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

Every rotated jump operator is linear in (1, cos θ, sin θ), so each channel's
dissipator is a fixed combination of five superoperators weighted by the
harmonics 1, cos θ, sin θ, cos 2θ, sin 2θ.  The 16x16 generator (row-major
vec) is thus one real-weighted sum of 33 fixed superoperators, built once per
configuration: -i[·, ·] of ε_1 σ_1^z + ε_2 σ_2^z + λ hop, of σ_1^x and of
σ_2^x, and 15 dissipator pieces per bath.  ``generator_coefficients`` gives
the weights at time t and ``generator`` contracts them with the basis; the
static and time-dependent right-hand sides, the Liouvillian matrix and the
per-bath dissipator all go through that one contraction.

Basis ordering: |↑↑⟩, |↑↓⟩, |↓↑⟩, |↓↓⟩.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .baths import BathParams, decay_rate, memory_correction_rate
from .errors import PositivityError
from .linalg import embed_qubit_op, kron

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
        if not 0 < self.epsilon < math.inf:
            problems.append(f"epsilon must be positive and finite, got {self.epsilon}")
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


# The rotated jump operators are linear in u(θ) = (1, cos θ, sin θ):
#   ŝ_z = cos θ σ_z + sin θ σ_x,   ŝ_∓ = ½(σ_∓ - σ_±) + ½ cos θ σ_x - ½ sin θ σ_z.
# Rows are the channels in rate order (ŝ_z, ŝ_-, ŝ_+), columns the factors of u.
_JUMP_PIECES = np.array([
    [np.zeros((2, 2)), PAULI_Z, PAULI_X],
    [0.5 * (SIGMA_MINUS - SIGMA_PLUS), 0.5 * PAULI_X, -0.5 * PAULI_Z],
    [0.5 * (SIGMA_PLUS - SIGMA_MINUS), 0.5 * PAULI_X, -0.5 * PAULI_Z],
])

# u_j u_k over the harmonics h(θ) = (1, cos θ, sin θ, cos 2θ, sin 2θ)
_PRODUCT_HARMONICS = np.array([
    [[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0]],
    [[0.0, 1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.0, 0.5]],
    [[0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.5], [0.5, 0.0, 0.0, -0.5, 0.0]],
])


def instantaneous_jump_ops(i: int, t: float, cfg: SystemConfig):
    """Embedded (ŝ_z, ŝ_+, ŝ_-) for qubit i in its instantaneous eigenbasis."""
    theta = mixing_angle(i, t, cfg)
    sz, sm, sp = np.tensordot(_JUMP_PIECES, [1.0, math.cos(theta), math.sin(theta)], (1, 0))
    return embed_qubit_op(sz, i), embed_qubit_op(sp, i), embed_qubit_op(sm, i)


@lru_cache(maxsize=128)
def _zero_frequency_rates(b: BathParams):
    """(γ(0), Re Γ¹(0)): the dephasing rates, fixed by the bath alone."""
    return decay_rate(0.0, b), memory_correction_rate(0.0, b).real


def _rate_triplet(eps: float, b: BathParams, f: float, fdot: float):
    theta = math.atan(f / eps)
    theta_dot = _mixing_angle_dot(eps, f, fdot)
    gap2 = 2.0 * math.hypot(eps, f)
    st = math.sin(theta)
    ct = math.cos(theta)
    dsin = ct * theta_dot
    dcos = -st * theta_dot

    gamma0, memory0 = _zero_frequency_rates(b)
    gz = gamma0 * st * st + 2.0 * memory0 * st * dsin
    gm = decay_rate(gap2, b) * ct * ct \
        + 2.0 * memory_correction_rate(gap2, b).real * ct * dcos
    gp = decay_rate(-gap2, b) * ct * ct \
        + 2.0 * memory_correction_rate(-gap2, b).real * ct * dcos
    return theta, gz, gm, gp


def dissipation_rates(i: int, t: float, cfg: SystemConfig):
    """Instantaneous rates (γ_z, γ_-, γ_+) for bath i.

    Not clipped: a transiently negative value is reported as-is.
    """
    _, gz, gm, gp = _rate_triplet(
        cfg.qubit(i).epsilon, cfg.bath(i),
        drive(i, t, cfg), _drive_dot(i, t, cfg),
    )
    return gz, gm, gp


@lru_cache(maxsize=1)
def _dissipator_basis() -> np.ndarray:
    """Unit-rate dissipator pieces of both baths as float pairs, (2, 15, 512).

    With ŝ = Σ_j u_j a_j, D[ŝ]ρ = Σ_jk u_j u_k (a_j ρ a_k† - ½{a_k† a_j, ρ}),
    and u_j u_k expands over the harmonics; row 5c + n of bath i is the
    harmonic-n part of D[ŝ_c(θ_i)] for channel c in rate order.
    """
    eye2 = np.eye(2)
    ops = np.array([kron(_JUMP_PIECES, eye2), kron(eye2, _JUMP_PIECES)])
    a, b = ops[:, :, :, None], ops[:, :, None, :]     # a_j, a_k per (bath, channel)
    prod = np.swapaxes(b.conj(), -1, -2) @ a
    pairs = kron(a, b.conj()) - 0.5 * (
        kron(prod, IDENTITY4) + kron(IDENTITY4, np.swapaxes(prod, -1, -2)))
    out = _PRODUCT_HARMONICS.reshape(9, 5).T @ pairs.reshape(2, 3, 9, 256)
    return out.reshape(2, 15, 256).view(float)


@lru_cache(maxsize=128)
def _basis(cfg: SystemConfig) -> np.ndarray:
    """The 33 fixed superoperators that ``generator`` weights: -i[·, ·] of
    ε_1 σ_1^z + ε_2 σ_2^z + λ hop, of σ_1^x and of σ_2^x, then the 15
    dissipator rows of bath 1 and of bath 2.  Stored as float pairs, shape
    (33, 512), so that the real weights contract with one real product."""
    h0 = cfg.qubit1.epsilon * SZ[0] + cfg.qubit2.epsilon * SZ[1] + interaction_hamiltonian(cfg)
    hams = np.array([h0, *SX])
    comm = -1j * (kron(hams, IDENTITY4) - kron(IDENTITY4, np.swapaxes(hams, -1, -2)))
    return np.vstack([comm.reshape(3, 256).view(float), *_dissipator_basis()])


def _bath_weights(i: int, cfg: SystemConfig, f: float, fdot: float):
    """Weights γ_c h_n(θ_i) of bath i's 15 dissipator rows, and whether any
    of its rates is negative."""
    theta, gz, gm, gp = _rate_triplet(cfg.qubit(i).epsilon, cfg.bath(i), f, fdot)
    harmonics = (1.0, math.cos(theta), math.sin(theta),
                 math.cos(2.0 * theta), math.sin(2.0 * theta))
    return [g * h for g in (gz, gm, gp) for h in harmonics], min(gz, gm, gp) < 0.0


def generator_coefficients(t: float, cfg: SystemConfig, static: bool = False):
    """Real weights of the 33 basis superoperators at time t, and whether any
    rate is negative there: (1, f_1, f_2, ζ² × bath-1 weights, ζ² × bath-2
    weights).  ``static`` forces both drive fields to zero."""
    (f1, d1), (f2, d2) = [
        (0.0, 0.0) if static else (drive(i, t, cfg), _drive_dot(i, t, cfg))
        for i in (1, 2)
    ]
    w1, neg1 = _bath_weights(1, cfg, f1, d1)
    w2, neg2 = _bath_weights(2, cfg, f2, d2)
    coeffs = [1.0, f1, f2, *(cfg.zeta2 * w for w in w1 + w2)]
    return np.array(coeffs), neg1 or neg2


def generator(t: float, cfg: SystemConfig, static: bool = False):
    """16x16 generator at time t (row-major vec), and whether any rate is
    negative there.  ``static`` forces both drive fields to zero."""
    coeffs, neg = generator_coefficients(t, cfg, static)
    return (coeffs @ _basis(cfg)).view(complex).reshape(16, 16), neg


def tdlme_rhs(rho: np.ndarray, t: float, cfg: SystemConfig) -> np.ndarray:
    """Right-hand side of the time-dependent master equation at time t."""
    return (generator(t, cfg)[0] @ rho.reshape(16)).reshape(4, 4)


def lme_rhs(rho: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Static master equation right-hand side; drive amplitudes are ignored."""
    return (liouvillian_matrix(cfg) @ rho.reshape(16)).reshape(4, 4)


def dissipator(i: int, rho: np.ndarray, t, cfg: SystemConfig) -> np.ndarray:
    """Single-bath dissipator 𝓛_i[ρ] at time t, without the ζ² factor.

    ``rho`` may also be an (n, 4, 4) stack of states with ``t`` their n
    times.  An undriven configuration's superoperator does not depend on t,
    so it is built once and broadcast over the stack; a driven one is built
    per time from that time's weights.
    """
    times = np.atleast_1d(t) if cfg.is_driven else (0.0,)
    weights = np.array([
        _bath_weights(i, cfg, drive(i, s, cfg), _drive_dot(i, s, cfg))[0]
        for s in times
    ])
    superops = (weights @ _dissipator_basis()[i - 1]).view(complex).reshape(-1, 16, 16)
    return (superops @ rho.reshape(-1, 16, 1)).reshape(rho.shape)


@lru_cache(maxsize=128)
def liouvillian_matrix(cfg: SystemConfig) -> np.ndarray:
    """16x16 generator matrix of the static master equation (row-major vec)."""
    return generator(0.0, cfg, static=True)[0]


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
