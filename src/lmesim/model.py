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

where γ¹ denotes twice the real part of the memory-correction rate,
``baths.memory_correction_real``.  With the drive off (θ = 0) the generator
reduces exactly to the static local master equation with rates γ(±2ε_i);
both right-hand sides then agree bit for bit.

The generator applied to ρ is

    dρ/dt = -i[H_S, ρ] + ζ² Σ_i { γ_i^z (ŝ_z ρ ŝ_z - ρ)
            + γ_i^- (ŝ_- ρ ŝ_+ - ½{ŝ_+ ŝ_-, ρ})
            + γ_i^+ (ŝ_+ ρ ŝ_- - ½{ŝ_- ŝ_+, ρ}) }.

Every rotated jump operator is linear in (1, cos θ, sin θ), so each channel's
dissipator is a fixed combination of five superoperators weighted by the
harmonics 1, cos θ, sin θ, cos 2θ, sin 2θ.  The generator is thus one
real-weighted sum of 33 fixed superoperators, built once per configuration:
-i[·, ·] of ε_1 σ_1^z + ε_2 σ_2^z + λ hop, of σ_1^x and of σ_2^x (the pieces
of H_S, ``hamiltonian_pieces``), and 15 dissipator pieces per bath.  Each maps
Hermitian operators to Hermitian ones, so in the orthonormal Hermitian basis
Q_a = σ_j ⊗ σ_k / 2 (``HERMITIAN_BASIS`` U; the coherence vector of Alicki &
Lendi, LNP 286) the generator is a real 16x16 matrix G on the coordinates
r = U†v (``coordinates``) of the row-major vec v, with an exactly zero trace
row, and Tr(A B) = a · b.  ``coefficient_table`` gives the weights at an array
of times in one NumPy pass (``static_table``: drive off), which
``real_generator_stack``, ``real_liouvillian`` and, bath rows only,
``bath_dissipators`` contract with the real basis; ``liouvillian_matrix``
(U G U†), the right-hand side ``tdlme_rhs`` and the rates are views on them.
Undriven weights keep the bits of the scalar formula; driven ones can
differ in the last bit, where NumPy's arctan and hypot differ from ``math``'s.

Basis ordering: |↑↑⟩, |↑↓⟩, |↓↑⟩, |↓↓⟩.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .baths import BathParams, decay_rate, memory_correction_real
from .errors import ConfigError, PositivityError
from .linalg import embed_qubit_op, kron, require_finite

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

SX = (embed_qubit_op(PAULI_X, 1), embed_qubit_op(PAULI_X, 2))
SZ = (embed_qubit_op(PAULI_Z, 1), embed_qubit_op(PAULI_Z, 2))
SP = (embed_qubit_op(SIGMA_PLUS, 1), embed_qubit_op(SIGMA_PLUS, 2))
SM = (embed_qubit_op(SIGMA_MINUS, 1), embed_qubit_op(SIGMA_MINUS, 2))
HOP = SP[0] @ SM[1] + SM[0] @ SP[1]

IDENTITY4 = np.eye(4, dtype=complex)
_PAULIS = np.array([np.eye(2), PAULI_X, PAULI_Y, PAULI_Z])
#: U: column a = 4j + k is the row-major vec of Q_a = σ_j ⊗ σ_k / 2 (σ_0 = I),
#: an orthonormal Hermitian basis; r = U†v are the real coordinates Tr(Q_a ρ)
HERMITIAN_BASIS = 0.5 * kron(_PAULIS[:, None], _PAULIS).reshape(16, 16).T.copy()
_SIGNS = np.array([[1.0], [-1.0]])

#: `validate_density` limits on |ρ - ρ†| entries, |Tr ρ - 1| and -λ_min(ρ)
DENSITY_HERM_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_TOL = 1e-8


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
        # a subnormal ω overflows the period that the default step scans
        if self.drive_frequency > 0 and math.isinf(2.0 * math.pi / self.drive_frequency):
            problems.append("drive_frequency must be 0 or give a finite period 2π/ω, "
                            f"got {self.drive_frequency}")
        if problems:
            raise ConfigError(problems)

    @property
    def is_driven(self) -> bool:
        return self.drive_amplitude != 0.0 and self.drive_frequency != 0.0


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
            raise ConfigError(problems)
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
        return self.qubit1.is_driven or self.qubit2.is_driven

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


def drive(i: int, t, cfg: SystemConfig):
    """Drive field f_i(t) = a_i sin(ω_i t); ``t`` may be an array of times."""
    cfg.qubit(i)    # rejects an index other than 1 or 2
    return _drive_fields(t, cfg)[0][i - 1].reshape(np.shape(t))[()]


def _drive_fields(t, cfg: SystemConfig):
    """f_i and ḟ_i at the time or times t, two (2, m) arrays; exact zeros
    (not signed zeros from 0.0 * sin) for an undriven qubit, so that the
    drive-off generators coincide bitwise."""
    times = np.asarray(t, dtype=float).reshape(-1)
    f = np.zeros((2, times.size))
    fdot = np.zeros((2, times.size))
    for i, q in enumerate((cfg.qubit1, cfg.qubit2)):
        if q.is_driven:
            phase = q.drive_frequency * times
            f[i] = q.drive_amplitude * np.sin(phase)
            fdot[i] = q.drive_amplitude * q.drive_frequency * np.cos(phase)
    return f, fdot


def instantaneous_gap(i: int, t, cfg: SystemConfig):
    """Half-gap E_i(t) = (ε_i² + f_i²)^½, levels at ±E_i; t may be an array."""
    return np.hypot(cfg.qubit(i).epsilon, drive(i, t, cfg))


def bare_hamiltonian(t, cfg: SystemConfig) -> np.ndarray:
    """Σ_i ε_i σ_i^z + f_i(t) σ_i^x (no interaction term); an array of times
    gives the stack of their Hamiltonians."""
    f = _drive_fields(t, cfg)[0][:, :, None, None]
    h0, sx1, sx2, _ = hamiltonian_pieces(cfg)
    return (h0 + f[0] * sx1 + f[1] * sx2).reshape(np.shape(t) + (4, 4))


def interaction_hamiltonian(cfg: SystemConfig) -> np.ndarray:
    """λ (σ_1^+ σ_2^- + σ_1^- σ_2^+)."""
    return cfg.coupling * HOP


def hamiltonian_pieces(cfg: SystemConfig) -> np.ndarray:
    """The (4, 4, 4) pieces ε_1 σ_1^z + ε_2 σ_2^z, σ_1^x, σ_2^x and λ hop of H_S."""
    return np.array([cfg.qubit1.epsilon * SZ[0] + cfg.qubit2.epsilon * SZ[1], *SX,
                     interaction_hamiltonian(cfg)])


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


@lru_cache(maxsize=128)
def _zero_frequency_rates(b: BathParams):
    """(γ(0), Re Γ¹(0)): the dephasing rates, fixed by the bath alone."""
    return decay_rate(0.0, b), memory_correction_real(0.0, b)


def _bath_rates(i: int, cfg: SystemConfig, f: np.ndarray, fdot: np.ndarray):
    """Rates (γ_z, γ_-, γ_+) of bath i at the (2, m) drive values f, ḟ, shape
    (3, m), and the weights γ_c h_n(θ_i) of its 15 dissipator rows, shape
    (m, 15); one array call per rate function."""
    eps = cfg.qubit(i).epsilon
    b = cfg.bath(i)
    f, fdot = f[i - 1], fdot[i - 1]
    theta = np.arctan(f / eps)
    theta_dot = eps * fdot / (eps * eps + f * f)
    st = np.sin(theta)
    ct = np.cos(theta)
    dsin = ct * theta_dot
    dcos = -st * theta_dot

    gamma0, memory0 = _zero_frequency_rates(b)
    gaps = _SIGNS * (2.0 * np.hypot(eps, f))      # ±2E_i
    rates = np.empty((3, f.size))
    rates[0] = gamma0 * st * st + 2.0 * memory0 * st * dsin
    rates[1:] = decay_rate(gaps, b) * ct * ct \
        + 2.0 * memory_correction_real(gaps, b) * ct * dcos
    harmonics = np.array([np.ones(f.size), ct, st, np.cos(2.0 * theta), np.sin(2.0 * theta)])
    return rates, (rates.T[:, :, None] * harmonics.T[:, None, :]).reshape(-1, 15)


def coefficient_table(times, cfg: SystemConfig):
    """(m, 33) weights of the basis at the m times, rows (1, f_1, f_2, ζ² ×
    bath-1 weights, ζ² × bath-2 weights), and the (m,) flags of a negative
    rate."""
    return _weights(*_drive_fields(times, cfg), cfg)


def _weights(f: np.ndarray, fdot: np.ndarray, cfg: SystemConfig):
    """`coefficient_table` at the (2, m) drive values f and ḟ."""
    (r1, w1), (r2, w2) = (_bath_rates(i, cfg, f, fdot) for i in (1, 2))
    table = np.concatenate([np.ones((len(w1), 1)), f.T, cfg.zeta2 * w1, cfg.zeta2 * w2],
                           axis=1)
    return table, ((r1 < 0.0) | (r2 < 0.0)).any(axis=0)


def dissipation_rates(i: int, t, cfg: SystemConfig):
    """Instantaneous rates (γ_z, γ_-, γ_+) for bath i at time t (three arrays
    for an array of times); not clipped, a negative value is reported as-is."""
    f, fdot = _drive_fields(t, cfg)
    rates = _bath_rates(i, cfg, f, fdot)[0]
    return tuple(r.reshape(np.shape(t))[()] for r in rates)


@lru_cache(maxsize=128)
def _basis(cfg: SystemConfig) -> np.ndarray:
    """The 33 fixed superoperators (row-major vec) that the table weights,
    shape (33, 16, 16): -i[·, ·] of ε_1 σ_1^z + ε_2 σ_2^z + λ hop, of σ_1^x
    and of σ_2^x, then the 15 unit-rate dissipator rows of bath 1 and of bath 2.

    With ŝ = Σ_j u_j a_j, D[ŝ]ρ = Σ_jk u_j u_k (a_j ρ a_k† - ½{a_k† a_j, ρ}),
    and u_j u_k expands over the harmonics; row 5c + n of bath i is the
    harmonic-n part of D[ŝ_c(θ_i)] for channel c in rate order.
    """
    h0, sx1, sx2, h_int = hamiltonian_pieces(cfg)
    hams = np.array([h0 + h_int, sx1, sx2])
    comm = -1j * (kron(hams, IDENTITY4) - kron(IDENTITY4, np.swapaxes(hams, -1, -2)))
    eye2 = np.eye(2)
    ops = np.array([kron(_JUMP_PIECES, eye2), kron(eye2, _JUMP_PIECES)])
    a, b = ops[:, :, :, None], ops[:, :, None, :]     # a_j, a_k per (bath, channel)
    prod = np.swapaxes(b.conj(), -1, -2) @ a
    pairs = kron(a, b.conj()) - 0.5 * (
        kron(prod, IDENTITY4) + kron(IDENTITY4, np.swapaxes(prod, -1, -2)))
    diss = _PRODUCT_HARMONICS.reshape(9, 5).T @ pairs.reshape(2, 3, 9, 256)
    return np.concatenate([comm, diss.reshape(30, 16, 16)])


@lru_cache(maxsize=128)
def _real_basis(cfg: SystemConfig) -> np.ndarray:
    """`_basis` in the Hermitian coordinates: the real U† B U, shape (33, 256)."""
    real = (HERMITIAN_BASIS.conj().T @ _basis(cfg) @ HERMITIAN_BASIS).real
    return real.reshape(33, 256).copy()


def coordinates(ops) -> np.ndarray:
    """Real coordinates r = U†v, r_a = Tr(Q_a A), of a Hermitian 4x4 operator
    A or of a stack of them, shape (..., 16); Tr(A B) = a · b."""
    ops = np.asarray(ops)
    return (ops.reshape(ops.shape[:-2] + (16,)) @ HERMITIAN_BASIS.conj()).real


def bath_dissipators(weights, cfg: SystemConfig) -> np.ndarray:
    """Real 16x16 dissipators of baths 1 and 2 at each row of (m, 30) weights
    of their 15 rows each (a `coefficient_table`'s bath columns give ζ²𝓛_i),
    shape (2, m, 16, 16): each row contracted with `_real_basis` on its own."""
    weights = np.reshape(weights, (-1, 2, 1, 15)).swapaxes(0, 1)
    return (weights @ _real_basis(cfg)[3:].reshape(2, 1, 15, 256)).reshape(2, -1, 16, 16)


def real_generator_stack(times, cfg: SystemConfig):
    """Real 16x16 generators G = U† L U at each of the m times, acting on the
    coordinates r = U†v, and the (m,) negative-rate flags.  Each row is
    contracted on its own, so it has the bits of a one-time call."""
    table, neg = coefficient_table(times, cfg)
    return (table[:, None] @ _real_basis(cfg)).reshape(-1, 16, 16), neg


@lru_cache(maxsize=128)
def static_table(cfg: SystemConfig) -> np.ndarray:
    """The drive-off (1, 33) `coefficient_table` row, also when driven."""
    zero = np.zeros((2, 1))
    return _weights(zero, zero, cfg)[0]


@lru_cache(maxsize=128)
def real_liouvillian(cfg: SystemConfig) -> np.ndarray:
    """Real 16x16 generator of the static master equation."""
    return (static_table(cfg) @ _real_basis(cfg)).reshape(16, 16)


def _row_major(gen: np.ndarray) -> np.ndarray:
    """The generator U G U† on the row-major vec of the real generator G."""
    return HERMITIAN_BASIS @ gen @ HERMITIAN_BASIS.conj().T


def tdlme_rhs(rho: np.ndarray, t: float, cfg: SystemConfig) -> np.ndarray:
    """Right-hand side of the time-dependent master equation at time t."""
    return (_row_major(real_generator_stack(t, cfg)[0][0]) @ rho.reshape(16)).reshape(4, 4)


def liouvillian_matrix(cfg: SystemConfig) -> np.ndarray:
    """16x16 generator matrix of the static master equation (row-major vec),
    the view U G U† of `real_liouvillian`."""
    return _row_major(real_liouvillian(cfg))


def maximum_entropy_state() -> np.ndarray:
    return IDENTITY4 / 4.0


def validate_density(rho: np.ndarray) -> None:
    """Raise if rho is not a valid density matrix within the DENSITY_* limits."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    require_finite("density matrix", rho)
    dev = float(np.max(np.abs(rho - rho.conj().T)))
    if dev > DENSITY_HERM_TOL:
        raise ValueError(f"density matrix is not Hermitian (max deviation {dev:.3e})")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > DENSITY_TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1 within {DENSITY_TRACE_TOL}")
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if low < -DENSITY_EIG_TOL:
        raise PositivityError(f"density matrix has eigenvalue {low:.3e}")
