"""Thermodynamic observables: heat currents, entropy, entropy production.

Sign conventions: J_i > 0 means energy flows from bath i into the system.
The entropy production rate is

    Σ̇(t) = -ζ² Σ_i Tr{ [ln ρ + β_i H_S(t)] · 𝓛_i[ρ] }
          = dS/dt - Σ_i β_i J_i(t),

which can transiently go negative here — that sign is the observable this
package exists to compute, not an error condition.

The heat current splits into the part flowing through the bare qubit
Hamiltonians and the part through the exchange interaction:
J_i = J_i^s + J_i^I with J_i^s = ζ² Tr(H_bare 𝓛_i[ρ]) and
J_i^I = ζ² Tr(H_int 𝓛_i[ρ]); the identity holds to rounding by linearity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dynamics import IntegratorConfig, Trajectory, integrate
from .linalg import matrix_log_hermitian
from .model import (
    SystemConfig,
    bare_hamiltonian,
    dissipation_rates,
    dissipator,
    instantaneous_gap,
    interaction_hamiltonian,
)

LOG_EIG_WARN = 1e-9
TAU0_TIME_TOL = 1e-6
# residual under which a crossing-free trajectory counts as having reached
# its steady state (so Σ̇ was genuinely positive throughout, not cut short)
STEADY_RESIDUAL = 1e-6


@dataclass(frozen=True)
class ThermoRecord:
    """Observables of one trajectory frame."""

    t: float
    j1: float
    j2: float
    js1: float
    ji1: float
    js2: float
    ji2: float
    entropy: float
    sigma_dot: float


@dataclass(frozen=True)
class CrossingResult:
    """First downward zero crossing of Σ̇(t), if one was found.

    ``reason`` on a miss: "always_positive" (trajectory reached the steady
    state with Σ̇ still positive), "insufficient_horizon" (ran out of time
    while still relaxing), or "never_positive" (Σ̇ ≤ 0 from the start).
    """

    found: bool
    tau0: float | None = None
    bracket: tuple[float, float] | None = None
    reason: str | None = None


class PowerLawFit(NamedTuple):
    slope: float
    intercept: float      # in ln y = slope·ln x + intercept
    r_squared: float


def _real_trace_product(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", a, b).real)


def heat_current(i: int, rho: np.ndarray, t: float, cfg: SystemConfig):
    """(J_i, J_i^s, J_i^I): total, bare-Hamiltonian and interaction parts."""
    diss = cfg.zeta2 * dissipator(i, rho, t, cfg)
    h_bare = bare_hamiltonian(t, cfg)
    h_int = interaction_hamiltonian(cfg)
    total = _real_trace_product(h_bare + h_int, diss)
    bare = _real_trace_product(h_bare, diss)
    inter = _real_trace_product(h_int, diss)
    return total, bare, inter


def entropy(rho: np.ndarray) -> float:
    """von Neumann entropy -Tr(ρ ln ρ) in nats."""
    probs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    probs = probs[probs > 0.0]
    return float(-np.sum(probs * np.log(probs)))


def _checked_log(rho: np.ndarray) -> np.ndarray:
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0])
    if low < LOG_EIG_WARN:
        warnings.warn(
            f"state eigenvalue {low:.3e} below {LOG_EIG_WARN:.0e}; the "
            "clamped matrix log biases entropy-production values",
            RuntimeWarning,
            stacklevel=3,
        )
    return matrix_log_hermitian(rho)


def entropy_time_derivative(rho: np.ndarray, t: float, cfg: SystemConfig) -> float:
    """dS/dt = -ζ² Σ_i Tr(𝓛_i[ρ] ln ρ) (the unitary part contributes zero)."""
    logm = _checked_log(rho)
    out = 0.0
    for i in (1, 2):
        out -= cfg.zeta2 * _real_trace_product(dissipator(i, rho, t, cfg), logm)
    return out


def entropy_production_rate(rho: np.ndarray, t: float, cfg: SystemConfig) -> float:
    """Σ̇ = -ζ² Σ_i Tr{[ln ρ + β_i H_S(t)] 𝓛_i[ρ]}."""
    logm = _checked_log(rho)
    h_full = bare_hamiltonian(t, cfg) + interaction_hamiltonian(cfg)
    out = 0.0
    for i in (1, 2):
        diss = cfg.zeta2 * dissipator(i, rho, t, cfg)
        out -= _real_trace_product(logm + cfg.bath(i).beta * h_full, diss)
    return out


def thermo_record(rho: np.ndarray, t: float, cfg: SystemConfig) -> ThermoRecord:
    """All per-frame observables in one pass (shared dissipators and log)."""
    h_bare = bare_hamiltonian(t, cfg)
    h_int = interaction_hamiltonian(cfg)
    h_full = h_bare + h_int
    logm = _checked_log(rho)
    js = []
    ji = []
    jtot = []
    sigma = 0.0
    for i in (1, 2):
        diss = cfg.zeta2 * dissipator(i, rho, t, cfg)
        jtot.append(_real_trace_product(h_full, diss))
        js.append(_real_trace_product(h_bare, diss))
        ji.append(_real_trace_product(h_int, diss))
        sigma -= _real_trace_product(logm + cfg.bath(i).beta * h_full, diss)
    return ThermoRecord(
        t=t, j1=jtot[0], j2=jtot[1], js1=js[0], ji1=ji[0], js2=js[1],
        ji2=ji[1], entropy=entropy(rho), sigma_dot=sigma,
    )


def effective_temperature_check(i: int, t: float, cfg: SystemConfig) -> float:
    """Relative deviation of γ⁻/γ⁺ from the thermal ratio e^{2β E_e(t)}.

    Zero (to rounding) when undriven; stays small while the drive is slow
    against the bath memory.
    """
    _, gm, gp = dissipation_rates(i, t, cfg)
    target = math.exp(2.0 * cfg.bath(i).beta * instantaneous_gap(i, t, cfg))
    return abs(gm / gp - target) / target


def find_tau0(traj: Trajectory, cfg: SystemConfig,
              integrator: IntegratorConfig | None = None) -> CrossingResult:
    """Locate the first downward zero of Σ̇ along a trajectory.

    The coarse bracket comes from the recorded frames, scanned in order
    up to the first crossing; the root is then bisected to 1e-6 in time,
    with each probe obtained by a fresh short integration from the last
    stored frame before the bracket (no interpolation of Σ̇ samples).
    """
    icfg = integrator or IntegratorConfig()
    sigmas = []
    cross = None
    for t, state in zip(traj.times, traj.states):
        sigmas.append(entropy_production_rate(state, float(t), cfg))
        if len(sigmas) > 1 and sigmas[-2] > 0.0 >= sigmas[-1]:
            cross = len(sigmas) - 2
            break
    if cross is None:
        if not any(sigma > 0.0 for sigma in sigmas):
            return CrossingResult(found=False, reason="never_positive")
        if traj.final_rhs_norm < STEADY_RESIDUAL or math.isnan(traj.final_rhs_norm):
            return CrossingResult(found=False, reason="always_positive")
        return CrossingResult(found=False, reason="insufficient_horizon")

    base_t = float(traj.times[cross])
    base_state = traj.states[cross]
    probe_cfg = replace(icfg, step=icfg.step or traj.step,
                        record_stride=1_000_000_000)

    def sigma_at(t: float) -> float:
        if t == base_t:
            return float(sigmas[cross])
        sub = integrate(base_state, (base_t, t), cfg, probe_cfg)
        return entropy_production_rate(sub.final_state, t, cfg)

    t_lo = base_t
    t_hi = float(traj.times[cross + 1])
    while t_hi - t_lo > TAU0_TIME_TOL:
        mid = 0.5 * (t_lo + t_hi)
        if sigma_at(mid) > 0.0:
            t_lo = mid
        else:
            t_hi = mid
    return CrossingResult(
        found=True, tau0=0.5 * (t_lo + t_hi), bracket=(t_lo, t_hi),
    )


def fit_power_law(xs, ys) -> PowerLawFit:
    """Least-squares line through (ln x, ln y); r² of the log-log fit."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if xs.size < 3:
        raise ValueError(f"need at least 3 points, got {xs.size}")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("power-law fit requires strictly positive data")
    lx = np.log(xs)
    ly = np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(float(slope), float(intercept), r2)
