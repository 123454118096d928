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

`trajectory_observables` computes every observable of a whole trajectory
in one pass over its (n, 4, 4) state stack, as dot products of real
coordinates (`model.coordinates`, Tr(A B) = a · b) with each bath's flow
ζ²𝓛_i[ρ] = D_i r from the integrator's own table (`model.bath_dissipators`);
one batched ``eigh`` gives the entropy, the clamped ln ρ and the positivity
margin.  `thermo_record` (a one-frame `FrameColumns`), `heat_current` and
`entropy_production_rate` are its one-frame views; `find_tau0` scans Σ̇.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import IntegratorConfig, Trajectory, integrate
from .errors import PositivityError
from .linalg import LOG_POSITIVITY_TOL, clamped_log, hermitian_part
# unused here since the observables are dot products of real coordinates,
# but the benchmark's tracer (perfbench/tracer.py) wraps these names here
from .linalg import matrix_log_hermitian  # noqa: F401
from .model import dissipator  # noqa: F401
from .model import (
    SX,
    SZ,
    SystemConfig,
    bath_dissipators,
    coefficient_table,
    coordinates,
    dissipation_rates,
    generator,
    instantaneous_gap,
    interaction_hamiltonian,
    static_table,
)

LOG_EIG_WARN = 1e-9
TAU0_TIME_TOL = 1e-6
# residual under which a crossing-free trajectory counts as having reached
# its steady state (so Σ̇ was genuinely positive throughout, not cut short)
STEADY_RESIDUAL = 1e-6
# frames per block of `trajectory_observables`
FRAME_BLOCK = 128


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


class FrameColumns(NamedTuple):
    """Observables of every frame of a trajectory, one array per field;
    ``lowest`` is the smallest eigenvalue of each frame's Hermitian part
    (the one the matrix logarithm clamps).  `thermo_record` gives one
    frame's, with a float in each field."""

    t: np.ndarray
    j1: np.ndarray
    j2: np.ndarray
    js1: np.ndarray
    ji1: np.ndarray
    js2: np.ndarray
    ji2: np.ndarray
    entropy: np.ndarray
    sigma_dot: np.ndarray
    lowest: np.ndarray


def _entropy_of_spectrum(w: np.ndarray) -> np.ndarray:
    """-Σ p ln p over the positive eigenvalues along the last axis."""
    positive = w > 0.0
    return -np.sum(np.where(positive, w * np.log(np.where(positive, w, 1.0)), 0.0),
                   axis=-1)


def _check_log_spectrum(times: np.ndarray, lowest: np.ndarray) -> None:
    """The matrix logarithm's checks over frames: warn when a smallest
    eigenvalue is below LOG_EIG_WARN (the clamp then biases Σ̇), and raise
    PositivityError at the first frame below -LOG_POSITIVITY_TOL."""
    near = np.flatnonzero(lowest < LOG_EIG_WARN)
    if near.size:
        k = near[0]
        more = f" (and in {near.size - 1} later frames)" if near.size > 1 else ""
        warnings.warn(
            f"state eigenvalue {lowest[k]:.3e} below {LOG_EIG_WARN:.0e} at "
            f"t={times[k]:.6g}{more}; the clamped matrix log biases "
            "entropy-production values",
            RuntimeWarning,
            stacklevel=3,
        )
    bad = np.flatnonzero(lowest < -LOG_POSITIVITY_TOL)
    if bad.size:
        k = bad[0]
        raise PositivityError(
            f"state at t={times[k]:.6g} has negative eigenvalue "
            f"{lowest[k]:.3e} beyond tolerance"
        )


def trajectory_observables(times, states, cfg: SystemConfig,
                           check: bool = True) -> FrameColumns:
    """Heat currents, entropy and Σ̇ of every frame of a trajectory at once.

    ``states`` is the (n, 4, 4) stack of the frames at the n >= 1 ``times``;
    any other shape raises ValueError.  Every trace is a dot product of real
    coordinates, Tr(A B) = a · b: each bath's ζ²𝓛_i[ρ] is D_i r, with D_i
    from the integrator's coefficient table (`bath_dissipators`; a row per
    frame when driven, `static_table` when not).  One ``eigh`` over the
    Hermitian parts gives S, the clamped ln ρ and each frame's smallest
    eigenvalue.  FRAME_BLOCK frames at a time bound the temporaries of a
    long run.  ``check`` applies the matrix log's `_check_log_spectrum`.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=complex)
    if times.ndim != 1 or states.shape != (len(times), 4, 4):
        raise ValueError(f"states must have shape (n, 4, 4) for n = len(times); "
                         f"got times of shape {times.shape} and states of shape "
                         f"{states.shape}")
    if not len(times):
        raise ValueError("trajectory_observables needs at least one frame")
    driven = cfg.is_driven
    table = coefficient_table(times, cfg)[0] if driven else static_table(cfg)
    hams = coordinates([cfg.qubit1.epsilon * SZ[0] + cfg.qubit2.epsilon * SZ[1], *SX,
                        interaction_hamiltonian(cfg)])
    blocks = [_block_observables(times[k:k + FRAME_BLOCK], states[k:k + FRAME_BLOCK],
                                 table[k:k + FRAME_BLOCK] if driven else table, hams, cfg)
              for k in range(0, len(times), FRAME_BLOCK)]
    cols = FrameColumns(*map(np.concatenate, zip(*blocks)))
    if check:
        _check_log_spectrum(cols.t, cols.lowest)
    return cols


def _block_observables(times: np.ndarray, states: np.ndarray, table: np.ndarray,
                       hams: np.ndarray, cfg: SystemConfig) -> FrameColumns:
    w, v = np.linalg.eigh(hermitian_part(states))
    log_rho = coordinates(clamped_log(w, v))
    h_bare = table[:, :3] @ hams[:3]      # (1, f_1, f_2) @ (ε_i σ_i^z, σ_1^x, σ_2^x)
    h_full = h_bare + hams[3]
    flows = (bath_dissipators(table[:, 3:], cfg) @ coordinates(states)[..., None])[..., 0]
    (j1, j2), (js1, js2), (ji1, ji2) = (np.einsum("...k,...k", h, flows)
                                        for h in (h_full, h_bare, hams[3]))
    sigma = -sum(np.einsum("...k,...k", log_rho + b.beta * h_full, flow)
                 for b, flow in zip((cfg.bath1, cfg.bath2), flows))
    return FrameColumns(
        t=times, j1=j1, j2=j2, js1=js1, ji1=ji1, js2=js2, ji2=ji2,
        entropy=_entropy_of_spectrum(w), sigma_dot=sigma, lowest=w[:, 0],
    )


def heat_current(i: int, rho: np.ndarray, t: float, cfg: SystemConfig):
    """(J_i, J_i^s, J_i^I): total, bare-Hamiltonian and interaction parts, the
    one-frame view of `trajectory_observables` without its checks."""
    cfg.bath(i)    # rejects an index other than 1 or 2
    cols = trajectory_observables([t], np.asarray(rho)[None], cfg, check=False)
    parts = (cols.j1, cols.js1, cols.ji1) if i == 1 else (cols.j2, cols.js2, cols.ji2)
    return tuple(float(part[0]) for part in parts)


def entropy(rho: np.ndarray) -> float:
    """von Neumann entropy -Tr(ρ ln ρ) in nats."""
    return float(_entropy_of_spectrum(np.linalg.eigvalsh(hermitian_part(rho))))


def entropy_production_rate(rho: np.ndarray, t: float, cfg: SystemConfig) -> float:
    """Σ̇ = -ζ² Σ_i Tr{[ln ρ + β_i H_S(t)] 𝓛_i[ρ]}, for one state."""
    return float(trajectory_observables([t], np.asarray(rho)[None], cfg).sigma_dot[0])


def thermo_record(rho: np.ndarray, t: float, cfg: SystemConfig) -> FrameColumns:
    """All observables of one frame: the `FrameColumns` of the one-frame
    case of `trajectory_observables`, with floats in place of arrays."""
    cols = trajectory_observables([t], np.asarray(rho)[None], cfg)
    return FrameColumns(*(float(col[0]) for col in cols))


def effective_temperature_check(i: int, t, cfg: SystemConfig):
    """Relative deviation of γ⁻/γ⁺ from the thermal ratio e^{2β E_e(t)}.

    Zero (to rounding) when undriven; stays small while the drive is slow
    against the bath memory.  ``t`` may be an array of times.  Where a cold
    bath takes γ⁻/γ⁺ or the thermal ratio past the float range, the two are
    compared in log space, and a γ⁺ of 0 is thermal if γ⁻ e^{-2βE} rounds
    to 0 as well.
    """
    _, gm, gp = dissipation_rates(i, t, cfg)
    x = 2.0 * cfg.bath(i).beta * instantaneous_gap(i, t, cfg)
    with np.errstate(all="ignore"):
        ratio, target = gm / gp, np.exp(x)
        log_thermal = np.log(abs(gm)) - x            # ln|γ⁻ e^{-2βE}|
        rel = np.copysign(np.exp(log_thermal - np.log(abs(gp))), gm * gp)
        far = np.where(gp == 0.0, np.where(np.exp(log_thermal) == 0.0, 0.0, np.inf),
                       abs(rel - 1.0))
        near = np.isfinite(ratio) & np.isfinite(target)
        return np.where(near, abs(ratio - target) / target, far)[()]


def find_tau0(traj: Trajectory, cfg: SystemConfig) -> CrossingResult:
    """Locate the first downward zero of Σ̇ along a trajectory.

    The coarse bracket is the first sign change of Σ̇ over the recorded
    frames, all computed in one `trajectory_observables` pass (its checks
    apply only to the frames up to that change, as a scan in order would);
    the root is then bisected to 1e-6 in time, with each probe obtained by
    a fresh short integration at the trajectory's step from the last
    stored frame before the bracket (no interpolation of Σ̇ samples).
    """
    cols = trajectory_observables(traj.times, traj.states, cfg, check=False)
    sigmas = cols.sigma_dot
    down = np.flatnonzero((sigmas[:-1] > 0.0) & (sigmas[1:] <= 0.0))
    scanned = int(down[0]) + 2 if down.size else len(sigmas)
    _check_log_spectrum(cols.t[:scanned], cols.lowest[:scanned])
    if not down.size:
        if not np.any(sigmas > 0.0):
            return CrossingResult(found=False, reason="never_positive")
        end_rhs = generator(float(traj.times[-1]), cfg)[0] @ traj.final_state.reshape(16)
        if np.max(np.abs(end_rhs)) < STEADY_RESIDUAL:
            return CrossingResult(found=False, reason="always_positive")
        return CrossingResult(found=False, reason="insufficient_horizon")

    cross = int(down[0])
    base_t = float(traj.times[cross])
    base_state = traj.states[cross]
    probe_cfg = IntegratorConfig(step=traj.step, record_stride=1_000_000_000)

    def sigma_at(t: float) -> float:
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
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("power-law fit requires finite data")
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
