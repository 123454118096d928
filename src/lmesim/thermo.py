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
coordinates (`model.coordinates`, Tr(A B) = a · b) of the Hamiltonian's
pieces (`model.hamiltonian_pieces`) with each bath's flow ζ²𝓛_i[ρ] = D_i r
from the integrator's own table (`model.bath_dissipators`); one batched
``eigh`` gives the entropy, the clamped ln ρ (`linalg.clamped_log`) and the
positivity margin, and for a trajectory it is the frame check's own
(`Trajectory.spectrum`), so each frame is decomposed once.
`thermo_record` (a one-frame `FrameColumns`), `heat_current` and
`entropy_production_rate` are its one-frame views.  `find_tau0` takes a run
(initial state, span, system, integrator), resolves its plan once
(`dynamics._run_plan`), consumes the frame blocks of the integrator's own
frame loop as they come, only as far as the first downward zero of Σ̇,
refines it by safeguarded Illinois regula falsi from the two frames around
it, and takes the end-of-run residual of a crossing-free run from
`model.tdlme_rhs`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import FRAME_BLOCK, IntegratorConfig, _checked, _frames, _run_plan, integrate
from .errors import PositivityError
from .linalg import clamped_log, hermitian_part, require_finite
from .model import (
    SystemConfig,
    bath_dissipators,
    coefficient_table,
    coordinates,
    dissipation_rates,
    hamiltonian_pieces,
    instantaneous_gap,
    static_table,
    tdlme_rhs,
)

LOG_EIG_WARN = 1e-9
#: a state eigenvalue below minus this fails the observables' matrix logarithm
LOG_POSITIVITY_TOL = 1e-10
TAU0_TIME_TOL = 1e-6
# residual under which a crossing-free trajectory counts as having reached
# its steady state (so Σ̇ was genuinely positive throughout, not cut short)
STEADY_RESIDUAL = 1e-6


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
            f"{lowest[k]:.3e} beyond tolerance",
            time=float(times[k]),
        )


def trajectory_observables(times, states, cfg: SystemConfig,
                           check: bool = True, spectrum=None) -> FrameColumns:
    """Heat currents, entropy and Σ̇ of every frame of a trajectory at once.

    ``states`` is the (n, 4, 4) stack of the frames at the n >= 1 ``times``;
    any other shape, or a non-finite time or entry, raises ValueError.
    Every trace is a dot product of real coordinates, Tr(A B) = a · b: each
    bath's ζ²𝓛_i[ρ] is D_i r, with D_i from the integrator's coefficient
    table (`bath_dissipators`; a row per frame when driven, `static_table`
    when not).  One ``eigh`` over the Hermitian parts gives S, the clamped
    ln ρ and each frame's smallest eigenvalue; ``spectrum``, the frames'
    (eigenvalues, eigenvectors) from the frame check (`Trajectory.spectrum`),
    takes its place; one of any other shape, or with a non-finite entry,
    raises ValueError.  FRAME_BLOCK frames at a time bound the temporaries of
    a long run.  ``check`` applies the matrix log's `_check_log_spectrum`.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=complex)
    if times.ndim != 1 or states.shape != (len(times), 4, 4):
        raise ValueError(f"states must have shape (n, 4, 4) for n = len(times); "
                         f"got times of shape {times.shape} and states of shape "
                         f"{states.shape}")
    if not len(times):
        raise ValueError("trajectory_observables needs at least one frame")
    require_finite("times", times)
    require_finite("states", states)
    if spectrum is not None and [np.shape(p) for p in spectrum] != [(len(times), 4),
                                                                    (len(times), 4, 4)]:
        raise ValueError(f"spectrum must be (w, V) of shapes (n, 4) and (n, 4, 4) for "
                         f"n = len(times); got {[np.shape(p) for p in spectrum]}")
    for part in spectrum or ():
        require_finite("spectrum", part)
    driven = cfg.is_driven
    table = coefficient_table(times, cfg)[0] if driven else static_table(cfg)
    hams = coordinates(hamiltonian_pieces(cfg))
    w, v = np.linalg.eigh(hermitian_part(states)) if spectrum is None else spectrum
    blocks = [_block_observables(times[k:k + FRAME_BLOCK], states[k:k + FRAME_BLOCK],
                                 table[k:k + FRAME_BLOCK] if driven else table, hams, cfg,
                                 w[k:k + FRAME_BLOCK], v[k:k + FRAME_BLOCK])
              for k in range(0, len(times), FRAME_BLOCK)]
    cols = FrameColumns(*map(np.concatenate, zip(*blocks)))
    if check:
        _check_log_spectrum(cols.t, cols.lowest)
    return cols


def _block_observables(times: np.ndarray, states: np.ndarray, table: np.ndarray,
                       hams: np.ndarray, cfg: SystemConfig, w, v) -> FrameColumns:
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
    require_finite("density matrix", rho)
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


def find_tau0(rho0: np.ndarray, t_span, cfg: SystemConfig,
              integrator: IntegratorConfig | None = None) -> CrossingResult:
    """Locate the first downward zero of Σ̇ along the run that `integrate`
    would make from rho0 over t_span.

    The run is propagated only as far as the scan needs.  Its frames come
    in the blocks of the integrator's own frame loop (FRAME_BLOCK frames
    from frame 0), and each block gets `integrate`'s frame checks, in order
    and with the same errors, before its Σ̇ is computed from the check's
    ``eigh``.  The scan stops after the block that holds the first sign
    change from Σ̇ > 0 to Σ̇ ≤ 0 and its upper frame: later frames are
    neither computed nor checked.  A run without such a change runs to its
    horizon.  The matrix log's checks apply to the frames up to the change
    (to all of them without one).  The crossing is then refined to
    TAU0_TIME_TOL (1e-6) in time by `_refine_crossing`, seeded with the
    scan's Σ̇ at the change's two frames; each probe is a fresh short
    `integrate` at the run plan's step from the last frame before the change
    (no interpolation of Σ̇ samples).  τ₀ is the midpoint of the final
    bracket.
    """
    plan = _run_plan(t_span, cfg, integrator)
    times, states, sigmas, lowest = [], [], [], []    # by block
    seen, down = 0, np.empty(0, dtype=int)
    for t, block, spectrum, _ in _checked(_frames(rho0, cfg, plan), cfg.is_driven):
        cols = trajectory_observables(t, block, cfg, check=False, spectrum=spectrum)
        times.append(t)
        states.append(block)
        sigmas.append(cols.sigma_dot)
        lowest.append(cols.lowest)
        seen += len(t)
        seam = np.concatenate(sigmas[-2:])    # a change between two blocks counts
        down = seen - len(seam) + np.flatnonzero((seam[:-1] > 0.0) & (seam[1:] <= 0.0))
        if down.size:
            break

    times, states, sigmas, lowest = map(np.concatenate, (times, states, sigmas, lowest))
    scanned = int(down[0]) + 2 if down.size else seen
    _check_log_spectrum(times[:scanned], lowest[:scanned])
    if not down.size:
        if not np.any(sigmas > 0.0):
            return CrossingResult(found=False, reason="never_positive")
        end_rhs = tdlme_rhs(states[-1], float(times[-1]), cfg)
        if np.max(np.abs(end_rhs)) < STEADY_RESIDUAL:
            return CrossingResult(found=False, reason="always_positive")
        return CrossingResult(found=False, reason="insufficient_horizon")

    cross = int(down[0])
    base_t = float(times[cross])
    base_state = states[cross]
    probe_cfg = IntegratorConfig(step=plan.step, record_stride=1_000_000_000)

    def sigma_at(t: float) -> float:
        sub = integrate(base_state, (base_t, t), cfg, probe_cfg)
        return entropy_production_rate(sub.final_state, t, cfg)

    t_lo, t_hi = _refine_crossing(sigma_at, base_t, float(sigmas[cross]),
                                  float(times[cross + 1]), float(sigmas[cross + 1]))
    return CrossingResult(
        found=True, tau0=0.5 * (t_lo + t_hi), bracket=(t_lo, t_hi),
    )


def _refine_crossing(f, t_lo: float, f_lo: float, t_hi: float, f_hi: float):
    """Shrink the bracket of a sign change of f, f_lo = f(t_lo) > 0 >= f(t_hi)
    = f_hi, to a width <= TAU0_TIME_TOL; returns its ends.

    Safeguarded Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971).  Probe
    n (from 0) is the false-position point, kept at least TAU0_TIME_TOL/2
    inside the bracket and within w₀·2^(1-n) - w/2 of its midpoint (w the
    bracket's width, w₀ the first), so that it leaves a bracket no wider than
    w₀·2^(1-n): no crossing takes more than ⌈log₂(w₀/TAU0_TIME_TOL)⌉ + 2
    probes.  When the same end is kept twice in a row, its f is halved.
    """
    w0, margin = t_hi - t_lo, 0.5 * TAU0_TIME_TOL
    n, kept = 0, 0      # kept: +1 after t_hi was kept, -1 after t_lo was
    while t_hi - t_lo > TAU0_TIME_TOL:
        mid, slack = 0.5 * (t_lo + t_hi), w0 * 2.0 ** (1 - n) - 0.5 * (t_hi - t_lo)
        t = t_lo + (t_hi - t_lo) * f_lo / (f_lo - f_hi)
        t = min(max(t, t_lo + margin, mid - slack), t_hi - margin, mid + slack)
        f_t = f(t)
        n += 1
        if f_t > 0.0:
            if kept == 1:
                f_hi *= 0.5
            t_lo, f_lo, kept = t, f_t, 1
        else:
            if kept == -1:
                f_lo *= 0.5
            t_hi, f_hi, kept = t, f_t, -1
    return t_lo, t_hi
