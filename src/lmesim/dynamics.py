"""Propagation of the two-qubit master equation.

Both kinds of run carry the state as its real coordinates r = U†v in the
orthonormal Hermitian basis U (`model.HERMITIAN_BASIS`; v is the row-major
vec of ρ), on which every generator G is a real 16x16 matrix with an exactly
zero trace row.  Undriven runs have a constant G (`model.real_liouvillian`),
so each recorded frame is exactly expm(G·Δt) applied to the previous one;
the step only lays out the frame grid, and `linalg.expm` is called once per
distinct frame span.  Driven runs take fixed RK4 steps, DRIVEN_BLOCK at a
time: one `model.real_generator_stack` call over the block's distinct stage
times, then three batched real 16x16 products give each step's increment D,
so a step is r + D r and keeps r_0 = Tr ρ / 2 to the bit.  Each recorded
frame renormalizes the trace 2 r_0 (logging the event) when it drifted
beyond 1e-12 and records v = U r, Hermitian by construction.  A run stops
at a frame whose trace drifted beyond DENSITY_TRACE_TOL or, driven, whose
largest |entry| is not within ENTRY_MAX (a driven run keeps its trace
exactly, so that bound, not rounding, stops one that leaves the state
space).  The steady state of an undriven configuration is the null vector
of G with r_0 = ½.

Recorded frames carry the smallest eigenvalue of the state and a flag that
marks whether any jump rate went negative since the previous frame (the
finite-memory corrections can push rates below zero transiently under a
strong drive; that is diagnostic information, not an error).
"""

from __future__ import annotations

import functools
import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrationError, StabilityError, UnsupportedConfigError
from .linalg import expm
from .model import (
    DENSITY_EIG_TOL,
    DENSITY_TRACE_TOL,
    HERMITIAN_BASIS,
    SystemConfig,
    coordinates,
    dissipation_rates,
    real_generator_stack,
    real_liouvillian,
    validate_density,
)
# unused here since undriven runs use the real generator, but the
# benchmark's tracer (perfbench/tracer.py) wraps this name on this module
from .model import liouvillian_matrix  # noqa: F401

logger = logging.getLogger(__name__)

TRACE_RENORM_TOL = 1e-12
#: largest |entry| of a frame above which a run stops as diverged.  No
#: density matrix has an entry above 1, and a unit-trace Hermitian matrix
#: with one above 2 has an eigenvalue below -1/3; the bound is loose because
#: the driven generator is not guaranteed completely positive
ENTRY_MAX = 2.0
DEFAULT_FRAME_SPACING = 5e-3
STEP_SAFETY = 1e-3
#: RK4 steps of a driven run whose stage generators are built together
DRIVEN_BLOCK = 128


@dataclass(frozen=True)
class IntegratorConfig:
    """Step and frame spacing of a propagation run.

    ``step`` is the RK4 step of driven runs; undriven runs are propagated
    exactly and use it only to lay out the frame grid.  ``step=None``
    selects the default step from the stiffest scale of the configuration;
    ``record_stride=None`` records roughly every 5e-3 time units.
    """

    step: float | None = None
    record_stride: int | None = None

    def __post_init__(self):
        problems = []
        if self.step is not None and not 0 < self.step < math.inf:
            problems.append(f"step must be positive and finite, got {self.step}")
        stride = self.record_stride
        # an integer (NumPy's too) >= 1
        if stride is not None and not (isinstance(stride, numbers.Integral) and stride >= 1):
            problems.append(f"record_stride must be an integer >= 1, got {stride}")
        if problems:
            raise ConfigError(problems)


@dataclass
class Trajectory:
    """Recorded frames of a propagation run."""

    times: np.ndarray                 # (n_frames,)
    states: np.ndarray                # (n_frames, 4, 4) complex
    min_eigenvalues: np.ndarray       # (n_frames,)
    rate_negative: np.ndarray         # (n_frames,) bool, since previous frame
    step: float
    record_stride: int

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def default_step(cfg: SystemConfig) -> float:
    """Step = 1e-3 of the fastest scale (largest gap or largest total rate)."""
    e_max = max(
        math.hypot(q.epsilon, q.drive_amplitude)
        for q in (cfg.qubit1, cfg.qubit2)
    )
    rate_max = _max_rate(cfg)
    scales = [2.0 * e_max]
    if cfg.zeta2 * rate_max > 0:
        scales.append(cfg.zeta2 * rate_max)
    return STEP_SAFETY / max(scales)


def _max_rate(cfg: SystemConfig) -> float:
    """Largest |rate| of either bath: at t = 0 when undriven, else over 257
    times spanning the shortest drive period."""
    times = 0.0
    if cfg.is_driven:
        periods = [2.0 * math.pi / q.drive_frequency for q in (cfg.qubit1, cfg.qubit2)
                   if q.drive_amplitude != 0.0 and q.drive_frequency != 0.0]
        times = np.linspace(0.0, min(periods), 257)
    return max(float(np.max(np.abs(dissipation_rates(i, times, cfg)))) for i in (1, 2))


def _normalize(r: np.ndarray, t: float):
    """(r, drifted): r renormalized to unit trace Tr ρ = 2 r_0 (and the event
    logged) when the trace drifted beyond TRACE_RENORM_TOL; or r as it is,
    with drifted True, when it drifted beyond DENSITY_TRACE_TOL."""
    tr = 2.0 * r[0]
    if not abs(tr - 1.0) <= DENSITY_TRACE_TOL:
        return r, True
    if abs(tr - 1.0) > TRACE_RENORM_TOL:
        logger.debug("renormalizing trace %.16f at t=%.6f", tr, t)
        r = r / tr
    return r, False


def _time_span(t_span):
    """(t0, t1) of t_span = (t0, t1), or of a bare final time t1 with t0 = 0."""
    if np.ndim(t_span) == 0:
        t0, t1 = 0.0, float(t_span)
    elif np.shape(t_span) == (2,):
        t0, t1 = (float(x) for x in t_span)
    else:
        raise ValueError(
            f"t_span must be a final time or a pair (t0, t1), got {t_span!r}")
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 <= t1):
        raise ValueError(f"t_span must be finite and increasing, got ({t0}, {t1})")
    return t0, t1


def _frame_plan(t0: float, t1: float, h: float, stride: int):
    """Layout of a run from t0 to t1: ``n_full`` steps of size h and, when
    they fall short of t1, one ``tail`` step onto it; frames are recorded
    every ``stride`` steps and at t1.

    Returns (n_full, tail, frames); each frame is (first step, end step,
    frame time, span of its steps).
    """
    n_full = int(math.floor((t1 - t0) / h + 1e-9))
    tail = t1 - t0 - n_full * h
    if tail < 1e-12 * max(1.0, abs(t1)):
        tail = 0.0
    n = n_full + (1 if tail else 0)
    ends = [*range(stride, n, stride), n] if n else []
    frames = [
        (first, end, t1 if end == n else t0 + end * h,
         (min(end, n_full) - first) * h + (tail if end > n_full else 0.0))
        for first, end in zip([0, *ends], ends)
    ]
    return n_full, tail, frames


def integrate(rho0: np.ndarray, t_span, cfg: SystemConfig,
              integrator: IntegratorConfig | None = None) -> Trajectory:
    """Propagate the 4x4 rho0 over t_span = (t0, t1) (or a bare final
    time); an initial state or span of any other shape raises ValueError.

    Undriven frames are exact (one matrix exponential per distinct frame
    spacing); driven frames come from fixed-step RK4.  A run stops at the
    first frame whose trace 2 r_0, before renormalization, is not within
    DENSITY_TRACE_TOL of one or, driven, whose largest |entry| is not within
    ENTRY_MAX, and records that frame as computed.  The recorded frames are
    validated together, with the error naming the first bad frame: that
    drifted or diverged frame, or for undriven configurations a smallest
    eigenvalue below -DENSITY_EIG_TOL (driven runs only record it, since
    the time-dependent generator is not guaranteed completely positive).
    """
    icfg = integrator or IntegratorConfig()
    if np.shape(rho0) != (4, 4):
        raise ValueError(f"rho0 must be a 4x4 density matrix, got shape {np.shape(rho0)}")
    validate_density(rho0)
    t0, t1 = _time_span(t_span)

    h = icfg.step if icfg.step is not None else default_step(cfg)
    stride = icfg.record_stride
    if stride is None:
        stride = max(1, round(DEFAULT_FRAME_SPACING / h))

    driven = cfg.is_driven
    if not driven:
        gen = real_liouvillian(cfg)
        propagator = functools.cache(lambda span: expm(gen * span))

    r = coordinates(rho0)     # r = U†v
    times = [t0]
    states = [HERMITIAN_BASIS @ r]
    rate_flags = [False]

    n_full, tail, frames = _frame_plan(t0, t1, h, stride)
    steps = _driven_steps(t0, h, n_full, tail, cfg) if driven else None
    for first, end, t, span in frames:
        neg_seen = False
        if driven:
            for _ in range(first, end):
                inc, neg = next(steps)
                r = r + inc @ r
                neg_seen = neg_seen or neg
        else:
            r = propagator(span) @ r
        r, drifted = _normalize(r, t)
        v = HERMITIAN_BASIS @ r
        times.append(t)
        states.append(v)
        rate_flags.append(neg_seen)
        # a driven run stops before its growth can overflow; undriven frames
        # are exact, and each gets the eigenvalue check
        if drifted or driven and not np.abs(v).max() <= ENTRY_MAX:
            break    # the frame check below reports it

    times = np.array(times)
    states = np.array(states).reshape(-1, 4, 4)
    return Trajectory(
        times=times,
        states=states,
        min_eigenvalues=_check_frame(states, times, driven),
        rate_negative=np.array(rate_flags, dtype=bool),
        step=h,
        record_stride=stride,
    )


def _check_frame(states, times, driven: bool) -> np.ndarray:
    """Check frames in order and return their smallest eigenvalues.

    ``states`` is one frame or a stack of them at ``times``.  Raises
    IntegrationError at the first frame whose complex trace drifted beyond
    DENSITY_TRACE_TOL (NaN counts as drift), whose largest |entry| is not
    within ENTRY_MAX (diverged; a NaN entry of a unit-trace frame too) or,
    undriven, whose smallest eigenvalue is below -DENSITY_EIG_TOL.  Drift and
    divergence are checked first, and one eigenvalue solve then covers the
    frames before the first of them.
    """
    states = np.asarray(states).reshape(-1, 4, 4)
    times = np.atleast_1d(times)
    traces = np.trace(states, axis1=1, axis2=2)
    largest = np.abs(states).max(axis=(1, 2))
    traced = np.abs(traces - 1.0) <= DENSITY_TRACE_TOL
    stopped = np.flatnonzero(~traced | ~(largest <= ENTRY_MAX))
    end = stopped[0] if stopped.size else len(states)
    lows = np.linalg.eigvalsh(states[:end])[:, 0]
    negative = np.flatnonzero(lows < -DENSITY_EIG_TOL)
    if not driven and negative.size:
        k = negative[0]
        raise IntegrationError(
            f"state eigenvalue {lows[k]:.3e} below -{DENSITY_EIG_TOL:.1e}",
            time=float(times[k]),
        )
    if stopped.size:
        tr = complex(traces[end])
        if largest[end] > ENTRY_MAX or traced[end]:    # a NaN trace is drift
            msg = f"state diverged: largest |entry| {largest[end]:.3e} above {ENTRY_MAX}"
        else:
            msg = f"trace drifted to {tr.real!r}{tr.imag:+}j, largest |entry| {largest[end]:.3e}"
        raise IntegrationError(msg, time=float(times[end]))
    return lows


def _driven_steps(t0: float, h: float, n_full: int, tail: float, cfg: SystemConfig):
    """Real RK4 step increments from t0, each with whether a rate was
    negative at one of its stage times t, t + h/2, t + h.  Step k starts at
    t0 + k·h and has size h (``tail`` past the n_full full steps); its
    propagator is I + D with D = h/6·(L_lo + 2A₂ + 2A₃ + A₄),
    A₂ = L_mid(I + h/2·L_lo), A₃ = L_mid(I + h/2·A₂) and A₄ = L_hi(I + h·A₃).
    The step is taken as r + D r: applying I + D would round each step
    against its near-one diagonal.  DRIVEN_BLOCK steps are built together
    from one `real_generator_stack` call over their distinct stage times."""
    n = n_full + (1 if tail else 0)
    for start in range(0, n, DRIVEN_BLOCK):
        k = np.arange(start, min(start + DRIVEN_BLOCK, n))
        sizes = np.where(k < n_full, h, tail)
        t = t0 + k * h
        stage_times, where = np.unique(np.concatenate([t, t + 0.5 * sizes, t + sizes]),
                                       return_inverse=True)
        gens, neg = real_generator_stack(stage_times, cfg)
        lo, mid, hi = gens[where].reshape(3, k.size, 16, 16)
        hs = sizes[:, None, None]
        # in place: a fresh (block, 16, 16) temporary costs as much as a term
        a = [lo]                     # A₁ = L_lo, then A₂, A₃ and A₄
        for gen, scale in ((mid, 0.5 * hs), (mid, 0.5 * hs), (hi, hs)):
            a.append(gen @ a[-1])    # L(I + s·A) = L + s·(L @ A)
            a[-1] *= scale
            a[-1] += gen
        _, incs, a3, a4 = a
        incs += a3
        incs *= 2.0
        incs += lo
        incs += a4
        incs *= hs / 6.0
        yield from zip(incs, neg[where].reshape(3, k.size).any(axis=0).tolist())


def steady_state(cfg: SystemConfig) -> np.ndarray:
    """Steady state of an undriven configuration: the trace-one null vector
    of the static generator.

    Raises StabilityError when the fixed point is not unique (with ζ² = 0
    every state that commutes with H is stationary) or when the solution
    does not annihilate the generator to rounding.
    """
    if cfg.is_driven:
        raise UnsupportedConfigError(
            "steady-state search requires an undriven configuration"
        )
    gen = real_liouvillian(cfg)
    rank = int(np.linalg.matrix_rank(gen))
    if rank < 15:
        raise StabilityError(
            f"steady state is not unique: the generator has a "
            f"{16 - rank}-dimensional null space"
        )
    # the trace row of G is exactly zero; Tr ρ = 2 r_0 = 1 takes its place
    e0 = np.eye(16)[0]
    r = np.linalg.solve(np.vstack([e0, gen[1:]]), 0.5 * e0)
    residual = float(np.max(np.abs(gen @ r)))
    if residual > 1e-12 * max(1.0, float(np.max(np.abs(gen)))):
        raise StabilityError(f"steady-state residual {residual:.3e} exceeds tolerance")
    rho = (HERMITIAN_BASIS @ r).reshape(4, 4)
    validate_density(rho)
    return rho
