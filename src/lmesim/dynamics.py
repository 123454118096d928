"""Propagation of the two-qubit master equation.

Undriven configurations have a constant 16x16 generator L acting on the
row-major vectorized state, so each recorded frame is computed exactly as
expm(L·Δt) applied to the previous one; the step only lays out the frame
grid.  `linalg.expm` is called once per distinct frame span.
Driven configurations are stepped with classical fourth-order Runge-Kutta
at a fixed step on the vectorized state, DRIVEN_BLOCK steps at a time:
one `model.generator_stack` call over its distinct stage times, then three
batched 16x16 products give each step's RK4 propagator, so a step is one
matrix-vector product.  Both kernels carry the state as its row-major
16-vector; every recorded frame is re-Hermitized and its trace renormalized
(and the event logged) when it drifts beyond 1e-12, and a run stops at a
frame whose trace drifted beyond DENSITY_TRACE_TOL.  The steady state of an
undriven configuration is the trace-one null vector of L.

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

from .errors import IntegrationError, StabilityError, UnsupportedConfigError
from .linalg import expm, hermitian_part
from .model import (
    DENSITY_EIG_TOL,
    DENSITY_TRACE_TOL,
    SystemConfig,
    dissipation_rates,
    generator_stack,
    liouvillian_matrix,
    validate_density,
)

logger = logging.getLogger(__name__)

TRACE_RENORM_TOL = 1e-12
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
            raise ValueError("; ".join(problems))


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


# position in the row-major vectorized state of each entry's transpose
_TRANSPOSED = np.arange(16).reshape(4, 4).T.reshape(16)


def _normalize(v: np.ndarray, t: float):
    """(state, drifted): the Hermitian part of the row-major vectorized state
    v, renormalized to unit trace (and the event logged) when its trace
    drifted beyond TRACE_RENORM_TOL; or v as it is, with drifted True, when
    its complex trace drifted beyond DENSITY_TRACE_TOL."""
    tr = v[::5].sum()
    if not abs(tr - 1.0) <= DENSITY_TRACE_TOL:
        return v, True
    v = 0.5 * (v + v[_TRANSPOSED].conj())
    if abs(tr.real - 1.0) > TRACE_RENORM_TOL:
        logger.debug("renormalizing trace %.16f at t=%.6f", tr.real, t)
        v = v / tr.real
    return v, False


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
    first frame whose complex trace, before renormalization, is not within
    DENSITY_TRACE_TOL of one, and records that frame as computed.  The
    recorded frames are validated together, with the error naming the first
    bad frame: that drifted trace, or for undriven configurations a smallest
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
        liou = liouvillian_matrix(cfg)
        propagator = functools.cache(lambda span: expm(liou * span))

    v = np.array(rho0, dtype=complex).reshape(16)
    times = [t0]
    states = [v]
    rate_flags = [False]

    n_full, tail, frames = _frame_plan(t0, t1, h, stride)
    steps = _driven_steps(t0, h, n_full, tail, cfg) if driven else None
    for first, end, t, span in frames:
        neg_seen = False
        if driven:
            for _ in range(first, end):
                step, neg = next(steps)
                v = step @ v
                neg_seen = neg_seen or neg
        else:
            v = propagator(span) @ v
        v, drifted = _normalize(v, t)
        times.append(t)
        states.append(v)
        rate_flags.append(neg_seen)
        if drifted:
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
    DENSITY_TRACE_TOL (NaN counts as drift) or, undriven, whose smallest
    eigenvalue is below -DENSITY_EIG_TOL.  The traces are checked first, and
    one eigenvalue solve then covers the frames before the first drift.
    """
    states = np.asarray(states).reshape(-1, 4, 4)
    times = np.atleast_1d(times)
    traces = np.trace(states, axis1=1, axis2=2)
    drifted = np.flatnonzero(~(np.abs(traces - 1.0) <= DENSITY_TRACE_TOL))
    end = drifted[0] if drifted.size else len(states)
    lows = np.linalg.eigvalsh(states[:end])[:, 0]
    negative = np.flatnonzero(lows < -DENSITY_EIG_TOL)
    if not driven and negative.size:
        k = negative[0]
        raise IntegrationError(
            f"state eigenvalue {lows[k]:.3e} below -{DENSITY_EIG_TOL:.1e}",
            time=float(times[k]),
        )
    if drifted.size:
        tr = complex(traces[end])
        raise IntegrationError(f"trace drifted to {tr.real!r}{tr.imag:+}j",
                               time=float(times[end]))
    return lows


def _driven_steps(t0: float, h: float, n_full: int, tail: float, cfg: SystemConfig):
    """RK4 step propagators from t0, each with whether a rate was negative
    at one of its stage times t, t + h/2, t + h.  Step k starts at t0 + k·h
    and has size h (``tail`` past the n_full full steps); its propagator is
    P = I + h/6·(L_lo + 2A₂ + 2A₃ + A₄) with A₂ = L_mid(I + h/2·L_lo),
    A₃ = L_mid(I + h/2·A₂) and A₄ = L_hi(I + h·A₃).  DRIVEN_BLOCK steps are
    built together from one `generator_stack` call over their distinct
    stage times."""
    n = n_full + (1 if tail else 0)
    for start in range(0, n, DRIVEN_BLOCK):
        k = np.arange(start, min(start + DRIVEN_BLOCK, n))
        sizes = np.where(k < n_full, h, tail)
        t = t0 + k * h
        stage_times, where = np.unique(np.concatenate([t, t + 0.5 * sizes, t + sizes]),
                                       return_inverse=True)
        gens, neg = generator_stack(stage_times, cfg)
        lo, mid, hi = gens[where].reshape(3, k.size, 16, 16)
        hs = sizes[:, None, None]
        # in place: a fresh (block, 16, 16) temporary costs as much as a term
        a = [lo]                     # A₁ = L_lo, then A₂, A₃ and A₄
        for gen, scale in ((mid, 0.5 * hs), (mid, 0.5 * hs), (hi, hs)):
            a.append(gen @ a[-1])    # L(I + s·A) = L + s·(L @ A)
            a[-1] *= scale
            a[-1] += gen
        _, props, a3, a4 = a
        props += a3
        props *= 2.0
        props += lo
        props += a4
        props *= hs / 6.0
        props.reshape(-1, 256)[:, ::17] += 1.0     # + I
        yield from zip(props, neg[where].reshape(3, k.size).any(axis=0).tolist())


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
    liou = liouvillian_matrix(cfg)
    rank = int(np.linalg.matrix_rank(liou))
    if rank < 15:
        raise StabilityError(
            f"steady state is not unique: the generator has a "
            f"{16 - rank}-dimensional null space"
        )
    # trace preservation makes the rows of the diagonal entries sum to zero,
    # so the first is dependent on the others; Tr ρ = 1 takes its place
    bordered = liou.copy()
    bordered[0] = np.eye(4).reshape(16)
    rhs = np.zeros(16, dtype=complex)
    rhs[0] = 1.0
    rho = hermitian_part(np.linalg.solve(bordered, rhs).reshape(4, 4))
    residual = float(np.max(np.abs(liou @ rho.reshape(16))))
    if residual > 1e-12 * max(1.0, float(np.max(np.abs(liou)))):
        raise StabilityError(f"steady-state residual {residual:.3e} exceeds tolerance")
    validate_density(rho)
    return rho
