"""Propagation of the two-qubit master equation.

Undriven configurations have a constant 16x16 generator L acting on the
row-major vectorized state, so each recorded frame is computed exactly as
expm(L·Δt) applied to the previous one; the step only lays out the frame
grid.  Driven configurations are stepped with classical fourth-order
Runge-Kutta at a fixed step on the vectorized state: each step assembles the
generator at t, t + h/2 and t + h and applies it as 16x16 matrix-vector
products.  Every new state is re-Hermitized and its trace renormalized (and
the event logged) whenever it drifts beyond 1e-12.  The steady state of an
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
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import IntegrationError, StabilityError, UnsupportedConfigError
from .linalg import hermitian_part
from .model import (
    SystemConfig,
    dissipation_rates,
    generator,
    liouvillian_matrix,
    tdlme_rhs,
    validate_density,
)

logger = logging.getLogger(__name__)

TRACE_RENORM_TOL = 1e-12
FRAME_TRACE_TOL = 1e-10
DEFAULT_FRAME_SPACING = 5e-3
STEP_SAFETY = 1e-3


@dataclass(frozen=True)
class IntegratorConfig:
    """Step, frame spacing and positivity tolerance of a propagation run.

    ``step`` is the RK4 step of driven runs; undriven runs are propagated
    exactly and use it only to lay out the frame grid.  ``step=None``
    selects the default step from the stiffest scale of the configuration;
    ``record_stride=None`` records roughly every 5e-3 time units.
    """

    step: float | None = None
    record_stride: int | None = None
    positivity_tol: float = 1e-8

    def __post_init__(self):
        problems = []
        if self.step is not None and not 0 < self.step < math.inf:
            problems.append(f"step must be positive and finite, got {self.step}")
        if self.record_stride is not None and self.record_stride < 1:
            problems.append(f"record_stride must be >= 1, got {self.record_stride}")
        if not 0 < self.positivity_tol < math.inf:
            problems.append(
                f"positivity_tol must be positive and finite, got {self.positivity_tol}")
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
    final_rhs_norm: float = field(default=math.nan)

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
    if not cfg.is_driven:
        return max(
            abs(g) for i in (1, 2) for g in dissipation_rates(i, 0.0, cfg)
        )
    periods = [
        2.0 * math.pi / q.drive_frequency
        for q in (cfg.qubit1, cfg.qubit2)
        if q.drive_amplitude != 0.0 and q.drive_frequency != 0.0
    ]
    out = 0.0
    for t in np.linspace(0.0, min(periods), 257):
        for i in (1, 2):
            out = max(out, *(abs(g) for g in dissipation_rates(i, float(t), cfg)))
    return out


def rk4_step(rho: np.ndarray, t: float, h: float, rhs,
             positivity_tol: float | None = None) -> np.ndarray:
    """One RK4 step of drho/dt = rhs(rho, t); re-Hermitizes the result.

    With ``positivity_tol`` set, raises IntegrationError if the stepped
    state has an eigenvalue below -positivity_tol.
    """
    half = 0.5 * h
    k1 = rhs(rho, t)
    k2 = rhs(rho + half * k1, t + half)
    k3 = rhs(rho + half * k2, t + half)
    k4 = rhs(rho + h * k3, t + h)
    out = rho + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    out = _normalize(out, t + h)
    if positivity_tol is not None:
        low = float(np.linalg.eigvalsh(out)[0])
        if low < -positivity_tol:
            raise IntegrationError(
                f"state eigenvalue {low:.3e} below -{positivity_tol:.1e}",
                time=t + h,
            )
    return out


def _normalize(rho: np.ndarray, t: float) -> np.ndarray:
    rho = hermitian_part(rho)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_RENORM_TOL:
        logger.debug("renormalizing trace %.16f at t=%.6f", tr, t)
        rho = rho / tr
    return rho


def _plan_steps(t0: float, t1: float, h: float):
    span = t1 - t0
    n_full = int(math.floor(span / h + 1e-9))
    tail = span - n_full * h
    if tail < 1e-12 * max(1.0, abs(t1)):
        tail = 0.0
    return n_full, tail


def _frame_plan(t0: float, t1: float, h: float, stride: int):
    """Layout of a run from t0 to t1: ``n_full`` steps of size h and, when
    they fall short of t1, one ``tail`` step onto it; frames are recorded
    every ``stride`` steps and at t1.

    Returns (n_full, tail, frames); each frame is (first step, end step,
    frame time, span of its steps).
    """
    n_full, tail = _plan_steps(t0, t1, h)
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
    """Propagate rho0 over t_span = (t0, t1) (or a bare final time).

    Undriven frames are exact (one matrix exponential per distinct frame
    spacing); driven frames come from fixed-step RK4.  Frames are validated
    as they are recorded: the trace must stay within 1e-10 of one, and for
    undriven configurations the smallest eigenvalue must stay above
    -positivity_tol (driven runs only record it, since the time-dependent
    generator is not guaranteed completely positive).
    """
    icfg = integrator or IntegratorConfig()
    validate_density(rho0)
    if np.isscalar(t_span):
        t0, t1 = 0.0, float(t_span)
    else:
        t0, t1 = (float(x) for x in t_span)
    if t1 < t0:
        raise ValueError(f"t_span must be increasing, got ({t0}, {t1})")

    h = icfg.step if icfg.step is not None else default_step(cfg)
    stride = icfg.record_stride
    if stride is None:
        stride = max(1, round(DEFAULT_FRAME_SPACING / h))

    driven = cfg.is_driven
    if not driven:
        liou = liouvillian_matrix(cfg)
        propagator = functools.cache(lambda span: expm(liou * span))

    rho = rho0.astype(complex)
    times = [t0]
    states = [rho]
    min_eigs = [_check_frame(rho, t0, icfg, driven)]
    rate_flags = [False]

    n_full, tail, frames = _frame_plan(t0, t1, h, stride)
    for first, end, t, span in frames:
        neg_seen = False
        if driven:
            for k in range(first, end):
                hk = h if k < n_full else tail
                rho, neg = _driven_step(rho, t0 + k * h, hk, cfg)
                neg_seen = neg_seen or neg
        else:
            rho = _normalize((propagator(span) @ rho.reshape(16)).reshape(4, 4), t)
        times.append(t)
        states.append(rho)
        min_eigs.append(_check_frame(rho, t, icfg, driven))
        rate_flags.append(neg_seen)

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        min_eigenvalues=np.array(min_eigs),
        rate_negative=np.array(rate_flags, dtype=bool),
        step=h,
        record_stride=stride,
        final_rhs_norm=float(np.max(np.abs(tdlme_rhs(rho, t1, cfg)))),
    )


def _check_frame(rho, t, icfg: IntegratorConfig, driven: bool) -> float:
    """Raise on trace drift (a NaN trace counts as drift) or, undriven, on a
    negative eigenvalue; return the smallest eigenvalue."""
    tr = float(np.trace(rho).real)
    if not abs(tr - 1.0) <= FRAME_TRACE_TOL:
        raise IntegrationError(f"trace drifted to {tr!r}", time=t)
    low = float(np.linalg.eigvalsh(rho)[0])
    if not driven and low < -icfg.positivity_tol:
        raise IntegrationError(
            f"state eigenvalue {low:.3e} below -{icfg.positivity_tol:.1e}",
            time=t,
        )
    return low


def _driven_step(rho, t, h, cfg: SystemConfig):
    """One RK4 step of the time-dependent equation on the vectorized state,
    sharing the midpoint generator between the two middle stages.  Returns
    (state, neg_rate_seen)."""
    half = 0.5 * h
    l_lo, neg_lo = generator(t, cfg)
    l_mid, neg_mid = generator(t + half, cfg)
    l_hi, neg_hi = generator(t + h, cfg)
    v = rho.reshape(16)
    k1 = l_lo @ v
    k2 = l_mid @ (v + half * k1)
    k3 = l_mid @ (v + half * k2)
    k4 = l_hi @ (v + h * k3)
    out = v + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return _normalize(out.reshape(4, 4), t + h), neg_lo or neg_mid or neg_hi


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
