"""Propagation of the two-qubit master equation.

Both kinds of run carry the state as its real coordinates r = U†v in the
orthonormal Hermitian basis U (`model.HERMITIAN_BASIS`; v is the row-major
vec of ρ), on which every generator G is a real 16x16 matrix with an exactly
zero trace row.  Undriven runs have a constant G (`model.real_liouvillian`),
so frame k of a stretch of equally spaced frames is exactly P^k applied to
the frame before the stretch, P = expm(G·span): `linalg.expm` is called
once for the grid's span (and once for a last frame off it), its powers
P¹…P¹²⁸ are built by repeated doubling, and a block of frames is one
batched product; the step only lays out the frame grid.  Driven runs take
fixed RK4 steps, DRIVEN_BLOCK at a time: one `model.real_generator_stack`
call over the block's distinct stage times, then three batched real 16x16
products give each step's increment D, so a step is r + D r and keeps
r_0 = Tr ρ / 2 to the bit.  From a frame whose trace 2 r_0 drifted beyond
1e-12 on, a block is renormalized (and the event logged); its states
v = U r are Hermitian by construction.  A run stops at a frame whose trace
drifted beyond DENSITY_TRACE_TOL or, driven, whose largest |entry| is not
within ENTRY_MAX (a driven run keeps its trace exactly, so that bound, not
rounding, stops one that leaves the state space).  The steady state of an
undriven configuration is the null vector of G with r_0 = ½.

Recorded frames carry the smallest eigenvalue of the state and a flag that
marks whether any jump rate went negative since the previous frame (the
finite-memory corrections can push rates below zero transiently under a
strong drive; that is diagnostic information, not an error).  A run that
fails its frame checks names, beside the bad frame, the first frame at or
before it with that flag set.

`_run_plan` resolves a run's step, stride and frame layout once.  One frame
loop, the generator `_frames`, yields the run's frames in blocks
(times, R, flags) of FRAME_BLOCK frames, R the (n, 16) real coordinates;
`_checked` forms each block's states with one product against U and gives
every frame, driven or not, one ``eigh`` for the frame check, the recorded
smallest eigenvalues and the observables.  `integrate` concatenates the
blocks, and `thermo.find_tau0` consumes them up to the block of its
crossing.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrationError, StabilityError, UnsupportedConfigError
from .linalg import expm, require_finite
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
#: frames per block of the frame loop, and of the observables
FRAME_BLOCK = 128


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
    spectrum: tuple                   # eigh (w, V): (n_frames, 4), (n_frames, 4, 4)
    rate_negative: np.ndarray         # (n_frames,) bool, since previous frame
    step: float
    record_stride: int

    @property
    def min_eigenvalues(self) -> np.ndarray:    # (n_frames,)
        return self.spectrum[0][:, 0]

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
        periods = [2.0 * math.pi / q.drive_frequency for q in (cfg.qubit1, cfg.qubit2) if q.is_driven]
        times = np.linspace(0.0, min(periods), 257)
    return max(float(np.max(np.abs(dissipation_rates(i, times, cfg)))) for i in (1, 2))


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


@dataclass(frozen=True, eq=False)
class _RunPlan:
    """A run resolved once: ``n_full`` steps of size ``step`` from t0 and,
    when they fall short of t1, one ``tail`` step onto it.  Frame 0 is at
    t0, each later one ``every`` steps (``stride``, by default about
    DEFAULT_FRAME_SPACING/step, at most the step count) or ``span`` after
    the one before, but the last: it holds the rest, spans ``last`` and
    lies at t1.  ``times`` holds every frame's time."""

    step: float
    stride: int
    n_full: int
    tail: float
    every: int
    span: float
    last: float
    times: np.ndarray

    @classmethod
    def of(cls, t_span, step: float, stride: int | None) -> _RunPlan:
        t0, t1 = _time_span(t_span)
        count, spacing = (t1 - t0) / step + 1e-9, DEFAULT_FRAME_SPACING / step
        if not (math.isfinite(count) and (stride or math.isfinite(spacing))):
            raise ConfigError(f"step {step!r} is too small for the span ({t0!r}, {t1!r})")
        stride = stride or max(1, round(spacing))
        n_full = int(math.floor(count))
        tail = t1 - t0 - n_full * step
        if tail < 1e-12 * max(1.0, abs(t1)):
            tail = 0.0
        n = n_full + (1 if tail else 0)
        every = min(stride, max(n, 1))       # a stride past n frames only t1
        if (frames := (n - 1) // every + 2 if n else 1) > np.iinfo(np.intp).max // 8:
            raise ConfigError(f"step {step!r} over the span ({t0!r}, {t1!r}) makes "
                              f"{frames:.3g} frames, more than an array of times holds")
        rest = (n - 1) % every + 1 - (1 if tail else 0)   # the last frame's full steps
        times = np.append(t0, t0 + np.arange(every, n, every) * step)
        return cls(step, stride, n_full, tail, every, every * step, rest * step + tail,
                   np.append(times, t1) if n else times)

    @property
    def on_grid(self) -> int:
        """Frames 1..on_grid span ``span``: all but a last one off the grid."""
        return len(self.times) - 1 - (self.last != self.span)


def _run_plan(t_span, cfg: SystemConfig, integrator: IntegratorConfig | None = None) -> _RunPlan:
    """The plan of a run of cfg over t_span: the integrator's step (by
    default `default_step`) and stride."""
    icfg = integrator or IntegratorConfig()
    h = icfg.step if icfg.step is not None else default_step(cfg)
    return _RunPlan.of(t_span, h, icfg.record_stride)


def _powers(p: np.ndarray, m: int) -> np.ndarray:
    """P¹…P^m of the 16x16 P by repeated doubling (P^(k+j) = P^k P^j),
    stacked as one (16m, 16) array."""
    stack = p[None]
    while len(stack) < m:
        stack = np.concatenate([stack, stack[-1] @ stack[:m - len(stack)]])
    return stack.reshape(-1, 16)


def _exact_frames(cfg: SystemConfig, plan: _RunPlan):
    """advance(r, first, stop) of an undriven run: frames first..stop-1 from
    frame first - 1 at r.  The frames on the grid take P¹…P^m of P =
    expm(G·span) in one product, up to FRAME_BLOCK powers built once, and a
    last frame off it takes expm(G·last); each is built only when used."""
    gen, on_grid = real_liouvillian(cfg), plan.on_grid
    powers = _powers(expm(gen * plan.span), min(on_grid, FRAME_BLOCK)) if on_grid else None
    last = expm(gen * plan.last) if on_grid < len(plan.times) - 1 else None

    def advance(r, first, stop):
        m = min(stop - 1, on_grid) - first + 1
        rows = (powers[:16 * m] @ r).reshape(m, 16) if m else np.empty((0, 16))
        if stop - first > m:    # the last frame, off the grid
            rows = np.vstack([rows, last @ (rows[-1] if m else r)])
        return rows, np.zeros(len(rows), dtype=bool), False

    return advance


def _driven_frames(cfg: SystemConfig, plan: _RunPlan):
    """advance(r, first, stop) of a driven run: frames first..stop-1 from
    frame first - 1 at r, each the ``every`` `_driven_steps` since the frame
    before (the last the rest) taken one at a time as r + D r and flagged
    when a rate was negative in one of them.  It stops after a frame with an
    entry beyond ENTRY_MAX (diverged) and says so."""
    steps = _driven_steps(float(plan.times[0]), plan.step, plan.n_full, plan.tail, cfg)

    def advance(r, first, stop):
        rows, flags, diverged = [], [], False
        for _ in range(first, stop):
            neg_seen = False
            for _, (inc, neg) in zip(range(plan.every), steps):   # range first: no step lost
                r = r + inc @ r
                neg_seen = neg_seen or neg
            rows.append(r)
            flags.append(neg_seen)
            # |entry| <= ‖U r‖ = ‖r‖, so a frame within ‖r‖ <= 1 needs no U r
            diverged = not r @ r <= 1.0 and not np.abs(HERMITIAN_BASIS @ r).max() <= ENTRY_MAX
            if diverged:
                break
        return np.reshape(rows, (-1, 16)), np.array(flags, dtype=bool), diverged

    return advance


def _renormalize(rows: np.ndarray, times: np.ndarray) -> int:
    """Renormalize a block of frames in place, in order: from a frame whose
    trace 2 r_0 drifted beyond TRACE_RENORM_TOL on, every frame is divided
    by that trace (the later ones were propagated from it, linearly), and
    the event is logged.  Returns the count of frames up to and including
    the first whose trace drifted beyond DENSITY_TRACE_TOL (NaN counts), or
    of all of them."""
    k = 0
    while (off := np.flatnonzero(~(np.abs(2.0 * rows[k:, 0] - 1.0) <= TRACE_RENORM_TOL))).size:
        k += int(off[0])
        tr = 2.0 * rows[k, 0]
        if not abs(tr - 1.0) <= DENSITY_TRACE_TOL:
            return k + 1
        logger.debug("renormalizing trace %.16f at t=%.6f", tr, times[k])
        rows[k:] /= tr
        k += 1
    return len(rows)


def _frames(rho0: np.ndarray, cfg: SystemConfig, plan: _RunPlan):
    """The frames of a run in blocks (times, R, flags) of FRAME_BLOCK frames
    from frame 0, R the (n, 16) real coordinates and flags the
    negative-rate flags, up to the plan's last frame or to the first
    drifted or diverged frame (see `integrate`)."""
    if np.shape(rho0) != (4, 4):
        raise ValueError(f"rho0 must be a 4x4 density matrix, got shape {np.shape(rho0)}")
    validate_density(rho0)
    advance = (_driven_frames if cfg.is_driven else _exact_frames)(cfg, plan)
    r = coordinates(rho0)     # r = U†v
    for start in range(0, len(plan.times), FRAME_BLOCK):
        first, stop = max(start, 1), min(start + FRAME_BLOCK, len(plan.times))
        rows, flags, ended = advance(r, first, stop)
        kept = _renormalize(rows, plan.times[first:stop])
        rows, flags = rows[:kept], flags[:kept]
        if not start:     # frame 0: the initial state as it is
            rows, flags = np.vstack([r, rows]), np.append(False, flags)
        yield plan.times[start:start + len(rows)], rows, flags
        if ended or first + kept < stop:
            return    # the frame check reports the drifted or diverged frame
        r = rows[-1].copy()


def _checked(blocks, driven: bool):
    """The frame blocks (times, R, flags) as blocks (times, states, spectrum,
    flags) that passed `_check_frame`, with its spectrum (w, V).  A block's
    states are one product U r per frame, stacked; an error names the first
    flagged frame of the run up to the failure (`_add_rate_cause`)."""
    times_seen, flags_seen = [], []
    for times, rows, flags in blocks:
        times_seen.append(times)
        flags_seen.append(flags)
        states = (HERMITIAN_BASIS @ rows[..., None]).reshape(-1, 4, 4)
        try:
            spectrum = _check_frame(states, times, driven)
        except IntegrationError as exc:
            _add_rate_cause(exc, np.concatenate(times_seen), np.concatenate(flags_seen))
            raise
        yield times, states, spectrum, flags


def integrate(rho0: np.ndarray, t_span, cfg: SystemConfig,
              integrator: IntegratorConfig | None = None) -> Trajectory:
    """Propagate the 4x4 rho0 over t_span = (t0, t1) (or a bare final
    time); an initial state or span of any other shape raises ValueError.

    Undriven frames are exact (powers of one matrix exponential, and one
    more for a last frame off the grid); driven frames come from fixed-step
    RK4.  A run stops at the first frame whose trace 2 r_0, before
    renormalization, is not within DENSITY_TRACE_TOL of one or, driven,
    whose largest |entry| is not within ENTRY_MAX, and records that frame
    as computed.  The frames are checked block by block as `_frames` yields
    them (`_checked`); an error names the first bad frame (that drifted or
    diverged frame or, undriven, a smallest eigenvalue below
    -DENSITY_EIG_TOL, which a driven run only records since its generator
    is not guaranteed completely positive) and its likely cause
    (`_add_rate_cause`).  The blocks are concatenated.
    """
    plan = _run_plan(t_span, cfg, integrator)
    times, states, spectra, flags = zip(*_checked(_frames(rho0, cfg, plan), cfg.is_driven))
    return Trajectory(
        times=np.concatenate(times),
        states=np.concatenate(states),
        spectrum=tuple(map(np.concatenate, zip(*spectra))),
        rate_negative=np.concatenate(flags),
        step=plan.step,
        record_stride=plan.stride,
    )


def _add_rate_cause(exc: Exception, times: np.ndarray, flags: np.ndarray) -> None:
    """Extend the message of ``exc``, a failure at the frame time
    ``exc.time``, by the first frame at or before it whose negative-rate flag
    is set: a rate below zero is what lets the equation leave the state
    space.  A run with no such frame keeps its message."""
    flagged = np.flatnonzero(flags & (times <= exc.time))
    if flagged.size:
        exc.args = (f"{exc.args[0]}; a jump rate first went negative before "
                    f"the frame at t={times[flagged[0]]:.6g}", *exc.args[1:])


def _check_frame(states, times, driven: bool):
    """Check frames in order; return their spectrum (w, V) from `eigh`.

    ``states`` is one frame or a stack of them at ``times``.  Raises
    IntegrationError at the first frame whose complex trace drifted beyond
    DENSITY_TRACE_TOL (NaN counts as drift), whose largest |entry| is not
    within ENTRY_MAX (diverged; a NaN entry of a unit-trace frame too) or,
    undriven, whose smallest eigenvalue is below -DENSITY_EIG_TOL (a driven
    run only records it).  Drift and divergence are checked first, and one
    `eigh` then covers the frames before the first of them; the observables
    reuse its spectrum (`thermo.trajectory_observables`).
    """
    states = np.asarray(states).reshape(-1, 4, 4)
    times = np.atleast_1d(times)
    traces = np.trace(states, axis1=1, axis2=2)
    largest = np.abs(states).max(axis=(1, 2))
    traced = np.abs(traces - 1.0) <= DENSITY_TRACE_TOL
    stopped = np.flatnonzero(~traced | ~(largest <= ENTRY_MAX))
    end = stopped[0] if stopped.size else len(states)
    spectrum = np.linalg.eigh(states[:end])
    lows = spectrum[0][:, 0]
    if not driven and (negative := np.flatnonzero(lows < -DENSITY_EIG_TOL)).size:
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
    return spectrum


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

    Raises StabilityError when the generator has a non-finite entry (rates
    that overflow), when the fixed point is not unique (with ζ² = 0 every
    state that commutes with H is stationary) or when the solution does not
    annihilate the generator to rounding.
    """
    if cfg.is_driven:
        raise UnsupportedConfigError(
            "steady-state search requires an undriven configuration"
        )
    gen = real_liouvillian(cfg)
    require_finite("static generator", gen, StabilityError)
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
    if not residual <= 1e-12 * max(1.0, float(np.max(np.abs(gen)))):
        raise StabilityError(f"steady-state residual {residual:.3e} exceeds tolerance")
    rho = (HERMITIAN_BASIS @ r).reshape(4, 4)
    validate_density(rho)
    return rho
