"""Propagation: run plan, accuracy against RK4, recording, the undriven
frame blocks against the per-frame paths they replaced, steady state."""

import logging
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from conftest import (
    driven_systems,
    frame_recurrence,
    lme_rhs,
    make_system,
    random_density,
    rk4_step,
    scalar_coefficients,
    undriven_systems,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lmesim import (
    IntegrationError,
    IntegratorConfig,
    StabilityError,
    UnsupportedConfigError,
    decay_rate,
    default_step,
    dissipation_rates,
    integrate,
    liouvillian_matrix,
    maximum_entropy_state,
    steady_state,
    trajectory_observables,
)
from lmesim import dynamics
from lmesim.dynamics import (
    DRIVEN_BLOCK,
    ENTRY_MAX,
    FRAME_BLOCK,
    TRACE_RENORM_TOL,
    _check_frame,
    _driven_steps,
    _RunPlan,
)
from lmesim.model import (
    DENSITY_EIG_TOL,
    DENSITY_TRACE_TOL,
    HERMITIAN_BASIS,
    _basis,
    coordinates,
    real_generator_stack,
    real_liouvillian,
)


def test_integrator_config_validation_collects_problems():
    with pytest.raises(ValueError) as err:
        IntegratorConfig(step=-1.0, record_stride=0)
    msg = str(err.value)
    assert "step" in msg and "record_stride" in msg
    # a fractional stride would only fail later, in the frame layout
    with pytest.raises(ValueError, match="record_stride must be an integer"):
        IntegratorConfig(record_stride=2.5)
    assert IntegratorConfig(record_stride=np.int64(3)).record_stride == 3


@pytest.mark.parametrize("field", ["step"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_integrator_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        IntegratorConfig(**{field: value})


def test_check_frame_treats_nan_trace_as_drift():
    # a NaN comparison is False, so only a negated check catches the drift,
    # and it must fire before the eigenvalue solve sees the NaNs
    rho = np.full((4, 4), np.nan, dtype=complex)
    for driven in (False, True):
        with pytest.raises(IntegrationError, match="trace drifted to nan"):
            _check_frame(rho, 0.5, driven)


def test_check_frame_reports_the_first_failing_frame_of_a_stack():
    good = maximum_entropy_state()
    negative = np.diag([0.5, 0.5 + 1e-6, 0.0, -1e-6]).astype(complex)
    states = np.array([good, negative, 2.0 * good, good])
    times = [0.0, 0.1, 0.2, 0.3]
    with pytest.raises(IntegrationError, match="state eigenvalue") as err:
        _check_frame(states, times, False)
    assert err.value.time == 0.1
    # driven runs only record the eigenvalue, so the drift is the failure
    with pytest.raises(IntegrationError) as err:
        _check_frame(states, times, True)
    assert err.value.time == 0.2
    assert str(err.value) == "trace drifted to 2.0+0.0j, largest |entry| 5.000e-01"
    # and returns the frames' spectrum from eigh, as an undriven run does
    w, v = _check_frame(states[:2], times[:2], True)
    assert np.array_equal(w[:, 0], [np.linalg.eigh(s)[0][0] for s in states[:2]])
    assert np.array_equal(v, np.linalg.eigh(states[:2])[1])


def test_check_frame_stops_at_a_diverged_frame():
    # a unit-trace frame with an entry past the bound stops the run for
    # either generator, and its message names that entry rather than the
    # trace; a driven frame at the bound passes
    good = maximum_entropy_state()
    edge = np.diag([ENTRY_MAX, 1.0 - ENTRY_MAX, 0.0, 0.0]).astype(complex)
    _check_frame(edge, 0.0, True)
    grown = np.diag([3.0, -2.0, 0.0, 0.0]).astype(complex)
    times = [0.0, 0.1, 0.2, 0.3]
    for driven in (False, True):
        with pytest.raises(IntegrationError) as err:
            _check_frame(np.array([good, good, grown, good]), times, driven)
        assert err.value.time == 0.2
        assert str(err.value) == f"state diverged: largest |entry| 3.000e+00 above {ENTRY_MAX}"
    # a NaN entry of a unit-trace frame is no smaller than the bound either
    bad = maximum_entropy_state().astype(complex)
    bad[0, 1] = bad[1, 0] = np.nan
    for driven in (False, True):
        with pytest.raises(IntegrationError) as err:
            _check_frame(np.array([good, bad]), [0.0, 0.1], driven)
        assert err.value.time == 0.1
        assert str(err.value) == f"state diverged: largest |entry| nan above {ENTRY_MAX}"


def test_default_step_uses_fastest_scale(base_system):
    # gap scale dominates here: 2 eps_max = 20 against zeta^2 max-rate ~ 3
    rate_max = max(
        abs(g) for i in (1, 2) for g in dissipation_rates(i, 0.0, base_system)
    )
    want = 1e-3 / max(2.0 * 10.0, base_system.zeta2 * rate_max)
    assert default_step(base_system) == pytest.approx(want, rel=1e-12)
    assert default_step(base_system) == pytest.approx(5e-5, rel=1e-12)


def test_default_step_shrinks_for_hot_fast_bath():
    hot = make_system(t1=2000.0, t2=2000.0)
    # zeta^2 gamma(0-ish) ~ 0.5 * 4 kappa T overwhelms the gap scale
    assert default_step(hot) < 1e-3 / (0.5 * decay_rate(-2.0 * 5.0, hot.bath2))


def _layout(t0, t1, h, stride):
    """(n_full, tail, frames) of a run plan, each frame (first step, end
    step, frame time, span of its steps)."""
    plan = _RunPlan.of((t0, t1), h, stride)
    firsts = [0, *plan.ends[:-1].tolist()]
    frames = list(zip(firsts, plan.ends.tolist(), plan.times[1:].tolist(), plan.spans.tolist()))
    return plan.n_full, plan.tail, frames


def test_plan_steps_layout():
    n, tail = _layout(0.0, 1.0, 0.25, 1)[:2]
    assert (n, tail) == (4, 0.0)
    n, tail = _layout(0.0, 1.1, 0.25, 1)[:2]
    assert n == 4 and tail == pytest.approx(0.1)
    # a span that is an exact multiple up to rounding must not grow a sliver
    n, tail = _layout(0.0, 0.3, 0.1, 1)[:2]
    assert n == 3 and tail == 0.0


def test_rk4_step_against_matrix_exponential(base_system, rng):
    from conftest import random_density

    liou = liouvillian_matrix(base_system)
    rho0 = random_density(rng)  # excites the oscillatory sector too

    def rhs(r, _t):
        return lme_rhs(r, base_system)

    errs = {}
    for h in (2e-4, 1e-4):
        stepped = rk4_step(rho0, 0.0, h, rhs)
        exact = (expm(liou * h) @ rho0.reshape(16)).reshape(4, 4)
        errs[h] = np.max(np.abs(stepped - exact))
        assert errs[h] < 1e7 * h**5  # local truncation is O(h^5)
    # halving the step cuts the local error by ~2^5
    assert 16.0 < errs[2e-4] / errs[1e-4] < 64.0


def test_integrate_records_endpoints_and_stride(base_system):
    icfg = IntegratorConfig(step=1e-3, record_stride=50)
    traj = integrate(maximum_entropy_state(), 0.5, base_system, icfg)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 0.5
    assert traj.step == 1e-3
    assert np.allclose(np.diff(traj.times), 0.05)
    assert traj.states.shape == (len(traj.times), 4, 4)
    assert np.array_equal(traj.final_state, traj.states[-1])


def test_integrate_accepts_nested_lists(base_system):
    rho0 = maximum_entropy_state()
    icfg = IntegratorConfig(step=1e-3, record_stride=10)
    assert np.array_equal(integrate(rho0.tolist(), 0.05, base_system, icfg).states,
                          integrate(rho0, 0.05, base_system, icfg).states)


def test_integrate_accepts_time_window(base_system):
    icfg = IntegratorConfig(step=1e-3, record_stride=1000)
    traj = integrate(maximum_entropy_state(), (2.0, 2.25), base_system, icfg)
    assert traj.times[0] == 2.0
    assert traj.times[-1] == 2.25
    with pytest.raises(ValueError, match="increasing"):
        integrate(maximum_entropy_state(), (1.0, 0.5), base_system, icfg)


@pytest.mark.parametrize("t_span", [math.nan, math.inf, (-math.inf, 1.0)])
def test_integrate_rejects_non_finite_time_span(base_system, t_span):
    with pytest.raises(ValueError, match="t_span must be finite"):
        integrate(maximum_entropy_state(), t_span, base_system)


@pytest.mark.parametrize("t_span", [(0.0, 1.0, 2.0), (1.0,), [[0.0, 1.0]]])
def test_integrate_rejects_time_span_of_wrong_length(base_system, t_span):
    with pytest.raises(ValueError, match=r"t_span must be a final time or a pair"):
        integrate(maximum_entropy_state(), t_span, base_system)


def test_integrate_matches_matrix_exponential(base_system):
    # the exact propagator against the RK4 path it replaced
    t1 = 0.5
    h = 1e-4
    icfg = IntegratorConfig(step=h, record_stride=10 ** 9)
    traj = integrate(maximum_entropy_state(), t1, base_system, icfg)
    rho = maximum_entropy_state()
    for k in range(5000):
        rho = rk4_step(rho, k * h, h, lambda r, _t: lme_rhs(r, base_system))
    assert np.max(np.abs(traj.final_state - rho)) < 1e-11


def test_integrate_step_halving_consistency(driven_system):
    # mid-transient, so the bound reflects accumulated phase error at the
    # coarser step rather than the (much cleaner) relaxed late-time state
    final = {}
    for h in (1e-3, 5e-4):
        icfg = IntegratorConfig(step=h, record_stride=10 ** 9)
        final[h] = integrate(maximum_entropy_state(), 0.5, driven_system, icfg).final_state
    assert np.max(np.abs(final[1e-3] - final[5e-4])) < 1e-6


def test_integrate_keeps_states_physical(base_system):
    icfg = IntegratorConfig(step=1e-3, record_stride=100)
    traj = integrate(maximum_entropy_state(), 1.0, base_system, icfg)
    for state, low in zip(traj.states, traj.min_eigenvalues):
        assert abs(np.trace(state).real - 1.0) < 1e-10
        assert np.array_equal(state, state.conj().T)
        assert low > -1e-8


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    cfg=st.one_of(undriven_systems, driven_systems),
    steps=st.floats(1.0, 200.0),
    stride=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_trajectory_frames_stay_physical(cfg, steps, stride, seed):
    # horizons counted in default steps keep every driven run short; a
    # fractional count ends the run with a tail step
    rho0 = random_density(np.random.default_rng(seed))
    rho0 = 0.5 * (rho0 + rho0.conj().T)
    icfg = IntegratorConfig(record_stride=stride)
    traj = integrate(rho0, steps * default_step(cfg), cfg, icfg)
    states = traj.states
    traces = np.trace(states, axis1=1, axis2=2)
    assert np.all(np.abs(traces.real - 1.0) <= DENSITY_TRACE_TOL)
    assert np.array_equal(states, states.conj().transpose(0, 2, 1))
    # the frame check's solve for either kind of run: eigh, whose spectrum
    # the observables reuse
    assert np.array_equal(traj.min_eigenvalues, np.linalg.eigh(states)[0][:, 0])
    if not cfg.is_driven:
        assert np.all(traj.min_eigenvalues >= -DENSITY_EIG_TOL)


def test_integrate_rejects_unstable_step(driven_system):
    # far beyond the RK4 stability limit of the stiffest mode: the state
    # grows while its Hermitian trace coordinate stays exact, so the entry
    # bound stops the run at its first frame past it (largest |entry| 0.51
    # at t = 0.5, 30 at t = 1.0), whatever the horizon and long before
    # rounding could cancel the trace (at t = 4.0, with entries of 7e21)
    icfg = IntegratorConfig(step=0.5, record_stride=1)
    for horizon in (3.5, 20.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(IntegrationError) as err:
                integrate(maximum_entropy_state(), horizon, driven_system, icfg)
        assert err.value.time == 1.0
        # a rate of the drive went negative in the first step
        largest = re.fullmatch(
            rf"state diverged: largest \|entry\| (\S+) above {ENTRY_MAX}; a jump "
            r"rate first went negative before the frame at t=0\.5",
            str(err.value)).group(1)
        assert 10.0 < float(largest) < 100.0


def test_integrate_rejects_invalid_initial_state(base_system):
    with pytest.raises(ValueError):
        integrate(np.eye(4, dtype=complex), 1.0, base_system)


def test_integrate_rejects_a_non_finite_initial_state(base_system):
    # bad input is a ValueError, not an IntegrationError of the run
    rho0 = np.diag([np.nan, 1.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match=r"density matrix has non-finite entries at \(0, 0\)"):
        integrate(rho0, 0.1, base_system)


def test_integrate_reports_an_overflowing_generator():
    # rates this large overflow the Liouvillian; its exponential is NaN and
    # the frame check turns that into a typed error
    with np.errstate(all="ignore"), pytest.raises(IntegrationError, match="trace drifted"):
        integrate(maximum_entropy_state(), 0.01, make_system(kappa=1e306))


@pytest.mark.parametrize("rho0", [np.eye(2) / 2, np.eye(3) / 3, np.full(16, 1 / 16)])
def test_integrate_rejects_initial_state_of_wrong_shape(base_system, rho0):
    with pytest.raises(ValueError, match=r"rho0 must be a 4x4 density matrix, got shape"):
        integrate(rho0, 1.0, base_system)


def test_driven_and_static_steps_agree_without_drive(base_system):
    # the blocked time-dependent kernel's step increments on an undriven
    # configuration reproduce RK4 on the static generator to rounding,
    # across a block boundary and through a tail step
    rho = maximum_entropy_state()
    r = (HERMITIAN_BASIS.conj().T @ rho.reshape(16)).real
    h = 1e-3
    n_full, tail = DRIVEN_BLOCK + 3, 0.4 * h
    steps = list(_driven_steps(0.0, h, n_full, tail, base_system))
    assert len(steps) == n_full + 1
    for k, (inc, neg) in enumerate(steps):
        rho = rk4_step(rho, k * h, h if k < n_full else tail,
                       lambda r, u: lme_rhs(r, base_system))
        r = r + inc @ r
        assert not neg
        assert np.max(np.abs((HERMITIAN_BASIS @ r).reshape(4, 4) - rho)) <= 1e-14


def _generator_calls(t0, h, n_full, tail, cfg):
    """(times, generators, flags) of each `real_generator_stack` call that
    the driven kernel makes over a run."""
    calls = []

    def recording(times, cfg):
        out = real_generator_stack(times, cfg)
        calls.append((times, *out))
        return out

    with mock.patch.object(dynamics, "real_generator_stack", recording):
        for _ in _driven_steps(t0, h, n_full, tail, cfg):
            pass
    return calls


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(cfg=driven_systems, t0=st.floats(0.0, 50.0), n_full=st.integers(1, 300),
       tail_frac=st.floats(0.1, 0.9))
def test_driven_generators_from_distinct_stage_times_keep_their_bits(
        cfg, t0, n_full, tail_frac):
    # each block builds its generators once per distinct stage time; indexed
    # back onto the stages they equal a call over every stage time bit for bit
    h = default_step(cfg)
    tail = tail_frac * h
    calls = _generator_calls(t0, h, n_full, tail, cfg)
    n = n_full + 1
    assert len(calls) == -(-n // DRIVEN_BLOCK)
    for start, (times, gens, neg) in zip(range(0, n, DRIVEN_BLOCK), calls):
        k = np.arange(start, min(start + DRIVEN_BLOCK, n))
        sizes = np.where(k < n_full, h, tail)
        t = t0 + k * h
        stages = np.concatenate([t, t + 0.5 * sizes, t + sizes])
        distinct, where = np.unique(stages, return_inverse=True)
        assert np.array_equal(times, distinct)
        want_gens, want_neg = real_generator_stack(stages, cfg)
        assert np.array_equal(gens[where].view(np.uint64), want_gens.view(np.uint64))
        assert np.array_equal(neg[where], want_neg)


def test_driven_blocks_share_stage_times(driven_system):
    # on the criterion-6 run, stage t + h of a step and stage t of the next
    # are mostly the same float, so a block has fewer than 3 rows per step
    calls = _generator_calls(0.0, 5e-4, 4 * DRIVEN_BLOCK, 0.0, driven_system)
    assert len(calls) == 4
    assert all(len(times) < 3 * DRIVEN_BLOCK for times, _, _ in calls)


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(cfg=driven_systems, times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40),
       n_full=st.integers(1, 300), tail_frac=st.floats(0.1, 0.9))
def test_real_generators_are_the_complex_ones_in_hermitian_coordinates(
        cfg, times, n_full, tail_frac):
    # U G U† is the row-major generator assembled from the scalar rate
    # formula and the complex basis; the trace coordinate r_0 = Tr ρ / 2 has
    # an exactly zero row, so every RK4 step increment has one too and each
    # step propagator's row 0 is exactly e₀
    times = np.array(times)
    real_gens, real_neg = real_generator_stack(times, cfg)
    assert real_gens.dtype == np.float64
    for t, gen, neg in zip(times, real_gens, real_neg):
        want, want_neg = _scalar_generator(t, cfg)
        assert neg == want_neg
        err = np.max(np.abs(HERMITIAN_BASIS @ gen @ HERMITIAN_BASIS.conj().T - want))
        assert err <= 1e-14 * max(1.0, float(np.max(np.abs(want))))
    assert np.all(real_gens[:, 0] == 0.0)
    h = default_step(cfg)
    for inc, _ in _driven_steps(times[0], h, n_full, tail_frac * h, cfg):
        assert np.all(inc[0] == 0.0)


def _scalar_generator(t, cfg):
    coeffs, negative = scalar_coefficients(t, cfg)
    return (coeffs @ _basis(cfg).reshape(33, 256)).reshape(16, 16), negative


# random windows of a driven run: a start time in [0, 50], up to 300
# default steps (a fractional count ends with a tail step), and a stride
driven_windows = dict(
    cfg=driven_systems,
    t0=st.floats(0.0, 50.0),
    steps=st.floats(1.0, 300.0),
    stride=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(**driven_windows)
def test_driven_kernel_matches_scalar_generator_rk4(cfg, t0, steps, stride, seed):
    # the blocked table against RK4 on generators assembled one stage time
    # at a time from the scalar rate formula
    h = default_step(cfg)
    rho0 = random_density(np.random.default_rng(seed))
    icfg = IntegratorConfig(step=h, record_stride=stride)
    traj = integrate(rho0, (t0, t0 + steps * h), cfg, icfg)

    def rhs(r, t):
        return (_scalar_generator(t, cfg)[0] @ r.reshape(16)).reshape(4, 4)

    n_full, tail, frames = _layout(t0, t0 + steps * h, h, stride)
    rho = rho0
    ref = [rho0]
    for first, end, _, _ in frames:
        for k in range(first, end):
            rho = rk4_step(rho, t0 + k * h, h if k < n_full else tail, rhs)
        ref.append(rho)
    assert np.max(np.abs(traj.states - np.array(ref))) <= 1e-13


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(**driven_windows)
def test_rate_flags_match_a_per_stage_scalar_check(cfg, t0, steps, stride, seed):
    # a frame is flagged when a rate was negative at any stage time of any
    # of its steps, each step's stages being t, t + h/2 and t + h
    h = default_step(cfg)
    icfg = IntegratorConfig(step=h, record_stride=stride)
    traj = integrate(maximum_entropy_state(), (t0, t0 + steps * h), cfg, icfg)
    n_full, tail, frames = _layout(t0, t0 + steps * h, h, stride)
    want = [False]
    for first, end, _, _ in frames:
        flag = False
        for k in range(first, end):
            t, hk = t0 + k * h, (h if k < n_full else tail)
            flag |= any(scalar_coefficients(s, cfg)[1] for s in (t, t + 0.5 * hk, t + hk))
        want.append(flag)
    assert traj.rate_negative.tolist() == want


def test_driven_step_flags_negative_rates():
    # fast strong drive: the memory correction sends gamma_z well below zero
    # almost immediately.  Keep the horizon short — with rates this negative
    # the generator is anti-dissipative and the state grows without bound:
    # its largest |entry| is 0.32 at t = 0.01 and 6.8 at t = 0.02, where the
    # run stops.
    cfg = make_system(eps1=1.0, t1=1.5, t2=1.5, amp=(5.0, 0.0), freq=(6.0, 0.0))
    icfg = IntegratorConfig(step=1e-4, record_stride=50)
    traj = integrate(maximum_entropy_state(), 0.01, cfg, icfg)
    assert traj.rate_negative.tolist() == [False, True, True]
    with pytest.raises(IntegrationError, match="state diverged") as err:
        integrate(maximum_entropy_state(), 0.02, cfg, icfg)
    assert err.value.time == 0.02


def test_steady_state_residual_and_uniqueness(base_system, base_steady):
    assert np.max(np.abs(lme_rhs(base_steady, base_system))) < 2e-12
    # the same fixed point is reached from a different start (the
    # generator's spectral gap is 0.86, so t = 60 is relaxed to rounding)
    other = np.diag([0.7, 0.1, 0.1, 0.1]).astype(complex)
    relaxed = integrate(other, 60.0, base_system).final_state
    assert np.max(np.abs(base_steady - relaxed)) < 1e-8


def test_steady_state_requires_dissipation():
    # with zeta^2 = 0 every state commuting with H is stationary
    with pytest.raises(StabilityError, match="not unique"):
        steady_state(make_system(zeta2=0.0))


def test_steady_state_of_an_overflowing_generator_is_a_stability_error():
    # rates this large overflow the Liouvillian: a typed numerical failure,
    # not NumPy's LinAlgError from the rank's SVD
    with np.errstate(all="ignore"), pytest.raises(StabilityError, match="non-finite"):
        steady_state(make_system(kappa=1e306))


def test_steady_state_rejects_driven_configuration(driven_system):
    with pytest.raises(UnsupportedConfigError):
        steady_state(driven_system)


# ---------------------------------------------------------------------------
# the undriven frame blocks against the per-frame paths they replaced


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(cfg=undriven_systems, frames=st.integers(FRAME_BLOCK + 1, 3 * FRAME_BLOCK),
       stride=st.integers(1, 8), tail=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
def test_block_frames_match_expm_and_the_frame_recurrence(cfg, frames, stride, tail, seed):
    # more than one block of frames, the last of them a short tail span:
    # every frame against SciPy's expm(G·t_k) r_0 and against the per-frame
    # recurrence that the power-stack blocks replaced.  Measured over these
    # examples: at most 7.0e-15 against expm (the recurrence's own error
    # reached 6.5e-15) and 2.1e-15 against the recurrence; on the 12-unit
    # workhorse run, 1.9e-15 against expm, where the recurrence errs 2.2e-15
    h = default_step(cfg)
    rho0 = random_density(np.random.default_rng(seed))
    t_span = (0.0, ((frames - 1) * stride + tail) * h)
    traj = integrate(rho0, t_span, cfg, IntegratorConfig(step=h, record_stride=stride))
    plan = _RunPlan.of(t_span, h, stride)
    assert len(traj.times) == frames + 1 and plan.spans[-1] < plan.spans[0]
    gen, r0 = real_liouvillian(cfg), coordinates(rho0)
    exact = np.array([HERMITIAN_BASIS @ expm(gen * t) @ r0 for t in traj.times])
    assert np.max(np.abs(traj.states - exact.reshape(-1, 4, 4))) <= 2e-14
    assert np.max(np.abs(traj.states - frame_recurrence(rho0, cfg, plan.spans))) <= 1e-14


def test_a_block_is_renormalized_from_its_drifted_frame_on(caplog):
    # frames 50 and 90 of a block drift past TRACE_RENORM_TOL (by 3e-12 and,
    # after the first renormalization, 2e-12): each is divided by its trace,
    # with the frames after it, and each event is logged once
    rows = np.zeros((FRAME_BLOCK, 16))
    rows[:, 0] = 0.5
    rows[:, 1:] = np.random.default_rng(3).uniform(-0.1, 0.1, size=(FRAME_BLOCK, 15))
    drift = np.ones(FRAME_BLOCK)
    drift[50:] *= 1.0 + 3e-12
    drift[90:] *= 1.0 + 2e-12
    times = 0.1 * np.arange(FRAME_BLOCK)
    block = rows * drift[:, None]
    with caplog.at_level(logging.DEBUG, logger="lmesim.dynamics"):
        assert dynamics._renormalize(block, times) == FRAME_BLOCK
    assert np.array_equal(block[:50], rows[:50])
    assert np.max(np.abs(block - rows)) <= 1e-15
    assert np.all(np.abs(2.0 * block[:, 0] - 1.0) <= TRACE_RENORM_TOL)
    assert [r.getMessage() for r in caplog.records] == [
        "renormalizing trace 1.0000000000030000 at t=5.000000",
        "renormalizing trace 1.0000000000020000 at t=9.000000"]
    # a run whose initial trace is 1 + 5e-11 keeps frame 0 as it is and is
    # renormalized from frame 1 on
    rho0 = maximum_entropy_state() * (1.0 + 5e-11)
    traj = integrate(rho0, 1.0, make_system())
    assert np.array_equal(traj.states[0], rho0)
    traces = np.trace(traj.states[1:], axis1=1, axis2=2).real
    assert np.max(np.abs(traces - 1.0)) <= TRACE_RENORM_TOL


def test_a_run_ends_at_its_first_frame_drifted_past_the_density_tolerance(monkeypatch):
    # a drift past DENSITY_TRACE_TOL ends the block there, with no
    # renormalization after it
    rows = np.zeros((FRAME_BLOCK, 16))
    rows[:, 0] = 0.5 * np.where(np.arange(FRAME_BLOCK) < 70, 1.0, 1.0 + 1e-9)
    assert dynamics._renormalize(rows, np.arange(FRAME_BLOCK)) == 71
    assert np.all(rows[70:, 0] == 0.5 * (1.0 + 1e-9))
    # a trace row that grows the trace by 5e-9 per 5e-3 frame: the frame
    # loop stops after frame 1, and the frame check reports it
    cfg = make_system()
    gen = real_liouvillian(cfg).copy()
    gen[0, 0] = 1e-6
    monkeypatch.setattr(dynamics, "real_liouvillian", lambda _: gen)
    blocks = list(dynamics._frames(maximum_entropy_state(), cfg, dynamics._run_plan(1.0, cfg)))
    assert [times.tolist() for times, _, _ in blocks] == [[0.0, 0.005]]
    with pytest.raises(IntegrationError, match=r"trace drifted to 1\.000000005") as err:
        integrate(maximum_entropy_state(), 1.0, cfg)
    assert err.value.time == 0.005


def _corrupting_frames(monkeypatch, frame, rows_of, flagged):
    """Make the frame loop swap frame ``frame`` for the coordinates
    ``rows_of(r)`` of its own r and set the negative-rate flag of frame
    ``flagged``; returns the list of blocks it was asked for."""
    original = dynamics._frames
    pulled = []

    def frames(*args):
        start = 0
        for times, rows, flags in original(*args):
            rows, flags = rows.copy(), flags.copy()
            if start <= frame < start + len(rows):
                rows[frame - start] = rows_of(rows[frame - start])
            if start <= flagged < start + len(rows):
                flags[flagged - start] = True
            pulled.append(start)
            start += len(rows)
            yield times, rows, flags

    monkeypatch.setattr(dynamics, "_frames", frames)
    return pulled


@pytest.mark.parametrize("rows_of, message", [
    # a drift past DENSITY_TRACE_TOL
    (lambda r: r * (1.0 + 1e-9),
     r"trace drifted to 1\.000000001\d*\+0\.0j, largest \|entry\| \S+"),
    # a negative eigenvalue within the state space's other limits
    (lambda r: coordinates(np.diag([1.0 + 1e-6, 0.0, 0.0, -1e-6])),
     r"state eigenvalue -1\.000e-06 below -1\.0e-08"),
])
def test_a_bad_frame_mid_block_fails_at_that_frame(base_system, monkeypatch, rows_of, message):
    # frame 200, in the middle of the second block, fails the frame check:
    # the error names it and the flagged frame 150 before it, and no later
    # block is computed
    times = integrate(maximum_entropy_state(), 2.0, base_system).times
    pulled = _corrupting_frames(monkeypatch, 200, rows_of, 150)
    with pytest.raises(IntegrationError) as err:
        integrate(maximum_entropy_state(), 2.0, base_system)
    assert err.value.time == times[200]
    assert re.fullmatch(f"{message}; a jump rate first went negative before the frame "
                        f"at t={times[150]:.6g}", str(err.value))
    assert pulled == [0, FRAME_BLOCK]


def test_min_eigenvalues_are_the_observables_lowest(base_trajectory, base_system,
                                                    driven_system):
    # one eigh per frame for either kind of run: the recorded smallest
    # eigenvalues are the observables' `lowest` bit for bit, and handing the
    # observables the frame check's spectrum changes no bit of any column
    driven = integrate(maximum_entropy_state(), 0.25, driven_system,
                       IntegratorConfig(step=5e-4))
    for traj, cfg in ((base_trajectory, base_system), (driven, driven_system)):
        n = len(traj.times)
        assert [part.shape for part in traj.spectrum] == [(n, 4), (n, 4, 4)]
        reused = trajectory_observables(traj.times, traj.states, cfg, spectrum=traj.spectrum)
        own = trajectory_observables(traj.times, traj.states, cfg)
        assert np.array_equal(traj.min_eigenvalues, reused.lowest)
        for a, b in zip(reused, own):
            assert np.array_equal(a, b)
