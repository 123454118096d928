"""Propagation: stepping plan, accuracy against RK4, recording, steady state."""

import math

import numpy as np
import pytest
from conftest import driven_systems, make_system, random_density, undriven_systems
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
    lme_rhs,
    maximum_entropy_state,
    rk4_step,
    steady_state,
)
from lmesim.dynamics import FRAME_TRACE_TOL, _check_frame, _driven_step, _plan_steps


def test_integrator_config_validation_collects_problems():
    with pytest.raises(ValueError) as err:
        IntegratorConfig(step=-1.0, record_stride=0, positivity_tol=0.0)
    msg = str(err.value)
    assert "step" in msg and "record_stride" in msg and "positivity_tol" in msg


@pytest.mark.parametrize("field", ["step", "positivity_tol"])
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
            _check_frame(rho, 0.5, IntegratorConfig(), driven)


def test_check_frame_reports_the_first_failing_frame_of_a_stack():
    good = maximum_entropy_state()
    negative = np.diag([0.5, 0.5 + 1e-6, 0.0, -1e-6]).astype(complex)
    states = np.array([good, negative, 2.0 * good, good])
    times = [0.0, 0.1, 0.2, 0.3]
    icfg = IntegratorConfig()
    with pytest.raises(IntegrationError, match="state eigenvalue") as err:
        _check_frame(states, times, icfg, False)
    assert err.value.time == 0.1
    # driven runs only record the eigenvalue, so the drift is the failure
    with pytest.raises(IntegrationError, match="trace drifted to 2.0") as err:
        _check_frame(states, times, icfg, True)
    assert err.value.time == 0.2
    lows = _check_frame(states[:2], times[:2], icfg, True)
    assert np.array_equal(lows, [np.linalg.eigvalsh(s)[0] for s in states[:2]])


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


def test_plan_steps_layout():
    n, tail = _plan_steps(0.0, 1.0, 0.25)
    assert (n, tail) == (4, 0.0)
    n, tail = _plan_steps(0.0, 1.1, 0.25)
    assert n == 4 and tail == pytest.approx(0.1)
    # a span that is an exact multiple up to rounding must not grow a sliver
    n, tail = _plan_steps(0.0, 0.3, 0.1)
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


def test_rk4_step_positivity_gate(base_system):
    # an absurdly large step destroys positivity; the optional gate reports it
    def rhs(r, _t):
        return lme_rhs(r, base_system)

    rho0 = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(IntegrationError):
        rk4_step(rho0, 0.0, 5.0, rhs, positivity_tol=1e-8)


def test_integrate_records_endpoints_and_stride(base_system):
    icfg = IntegratorConfig(step=1e-3, record_stride=50)
    traj = integrate(maximum_entropy_state(), 0.5, base_system, icfg)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 0.5
    assert traj.step == 1e-3
    assert np.allclose(np.diff(traj.times), 0.05)
    assert traj.states.shape == (len(traj.times), 4, 4)
    assert np.array_equal(traj.final_state, traj.states[-1])


def test_integrate_accepts_time_window(base_system):
    icfg = IntegratorConfig(step=1e-3, record_stride=1000)
    traj = integrate(maximum_entropy_state(), (2.0, 2.25), base_system, icfg)
    assert traj.times[0] == 2.0
    assert traj.times[-1] == 2.25
    with pytest.raises(ValueError, match="increasing"):
        integrate(maximum_entropy_state(), (1.0, 0.5), base_system, icfg)


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
    assert np.all(np.abs(traces.real - 1.0) <= FRAME_TRACE_TOL)
    assert np.array_equal(states, states.conj().transpose(0, 2, 1))
    assert np.array_equal(traj.min_eigenvalues, np.linalg.eigvalsh(states)[:, 0])
    if not cfg.is_driven:
        assert np.all(traj.min_eigenvalues >= -icfg.positivity_tol)


def test_integrate_rejects_unstable_step(driven_system):
    # far beyond the RK4 stability limit of the stiffest mode
    icfg = IntegratorConfig(step=0.5, record_stride=1)
    with pytest.raises(IntegrationError):
        integrate(maximum_entropy_state(), 20.0, driven_system, icfg)


def test_integrate_rejects_invalid_initial_state(base_system):
    with pytest.raises(ValueError):
        integrate(np.eye(4, dtype=complex), 1.0, base_system)


def test_driven_and_static_steps_agree_bitwise_without_drive(base_system):
    # the time-dependent stepping machinery on an undriven configuration
    # reproduces the static generator's floats exactly
    rho = maximum_entropy_state()
    h = 1e-3
    t = 0.0
    for _ in range(5):
        via_td, neg = _driven_step(rho, t, h, base_system)
        rho = rk4_step(rho, t, h, lambda r, u: lme_rhs(r, base_system))
        assert not neg
        assert np.array_equal(via_td, rho)
        t += h


def test_driven_step_flags_negative_rates():
    # fast strong drive: the memory correction sends gamma_z well below zero
    # almost immediately.  Keep the horizon short — with rates this negative
    # the generator is anti-dissipative and the state grows without bound.
    cfg = make_system(eps1=1.0, t1=1.5, t2=1.5, amp=(5.0, 0.0), freq=(6.0, 0.0))
    icfg = IntegratorConfig(step=1e-4, record_stride=50)
    traj = integrate(maximum_entropy_state(), 0.02, cfg, icfg)
    assert traj.rate_negative.any()


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


def test_steady_state_rejects_driven_configuration(driven_system):
    with pytest.raises(UnsupportedConfigError):
        steady_state(driven_system)
