"""The exact undriven route against the RK4 route it replaced.

Property tests over random valid undriven configurations check the matrix
exponential propagator against ``rk4_step`` on the master equation's
right-hand side, and the null-space steady state against the Lyapunov
covariance.  The last test guards the package's headline physics: the
entropy production turns negative at the same τ₀ whichever method, and
whichever step, produces the states.
"""

import numpy as np
from conftest import make_system, random_density, rk4_step, undriven_systems
from hypothesis import given, settings
from hypothesis import strategies as st

from lmesim import (
    IntegratorConfig,
    covariance_from_density,
    default_step,
    drift_diffusion,
    entropy_production_rate,
    find_tau0,
    integrate,
    liouvillian_matrix,
    lme_rhs,
    maximum_entropy_state,
    steady_covariance,
    steady_state,
)

# deterministic and stateless: the same examples on every run, nothing
# written to a local example database
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=20)

@PROPERTY
@given(cfg=undriven_systems, seed=st.integers(0, 2**32 - 1))
def test_exact_frames_match_rk4_steps(cfg, seed):
    # 200 full steps and a partial one, frames every 64 steps: full blocks
    # and a last block that carries the tail
    h = default_step(cfg)
    rho0 = random_density(np.random.default_rng(seed))
    horizon = 200.37 * h
    traj = integrate(rho0, horizon, cfg, IntegratorConfig(step=h, record_stride=64))

    def rhs(r, _t):
        return lme_rhs(r, cfg)

    rho = rho0
    ref = [rho0]
    for k in range(200):
        rho = rk4_step(rho, k * h, h, rhs)
        if (k + 1) % 64 == 0:
            ref.append(rho)
    ref.append(rk4_step(rho, 200 * h, horizon - 200 * h, rhs))
    assert len(traj.states) == len(ref)
    assert np.max(np.abs(traj.states - np.array(ref))) < 1e-11


@PROPERTY
@given(cfg=undriven_systems)
def test_steady_state_matches_lyapunov_covariance(cfg):
    from_density = covariance_from_density(steady_state(cfg))
    lyapunov = steady_covariance(drift_diffusion(cfg))
    assert np.max(np.abs(from_density - lyapunov)) < 1e-10


def _rk4_states(cfg, h, times):
    """States at ``times`` from fixed-step RK4 on the static generator."""
    liou = liouvillian_matrix(cfg)

    def rhs(r, _t):
        return (liou @ r.reshape(16)).reshape(4, 4)

    rho = maximum_entropy_state()
    t = 0.0
    out = []
    for target in times:
        n = int((target - t) // h)
        for k in range(n):
            rho = rk4_step(rho, t + k * h, h, rhs)
        tail = target - (t + n * h)
        if tail > 0.0:
            rho = rk4_step(rho, t + n * h, tail, rhs)
        t = target
        out.append(rho)
    return out


def test_negative_entropy_production_is_method_independent():
    cfg = make_system()
    h = default_step(cfg)
    res = find_tau0(integrate(maximum_entropy_state(), 3.0, cfg), cfg)
    assert res.found
    t_lo, t_hi = res.bracket
    # halving the step moves the frame grid, not the crossing
    halved = find_tau0(
        integrate(maximum_entropy_state(), 3.0, cfg, IntegratorConfig(step=h / 2)),
        cfg,
    )
    assert abs(halved.tau0 - res.tau0) < 1e-6
    # RK4 states at both step sizes put the sign change inside the bracket
    for step in (h, h / 2):
        lo, hi = _rk4_states(cfg, step, (t_lo, t_hi))
        assert entropy_production_rate(lo, t_lo, cfg) > 0.0
        assert entropy_production_rate(hi, t_hi, cfg) <= 0.0
