"""The exact undriven route against the RK4 route it replaced.

Property tests over random valid undriven configurations check the matrix
exponential propagator against ``rk4_step`` on the master equation's
right-hand side, and the null-space steady state against the Lyapunov
covariance.  The workhorse run's frames are checked against SciPy's
``expm`` of the complex generator assembled from the scalar rate formula.
The last two tests guard the package's headline physics: the entropy
production turns negative at the same τ₀ whichever method, and whichever
step, produces the states, undriven and under a slow drive.
"""

import numpy as np
from conftest import (
    make_system,
    random_density,
    rk4_step,
    scalar_coefficients,
    undriven_systems,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq

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
from lmesim.model import _basis
from lmesim.thermo import TAU0_TIME_TOL

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


def test_exact_frames_match_scipy_expm_of_the_complex_generator():
    # every frame of the 12-unit workhorse run, propagated frame to frame in
    # the real Hermitian coordinates, against one SciPy exponential of the
    # independently assembled row-major generator per frame time
    cfg = make_system()
    liou = (scalar_coefficients(0.0, cfg)[0] @ _basis(cfg).reshape(33, 256)).reshape(16, 16)
    rho0 = maximum_entropy_state()
    traj = integrate(rho0, 12.0, cfg)
    want = np.array([expm(liou * t) @ rho0.reshape(16) for t in traj.times])
    assert np.max(np.abs(traj.states.reshape(-1, 16) - want)) <= 2e-14


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


def test_driven_negative_entropy_production_is_step_and_method_independent(driven_system):
    # τ₀ of the slow-drive run at the default step, at twice that step and
    # from SciPy's DOP853 on the generator assembled from the scalar rate
    # formula and the complex basis (brentq on Σ̇ of its dense output) agree
    cfg = driven_system
    h = default_step(cfg)
    rho0 = maximum_entropy_state()
    res = find_tau0(integrate(rho0, 3.0, cfg), cfg)
    doubled = find_tau0(integrate(rho0, 3.0, cfg, IntegratorConfig(step=2.0 * h)), cfg)
    assert res.found and doubled.found
    basis = _basis(cfg).reshape(33, 256)

    def rhs(t, v):
        return (scalar_coefficients(t, cfg)[0] @ basis).reshape(16, 16) @ v

    t_lo, t_hi = res.bracket
    sol = solve_ivp(rhs, (0.0, t_hi + 0.01), rho0.reshape(16).astype(complex),
                    method="DOP853", rtol=1e-11, atol=1e-13, dense_output=True)
    assert sol.success

    def sigma(t):
        return entropy_production_rate(sol.sol(t).reshape(4, 4), t, cfg)

    tau0 = brentq(sigma, t_lo - 5e-3, t_hi + 5e-3, xtol=1e-12)
    assert abs(doubled.tau0 - res.tau0) < TAU0_TIME_TOL
    assert abs(tau0 - res.tau0) < TAU0_TIME_TOL
    # the DOP853 states change sign inside find_tau0's bracket
    assert sigma(t_lo) > 0.0 >= sigma(t_hi)
