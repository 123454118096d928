"""End-to-end checks of the package's nine headline claims.

Each test carries a ``criterion`` marker; the terminal summary prints one
[PASS]/[FAIL] line per criterion after the run (see conftest).
"""

import math

import numpy as np
import pytest
from conftest import (
    decay_rate_quadrature,
    fit_power_law,
    integrate_covariance,
    lamb_shift,
    lamb_shift_quadrature,
    lme_rhs,
    make_system,
    memory_correction_rate,
    one_sided_rate,
    random_density,
    table_rows,
)

from lmesim import (
    BathParams,
    IntegratorConfig,
    ScenarioConfig,
    covariance_from_density,
    decay_rate,
    drift_diffusion,
    effective_temperature_check,
    entropy_production_rate,
    find_tau0,
    heat_current,
    integrate,
    maximum_entropy_state,
    run_scenario,
    steady_covariance,
    steady_heat_currents,
    tdlme_rhs,
)


def _steady_j1(cfg) -> float:
    cov = steady_covariance(drift_diffusion(cfg))
    return steady_heat_currents(cov, cfg)[0]


@pytest.mark.criterion(
    1, "steady entropy production changes sign on the temperature-ratio line"
)
def test_criterion_1_boundary_contour(base_system):
    t_grid = tuple(float(x) for x in np.linspace(1.0, 3.0, 41))
    e_grid = tuple(float(x) for x in np.linspace(0.5, 3.0, 41))
    cfg = ScenarioConfig(
        kind="sweep_boundary", system=base_system,
        integrator=IntegratorConfig(),
        t_ratio_grid=t_grid, eps_ratio_grid=e_grid,
    )
    table = run_scenario(cfg)
    rows = table_rows(table)
    assert all(row[3] == "ok" for row in rows)
    eps = np.array(e_grid)
    cell = eps[1] - eps[0]
    for t_ratio in t_grid:
        sigmas = np.array([row[2] for row in rows if row[0] == t_ratio])
        if t_ratio == t_grid[0]:
            # equal temperatures: Σ̇_ss = (β₂-β₁)J₁ vanishes identically, so
            # the whole row lies on the zero contour
            assert np.max(np.abs(sigmas)) < 1e-9
            continue
        below = eps <= t_ratio - cell + 1e-12
        above = eps >= t_ratio + cell - 1e-12
        assert np.all(sigmas[below] > 0.0)
        assert np.all(sigmas[above] < 0.0)


@pytest.mark.criterion(
    2, "resonant heat current magnitude and detuned sign reversal"
)
def test_criterion_2_resonant_and_detuned_currents(resonant_system):
    grid = tuple(float(x) for x in np.linspace(0.0, 10.0, 101))
    cfg = ScenarioConfig(
        kind="sweep_detuning", system=resonant_system,
        integrator=IntegratorConfig(), detuning_grid=grid,
    )
    table = run_scenario(cfg)
    rows = table_rows(table)
    assert all(row[2] == "ok" for row in rows)
    j1 = {row[0]: row[1] for row in rows}
    zeta2 = resonant_system.zeta2
    assert j1[0.0] > 0.0
    assert 0.1 <= j1[0.0] / zeta2 <= 10.0
    for delta, val in j1.items():
        if delta >= 0.9:
            assert abs(val) < 0.01
        if delta > 5.0:
            assert val < 0.0


@pytest.mark.criterion(
    3, "steady current scales as the product of the two coupling strengths"
)
def test_criterion_3_scaling_law():
    grid = np.geomspace(1e-4, 1.0, 13)
    points = []

    for lam in (0.001, 0.01, 0.1):
        mags = []
        for z in grid:
            cfg = make_system(eps1=15.0, eps2=10.0, t1=20.0, t2=10.0,
                              coupling=lam, zeta2=float(z))
            mags.append(abs(_steady_j1(cfg)))
            points.append((lam * lam, float(z), mags[-1]))
        fit = fit_power_law(grid, mags)
        assert abs(fit.slope - 1.0) <= 0.05
        assert fit.r_squared > 0.999

    for zeta in (0.001, 0.01, 0.1):
        mags = []
        for lam2 in grid:
            cfg = make_system(eps1=15.0, eps2=10.0, t1=20.0, t2=10.0,
                              coupling=math.sqrt(lam2), zeta2=zeta * zeta)
            mags.append(abs(_steady_j1(cfg)))
        fit = fit_power_law(grid, mags)
        assert abs(fit.slope - 1.0) <= 0.05
        assert fit.r_squared > 0.999

    # joint fit ln|J1| = a ln λ² + b ln ζ² + c over the first family
    design = np.array([[math.log(l2), math.log(z), 1.0] for l2, z, _ in points])
    target = np.log([m for _, _, m in points])
    (a, b, _), *_ = np.linalg.lstsq(design, target, rcond=None)
    assert abs(a - 1.0) <= 0.05
    assert abs(b - 1.0) <= 0.05


@pytest.mark.criterion(
    4, "entropy production turns negative near t = 2.23 on the workhorse run"
)
def test_criterion_4_crossing_time(base_trajectory, base_system, base_steady):
    res = find_tau0(maximum_entropy_state(), 12.0, base_system)
    assert res.found
    assert abs(res.tau0 / 2.23 - 1.0) < 0.05
    for t, state in zip(base_trajectory.times, base_trajectory.states):
        if float(t) < res.tau0:
            assert entropy_production_rate(state, float(t), base_system) > 0.0
    j1 = heat_current(1, base_steady, 0.0, base_system)[0]
    j2 = heat_current(2, base_steady, 0.0, base_system)[0]
    assert j1 < 0.0 < j2


@pytest.mark.criterion(
    5, "relaxation time scales inversely with the system-bath coupling"
)
def test_criterion_5_relaxation_scaling(base_system):
    grid = tuple(float(x) for x in np.geomspace(0.1, 1.0, 7))
    cfg = ScenarioConfig(
        kind="relaxation", system=base_system,
        integrator=IntegratorConfig(), relaxation_grid=grid,
    )
    table = run_scenario(cfg)
    rows = table_rows(table)
    assert all(row[4] == "ok" for row in rows)
    zeta2s = [row[0] for row in rows]
    tau_rs = [row[2] for row in rows]
    fit = fit_power_law(zeta2s, tau_rs)
    assert abs(fit.slope + 1.0) <= 0.05
    for row in rows:
        assert abs(row[3] / 3.8 - 1.0) <= 0.10


@pytest.mark.criterion(
    6, "slow drive keeps thermal rate ratios while entropy production goes negative"
)
def test_criterion_6_driven_run(driven_trajectory, driven_system):
    for i in (1, 2):
        worst = max(
            effective_temperature_check(i, float(t), driven_system)
            for t in np.linspace(0.0, 8.0, 161)
        )
        assert worst < 0.05

    def sigma(k):
        return entropy_production_rate(
            driven_trajectory.states[k], float(driven_trajectory.times[k]),
            driven_system,
        )

    times = driven_trajectory.times
    early = [k for k, t in enumerate(times) if t <= 1.0]
    late = [k for k, t in enumerate(times) if t >= 9.5]
    assert early and late
    assert all(sigma(k) > 0.0 for k in early)
    assert all(sigma(k) < 0.0 for k in late)


@pytest.mark.criterion(
    7, "covariance fast path reproduces the density-matrix route"
)
def test_criterion_7_route_equivalence(base_system, base_steady):
    rho0 = maximum_entropy_state()
    step = 1e-4
    traj = integrate(rho0, 2.0, base_system, IntegratorConfig(step=step))
    dd = drift_diffusion(base_system)
    times, covs = integrate_covariance(
        covariance_from_density(rho0), dd, 2.0, step=step,
        record_stride=traj.record_stride,
    )
    assert np.array_equal(np.asarray(traj.times), np.asarray(times))
    worst = max(
        float(np.max(np.abs(covariance_from_density(state) - cov)))
        for state, cov in zip(traj.states, covs)
    )
    assert worst < 1e-8
    assert np.max(np.abs(covariance_from_density(base_steady) - steady_covariance(dd))) < 1e-6


@pytest.mark.criterion(
    8, "bath rates: detailed balance, quadrature cross-check, derivative identity"
)
def test_criterion_8_rate_functions():
    rng = np.random.default_rng(8)
    for temp in (2.0, 10.0, 15.0):
        bath = BathParams(temp, 10.0, 1.0)
        for w in rng.uniform(0.1, 50.0, size=334):
            want = math.exp(bath.beta * w)
            ratio = decay_rate(float(w), bath) / decay_rate(-float(w), bath)
            assert abs(ratio - want) / want < 1e-12

    assert decay_rate(0.0, BathParams(10.0, 10.0, 1.0)) == 400.0
    assert decay_rate(0.0, BathParams(3.5, 2.0, 1.0, k_B=2.0)) == 4.0 * 2.0 * 2.0 * 3.5

    w_grid = (0.0, 1.0, -1.0, 2.0, -2.0, 5.0, -5.0, 10.0, -10.0, 20.0, -20.0)
    for temp in (1.0, 2.0, 10.0):
        bath = BathParams(temp, 10.0, 1.0)
        for w in w_grid:
            if bath.beta * abs(w) > 15.0:
                # e^{-beta|w|} suppression puts the value below the
                # oscillatory quadrature's absolute resolution
                continue
            closed = decay_rate(w, bath)
            assert abs(decay_rate_quadrature(w, bath) - closed) <= 0.02 * abs(closed)

    # the shift's closed form is a high-temperature truncation: compare on
    # the windows where it represents the exact transform to better than 2%
    shift_windows = {10.0: w_grid, 2.0: (0.0, 2.0, -2.0, 5.0, -5.0)}
    for temp, ws in shift_windows.items():
        bath = BathParams(temp, 10.0, 1.0)
        for w in ws:
            closed = lamb_shift(w, bath)
            assert abs(lamb_shift_quadrature(w, bath) - closed) <= 0.02 * abs(closed)

    h = 1e-5
    for temp in (2.0, 10.0):
        bath = BathParams(temp, 10.0, 1.0)
        for w in (-30.0, -10.0, -2.0, -0.5, 0.5, 2.0, 10.0, 30.0):
            fd = 1j * (one_sided_rate(w + h, bath) - one_sided_rate(w - h, bath)) / (2.0 * h)
            assert abs(memory_correction_rate(w, bath) - fd) <= 1e-4 * abs(fd)


@pytest.mark.criterion(
    9, "trajectory structure: trace, hermiticity, positivity, balance, zero-drive limit"
)
def test_criterion_9_structural_invariants(
    base_trajectory, driven_trajectory, base_steady, base_system, driven_system, rng
):
    runs = ((base_trajectory, base_system), (driven_trajectory, driven_system))
    for traj, cfg in runs:
        states = np.stack(traj.states)
        traces = np.einsum("kii->k", states)
        assert np.max(np.abs(traces - 1.0)) < 1e-10
        assert np.max(np.abs(states - np.conj(np.transpose(states, (0, 2, 1))))) < 1e-10
        stride = max(1, len(traj.times) // 25)
        for k in range(0, len(traj.times), stride):
            for i in (1, 2):
                total, bare, inter = heat_current(
                    i, traj.states[k], float(traj.times[k]), cfg
                )
                assert abs(total - (bare + inter)) < 1e-12
    assert float(np.min(base_trajectory.min_eigenvalues)) > -1e-8

    j1 = heat_current(1, base_steady, 0.0, base_system)[0]
    j2 = heat_current(2, base_steady, 0.0, base_system)[0]
    assert abs(j1 + j2) < 1e-9

    for _ in range(10):
        rho = random_density(rng)
        for t in (0.0, 0.37, 4.2):
            assert np.array_equal(
                tdlme_rhs(rho, t, base_system), lme_rhs(rho, base_system)
            )
