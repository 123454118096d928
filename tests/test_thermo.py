"""Entropy, heat currents, the batched observable kernel and the
entropy-production crossing finder.

The dS/dt check propagates the state with an independent route — the
matrix exponential of the vectorized generator — so that the finite
difference of the entropy never touches the stepper under test.  The
kernel is checked against the per-frame computation it replaced, kept
here as the oracle.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    dense_reference,
    driven_systems,
    make_system,
    random_density,
    undriven_systems,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from lmesim import (
    CrossingResult,
    IntegratorConfig,
    PositivityError,
    bare_hamiltonian,
    dissipator,
    effective_temperature_check,
    entropy,
    entropy_production_rate,
    find_tau0,
    fit_power_law,
    gibbs_product_state,
    heat_current,
    integrate,
    interaction_hamiltonian,
    liouvillian_matrix,
    matrix_log_hermitian,
    maximum_entropy_state,
    thermo_record,
    trajectory_observables,
)
from lmesim import thermo


def haar_unitary(rng, dim=4):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# entropy


def test_entropy_reference_states():
    assert entropy(maximum_entropy_state()) == pytest.approx(math.log(4.0), rel=1e-12)
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert abs(entropy(pure)) < 1e-9
    half = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    assert entropy(half) == pytest.approx(math.log(2.0), rel=1e-12)


def test_entropy_unitary_invariance_and_range(rng):
    for _ in range(10):
        rho = random_density(rng)
        s = entropy(rho)
        assert 0.0 <= s <= math.log(4.0) + 1e-12
        u = haar_unitary(rng)
        assert entropy(u @ rho @ u.conj().T) == pytest.approx(s, abs=1e-10)


def test_entropy_of_rotated_pure_state_is_negligible(rng):
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    u = haar_unitary(rng)
    assert abs(entropy(u @ pure @ u.conj().T)) < 1e-9


# ---------------------------------------------------------------------------
# heat currents


def test_heat_current_splits_into_bare_and_interaction_parts(rng, driven_system):
    for t in (0.0, 0.7, 3.1):
        rho = random_density(rng)
        total, bare, inter = heat_current(1, rho, t, driven_system)
        assert total == pytest.approx(bare + inter, abs=1e-12)


def test_heat_current_vanishes_on_uncoupled_gibbs_state():
    cfg = make_system(coupling=0.0)
    rho = gibbs_product_state(cfg)
    for i in (1, 2):
        total, bare, inter = heat_current(i, rho, 0.0, cfg)
        assert abs(total) < 1e-10
        assert abs(bare) < 1e-10
        assert abs(inter) < 1e-10


def test_steady_heat_flows_hot_to_system_to_cold(base_system, base_steady):
    # detuned workhorse: bath 1 absorbs, bath 2 supplies
    j1 = heat_current(1, base_steady, 0.0, base_system)[0]
    j2 = heat_current(2, base_steady, 0.0, base_system)[0]
    assert j1 < 0.0 < j2
    assert j1 == pytest.approx(-0.014070739193283721, abs=1e-8)
    assert abs(j1 + j2) < 1e-9


# ---------------------------------------------------------------------------
# entropy rate and production rate


def _real_trace(a, b):
    return float(np.einsum("ij,ji->", a, b).real)


def _entropy_rate(rho, t, cfg):
    """dS/dt = -ζ² Σ_i Tr(𝓛_i[ρ] ln ρ), from the per-bath dissipators and the
    single-matrix logarithm."""
    logm = matrix_log_hermitian(rho)
    return -sum(cfg.zeta2 * _real_trace(dissipator(i, rho, t, cfg), logm)
                for i in (1, 2))


def test_entropy_time_derivative_against_finite_difference(base_system):
    # independent propagation: matrix exponential of the vectorized generator
    gen = liouvillian_matrix(base_system)
    rho0 = maximum_entropy_state()

    def state_at(t):
        return (scipy.linalg.expm(gen * t) @ rho0.reshape(16)).reshape(4, 4)

    h = 1e-4
    times = (0.3, 1.0, 2.5)
    # dS/dt = Σ̇ + Σ_i β_i J_i, all from one kernel pass over the frames
    cols = trajectory_observables(times, [state_at(t) for t in times], base_system)
    ds_dt = (cols.sigma_dot + base_system.bath1.beta * cols.j1
             + base_system.bath2.beta * cols.j2)
    for t, rate in zip(times, ds_dt):
        fd = (entropy(state_at(t + h)) - entropy(state_at(t - h))) / (2.0 * h)
        assert rate == pytest.approx(fd, abs=1e-6)


def test_production_rate_assembles_from_entropy_rate_and_currents(rng, driven_system):
    for t in (0.0, 0.9, 4.2):
        rho = random_density(rng)
        direct = entropy_production_rate(rho, t, driven_system)
        assembled = _entropy_rate(rho, t, driven_system)
        for i in (1, 2):
            assembled -= driven_system.bath(i).beta * heat_current(i, rho, t, driven_system)[0]
        assert direct == pytest.approx(assembled, abs=1e-10)


def test_production_rate_at_maximum_entropy_state(base_system):
    # ln(I/4) is proportional to the identity, so only the current terms count
    rho = maximum_entropy_state()
    direct = entropy_production_rate(rho, 0.0, base_system)
    currents = sum(
        -base_system.bath(i).beta * heat_current(i, rho, 0.0, base_system)[0]
        for i in (1, 2)
    )
    assert direct == pytest.approx(currents, abs=1e-12)
    assert direct == pytest.approx(1.6551, rel=1e-3)


def test_production_rate_zero_on_uncoupled_gibbs_state():
    cfg = make_system(coupling=0.0)
    assert abs(entropy_production_rate(gibbs_product_state(cfg), 0.0, cfg)) < 1e-9


def test_production_rate_warns_near_pure_state(base_system):
    rho = np.diag([1.0 - 1e-9, 1e-9 / 3, 1e-9 / 3, 1e-9 / 3]).astype(complex)
    with pytest.warns(RuntimeWarning, match="clamped matrix log"):
        entropy_production_rate(rho, 0.0, base_system)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        entropy_production_rate(maximum_entropy_state(), 0.0, base_system)


def test_thermo_record_matches_individual_observables(base_trajectory, base_system):
    k = len(base_trajectory.times) // 3
    t = float(base_trajectory.times[k])
    rho = base_trajectory.states[k]
    rec = thermo_record(rho, t, base_system)
    assert rec.t == t
    for i, (jfield, jsfield, jifield) in ((1, ("j1", "js1", "ji1")),
                                          (2, ("j2", "js2", "ji2"))):
        total, bare, inter = heat_current(i, rho, t, base_system)
        assert getattr(rec, jfield) == pytest.approx(total, rel=1e-12, abs=1e-13)
        assert getattr(rec, jsfield) == pytest.approx(bare, rel=1e-12, abs=1e-13)
        assert getattr(rec, jifield) == pytest.approx(inter, rel=1e-12, abs=1e-13)
    assert rec.entropy == pytest.approx(entropy(rho), rel=1e-12)
    assert rec.sigma_dot == pytest.approx(
        entropy_production_rate(rho, t, base_system), rel=1e-12, abs=1e-13
    )


# ---------------------------------------------------------------------------
# batched observable kernel


def _per_frame_record(rho, t, cfg):
    """One frame's (J1, J2, Js1, JI1, Js2, JI2, S, Σ̇) as computed before the
    batched kernel, with the per-bath dissipators of the np.kron reference
    (independent of the package's basis), a checked matrix log, a separate
    eigenvalue solve for S and one complex trace per product."""
    h_bare = bare_hamiltonian(t, cfg)
    h_int = interaction_hamiltonian(cfg)
    h_full = h_bare + h_int
    logm = matrix_log_hermitian(rho)
    js, ji, jtot = [], [], []
    sigma = 0.0
    for i, dense in zip((1, 2), dense_reference(rho, t, cfg)[0]):
        diss = cfg.zeta2 * dense
        jtot.append(_real_trace(h_full, diss))
        js.append(_real_trace(h_bare, diss))
        ji.append(_real_trace(h_int, diss))
        sigma -= _real_trace(logm + cfg.bath(i).beta * h_full, diss)
    probs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    probs = probs[probs > 0.0]
    s = float(-np.sum(probs * np.log(probs)))
    return (jtot[0], jtot[1], js[0], ji[0], js[1], ji[1], s, sigma)


# a dissipator trace can be far smaller than the entries it sums: a double
# precision reference misses by up to ~1e-12 there, so the comparison needs
# the reference's extended precision, which some platforms lack
@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="longdouble is plain double here; the reference "
                           "cannot resolve the 1e-12 tolerance")
@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(cfg=st.one_of(undriven_systems, driven_systems),
       times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_trajectory_observables_match_per_frame_records(cfg, times, seed):
    rng = np.random.default_rng(seed)
    states = np.array([random_density(rng) for _ in times])
    cols = trajectory_observables(times, states, cfg)
    assert np.array_equal(cols.t, times)
    got = np.array(cols[1:-1]).T
    for row, t, rho in zip(got, times, states):
        want = np.array(_per_frame_record(rho, t, cfg))
        assert np.all(np.abs(row - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    assert np.allclose(cols.lowest, np.linalg.eigvalsh(states)[:, 0], rtol=0.0, atol=1e-14)


def test_trajectory_observables_warn_on_a_near_singular_frame(base_system):
    near = np.diag([1.0 - 1.5e-10, 2e-10, 0.0, -5e-11]).astype(complex)
    states = np.array([maximum_entropy_state(), near])
    with pytest.warns(RuntimeWarning, match="clamped matrix log"):
        cols = trajectory_observables([0.0, 0.1], states, base_system)
    assert cols.lowest[1] == pytest.approx(-5e-11, abs=1e-15)
    assert np.all(np.isfinite(cols.sigma_dot))


def test_trajectory_observables_reject_a_negative_frame(base_system):
    bad = np.diag([1.0 + 1e-9, 0.0, 0.0, -1e-9]).astype(complex)
    states = np.array([maximum_entropy_state(), bad, maximum_entropy_state()])
    with pytest.warns(RuntimeWarning, match="clamped matrix log"):
        with pytest.raises(PositivityError, match="t=0.1 "):
            trajectory_observables([0.0, 0.1, 0.2], states, base_system)


def test_trajectory_observables_reject_mismatched_shapes(base_trajectory, base_system):
    # one time beside every frame of a run would give a one-row t column
    # beside full-length currents
    states = base_trajectory.states
    for times, frames in [([0.0], states), (base_trajectory.times, states[0]),
                          (np.zeros((len(states), 1)), states)]:
        with pytest.raises(ValueError, match=r"states must have shape \(n, 4, 4\)") as err:
            trajectory_observables(times, frames, base_system)
        assert str(np.shape(frames)) in str(err.value)
        assert str(np.shape(times)) in str(err.value)


def test_trajectory_observables_need_a_frame(base_system):
    with pytest.raises(ValueError, match="at least one frame"):
        trajectory_observables([], np.zeros((0, 4, 4)), base_system)


# ---------------------------------------------------------------------------
# effective-temperature diagnostic


def test_effective_temperature_check_undriven(base_system):
    for i in (1, 2):
        assert effective_temperature_check(i, 0.4, base_system) < 1e-13


def test_effective_temperature_check_takes_an_array_of_times(driven_system):
    times = np.linspace(0.0, 8.0, 161)
    for i in (1, 2):
        devs = effective_temperature_check(i, times, driven_system)
        one_by_one = [effective_temperature_check(i, float(t), driven_system) for t in times]
        assert devs.shape == times.shape
        assert np.array_equal(devs, one_by_one)
        assert np.ndim(one_by_one[0]) == 0


def test_effective_temperature_check_is_finite_for_a_cold_bath():
    # at T = 0.01 the thermal ratio e^{2βE} overflows; γ⁺ is 0 at t = 0,
    # where the memory correction vanishes, and that correction elsewhere
    with pytest.warns(UserWarning, match="high-temperature closed forms"):
        cfg = make_system(t2=0.01, amp=(2.0, 2.0), freq=(0.2, 0.2))
    times = np.linspace(0.0, 1.0, 201)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        devs = effective_temperature_check(2, times, cfg)
        one_by_one = [effective_temperature_check(2, float(t), cfg) for t in times]
    assert np.all(np.isfinite(devs))
    assert np.array_equal(devs, one_by_one)
    assert devs[0] == 0.0        # γ⁺ and γ⁻ e^{-2βE} both round to 0
    assert np.all(devs[1:] == 1.0)    # |γ⁺| ≫ γ⁻ e^{-2βE}


def test_effective_temperature_check_grows_with_drive_frequency():
    devs = []
    for omega in (0.2, 1.0, 5.0):
        cfg = make_system(amp=(2.0, 2.0), freq=(omega, omega))
        period = 2.0 * math.pi / omega
        devs.append(max(
            effective_temperature_check(1, t, cfg)
            for t in np.linspace(0.0, period, 101)
        ))
    assert devs[0] < devs[1] < devs[2]


# ---------------------------------------------------------------------------
# crossing finder


def test_find_tau0_locates_the_crossing(base_trajectory, base_system):
    res = find_tau0(base_trajectory, base_system)
    assert res.found
    assert res.reason is None
    t_lo, t_hi = res.bracket
    assert t_lo <= res.tau0 <= t_hi
    assert t_hi - t_lo <= 2e-6
    assert res.tau0 == pytest.approx(2.2467, rel=1e-3)

    # the bracket really straddles the sign change: re-derive Σ̇ at both
    # ends by fresh integration from the nearest recorded frame
    k = int(np.searchsorted(base_trajectory.times, t_lo, side="right")) - 1
    icfg = IntegratorConfig(step=base_trajectory.step, record_stride=10**9)

    def sigma(t):
        sub = integrate(
            base_trajectory.states[k],
            (float(base_trajectory.times[k]), t), base_system, icfg,
        )
        return entropy_production_rate(sub.final_state, t, base_system)

    assert sigma(t_lo) > 0.0 >= sigma(t_hi)


def test_find_tau0_stops_scanning_at_the_crossing(base_trajectory, base_system,
                                                  monkeypatch):
    traj = base_trajectory
    sigmas = [entropy_production_rate(state, float(t), base_system)
              for t, state in zip(traj.times, traj.states)]
    k = next(j for j in range(len(sigmas) - 1)
             if sigmas[j] > 0.0 >= sigmas[j + 1])
    # the documented bisection from frame k, each probe a fresh integration
    icfg = IntegratorConfig(step=traj.step, record_stride=10**9)
    t_lo, t_hi = float(traj.times[k]), float(traj.times[k + 1])
    while t_hi - t_lo > thermo.TAU0_TIME_TOL:
        mid = 0.5 * (t_lo + t_hi)
        sub = integrate(traj.states[k], (float(traj.times[k]), mid),
                        base_system, icfg)
        if entropy_production_rate(sub.final_state, mid, base_system) > 0.0:
            t_lo = mid
        else:
            t_hi = mid
    full_scan = CrossingResult(found=True, tau0=0.5 * (t_lo + t_hi),
                               bracket=(t_lo, t_hi))

    frame_evals = []
    original = thermo.entropy_production_rate

    def counting(rho, t, cfg):
        if np.shares_memory(rho, traj.states):
            frame_evals.append(t)
        return original(rho, t, cfg)

    monkeypatch.setattr(thermo, "entropy_production_rate", counting)
    assert find_tau0(traj, base_system) == full_scan
    assert len(frame_evals) <= k + 2 < len(traj.times)


def test_find_tau0_checks_only_the_frames_up_to_the_crossing(base_trajectory,
                                                              base_system):
    want = find_tau0(base_trajectory, base_system)
    bad = np.diag([1.0 + 1e-9, 0.0, 0.0, -1e-9]).astype(complex)
    k = int(np.searchsorted(base_trajectory.times, want.bracket[1])) + 1
    states = base_trajectory.states.copy()
    states[k] = bad                       # after the crossing: never looked at
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        late = dataclasses.replace(base_trajectory, states=states)
        assert find_tau0(late, base_system) == want
    states[1] = bad                       # before it: the scan fails there
    early = dataclasses.replace(base_trajectory, states=states)
    with pytest.warns(RuntimeWarning, match="clamped matrix log"):
        with pytest.raises(PositivityError):
            find_tau0(early, base_system)


def test_find_tau0_reports_always_positive_without_coupling():
    cfg = make_system(coupling=0.0)
    icfg = IntegratorConfig(step=5e-4, record_stride=200)
    traj = integrate(maximum_entropy_state(), 12.0, cfg, icfg)
    res = find_tau0(traj, cfg)
    assert not res.found
    assert res.reason == "always_positive"
    assert res.tau0 is None


def test_find_tau0_reports_insufficient_horizon(base_system):
    traj = integrate(maximum_entropy_state(), 0.3, base_system)
    res = find_tau0(traj, base_system)
    assert not res.found
    assert res.reason == "insufficient_horizon"


def test_find_tau0_reports_never_positive(base_system, base_steady):
    # from the steady state Σ̇ sits at its (negative) stationary value
    traj = integrate(base_steady, 0.1, base_system)
    res = find_tau0(traj, base_system)
    assert not res.found
    assert res.reason == "never_positive"


# ---------------------------------------------------------------------------
# power-law fitting


def test_fit_power_law_exact_lines():
    xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_power_law(xs, 3.0 * xs)
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    fit = fit_power_law(xs, 2.0 * xs**2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)


def test_fit_power_law_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 0.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0])
    # a failed sweep point leaves NaN in its column
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            fit_power_law([1.0, 2.0, 3.0], [1.0, bad, 3.0])
        with pytest.raises(ValueError, match="finite"):
            fit_power_law([1.0, bad, 3.0], [1.0, 2.0, 3.0])
