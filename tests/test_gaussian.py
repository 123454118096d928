"""Covariance fast path, checked against a fully analytic steady solution.

For the undriven chain the steady covariance can be written in closed form.
With nbar_i = 1/(1 + exp(2 beta_i eps_i)), Gamma_i = zeta^2 (gamma_i^+ +
gamma_i^-), G = (Gamma_1 + Gamma_2)/2 and Delta = eps_1 - eps_2, solving
the 2x2 Lyapunov equation by hand gives

    S    = (nbar_2 - nbar_1) / [1 + 2 lam^2 G (1/Gamma_1 + 1/Gamma_2)
                                    / (G^2 + 4 Delta^2)]
    Im c = lam S G / (G^2 + 4 Delta^2)
    Re c = -2 lam Delta S / (G^2 + 4 Delta^2)
    C_11 = nbar_1 + 2 lam Im c / Gamma_1
    C_22 = nbar_2 - 2 lam Im c / Gamma_2

with c = C_12.  That derivation never touches the package's Lyapunov
solver, so it is an independent oracle here.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import gibbs_product_state, integrate_covariance, make_system

from lmesim import (
    StabilityError,
    UnsupportedConfigError,
    covariance_from_density,
    decay_rate,
    drift_diffusion,
    heat_current,
    maximum_entropy_state,
    relaxation_time,
    steady_covariance,
    steady_heat_currents,
)
from lmesim.gaussian import chain_stack


def covariance_rhs(cov, dd):
    """dC/dt = W C + C W† + D, written out independently of the solver."""
    w = dd.drift
    return w @ cov + cov @ w.conj().T + dd.diffusion


def analytic_steady(cfg):
    """Hand-solved steady covariance and heat current J1 (see module docstring)."""
    nbar = []
    gam = []
    gplus = []
    for i in (1, 2):
        eps = cfg.qubit(i).epsilon
        b = cfg.bath(i)
        nbar.append(1.0 / (1.0 + math.exp(2.0 * b.beta * eps)))
        gm = decay_rate(2.0 * eps, b)
        gp = decay_rate(-2.0 * eps, b)
        gplus.append(gp)
        gam.append(cfg.zeta2 * (gm + gp))
    lam = cfg.coupling
    big_g = 0.5 * (gam[0] + gam[1])
    delta = cfg.qubit1.epsilon - cfg.qubit2.epsilon
    den = big_g**2 + 4.0 * delta**2
    s = (nbar[1] - nbar[0]) / (
        1.0 + 2.0 * lam**2 * big_g * (1.0 / gam[0] + 1.0 / gam[1]) / den
    )
    im_c = lam * s * big_g / den
    re_c = -2.0 * lam * delta * s / den
    c11 = nbar[0] + 2.0 * lam * im_c / gam[0]
    c22 = nbar[1] - 2.0 * lam * im_c / gam[1]
    cov = np.array([[c11, re_c + 1j * im_c], [re_c - 1j * im_c, c22]])
    j1 = lam**2 * s * (2.0 * gam[0] * delta - 4.0 * cfg.qubit1.epsilon * big_g) / den
    return cov, j1


def test_drift_diffusion_entries(base_system):
    dd = drift_diffusion(base_system)
    z = base_system.zeta2
    for i in (1, 2):
        eps = base_system.qubit(i).epsilon
        b = base_system.bath(i)
        gtot = decay_rate(2.0 * eps, b) + decay_rate(-2.0 * eps, b)
        assert dd.drift[i - 1, i - 1].real == pytest.approx(-0.5 * z * gtot, rel=1e-14)
        assert dd.diffusion[i - 1, i - 1] == pytest.approx(z * decay_rate(-2.0 * eps, b), rel=1e-14)
    delta = base_system.qubit1.epsilon - base_system.qubit2.epsilon
    assert dd.drift[0, 0].imag == delta
    assert dd.drift[1, 1].imag == -delta
    assert dd.drift[0, 1] == 1j * base_system.coupling
    assert np.all(dd.diffusion.imag == 0.0)


def test_drift_diffusion_rejects_driven(driven_system):
    with pytest.raises(UnsupportedConfigError):
        drift_diffusion(driven_system)


def test_steady_covariance_matches_analytic_solution(base_system):
    want, _ = analytic_steady(base_system)
    got = steady_covariance(drift_diffusion(base_system))
    assert np.max(np.abs(got - want)) < 1e-13


def test_steady_covariance_matches_analytic_solution_random_parameters(rng):
    for _ in range(25):
        cfg = make_system(
            eps1=float(rng.uniform(2.0, 15.0)),
            eps2=float(rng.uniform(2.0, 15.0)),
            t1=float(rng.uniform(2.0, 30.0)),
            t2=float(rng.uniform(2.0, 30.0)),
            coupling=float(rng.uniform(0.05, 1.0)),
            zeta2=float(rng.uniform(0.05, 1.0)),
        )
        want_cov, want_j1 = analytic_steady(cfg)
        cov = steady_covariance(drift_diffusion(cfg))
        assert np.max(np.abs(cov - want_cov)) < 1e-12
        j1, j2 = steady_heat_currents(cov, cfg)
        assert j1 == pytest.approx(want_j1, rel=1e-10, abs=1e-14)
        # no external work: the two steady currents balance
        assert abs(j1 + j2) < 1e-12 * max(1.0, abs(j1))


def test_steady_covariance_is_physical(base_system):
    cov = steady_covariance(drift_diffusion(base_system))
    assert np.max(np.abs(cov - cov.conj().T)) < 1e-12
    for pop in np.diag(cov).real:
        assert 0.0 <= pop <= 1.0
    assert np.max(np.abs(covariance_rhs(cov, drift_diffusion(base_system)))) < 1e-12


def test_covariance_from_density_reference_states(base_system):
    # product thermal state: diagonal covariance of single-qubit populations
    cov = covariance_from_density(gibbs_product_state(base_system))
    for i in (1, 2):
        beta = base_system.bath(i).beta
        eps = base_system.qubit(i).epsilon
        assert cov[i - 1, i - 1].real == pytest.approx(1.0 / (1.0 + math.exp(2.0 * beta * eps)))
    assert cov[0, 1] == 0.0 and cov[1, 0] == 0.0
    assert np.allclose(covariance_from_density(maximum_entropy_state()), 0.5 * np.eye(2))


def test_integrate_covariance_uncoupled_exponential_relaxation():
    # lam = 0 decouples the modes; C_ii(t) relaxes exponentially to nbar_i
    cfg = make_system(coupling=0.0)
    dd = drift_diffusion(cfg)
    cov0 = 0.5 * np.eye(2, dtype=complex)
    times, covs = integrate_covariance(cov0, dd, 2.0, step=1e-3, record_stride=200)
    for i in (1, 2):
        eps = cfg.qubit(i).epsilon
        b = cfg.bath(i)
        gm = decay_rate(2.0 * eps, b)
        gp = decay_rate(-2.0 * eps, b)
        rate = cfg.zeta2 * (gm + gp)
        nbar = gp / (gm + gp)
        for t, cov in zip(times, covs):
            want = nbar + (0.5 - nbar) * math.exp(-rate * t)
            assert cov[i - 1, i - 1].real == pytest.approx(want, abs=1e-9)


def test_integrate_covariance_time_grid_matches_density_layout():
    # uneven span: a partial final step must land exactly on t1
    dd = drift_diffusion(make_system())
    times, covs = integrate_covariance(
        0.5 * np.eye(2, dtype=complex), dd, (0.0, 0.123), step=1e-3, record_stride=25
    )
    assert times[0] == 0.0
    assert times[-1] == 0.123
    assert len(times) == len(covs)
    for step in (-1.0, math.inf):
        with pytest.raises(ValueError, match="step must be positive and finite"):
            integrate_covariance(0.5 * np.eye(2, dtype=complex), dd, 1.0, step=step)
    with pytest.raises(ValueError, match="record_stride must be an integer"):
        integrate_covariance(0.5 * np.eye(2, dtype=complex), dd, 1.0, step=1e-3,
                             record_stride=2.5)
    times, _ = integrate_covariance(0.5 * np.eye(2, dtype=complex), dd, (0.0, 0.123),
                                    step=1e-3, record_stride=np.int64(25))
    assert times[-1] == 0.123


def test_integrate_covariance_accepts_nested_lists():
    dd = drift_diffusion(make_system())
    cov0 = 0.5 * np.eye(2, dtype=complex)
    ref = integrate_covariance(cov0, dd, 0.05, step=1e-3)
    got = integrate_covariance(cov0.tolist(), dd, 0.05, step=1e-3)
    assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_integrate_covariance_rejects_a_non_finite_cov0():
    # a NaN or infinite entry would only propagate into every frame
    dd = drift_diffusion(make_system())
    for value, where in ((math.nan, 1), (math.inf, 0)):
        cov0 = 0.5 * np.eye(2, dtype=complex)
        cov0[where, where] = value
        message = rf"cov0 has non-finite entries at \({where}, {where}\)$"
        with pytest.raises(ValueError, match=message):
            integrate_covariance(cov0, dd, 0.01, step=1e-3)
    with pytest.raises(ValueError, match="cov0 has non-finite entries"):
        integrate_covariance(np.full((2, 2), np.nan), dd, 0.01, step=1e-3)


@pytest.mark.parametrize("t_span", [math.nan, math.inf, (-math.inf, 1.0)])
def test_integrate_covariance_rejects_non_finite_time_span(t_span):
    dd = drift_diffusion(make_system())
    with pytest.raises(ValueError, match="t_span must be finite"):
        integrate_covariance(0.5 * np.eye(2, dtype=complex), dd, t_span, step=1e-3)


@pytest.mark.parametrize("t_span", [(0.0, 1.0, 2.0), (1.0,), [[0.0, 1.0]]])
def test_integrate_covariance_rejects_time_span_of_wrong_length(t_span):
    dd = drift_diffusion(make_system())
    with pytest.raises(ValueError, match=r"t_span must be a final time or a pair"):
        integrate_covariance(0.5 * np.eye(2, dtype=complex), dd, t_span, step=1e-3)


@pytest.mark.parametrize("cov0", [np.eye(3) / 2, np.eye(4) / 2, np.full(4, 0.25)])
def test_integrate_covariance_rejects_initial_state_of_wrong_shape(cov0):
    dd = drift_diffusion(make_system())
    with pytest.raises(ValueError, match=r"cov0 must be a 2x2 covariance, got shape"):
        integrate_covariance(cov0, dd, 1.0, step=1e-3)


def test_relaxation_time_matches_eigenvalues(base_system):
    dd = drift_diffusion(base_system)
    tau = relaxation_time(dd)
    slowest = np.max(np.linalg.eigvals(dd.drift).real)
    assert tau == pytest.approx(1.0 / abs(2.0 * slowest), rel=1e-12)
    # frozen reference for the workhorse parameters
    assert tau == pytest.approx(0.5821029709544373, rel=1e-12)


def test_relaxation_time_invariant_under_relabeling(base_system):
    swapped = replace(
        base_system,
        qubit1=base_system.qubit2, qubit2=base_system.qubit1,
        bath1=base_system.bath2, bath2=base_system.bath1,
    )
    assert relaxation_time(drift_diffusion(swapped)) == pytest.approx(
        relaxation_time(drift_diffusion(base_system)), rel=1e-12
    )


def test_relaxation_time_rejects_non_decaying_drift(base_system):
    for drift in (
        np.eye(2, dtype=complex),
        # decays, but slower than the Lyapunov solve's HURWITZ_TOL allows
        np.diag([-1e-15, -1.0]).astype(complex),
    ):
        dd = replace(drift_diffusion(base_system), drift=drift)
        with pytest.raises(StabilityError):
            relaxation_time(dd)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_relaxation_time_rejects_a_non_finite_drift():
    # ε₂ = 1e306 and a hot-bath κ of 1e15 overflow qubit 1's total rate to
    # NaN; LAPACK's eigenvalues would raise an untyped LinAlgError on it
    cfg = make_system(eps1=1e300, eps2=1e306)
    dd = drift_diffusion(replace(cfg, bath1=replace(cfg.bath1, kappa=1e15)))
    assert np.isnan(dd.drift[0, 0])
    with pytest.raises(StabilityError, match=re.escape("drift has non-finite entries at (0, 0)")):
        relaxation_time(dd)


def test_steady_heat_currents_vanish_without_coupling():
    cfg = make_system(coupling=0.0)
    cov = steady_covariance(drift_diffusion(cfg))
    j1, j2 = steady_heat_currents(cov, cfg)
    assert abs(j1) < 1e-13
    assert abs(j2) < 1e-13


def test_steady_heat_current_direction(base_system):
    # detuned past the sign boundary: the left current runs negative
    cov = steady_covariance(drift_diffusion(base_system))
    j1, j2 = steady_heat_currents(cov, base_system)
    assert j1 < 0.0 < j2
    assert j1 == pytest.approx(-0.014070739193283721, rel=1e-12)


def test_steady_currents_agree_with_density_route(base_system, base_steady):
    # cross-module check: same steady currents from the covariance formula
    # and from the dissipator trace on the integrated steady state
    cov = steady_covariance(drift_diffusion(base_system))
    j1_cov, j2_cov = steady_heat_currents(cov, base_system)
    j1_rho, _, _ = heat_current(1, base_steady, 0.0, base_system)
    j2_rho, _, _ = heat_current(2, base_steady, 0.0, base_system)
    assert j1_rho == pytest.approx(j1_cov, abs=1e-8)
    assert j2_rho == pytest.approx(j2_cov, abs=1e-8)


def test_chain_stack_rates_a_row_of_hot_baths_as_each_alone(base_system):
    # one hot bath per row of ε₁, rated in one call: every row has the bits
    # of a stack with that bath alone
    eps1 = np.array([[4.0, 10.0, 16.0]] * 3)
    baths = [replace(base_system.bath1, temperature=t) for t in (0.02, 15.0, 300.0)]
    stack = chain_stack(eps1, 5.0, 0.5, 0.5, baths, base_system.bath2)
    for k, bath in enumerate(baths):
        alone = chain_stack(eps1[k], 5.0, 0.5, 0.5, bath, base_system.bath2)
        for name in ("gamma_plus", "gamma_total"):
            assert getattr(stack, name)[:, k].tobytes() == getattr(alone, name).tobytes()
        assert stack.drift[k].tobytes() == alone.drift.tobytes()
        assert stack.diffusion[k].tobytes() == alone.diffusion.tobytes()


def test_chain_stack_rejects_hot_baths_that_differ_in_more_than_temperature(base_system):
    baths = [base_system.bath1, replace(base_system.bath1, temperature=20.0, kappa=5.0)]
    with pytest.raises(ValueError, match="differ only in temperature"):
        chain_stack(np.array([[10.0], [12.0]]), 5.0, 0.5, 0.5, baths, base_system.bath2)
