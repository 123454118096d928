"""Shared fixtures: reference systems, the expensive trajectories and the
scalar oracles of the array kernels.

The long integrations are session-scoped so the acceptance tests and the
unit tests reuse the same runs.  ``rk4_step``, ``scalar_coefficients`` and
the scalar rate formulas are the per-step, per-time and per-frequency paths
that the package's array kernels replaced, kept here as references.  The
terminal-summary hook prints one [PASS]/[FAIL] line per acceptance
criterion after the run.
"""

import math

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from lmesim import (
    BathParams,
    IntegratorConfig,
    QubitParams,
    SystemConfig,
    integrate,
    maximum_entropy_state,
    spectral_density,
    steady_state,
)
from lmesim.baths import ZERO_FREQ_FACTOR, spectral_density_derivative
from lmesim.dynamics import TRACE_RENORM_TOL
from lmesim.linalg import hermitian_part


def make_system(eps1=10.0, eps2=5.0, t1=15.0, t2=10.0, coupling=0.5,
                zeta2=0.5, kappa=10.0, cutoff=1.0, k_B=1.0,
                amp=(0.0, 0.0), freq=(0.0, 0.0)) -> SystemConfig:
    """Two-qubit chain with per-qubit baths; defaults are the workhorse set."""
    return SystemConfig(
        qubit1=QubitParams(eps1, amp[0], freq[0]),
        qubit2=QubitParams(eps2, amp[1], freq[1]),
        bath1=BathParams(t1, kappa, cutoff, k_B),
        bath2=BathParams(t2, kappa, cutoff, k_B),
        coupling=coupling,
        zeta2=zeta2,
    )


# random valid configurations for the property tests
undriven_systems = st.builds(
    make_system,
    eps1=st.floats(2.0, 15.0),
    eps2=st.floats(2.0, 15.0),
    t1=st.floats(2.0, 30.0),
    t2=st.floats(2.0, 30.0),
    coupling=st.floats(0.0, 1.0),    # below half the smallest gap
    zeta2=st.floats(0.05, 1.0),
    kappa=st.floats(1.0, 20.0),
    cutoff=st.floats(0.5, 5.0),
)

driven_systems = st.builds(
    make_system,
    eps1=st.floats(2.0, 15.0),
    eps2=st.floats(2.0, 15.0),
    t1=st.floats(5.0, 30.0),         # above the cutoff: no cold-bath warning
    t2=st.floats(5.0, 30.0),
    coupling=st.floats(0.0, 1.0),
    zeta2=st.floats(0.05, 1.0),
    kappa=st.floats(1.0, 20.0),
    cutoff=st.floats(0.5, 5.0),
    amp=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
    freq=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)),
)


@pytest.fixture(scope="session")
def base_system():
    """Detuned chain with a hot and a cold bath (the entropy-sign workhorse)."""
    return make_system()


@pytest.fixture(scope="session")
def resonant_system():
    """Weakly coupled resonant chain (equal splittings)."""
    return make_system(eps1=10.0, eps2=10.0, coupling=0.2, zeta2=0.1)


@pytest.fixture(scope="session")
def driven_system():
    """Workhorse chain with a slow transverse drive on both qubits."""
    return make_system(amp=(2.0, 2.0), freq=(0.2, 0.2))


@pytest.fixture(scope="session")
def base_trajectory(base_system):
    """Undriven run from the maximum-entropy state past the entropy crossing."""
    return integrate(maximum_entropy_state(), 12.0, base_system)


@pytest.fixture(scope="session")
def base_steady(base_system):
    return steady_state(base_system)


@pytest.fixture(scope="session")
def driven_trajectory(driven_system):
    icfg = IntegratorConfig(step=5e-4)
    return integrate(maximum_entropy_state(), 10.0, driven_system, icfg)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_density(rng, dim=4):
    """Random full-rank density matrix (Wishart construction)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T + 1e-3 * np.eye(dim)
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# scalar oracles


def rk4_step(rho, t, h, rhs):
    """One classical RK4 step of drho/dt = rhs(rho, t) on 4x4 matrices,
    then the Hermitian part, renormalized to unit trace when the trace
    drifted beyond TRACE_RENORM_TOL (the integrator's own arithmetic)."""
    half = 0.5 * h
    k1 = rhs(rho, t)
    k2 = rhs(rho + half * k1, t + half)
    k3 = rhs(rho + half * k2, t + half)
    k4 = rhs(rho + h * k3, t + h)
    out = hermitian_part(rho + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4))
    tr = float(np.trace(out).real)
    return out / tr if abs(tr - 1.0) > TRACE_RENORM_TOL else out


def scalar_decay_rate(freq, bath):
    """γ(ω) = π J(ω)(coth(βω/2) + 1) for one float, with ``math.expm1``."""
    if abs(freq) < ZERO_FREQ_FACTOR * bath.cutoff:
        return 4.0 * bath.kappa * bath.k_B * bath.temperature
    return 2.0 * math.pi * spectral_density(freq, bath) / (-math.expm1(-bath.beta * freq))


def scalar_memory_correction_rate(freq, bath):
    """Γ¹(ω) for one float, with ``math.expm1`` and ``math.sinh`` (series
    for the imaginary part near ω = 0)."""
    cut = bath.cutoff
    beta = bath.beta
    kT = bath.k_B * bath.temperature
    den = freq * freq + cut * cut
    real = -2.0 * bath.kappa * cut * (kT * (cut * cut - freq * freq) + cut * cut * freq) / (den * den)
    if abs(freq) < ZERO_FREQ_FACTOR * cut:
        return complex(real, bath.kappa * (1.0 + freq * (beta / 3.0 - 4.0 / (beta * cut * cut))))
    coth_plus_one = 2.0 / (-math.expm1(-beta * freq))
    sh = math.sinh(0.5 * beta * freq)
    return complex(real, 0.5 * math.pi * (
        spectral_density_derivative(freq, bath) * coth_plus_one
        - beta * spectral_density(freq, bath) / (2.0 * sh * sh)))


def scalar_drive(i, t, cfg):
    """f_i(t) = a_i sin(ω_i t) and its derivative, exactly zero when undriven."""
    q = cfg.qubit(i)
    if q.drive_amplitude == 0.0 or q.drive_frequency == 0.0:
        return 0.0, 0.0
    return (q.drive_amplitude * math.sin(q.drive_frequency * t),
            q.drive_amplitude * q.drive_frequency * math.cos(q.drive_frequency * t))


def scalar_rates(i, t, cfg):
    """θ_i and the rates (γ_z, γ_-, γ_+) of bath i at time t, one ``math``
    call at a time, from the formula in the ``model`` docstring."""
    q = cfg.qubit(i)
    bath = cfg.bath(i)
    eps = q.epsilon
    f, fdot = scalar_drive(i, t, cfg)
    theta = math.atan(f / eps)
    theta_dot = eps * fdot / (eps * eps + f * f)
    gap2 = 2.0 * math.hypot(eps, f)
    st_, ct = math.sin(theta), math.cos(theta)
    dsin = ct * theta_dot
    dcos = -st_ * theta_dot
    gz = scalar_decay_rate(0.0, bath) * st_ * st_ \
        + 2.0 * scalar_memory_correction_rate(0.0, bath).real * st_ * dsin
    gm, gp = (scalar_decay_rate(w, bath) * ct * ct
              + 2.0 * scalar_memory_correction_rate(w, bath).real * ct * dcos
              for w in (gap2, -gap2))
    return theta, (gz, gm, gp)


def scalar_coefficients(t, cfg):
    """The 33 generator weights at time t, (1, f_1, f_2, ζ² γ_c h_n(θ_i)
    for bath 1 then bath 2), and whether any rate is negative there."""
    coeffs = [1.0, scalar_drive(1, t, cfg)[0], scalar_drive(2, t, cfg)[0]]
    negative = False
    for i in (1, 2):
        theta, rates = scalar_rates(i, t, cfg)
        harmonics = (1.0, math.cos(theta), math.sin(theta),
                     math.cos(2.0 * theta), math.sin(2.0 * theta))
        coeffs += [cfg.zeta2 * (g * h) for g in rates for h in harmonics]
        negative = negative or min(rates) < 0.0
    return np.array(coeffs), negative


# ---------------------------------------------------------------------------
# acceptance-criteria reporting

_ACCEPTANCE = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, title): tags a test as one of the acceptance criteria",
    )
    # hypothesis caches constants scraped from the source files under its
    # home directory (./.hypothesis by default) right after collection; keep
    # them in pytest's own cache instead of the working tree
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    mark = item.get_closest_marker("criterion")
    if mark is None:
        return
    num, title = mark.args
    if report.when == "call":
        _ACCEPTANCE[num] = (title, report.passed)
    elif report.failed:
        # setup/teardown failure: the criterion was not demonstrated
        _ACCEPTANCE[num] = (title, False)


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        title, passed = _ACCEPTANCE[num]
        tag = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{tag}] criterion {num}: {title}")
