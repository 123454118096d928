"""Shared fixtures: reference systems and the expensive trajectories.

The long integrations are session-scoped so the acceptance tests and the
unit tests reuse the same runs.  The terminal-summary hook prints one
[PASS]/[FAIL] line per acceptance criterion after the run.
"""

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
    steady_state,
)


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
