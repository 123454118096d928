"""Shared fixtures: reference systems, the expensive trajectories, the
scalar oracles of the array kernels and the quadrature oracles of the bath
integrals.

The long integrations are session-scoped so the acceptance tests and the
unit tests reuse the same runs.  ``rk4_step``, ``scalar_coefficients`` and
the scalar rate formulas are the per-step, per-time and per-frequency paths
that the package's array kernels replaced, ``frame_recurrence`` the
per-frame exponential that its undriven frame blocks replaced, and
``kronecker_lyapunov_stack``
the dense LAPACK Lyapunov solve that the closed-form 2x2 kernel replaced,
kept here as references; ``dense_reference`` builds each bath's dissipator
and the right-hand side with np.kron, independently of the package's basis,
while ``lme_rhs`` and ``dissipator`` are row-major views of the package's
own generator and per-bath dissipators, and ``matrix_log_hermitian`` a
checked `linalg.clamped_log`, for the tests that use them as oracles.
``correlation_function``, ``decay_rate_quadrature`` and
``lamb_shift_quadrature`` evaluate the bath integrals by SciPy quadrature,
with a fixed tolerance, subdivision cap and
horizons (QUAD_RTOL, QUAD_LIMIT, ``_s_max``, ``_omega_max``), to
cross-check the closed-form rates; ``lamb_shift`` and ``one_sided_rate``
are the high-temperature closed forms that only those cross-checks use.
The terminal-summary hook prints one [PASS]/[FAIL] line per acceptance
criterion after the run.
"""

import functools
import math
import os

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from scipy.integrate import quad

import lmesim
from lmesim import (
    BathParams,
    IntegratorConfig,
    PositivityError,
    QubitParams,
    SystemConfig,
    decay_rate,
    dissipation_rates,
    integrate,
    liouvillian_matrix,
    maximum_entropy_state,
    spectral_density,
    steady_state,
)
from lmesim.baths import ZERO_FREQ_FACTOR, spectral_density_derivative
from lmesim.dynamics import TRACE_RENORM_TOL
from lmesim.linalg import HURWITZ_TOL, clamped_log, expm, hermitian_part, kron, require_finite
from lmesim.model import (
    HERMITIAN_BASIS,
    _bath_rates,
    _drive_fields,
    _row_major,
    bath_dissipators,
    coordinates,
    real_liouvillian,
)
from lmesim.thermo import LOG_POSITIVITY_TOL


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

# a frequency so small that its period 2π/ω overflows (every subnormal and
# the smallest normals) is rejected by QubitParams, and tested there
drive_frequencies = st.floats(0.0, 5.0, allow_subnormal=False).filter(
    lambda w: w == 0.0 or math.isfinite(2.0 * math.pi / w))

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
    freq=st.tuples(drive_frequencies, drive_frequencies),
)


def src_env(**overrides):
    """The environment with the package's source tree first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(lmesim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update(overrides)
    return env


def table_rows(table) -> list:
    """A `CsvTable`'s rows, as tuples of its cells."""
    return list(zip(*table.columns))


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


def frame_recurrence(rho0, cfg, spans):
    """The states of an undriven run's frames one at a time, as the package
    computed them before its frame blocks: frame k is expm(G·spans[k-1])
    applied to frame k - 1 in the real coordinates (one `linalg.expm` per
    distinct span), renormalized to unit trace 2 r_0 when it drifted beyond
    TRACE_RENORM_TOL; frame 0 is rho0."""
    gen = real_liouvillian(cfg)
    propagator = functools.cache(lambda span: expm(gen * span))
    r = coordinates(rho0)
    frames = [r]
    for span in spans:
        r = propagator(span) @ r
        if abs(2.0 * r[0] - 1.0) > TRACE_RENORM_TOL:
            r = r / (2.0 * r[0])
        frames.append(r)
    return np.array([HERMITIAN_BASIS @ r for r in frames]).reshape(-1, 4, 4)


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


def dense_reference(rho, t, cfg):
    """Per-bath dissipators and the full right-hand side, built directly from
    the module docstring with 2x2 rotated jump operators and np.kron, in
    NumPy's extended precision (``longdouble``) from the state and the rates
    on: a trace of a dissipator whose entries are far larger than the trace
    then carries the rounding of the package alone."""
    rho = np.asarray(rho, dtype=np.clongdouble)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    eye = np.eye(2)

    def lift(op, i):
        return np.kron(op, eye) if i == 1 else np.kron(eye, op)

    def comm(a, b):
        return a @ b - b @ a

    def anti(a, b):
        return a @ b + b @ a

    h = lift(sp, 1) @ lift(sp.T, 2)
    h = cfg.coupling * (h + h.T)
    diss = []
    for i in (1, 2):
        q = cfg.qubit(i)
        f = q.drive_amplitude * math.sin(q.drive_frequency * t)
        h = h + lift(q.epsilon * sz + f * sx, i)
        half = np.longdouble(math.atan(f / q.epsilon)) / 2
        e = np.array([np.cos(half), np.sin(half)])
        g = np.array([-np.sin(half), np.cos(half)])
        s_z = lift(np.outer(e, e) - np.outer(g, g), i)
        s_p = lift(np.outer(e, g), i)
        s_m = s_p.T
        gz, gm, gp = (np.longdouble(rate) for rate in dissipation_rates(i, t, cfg))
        diss.append(
            gz * (s_z @ rho @ s_z - rho)
            + gm * (s_m @ rho @ s_p - 0.5 * anti(s_p @ s_m, rho))
            + gp * (s_p @ rho @ s_m - 0.5 * anti(s_m @ s_p, rho))
        )
    return diss, -1j * comm(h, rho) + cfg.zeta2 * (diss[0] + diss[1])


def lme_rhs(rho, cfg):
    """Static master equation right-hand side; drive amplitudes are ignored."""
    return (liouvillian_matrix(cfg) @ rho.reshape(16)).reshape(4, 4)


def dissipator(i, rho, t, cfg):
    """Single-bath dissipator 𝓛_i[ρ] at time t, without the ζ² factor: the
    row-major view of bath i's `model.bath_dissipators` at the rates' weights;
    ``rho`` may be an (n, 4, 4) stack of states at n times ``t`` or one time."""
    f, fdot = _drive_fields(t, cfg)
    weights = np.hstack([_bath_rates(j, cfg, f, fdot)[1] for j in (1, 2)])
    superops = _row_major(bath_dissipators(weights, cfg)[i - 1])
    return (superops @ np.reshape(rho, (-1, 16, 1))).reshape(np.shape(rho))


def matrix_log_hermitian(matrix):
    """Matrix logarithm of a Hermitian positive-semidefinite matrix by
    `linalg.clamped_log`.  Raises ValueError if the input is not square, has
    a non-finite entry or deviates from Hermiticity by more than 1e-10 in
    any entry, and PositivityError for an eigenvalue below
    -LOG_POSITIVITY_TOL."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    require_finite("matrix", matrix)
    dev = np.max(np.abs(matrix - matrix.conj().T))
    if dev > 1e-10:
        raise ValueError(f"matrix is not Hermitian (max |M - M†| = {dev:.3e})")
    w, v = np.linalg.eigh(matrix)
    if w[0] < -LOG_POSITIVITY_TOL:
        raise PositivityError(
            f"matrix has negative eigenvalue {w[0]:.3e} beyond tolerance"
        )
    return clamped_log(w, v)


def kronecker_lyapunov_stack(drift, diffusion):
    """W_k C_k + C_k W_k† + D_k = 0 for an (m, n, n) stack with LAPACK: the
    Hurwitz check on ``np.linalg.eigvals``, the column-major Kronecker system
    (I ⊗ W + conj(W) ⊗ I) vec(C) = -vec(D) and the 1e-12 residual check, as
    ``lyapunov_solve_stack`` did before its closed form.  Returns
    (solutions, passed): failed items are NaN and not passed."""
    w_mat = np.asarray(drift, dtype=complex)
    d_mat = np.asarray(diffusion, dtype=complex)
    n = w_mat.shape[1]
    ok = np.max(np.linalg.eigvals(w_mat).real, axis=1) < HURWITZ_TOL
    w_ok = w_mat[ok]
    d_ok = d_mat[ok]
    eye = np.eye(n, dtype=complex)
    system = kron(eye, w_ok) + kron(w_ok.conj(), eye)
    rhs = -d_ok.swapaxes(1, 2).reshape(-1, n * n, 1)
    c_ok = np.linalg.solve(system, rhs).reshape(-1, n, n).swapaxes(1, 2)
    residual = np.max(np.abs(
        w_ok @ c_ok + c_ok @ w_ok.conj().swapaxes(1, 2) + d_ok
    ), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(d_ok), axis=(1, 2)))
    passed = ok.copy()
    passed[ok] = residual <= 1e-12 * scale
    solutions = np.full(w_mat.shape, np.nan, dtype=complex)
    solutions[ok] = c_ok
    solutions[~passed] = np.nan
    return solutions, passed


# ---------------------------------------------------------------------------
# quadrature oracles of the bath integrals

#: convergence-factor scale for the regularized time integrals, in units of Ω
REG_EPS_FACTOR = 1e-3

#: relative tolerance of the quadrature oracles' frequency integrals
QUAD_RTOL = 1e-8
#: QUADPACK subdivision cap of every quadrature-oracle integral
QUAD_LIMIT = 200


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


def _thermal_weight(omega: float, bath: BathParams) -> float:
    """J(ω) coth(βω/2); finite at ω = 0 where it tends to 4κ k_B T / π."""
    beta = bath.beta
    if abs(omega) < 1e-6 * bath.cutoff:
        cut2 = bath.cutoff * bath.cutoff
        lorentz = cut2 / (cut2 + omega * omega)
        return (2.0 * bath.kappa / math.pi) * lorentz * (2.0 / beta + beta * omega * omega / 6.0)
    return spectral_density(omega, bath) / math.tanh(0.5 * beta * omega)


def _s_max(bath: BathParams) -> float:
    """Horizon 40/Ω of the regularized time integrals."""
    return 40.0 / bath.cutoff


def _omega_max(bath: BathParams) -> float:
    """Frequency cutoff 50·max(Ω, k_B T) of the C(0) integral."""
    return 50.0 * max(bath.cutoff, bath.k_B * bath.temperature)


def _checked_quad(func, lo, hi, *, rtol, scale, weight=None, wvar=None):
    """scipy quad, capped at QUAD_LIMIT subdivisions, with non-convergence
    turned into QuadratureError."""
    kwargs = dict(epsabs=rtol * scale, epsrel=rtol, limit=QUAD_LIMIT, full_output=1)
    if weight is not None:
        kwargs["weight"] = weight
        kwargs["wvar"] = wvar
        if hi == math.inf:
            # Fourier integral over a half-line: the tail is summed cycle by
            # cycle and extrapolated, with limlst capping the cycle count.
            kwargs["limlst"] = max(50, QUAD_LIMIT)
    ret = quad(func, lo, hi, **kwargs)
    value, abserr = ret[0], ret[1]
    if len(ret) > 3:
        # quad appended an explanation: the requested tolerance was not met
        tol_ok = max(50.0 * rtol * scale, 50.0 * rtol * abs(value))
        if abserr > tol_ok:
            raise QuadratureError(
                f"quadrature failed to converge: {ret[3]}", achieved=abserr
            )
    return value


def correlation_function(s: float, bath: BathParams) -> complex:
    """Bath correlation function C(s) by adaptive frequency quadrature.

    C(s) = ∫_0^∞ dω J(ω) [coth(βω/2) cos(ωs) - i sin(ωs)].

    For s > 0 the oscillatory integrals are taken over the full half-line
    with cycle-wise extrapolation of the tail; truncating at a finite
    omega_max would leave an O(1/(s·omega_max)) ringing error that swamps
    the small large-s values.  At s = 0 the real part grows only
    logarithmically with the frequency cutoff, so the value returned there
    is the integral truncated at `_omega_max` — a regularized quantity,
    meaningful relative to a stated cutoff.
    """
    if s < 0.0:
        raise ValueError(f"s must be non-negative, got {s}")
    scale = 4.0 * bath.kappa * max(bath.cutoff, bath.k_B * bath.temperature)

    if s == 0.0:
        real = _checked_quad(
            lambda w: _thermal_weight(w, bath), 0.0, _omega_max(bath),
            rtol=QUAD_RTOL, scale=scale,
        )
        return complex(real, 0.0)

    real = _checked_quad(
        lambda w: _thermal_weight(w, bath), 0.0, math.inf,
        rtol=QUAD_RTOL, scale=scale, weight="cos", wvar=s,
    )
    imag = _checked_quad(
        lambda w: spectral_density(w, bath), 0.0, math.inf,
        rtol=QUAD_RTOL, scale=scale, weight="sin", wvar=s,
    )
    return complex(real, -imag)


def lamb_shift(freq: float, bath: BathParams) -> float:
    """Closed-form Lamb-shift rate S(ω) = κΩ (2 k_B T ω - Ω²)/(ω² + Ω²).

    High-temperature (single Matsubara term) approximation.
    """
    cut = bath.cutoff
    num = 2.0 * bath.k_B * bath.temperature * freq - cut * cut
    return bath.kappa * cut * num / (freq * freq + cut * cut)


def one_sided_rate(freq: float, bath: BathParams) -> complex:
    """Γ(ω) = γ(ω)/2 + i S(ω), the one-sided Fourier transform of C(s)."""
    return complex(0.5 * decay_rate(freq, bath), lamb_shift(freq, bath))


def _regularized_time_integral(freq, bath, combine):
    """∫_0^smax ds e^{-εs} combine(C(s), s) with two-point Richardson in ε.

    `combine` picks out the cos/sin projection of C(s) onto the transition
    frequency.  The frequency integral (inside correlation_function) is done
    first since it decays; the convergence factor regularizes the slowly
    oscillating tail of the time integral and is extrapolated away.
    """
    s_max = _s_max(bath)
    eps0 = REG_EPS_FACTOR * bath.cutoff
    scale = 4.0 * bath.kappa * bath.k_B * bath.temperature
    cache: dict[float, complex] = {}

    def corr(s: float) -> complex:
        c = cache.get(s)
        if c is None:
            c = correlation_function(s, bath)
            cache[s] = c
        return c

    # s-integral tolerance: the oracle targets percent-level agreement, so a
    # fixed 1e-7 relative request is comfortable without being fragile
    s_rtol = 1e-7

    def value(eps: float) -> float:
        if freq == 0.0:
            return _checked_quad(
                lambda s: math.exp(-eps * s) * combine(corr(s), 0.0, 1.0),
                0.0, s_max, rtol=s_rtol, scale=scale,
            )
        wabs = abs(freq)
        sgn = 1.0 if freq > 0 else -1.0
        cos_part = _checked_quad(
            lambda s: math.exp(-eps * s) * combine(corr(s), 0.0, 1.0),
            0.0, s_max, rtol=s_rtol, scale=scale,
            weight="cos", wvar=wabs,
        )
        sin_part = _checked_quad(
            lambda s: math.exp(-eps * s) * combine(corr(s), 1.0, 0.0),
            0.0, s_max, rtol=s_rtol, scale=scale,
            weight="sin", wvar=wabs,
        )
        return cos_part + sgn * sin_part

    return 2.0 * value(eps0) - value(2.0 * eps0)


def decay_rate_quadrature(freq: float, bath: BathParams) -> float:
    """Decay rate by direct double quadrature, γ(ω) = 2 Re ∫_0^∞ ds e^{iωs} C(s).

    Independent oracle for decay_rate; agreement is at the percent level
    for k_B T ≳ Ω.
    """
    def combine(c: complex, sin_w: float, cos_w: float) -> float:
        # Re[e^{iωs} C(s)] = Re C · cos(ωs) + (-Im C) · sin(ωs)
        return cos_w * c.real - sin_w * c.imag

    return 2.0 * _regularized_time_integral(freq, bath, combine)


def lamb_shift_quadrature(freq: float, bath: BathParams) -> float:
    """Lamb-shift rate by direct double quadrature, S(ω) = Im ∫_0^∞ ds e^{iωs} C(s)."""
    def combine(c: complex, sin_w: float, cos_w: float) -> float:
        # Im[e^{iωs} C(s)] = Re C · sin(ωs) + Im C · cos(ωs)
        return sin_w * c.real + cos_w * c.imag

    return _regularized_time_integral(freq, bath, combine)


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
