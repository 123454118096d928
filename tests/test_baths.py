"""Bath spectral functions and rates, cross-checked two independent ways.

The closed forms are checked against exact results derived from the pole
expansion of the correlation function

    C(s) = kOmega^2 [cot(beta Omega/2) - i] e^{-Omega s}
           + (4 kOmega^2 / beta) sum_n nu_n e^{-nu_n s} / (nu_n^2 - Omega^2)

with nu_n = 2 pi n / beta (thermal poles of coth), which gives

    Gamma(w) = A (Omega + i w)/(Omega^2 + w^2)
               + sum_n B_n (nu_n + i w)/(nu_n^2 + w^2)

for the one-sided transform.  The series is summed directly here, so the
quadrature oracles and the high-temperature closed forms are both tested
against a third, independent route.  The quadrature oracles
(``correlation_function``, ``decay_rate_quadrature``,
``lamb_shift_quadrature``) and the closed forms that only they use
(``lamb_shift``, ``one_sided_rate``) live in ``tests/conftest.py``; the
package's own rates are ``decay_rate``, ``memory_correction_rate`` and its
real part ``memory_correction_real``, which is all the driven rates take.
"""

import math

import conftest
import numpy as np
import pytest
from conftest import (
    QuadratureError,
    _omega_max,
    _s_max,
    correlation_function,
    decay_rate_quadrature,
    driven_systems,
    lamb_shift,
    lamb_shift_quadrature,
    one_sided_rate,
    scalar_decay_rate,
    scalar_memory_correction_rate,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from lmesim import BathParams, decay_rate, memory_correction_rate, spectral_density
from lmesim.baths import ZERO_FREQ_FACTOR, memory_correction_real, spectral_density_derivative

BATH_HOT = BathParams(temperature=10.0, kappa=10.0, cutoff=1.0)
BATH_WARM = BathParams(temperature=2.0, kappa=10.0, cutoff=1.0)


def exact_correlation(s: float, bath: BathParams, nmax=4000) -> complex:
    """C(s) for s > 0 from the pole expansion (exact at any temperature)."""
    k, cut, beta = bath.kappa, bath.cutoff, bath.beta
    n = np.arange(1, nmax + 1)
    nu = 2.0 * math.pi * n / beta
    series = (4.0 * k * cut**2 / beta) * np.sum(nu * np.exp(-nu * s) / (nu**2 - cut**2))
    re = k * cut**2 / math.tan(0.5 * beta * cut) * math.exp(-cut * s) + series
    return complex(re, -k * cut**2 * math.exp(-cut * s))


def exact_lamb_shift(w: float, bath: BathParams, nmax=200_000) -> float:
    """Im Gamma(w) from the pole expansion (exact at any temperature)."""
    k, cut, beta = bath.kappa, bath.cutoff, bath.beta
    n = np.arange(1, nmax + 1)
    nu = 2.0 * math.pi * n / beta
    bn = (4.0 * k * cut**2 / beta) * nu / (nu**2 - cut**2)
    series = w * float(np.sum(bn / (nu**2 + w**2)))
    main = (k * cut**2 / math.tan(0.5 * beta * cut) * w - k * cut**3) / (cut**2 + w**2)
    return main + series


# ---------------------------------------------------------------------------
# parameter containers


def test_bath_params_validation_collects_all_problems():
    with pytest.raises(ValueError) as err:
        BathParams(temperature=-1.0, kappa=0.0, cutoff=1.0)
    msg = str(err.value)
    assert "temperature" in msg and "kappa" in msg


def test_bath_params_beta_and_regime():
    b = BathParams(temperature=4.0, kappa=1.0, cutoff=2.0, k_B=0.5)
    assert b.beta == pytest.approx(1.0 / 2.0)
    assert b.high_temperature  # k_B T = 2 equals the cutoff
    assert not BathParams(temperature=1.0, kappa=1.0, cutoff=2.0).high_temperature


# ---------------------------------------------------------------------------
# spectral density


def test_spectral_density_reference_points():
    assert spectral_density(1.0, BATH_HOT) == pytest.approx(10.0 / math.pi, rel=1e-15)
    # at the cutoff frequency: kappa * Omega / pi
    b = BathParams(temperature=1.0, kappa=3.0, cutoff=2.0)
    assert spectral_density(2.0, b) == pytest.approx(3.0 * 2.0 / math.pi, rel=1e-15)


def test_spectral_density_is_odd_and_peaks_at_cutoff(rng):
    for w in rng.uniform(0.1, 30.0, size=50):
        assert spectral_density(-w, BATH_HOT) == -spectral_density(w, BATH_HOT)
    ws = np.linspace(0.0, 10.0, 2001)
    js = spectral_density(ws, BATH_HOT)
    assert abs(ws[np.argmax(js)] - BATH_HOT.cutoff) < 0.01


def test_spectral_density_derivative_matches_finite_difference(rng):
    h = 1e-6
    for w in rng.uniform(-20.0, 20.0, size=50):
        fd = (spectral_density(w + h, BATH_HOT) - spectral_density(w - h, BATH_HOT)) / (2 * h)
        assert spectral_density_derivative(w, BATH_HOT) == pytest.approx(fd, abs=1e-6)


# ---------------------------------------------------------------------------
# closed-form rates


def test_decay_rate_zero_frequency_value():
    # defined value at w = 0: 4 kappa k_B T, exactly
    assert decay_rate(0.0, BATH_HOT) == 4.0 * BATH_HOT.kappa * BATH_HOT.k_B * BATH_HOT.temperature
    assert decay_rate(0.0, BATH_HOT) == 400.0


def test_decay_rate_detailed_balance_machine_precision(rng):
    for bath in (BATH_HOT, BATH_WARM):
        for w in rng.uniform(1e-6, 50.0, size=1000):
            down = decay_rate(w, bath)
            up = decay_rate(-w, bath)
            ratio = down / up
            target = math.exp(bath.beta * w)
            assert abs(ratio - target) <= 1e-12 * target


def test_decay_rate_non_negative_and_decaying():
    ws = np.linspace(-50.0, 50.0, 1001)
    vals = [decay_rate(float(w), BATH_HOT) for w in ws]
    assert min(vals) >= 0.0
    assert decay_rate(1e4, BATH_HOT) < 1e-2


def test_decay_rate_continuous_at_zero_switch():
    # just outside the series threshold the full formula must agree with 4 k kT
    w = 2e-9 * BATH_HOT.cutoff
    assert decay_rate(w, BATH_HOT) == pytest.approx(400.0, rel=1e-6)


random_baths = st.builds(
    BathParams,
    temperature=st.floats(1.0, 50.0),
    kappa=st.floats(0.1, 20.0),
    cutoff=st.floats(0.2, 5.0),
    k_B=st.floats(0.5, 2.0),
)

# frequencies in units of the cutoff: exact zeros, a band that straddles the
# ZERO_FREQ_FACTOR switch on both signs, and the bulk (|βω| <= 300)
scaled_frequencies = st.one_of(
    st.sampled_from([0.0, -0.0, ZERO_FREQ_FACTOR, -ZERO_FREQ_FACTOR]),
    st.floats(-1e2 * ZERO_FREQ_FACTOR, 1e2 * ZERO_FREQ_FACTOR),
    st.floats(-30.0, 30.0),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(bath=random_baths, scaled=st.lists(scaled_frequencies, min_size=1, max_size=30))
def test_decay_rate_array_path(bath, scaled):
    w = np.array(scaled) * bath.cutoff
    down, up = decay_rate(np.stack([w, -w]), bath)
    # element by element the bits of the scalar formula, at either sign, and
    # so the bits of a float call
    for got, sign in ((down, 1.0), (up, -1.0)):
        want = [scalar_decay_rate(sign * x, bath) for x in w.tolist()]
        assert np.array_equal(got, want)
        assert [decay_rate(sign * x, bath) for x in w.tolist()] == want
    # detailed balance gamma(w) = exp(beta w) gamma(-w) outside the switch;
    # inside it both signs take the limit 4 kappa k_B T
    outside = np.abs(w) >= ZERO_FREQ_FACTOR * bath.cutoff
    target = np.exp(bath.beta * w[outside])
    assert np.all(np.abs(down[outside] / up[outside] - target) <= 1e-12 * target)
    limit = 4.0 * bath.kappa * bath.k_B * bath.temperature
    assert np.all(down[~outside] == limit) and np.all(up[~outside] == limit)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(cfg=driven_systems, scaled=st.lists(scaled_frequencies, min_size=1, max_size=30))
def test_memory_correction_rate_array_path(cfg, scaled):
    # the baths a driven run uses, at frequencies that straddle the series
    # switch: element by element the bits of the scalar formula, and so the
    # bits of a float call; the same for the real part alone, which is all
    # the driven rates take
    for bath in (cfg.bath1, cfg.bath2):
        w = np.array(scaled) * bath.cutoff
        got = memory_correction_rate(np.stack([w, -w]), bath)
        want = np.array([[scalar_memory_correction_rate(s * x, bath) for x in w.tolist()]
                         for s in (1.0, -1.0)])
        assert got.shape == (2, w.size)
        assert np.array_equal(got, want)
        assert [memory_correction_rate(x, bath) for x in w.tolist()] == want[0].tolist()
        real = memory_correction_real(np.stack([w, -w]), bath)
        assert real.shape == (2, w.size) and real.tobytes() == want.real.tobytes()
        floats = [memory_correction_real(s * x, bath) for s in (1.0, -1.0) for x in w.tolist()]
        assert all(type(v) is float for v in floats)
        assert np.array(floats).tobytes() == want.real.tobytes()


def test_lamb_shift_reference_points():
    assert lamb_shift(0.0, BATH_HOT) == pytest.approx(-10.0, rel=1e-15)
    root = BATH_HOT.cutoff**2 / (2.0 * BATH_HOT.k_B * BATH_HOT.temperature)
    assert lamb_shift(root, BATH_HOT) == pytest.approx(0.0, abs=1e-14)


def test_one_sided_rate_assembles_halves():
    w = 7.3
    g = one_sided_rate(w, BATH_HOT)
    assert g.real == 0.5 * decay_rate(w, BATH_HOT)
    assert g.imag == lamb_shift(w, BATH_HOT)


def test_memory_correction_rate_zero_frequency():
    # Re: -2 kappa k_B T / Omega; Im: kappa
    g1 = memory_correction_rate(0.0, BATH_HOT)
    assert g1.real == pytest.approx(-200.0, rel=1e-15)
    assert g1.imag == pytest.approx(10.0, rel=1e-15)


def test_memory_correction_matches_derivative_of_one_sided_rate():
    # Gamma1(w) = i dGamma/dw, checked by central finite difference
    h = 1e-5
    for bath in (BATH_HOT, BATH_WARM):
        for w in np.linspace(-30.0, 30.0, 121):
            if abs(w) < 0.1:
                continue
            fd = 1j * (one_sided_rate(w + h, bath) - one_sided_rate(w - h, bath)) / (2 * h)
            g1 = memory_correction_rate(w, bath)
            assert abs(g1 - fd) <= 1e-4 * abs(fd)


def test_memory_correction_series_joins_full_formula():
    # the w -> 0 series branch and the general branch agree near the switch
    for w in (1e-4, -1e-4):
        series_side = memory_correction_rate(0.0, BATH_HOT).imag + BATH_HOT.kappa * w * (
            BATH_HOT.beta / 3.0 - 4.0 / (BATH_HOT.beta * BATH_HOT.cutoff**2)
        )
        assert memory_correction_rate(w, BATH_HOT).imag == pytest.approx(series_side, rel=1e-6)


# a cold bath: β|ω| beyond the overflow of math.expm1 (and, at twice that,
# of math.sinh), where each rate takes its finite limit

# β = 1 exactly, so βω is the frequency itself
BATH_UNIT_BETA = BathParams(temperature=1.0, kappa=10.0, cutoff=1.0)


def last_finite_argument(fn):
    """The largest float at which ``fn`` does not raise OverflowError."""
    lo, hi = 1.0, 1e4
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        try:
            fn(mid)
            lo = mid
        except OverflowError:
            hi = mid
    return lo


EXPM1_LAST = last_finite_argument(math.expm1)     # about 709.78
SINH_LAST = last_finite_argument(math.sinh)       # about 710.48


@pytest.mark.filterwarnings("error")
def test_decay_rate_at_and_beyond_the_expm1_overflow():
    bath = BATH_UNIT_BETA
    at, beyond = EXPM1_LAST, math.nextafter(EXPM1_LAST, math.inf)
    with pytest.raises(OverflowError):
        scalar_decay_rate(-beyond, bath)
    # up to the threshold the bits of the scalar formula, beyond it the limit
    assert decay_rate(-at, bath) == scalar_decay_rate(-at, bath) > 0.0
    assert decay_rate(-beyond, bath) == 0.0
    # detailed balance γ(ω) = e^{βω} γ(-ω): at the threshold γ(-ω) is
    # subnormal, so compare logarithms; beyond it the true γ(-ω) is below
    # 1e-300 and the limit is zero
    down, up = decay_rate(at, bath), decay_rate(-at, bath)
    assert abs(math.log(down) - math.log(up) - at) <= 1e-12 * at
    assert decay_rate(beyond, bath) * math.exp(-beyond) < 1e-300


@pytest.mark.filterwarnings("error")
def test_memory_correction_rate_at_and_beyond_the_overflows():
    # Γ¹ overflows math.expm1 first for ω < 0 and math.sinh(βω/2) for
    # ω > 0; on each side the value just beyond the threshold is finite and
    # joins the value at it, which has the bits of the scalar formula
    bath = BATH_UNIT_BETA
    for at, beyond in ((-EXPM1_LAST, -math.nextafter(EXPM1_LAST, math.inf)),
                       (2.0 * SINH_LAST, 2.0 * math.nextafter(SINH_LAST, math.inf))):
        with pytest.raises(OverflowError):
            scalar_memory_correction_rate(beyond, bath)
        assert memory_correction_rate(at, bath) == scalar_memory_correction_rate(at, bath)
        far = memory_correction_rate(beyond, bath)
        assert np.isfinite(far)
        assert abs(far - memory_correction_rate(at, bath)) <= 1e-12 * abs(far)
    assert memory_correction_rate(-1e4, bath).imag == 0.0


@pytest.mark.filterwarnings("error")
def test_rates_keep_the_bits_of_every_argument_that_does_not_overflow():
    # one overflowing element sends the array through the per-element
    # fallback; every other element keeps its bits
    bath = BATH_UNIT_BETA
    w = np.array([-3.0, -EXPM1_LAST, -1e4, 0.0, 2.5, 2.0 * SINH_LAST, 1e5, -0.0,
                  -math.nextafter(EXPM1_LAST, math.inf), 2.0 * math.nextafter(SINH_LAST, math.inf)])
    gamma = decay_rate(w, bath)
    gamma1 = memory_correction_rate(w, bath)
    assert gamma[2] == 0.0 and np.all(np.isfinite(gamma1))
    for k in (0, 1, 3, 4, 5, 6, 7):
        assert gamma[k] == scalar_decay_rate(w[k], bath)
    for k in (0, 1, 3, 4, 5, 7):
        assert gamma1[k] == scalar_memory_correction_rate(w[k], bath)
    # Re Γ¹ takes no expm1 or sinh and has no ω → 0 branch: the scalar
    # formula's real part wherever that does not overflow, and everywhere,
    # as an array and as floats, the real part of the complex rate's
    # per-element fallback
    real = memory_correction_real(w, bath)
    assert real.tobytes() == gamma1.real.tobytes()
    assert np.array([memory_correction_real(x, bath) for x in w.tolist()]).tobytes() == real.tobytes()
    for k in (0, 1, 3, 4, 5, 7):
        assert real[k] == scalar_memory_correction_rate(w[k], bath).real
    assert real[3] == real[7] == -2.0 * bath.kappa * bath.k_B * bath.temperature / bath.cutoff
    assert np.allclose(real[8:], real[[1, 5]], rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# correlation function (quadrature oracle)


def test_quadrature_default_horizons():
    assert _s_max(BATH_HOT) == pytest.approx(40.0)
    assert _omega_max(BATH_HOT) == pytest.approx(500.0)


def test_correlation_function_rejects_negative_time():
    with pytest.raises(ValueError):
        correlation_function(-0.1, BATH_HOT)


def test_correlation_function_vs_pole_expansion():
    for bath in (BATH_HOT, BATH_WARM):
        for s in (0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0):
            c = correlation_function(s, bath)
            ref = exact_correlation(s, bath)
            assert abs(c.real - ref.real) <= 1e-5 * abs(ref.real)
            assert abs(c.imag - ref.imag) <= 1e-5 * abs(ref.imag)


def test_correlation_function_high_temperature_forms():
    # at k_B T = 10 Omega the single-thermal-pole forms hold to 1% for s > 0
    k, cut, kT = BATH_HOT.kappa, BATH_HOT.cutoff, BATH_HOT.k_B * BATH_HOT.temperature
    for s in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0):
        c = correlation_function(s, BATH_HOT)
        re_ref = 2.0 * k * cut * kT * math.exp(-cut * s)
        im_ref = -k * cut**2 * math.exp(-cut * s)
        assert abs(c.real - re_ref) <= 0.01 * re_ref
        assert abs(c.imag - im_ref) <= 0.01 * abs(im_ref)


def test_correlation_function_at_zero_time():
    # Im C(0) vanishes; Re C(0) is the cutoff-regularized value, which sits
    # above the thermal estimate 2 kappa Omega k_B T by a logarithmic excess
    c0 = correlation_function(0.0, BATH_HOT)
    assert c0.imag == 0.0
    thermal = 2.0 * BATH_HOT.kappa * BATH_HOT.cutoff * BATH_HOT.k_B * BATH_HOT.temperature
    assert 1.0 < c0.real / thermal < 1.2


def test_correlation_function_decays_on_cutoff_timescale():
    c1 = correlation_function(1.0, BATH_HOT)
    c3 = correlation_function(3.0, BATH_HOT)
    assert abs(c3) == pytest.approx(abs(c1) * math.exp(-2.0), rel=0.02)


# ---------------------------------------------------------------------------
# quadrature oracles vs closed forms


def test_decay_rate_quadrature_agrees_with_closed_form():
    for bath in (BATH_HOT, BATH_WARM):
        for w in (0.0, -2.0, 2.0, -10.0, 10.0, -20.0, 20.0):
            num = decay_rate_quadrature(w, bath)
            ref = decay_rate(w, bath)
            assert abs(num - ref) <= 1e-3 * abs(ref)


def test_decay_rate_quadrature_detailed_balance():
    w = 10.0
    num_ratio = decay_rate_quadrature(w, BATH_HOT) / decay_rate_quadrature(-w, BATH_HOT)
    assert num_ratio == pytest.approx(math.exp(BATH_HOT.beta * w), rel=1e-4)


def test_lamb_shift_quadrature_agrees_with_exact_series():
    # the quadrature route reproduces the exact transform at any temperature
    for bath in (BATH_HOT, BATH_WARM):
        for w in (-20.0, -10.0, -2.0, 2.0, 10.0, 20.0):
            num = lamb_shift_quadrature(w, bath)
            assert abs(num - exact_lamb_shift(w, bath)) <= 1e-5 * abs(exact_lamb_shift(w, bath))


def test_lamb_shift_quadrature_vs_closed_form_in_validity_window():
    # the closed form is the leading thermal-pole approximation; it holds to
    # 2% only while |w| stays comparable to k_B T, so the warm bath is
    # sampled inside that window (outside it the closed form itself is off
    # by up to 15% from the exact transform -- see the series test above)
    for w in (0.0, -2.0, 2.0, -10.0, 10.0, -20.0, 20.0):
        assert abs(lamb_shift_quadrature(w, BATH_HOT) - lamb_shift(w, BATH_HOT)) \
            <= 0.02 * abs(lamb_shift(w, BATH_HOT))
    for w in (0.0, -2.0, 2.0):
        assert abs(lamb_shift_quadrature(w, BATH_WARM) - lamb_shift(w, BATH_WARM)) \
            <= 0.02 * abs(lamb_shift(w, BATH_WARM))


def test_quadrature_error_reports_achieved_tolerance(monkeypatch):
    # starve the subdivision budget on a fast-oscillating transform
    monkeypatch.setattr(conftest, "QUAD_LIMIT", 10)
    with pytest.raises(QuadratureError) as err:
        decay_rate_quadrature(200.0, BATH_HOT)
    assert err.value.achieved is None or err.value.achieved > 0.0
