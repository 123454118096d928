"""Bosonic bath spectral functions and dissipation-rate kernels.

The bath is Ohmic with a Lorentz-Drude cutoff,

    J(ω) = (2κ/π) ω Ω² / (Ω² + ω²),

and couples to a qubit through jump operators evaluated in the instantaneous
eigenbasis.  Two routes to the rates are provided and kept strictly separate:

* closed forms -- the zero-Matsubara (high-temperature) expressions for the
  decay rate γ(ω), the Lamb-shift rate S(ω), and the first-order
  memory-correction rate Γ¹(ω);
* quadrature oracles -- direct numerical evaluation of the defining
  time/frequency double integrals, used to cross-check the closed forms.
  They are the package's only use of SciPy (the ``quadrature`` extra) and
  load ``scipy.integrate`` on first use: no scenario calls them, and
  importing it (with the ``scipy.special``/``scipy.optimize`` stack it pulls
  in) would otherwise dominate the start-up of every CLI run.

The closed-form decay rate γ(ω) = π J(ω)(coth(βω/2)+1) is exact for this
spectral density; the Lamb-shift and memory-correction forms assume
k_B T ≳ Ω.

`spectral_density`, `decay_rate` and `memory_correction_rate` also take an
ndarray of frequencies, which the steady sweeps and the driven generator use
to compute many rates in one call; the other closed forms take scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

#: convergence-factor scale for the regularized time integrals, in units of Ω
REG_EPS_FACTOR = 1e-3

#: |ω| below this (in units of Ω) switches rate formulas to their ω→0 limits
ZERO_FREQ_FACTOR = 1e-9


@dataclass(frozen=True)
class BathParams:
    """One thermal bath: temperature, coupling strength κ, cutoff Ω."""

    temperature: float
    kappa: float
    cutoff: float
    k_B: float = 1.0

    def __post_init__(self):
        problems = [
            f"{name} must be positive and finite, got {value}"
            for name in ("temperature", "kappa", "cutoff", "k_B")
            if not 0 < (value := getattr(self, name)) < math.inf
        ]
        if problems:
            raise ValueError("; ".join(problems))

    @property
    def beta(self) -> float:
        return 1.0 / (self.k_B * self.temperature)

    @property
    def high_temperature(self) -> bool:
        """Whether k_B T >= Ω, the regime assumed by the closed-form S and Γ¹."""
        return self.k_B * self.temperature >= self.cutoff


@dataclass(frozen=True)
class QuadratureConfig:
    """Controls for the quadrature oracles.

    `s_max` and `omega_max` default to 40/Ω and 50·max(Ω, k_B T) when left
    unset; `rtol` is the adaptive relative tolerance, `limit` the QUADPACK
    subdivision cap.
    """

    s_max: float | None = None
    omega_max: float | None = None
    rtol: float = 1e-8
    limit: int = 200

    def __post_init__(self):
        if self.s_max is not None and not self.s_max > 0:
            raise ValueError(f"s_max must be positive, got {self.s_max}")
        if self.omega_max is not None and not self.omega_max > 0:
            raise ValueError(f"omega_max must be positive, got {self.omega_max}")
        if not 0 < self.rtol <= 1e-2:
            raise ValueError(f"rtol must lie in (0, 1e-2], got {self.rtol}")
        if self.limit < 10:
            raise ValueError(f"limit must be at least 10, got {self.limit}")

    def resolved_s_max(self, bath: BathParams) -> float:
        return self.s_max if self.s_max is not None else 40.0 / bath.cutoff

    def resolved_omega_max(self, bath: BathParams) -> float:
        if self.omega_max is not None:
            return self.omega_max
        return 50.0 * max(bath.cutoff, bath.k_B * bath.temperature)


def spectral_density(omega, bath: BathParams):
    """Ohmic spectral density with Lorentz-Drude cutoff (odd in ω); ω may be
    a float or an array."""
    cut2 = bath.cutoff * bath.cutoff
    return (2.0 * bath.kappa / math.pi) * omega * cut2 / (cut2 + omega * omega)


def spectral_density_derivative(omega, bath: BathParams):
    """dJ/dω for the Lorentz-Drude form."""
    cut2 = bath.cutoff * bath.cutoff
    den = cut2 + omega * omega
    return (2.0 * bath.kappa / math.pi) * cut2 * (cut2 - omega * omega) / (den * den)


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` element by element: NumPy's expm1 and sinh differ
    from ``math``'s in the last bit for a few per cent of arguments.  Where
    ``fn`` overflows (β|ω| beyond about 709.78 for expm1, a cold bath) the
    element is ±inf, so the rate formulas take their finite limits."""
    args = x.ravel().tolist()
    try:
        values = np.fromiter(map(fn, args), float, x.size)
    except OverflowError:
        values = np.array([_or_infinity(fn, v) for v in args], dtype=float)
    return values.reshape(x.shape)


def _or_infinity(fn, v: float) -> float:
    try:
        return fn(v)
    except OverflowError:
        return math.copysign(math.inf, v)


def _split_zero_frequency(freq, bath: BathParams):
    """``freq`` as an array, the mask of those that take the ω → 0 limit, and
    ``freq`` with them set to 1 (no 0/0 where the limit is taken)."""
    freq = np.asarray(freq, dtype=float)
    small = np.abs(freq) < ZERO_FREQ_FACTOR * bath.cutoff
    return freq, small, np.where(small, 1.0, freq)


def _thermal_weight(omega: float, bath: BathParams) -> float:
    """J(ω) coth(βω/2); finite at ω = 0 where it tends to 4κ k_B T / π."""
    beta = bath.beta
    if abs(omega) < 1e-6 * bath.cutoff:
        cut2 = bath.cutoff * bath.cutoff
        lorentz = cut2 / (cut2 + omega * omega)
        return (2.0 * bath.kappa / math.pi) * lorentz * (2.0 / beta + beta * omega * omega / 6.0)
    return spectral_density(omega, bath) / math.tanh(0.5 * beta * omega)


def _checked_quad(func, lo, hi, *, rtol, limit, scale, weight=None, wvar=None):
    """scipy quad with non-convergence turned into QuadratureError."""
    from scipy.integrate import quad

    kwargs = dict(epsabs=rtol * scale, epsrel=rtol, limit=limit, full_output=1)
    if weight is not None:
        kwargs["weight"] = weight
        kwargs["wvar"] = wvar
        if hi == math.inf:
            # Fourier integral over a half-line: the tail is summed cycle by
            # cycle and extrapolated, with limlst capping the cycle count.
            kwargs["limlst"] = max(50, limit)
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


def correlation_function(s: float, bath: BathParams, quad_cfg: QuadratureConfig | None = None) -> complex:
    """Bath correlation function C(s) by adaptive frequency quadrature.

    C(s) = ∫_0^∞ dω J(ω) [coth(βω/2) cos(ωs) - i sin(ωs)].

    For s > 0 the oscillatory integrals are taken over the full half-line
    with cycle-wise extrapolation of the tail; truncating at a finite
    omega_max would leave an O(1/(s·omega_max)) ringing error that swamps
    the small large-s values.  At s = 0 the real part grows only
    logarithmically with the frequency cutoff, so the value returned there
    is the integral truncated at omega_max — a regularized quantity,
    meaningful relative to a stated cutoff.
    """
    if s < 0.0:
        raise ValueError(f"s must be non-negative, got {s}")
    q = quad_cfg or QuadratureConfig()
    scale = 4.0 * bath.kappa * max(bath.cutoff, bath.k_B * bath.temperature)

    if s == 0.0:
        real = _checked_quad(
            lambda w: _thermal_weight(w, bath), 0.0, q.resolved_omega_max(bath),
            rtol=q.rtol, limit=q.limit, scale=scale,
        )
        return complex(real, 0.0)

    real = _checked_quad(
        lambda w: _thermal_weight(w, bath), 0.0, math.inf,
        rtol=q.rtol, limit=q.limit, scale=scale, weight="cos", wvar=s,
    )
    imag = _checked_quad(
        lambda w: spectral_density(w, bath), 0.0, math.inf,
        rtol=q.rtol, limit=q.limit, scale=scale, weight="sin", wvar=s,
    )
    return complex(real, -imag)


def decay_rate(freq, bath: BathParams):
    """Closed-form decay rate γ(ω) = π J(ω) (coth(βω/2) + 1).

    Exact for the Lorentz-Drude spectral density at any temperature.  At
    ω = 0 this tends to 4κ k_B T.  Written with expm1 so that detailed
    balance γ(ω) = exp(βω) γ(-ω) holds to machine precision.

    `freq` may be a float or an ndarray.  ``math.expm1`` is taken element by
    element, so every rate has the bits of the scalar formula.  Past its
    overflow (βω below about -709.78, a cold bath) the rate is its limit 0.
    """
    _, small, safe = _split_zero_frequency(freq, bath)
    rate = 2.0 * math.pi * spectral_density(safe, bath) / -_elementwise(
        math.expm1, -bath.beta * safe)
    rate = np.where(small, 4.0 * bath.kappa * bath.k_B * bath.temperature, rate)
    return rate if isinstance(freq, np.ndarray) else float(rate)


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


def memory_correction_rate(freq, bath: BathParams):
    """First-order finite-memory correction Γ¹(ω) = i dΓ(ω)/dω.

    Re Γ¹ = -2κΩ [k_B T (Ω² - ω²) + Ω² ω] / (ω² + Ω²)²
    Im Γ¹ = (π/2) [J'(ω)(coth(βω/2)+1) - β J(ω) / (2 sinh²(βω/2))]

    The imaginary part is evaluated by series near ω = 0, where its limit
    is κ.  `freq` may be a float or an ndarray; ``math.expm1`` and
    ``math.sinh`` are taken element by element, so every value has the bits
    of the scalar formula; past their overflow (a cold bath) the terms they
    enter take their limits and the value stays finite.
    """
    w, small, safe = _split_zero_frequency(freq, bath)
    cut = bath.cutoff
    beta = bath.beta
    kT = bath.k_B * bath.temperature
    den = w * w + cut * cut
    out = np.empty(w.shape, dtype=complex)
    out.real = -2.0 * bath.kappa * cut * (kT * (cut * cut - w * w) + cut * cut * w) / (den * den)
    coth_plus_one = 2.0 / -_elementwise(math.expm1, -beta * safe)
    sh = _elementwise(math.sinh, 0.5 * beta * safe)
    with np.errstate(over="ignore"):
        # sinh² overflows from β|ω| ≈ 710 on, where its term is zero
        thermal = beta * spectral_density(safe, bath) / (2.0 * sh * sh)
    out.imag = np.where(small, bath.kappa * (1.0 + w * (beta / 3.0 - 4.0 / (beta * cut * cut))),
                        0.5 * math.pi * (spectral_density_derivative(safe, bath) * coth_plus_one
                                         - thermal))
    return out if isinstance(freq, np.ndarray) else complex(out)


def _regularized_time_integral(freq, bath, q, combine):
    """∫_0^smax ds e^{-εs} combine(C(s), s) with two-point Richardson in ε.

    `combine` picks out the cos/sin projection of C(s) onto the transition
    frequency.  The frequency integral (inside correlation_function) is done
    first since it decays; the convergence factor regularizes the slowly
    oscillating tail of the time integral and is extrapolated away.
    """
    s_max = q.resolved_s_max(bath)
    eps0 = REG_EPS_FACTOR * bath.cutoff
    scale = 4.0 * bath.kappa * bath.k_B * bath.temperature
    cache: dict[float, complex] = {}

    def corr(s: float) -> complex:
        c = cache.get(s)
        if c is None:
            c = correlation_function(s, bath, q)
            cache[s] = c
        return c

    # s-integral tolerance: the oracle targets percent-level agreement, so a
    # fixed 1e-7 relative request is comfortable without being fragile
    s_rtol = max(1e-7, q.rtol)

    def value(eps: float) -> float:
        if freq == 0.0:
            return _checked_quad(
                lambda s: math.exp(-eps * s) * combine(corr(s), 0.0, 1.0),
                0.0, s_max, rtol=s_rtol, limit=q.limit, scale=scale,
            )
        wabs = abs(freq)
        sgn = 1.0 if freq > 0 else -1.0
        cos_part = _checked_quad(
            lambda s: math.exp(-eps * s) * combine(corr(s), 0.0, 1.0),
            0.0, s_max, rtol=s_rtol, limit=q.limit, scale=scale,
            weight="cos", wvar=wabs,
        )
        sin_part = _checked_quad(
            lambda s: math.exp(-eps * s) * combine(corr(s), 1.0, 0.0),
            0.0, s_max, rtol=s_rtol, limit=q.limit, scale=scale,
            weight="sin", wvar=wabs,
        )
        return cos_part + sgn * sin_part

    return 2.0 * value(eps0) - value(2.0 * eps0)


def decay_rate_quadrature(freq: float, bath: BathParams, quad_cfg: QuadratureConfig | None = None) -> float:
    """Decay rate by direct double quadrature, γ(ω) = 2 Re ∫_0^∞ ds e^{iωs} C(s).

    Independent oracle for decay_rate; agreement is at the percent level
    for k_B T ≳ Ω.
    """
    q = quad_cfg or QuadratureConfig()

    def combine(c: complex, sin_w: float, cos_w: float) -> float:
        # Re[e^{iωs} C(s)] = Re C · cos(ωs) + (-Im C) · sin(ωs)
        return cos_w * c.real - sin_w * c.imag

    return 2.0 * _regularized_time_integral(freq, bath, q, combine)


def lamb_shift_quadrature(freq: float, bath: BathParams, quad_cfg: QuadratureConfig | None = None) -> float:
    """Lamb-shift rate by direct double quadrature, S(ω) = Im ∫_0^∞ ds e^{iωs} C(s)."""
    q = quad_cfg or QuadratureConfig()

    def combine(c: complex, sin_w: float, cos_w: float) -> float:
        # Im[e^{iωs} C(s)] = Re C · sin(ωs) + Im C · cos(ωs)
        return sin_w * c.real + cos_w * c.imag

    return _regularized_time_integral(freq, bath, q, combine)
