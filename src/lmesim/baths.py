"""Bosonic bath spectral functions and dissipation-rate kernels.

The bath is Ohmic with a Lorentz-Drude cutoff,

    J(ω) = (2κ/π) ω Ω² / (Ω² + ω²),

and couples to a qubit through jump operators evaluated in the instantaneous
eigenbasis.  The rates are closed forms: the decay rate γ(ω) and the real
part of the first-order memory-correction rate Γ¹(ω), the only part the
driven generator takes.  The test suite holds the complex Γ¹ and
cross-checks the rates against quadrature of the defining time/frequency
double integrals.

The closed-form decay rate γ(ω) = π J(ω)(coth(βω/2)+1) is exact for this
spectral density; the memory-correction form assumes k_B T ≳ Ω.

`spectral_density`, `decay_rate` and `memory_correction_real` also take an
ndarray of frequencies, which the steady sweeps and the driven generator use
to compute many rates in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

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
            raise ConfigError(problems)

    @property
    def beta(self) -> float:
        return 1.0 / (self.k_B * self.temperature)

    @property
    def high_temperature(self) -> bool:
        """Whether k_B T >= Ω, the regime assumed by the closed-form Γ¹."""
        return self.k_B * self.temperature >= self.cutoff


def spectral_density(omega, bath: BathParams):
    """Ohmic spectral density with Lorentz-Drude cutoff (odd in ω); ω may be
    a float or an array."""
    cut2 = bath.cutoff * bath.cutoff
    return (2.0 * bath.kappa / math.pi) * omega * cut2 / (cut2 + omega * omega)


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


def decay_rate(freq, bath: BathParams, temperature=None):
    """Closed-form decay rate γ(ω) = π J(ω) (coth(βω/2) + 1).

    Exact for the Lorentz-Drude spectral density at any temperature.  At
    ω = 0 this tends to 4κ k_B T.  Written with expm1 so that detailed
    balance γ(ω) = exp(βω) γ(-ω) holds to machine precision.

    `freq` may be a float or an ndarray.  ``math.expm1`` is taken element by
    element, so every rate has the bits of the scalar formula.  Past its
    overflow (βω below about -709.78, a cold bath) the rate is its limit 0.
    A `temperature` array, broadcast against `freq`, replaces the bath's own.
    """
    _, small, safe = _split_zero_frequency(freq, bath)
    temp = bath.temperature if temperature is None else temperature
    rate = 2.0 * math.pi * spectral_density(safe, bath) / -_elementwise(
        math.expm1, -(1.0 / (bath.k_B * temp)) * safe)   # β as `BathParams.beta`
    rate = np.where(small, 4.0 * bath.kappa * bath.k_B * temp, rate)
    return rate if isinstance(freq, np.ndarray) else float(rate)


def memory_correction_real(freq, bath: BathParams):
    """Re Γ¹(ω) = -2κΩ [k_B T (Ω² - ω²) + Ω² ω] / (ω² + Ω²)², plain
    arithmetic with no ω → 0 branch; `freq` may be a float or an ndarray."""
    w = np.asarray(freq, dtype=float)
    cut = bath.cutoff
    kT = bath.k_B * bath.temperature
    den = w * w + cut * cut
    real = -2.0 * bath.kappa * cut * (kT * (cut * cut - w * w) + cut * cut * w) / (den * den)
    return real if isinstance(freq, np.ndarray) else float(real)
