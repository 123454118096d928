"""Covariance-matrix fast path for the undriven two-qubit chain.

The undriven master equation closes on the 2x2 covariance matrix
C_ij = ⟨σ_i^+ σ_j^-⟩ (σ_i^- the lowering operator of qubit i, so C_ii is
the excited-state population):

    dC/dt = W C + C W† + D,
    W = [[-ζ²(γ₁⁺+γ₁⁻)/2 + iΔ,  iλ],
         [iλ,  -ζ²(γ₂⁺+γ₂⁻)/2 - iΔ]],      Δ = ε₁ - ε₂,
    D = diag(ζ²γ₁⁺, ζ²γ₂⁺).

This is exact for the undriven generator (the nonlinear terms cancel in
the equations of motion), so it doubles as an independent oracle for the
density-matrix route; the test suite propagates it exactly and checks the
density route's trajectories against it.  The steady state solves the
Lyapunov equation W C + C W† + D = 0 with the closed-form 2x2 kernel of
`linalg` (its Hurwitz check uses the same closed-form eigenvalues), and
the steady heat currents are linear in C.  `relaxation_time` takes the
drift eigenvalues from LAPACK, after checking that W is finite.

`chain_stack` is the one place the rates, W, D and the currents are
computed: over arrays of (ε₁, ε₂, ζ², λ) for chains that share the cold
bath and either share the hot bath or take one per row of the stack,
which is how the steady sweeps run.  `drift_diffusion` (its 0-d case) and
`steady_heat_currents` are its single-configuration views, so a sweep
point and its own scalar solve give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baths import BathParams, decay_rate
from .errors import StabilityError, UnsupportedConfigError
from .linalg import HURWITZ_TOL, hermitian_part, lyapunov_solve, require_finite
from .model import SM, SP, SystemConfig

# C_ij = tr(σ_i^+ σ_j^- ρ); correlator operators in the fixed product basis
_CORR_OPS = np.array([[SP[i] @ SM[j] for j in (0, 1)] for i in (0, 1)])


@dataclass(frozen=True, eq=False)
class ChainStack:
    """W and D stacks of undriven chains that share the cold bath, and the
    rates their heat currents need; per point, γ_i⁺ = γ_i(-2ε_i) and
    γ_i⁺ + γ_i⁻ is the total rate of qubit i."""

    epsilon: np.ndarray       # (2, *m), m the shape of the points
    zeta2: np.ndarray         # m
    coupling: np.ndarray      # m
    gamma_plus: np.ndarray    # (2, *m)
    gamma_total: np.ndarray   # (2, *m)
    drift: np.ndarray         # (*m, 2, 2)
    diffusion: np.ndarray     # (*m, 2, 2)

    def heat_currents(self, cov: np.ndarray):
        """Heat currents (J₁, J₂) into the system for an (*m, 2, 2) covariance
        stack, linear in the covariance:

        J_i = ζ² { -(γ_i⁺+γ_i⁻)/2 · [4 ε_i C_ii + λ (C₁₂+C₂₁)] + 2 ε_i γ_i⁺ }.
        """
        cross = (cov[..., 0, 1] + cov[..., 1, 0]).real
        pop = np.moveaxis(np.diagonal(cov, axis1=-2, axis2=-1).real, -1, 0)
        eps = self.epsilon
        j = self.zeta2 * (
            -0.5 * self.gamma_total * (4.0 * eps * pop + self.coupling * cross)
            + 2.0 * eps * self.gamma_plus
        )
        return j[0], j[1]


def chain_stack(eps1, eps2, zeta2, coupling, bath1, bath2: BathParams) -> ChainStack:
    """Rates, W and D at every point of the broadcast (ε₁, ε₂, ζ², λ).

    ``bath1`` is one `BathParams`, or a sequence of them that differ only
    in temperature, one per row of ε₁ (the boundary sweep's T-ratio rows).
    A bath rates γ_i∓ = γ_i(±2ε_i) in one `decay_rate` call at ε_i's own
    shape (a sequence in one call too, its temperatures as a column), so a
    scalar ε₂ is rated once.  Scalar parameters give a single 2x2 W and D.
    """
    eps1, eps2, z, lam = (np.asarray(x, dtype=float) for x in (eps1, eps2, zeta2, coupling))
    shape = np.broadcast_shapes(eps1.shape, eps2.shape, z.shape, lam.shape) + (2,)

    def rates(eps, bath, temperature=None):   # (γ(2ε), γ(-2ε)) along a last axis
        return decay_rate(np.stack([2.0 * eps, -2.0 * eps], axis=-1), bath, temperature)

    if isinstance(bath1, BathParams):
        g1 = rates(eps1, bath1)
    elif len({(b.kappa, b.cutoff, b.k_B) for b in bath1}) > 1:
        raise ValueError("the hot baths of a chain stack may differ only in temperature")
    else:   # in one call, their temperatures as a column
        g1 = rates(eps1, bath1[0],
                   np.reshape([b.temperature for b in bath1], (-1,) + (1,) * eps1.ndim))
    g1, g2 = np.broadcast_to(g1, shape), np.broadcast_to(rates(eps2, bath2), shape)
    eps1, eps2, z, lam = np.broadcast_arrays(eps1, eps2, z, lam)
    gplus = np.stack([g1[..., 1], g2[..., 1]])
    gtot = np.stack([g1[..., 0] + g1[..., 1], g2[..., 0] + g2[..., 1]])
    delta = eps1 - eps2
    drift = np.empty(z.shape + (2, 2), dtype=complex)
    drift[..., 0, 0] = -0.5 * z * gtot[0] + 1j * delta
    drift[..., 0, 1] = drift[..., 1, 0] = 1j * lam
    drift[..., 1, 1] = -0.5 * z * gtot[1] - 1j * delta
    diffusion = np.zeros(z.shape + (2, 2), dtype=complex)
    diffusion[..., 0, 0] = z * gplus[0]
    diffusion[..., 1, 1] = z * gplus[1]
    return ChainStack(
        epsilon=np.stack([eps1, eps2]), zeta2=z, coupling=lam,
        gamma_plus=gplus, gamma_total=gtot, drift=drift, diffusion=diffusion,
    )


def _chain(cfg: SystemConfig) -> ChainStack:
    return chain_stack(cfg.qubit1.epsilon, cfg.qubit2.epsilon, cfg.zeta2,
                       cfg.coupling, cfg.bath1, cfg.bath2)


def drift_diffusion(cfg: SystemConfig) -> ChainStack:
    """The 0-d `ChainStack` (2x2 W and D) of an undriven configuration."""
    if cfg.is_driven:
        raise UnsupportedConfigError(
            "covariance dynamics require an undriven configuration"
        )
    return _chain(cfg)


def steady_covariance(dd: ChainStack) -> np.ndarray:
    """Steady C from the Lyapunov equation; Hermitian with populations in [0,1]."""
    return hermitian_part(lyapunov_solve(dd.drift, dd.diffusion))


def covariance_from_density(rho: np.ndarray) -> np.ndarray:
    """Extract C_ij = Tr(σ_i^+ σ_j^- ρ) from a two-qubit density matrix."""
    return np.einsum("ijkl,lk->ij", _CORR_OPS, rho)


def relaxation_time(dd: ChainStack) -> float:
    """τ_r = 1/|2 max Re w| over drift eigenvalues w (slowest decay of C); a
    drift with a non-finite entry, or with max Re w >= HURWITZ_TOL (the
    Lyapunov solve's rule), fails with StabilityError."""
    require_finite("drift", dd.drift, StabilityError)
    ws = np.linalg.eigvals(dd.drift)
    top = float(np.max(ws.real))
    if not top < HURWITZ_TOL:
        raise StabilityError(
            f"drift matrix is not Hurwitz (max Re eigenvalue {top:.3e})"
        )
    return 1.0 / abs(2.0 * top)


def steady_heat_currents(cov: np.ndarray, cfg: SystemConfig):
    """Heat currents (J₁, J₂) into the system, linear in the covariance
    (the formula is in `ChainStack.heat_currents`)."""
    j1, j2 = _chain(cfg).heat_currents(np.asarray(cov))
    return float(j1), float(j2)
