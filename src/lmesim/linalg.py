"""Dense linear-algebra kernels for small complex matrices.

All matrices are plain numpy arrays of complex dtype.  The routines here are
thin, contract-checked wrappers around numpy's dense solvers, sized for the
2x2 covariance, 4x4 density, 5x5 covariance-generator and 16x16 Liouvillian
matrices used elsewhere in the package.  The matrix exponential is Higham's
scaling-and-squaring Padé method in NumPy alone, so the package needs no
SciPy to propagate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PositivityError, StabilityError

#: eigenvalues below this are clamped before taking a matrix logarithm
LOG_CLAMP = 1e-12
#: an eigenvalue below minus this makes the matrix logarithm fail
LOG_POSITIVITY_TOL = 1e-10

HURWITZ_TOL = -1e-14

#: the largest 1-norm at which the degree-13 Padé approximant of exp meets
#: double-precision roundoff (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
#: (2005), Table 2.3)
PADE_THETA_13 = 5.371920351148152
# numerator coefficients b_0..b_13 of the degree-13 Padé approximant of exp,
# scaled to b_0 = 1 (so that a zero matrix gives exactly the identity):
# b_j = (26 - j)! 13! / (26! j! (13 - j)!)
_PADE_13 = tuple(math.factorial(26 - j) * math.factorial(13)
                 / (math.factorial(26) * math.factorial(j) * math.factorial(13 - j))
                 for j in range(14))


def expm(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the degree-13 Padé
    approximant (Higham 2005, Algorithm 2.3).

    A matrix whose 1-norm exceeds θ_13 is halved s times, the approximant
    taken and squared s times; up to θ_13, s = 0.  The approximant is
    (V - U)⁻¹(V + U) with U the odd and V the even part of the Padé
    numerator.  A non-finite entry gives a NaN matrix.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    norm = float(np.max(np.sum(np.abs(a), axis=0), initial=0.0))
    if not math.isfinite(norm):
        return np.full(a.shape, np.nan, dtype=np.result_type(a, float))
    b = _PADE_13
    s = math.ceil(math.log2(norm / PADE_THETA_13)) if norm > PADE_THETA_13 else 0
    a = a * 2.0 ** -s
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """(M + M†)/2, for one matrix or a stack of them."""
    return 0.5 * (matrix + matrix.conj().swapaxes(-1, -2))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the trailing square matrices, broadcast over the
    leading axes (the products np.kron forms, without its per-call cost)."""
    n = a.shape[-1] * b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], n, n)


def embed_qubit_op(op: np.ndarray, which: int) -> np.ndarray:
    """Lift a 2x2 operator to the two-qubit space (qubit 1 is the left factor)."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {op.shape}")
    eye = np.eye(2, dtype=complex)
    if which == 1:
        return np.kron(op, eye)
    if which == 2:
        return np.kron(eye, op)
    raise ValueError(f"qubit index must be 1 or 2, got {which}")


def lyapunov_solve(drift: np.ndarray, diffusion: np.ndarray) -> np.ndarray:
    """Solve W C + C W† + D = 0 for C.

    One item of `lyapunov_solve_stack`; its failure message is raised as a
    StabilityError.
    """
    w_mat = np.asarray(drift, dtype=complex)
    d_mat = np.asarray(diffusion, dtype=complex)
    if w_mat.ndim != 2 or w_mat.shape[0] != w_mat.shape[1]:
        raise ValueError(f"drift matrix must be square, got shape {w_mat.shape}")
    (c_mat,), (failure,) = lyapunov_solve_stack(w_mat[None], d_mat[None])
    if failure is not None:
        raise StabilityError(failure)
    return c_mat


def lyapunov_solve_stack(drift: np.ndarray, diffusion: np.ndarray):
    """Solve W_k C_k + C_k W_k† + D_k = 0 for every item k of an (m, n, n) stack.

    Each equation is vectorized column-major into
    (I ⊗ W + conj(W) ⊗ I) vec(C) = -vec(D) and solved densely.  The drift
    matrix must be Hurwitz: every eigenvalue real part strictly below
    -1e-14.  The solution residual is verified to 1e-12 in max norm.
    Returns (solutions, failures): failures[k] is None, or the message of
    the check item k failed, in which case its solution is NaN.
    """
    w_mat = np.asarray(drift, dtype=complex)
    d_mat = np.asarray(diffusion, dtype=complex)
    if w_mat.ndim != 3 or w_mat.shape[1] != w_mat.shape[2]:
        raise ValueError(
            f"drift must be a stack of square matrices, got shape {w_mat.shape}"
        )
    if d_mat.shape != w_mat.shape:
        raise ValueError("drift and diffusion shapes differ")
    n = w_mat.shape[1]
    worst = np.max(np.linalg.eigvals(w_mat).real, axis=1)
    ok = worst < HURWITZ_TOL
    failures = [
        None if good
        else f"drift matrix is not Hurwitz (max Re eigenvalue = {x:.3e})"
        for good, x in zip(ok, worst)
    ]
    w_ok = w_mat[ok]
    d_ok = d_mat[ok]
    eye = np.eye(n, dtype=complex)
    system = kron(eye, w_ok) + kron(w_ok.conj(), eye)
    rhs = -d_ok.swapaxes(1, 2).reshape(-1, n * n, 1)
    vec_c = np.linalg.solve(system, rhs)
    c_ok = vec_c.reshape(-1, n, n).swapaxes(1, 2)
    residual = np.max(np.abs(
        w_ok @ c_ok + c_ok @ w_ok.conj().swapaxes(1, 2) + d_ok
    ), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(d_ok), axis=(1, 2)))
    solutions = np.full(w_mat.shape, np.nan, dtype=complex)
    solutions[ok] = c_ok
    bad = residual > 1e-12 * scale
    for k, res in zip(np.flatnonzero(ok)[bad], residual[bad]):
        failures[k] = f"Lyapunov residual {res:.3e} exceeds tolerance"
        solutions[k] = np.nan
    return solutions, failures


def clamped_log(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> np.ndarray:
    """Matrix logarithm V diag(ln w) V† from a Hermitian eigendecomposition,
    with eigenvalues below 1e-12 clamped to 1e-12; for one matrix or a stack."""
    logs = np.log(np.maximum(eigenvalues, LOG_CLAMP))
    out = (eigenvectors * logs[..., None, :]) @ eigenvectors.conj().swapaxes(-1, -2)
    return hermitian_part(out)


def matrix_log_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a Hermitian positive-semidefinite matrix.

    Raises ValueError if the input is not square or deviates from
    Hermiticity by more than 1e-10 in any entry.  Eigenvalues below 1e-12
    are clamped to 1e-12 before the scalar log; an eigenvalue below
    -LOG_POSITIVITY_TOL raises PositivityError.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    dev = np.max(np.abs(matrix - matrix.conj().T))
    if dev > 1e-10:
        raise ValueError(f"matrix is not Hermitian (max |M - M†| = {dev:.3e})")
    w, v = np.linalg.eigh(matrix)
    if w[0] < -LOG_POSITIVITY_TOL:
        raise PositivityError(
            f"matrix has negative eigenvalue {w[0]:.3e} beyond tolerance"
        )
    return clamped_log(w, v)
