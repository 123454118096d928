"""Dense linear-algebra kernels for small complex matrices.

All matrices are plain numpy arrays of complex dtype.  The routines here are
thin, contract-checked wrappers around numpy's dense solvers, sized for the
2x2 covariance and 4x4 density matrices used elsewhere in the package.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import PositivityError, StabilityError

#: eigenvalues below this are clamped before taking a matrix logarithm
LOG_CLAMP = 1e-12

HURWITZ_TOL = -1e-14


class HermitianEig(NamedTuple):
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # orthonormal columns, matching order


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """(M + M†)/2."""
    return 0.5 * (matrix + matrix.conj().T)


def herm_eig(matrix: np.ndarray, tol: float = 1e-10) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues are returned in ascending order with matching orthonormal
    eigenvector columns.  Raises ValueError if the input is not square or
    deviates from Hermiticity by more than `tol` in any entry.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    dev = np.max(np.abs(matrix - matrix.conj().T))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (max |M - M†| = {dev:.3e})")
    w, v = np.linalg.eigh(matrix)
    return HermitianEig(w, v)


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

    The equation is vectorized column-major into
    (I ⊗ W + conj(W) ⊗ I) vec(C) = -vec(D) and solved densely.  The drift
    matrix must be Hurwitz: every eigenvalue real part strictly below
    -1e-14, else StabilityError.  The solution residual is verified to
    1e-12 in max norm.
    """
    w_mat = np.asarray(drift, dtype=complex)
    d_mat = np.asarray(diffusion, dtype=complex)
    if w_mat.ndim != 2 or w_mat.shape[0] != w_mat.shape[1]:
        raise ValueError(f"drift matrix must be square, got shape {w_mat.shape}")
    if d_mat.shape != w_mat.shape:
        raise ValueError("drift and diffusion shapes differ")
    n = w_mat.shape[0]
    eigs = np.linalg.eigvals(w_mat)
    worst = float(np.max(eigs.real))
    if worst >= HURWITZ_TOL:
        raise StabilityError(
            f"drift matrix is not Hurwitz (max Re eigenvalue = {worst:.3e})"
        )
    eye = np.eye(n, dtype=complex)
    system = np.kron(eye, w_mat) + np.kron(w_mat.conj(), eye)
    vec_c = np.linalg.solve(system, -d_mat.flatten(order="F"))
    c_mat = vec_c.reshape((n, n), order="F")
    residual = float(np.max(np.abs(w_mat @ c_mat + c_mat @ w_mat.conj().T + d_mat)))
    if residual > 1e-12 * max(1.0, float(np.max(np.abs(d_mat)))):
        raise StabilityError(f"Lyapunov residual {residual:.3e} exceeds tolerance")
    return c_mat


def matrix_log_hermitian(matrix: np.ndarray, positivity_tol: float = 1e-10) -> np.ndarray:
    """Matrix logarithm of a Hermitian positive-semidefinite matrix.

    Eigenvalues below 1e-12 are clamped to 1e-12 before the scalar log; an
    eigenvalue below -`positivity_tol` raises PositivityError.
    """
    w, v = herm_eig(matrix)
    if w[0] < -positivity_tol:
        raise PositivityError(
            f"matrix has negative eigenvalue {w[0]:.3e} beyond tolerance"
        )
    clamped = np.maximum(w, LOG_CLAMP)
    out = (v * np.log(clamped)) @ v.conj().T
    return hermitian_part(out)
