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
#: an eigenvalue below minus this makes the matrix logarithm fail
LOG_POSITIVITY_TOL = 1e-10

HURWITZ_TOL = -1e-14


class HermitianEig(NamedTuple):
    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # orthonormal columns, matching order


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """(M + M†)/2, for one matrix or a stack of them."""
    return 0.5 * (matrix + matrix.conj().swapaxes(-1, -2))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the trailing square matrices, broadcast over the
    leading axes (the products np.kron forms, without its per-call cost)."""
    n = a.shape[-1] * b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], n, n)


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


def matrix_log_hermitian(matrix: np.ndarray,
                         positivity_tol: float = LOG_POSITIVITY_TOL) -> np.ndarray:
    """Matrix logarithm of a Hermitian positive-semidefinite matrix.

    Eigenvalues below 1e-12 are clamped to 1e-12 before the scalar log; an
    eigenvalue below -`positivity_tol` raises PositivityError.
    """
    w, v = herm_eig(matrix)
    if w[0] < -positivity_tol:
        raise PositivityError(
            f"matrix has negative eigenvalue {w[0]:.3e} beyond tolerance"
        )
    return clamped_log(w, v)
