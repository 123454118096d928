"""Dense linear-algebra kernels for small complex matrices.

All matrices are plain numpy arrays of complex dtype, sized for the 2x2
covariance, 4x4 density, 5x5 covariance-generator and 16x16 Liouvillian
matrices used elsewhere in the package.  The matrix exponential is Higham's
scaling-and-squaring Padé method in NumPy alone.  The Lyapunov solve takes
2x2 equations only (every drift the package builds is 2x2) and solves a
stack of them in closed form, elementwise over the stack, with no LAPACK
call; the matrix logarithm is taken from a Hermitian eigendecomposition,
with the small eigenvalues clamped.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StabilityError

#: eigenvalues below this are clamped before taking a matrix logarithm
LOG_CLAMP = 1e-12

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


def require_finite(name: str, array, error=ValueError) -> None:
    """Raise ``error`` naming the non-finite entries of ``array``: a NaN
    fails every comparison, so no tolerance check after this one sees it."""
    finite = np.isfinite(array)
    if not finite.all():
        bad = np.argwhere(~finite).tolist()
        more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
        raise error(f"{name} has non-finite entries at "
                    f"{', '.join(str(tuple(k)) for k in bad[:3])}{more}")


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
    """Solve W C + C W† + D = 0 for a 2x2 C.

    One item of `lyapunov_solve_stack`; its failure message is raised as a
    StabilityError.
    """
    w_mat = np.asarray(drift, dtype=complex)
    if w_mat.shape != (2, 2):
        raise ValueError(f"drift must be a 2x2 matrix, got shape {w_mat.shape}")
    (c_mat,), (failure,) = lyapunov_solve_stack(w_mat[None], np.asarray(diffusion)[None])
    if failure is not None:
        raise StabilityError(failure)
    return c_mat


# 2x2 matrices below are held as their row-major entries (x00, x01, x10, x11),
# each an array over the stack, so that every product is elementwise


def _entries(stack: np.ndarray):
    return stack[:, 0, 0], stack[:, 0, 1], stack[:, 1, 0], stack[:, 1, 1]


def _product(x, y):
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
            x10 * y00 + x11 * y10, x10 * y01 + x11 * y11)


def _adjoint(x):
    return x[0].conj(), x[2].conj(), x[1].conj(), x[3].conj()


def _max_abs(x):
    return np.max(np.abs(np.array(x)), axis=0)


def _schur(w):
    """Eigenvalues λ₁, λ₂, unitary Q and r with Q†WQ = [[λ₁, r], [0, λ₂]].

    For W = [[a, b], [c, d]] the eigenvalues are tr/2 ± s with
    s = √(p² + bc), p = (a - d)/2, the sign of s taken in the half-plane of
    p so that p + s does not cancel.  (p + s, c) is an eigenvector of
    λ₁ = tr/2 + s; normalized to (α, β), or e₁ where it vanishes (then W is
    already upper triangular), it gives Q = [[α, -β̄], [β, ᾱ]].
    """
    a, b, c, d = w
    half_trace = 0.5 * (a + d)
    p = 0.5 * (a - d)
    s = np.sqrt(p * p + b * c)
    s = np.where(p.real * s.real + p.imag * s.imag < 0.0, -s, s)
    x = p + s
    norm = np.hypot(np.abs(x), np.abs(c))
    flat = norm == 0.0
    norm = np.where(flat, 1.0, norm)
    alpha = np.where(flat, 1.0, x / norm)
    beta = c / norm
    ac, bc = alpha.conj(), beta.conj()
    r = ac * ac * b - bc * bc * c + (d - a) * ac * bc
    return half_trace + s, half_trace - s, (alpha, -bc, beta, ac), r


def _triangular_solve(lam1, lam2, r, f):
    """X with T X + X T† + F = 0 for T = [[λ₁, r], [0, λ₂]], by back
    substitution through the divisors λᵢ + λ̄ⱼ."""
    f00, f01, f10, f11 = f
    x11 = -f11 / (2.0 * lam2.real)
    x01 = -(f01 + r * x11) / (lam1 + lam2.conj())
    x10 = -(f10 + r.conj() * x11) / (lam2 + lam1.conj())
    x00 = -(f00 + r * x10 + r.conj() * x01) / (2.0 * lam1.real)
    return x00, x01, x10, x11


def lyapunov_solve_stack(drift: np.ndarray, diffusion: np.ndarray):
    """Solve W_k C_k + C_k W_k† + D_k = 0 for every item k of an (m, 2, 2) stack.

    Bartels-Stewart in closed form (Comm. ACM 15, 820 (1972)), element by
    element over the stack: with the unitary Schur factor Q of W
    (`_schur`), X = Q†CQ solves T X + X T† + Q†DQ = 0 for the triangular
    T = Q†WQ by back substitution, and C = Q X Q†.  The drift matrix must
    be Hurwitz: both closed-form eigenvalues have real part strictly below
    -1e-14.  The solution residual is verified to 1e-12 of max(1, max |D|)
    in max norm; an item that misses it is refined once with the same
    factors and checked again.  Only 2x2 items are accepted.
    Returns (solutions, failures): failures[k] is None, or the message of
    the check item k failed, in which case its solution is NaN.  A
    non-finite item fails its checks like any other, without a NumPy
    warning.
    """
    w_mat = np.asarray(drift, dtype=complex)
    d_mat = np.asarray(diffusion, dtype=complex)
    if w_mat.ndim != 3 or w_mat.shape[1:] != (2, 2):
        raise ValueError(
            f"drift must be a stack of 2x2 matrices, got shape {w_mat.shape}"
        )
    if d_mat.shape != w_mat.shape:
        raise ValueError("drift and diffusion shapes differ")
    with np.errstate(all="ignore"):
        lam1, lam2, q, r = _schur(_entries(w_mat))
        worst = np.maximum(lam1.real, lam2.real)
        ok = worst < HURWITZ_TOL
        lam1, lam2, r = lam1[ok], lam2[ok], r[ok]
        q = tuple(e[ok] for e in q)
        q_adj = _adjoint(q)
        w = _entries(w_mat[ok])
        w_adj = _adjoint(w)
        d = _entries(d_mat[ok])

        def solve(rhs):
            f = _product(q_adj, _product(rhs, q))
            return _product(q, _product(_triangular_solve(lam1, lam2, r, f), q_adj))

        def residual(c):
            return tuple(u + v + e for u, v, e in
                         zip(_product(w, c), _product(c, w_adj), d))

        c = solve(d)
        res = residual(c)
        res_max = _max_abs(res)
        limit = 1e-12 * np.maximum(1.0, _max_abs(d))
        bad = ~(res_max <= limit)
        if bad.any():
            step = solve(res)
            c = tuple(np.where(bad, u + v, u) for u, v in zip(c, step))
            res_max = np.where(bad, _max_abs(residual(c)), res_max)
            bad = ~(res_max <= limit)
    failures = [
        None if good
        else f"drift matrix is not Hurwitz (max Re eigenvalue = {x:.3e})"
        for good, x in zip(ok.tolist(), worst.tolist())
    ]
    solutions = np.full(w_mat.shape, np.nan, dtype=complex)
    solutions[ok] = np.stack(c, axis=-1).reshape(-1, 2, 2)
    for k, value in zip(np.flatnonzero(ok)[bad], res_max[bad].tolist()):
        failures[k] = f"Lyapunov residual {value:.3e} exceeds tolerance"
        solutions[k] = np.nan
    return solutions, failures


def clamped_log(eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> np.ndarray:
    """Matrix logarithm V diag(ln w) V† from a Hermitian eigendecomposition,
    with eigenvalues below 1e-12 clamped to 1e-12; for one matrix or a stack."""
    logs = np.log(np.maximum(eigenvalues, LOG_CLAMP))
    out = (eigenvectors * logs[..., None, :]) @ eigenvectors.conj().swapaxes(-1, -2)
    return hermitian_part(out)
