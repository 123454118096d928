"""Dense linear-algebra kernels: matrix exponential, Lyapunov, matrix log."""

import numpy as np
import pytest
import scipy.linalg
from conftest import make_system, undriven_systems
from hypothesis import given, settings

from lmesim import PositivityError, StabilityError, drift_diffusion, liouvillian_matrix
from lmesim.gaussian import _augmented_generator
from lmesim.linalg import (
    PADE_THETA_13,
    embed_qubit_op,
    expm,
    hermitian_part,
    lyapunov_solve,
    lyapunov_solve_stack,
    matrix_log_hermitian,
)


def random_stable(rng, n):
    """A random Hurwitz drift and a random PSD diffusion of size n."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w = a - (np.max(np.linalg.eigvals(a).real) + 1.0) * np.eye(n)
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return w, b @ b.conj().T


def test_hermitian_part_is_hermitian_and_idempotent(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = hermitian_part(m)
    assert np.allclose(h, h.conj().T)
    assert np.array_equal(hermitian_part(h), h)


def test_herm_eig_rejects_bad_input():
    # the input checks of the Hermitian eigensolve behind the matrix log
    with pytest.raises(ValueError, match="square"):
        matrix_log_hermitian(np.zeros((2, 3)))
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        matrix_log_hermitian(skew)


def generators(cfg):
    """The 16x16 Liouvillian and the 5x5 covariance generator of cfg."""
    return liouvillian_matrix(cfg), _augmented_generator(drift_diffusion(cfg))


def assert_expm_matches_scipy(a):
    # SciPy's expm (Al-Mohy & Higham 2009) is the oracle.  Both carry a
    # roundoff error of order u‖A‖₁ relative to the largest entry, so the
    # bound grows with the 1-norm past 1 and is EXPM_ROUNDOFF·u below it.
    ref = scipy.linalg.expm(a)
    norm = np.max(np.sum(np.abs(a), axis=0), initial=0.0)
    bound = EXPM_ROUNDOFF * np.finfo(float).eps * max(1.0, norm)
    assert np.max(np.abs(expm(a) - ref)) <= bound * np.max(np.abs(ref))


# the largest difference over 60 000 random generator spans (both
# generators, 1-norms up to 2e4) was 2.6 u·max(1, ‖A‖₁) of the largest entry
EXPM_ROUNDOFF = 8
# frame spans from zero to a long run, on both sides of θ_13
EXPM_SPANS = (0.0, 1e-6, 5e-3, 0.1, 1.0, 12.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(cfg=undriven_systems)
def test_expm_matches_scipy_on_both_generators(cfg):
    for gen in generators(cfg):
        for span in EXPM_SPANS:
            assert_expm_matches_scipy(gen * span)


@pytest.mark.parametrize("norm", [0.99 * PADE_THETA_13, 100.0 * PADE_THETA_13])
def test_expm_with_and_without_squaring_matches_scipy(norm):
    # just inside θ_13 (no scaling), then scaled by 2⁻⁷ and squared seven times
    for gen in generators(make_system()):
        assert_expm_matches_scipy(gen * (norm / np.max(np.sum(np.abs(gen), axis=0))))


def test_expm_of_zero_is_exactly_the_identity():
    for n in (1, 5, 16):
        assert np.array_equal(expm(np.zeros((n, n), dtype=complex)), np.eye(n))


def test_expm_rejects_a_non_square_matrix():
    for shape in [(2, 3), (4,), (2, 2, 2)]:
        with pytest.raises(ValueError, match="square"):
            expm(np.zeros(shape))


def test_expm_of_a_non_finite_matrix_is_nan():
    a = np.eye(3)
    a[0, 1] = np.inf
    assert np.all(np.isnan(expm(a)))


def test_embed_qubit_op_tensor_slots():
    op = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    eye = np.eye(2)
    assert np.array_equal(embed_qubit_op(op, 1), np.kron(op, eye))
    assert np.array_equal(embed_qubit_op(op, 2), np.kron(eye, op))


def test_embed_qubit_op_rejects_bad_input():
    with pytest.raises(ValueError, match="2x2"):
        embed_qubit_op(np.eye(3), 1)
    with pytest.raises(ValueError, match="index"):
        embed_qubit_op(np.eye(2), 3)


def test_lyapunov_solve_scalar_case():
    # 1x1: w c + c w* + d = 0  =>  c = d / (2 |Re w|)
    w = np.array([[-0.7 + 2.0j]])
    d = np.array([[0.3]])
    c = lyapunov_solve(w, d)
    assert np.allclose(c, 0.3 / 1.4)


def test_lyapunov_solve_random_stable(rng):
    for _ in range(25):
        w, d = random_stable(rng, int(rng.integers(2, 5)))
        c = lyapunov_solve(w, d)
        resid = np.max(np.abs(w @ c + c @ w.conj().T + d))
        assert resid < 1e-10 * max(1.0, np.max(np.abs(d)))


def test_lyapunov_solve_rejects_unstable_drift():
    with pytest.raises(StabilityError, match="Hurwitz"):
        lyapunov_solve(np.eye(2, dtype=complex), np.eye(2, dtype=complex))


def test_lyapunov_solve_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        lyapunov_solve(-np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        lyapunov_solve(np.zeros((2, 3)), np.zeros((2, 3)))


def test_lyapunov_solve_stack_matches_single_solves_bitwise(rng):
    for n in (1, 2, 3):
        pairs = [random_stable(rng, n) for _ in range(12)]
        drift = np.array([w for w, _ in pairs])
        diffusion = np.array([d for _, d in pairs])
        solutions, failures = lyapunov_solve_stack(drift, diffusion)
        assert failures == [None] * len(pairs)
        for (w, d), c in zip(pairs, solutions):
            assert np.array_equal(c, lyapunov_solve(w, d))


def test_lyapunov_solve_stack_isolates_a_failed_item(rng):
    pairs = [random_stable(rng, 2) for _ in range(5)]
    drift = np.array([w for w, _ in pairs])
    diffusion = np.array([d for _, d in pairs])
    drift[2] = np.eye(2)
    solutions, failures = lyapunov_solve_stack(drift, diffusion)
    assert "not Hurwitz" in failures[2]
    assert np.all(np.isnan(solutions[2]))
    with pytest.raises(StabilityError) as err:
        lyapunov_solve(drift[2], diffusion[2])
    assert str(err.value) == failures[2]
    for k in (0, 1, 3, 4):
        assert failures[k] is None
        assert np.array_equal(solutions[k], lyapunov_solve(*pairs[k]))


def test_lyapunov_solve_stack_rejects_bad_shapes():
    with pytest.raises(ValueError):
        lyapunov_solve_stack(-np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        lyapunov_solve_stack(-np.ones((3, 2, 2)), np.ones((2, 2, 2)))


def test_matrix_log_diagonal():
    m = np.diag([1.0, np.e, np.e ** 2]).astype(complex)
    assert np.allclose(matrix_log_hermitian(m), np.diag([0.0, 1.0, 2.0]))


def test_matrix_log_round_trip(rng):
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = a @ a.conj().T + 0.1 * np.eye(4)
        logm = matrix_log_hermitian(m)
        w, v = np.linalg.eigh(logm)
        back = (v * np.exp(w)) @ v.conj().T
        assert np.allclose(back, m, atol=1e-10 * np.max(np.abs(m)))


def test_matrix_log_clamps_singular_part():
    # one exactly-zero eigenvalue: clamped to 1e-12, not an error
    m = np.diag([1.0, 0.0]).astype(complex)
    logm = matrix_log_hermitian(m)
    assert logm[0, 0] == pytest.approx(0.0)
    assert logm[1, 1] == pytest.approx(np.log(1e-12))


def test_matrix_log_rejects_negative_matrix():
    with pytest.raises(PositivityError):
        matrix_log_hermitian(np.diag([1.0, -0.5]).astype(complex))
