"""Dense linear-algebra kernels: matrix exponential, Lyapunov, matrix log."""

import numpy as np
import pytest
import scipy.linalg
from conftest import (
    _augmented_generator,
    kronecker_lyapunov_stack,
    make_system,
    matrix_log_hermitian,
    undriven_systems,
)
from hypothesis import given, settings

from lmesim import (
    BathParams,
    PositivityError,
    StabilityError,
    drift_diffusion,
    liouvillian_matrix,
)
from lmesim.gaussian import chain_stack
from lmesim.linalg import (
    PADE_THETA_13,
    _entries,
    _schur,
    embed_qubit_op,
    expm,
    hermitian_part,
    kron,
    lyapunov_solve,
    lyapunov_solve_stack,
)

U = np.finfo(float).eps


def random_stable(rng, n):
    """A random Hurwitz drift and a random PSD diffusion of size n."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w = a - (np.max(np.linalg.eigvals(a).real) + 1.0) * np.eye(n)
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return w, b @ b.conj().T


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def shifted_stable(w, margin):
    """w shifted so that its largest eigenvalue real part is -margin."""
    top = np.max(np.linalg.eigvals(w).real, axis=1)
    return w - (top + margin)[:, None, None] * np.eye(2)


def nearly_defective(rng, m, gap=1e-8):
    """Hurwitz 2x2 drifts U [[λ, t], [0, λ + δ]] U† with |δ| ~ gap: each
    eigenvalue's condition number is about |t|/|δ|."""
    t = np.zeros((m, 2, 2), dtype=complex)
    t[:, 0, 0] = -rng.uniform(0.1, 1.0, m) + 1j * rng.normal(size=m)
    t[:, 1, 1] = t[:, 0, 0] + gap * complex_normal(rng, m)
    t[:, 0, 1] = 3.0 * complex_normal(rng, m)
    q = np.linalg.qr(complex_normal(rng, m, 2, 2))[0]
    return q @ t @ q.conj().swapaxes(1, 2)


def psd_stack(rng, m):
    b = complex_normal(rng, m, 2, 2)
    return b @ b.conj().swapaxes(1, 2)


def one_norm(w):
    return np.max(np.sum(np.abs(w), axis=1), axis=1)


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
    # the solve is 2x2 only: a 1x1 equation is rejected, not solved
    with pytest.raises(ValueError, match="2x2"):
        lyapunov_solve(np.array([[-0.7 + 2.0j]]), np.array([[0.3]]))
    with pytest.raises(ValueError, match="2x2"):
        lyapunov_solve_stack(np.full((3, 1, 1), -1.0), np.ones((3, 1, 1)))


def test_lyapunov_solve_random_stable(rng):
    for _ in range(25):
        w, d = random_stable(rng, 2)
        c = lyapunov_solve(w, d)
        resid = np.max(np.abs(w @ c + c @ w.conj().T + d))
        assert resid < 1e-10 * max(1.0, np.max(np.abs(d)))
    for n in (3, 4):
        with pytest.raises(ValueError, match="2x2"):
            lyapunov_solve(*random_stable(rng, n))


def test_lyapunov_solve_rejects_unstable_drift():
    with pytest.raises(StabilityError, match="Hurwitz"):
        lyapunov_solve(np.eye(2, dtype=complex), np.eye(2, dtype=complex))


def test_lyapunov_solve_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        lyapunov_solve(-np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        lyapunov_solve(np.zeros((2, 3)), np.zeros((2, 3)))


def test_lyapunov_solve_stack_matches_single_solves_bitwise(rng):
    pairs = [random_stable(rng, 2) for _ in range(12)]
    drift = np.array([w for w, _ in pairs])
    diffusion = np.array([d for _, d in pairs])
    solutions, failures = lyapunov_solve_stack(drift, diffusion)
    assert failures == [None] * len(pairs)
    for (w, d), c in zip(pairs, solutions):
        assert np.array_equal(c, lyapunov_solve(w, d))
    for n in (1, 3):
        pairs = [random_stable(rng, n) for _ in range(3)]
        with pytest.raises(ValueError, match="2x2"):
            lyapunov_solve_stack(np.array([w for w, _ in pairs]),
                                 np.array([d for _, d in pairs]))


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_lyapunov_solve_stack_fails_a_non_finite_item_alone(rng, bad):
    pairs = [random_stable(rng, 2) for _ in range(5)]
    drift = np.array([w for w, _ in pairs])
    diffusion = np.array([d for _, d in pairs])
    drift[2, 0, 1] = bad
    diffusion[3, 1, 1] = bad
    solutions, failures = lyapunov_solve_stack(drift, diffusion)
    assert "not Hurwitz" in failures[2]
    assert "residual" in failures[3]
    assert np.all(np.isnan(solutions[2:4]))
    for k in (0, 1, 4):
        assert failures[k] is None
        assert np.array_equal(solutions[k], lyapunov_solve(*pairs[k]))
    for k in (2, 3):
        with pytest.raises(StabilityError) as err:
            lyapunov_solve(drift[k], diffusion[k])
        assert str(err.value) == failures[k]


def test_lyapunov_solve_stack_rejects_bad_shapes():
    with pytest.raises(ValueError):
        lyapunov_solve_stack(-np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        lyapunov_solve_stack(-np.ones((3, 2, 2)), np.ones((2, 2, 2)))


def closed_form_eigenvalue_error(w):
    """Distance of the closed-form eigenvalue pair of each item from
    LAPACK's, under the better of the two pairings."""
    lam1, lam2, _, _ = _schur(_entries(w))
    ref = np.linalg.eigvals(w)
    straight = np.maximum(np.abs(lam1 - ref[:, 0]), np.abs(lam2 - ref[:, 1]))
    crossed = np.maximum(np.abs(lam1 - ref[:, 1]), np.abs(lam2 - ref[:, 0]))
    return np.minimum(straight, crossed)


def test_closed_form_eigenvalues_match_lapack(rng):
    # well-separated eigenvalues agree to roundoff: the largest difference
    # over 20 000 random items was 5.1 u‖W‖₁
    w = complex_normal(rng, 5000, 2, 2)
    assert np.all(closed_form_eigenvalue_error(w) <= 16 * U * one_norm(w))


def test_closed_form_eigenvalues_match_lapack_when_nearly_defective(rng):
    # a double eigenvalue moves by √(u‖W‖) under a perturbation of u‖W‖, so
    # neither method can do better than c·√u·‖W‖₁ there (the largest
    # difference over 20 000 items was 1.2 √u‖W‖₁)
    w = nearly_defective(rng, 5000)
    err = closed_form_eigenvalue_error(w)
    assert np.all(err <= 4 * np.sqrt(U) * one_norm(w))
    assert np.max(err) > 16 * U * np.max(one_norm(w))


def weakly_damped_chains():
    """Drift and diffusion of the workhorse chain, uncoupled and at λ = 0.5,
    from ζ² = 1e-8 to 1: the smaller ζ², the closer the drift eigenvalues
    to the imaginary axis."""
    chain = chain_stack(10.0, 5.0, np.logspace(-8.0, 0.0, 400), [[0.0], [0.5]],
                        BathParams(15.0, 10.0, 1.0), BathParams(10.0, 10.0, 1.0))
    return chain.drift.reshape(-1, 2, 2), chain.diffusion.reshape(-1, 2, 2)


def nearly_triangular(rng, m):
    """Hurwitz drifts whose lower entry is zero or tiny against the diagonal
    split: p + s cancels unless s takes the sign of p."""
    w = shifted_stable(complex_normal(rng, m, 2, 2), rng.uniform(0.1, 1.0, m))
    w[:, 1, 0] *= np.where(rng.random(m) < 0.2, 0.0, 10.0 ** rng.uniform(-14.0, -6.0, m))
    return w


def lyapunov_cases(rng, m=1500):
    return {
        "nearly triangular": (nearly_triangular(rng, m), psd_stack(rng, m)),
        "random": (shifted_stable(complex_normal(rng, m, 2, 2),
                                  rng.uniform(0.01, 1.0, m)), psd_stack(rng, m)),
        "nearly defective": (nearly_defective(rng, m), psd_stack(rng, m)),
        "weakly damped": (shifted_stable(complex_normal(rng, m, 2, 2),
                                         10.0 ** rng.uniform(-8.0, -2.0, m)),
                          psd_stack(rng, m)),
        "weakly damped chains": weakly_damped_chains(),
    }


def operator_condition(w):
    """1-norm condition number of the Lyapunov operator C ↦ W C + C W†."""
    eye = np.eye(2)
    return np.linalg.cond(kron(eye, w) + kron(w.conj(), eye), 1)


def test_lyapunov_solve_stack_matches_the_kronecker_and_scipy_solves(rng):
    # the forward error of any backward-stable solve is of order
    # u·cond(L)·‖C‖; the largest measured against either reference, over
    # five draws of these cases, was 7.0 u·cond(L)·max|C|
    for name, (w, d) in lyapunov_cases(rng).items():
        solutions, failures = lyapunov_solve_stack(w, d)
        oracle, passed = kronecker_lyapunov_stack(w, d)
        both = passed & np.array([f is None for f in failures])
        assert np.count_nonzero(both) >= len(w) // 4, name
        scipy_ref = np.array([scipy.linalg.solve_continuous_lyapunov(a, -b)
                              for a, b in zip(w[both], d[both])])
        bound = 16 * U * operator_condition(w[both])
        for ref in (oracle[both], scipy_ref):
            err = np.max(np.abs(solutions[both] - ref), axis=(1, 2))
            assert np.all(err <= bound * np.max(np.abs(ref), axis=(1, 2))), name


def test_lyapunov_solve_stack_passes_its_checks_as_often_as_the_oracle(rng):
    # on the hard cases some items miss the 1e-12 residual either way; the
    # closed form (with its one refinement step) may not miss more of them
    for name, (w, d) in lyapunov_cases(rng).items():
        _, failures = lyapunov_solve_stack(w, d)
        _, passed = kronecker_lyapunov_stack(w, d)
        assert failures.count(None) >= np.count_nonzero(passed), name


def test_lyapunov_solve_stack_handles_triangular_and_scalar_drifts():
    # W already upper triangular with a double eigenvalue (the eigenvector
    # (p + s, c) vanishes) and W = -I (every vector is an eigenvector)
    d = np.array([[2.0, 0.5j], [-0.5j, 1.0]])
    for w in (np.array([[-1.0 + 1j, 3.0], [0.0, -1.0 + 1j]]), -np.eye(2)):
        c = lyapunov_solve(w, d)
        ref = scipy.linalg.solve_continuous_lyapunov(w, -d)
        assert np.max(np.abs(c - ref)) <= 1e-14 * np.max(np.abs(ref))


# the matrix log below is the tests' checked reference (conftest); its
# arithmetic is `linalg.clamped_log`, which the observables use


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


def test_matrix_log_rejects_non_finite_entries():
    # NaN fails the Hermiticity comparison, so it needs its own check
    for m, where in [(np.diag([np.nan, 1.0]), r"\(0, 0\)$"),
                     (np.array([[0.5, np.inf], [np.inf, 0.5]]), r"\(0, 1\), \(1, 0\)$")]:
        with pytest.raises(ValueError, match="matrix has non-finite entries at " + where):
            matrix_log_hermitian(m)


def test_matrix_log_rejects_negative_matrix():
    with pytest.raises(PositivityError):
        matrix_log_hermitian(np.diag([1.0, -0.5]).astype(complex))
