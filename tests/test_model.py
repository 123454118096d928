"""Operators, rates, generators, and state helpers of the two-qubit model."""

import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    dense_reference,
    dissipator,
    driven_systems,
    gibbs_product_state,
    lme_rhs,
    make_system,
    memory_correction_rate,
    random_density,
    scalar_coefficients,
    undriven_systems,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lmesim import (
    BathParams,
    PositivityError,
    QubitParams,
    SystemConfig,
    bare_hamiltonian,
    decay_rate,
    dissipation_rates,
    drive,
    instantaneous_gap,
    interaction_hamiltonian,
    liouvillian_matrix,
    maximum_entropy_state,
    tdlme_rhs,
    validate_density,
)
from lmesim.model import (
    HOP,
    IDENTITY4,
    SM,
    SP,
    SX,
    SZ,
    HERMITIAN_BASIS,
    _real_basis,
    _row_major,
    coefficient_table,
    hamiltonian_pieces,
    real_generator_stack,
)


# ---------------------------------------------------------------------------
# operator algebra


def test_pauli_algebra_per_qubit():
    for i in (0, 1):
        assert np.array_equal(SP[i] @ SP[i], np.zeros((4, 4)))
        assert np.allclose(SP[i] @ SM[i] - SM[i] @ SP[i], SZ[i])
        assert np.allclose(SP[i] + SM[i], SX[i])
        assert np.allclose(SP[i] @ SM[i] + SM[i] @ SP[i], IDENTITY4)


def test_operators_on_different_qubits_commute():
    for a in (SX[0], SZ[0], SP[0]):
        for b in (SX[1], SZ[1], SM[1]):
            assert np.allclose(a @ b, b @ a)


def test_hop_exchanges_single_excitation():
    assert np.allclose(HOP, HOP.conj().T)
    # |up,down> <-> |down,up> in the ordered product basis
    up_down = np.zeros(4)
    up_down[1] = 1.0
    down_up = np.zeros(4)
    down_up[2] = 1.0
    assert np.allclose(HOP @ up_down, down_up)
    assert np.allclose(HOP @ down_up, up_down)


# ---------------------------------------------------------------------------
# parameter containers


def test_qubit_params_validation_collects_problems():
    with pytest.raises(ValueError) as err:
        QubitParams(epsilon=-1.0, drive_amplitude=-2.0)
    msg = str(err.value)
    assert "epsilon" in msg and "drive_amplitude" in msg


def test_system_config_validation():
    with pytest.raises(ValueError, match="zeta2"):
        make_system(zeta2=-0.5)
    with pytest.raises(ValueError, match="coupling"):
        make_system(coupling=-1.0)


@pytest.mark.parametrize("field", ["drive_amplitude", "drive_frequency", "coupling", "zeta2"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_parameters_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        if field.startswith("drive"):
            QubitParams(epsilon=1.0, **{field: value})
        else:
            make_system(**{field: value})


@pytest.mark.parametrize("freq", [5e-324, 1e-310, 2.2250738585072014e-308, 3.4e-308])
def test_qubit_params_reject_a_drive_period_that_overflows(freq):
    # 2π/ω is inf for every subnormal ω and the smallest normals; the
    # default step would scan the rates at NaN times over that period
    with pytest.raises(ValueError) as err:
        QubitParams(epsilon=1.0, drive_amplitude=2.0, drive_frequency=freq)
    assert err.value.violations == [
        f"drive_frequency must be 0 or give a finite period 2π/ω, got {freq}"]
    QubitParams(epsilon=1.0, drive_amplitude=2.0, drive_frequency=3.5e-308)   # period finite


@pytest.mark.parametrize("field", ["epsilon", "temperature", "kappa", "cutoff", "k_B"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_positive_parameters_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        if field == "epsilon":
            QubitParams(epsilon=value)
        else:
            BathParams(**{"temperature": 1.0, "kappa": 1.0, "cutoff": 1.0, field: value})


def test_system_config_warns_on_strained_weak_coupling():
    with pytest.warns(UserWarning, match="weak-coupling"):
        make_system(coupling=8.0)


def test_system_config_warns_on_cold_driven_bath():
    with pytest.warns(UserWarning, match="high-temperature"):
        make_system(t1=0.5, amp=(1.0, 0.0), freq=(0.3, 0.0))


def test_is_driven_requires_amplitude_and_frequency():
    assert not make_system().is_driven
    assert not make_system(amp=(1.0, 0.0), freq=(0.0, 0.0)).is_driven
    assert not make_system(amp=(0.0, 0.0), freq=(1.0, 0.0)).is_driven
    assert make_system(amp=(0.0, 1.0), freq=(0.0, 0.5)).is_driven
    # the one rule, per qubit, that the system, the drive fields and the
    # default step's period scan all read
    for amp, freq in itertools.product((0.0, 1.5), (0.0, 0.5)):
        assert QubitParams(1.0, amp, freq).is_driven == (amp != 0.0 and freq != 0.0)


def test_index_accessors_reject_bad_qubit():
    cfg = make_system()
    with pytest.raises(ValueError):
        cfg.qubit(3)
    with pytest.raises(ValueError):
        cfg.bath(0)


# ---------------------------------------------------------------------------
# drive geometry


def test_drive_field_values():
    cfg = make_system(amp=(2.0, 0.0), freq=(0.2, 0.0))
    t = 3.7
    assert drive(1, t, cfg) == 2.0 * math.sin(0.2 * t)
    assert drive(2, t, cfg) == 0.0


def test_drive_off_returns_unsigned_zero():
    # a 0*sin(wt) drive would produce -0.0 for half the period; the static
    # and time-dependent generators can only agree bitwise if the off state
    # is an exact +0.0
    cfg = make_system()
    t = 5.0  # sin would be negative here for most frequencies
    for i in (1, 2):
        f = drive(i, t, cfg)
        assert f == 0.0 and math.copysign(1.0, f) == 1.0


@pytest.mark.parametrize("i", [0, 3])
def test_qubit_index_is_checked(i):
    cfg = make_system(amp=(2.0, 1.0), freq=(0.2, 0.3))
    for view in (drive, instantaneous_gap, dissipation_rates):
        with pytest.raises(ValueError, match="index must be 1 or 2"):
            view(i, 0.7, cfg)


def test_mixing_angle_and_gap():
    # the generator weights the γ_- channel of bath i by (1, cos θ_i, sin θ_i, …)
    cfg = make_system(eps1=3.0, amp=(4.0, 0.0), freq=(math.pi, 0.0))
    t = 0.5  # sin(pi/2) = 1, so f = 4
    row = coefficient_table(t, cfg)[0][0]
    assert math.atan2(row[10], row[9]) == pytest.approx(math.atan(4.0 / 3.0))
    assert instantaneous_gap(1, t, cfg) == pytest.approx(5.0)
    assert row[25] == 0.0 and row[24] > 0.0
    assert instantaneous_gap(2, t, cfg) == cfg.qubit2.epsilon


# ---------------------------------------------------------------------------
# Hamiltonians


def test_hamiltonian_assembly():
    cfg = make_system(eps1=2.0, eps2=3.0, coupling=0.4)
    h = bare_hamiltonian(0.0, cfg) + interaction_hamiltonian(cfg)
    assert np.allclose(h, h.conj().T)
    expected = 2.0 * SZ[0] + 3.0 * SZ[1] + 0.4 * HOP
    assert np.allclose(h, expected)
    assert np.allclose(interaction_hamiltonian(cfg), 0.4 * HOP)
    # the one set of pieces that the basis, `bare_hamiltonian` and the
    # observables share: H_S(t) = h_0 + f_1 σ_1^x + f_2 σ_2^x + h_I, bit for bit
    driven = make_system(eps1=2.0, eps2=3.0, coupling=0.4, amp=(2.0, 1.0), freq=(0.2, 0.3))
    h0, sx1, sx2, h_int = hamiltonian_pieces(driven)
    t = np.array([0.0, 1.7, 4.2])
    f1, f2 = (drive(i, t, driven)[:, None, None] for i in (1, 2))
    assert np.array_equal(h0 + f1 * sx1 + f2 * sx2 + h_int,
                          bare_hamiltonian(t, driven) + interaction_hamiltonian(driven))


def test_bare_hamiltonian_tracks_drive():
    cfg = make_system(amp=(2.0, 1.0), freq=(0.2, 0.3))
    t = 1.7
    h = bare_hamiltonian(t, cfg)
    expected = (
        10.0 * SZ[0] + 5.0 * SZ[1]
        + 2.0 * math.sin(0.2 * t) * SX[0] + 1.0 * math.sin(0.3 * t) * SX[1]
    )
    assert np.allclose(h, expected)


# ---------------------------------------------------------------------------
# jump operators and rates


def test_undriven_rates_match_static_decay_rates(base_system):
    for i in (1, 2):
        eps = base_system.qubit(i).epsilon
        bath = base_system.bath(i)
        gz, gm, gp = dissipation_rates(i, 0.0, base_system)
        assert gz == 0.0
        assert gm == decay_rate(2.0 * eps, bath)
        assert gp == decay_rate(-2.0 * eps, bath)
        # thermal ratio of de-excitation to excitation
        assert gm / gp == pytest.approx(math.exp(2.0 * bath.beta * eps), rel=1e-12)


def test_undriven_rate_reference_values(base_system):
    # frozen regression values for the workhorse parameter set
    assert dissipation_rates(1, 0.0, base_system) == pytest.approx(
        (0.0, 2.709131878878343, 0.7141194100504131), rel=1e-13)
    assert dissipation_rates(2, 0.0, base_system) == pytest.approx(
        (0.0, 6.265254284630996, 2.3048582450270354), rel=1e-13)


def test_driven_benchmark_rates_are_frozen_bitwise():
    # the driven benchmark system (a_i = 2, ω_i = 0.2) at three times, both
    # baths: a rate change that would move a driven CSV's bits must move these
    cfg = make_system(amp=(2.0, 2.0), freq=(0.2, 0.2))
    frozen = {
        (0.25, 1): (-0.17960829975289797, 2.7080696297835716, 0.713351657164464),
        (0.25, 2): (-0.47862060805908346, 6.254666024938744, 2.2965023069625987),
        (1.0, 1): (0.014114974360831756, 2.699422082660884, 0.7091015986578176),
        (1.0, 2): (0.04910098435425159, 6.171906916241946, 2.2480106454125286),
        (1.75, 1): (1.277002974518831, 2.6833848460949756, 0.7023160206611582),
        (1.75, 2): (3.413963278300464, 6.023288665202706, 2.170617395436877),
    }
    for (t, i), want in frozen.items():
        assert dissipation_rates(i, t, cfg) == want


def test_driven_rates_follow_instantaneous_basis_formula():
    # rebuild the rate from its ingredients through public functions only
    cfg = make_system(amp=(2.0, 0.0), freq=(0.2, 0.0))
    bath = cfg.bath1
    eps = cfg.qubit1.epsilon
    for t in (0.9, 4.2, 11.0):
        f = drive(1, t, cfg)
        fdot = 2.0 * 0.2 * math.cos(0.2 * t)
        theta = math.atan(f / eps)
        theta_dot = eps * fdot / (eps**2 + f**2)
        e2 = 2.0 * math.hypot(eps, f)
        st, ct = math.sin(theta), math.cos(theta)
        g1 = lambda w: 2.0 * memory_correction_rate(w, bath).real
        want_z = decay_rate(0.0, bath) * st**2 + g1(0.0) * st * ct * theta_dot
        want_m = decay_rate(e2, bath) * ct**2 + g1(e2) * ct * (-st * theta_dot)
        want_p = decay_rate(-e2, bath) * ct**2 + g1(-e2) * ct * (-st * theta_dot)
        gz, gm, gp = dissipation_rates(1, t, cfg)
        assert gz == pytest.approx(want_z, rel=1e-12)
        assert gm == pytest.approx(want_m, rel=1e-12)
        assert gp == pytest.approx(want_p, rel=1e-12)


def test_fast_drive_can_push_a_rate_negative():
    # the finite-memory correction dominates for a fast strong drive; the
    # rates are reported unclipped
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = make_system(eps1=1.0, t1=1.5, t2=1.5, amp=(5.0, 0.0), freq=(6.0, 0.0))
    rates = [
        min(dissipation_rates(1, float(t), cfg))
        for t in np.linspace(0.0, 2.0 * math.pi / 6.0, 200)
    ]
    assert min(rates) < 0.0


# ---------------------------------------------------------------------------
# generators


def test_generator_preserves_trace_and_hermiticity(base_system, rng):
    driven = make_system(amp=(2.0, 2.0), freq=(0.2, 0.2))
    for _ in range(10):
        rho = random_density(rng)
        for rhs in (lme_rhs(rho, base_system), tdlme_rhs(rho, 1.3, driven)):
            assert abs(np.trace(rhs)) < 1e-12
            assert np.max(np.abs(rhs - rhs.conj().T)) < 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(cfg=driven_systems, t=st.floats(0.0, 50.0), seed=st.integers(0, 2**32 - 1))
def test_basis_assembly_matches_dense_reference(cfg, t, seed):
    rho = random_density(np.random.default_rng(seed))
    diss, rhs = dense_reference(rho, t, cfg)
    for got, want in [(tdlme_rhs(rho, t, cfg), rhs),
                      (dissipator(1, rho, t, cfg), diss[0]),
                      (dissipator(2, rho, t, cfg), diss[1])]:
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
    scale = max(1.0, float(np.max(np.abs(rhs))))
    got = tdlme_rhs(rho, t, cfg)
    assert abs(np.trace(got)) <= 1e-12 * scale
    assert np.max(np.abs(got - got.conj().T)) <= 1e-12 * scale


def _in_row_major(row, cfg):
    """U (row @ `_real_basis`) U†: the row-major generator of a weight row."""
    gen = (row @ _real_basis(cfg)).reshape(16, 16)
    return HERMITIAN_BASIS @ gen @ HERMITIAN_BASIS.conj().T


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(cfg=driven_systems, times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=20))
def test_coefficient_table_matches_scalar_oracle(cfg, times):
    table, negative = coefficient_table(np.array(times), cfg)
    rows = [scalar_coefficients(t, cfg) for t in times]
    want = np.array([row for row, _ in rows])
    assert table.shape == (len(times), 33)
    ulp = np.spacing(np.max(np.abs(want), axis=1, keepdims=True))
    assert np.all(np.abs(table - want) <= 4.0 * ulp)
    assert negative.tolist() == [neg for _, neg in rows]
    # each row is what a one-time call and the one-time generator return
    for t, row, neg in zip(times, table, negative):
        coeffs, flag = coefficient_table(t, cfg)
        assert np.array_equal(coeffs[0], row) and flag[0] == neg
        got = _row_major(real_generator_stack(t, cfg)[0][0])
        assert np.array_equal(got, _in_row_major(row, cfg))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(cfg=st.one_of(undriven_systems, driven_systems))
def test_static_coefficient_table_is_the_scalar_oracle_bitwise(cfg):
    # the Liouvillian is built from the drive-off table, also for a driven
    # configuration; θ = 0 leaves no last-bit source, so it keeps the bits
    # of the scalar rows
    undriven = replace(cfg, qubit1=QubitParams(cfg.qubit1.epsilon),
                       qubit2=QubitParams(cfg.qubit2.epsilon))
    want, neg = scalar_coefficients(0.0, undriven)
    assert np.array_equal(liouvillian_matrix(cfg), _in_row_major(want, cfg))
    assert not neg


def test_static_and_time_dependent_generators_coincide_bitwise(base_system, rng):
    # with the drive off the two right-hand sides must be the same floats
    for _ in range(10):
        rho = random_density(rng)
        for t in (0.0, 0.37, 5.0, 12.9):
            assert np.array_equal(tdlme_rhs(rho, t, base_system), lme_rhs(rho, base_system))


def test_zero_amplitude_drive_is_exactly_static(rng):
    # frequency set but amplitude zero: still bitwise the static generator
    cfg = make_system(amp=(0.0, 0.0), freq=(0.3, 0.9))
    rho = random_density(rng)
    assert np.array_equal(tdlme_rhs(rho, 7.7, cfg), lme_rhs(rho, cfg))


def test_liouvillian_matrix_matches_rhs(base_system, rng):
    liou = liouvillian_matrix(base_system)
    for _ in range(10):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        direct = lme_rhs(m, base_system)
        via_matrix = (liou @ m.reshape(16)).reshape(4, 4)
        assert np.max(np.abs(direct - via_matrix)) < 1e-12 * np.max(np.abs(direct))


def test_liouvillian_spectrum_is_dissipative(base_system):
    eigs = np.linalg.eigvals(liouvillian_matrix(base_system))
    assert np.max(eigs.real) < 1e-10          # nothing grows
    assert np.min(np.abs(eigs)) < 1e-10       # a steady state exists


def test_dissipator_scales_linearly(base_system, rng):
    rho = random_density(rng)
    d1 = dissipator(1, rho, 0.0, base_system)
    d1_scaled = dissipator(1, 2.0 * rho, 0.0, base_system)
    assert np.allclose(d1_scaled, 2.0 * d1)
    assert abs(np.trace(d1)) < 1e-13


def test_generator_relaxes_single_qubit_to_gibbs():
    # with the qubits uncoupled, the exact steady state is the product of
    # single-qubit thermal states; the generator must vanish there
    cfg = make_system(coupling=0.0)
    rho = gibbs_product_state(cfg)
    assert np.max(np.abs(lme_rhs(rho, cfg))) < 1e-13


def test_propagated_state_matches_matrix_exponential(base_system):
    # independent short-time oracle: expm of the generator matrix
    rho0 = maximum_entropy_state()
    t = 0.05
    liou = liouvillian_matrix(base_system)
    expected = (expm(liou * t) @ rho0.reshape(16)).reshape(4, 4)
    # crude fixed-step RK4 with many substeps for comparison
    rho = rho0.copy()
    n = 500
    h = t / n
    for k in range(n):
        k1 = lme_rhs(rho, base_system)
        k2 = lme_rhs(rho + 0.5 * h * k1, base_system)
        k3 = lme_rhs(rho + 0.5 * h * k2, base_system)
        k4 = lme_rhs(rho + h * k3, base_system)
        rho = rho + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    assert np.max(np.abs(rho - expected)) < 1e-10


# ---------------------------------------------------------------------------
# states


def test_gibbs_product_state_structure(base_system):
    rho = gibbs_product_state(base_system)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(rho, np.diag(np.diag(rho)))
    # excited-state population of each qubit
    for i, op in ((1, SP[0] @ SM[0]), (2, SP[1] @ SM[1])):
        beta = base_system.bath(i).beta
        eps = base_system.qubit(i).epsilon
        want = 1.0 / (1.0 + math.exp(2.0 * beta * eps))
        assert np.trace(op @ rho).real == pytest.approx(want, rel=1e-12)
    # the log-space populations keep the cosh formula's values
    factors = []
    for i in (1, 2):
        x = base_system.bath(i).beta * base_system.qubit(i).epsilon
        z = 2.0 * math.cosh(x)
        factors.append(np.diag([math.exp(-x) / z, math.exp(x) / z]))
    assert np.max(np.abs(rho - np.kron(*factors))) <= 1e-15


def test_gibbs_product_state_of_cold_baths_is_the_ground_state():
    # beta * epsilon = 500 and 1000: cosh overflows past about 710
    rho = gibbs_product_state(make_system(t1=0.01, t2=0.01))
    ground = np.zeros((4, 4), dtype=complex)
    ground[3, 3] = 1.0
    assert np.array_equal(rho, ground)


def test_maximum_entropy_state():
    assert np.array_equal(maximum_entropy_state(), np.eye(4) / 4.0)


def test_validate_density_accepts_valid_states(rng):
    validate_density(maximum_entropy_state())
    validate_density(random_density(rng))


def test_validate_density_rejects_bad_states():
    with pytest.raises(ValueError, match="square"):
        validate_density(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="Hermitian"):
        validate_density(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        validate_density(np.eye(4, dtype=complex))
    with pytest.raises(PositivityError):
        validate_density(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


def test_validate_density_rejects_non_finite_entries():
    # NaN fails every tolerance comparison, so none of the other checks
    # can see one, and an all-NaN matrix must not reach eigvalsh
    nan_diagonal = np.diag([np.nan, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"non-finite entries at \(0, 0\)$"):
        validate_density(nan_diagonal)
    with pytest.raises(ValueError, match=r"at \(0, 0\), \(0, 1\), \(0, 2\) and 13 more"):
        validate_density(np.full((4, 4), np.nan))
    off_diagonal = maximum_entropy_state().astype(complex)
    off_diagonal[1, 2] = off_diagonal[2, 1] = complex(0.0, np.inf)
    with pytest.raises(ValueError, match=r"at \(1, 2\), \(2, 1\)$"):
        validate_density(off_diagonal)
