"""Unit tests for the truncated Fock-space core."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammaln

from sqherald import fockspace as fs
from sqherald import sources


def test_truncation_validation():
    with pytest.raises(ValueError):
        fs.Truncation(1)
    with pytest.raises(ValueError):
        fs.Truncation(16, tail_tol=1.0)
    with pytest.raises(ValueError):
        fs.Truncation(16, tail_tol=-0.1)
    tr = fs.Truncation(16, tail_tol=1e-6)
    assert tr.dim == 16
    assert tr.tail_tol == 1e-6


def test_truncation_scaled_rounds_up():
    tr = fs.Truncation(11)
    assert tr.scaled(1.5).dim == 17
    assert tr.scaled(1.5).tail_tol == tr.tail_tol
    assert tr.scaled(2.0).dim == 22


def test_default_truncation_tiers():
    assert fs.default_truncation(0.0).dim == 64
    assert fs.default_truncation(1.2).dim == 64
    assert fs.default_truncation(1.200001).dim == 160
    assert fs.default_truncation(2.0).dim == 160
    with pytest.raises(ValueError):
        fs.default_truncation(2.1)


def test_vacuum_and_fock_states():
    tr = fs.Truncation(8)
    vac = fs.vacuum_state(tr)
    assert vac.amps[0] == 1.0
    assert np.all(vac.amps[1:] == 0.0)
    three = fs.fock_state(3, tr)
    assert three.amps[3] == 1.0
    assert three.norm_sq() == 1.0
    with pytest.raises(ValueError):
        fs.fock_state(8, tr)
    with pytest.raises(ValueError):
        fs.fock_state(-1, tr)


def test_state_amplitudes_are_frozen():
    st = fs.vacuum_state(fs.Truncation(4))
    with pytest.raises(ValueError):
        st.amps[0] = 0.5


def test_coherent_matches_poisson():
    alpha = 1.3
    tr = fs.Truncation(40)
    st = fs.coherent_amplitudes(alpha, tr)
    n = np.arange(tr.dim)
    poisson = np.exp(-alpha**2) * alpha ** (2 * n) / np.array(
        [math.factorial(int(k)) for k in n]
    )
    assert np.max(np.abs(st.photon_distribution() - poisson)) < 1e-12
    assert st.norm_sq() == pytest.approx(1.0, abs=1e-10)


def test_coherent_norm_at_stated_cutoff():
    st = fs.coherent_amplitudes(2.0, fs.Truncation(30))
    assert abs(st.norm_sq() - 1.0) < 1e-10


def test_coherent_truncation_error_when_cutoff_too_small():
    with pytest.raises(fs.TruncationError) as err:
        fs.coherent_amplitudes(4.0, fs.Truncation(12, tail_tol=1e-8))
    assert err.value.tail_mass > 1e-8


def test_ladder_operators():
    tr = fs.Truncation(12)
    a = fs.annihilation(tr).matrix
    adag = fs.creation(tr).matrix
    num = fs.number_operator(tr).matrix
    assert np.array_equal(adag, a.T.conj())
    # sqrt(n)^2 is not bitwise n for every n, only within an ulp
    assert np.max(np.abs(adag @ a - num)) < 1e-12
    # canonical commutator away from the cutoff corner
    comm = a @ adag - adag @ a
    assert np.max(np.abs(comm[:-1, :-1] - np.eye(tr.dim)[:-1, :-1])) < 1e-12
    four = fs.fock_state(4, tr)
    lowered = fs.apply_operator(fs.annihilation(tr), four)
    assert lowered.amps[3] == pytest.approx(2.0, abs=1e-15)


def test_squeeze_matrix_identity_at_zero():
    tr = fs.Truncation(20)
    assert np.array_equal(fs.squeeze_matrix(0.0, tr).matrix, np.eye(20))


def test_squeeze_matrix_rejects_a_non_finite_parameter():
    with pytest.raises(fs.NumericalFailureError):
        fs.squeeze_matrix(float("nan"), fs.Truncation(8))


def test_log_factorials_match_scipy_gammaln():
    count = 16384
    table = fs.log_factorials(count)
    np.testing.assert_allclose(table, gammaln(np.arange(count) + 1.0), rtol=1e-14, atol=0.0)
    assert not table.flags.writeable
    assert fs.log_factorials(count) is table


def test_expm_antisymmetric_matches_scipy_expm():
    rng = np.random.default_rng(20261018)
    for dim in range(2, 65):
        m = rng.normal(size=(dim, dim))
        gen = m - m.T
        gap = np.max(np.abs(fs.expm_antisymmetric(gen) - scipy.linalg.expm(gen)))
        assert gap <= 1e-13, (dim, gap)


def test_squeeze_matrix_rejects_large_parameter():
    with pytest.raises(ValueError):
        fs.squeeze_matrix(3.2, fs.Truncation(32))


def test_squeeze_inverse_pair_on_lower_half():
    tr = fs.Truncation(60)
    prod = fs.squeeze_matrix(0.5, tr).matrix @ fs.squeeze_matrix(-0.5, tr).matrix
    half = tr.dim // 2
    gap = np.abs(prod[:half, :half] - np.eye(half))
    assert gap.max() < 1e-8


def test_squeeze_unitary_on_protected_subspace():
    tr = fs.Truncation(60)
    for r in (0.3, 0.725, 1.2):
        mat = fs.squeeze_matrix(r, tr).matrix
        gram = mat.T @ mat - np.eye(tr.dim)
        protected = tr.dim - int(4 * max(1.0, r * tr.dim / 3.0))
        if protected > 0:
            assert np.abs(gram[:protected, :protected]).max() < 1e-8


def test_squeeze_vacuum_column_matches_closed_form():
    # Boundary reflection off the cutoff scales like 0.3 tanh(r)^(dim/2):
    # the top entries at dim 60 carry a ~1e-7 artifact, so the strict
    # entrywise match is asserted where the construction can deliver it.
    r = 0.725
    sixty = fs.Truncation(60)
    col = fs.squeeze_matrix(r, sixty).matrix[:, 0]
    ref = sources.squeezed_vacuum(r, sixty)
    assert np.max(np.abs(col - ref.amps)) < 2e-7
    assert np.max(np.abs(col[:41] - ref.amps[:41])) < 1e-8
    assert np.max(np.abs(col**2 - ref.photon_distribution())) < 1e-8
    eighty = fs.Truncation(80)
    col80 = fs.squeeze_matrix(r, eighty).matrix[:, 0]
    ref80 = sources.squeezed_vacuum(r, eighty)
    assert np.max(np.abs(col80 - ref80.amps)) < 1e-8


def test_inner_product_requires_matching_spaces():
    a = fs.vacuum_state(fs.Truncation(8))
    b = fs.vacuum_state(fs.Truncation(10))
    with pytest.raises(fs.TruncationMismatchError):
        fs.inner_product(a, b)
    joint = fs.tensor(a, a)
    with pytest.raises(TypeError):
        fs.inner_product(a, joint)


def test_opposite_coherent_states_are_numerically_orthogonal():
    tr = fs.Truncation(192)
    plus = fs.coherent_amplitudes(10.0, tr)
    minus = fs.coherent_amplitudes(-10.0, tr)
    overlap = fs.inner_product(plus, minus)
    # exact value exp(-200) is unreachable in floats; the sum cancels down
    # to ~1e-15 in amplitude, so ~1e-30 in probability
    assert abs(overlap) ** 2 < 1e-29


def test_tensor_and_partial_trace():
    tr = fs.Truncation(6)
    joint = fs.tensor(fs.fock_state(1, tr), fs.fock_state(4, tr))
    assert joint.amps[1, 4] == 1.0
    assert joint.norm_sq() == 1.0
    # one-hot weights pick out a single row of the joint distribution
    pick = np.zeros(tr.dim)
    pick[1] = 1.0
    row = fs.partial_trace_keep_b(joint, pick)
    assert row[4] == pytest.approx(1.0, abs=0.0)
    assert row.sum() == pytest.approx(1.0, abs=0.0)
    # uniform weights give the mode-b marginal
    marginal = fs.partial_trace_keep_b(joint, np.ones(tr.dim))
    assert np.array_equal(marginal, joint.joint_distribution().sum(axis=0))


def test_two_mode_state_distribution():
    tr = fs.Truncation(4)
    amps = np.zeros((4, 4), dtype=complex)
    amps[0, 0] = math.sqrt(0.25)
    amps[2, 1] = 1j * math.sqrt(0.75)
    st = fs.TwoModeState(amps, tr)
    dist = st.joint_distribution()
    assert dist[0, 0] == pytest.approx(0.25, abs=1e-15)
    assert dist[2, 1] == pytest.approx(0.75, abs=1e-15)
    assert st.norm_sq() == pytest.approx(1.0, abs=1e-15)
