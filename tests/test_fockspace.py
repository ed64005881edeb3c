"""Unit tests for the truncated Fock-space core and the reference state
vectors, squeezer and coherent amplitudes."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammaln

from sqherald import fockspace as fs
from sqherald import reference


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
    vac = reference.vacuum_state(tr)
    assert vac.amps[0] == 1.0
    assert np.all(vac.amps[1:] == 0.0)
    three = reference.fock_state(3, tr)
    assert three.amps[3] == 1.0
    assert three.norm_sq() == 1.0
    with pytest.raises(ValueError):
        reference.fock_state(8, tr)
    with pytest.raises(ValueError):
        reference.fock_state(-1, tr)


def test_state_amplitudes_are_frozen():
    st = reference.vacuum_state(fs.Truncation(4))
    with pytest.raises(ValueError):
        st.amps[0] = 0.5


def test_coherent_matches_poisson():
    alpha = 1.3
    tr = fs.Truncation(40)
    st = reference.coherent_amplitudes(alpha, tr)
    n = np.arange(tr.dim)
    poisson = np.exp(-alpha**2) * alpha ** (2 * n) / np.array(
        [math.factorial(int(k)) for k in n]
    )
    assert np.max(np.abs(st.photon_distribution() - poisson)) < 1e-12
    assert st.norm_sq() == pytest.approx(1.0, abs=1e-10)


def test_coherent_norm_at_stated_cutoff():
    st = reference.coherent_amplitudes(2.0, fs.Truncation(30))
    assert abs(st.norm_sq() - 1.0) < 1e-10


def test_coherent_truncation_error_when_cutoff_too_small():
    with pytest.raises(fs.TruncationError) as err:
        reference.coherent_amplitudes(4.0, fs.Truncation(12, tail_tol=1e-8))
    assert err.value.tail_mass > 1e-8


def test_ladder_operators():
    tr = fs.Truncation(12)
    a = reference.annihilation(tr)
    # canonical commutator away from the cutoff corner
    comm = a @ a.T - a.T @ a
    assert np.max(np.abs(comm[:-1, :-1] - np.eye(tr.dim)[:-1, :-1])) < 1e-12


def test_squeeze_matrix_identity_at_zero():
    tr = fs.Truncation(20)
    assert np.array_equal(reference.squeeze_matrix(0.0, tr), np.eye(20))


def test_squeeze_matrix_rejects_a_non_finite_parameter():
    with pytest.raises(fs.NumericalFailureError):
        reference.squeeze_matrix(float("nan"), fs.Truncation(8))


def test_log_factorials_match_scipy_gammaln():
    count = 16384
    table = fs.log_factorials(count)
    np.testing.assert_allclose(table, gammaln(np.arange(count) + 1.0), rtol=1e-14, atol=0.0)
    assert not table.flags.writeable
    assert fs.log_factorials(count) is table


def test_log_factorials_are_prefixes_of_one_table():
    # every count reads the same entries, bit for bit, however the table
    # has grown
    long = fs.log_factorials(3000)
    for count in (0, 1, 7, 64, 2999):
        short = fs.log_factorials(count)
        assert short.tobytes() == long[:count].tobytes()
        assert not short.flags.writeable
    grown = fs.log_factorials(5000)
    assert grown[:3000].tobytes() == long.tobytes()
    assert grown[4999] == math.lgamma(5000.0)


def test_log_factorials_refuse_a_table_past_their_limit():
    # a count past the limit is refused before anything is allocated or
    # computed, and the table already built is kept
    before = fs.log_factorials(100)
    with pytest.raises(ValueError, match="exceeds the limit"):
        fs.log_factorials(fs.LOG_FACTORIALS_LIMIT + 1)
    assert fs.log_factorials(100).tobytes() == before.tobytes()
    assert len(fs._LOG_FACTORIALS) <= fs.LOG_FACTORIALS_LIMIT


def test_cutoff_column_keeps_one_array_of_its_dims():
    column = fs.CutoffColumn((64, 160, 64, 96), 1e-3)
    dims = column.dims_array
    assert dims.tolist() == [64, 160, 64, 96] and not dims.flags.writeable
    assert column.dims_array is dims
    # built from an array, a column equals and hashes as the tuple's does
    same = fs.CutoffColumn.from_array(np.array([64, 160, 64, 96]), 1e-3)
    assert same == column and hash(same) == hash(column)
    assert all(type(d) is int for d in same.dims)
    scaled = column.scaled(1.5)
    assert scaled == fs.CutoffColumn((96, 240, 96, 144), 1e-3)
    assert all(type(d) is int for d in scaled.dims)
    assert fs.CutoffColumn((11,), 0.0).scaled(1.5).dims == (fs.Truncation(11).scaled(1.5).dim,)
    assert column.take([3, 1]) == fs.CutoffColumn((96, 160), 1e-3)
    assert column.take(np.array([], dtype=np.intp)).dims == ()
    assert fs.cutoff_column(fs.Truncation(48, 1e-6), 3) == fs.CutoffColumn((48,) * 3, 1e-6)


def test_expm_antisymmetric_matches_scipy_expm():
    # the oracle's generators: real antisymmetric tridiagonal, given by
    # their subdiagonal
    rng = np.random.default_rng(20261018)
    for dim in range(2, 65):
        lower = rng.normal(size=dim - 1)
        gen = np.diag(lower, k=-1) - np.diag(lower, k=1)
        gap = np.max(np.abs(reference.expm_antisymmetric(lower) - scipy.linalg.expm(gen)))
        assert gap <= 1e-13, (dim, gap)


def test_squeeze_matrix_matches_scipy_expm_of_its_generator():
    # exponentiated on its even and odd levels apart, against the full
    # generator (r/2)(a^2 - a^dag^2); at r = 3, dim 48 (generator norm
    # 117) scipy's own result departs from orthogonality by 6e-13, so the
    # gap is bounded at 1e-12 and orthogonality checked on its own
    for dim in (2, 3, 17, 48):
        a = reference.annihilation(fs.Truncation(dim))
        for r in (-1.3, 0.2, 0.725, 3.0):
            want = scipy.linalg.expm(0.5 * r * (a @ a - a.T @ a.T))
            got = reference.squeeze_matrix(r, fs.Truncation(dim))
            assert np.max(np.abs(got - want)) <= 1e-12, (dim, r)
            assert np.max(np.abs(got.T @ got - np.eye(dim))) <= 1e-14, (dim, r)


def test_squeeze_matrix_rejects_large_parameter():
    with pytest.raises(ValueError):
        reference.squeeze_matrix(3.2, fs.Truncation(32))


def test_squeeze_inverse_pair_on_lower_half():
    tr = fs.Truncation(60)
    prod = reference.squeeze_matrix(0.5, tr) @ reference.squeeze_matrix(-0.5, tr)
    half = tr.dim // 2
    gap = np.abs(prod[:half, :half] - np.eye(half))
    assert gap.max() < 1e-8


def test_squeeze_unitary_on_protected_subspace():
    tr = fs.Truncation(60)
    for r in (0.3, 0.725, 1.2):
        mat = reference.squeeze_matrix(r, tr)
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
    col = reference.squeeze_matrix(r, sixty)[:, 0]
    ref = reference.squeezed_vacuum(r, sixty)
    assert np.max(np.abs(col - ref.amps)) < 2e-7
    assert np.max(np.abs(col[:41] - ref.amps[:41])) < 1e-8
    assert np.max(np.abs(col**2 - ref.photon_distribution())) < 1e-8
    eighty = fs.Truncation(80)
    col80 = reference.squeeze_matrix(r, eighty)[:, 0]
    ref80 = reference.squeezed_vacuum(r, eighty)
    assert np.max(np.abs(col80 - ref80.amps)) < 1e-8


def test_inner_product_requires_matching_spaces():
    a = reference.vacuum_state(fs.Truncation(8))
    b = reference.vacuum_state(fs.Truncation(10))
    with pytest.raises(reference.TruncationMismatchError):
        reference.inner_product(a, b)
    joint = reference.tensor(a, a)
    with pytest.raises(TypeError):
        reference.inner_product(a, joint)


def test_opposite_coherent_states_are_numerically_orthogonal():
    tr = fs.Truncation(192)
    plus = reference.coherent_amplitudes(10.0, tr)
    minus = reference.coherent_amplitudes(-10.0, tr)
    overlap = reference.inner_product(plus, minus)
    # exact value exp(-200) is unreachable in floats; the sum cancels down
    # to ~1e-15 in amplitude, so ~1e-30 in probability
    assert abs(overlap) ** 2 < 1e-29


def test_tensor_product_amplitudes():
    tr = fs.Truncation(6)
    joint = reference.tensor(reference.fock_state(1, tr), reference.fock_state(4, tr))
    assert joint.amps[1, 4] == 1.0
    assert joint.norm_sq() == 1.0


def test_two_mode_state_distribution():
    tr = fs.Truncation(4)
    amps = np.zeros((4, 4), dtype=complex)
    amps[0, 0] = math.sqrt(0.25)
    amps[2, 1] = 1j * math.sqrt(0.75)
    st = reference.TwoModeState(amps, tr)
    dist = st.joint_distribution()
    assert dist[0, 0] == pytest.approx(0.25, abs=1e-15)
    assert dist[2, 1] == pytest.approx(0.75, abs=1e-15)
    assert st.norm_sq() == pytest.approx(1.0, abs=1e-15)
