"""Unit tests for the truncated Fock-space core and the reference state
vectors, squeezer, coherent amplitudes and log-factorial table."""

import importlib
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.special import gammaln

from sqherald import fockspace as fs
from sqherald import reference, sources

import oracles


def test_truncation_validation():
    with pytest.raises(ValueError):
        reference.Truncation(1)
    with pytest.raises(ValueError):
        reference.Truncation(16, tail_tol=1.0)
    with pytest.raises(ValueError):
        reference.Truncation(16, tail_tol=-0.1)
    tr = reference.Truncation(16, tail_tol=1e-6)
    assert tr.dim == 16
    assert tr.tail_tol == 1e-6


def test_truncation_scaled_rounds_up():
    tr = reference.Truncation(11)
    assert tr.scaled(1.5).dim == 17
    assert tr.scaled(1.5).tail_tol == tr.tail_tol
    assert tr.scaled(2.0).dim == 22


def test_default_truncation_tiers():
    assert reference.default_truncation(0.0).dim == 64
    assert reference.default_truncation(1.2).dim == 64
    assert reference.default_truncation(1.200001).dim == 160
    assert reference.default_truncation(2.0).dim == 160
    with pytest.raises(ValueError):
        reference.default_truncation(2.1)


def test_vacuum_and_fock_states():
    tr = reference.Truncation(8)
    vac = oracles.vacuum_state(tr)
    assert vac.amps[0] == 1.0
    assert np.all(vac.amps[1:] == 0.0)
    three = oracles.fock_state(3, tr)
    assert three.amps[3] == 1.0
    assert three.norm_sq() == 1.0
    with pytest.raises(ValueError):
        oracles.fock_state(8, tr)
    with pytest.raises(ValueError):
        oracles.fock_state(-1, tr)


def test_state_amplitudes_are_frozen():
    st = oracles.vacuum_state(reference.Truncation(4))
    with pytest.raises(ValueError):
        st.amps[0] = 0.5


def test_coherent_matches_poisson():
    alpha = 1.3
    tr = reference.Truncation(40)
    st = oracles.coherent_amplitudes(alpha, tr)
    n = np.arange(tr.dim)
    poisson = np.exp(-alpha**2) * alpha ** (2 * n) / np.array(
        [math.factorial(int(k)) for k in n]
    )
    assert np.max(np.abs(np.abs(st.amps) ** 2 - poisson)) < 1e-12
    assert st.norm_sq() == pytest.approx(1.0, abs=1e-10)


def test_coherent_norm_at_stated_cutoff():
    st = oracles.coherent_amplitudes(2.0, reference.Truncation(30))
    assert abs(st.norm_sq() - 1.0) < 1e-10


def test_coherent_truncation_error_when_cutoff_too_small():
    with pytest.raises(fs.TruncationError) as err:
        oracles.coherent_amplitudes(4.0, reference.Truncation(12, tail_tol=1e-8))
    assert err.value.tail_mass > 1e-8


def test_ladder_operators():
    tr = reference.Truncation(12)
    a = oracles.annihilation(tr)
    # canonical commutator away from the cutoff corner
    comm = a @ a.T - a.T @ a
    assert np.max(np.abs(comm[:-1, :-1] - np.eye(tr.dim)[:-1, :-1])) < 1e-12


def test_squeeze_matrix_identity_at_zero():
    tr = reference.Truncation(20)
    assert np.array_equal(oracles.squeeze_matrix(0.0, tr), np.eye(20))


def test_squeeze_matrix_rejects_a_non_finite_parameter():
    with pytest.raises(fs.NumericalFailureError):
        oracles.squeeze_matrix(float("nan"), reference.Truncation(8))


def test_log_factorials_match_scipy_gammaln():
    count = 16384
    table = reference.log_factorials(count)
    np.testing.assert_allclose(table, gammaln(np.arange(count) + 1.0), rtol=1e-14, atol=0.0)
    assert not table.flags.writeable
    assert len(table) == count


def test_log_factorials_are_prefixes_of_one_table():
    # every count reads the same entries, bit for bit, whatever was built
    # before it
    long = reference.log_factorials(3000)
    for count in (0, 1, 7, 64, 2999):
        short = reference.log_factorials(count)
        assert short.tobytes() == long[:count].tobytes()
        assert not short.flags.writeable
    grown = reference.log_factorials(5000)
    assert grown[:3000].tobytes() == long.tobytes()
    assert grown[4999] == math.lgamma(5000.0)


def test_log_factorials_refuse_a_table_past_their_limit(monkeypatch):
    # a count past the limit is refused before anything is allocated or
    # computed, and a table within it still builds
    before = reference.log_factorials(100)

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated past the limit")

    with monkeypatch.context() as patch:
        patch.setattr(np, "empty", no_allocation)
        with pytest.raises(ValueError, match="exceeds the limit"):
            reference.log_factorials(reference.LOG_FACTORIALS_LIMIT + 1)
    assert reference.log_factorials(100).tobytes() == before.tobytes()


def test_oracle_states_build_without_the_production_products(monkeypatch):
    # the oracle forms its pair magnitudes in log space over its own
    # log-factorial table, never from production's closed-form products
    def refuse(*args):
        raise AssertionError("the oracle called a production product helper")

    monkeypatch.setattr(sources, "_half_binomials", refuse)
    monkeypatch.setattr(sources, "_pair_products", refuse)
    trunc = reference.Truncation(64)
    for sign in (None, +1, -1):
        assert reference.pair_amplitudes(np.array([0.0, 0.725]), sign, trunc).shape == (2, 32)
    for state in (reference.squeezed_vacuum(0.725, trunc), reference.squeezed_cat(0.725, +1, trunc),
                  reference.squeezed_cat(0.725, -1, trunc)):
        assert abs(reference.split(state).norm_sq() - 1.0) < 1e-9


def test_cutoff_column_keeps_one_array_of_its_dims():
    given = np.array([64, 160, 64, 96])
    column = fs.CutoffColumn(given, 1e-3)
    # one read-only np.intp copy: the caller's array stays its own
    assert column.dims.dtype == np.intp and not column.dims.flags.writeable
    assert column.dims.tolist() == [64, 160, 64, 96] and given.flags.writeable
    with pytest.raises(ValueError):
        column.dims[0] = 1
    assert fs.CutoffColumn((64, 160, 64, 96), 1e-3).dims.tolist() == column.dims.tolist()
    assert column.dim == 160 and type(column.dim) is int
    scaled = column.scaled(1.5)
    assert scaled.dims.tolist() == [96, 240, 96, 144] and scaled.tail_tol == 1e-3
    assert not scaled.dims.flags.writeable
    # 1.5x rounds up, as the oracles' Truncation.scaled does
    assert fs.CutoffColumn((11,), 0.0).scaled(1.5).dims.tolist() == [17]
    taken = column.take([3, 1])
    assert taken.dims.tolist() == [96, 160] and not taken.dims.flags.writeable
    assert column.take(np.array([], dtype=np.intp)).dims.tolist() == []


def test_cutoff_column_refuses_what_no_cutoff_can_keep():
    for dims in ((1,), (64, 1, 64), (0,)):
        with pytest.raises(ValueError, match="dim must be at least 2"):
            fs.CutoffColumn(dims, 1e-3)
    for tail_tol in (1.0, -0.1, math.nan):
        with pytest.raises(ValueError, match=r"tail_tol must lie in \[0, 1\)"):
            fs.CutoffColumn((64,), tail_tol)
    edge = fs.CutoffColumn((2, 64), 0.0)
    assert edge.dims.tolist() == [2, 64] and edge.tail_tol == 0.0


PRODUCTION_MODULES = ("fockspace", "sources", "optics", "detect", "kerr", "analysis",
                      "registry", "cli")


def test_production_has_one_cutoff_type():
    # the oracles' Truncation and DEFAULT_TAIL_TOL live in reference alone;
    # production names neither, nor the helpers that took a Truncation
    import sqherald

    for name in PRODUCTION_MODULES:
        module = importlib.import_module(f"sqherald.{name}")
        assert not hasattr(module, "Truncation"), name
        assert not hasattr(module, "DEFAULT_TAIL_TOL"), name
    for gone in ("Truncation", "DEFAULT_TAIL_TOL", "gaussian_averaged_ratio"):
        assert not hasattr(sqherald, gone) and gone not in sqherald.__all__
    kerr = importlib.import_module("sqherald.kerr")
    assert not hasattr(kerr, "series_truncation")
    assert not hasattr(kerr, "gaussian_averaged_ratio")
    assert not hasattr(fs, "cutoff_column")
    assert not hasattr(fs.CutoffColumn, "from_array")
    assert not hasattr(fs.CutoffColumn, "dims_array")
    assert reference.Truncation(8).tail_tol == reference.DEFAULT_TAIL_TOL


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
        a = oracles.annihilation(reference.Truncation(dim))
        for r in (-1.3, 0.2, 0.725, 3.0):
            want = scipy.linalg.expm(0.5 * r * (a @ a - a.T @ a.T))
            got = oracles.squeeze_matrix(r, reference.Truncation(dim))
            assert np.max(np.abs(got - want)) <= 1e-12, (dim, r)
            assert np.max(np.abs(got.T @ got - np.eye(dim))) <= 1e-14, (dim, r)


def test_squeeze_matrix_rejects_large_parameter():
    with pytest.raises(ValueError):
        oracles.squeeze_matrix(3.2, reference.Truncation(32))


def test_squeeze_inverse_pair_on_lower_half():
    tr = reference.Truncation(60)
    prod = oracles.squeeze_matrix(0.5, tr) @ oracles.squeeze_matrix(-0.5, tr)
    half = tr.dim // 2
    gap = np.abs(prod[:half, :half] - np.eye(half))
    assert gap.max() < 1e-8


def test_squeeze_unitary_on_protected_subspace():
    tr = reference.Truncation(60)
    for r in (0.3, 0.725, 1.2):
        mat = oracles.squeeze_matrix(r, tr)
        gram = mat.T @ mat - np.eye(tr.dim)
        protected = tr.dim - int(4 * max(1.0, r * tr.dim / 3.0))
        if protected > 0:
            assert np.abs(gram[:protected, :protected]).max() < 1e-8


def test_squeeze_vacuum_column_matches_closed_form():
    # Boundary reflection off the cutoff scales like 0.3 tanh(r)^(dim/2):
    # the top entries at dim 60 carry a ~1e-7 artifact, so the strict
    # entrywise match is asserted where the construction can deliver it.
    r = 0.725
    sixty = reference.Truncation(60)
    col = oracles.squeeze_matrix(r, sixty)[:, 0]
    ref = reference.squeezed_vacuum(r, sixty)
    assert np.max(np.abs(col - ref.amps)) < 2e-7
    assert np.max(np.abs(col[:41] - ref.amps[:41])) < 1e-8
    assert np.max(np.abs(col**2 - np.abs(ref.amps) ** 2)) < 1e-8
    eighty = reference.Truncation(80)
    col80 = oracles.squeeze_matrix(r, eighty)[:, 0]
    ref80 = reference.squeezed_vacuum(r, eighty)
    assert np.max(np.abs(col80 - ref80.amps)) < 1e-8


def test_inner_product_requires_matching_spaces():
    a = oracles.vacuum_state(reference.Truncation(8))
    b = oracles.vacuum_state(reference.Truncation(10))
    with pytest.raises(oracles.TruncationMismatchError):
        oracles.inner_product(a, b)
    joint = oracles.tensor(a, a)
    with pytest.raises(TypeError):
        oracles.inner_product(a, joint)


def test_opposite_coherent_states_are_numerically_orthogonal():
    tr = reference.Truncation(192)
    plus = oracles.coherent_amplitudes(10.0, tr)
    minus = oracles.coherent_amplitudes(-10.0, tr)
    overlap = oracles.inner_product(plus, minus)
    # exact value exp(-200) is unreachable in floats; the sum cancels down
    # to ~1e-15 in amplitude, so ~1e-30 in probability
    assert abs(overlap) ** 2 < 1e-29


def test_tensor_product_amplitudes():
    tr = reference.Truncation(6)
    joint = oracles.tensor(oracles.fock_state(1, tr), oracles.fock_state(4, tr))
    assert joint.amps[1, 4] == 1.0
    assert joint.norm_sq() == 1.0


def test_two_mode_state_distribution():
    tr = reference.Truncation(4)
    amps = np.zeros((4, 4), dtype=complex)
    amps[0, 0] = math.sqrt(0.25)
    amps[2, 1] = 1j * math.sqrt(0.75)
    st = reference.TwoModeState(amps, tr)
    dist = st.joint_distribution()
    assert dist[0, 0] == pytest.approx(0.25, abs=1e-15)
    assert dist[2, 1] == pytest.approx(0.75, abs=1e-15)
    assert st.norm_sq() == pytest.approx(1.0, abs=1e-15)
