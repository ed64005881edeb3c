"""Unit tests for the source-state constructors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from sqherald import fockspace as fs
from sqherald import reference, sources


def test_squeezing_db():
    assert sources.squeezing_db(0.725) == pytest.approx(6.2977, abs=5e-4)
    assert sources.squeezing_db(0.0) == 0.0


def test_squeezed_vacuum_closed_form_leading_entries():
    r = 0.725
    st = reference.squeezed_vacuum(r, fs.Truncation(64))
    assert st.amps[0] == pytest.approx(1.0 / math.sqrt(math.cosh(r)), abs=1e-14)
    expected_2 = -math.tanh(r) / (math.sqrt(2.0) * math.sqrt(math.cosh(r)))
    assert st.amps[2] == pytest.approx(expected_2, abs=1e-14)
    # general term: sqrt((2n)!)/(2^n n!) (-tanh r)^n / sqrt(cosh r)
    for n in (3, 7, 15):
        expected = (
            math.sqrt(math.factorial(2 * n))
            / (2**n * math.factorial(n))
            * (-math.tanh(r)) ** n
            / math.sqrt(math.cosh(r))
        )
        assert st.amps[2 * n] == pytest.approx(expected, rel=1e-12)


def test_squeezed_vacuum_parity_and_norm():
    # the norm deficit is exactly the tail mass, so it is bounded by the
    # truncation tolerance; small r at dim 64 is tight to machine precision
    for r, bound in ((0.2, 1e-12), (-0.8, 1e-12), (1.9, 1e-3)):
        trunc = fs.default_truncation(abs(r))
        st = reference.squeezed_vacuum(r, trunc)
        assert np.all(st.amps[1::2] == 0.0)
        assert abs(st.norm_sq() - 1.0) < bound
    assert np.array_equal(
        reference.squeezed_vacuum(0.0, fs.Truncation(16)).amps,
        reference.vacuum_state(fs.Truncation(16)).amps,
    )


def test_negative_r_flips_all_signs_positive():
    st = reference.squeezed_vacuum(-0.9, fs.Truncation(64))
    assert np.all(st.amps[::2] > 0.0)


def test_squeezed_vacuum_insufficient_cutoff():
    with pytest.raises(fs.TruncationError) as err:
        reference.squeezed_vacuum(1.2, fs.Truncation(8, tail_tol=1e-6))
    assert err.value.tail_mass > 1e-6


def test_converged_dim_meets_requested_tail():
    for r, tol in ((0.725, 1e-8), (1.5, 1e-10), (2.0, 1e-11)):
        dim = sources.converged_dim(r, tol)
        st = reference.squeezed_vacuum(r, fs.Truncation(dim, tail_tol=tol))
        assert abs(st.norm_sq() - 1.0) <= tol
        assert sources.converged_dim(r, tol * 100.0) <= dim


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rs=hst.lists(hst.floats(0.0, 3.0), min_size=1, max_size=6),
       tail_tol=hst.floats(1e-13, 1e-3))
def test_converged_dim_of_an_array_is_one_call_per_r(rs, tail_tol):
    dims = sources.converged_dim(np.array(rs), tail_tol)
    assert dims.tolist() == [sources.converged_dim(r, tail_tol) for r in rs]


# r = 0, where the odd branch is its limit |2>, and squeezings whose tails
# fit some of the drawn cutoffs and not others
COLUMN_RS = hst.sampled_from([0.0, 1e-100, 1e-7, 0.05, 0.725, 1.2, 2.0]) | hst.floats(0.0, 2.0)


def _one_row(fn, r, sign, dim, tail_tol):
    """fn at one r and cutoff: its row, or the TruncationError it raises."""
    try:
        return fn(np.array([r]), sign, fs.Truncation(dim, tail_tol))[0][0]
    except fs.TruncationError as exc:
        return exc


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(points=hst.lists(hst.tuples(COLUMN_RS, hst.integers(2, 300)), min_size=1, max_size=6),
       sign=hst.sampled_from([None, -1, +1]),
       tail_tol=hst.sampled_from([0.9, 1e-3, 1e-9]))
def test_cutoff_column_builds_equal_one_call_per_row(points, sign, tail_tol):
    # one build at the widest dim, each row tail-checked at its own: the
    # same rows, 0 past each row's own cutoff, and the same first error
    rs = np.array([r for r, _ in points])
    column = fs.CutoffColumn(tuple(dim for _, dim in points), tail_tol)
    fn = sources.pair_amplitudes
    rows = [_one_row(fn, r, sign, dim, tail_tol) for r, dim in points]
    failed = [row for row in rows if isinstance(row, fs.TruncationError)]
    if failed:
        with pytest.raises(fs.TruncationError) as info:
            fn(rs, sign, column)
        assert str(info.value) == str(failed[0])
        assert info.value.tail_mass == failed[0].tail_mass
        return
    (built,) = fn(rs, sign, column)
    assert built.shape == (len(points), (column.dim + 1) // 2)
    for row, one, (_, dim) in zip(built, rows, points):
        assert np.array_equal(row[:(dim + 1) // 2], one)
        assert not np.any(row[(dim + 1) // 2:])


def test_cutoff_column_names_its_first_failing_row():
    # rows 1 and 2 both leave too much of the state past their cutoffs;
    # the column raises row 1's error, as its own call does
    rs = np.array([0.3, 2.0, 1.5])
    column = fs.CutoffColumn((64, 16, 8), 1e-6)
    for sign in (None, -1):
        with pytest.raises(fs.TruncationError) as info:
            sources.pair_amplitudes(rs, sign, column)
        alone = _one_row(sources.pair_amplitudes, 2.0, sign, 16, 1e-6)
        assert "at r = 2.0" in str(info.value) and "dim = 16" in str(info.value)
        assert str(info.value) == str(alone)
        assert info.value.tail_mass == alone.tail_mass


# one cutoff of a pair: a Truncation, or a CutoffColumn over the points
CUTOFFS = hst.one_of(hst.integers(2, 300).map(fs.Truncation),
                     hst.lists(hst.integers(2, 300), min_size=3, max_size=3).map(tuple))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rs=hst.lists(COLUMN_RS, min_size=3, max_size=3),
       cutoffs=hst.lists(CUTOFFS, min_size=1, max_size=3),
       sign=hst.sampled_from([None, -1, +1]),
       tail_tol=hst.sampled_from([0.9, 1e-3, 1e-9]))
def test_cutoffs_built_together_equal_one_call_each(rs, cutoffs, sign, tail_tol):
    # one build at the widest dim: each cutoff's rows are those of its own
    # call, and the first cutoff that fails raises its own call's error
    rs = np.array(rs)
    cutoffs = [fs.Truncation(c.dim, tail_tol) if isinstance(c, fs.Truncation)
               else fs.CutoffColumn(c, tail_tol) for c in cutoffs]
    fn = sources.pair_amplitudes
    alone = []
    for c in cutoffs:
        try:
            alone.append(fn(rs, sign, c)[0])
        except fs.TruncationError as exc:
            with pytest.raises(fs.TruncationError) as info:
                fn(rs, sign, *cutoffs)
            assert str(info.value) == str(exc)
            assert info.value.tail_mass == exc.tail_mass
            return
    together = fn(rs, sign, *cutoffs)
    assert len(together) == len(cutoffs)
    for rows, one in zip(together, alone):
        assert rows.shape == one.shape
        assert np.array_equal(rows, one)
    assert not any(rows.flags.writeable for rows, c in zip(together, cutoffs)
                   if isinstance(c, fs.Truncation))


def test_one_build_gives_vacuum_and_superposition():
    # the vacuum magnitudes of the odd build are those of a vacuum build,
    # bit for bit, and its checks are the odd build's
    rs = np.array([0.0, 1e-7, 0.725, 2.0])
    for cutoff in (fs.Truncation(200), fs.CutoffColumn((40, 64, 96, 200), 1e-3)):
        for sign in (-1, +1):
            ((vacuum, mag),) = sources.pair_amplitudes(rs, sign, cutoff, vacuum=True)
            assert np.array_equal(vacuum, sources.pair_amplitudes(rs, None, cutoff)[0])
            assert np.array_equal(mag, sources.pair_amplitudes(rs, sign, cutoff)[0])
    column = fs.CutoffColumn((64, 64, 16, 64), 1e-6)
    with pytest.raises(fs.TruncationError) as info:
        sources.pair_amplitudes(rs, -1, column, vacuum=True)
    with pytest.raises(fs.TruncationError) as alone:
        sources.pair_amplitudes(rs, -1, column)
    assert str(info.value) == str(alone.value)


def test_cat_norm_closed_form():
    assert sources.cat_norm(0.0, +1) == 4.0
    assert sources.cat_norm(0.0, -1) == 0.0
    r = 0.725
    expected = 2.0 * (
        1.0 - 1.0 / (math.cosh(r) * math.sqrt(1.0 + math.tanh(r) ** 2))
    )
    assert sources.cat_norm(r, -1) == pytest.approx(expected, abs=1e-15)
    assert sources.cat_norm(r, -1) / 4.0 == pytest.approx(0.167, abs=5e-4)
    assert sources.cat_norm(r, +1) / 4.0 == pytest.approx(0.833, abs=5e-4)


def test_odd_branch_keeps_its_precision_as_r_vanishes():
    # N_- = 2 (1 - 1/sqrt(cosh 2r)) = 2 r^2 - 7 r^4 / 3 + O(r^6): the direct
    # difference cancels to noise below r ~ 1e-8, the evaluated form does not
    for r in (1e-4, 1e-8, 1e-100):
        series = 2.0 * r * r - 7.0 * r**4 / 3.0
        assert sources.cat_norm(r, -1) == pytest.approx(series, rel=1e-14)
    for r in (1e-8, 1e-300, 5e-324):
        st = reference.squeezed_cat(r, -1, fs.Truncation(16))
        assert st.photon_distribution()[2] == pytest.approx(1.0, abs=1e-12)


def test_cat_norms_sum_to_four():
    for r in np.linspace(0.0, 2.0, 21):
        total = sources.cat_norm(float(r), +1) + sources.cat_norm(float(r), -1)
        assert abs(total - 4.0) < 1e-12


def test_minus_branch_weight_increases_toward_half():
    # the closed form tends to 1/2 as r grows; the validated domain stops
    # at |r| = 3, where the weight has climbed to ~0.465
    rs = np.linspace(0.0, 3.0, 61)
    weights = [sources.cat_norm(float(r), -1) / 4.0 for r in rs]
    assert all(b > a for a, b in zip(weights, weights[1:]))
    assert 0.46 < weights[-1] < 0.5
    with pytest.raises(ValueError):
        sources.cat_norm(3.5, -1)


def test_cat_norm_matches_inner_product_construction():
    r = 0.9
    trunc = fs.Truncation(96)
    plus = reference.squeezed_vacuum(r, trunc)
    minus = reference.squeezed_vacuum(-r, trunc)
    overlap = reference.inner_product(plus, minus).real
    for sign in (+1, -1):
        direct = 2.0 * (1.0 + sign * overlap)
        assert abs(direct - sources.cat_norm(r, sign)) < 1e-10


def test_squeezed_cat_support_and_norm():
    trunc = fs.Truncation(64)
    minus = reference.squeezed_cat(0.725, -1, trunc)
    plus = reference.squeezed_cat(0.725, +1, trunc)
    n = np.arange(trunc.dim)
    assert np.max(np.abs(minus.amps[n % 4 != 2])) < 1e-14
    assert np.max(np.abs(plus.amps[n % 4 != 0])) < 1e-14
    assert abs(minus.norm_sq() - 1.0) < 1e-10
    assert abs(plus.norm_sq() - 1.0) < 1e-10


def test_squeezed_cat_degenerate_and_trivial_limits():
    trunc = fs.Truncation(16)
    with pytest.raises(reference.DegenerateStateError):
        reference.squeezed_cat(0.0, -1, trunc)
    assert np.array_equal(
        reference.squeezed_cat(0.0, +1, trunc).amps, reference.vacuum_state(trunc).amps
    )


def test_minus_cat_approaches_two_photon_state():
    st = reference.squeezed_cat(1e-3, -1, fs.Truncation(32))
    assert abs(st.amps[2]) == pytest.approx(1.0, abs=1e-5)
    assert st.photon_distribution()[2] == pytest.approx(1.0, abs=1e-6)


def test_superposition_reconstructs_squeezed_vacuum():
    r = 0.725
    trunc = fs.Truncation(64)
    plus = reference.squeezed_cat(r, +1, trunc)
    minus = reference.squeezed_cat(r, -1, trunc)
    rebuilt = (
        math.sqrt(sources.cat_norm(r, +1) / 4.0) * plus.amps
        + math.sqrt(sources.cat_norm(r, -1) / 4.0) * minus.amps
    )
    target = reference.squeezed_vacuum(r, trunc).amps
    assert np.max(np.abs(rebuilt - target)) < 1e-10


def test_herald_probability_values():
    assert sources.herald_probability(0.725, -1) == pytest.approx(0.167, abs=5e-4)
    assert sources.herald_probability(0.0, -1) == 0.0
    assert sources.herald_probability(0.725, -1) == sources.cat_norm(0.725, -1) / 4.0


def test_two_mode_squeezed_vacuum_schmidt_form():
    r = 0.881
    trunc = fs.Truncation(64)
    st = reference.two_mode_squeezed_vacuum(r, trunc)
    dist = st.joint_distribution()
    off_diag = dist - np.diag(np.diag(dist))
    assert off_diag.sum() < 1e-14
    expected = np.tanh(r) ** (2 * np.arange(trunc.dim)) / math.cosh(r) ** 2
    assert np.max(np.abs(np.diag(dist) - expected)) < 1e-14
    assert dist[1, 1] == pytest.approx(0.25, abs=1e-6)


def test_two_mode_squeezed_vacuum_at_half():
    st = reference.two_mode_squeezed_vacuum(0.5, fs.Truncation(48))
    expected = (math.tanh(0.5) / math.cosh(0.5)) ** 2
    assert st.joint_distribution()[1, 1] == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.168, abs=5e-4)


def test_two_mode_squeezed_vacuum_trivial_limit():
    st = reference.two_mode_squeezed_vacuum(0.0, fs.Truncation(8))
    assert st.amps[0, 0] == 1.0
    assert st.norm_sq() == 1.0
