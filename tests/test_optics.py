"""Unit tests for the balanced beam splitter: the reference splitter paths
and the pair statistics read from them."""

import math

import numpy as np
import pytest
import scipy.linalg

from sqherald import fockspace as fs
from sqherald import optics, reference, verification

import oracles


def binomial_column(total: int) -> np.ndarray:
    """Closed-form splitter output for |total, 0>: the amplitude on
    |k, total-k> is (-1)^(total-k) sqrt(C(total, k)) / 2^(total/2)."""
    out = np.zeros(total + 1)
    for k in range(total + 1):
        out[k] = (-1) ** (total - k) * math.sqrt(
            math.comb(total, k) / 2.0**total
        )
    return out


def test_split_fock_states_match_binomial_closed_form():
    trunc = reference.Truncation(12)
    for total in (0, 1, 2, 3, 5, 8):
        st = reference.split(oracles.fock_state(total, trunc))
        assert np.max(np.abs(st.amps.imag)) == 0.0
        block = np.array(
            [st.amps[na, total - na].real for na in range(total + 1)]
        )
        assert np.max(np.abs(block - binomial_column(total))) < 1e-14


def test_split_two_photon_example():
    st = reference.split(oracles.fock_state(2, reference.Truncation(8)))
    assert st.amps[2, 0].real == pytest.approx(0.5, abs=1e-14)
    assert st.amps[0, 2].real == pytest.approx(0.5, abs=1e-14)
    assert st.amps[1, 1].real == pytest.approx(-1.0 / math.sqrt(2.0), abs=1e-14)
    dist = st.joint_distribution()
    assert dist[2, 0] == pytest.approx(0.25, abs=1e-14)
    assert dist[1, 1] == pytest.approx(0.5, abs=1e-14)


def test_split_vacuum_is_identity():
    st = reference.split(oracles.vacuum_state(reference.Truncation(6)))
    assert st.amps[0, 0] == 1.0
    assert st.norm_sq() == 1.0


def test_blocks_are_orthogonal():
    blocks = reference._blocks(24)
    for total in range(23):
        block = blocks[total]
        gram = block.T @ block - np.eye(total + 1)
        assert np.max(np.abs(gram)) < 1e-10


@pytest.mark.parametrize("dim", [24, 64, 160, 240])
def test_closed_form_split_matches_expm_blocks(dim):
    trunc = reference.Truncation(dim)
    rng = np.random.default_rng(dim)
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.linalg.norm(amps)
    st = reference.SingleModeState(amps, trunc)
    closed = reference.split(st)
    oracle = reference.apply_beam_splitter(oracles.tensor(st, oracles.vacuum_state(trunc)))
    assert np.max(np.abs(closed.amps - oracle.amps)) <= 1e-13


def test_split_builds_no_expm_blocks(monkeypatch):
    def no_expm(lower):
        raise AssertionError("split built an exponentiated block")

    monkeypatch.setattr(reference, "expm_antisymmetric", no_expm)
    out = reference.split(oracles.fock_state(3, reference.Truncation(37)))
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-14)


def test_total_photon_number_is_conserved():
    trunc = reference.Truncation(24)
    rng = np.random.default_rng(20260814)
    amps = rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)
    amps /= np.linalg.norm(amps)
    st = reference.SingleModeState(amps, trunc)
    out = reference.split(st)
    dist = out.joint_distribution()
    totals = np.add.outer(np.arange(trunc.dim), np.arange(trunc.dim))
    for total in range(trunc.dim):
        block_mass = dist[totals == total].sum()
        assert abs(block_mass - abs(amps[total]) ** 2) < 1e-14


def test_split_output_is_symmetric_in_probability():
    st = reference.split(reference.squeezed_vacuum(0.725, reference.Truncation(48)))
    dist = st.joint_distribution()
    assert np.max(np.abs(dist - dist.T)) < 1e-16


def test_parity_selection_rules():
    trunc = reference.Truncation(48)
    totals = np.add.outer(np.arange(trunc.dim), np.arange(trunc.dim))
    minus = reference.split(reference.squeezed_cat(0.725, -1, trunc))
    assert np.max(np.abs(minus.amps[totals % 4 != 2])) < 1e-14
    plus = reference.split(reference.squeezed_cat(0.725, +1, trunc))
    assert np.max(np.abs(plus.amps[totals % 4 != 0])) < 1e-14


def test_joint_probability_benchmark_values():
    trunc = reference.Truncation(64)
    minus = reference.joint_probability(
        reference.split(reference.squeezed_cat(0.725, -1, trunc))
    )
    assert minus.p[1, 1] == pytest.approx(0.453, abs=5e-4)
    assert minus.p[1, 5] == pytest.approx(7.85e-3, abs=5e-5)
    for nb in (0, 2, 3, 4):
        assert minus.p[1, nb] < 1e-12
    squeezed = reference.joint_probability(
        reference.split(reference.squeezed_vacuum(0.725, trunc))
    )
    assert squeezed.p[1, 1] == pytest.approx(7.54e-2, abs=5e-5)


def test_conditional_single_photon_benchmark_values():
    trunc = reference.Truncation(64)

    def conditional(state):
        return reference.single_photon_fraction(
            reference.joint_probability(reference.split(state)).p[1]
        )

    assert conditional(reference.squeezed_cat(0.725, -1, trunc)) == pytest.approx(
        0.983, abs=5e-4
    )
    assert conditional(reference.squeezed_vacuum(0.725, trunc)) == pytest.approx(
        0.859, abs=5e-4
    )
    assert conditional(reference.squeezed_cat(1.146, -1, trunc)) == pytest.approx(
        0.9488, abs=5e-4
    )


def test_minus_cat_pair_probability_approaches_half():
    trunc = reference.Truncation(32)
    dist = reference.joint_probability(
        reference.split(reference.squeezed_cat(0.01, -1, trunc))
    )
    assert dist.p[1, 1] == pytest.approx(0.5, abs=1e-3)


def test_conditional_raises_on_empty_herald_row():
    dist = reference.joint_probability(
        reference.split(oracles.vacuum_state(reference.Truncation(16)))
    )
    with pytest.raises(optics.ZeroHeraldError):
        reference.single_photon_fraction(dist.p[1])


def test_joint_distribution_deficit_accounting():
    trunc = reference.Truncation(16)
    dist = reference.joint_probability(reference.split(oracles.fock_state(3, trunc)))
    assert abs(dist.p.sum() + dist.deficit - 1.0) < 1e-12
    lossy = np.zeros((16, 16), dtype=complex)
    lossy[0, 0] = math.sqrt(0.7)
    with pytest.raises(fs.TruncationError):
        reference.joint_probability(reference.TwoModeState(lossy, trunc))


def test_tmss_joint_probability_form():
    trunc = reference.Truncation(64)
    dist = reference.tmss_joint_probability(0.881, trunc)
    assert dist.p[1, 1] == pytest.approx(0.25, abs=1e-6)
    off = dist.p - np.diag(np.diag(dist.p))
    assert off.sum() < 1e-14
    row1 = dist.p[1, :]
    assert row1[1] > 0.0
    assert np.max(np.abs(np.delete(row1, 1))) == 0.0
    assert reference.single_photon_fraction(dist.p[1]) == 1.0
    trivial = reference.tmss_joint_probability(0.0, reference.Truncation(8))
    assert trivial.p[0, 0] == 1.0


def test_pair_dominance_over_benchmark_on_spot_grid():
    for r in np.linspace(0.05, 2.0, 25):
        trunc = reference.default_truncation(float(r))
        minus = reference.joint_probability(
            reference.split(reference.squeezed_cat(float(r), -1, trunc))
        )
        tmss = reference.tmss_joint_probability(float(r), trunc)
        assert minus.p[1, 1] > tmss.p[1, 1]
        squeezed = reference.joint_probability(
            reference.split(reference.squeezed_vacuum(float(r), trunc))
        )
        assert reference.single_photon_fraction(minus.p[1]) >= reference.single_photon_fraction(
            squeezed.p[1]
        )


def test_decomposition_path_agrees_with_direct_unitary():
    r = 0.725
    trunc = reference.Truncation(48)
    direct = reference.split(reference.squeezed_vacuum(r, trunc))
    decomposed = reference.split_via_squeezer_decomposition(r, trunc)
    prob_gap = np.abs(
        decomposed.joint_distribution() - direct.joint_distribution()
    )
    assert prob_gap.max() < 1e-8
    totals = np.add.outer(np.arange(trunc.dim), np.arange(trunc.dim))
    low = totals < trunc.dim // 2
    amp_gap = np.abs(decomposed.amps - direct.amps)
    assert amp_gap[low].max() < 1e-12


def test_two_mode_squeeze_reproduces_schmidt_diagonal():
    r = 0.9
    trunc = reference.Truncation(48)
    evolved = oracles.tmss_schmidt_check(r, trunc)
    target = reference.two_mode_squeezed_vacuum(r, trunc)
    gap = np.abs(evolved.joint_distribution() - target.joint_distribution())
    assert gap.max() < 1e-10


def test_two_mode_squeeze_matches_dense_expm():
    # the full generator ab - a^dag b^dag on the flattened dim x dim grid
    dim, s = 7, 0.4
    gen = np.zeros((dim * dim, dim * dim))
    for na in range(1, dim):
        for nb in range(1, dim):
            src, dst = na * dim + nb, (na - 1) * dim + nb - 1
            gen[dst, src] = math.sqrt(na * nb)
            gen[src, dst] = -math.sqrt(na * nb)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    # an empty diagonal n_a - n_b = 2 must stay empty
    rows = np.arange(2, dim)
    amps[rows, rows - 2] = 0.0
    want = (scipy.linalg.expm(s * gen) @ amps.ravel()).reshape(dim, dim)
    got = reference.two_mode_squeeze_apply(s, reference.TwoModeState(amps, reference.Truncation(dim))).amps
    assert np.max(np.abs(got - want)) <= 1e-13
    assert not np.any(got[rows, rows - 2])


def test_opposite_squeezers_through_splitter_give_tmss_probabilities():
    r = 0.9
    trunc = reference.Truncation(64)
    product = oracles.tensor(
        reference.squeezed_vacuum(r, trunc), reference.squeezed_vacuum(-r, trunc)
    )
    out = reference.apply_beam_splitter(product)
    window = 28
    target = reference.two_mode_squeezed_vacuum(r, trunc)
    gap = np.abs(
        out.joint_distribution()[:window, :window]
        - target.joint_distribution()[:window, :window]
    )
    assert gap.max() < 1e-12


def test_split_requires_normalized_input():
    trunc = reference.Truncation(8)
    bad = reference.SingleModeState(np.full(8, 0.1, dtype=complex), trunc)
    with pytest.raises(ValueError):
        reference.split(bad)


def test_criterion_11_flags_a_corrupted_splitter_block(monkeypatch):
    # the deterministic dense state of the per-block check populates every
    # block, so a block that is no longer orthogonal moves its mass
    exact = reference._blocks

    def corrupted(dim):
        blocks = exact(dim)
        blocks[5] = 1.01 * blocks[5]
        return blocks

    assert verification.criterion_11(verification.VerifyConfig()).passed
    monkeypatch.setattr(reference, "_blocks", corrupted)
    result = verification.criterion_11(verification.VerifyConfig())
    assert not result.passed
    moved = float(result.detail.split("per-block mass conserved: ")[1].split(" (margin")[0])
    assert moved > 1e-12
