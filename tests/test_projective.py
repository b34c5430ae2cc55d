"""Subspace arithmetic and osculating flags."""

import numpy as np
import pytest

from osculant.curves import build_model
from osculant.errors import DegeneracyError
from osculant.projective import (ProjPoint, Subspace, circular_clusters, circular_gap,
                                 complement, fold, merge_moments, normalize,
                                 osculating_frame, osculating_hyperplane,
                                 osculating_intersection, osculating_subspace,
                                 same_subspace, separated_moments)


def test_normalize_scales_and_rejects_zero():
    p = normalize([3.0, 4.0, 0.0])
    assert np.isclose(np.linalg.norm(p.coords), 1.0)
    with pytest.raises(ValueError):
        normalize([0.0, 0.0, 0.0])


def test_normalize_rescales_points_whose_norm_over_or_underflows():
    for v, twin in (([1e308, 1e308, 1.0], [1.0, 1.0, 1e-308]),
                    ([1e-200] * 3, [1.0] * 3)):
        p = normalize(v)
        assert np.linalg.norm(p.coords) == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(p.coords, normalize(twin).coords, rtol=0, atol=1e-15)


def test_points_and_membership_read_extreme_points_like_their_twins(rng):
    # ProjPoint and Subspace.contains read points through point_vector, so a
    # vector whose norm under- or overflows is the point of its rescaled twin
    plane = Subspace.from_vectors([[10.0, 2.0, 1.0], [1.0, 1.0, 0.0]])
    other = Subspace.from_vectors([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for v, twin in (([1e-310, 2e-311, 1e-311], [10.0, 2.0, 1.0]),
                    ([1e308, 1e308, 1.0], [1.0, 1.0, 1e-308])):
        p = ProjPoint(np.array(v))
        assert 0.0 < np.linalg.norm(p.coords) < np.inf
        assert np.allclose(normalize(p).coords, normalize(twin).coords,
                           rtol=0, atol=1e-11)
        assert Subspace.full(2).contains(v)
        assert plane.contains(v) and plane.contains(twin)
        assert not other.contains(v) and not other.contains(twin)
    # ordinary points keep their bits
    for v in rng.standard_normal((50, 4)) * 10.0 ** rng.integers(-8, 9, (50, 1)):
        assert np.array_equal(ProjPoint(v).coords, v)
    with pytest.raises(ValueError, match="two entries"):
        ProjPoint(np.array([1.0]))
    with pytest.raises(ValueError, match="zero vector"):
        ProjPoint(np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        Subspace.full(2).contains([np.nan, 1.0, 0.0])


def test_subspace_contains_its_spanners(rng):
    vecs = rng.standard_normal((3, 6))
    s = Subspace.from_vectors(vecs)
    assert s.dim == 2
    for v in vecs:
        assert s.contains(v)
    assert not s.contains(rng.standard_normal(6))


def test_annihilator_is_orthogonal_complement(rng):
    vecs = rng.standard_normal((2, 5))
    s = Subspace.from_vectors(vecs)
    ann = s.annihilator()
    assert ann.shape == (3, 5)
    assert np.max(np.abs(ann @ vecs.T)) < 1e-12


def test_complement_of_a_covector_and_of_nothing(rng):
    w = rng.standard_normal(5)
    frame = complement(w)
    assert frame.shape == (4, 5)
    assert np.abs(frame @ frame.T - np.eye(4)).max() < 1e-12
    assert np.abs(frame @ w).max() < 1e-12
    assert np.array_equal(Subspace.empty(3).annihilator(), np.eye(4))


def test_stacked_frames_give_the_osculating_bases_bit_for_bit(trig, rational):
    # the mesh reads osculating_subspace's bases, so one jet's SVD and the
    # stacked SVD of the same jets must agree bit for bit
    for n in range(2, 7):
        for c in (trig[n], rational[n]):
            ts = np.arange(50) * (c.projective_period / 50)
            for k in range(n + 1):
                frames = osculating_frame(np.stack([c.jet(t, k) for t in ts]))
                assert frames.shape == (50, n + 1, n + 1)
                for t, frame in zip(ts, frames):
                    basis = osculating_subspace(c, t, k).basis
                    assert np.array_equal(basis, frame[:k + 1]), (c.model, k, t)


def test_osculating_flag_is_nested(trig):
    c = trig[4]
    subs = [osculating_subspace(c, 0.9, k) for k in range(4)]
    for small, big in zip(subs, subs[1:]):
        assert small.dim + 1 == big.dim
        for row in small.basis:
            assert big.contains(row)


def test_osculating_hyperplane_annihilates_jet(trig):
    c = trig[3]
    h = osculating_hyperplane(c, 1.7)
    jet = c.jet(1.7, c.n - 1)
    assert np.max(np.abs(jet @ h)) < 1e-9


def test_intersection_of_two_tangent_lines_is_point(trig):
    # in the plane, distinct tangent lines meet in one point
    cut = osculating_intersection(trig[2], [0.4, 2.9])
    assert cut.dim == 0
    p = cut.spanning_point()
    for t in (0.4, 2.9):
        h = osculating_hyperplane(trig[2], t)
        assert abs(h @ p.coords) < 1e-9


def test_merge_moments_groups_repeats():
    merged = merge_moments([1.0, 1.0 + 1e-9, 2.5], 2 * np.pi)
    assert sorted(m for _, m in merged) == [1, 2]


def test_fold_never_returns_the_period():
    period = 2 * np.pi
    assert -1e-18 % period == period    # the rounding fold guards against
    assert fold(-1e-18, period) == 0.0
    assert fold(np.float64(period + 0.5), period) == pytest.approx(0.5)
    # a seam group whose mean is a tiny negative number
    assert merge_moments([1e-17, np.nextafter(np.pi, 0)], np.pi) == [(0.0, 2)]


def test_circular_gap_broadcasts():
    a = np.array([0.1, 0.9])
    gaps = circular_gap(a[:, None], a[None, :], 1.0)
    assert np.allclose(gaps, [[0.0, 0.2], [0.2, 0.0]])
    assert circular_gap(0.05, 0.95, 1.0) == pytest.approx(0.1)


def test_circular_clusters_chain_and_join_across_the_seam():
    # 0.3, 0.35, 0.4 chain although 0.4 is more than gap from 0.3, and 0.97
    # joins 0.0 and 0.05 across the seam, listed first
    ts = [0.0, 0.05, 0.3, 0.35, 0.4, 0.97]
    assert circular_clusters(ts, 1.0, 0.06) == [[5, 0, 1], [2, 3, 4]]
    assert circular_clusters([0.1, 0.5], 1.0, 0.06) == [[0], [1]]
    assert circular_clusters([], 1.0, 0.06) == []
    # scaled by 1e-6, the same moments merge at MERGE = 1e-7
    merged = merge_moments([1e-6 * t for t in ts], 1e-6)
    assert [m for _, m in merged] == [3, 3]
    assert merged[0][0] == pytest.approx(0.02e-6 / 3)
    assert merged[1][0] == pytest.approx(0.35e-6)


def test_separated_moments_keep_their_gaps():
    rng = np.random.default_rng(3)
    for r in range(1, 7):
        ts = separated_moments(r, np.pi, 0.08 * np.pi, rng)
        assert len(ts) == r and np.all((0.0 <= ts) & (ts < np.pi))
        assert np.diff(ts, append=ts[0] + np.pi).min() >= 0.08 * np.pi
    # a gap random draws cannot meet falls back to evenly spaced moments
    assert np.array_equal(separated_moments(4, 2.0, 0.5, rng),
                          [0.0, 0.5, 1.0, 1.5])


def test_coincident_moments_use_deeper_subspace(trig):
    c = trig[3]
    # composition (2) at one moment equals the codim-2 osculating subspace
    cut = osculating_intersection(c, [1.1, 1.1])
    direct = osculating_subspace(c, 1.1, 1)
    assert same_subspace(cut, direct)


def test_rank_deficient_jet_raises():
    # a curve stuck in a plane has no 3rd osculating subspace
    flat = build_model("fourier", coeffs=[[1], [0, 1, 0], [0, 0, 1], [0, 0, 2]])
    with pytest.raises(DegeneracyError):
        osculating_subspace(flat, 0.3, 3)


def test_vanishing_jet_row_is_a_degeneracy():
    # the astroid's velocity vanishes at its cusp t = 0
    astroid = build_model("fourier", 2, [[1], [0, .75, 0, 0, 0, .25, 0],
                                         [0, 0, .75, 0, 0, 0, -.25]])
    with pytest.raises(DegeneracyError):
        osculating_subspace(astroid, 0.0, 1)
    for t in (np.pi / 2, np.pi, 3 * np.pi / 2):    # velocity about 1e-16
        with pytest.raises(DegeneracyError):
            osculating_subspace(astroid, t, 1)
    with pytest.raises(ValueError, match="zero row"):
        Subspace.from_vectors([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_full_and_empty():
    assert Subspace.full(3).dim == 3
    assert Subspace.empty(3).dim == -1
