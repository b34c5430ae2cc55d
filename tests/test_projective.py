"""Subspace arithmetic and osculating flags."""

import numpy as np
import pytest

from osculant.curves import build_model
from osculant.errors import DegeneracyError
from osculant.projective import (Subspace, merge_moments, normalize,
                                 osculating_hyperplane,
                                 osculating_intersection, osculating_subspace,
                                 same_subspace)


def test_normalize_scales_and_rejects_zero():
    p = normalize([3.0, 4.0, 0.0])
    assert np.isclose(np.linalg.norm(p.coords), 1.0)
    with pytest.raises(ValueError):
        normalize([0.0, 0.0, 0.0])


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
