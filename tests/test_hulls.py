"""Hull of the osculating-hyperplane family for even-dimensional curves."""

import numpy as np
import pytest

from osculant import (
    count_roots,
    elliptic_hull,
    elliptic_hull_membership,
    hull_center,
)
from osculant import hulls
from osculant.curves import perturbed_circle
from osculant.errors import GeometryError, PrecisionError


def test_circle_center_is_the_origin_of_the_disk(trig):
    c = hull_center(trig[2])
    v = np.asarray(c.coords, float)
    v = v / np.linalg.norm(v) * np.sign(v[0])
    assert np.allclose(v, (1.0, 0.0, 0.0), atol=1e-8)


def test_center_sees_no_tangent_hyperplane(trig):
    for n in (2, 4):
        center = hull_center(trig[n])
        assert count_roots(trig[n], center).total == 0


def test_midpoints_of_members_are_members(trig, rng):
    for n in (2, 4):
        c = trig[n]
        hull = elliptic_hull(c)
        center = np.asarray(hull.center.coords, float)
        members = []
        for _ in range(12):
            d = rng.standard_normal(hull.frame.shape[0])
            d /= np.linalg.norm(d)
            rho = rng.uniform(0.0, 0.95) * hull.boundary_scale(d)
            members.append(hull.from_chart(hull.center_chart + rho * d))
        for _ in range(20):
            i, j = rng.integers(0, len(members), size=2)
            mid = 0.5 * (members[i] / members[i][0] + members[j] / members[j][0])
            assert elliptic_hull_membership(c, mid, hull=hull)
        assert elliptic_hull_membership(c, center, hull=hull)


def test_half_spaces_contain_the_curve(trig):
    c = trig[4]
    hull = elliptic_hull(c)
    ts = np.linspace(0, 2 * np.pi, 160, endpoint=False)
    pts = np.stack([c.point(t) for t in ts])
    for a, s in hull.half_spaces[::16]:
        assert s in (-1.0, 1.0)
        vals = pts @ np.asarray(a)
        assert vals.min() > -1e-9 * np.abs(vals).max()


def test_boundary_scale_matches_membership_bisection(trig, rng):
    c = trig[4]
    hull = elliptic_hull(c)
    for _ in range(4):
        d = rng.standard_normal(hull.frame.shape[0])
        d /= np.linalg.norm(d)
        rho = hull.boundary_scale(d)
        lo, hi = 0.0, 2.0 * rho
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            p = hull.from_chart(hull.center_chart + mid * d)
            try:
                inside = elliptic_hull_membership(c, p, hull=hull)
            except PrecisionError:
                lo = hi = mid    # ambiguous shell straddling the boundary
                break
            if inside:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - rho) <= 1e-6 * rho


def test_boundary_scale_reuses_the_orientation_reference(trig, monkeypatch):
    hull = elliptic_hull(trig[4])
    want = hull.boundary_scale((1.0, 0.0, 0.0, 0.0))

    def forbidden(curve):
        raise AssertionError("orientation reference rebuilt")

    monkeypatch.setattr(hulls, "_orientation_reference", forbidden)
    assert hull.boundary_scale((1.0, 0.0, 0.0, 0.0)) == want


def test_membership_outside_chart_direction(trig, rng):
    c = trig[2]
    hull = elliptic_hull(c)
    d = rng.standard_normal(2)
    d /= np.linalg.norm(d)
    far = hull.from_chart(hull.center_chart + 1.5 * hull.boundary_scale(d) * d)
    assert not elliptic_hull_membership(c, far, hull=hull)


def test_odd_dimension_uses_the_count(trig, rng):
    c = trig[3]
    with pytest.raises(ValueError):
        elliptic_hull(c)
    hits = 0
    for _ in range(60):
        p = rng.standard_normal(4)
        inside = elliptic_hull_membership(c, p)
        assert inside == (count_roots(c, p).total == 1)
        hits += inside
    assert 0 < hits < 60


def test_nonconvex_curve_is_rejected():
    with pytest.raises(GeometryError):
        elliptic_hull(perturbed_circle(0.3))


def test_distinct_rational_normal_hull(rational):
    hull = elliptic_hull(rational[4])
    assert elliptic_hull_membership(rational[4], hull.center, hull=hull)
    assert hull.taus.shape[0] == hull.covectors.shape[0]
    assert hull.covectors.shape[1] == 5
