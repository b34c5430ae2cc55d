"""Hull of the osculating-hyperplane family for even-dimensional curves."""

import logging

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from osculant import (
    count_roots,
    elliptic_hull,
    elliptic_hull_membership,
    hull_center,
)
from osculant import hulls
from osculant.curves import perturbed_circle
from osculant.errors import GeometryError, PrecisionError
from osculant.projection import project_iterated


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
        hull = c.hull
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
            assert elliptic_hull_membership(c, mid)
        assert elliptic_hull_membership(c, center)



def test_membership_of_points_whose_norm_over_or_underflows(trig):
    for v, twin in (([1e308, 2e307, 1e307], [10.0, 2.0, 1.0]),
                    ([1e-310, 2e-311, 1e-311], [10.0, 2.0, 1.0]),
                    ([1e307, 2e307, 1e307], [1.0, 2.0, 1.0])):
        assert elliptic_hull_membership(trig[2], v) == \
               elliptic_hull_membership(trig[2], twin), v

def test_chart_of_points_whose_norm_overflows_or_that_are_no_points(trig):
    hull = trig[4].hull
    assert np.array_equal(hull.to_chart([1e308, 1e308, 0, 0, 0]),
                          hull.to_chart([1.0, 1.0, 0, 0, 0]))
    for bad in ([np.nan, 1.0, 0, 0, 0], [0.0] * 5):
        with pytest.raises(ValueError):
            hull.to_chart(bad)


def test_half_spaces_contain_the_curve(trig):
    c = trig[4]
    hull = elliptic_hull(c)
    ts = np.linspace(0, 2 * np.pi, 160, endpoint=False)
    pts = np.stack([c.point(t) for t in ts])
    for a, s in zip(hull.covectors[::16], hull.signs[::16]):
        assert s in (-1.0, 1.0)
        vals = pts @ (s * a)
        assert vals.min() > -1e-9 * np.abs(vals).max()


def test_boundary_scale_matches_membership_bisection(trig, rng):
    c = trig[4]
    hull = c.hull
    for _ in range(4):
        d = rng.standard_normal(hull.frame.shape[0])
        d /= np.linalg.norm(d)
        rho = hull.boundary_scale(d)
        lo, hi = 0.0, 2.0 * rho
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            p = hull.from_chart(hull.center_chart + mid * d)
            try:
                inside = elliptic_hull_membership(c, p)
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
    hull = c.hull
    d = rng.standard_normal(2)
    d /= np.linalg.norm(d)
    far = hull.from_chart(hull.center_chart + 1.5 * hull.boundary_scale(d) * d)
    assert not elliptic_hull_membership(c, far)


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
    hull = rational[4].hull
    assert elliptic_hull_membership(rational[4], hull.center)
    assert hull.taus.shape[0] == hull.covectors.shape[0]
    assert hull.covectors.shape[1] == 5


def _scalar_oriented_covector(dual, tau, reference):
    # the per-moment construction the batched path must reproduce exactly
    a = dual.point(tau)
    a = a / np.linalg.norm(a)
    sign = 1.0
    if float(np.mean(reference @ a)) < 0.0:
        a, sign = -a, -1.0
    return a, sign


def _scalar_boundary_scale(hull, d):
    d = np.asarray(d, float)
    d = d / np.linalg.norm(d)
    dual, period = hull.curve.dual, hull.curve.projective_period
    x0 = hull.from_chart(hull.center_chart)
    step = hull.frame.T @ d

    def ratio(tau):
        a, _ = _scalar_oriented_covector(dual, float(tau), hull.reference)
        g, q = float(a @ x0), float(a @ step)
        return np.inf if q >= -1e-14 else g / -q

    grid = hulls._SUPPORT_GRID
    ts = np.arange(grid) * (period / grid)
    vals = np.array([ratio(t) for t in ts])
    i = int(np.argmin(vals))
    res = minimize_scalar(ratio, bounds=(ts[i] - period / grid,
                                         ts[i] + period / grid),
                          method="bounded", options={"xatol": 1e-12})
    return float(min(res.fun, vals[i]))


def _bitwise_curves(trig, rational):
    child = project_iterated(trig[3], [0.7]).curve
    return [trig[2], trig[4], trig[6], rational[2], rational[4], rational[6],
            child]


def test_batched_covectors_match_the_scalar_path_bitwise(trig, rational):
    for c in _bitwise_curves(trig, rational):
        hull = elliptic_hull(c)
        pairs = [_scalar_oriented_covector(c.dual, float(t), hull.reference)
                 for t in hull.taus]
        covs, signs = hulls._oriented_covectors(c.dual, hull.taus,
                                                hull.reference)
        assert np.array_equal(covs, np.vstack([a for a, _ in pairs])), c
        assert np.array_equal(signs, [s for _, s in pairs]), c
        assert np.array_equal(hull.covectors, covs), c


def test_batched_boundary_scale_matches_the_scalar_path_bitwise(
        trig, rational, rng):
    for c in _bitwise_curves(trig, rational):
        hull = elliptic_hull(c)
        for _ in range(5):
            d = rng.standard_normal(hull.frame.shape[0])
            assert hull.boundary_scale(d) == _scalar_boundary_scale(hull, d), c


def test_hull_build_logs_one_record(trig, caplog):
    elliptic_hull(trig[4])
    assert not [r for r in caplog.records if r.name == "osculant"]
    caplog.set_level(logging.DEBUG, logger="osculant")
    elliptic_hull(trig[4])
    msgs = [r.getMessage() for r in caplog.records if r.name == "osculant"]
    assert len(msgs) == 1
    assert msgs[0].startswith("elliptic hull trig_convex(4): grid 256, "
                              "Chebyshev radius ")
    assert float(msgs[0].rsplit(" ", 1)[1]) > 0.0
