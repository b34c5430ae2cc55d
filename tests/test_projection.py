"""Hyperplane projection: recursion, merging, and the local model."""

import numpy as np
import pytest

from osculant import (
    check_convex_sampling,
    count_roots,
    fourier,
    project_iterated,
    project_onto_osculating_hyperplane,
    projective,
)
from osculant.curves import nonconvex_space_curve
from osculant.errors import GeometryError
from osculant.projection import _projected_rows


def test_root_count_recursion(trig, rng):
    # dropping k osculating hyperplanes removes exactly k tangencies,
    # for points inside the intersection subspace
    for n in (3, 4, 5):
        c = trig[n]
        for k in (1, 2):
            moments = tuple(rng.uniform(0, 2 * np.pi, size=k))
            pr = project_iterated(c, moments)
            for _ in range(8):
                p = pr.lift_point(rng.standard_normal(pr.curve.n + 1))
                assert count_roots(c, p).total == pr.count_roots(p).total + k


def test_repeated_moments_near_coordinate_rows_project(rational, rng):
    # at these moments some rows of g' gamma - g gamma' hold only rounding
    # (cos(pi/2), or 1e-16 against 1); their remainders are read against
    # the whole array, so the projection goes through, and points of the
    # child lift to points with a tangency of order at least 2 at the moment
    for n in (3, 4, 5, 6):
        c = rational[n]
        for t in (1e-16, 1e-12, 1e-9, np.pi / 2):
            pr = project_iterated(c, (t, t))
            assert pr.ambient.dim == n - 2
            p = pr.lift_point(rng.standard_normal(n - 1))
            rc = count_roots(c, p)
            gap, order = min(
                (projective.circular_gap(s, t, c.projective_period), m)
                for s, m in rc.tangencies)
            assert gap < 1e-6 and order >= 2, (n, t, rc)
            if n < 6:   # the dual fold of a rational_normal:6 child can
                # read deflation rounding as a second residue class
                assert rc.total == pr.count_roots(p).total + 2


def test_repeated_moment_merges_deeper(trig):
    c = trig[4]
    pr = project_iterated(c, (1.0, 1.0))
    deeper = projective.osculating_subspace(c, 1.0, 2)
    assert pr.ambient.dim == 2
    assert projective.same_subspace(pr.ambient, deeper)


def test_moment_order_is_irrelevant(trig, rng):
    c = trig[4]
    a = project_iterated(c, (0.5, 2.0))
    b = project_iterated(c, (2.0, 0.5))
    assert projective.same_subspace(a.ambient, b.ambient)
    p = a.lift_point(rng.standard_normal(3))
    assert a.count_roots(p).total == b.count_roots(p).total


def test_lift_is_orthonormal(trig):
    pr = project_iterated(trig[5], (0.3, 2.1, 4.4))
    U = pr.lift
    assert U.shape == (3, 6)
    assert np.allclose(U @ U.T, np.eye(3), atol=1e-12)
    v = np.array([1.0, -2.0, 0.5])
    assert np.allclose(pr.push(pr.lift_point(v)), v, atol=1e-12)


def test_projection_preserves_convexity(trig):
    pr = project_iterated(trig[5], (0.7, 3.0))
    report = check_convex_sampling(pr.curve, trials=80, rng=0)
    assert report and report.max_roots_seen <= pr.curve.n


def test_local_model_coefficients(rational):
    """Projecting the degree-n monomial chart at 0 scales x^j by (n-j)/n."""
    for n in (3, 4, 5):
        pr = project_onto_osculating_hyperplane(rational[n], 0.0)

        def chart_coeff(j, h):
            q = pr.lift_point(pr.curve.point(h))
            return q[j] / (q[0] * np.tan(h) ** j)

        for j in range(1, n):
            c1, c2 = chart_coeff(j, 2e-3), chart_coeff(j, 4e-3)
            est = (4.0 * c1 - c2) / 3.0      # kills the h^2 error term
            assert abs(est - (n - j) / n) <= 1e-6 * abs((n - j) / n)


def test_space_curve_projection_degenerates():
    sc = nonconvex_space_curve()
    for tau in (0.0, np.pi):
        with pytest.raises(GeometryError):
            project_onto_osculating_hyperplane(sc, tau)


def test_orthogonal_point_is_rejected(trig):
    c = trig[4]
    pr = project_iterated(c, (1.3,))
    h = projective.osculating_hyperplane(c, 1.3)
    with pytest.raises(GeometryError):
        pr.count_roots(h)


def test_points_whose_norm_overflows_read_like_their_twins(trig, rng):
    pr = project_iterated(trig[4], (1.3,))
    p = pr.lift_point(rng.standard_normal(4))
    big = p / np.abs(p).max() * 1e300
    assert pr.count_roots(big).total == pr.count_roots(p).total
    assert np.array_equal(pr.push([1e308, 1e308, 0, 0, 0]),
                          pr.push([1.0, 1.0, 0, 0, 0]))
    assert np.array_equal(pr.lift_point([0, 1e308, 1e308, 0]),
                          pr.lift_point([0, 1.0, 1.0, 0]))
    for bad in ([np.nan, 1.0, 0, 0, 0], [0.0] * 5, [1.0] * 4):
        with pytest.raises(ValueError):
            pr.push(bad)
        with pytest.raises(ValueError):
            pr.count_roots(bad)


def test_moment_count_limits(trig):
    with pytest.raises(ValueError):
        project_iterated(trig[3], ())
    with pytest.raises(ValueError):
        project_iterated(trig[3], (0.1, 0.2, 0.3))


def _scalar_deflate(asc, roots, times):
    """Horner division on numpy complex scalars, one row at a time.

    Returns (quotient, largest absolute remainder).
    """
    worst = 0.0
    q = np.asarray(asc, complex)
    for _ in range(times):
        for r in roots:
            desc = q[::-1]
            out = np.empty(len(desc) - 1, complex)
            acc = 0.0 + 0.0j
            for i, d in enumerate(desc[:-1]):
                acc = d + r * acc
                out[i] = acc
            q = out[::-1].copy()
            worst = max(worst, abs(desc[-1] + r * acc))
    return q, worst


def test_deflation_matches_the_numpy_scalar_path_bitwise(trig, rational):
    rng = np.random.default_rng(5)
    for c in (trig[3], trig[4], trig[6], rational[4], rational[6]):
        n, period = c.n, c.projective_period
        for tau in rng.uniform(0.0, period, 20):
            rows = _projected_rows(c, projective.osculating_hyperplane(c, tau))
            got, worst = fourier.deflate(rows, float(tau), n - 1, period)
            u = np.exp(0.5j * tau)
            if abs(period - np.pi) < 1e-12:
                roots = [u, 1j * u, -u, -1j * u]
                scalar = (2j) ** (n - 1) * np.exp(1j * (n - 1) * tau)
            else:
                roots = [u, -u]
                scalar = (2j) ** (n - 1) * np.exp(0.5j * (n - 1) * tau)
            per_row = [_scalar_deflate(r, roots, n - 1) for r in rows]
            assert np.array_equal(got, np.vstack([q for q, _ in per_row]) * scalar)
            assert worst == max(w for _, w in per_row) / np.abs(rows).max()
