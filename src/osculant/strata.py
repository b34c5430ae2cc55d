"""Root filtration of projective space and the stratum-transport map.

A point p is classified by how many tangent hyperplanes the curve sends
through it: the stratum index is i = (n - total)/2 with total counted
with multiplicities.  Off the deepest stratum a point determines its
tangency moments uniquely, and projecting the curve at those moments
drops p into the elliptic hull of an even-dimensional child curve, where
radial coordinates about the Chebyshev center finish the classification.
Reversing the reading on a second curve with the same data transports
strata between curves, which is what the census of root-count components
rests on.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .curves import ParamCurve
from .errors import GeometryError, OnDiscriminantError, PrecisionError
from .forms import exact_count
from .projective import (ProjPoint, normalize, osculating_intersection,
                         point_vector, separated_moments)
from .projection import project_iterated
from .tangency import RootCount, count_roots

__all__ = [
    "FiberPoint",
    "StratumData",
    "stratum_label",
    "tangency_data",
    "rescale_moments",
    "realize",
    "transport",
    "component_census",
]

_log = logging.getLogger("osculant")

_RADIUS_SLACK = 1e-9
_CONSTANCY_DRAWS = 10   # draw cap of the constancy check, per requested pair


@dataclass(frozen=True)
class FiberPoint:
    """Radial coordinates inside an elliptic hull: unit direction + fraction.

    radius is the fraction of the distance from the canonical center to the
    hull boundary along direction, so it lives in [0, 1).  The zero-radius
    fiber point has an empty direction convention of all zeros.
    """

    direction: tuple
    radius: float


@dataclass(frozen=True)
class StratumData:
    index: int
    moments: tuple
    fiber_point: FiberPoint


def stratum_label(c: ParamCurve, p, tol: Tolerances = DEFAULT) -> int:
    """Index of the root-filtration stratum containing p.

    The multiplicity-counted tangency total always matches the ambient
    dimension mod 2; a mismatch means the numerics landed on the
    discriminant (a tangency escaped with the wrong multiplicity) and the
    point cannot be classified as given.
    """
    return (c.n - _parity_checked(c, p, tol).total) // 2


def _parity_checked(c: ParamCurve, p, tol: Tolerances) -> RootCount:
    """count_roots, refused with OnDiscriminantError on a wrong-parity total."""
    rc = count_roots(c, p, tol)
    if (c.n - rc.total) % 2 != 0:
        raise OnDiscriminantError(
            f"tangency total {rc.total} has the wrong parity for dimension "
            f"{c.n}; the point sits numerically on the discriminant",
            point=p, count=rc.total)
    return rc


def _child_and_hull(c: ParamCurve, moments, tol: Tolerances):
    """Project out the tangency moments and build the resulting hull."""
    if moments:
        child = project_iterated(c, list(moments), tol)
        return child, child.curve.hull
    return None, c.hull


def tangency_data(c: ParamCurve, p, tol: Tolerances = DEFAULT) -> StratumData:
    """Full classification of p: stratum index, moments, fiber coordinates."""
    rc = _parity_checked(c, p, tol)
    i = (c.n - rc.total) // 2
    moments = tuple(rc.moments())
    if i == 0:
        # p is the single point cut out by the n osculating hyperplanes
        return StratumData(0, moments, FiberPoint((), 0.0))
    child, hull = _child_and_hull(c, moments, tol)
    v = point_vector(p)
    q = child.push(v) if child is not None else v
    y = hull.to_chart(q)
    r = y - hull.center_chart
    dist = float(np.linalg.norm(r))
    if dist < 1e-12 * (1.0 + np.linalg.norm(hull.center_chart)):
        return StratumData(i, moments, FiberPoint((0.0,) * (2 * i), 0.0))
    d = r / dist
    span = hull.boundary_scale(d)
    rho = dist / span
    if rho >= 1.0 + _RADIUS_SLACK:
        raise PrecisionError(
            f"fiber radius {rho:.6f} exceeds the hull boundary; "
            "root count and hull geometry disagree"
        )
    return StratumData(i, moments, FiberPoint(tuple(d), min(rho, 1.0 - 1e-15)))


def rescale_moments(data: StratumData, c1: ParamCurve,
                    c2: ParamCurve) -> StratumData:
    """Carry data's moments from c1's parameter circle onto c2's.

    The circles are identified by the orientation preserving linear map,
    so moments rescale by the period ratio; for equal periods the data is
    returned unchanged.
    """
    scale = c2.projective_period / c1.projective_period
    if scale == 1.0:
        return data
    return StratumData(data.index, tuple(t * scale for t in data.moments),
                       data.fiber_point)


def realize(c: ParamCurve, data: StratumData,
            tol: Tolerances = DEFAULT) -> ProjPoint:
    """Point of c's ambient space with the given stratum data."""
    if data.index == 0:
        cut = osculating_intersection(c, list(data.moments), tol)
        if cut.dim != 0:
            raise GeometryError(
                f"osculating hyperplanes at the given moments cut out a "
                f"{cut.dim}-dimensional set, not a point"
            )
        return cut.spanning_point()
    child, hull = _child_and_hull(c, data.moments, tol)
    d = np.asarray(data.fiber_point.direction, float)
    if data.fiber_point.radius == 0.0 or not d.any():
        y = hull.center_chart
    else:
        y = hull.center_chart + data.fiber_point.radius * hull.boundary_scale(d) * d
    v = hull.from_chart(y)
    if child is not None:
        v = child.lift_point(v)
    return normalize(v)


def transport(p, c1: ParamCurve, c2: ParamCurve,
              tol: Tolerances = DEFAULT) -> ProjPoint:
    """Carry p across curves keeping stratum, moments and fiber coordinates.

    Moment tuples live on each curve's own parameter circle, so they go
    through rescale_moments on the way; a caller that already holds
    tangency_data(c1, p) can call realize on the rescaled data directly.
    """
    if c1.n != c2.n:
        raise ValueError("transport needs curves of the same ambient dimension")
    data = rescale_moments(tangency_data(c1, p, tol), c1, c2)
    return realize(c2, data, tol)


def _census_point(c: ParamCurve, rng: np.random.Generator) -> np.ndarray:
    """One census sample from a mixture of region-seeking draws.

    Plain gaussian points almost never land in the high-count strata once
    the dimension grows (the region near the curve is thin), so the census
    mixes ambient draws with points near the curve, near chords, and near
    corners where n osculating hyperplanes meet; the histogram support,
    not the measure, is what the census certifies.
    """
    n = c.n
    period = c.projective_period
    mode = rng.uniform()
    if mode < 0.45:
        return rng.standard_normal(n + 1)
    if mode < 0.72:
        t = rng.uniform(0.0, period)
        base = c.point(t)
        eps = 10.0 ** rng.uniform(-2.6, -0.3)
        return base + eps * np.linalg.norm(base) * rng.standard_normal(n + 1)
    if mode < 0.88:
        t1, t2 = rng.uniform(0.0, period, 2)
        mix = rng.uniform(0.15, 0.85)
        base = mix * c.point(t1) + (1.0 - mix) * c.point(t2)
        eps = 10.0 ** rng.uniform(-3.0, -1.0)
        return base + eps * (np.linalg.norm(base) + 1e-9) * rng.standard_normal(n + 1)
    cut = osculating_intersection(c, separated_moments(n, period, 0.08 * period, rng))
    base = cut.spanning_point().coords
    return base + 1e-3 * rng.standard_normal(n + 1)


def component_census(c: ParamCurve, samples: int, seed: int = 0,
                     tol: Tolerances = DEFAULT,
                     constancy_checks: int = 100) -> dict:
    """Histogram of tangency counts over random points, plus component count.

    Points that trip the on-discriminant signal are discarded.  The support
    of the histogram must be exactly {n, n-2, ..., n mod 2}; any other value
    is a hard failure, while a missing value means the sampling never reached
    that stratum.  Local constancy of the count is spot-checked on fresh
    points nudged by 1e-5.  A pair whose counts differ is a straddle of the
    discriminant, discarded and redrawn, when exact_count confirms both
    counts; otherwise, or on a curve without an exact oracle, it raises
    GeometryError.  If 10 * constancy_checks draws do not yield that many
    certified pairs, the census raises PrecisionError.  Each phase logs its
    draws and discards at DEBUG, also when it raises.
    """
    n = c.n
    rng = np.random.default_rng(seed)
    expected = set(range(n % 2, n + 1, 2))
    hist: dict[int, int] = {}
    refused: Counter = Counter()
    try:
        for _ in range(samples):
            v = _census_point(c, rng)
            try:
                total = _parity_checked(c, v, tol).total
            except (PrecisionError, OnDiscriminantError) as exc:
                refused[type(exc)] += 1
                continue
            if total not in expected:
                raise GeometryError(
                    f"tangency count {total} observed; dimension {n} admits "
                    f"only {sorted(expected)}"
                )
            hist[total] = hist.get(total, 0) + 1
        if set(hist) != expected:
            missing = sorted(expected - set(hist))
            raise PrecisionError(
                f"census with {samples} samples never reached counts {missing}"
            )
    finally:
        _log.debug("census %s sampling: %d of %d kept; discarded PrecisionError "
                   "%d, OnDiscriminantError %d", c.model, sum(hist.values()),
                   samples, refused[PrecisionError], refused[OnDiscriminantError])
    checked = draws = 0
    refused = Counter()
    try:
        while checked < constancy_checks:
            if draws >= _CONSTANCY_DRAWS * constancy_checks:
                raise PrecisionError(
                    f"constancy check discarded {draws - checked} of {draws} "
                    f"draws before reaching {constancy_checks} certified pairs"
                )
            draws += 1
            v = _census_point(c, rng)
            w = v + 1e-5 * np.linalg.norm(v) * rng.standard_normal(n + 1)
            try:
                a = _parity_checked(c, v, tol).total
                b = _parity_checked(c, w, tol).total
            except (PrecisionError, OnDiscriminantError) as exc:
                refused[type(exc)] += 1
                continue
            if a != b:
                if (exact_count(c, v), exact_count(c, w)) != (a, b):
                    raise GeometryError(
                        f"tangency count jumped {a} -> {b} under a 1e-5 "
                        "perturbation, unconfirmed by an exact count"
                    )
                refused["straddle"] += 1   # v and w lie across the discriminant
                continue
            checked += 1
    finally:
        _log.debug("census %s constancy: %d pairs certified in %d draws; discarded "
                   "PrecisionError %d, OnDiscriminantError %d, straddle %d",
                   c.model, checked, draws, refused[PrecisionError],
                   refused[OnDiscriminantError], refused["straddle"])
    return {
        "n": n,
        "samples": samples,
        "histogram": {str(k): hist[k] for k in sorted(hist, reverse=True)},
        "components": len(hist),
        "seed": seed,
    }
