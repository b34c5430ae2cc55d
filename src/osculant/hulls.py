"""Elliptic hulls: the tangency-free region of a convex curve.

For even ambient dimension every osculating hyperplane supports the curve
(the contact order n is even, so the curve touches without crossing), and
the hull of points with no tangent hyperplane is the intersection of the
supporting half-spaces.  Orienting each dual covector toward the curve and
averaging yields a covector whose affine chart contains both the curve and
the hull; inside that chart the hull is a bounded convex body, its canonical
interior point is the Chebyshev center of a sampled half-space polytope,
and the boundary along any ray has a closed form as a minimum over moments.

Odd ambient dimension has no convex hull in the chart; membership reduces
to having exactly one tangent hyperplane, and all radial machinery is used
fiberwise after slicing along that tangency (handled by the stratification
layer).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import fourier
from .config import DEFAULT, Tolerances
from .curves import ParamCurve
from .errors import GeometryError, PrecisionError
from .projective import ProjPoint, complement, normalize, point_vector
from .tangency import count_roots

_log = logging.getLogger("osculant")

_SUPPORT_GRID = 512     # support covectors per period; the LP keeps every other one


@dataclass(frozen=True)
class EllipticHull:
    """Sampled half-space model of the hull of an even-dimensional curve.

    covectors are unit length and oriented so pairings with the curve are
    positive; chart is their mean (the canonical affine chart covector);
    frame rows complete chart to an orthonormal basis, giving affine
    coordinates y with x = chart + frame.T @ y; reference holds the curve
    samples that orient every dual covector toward the curve side; support
    holds the oriented covectors of the 512-point grid, covectors its even rows.
    """

    curve: ParamCurve
    taus: np.ndarray
    covectors: np.ndarray
    signs: np.ndarray
    chart: np.ndarray
    frame: np.ndarray
    center: ProjPoint
    center_chart: np.ndarray
    reference: np.ndarray
    support: np.ndarray

    def to_chart(self, p) -> np.ndarray:
        """Affine chart coordinates of a homogeneous point."""
        v = np.asarray(getattr(p, "coords", p), float)
        denom = float(self.chart @ v)
        if abs(denom) < 1e-12 * np.linalg.norm(v):
            raise GeometryError("point lies on the chart hyperplane at infinity")
        return self.frame @ (v / denom)

    def from_chart(self, y) -> np.ndarray:
        return self.chart + self.frame.T @ np.asarray(y, float)

    def boundary_scale(self, direction) -> float:
        """Distance from the center to the hull boundary along a chart ray.

        For each moment the supporting half-space caps the ray at
        g(tau)/(-q(tau)) whenever the ray leaves it; the boundary is the
        minimum over moments, refined by one-dimensional minimization of
        the smooth ratio around the sampled argmin.
        """
        from scipy.optimize import minimize_scalar

        d = np.asarray(direction, float)
        nd = np.linalg.norm(d)
        if nd == 0.0:
            raise ValueError("direction must be nonzero")
        d = d / nd
        period = self.curve.projective_period
        x0 = self.from_chart(self.center_chart)
        step = self.frame.T @ d

        def ratios(a: np.ndarray) -> np.ndarray:
            g = (a[:, None, :] @ x0[:, None])[:, 0, 0]
            q = (a[:, None, :] @ step[:, None])[:, 0, 0]
            return np.divide(g, -q, out=np.full(len(a), np.inf),
                             where=q < -1e-14)

        vals = ratios(self.support)
        if not np.isfinite(vals).any():
            raise GeometryError("hull is unbounded along the requested ray")
        i = int(np.argmin(vals))
        h = period / _SUPPORT_GRID
        res = minimize_scalar(lambda t: ratios(_oriented_covectors(
            self.curve.dual, np.array([t]), self.reference)[0])[0],
            bounds=(i * h - h, i * h + h), method="bounded",
            options={"xatol": 1e-12})
        return float(min(res.fun, vals[i]))


def _orientation_reference(curve: ParamCurve) -> np.ndarray:
    """Curve samples used to orient covectors toward the curve side."""
    ts = np.arange(128) * (curve.projective_period / 128)
    return curve.point(ts)


def _oriented_covectors(dual: ParamCurve, ts: np.ndarray,
                        reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit dual covectors at ts, flipped to pair positively on average with
    reference; returns (covectors, signs).  Each row is its own (1 x m)
    product on contiguous rows, which rounds like dual.point(t) and 1-d
    dots; GEMM or strided rows round differently.
    """
    ph = fourier.phase_matrix(ts, dual.K)
    a = np.real(np.matmul(ph[:, None, :], dual.coeffs.T))[:, 0, :]
    a = np.ascontiguousarray(a)
    a = a / np.sqrt(a[:, None, :] @ a[:, :, None])[:, 0]
    signs = np.where((reference @ a.T).mean(axis=0) < 0.0, -1.0, 1.0)
    return a * signs[:, None], signs


def elliptic_hull(curve: ParamCurve) -> EllipticHull:
    """Build the sampled hull model of an even-dimensional convex curve.

    curve.hull holds the model, built once per curve.
    """
    from scipy.optimize import linprog

    n = curve.n
    if n % 2 != 0:
        raise ValueError("the elliptic hull is convex only in even dimension")
    period = curve.projective_period
    ref = _orientation_reference(curve)
    ts = np.arange(_SUPPORT_GRID) * (period / _SUPPORT_GRID)
    support, support_signs = _oriented_covectors(curve.dual, ts, ref)
    # i * (P/256) == 2i * (P/512) and each row is its own product, so the
    # even rows are the covectors of the 256-point grid bit for bit
    taus, signs = ts[::2], support_signs[::2]
    covs = np.ascontiguousarray(support[::2])
    if (ref @ covs.T).min() < -1e-9:
        raise GeometryError(
            "an osculating hyperplane crosses the curve; "
            "the hull construction needs a convex curve of even dimension"
        )
    w = covs.mean(axis=0)
    nw = np.linalg.norm(w)
    if nw < 1e-9:
        raise GeometryError("dual covectors average out; no canonical chart")
    w = w / nw
    frame = complement(w)

    # Chebyshev center of the sampled polytope in chart coordinates
    b = covs @ w
    A = covs @ frame.T
    rownorm = np.linalg.norm(A, axis=1)
    lp = linprog(
        c=np.concatenate((np.zeros(n), [-1.0])),
        A_ub=np.hstack((-A, rownorm[:, None])),
        b_ub=b,
        bounds=[(None, None)] * n + [(0.0, None)],
        method="highs",
    )
    if not lp.success or lp.x[-1] <= 0.0:
        raise GeometryError("supporting half-spaces admit no interior point")
    _log.debug("elliptic hull %s: grid %d, Chebyshev radius %.3g",
               curve.model, len(taus), lp.x[-1])
    y0 = lp.x[:n]
    center_vec = w + frame.T @ y0
    return EllipticHull(
        curve=curve,
        taus=taus,
        covectors=covs,
        signs=signs,
        chart=w,
        frame=frame,
        center=normalize(center_vec),
        center_chart=y0,
        reference=ref,
        support=support,
    )


def elliptic_hull_membership(curve: ParamCurve, p,
                             tol: Tolerances = DEFAULT) -> bool:
    """Whether p has no tangent hyperplane (even n) or exactly one (odd n).

    The even case is cross-checked against the supporting half-space test;
    a decisive disagreement between the two characterizations raises a
    precision error.
    """
    n = curve.n
    total = count_roots(curve, p, tol).total
    if n % 2 == 1:
        return total == 1
    member = total == 0
    v = point_vector(p)
    denom = float(curve.hull.chart @ v)
    if abs(denom) < 1e-12 * np.linalg.norm(v):
        if member:
            raise PrecisionError("hull member claimed on the chart at infinity")
        return False
    s = curve.hull.covectors @ (v / denom)
    margin = 1e-7 * np.abs(s).max()
    side = bool(s.min() > margin)
    if member != side and (s.min() > margin or s.min() < -margin):
        raise PrecisionError(
            f"root count ({total}) and half-space test disagree decisively "
            f"(min pairing {s.min():.3e})"
        )
    return member


def hull_center(curve: ParamCurve) -> ProjPoint:
    """Chebyshev center of the sampled hull (even dimension only)."""
    return curve.hull.center
