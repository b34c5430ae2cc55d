"""Projection of a curve onto an osculating hyperplane along tangent lines.

For a moment tau with osculating hyperplane covector h, the tangent line at
any t meets that hyperplane in the point

    g'(t) gamma(t) - g(t) gamma'(t),     g(t) = <h, gamma(t)>,

which sweeps out a new closed curve inside the hyperplane.  The formula
vanishes to order exactly n-1 at t = tau; since every coordinate is a trig
polynomial, the common factor sin^(n-1) of the gap is removed by exact
synthetic division on the unit circle instead of a limiting procedure, so
the projected curve is again a trig-polynomial curve with analytic jets.
Dropping a dimension at a time makes the construction recursive: repeated
moments land in deeper osculating subspaces, matching the merge convention
for coincident hyperplanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fourier, projective
from .curves import ParamCurve
from .errors import GeometryError
from .tangency import RootCount, count_roots

DEFLATE_REMAINDER = 1e-8
_MIN_NORM_REL = 1e-9


@dataclass(frozen=True)
class ProjectedCurve:
    """A curve living in an intersection of osculating hyperplanes.

    `curve` is the projected curve in internal coordinates of the ambient
    subspace; `lift` has orthonormal rows, so internal homogeneous vectors
    map to ambient ones through its transpose and back through itself.
    """

    base: ParamCurve
    moments: tuple
    curve: ParamCurve
    lift: np.ndarray
    ambient: projective.Subspace

    def push(self, p) -> np.ndarray:
        """Ambient homogeneous coordinates to internal ones."""
        return self.lift @ projective.point_vector(p, self.lift.shape[1])

    def lift_point(self, q) -> np.ndarray:
        """Internal homogeneous coordinates to ambient ones."""
        return self.lift.T @ projective.point_vector(q, self.lift.shape[0])

    def count_roots(self, p) -> RootCount:
        """Tangency count of an ambient point with respect to the projection."""
        v = projective.point_vector(p)
        q = self.push(v)
        if np.linalg.norm(q) < 1e-9 * np.linalg.norm(v):
            raise GeometryError("point is orthogonal to the ambient subspace")
        return count_roots(self.curve, q)


def _projected_rows(curve: ParamCurve, h: np.ndarray) -> np.ndarray:
    """Coefficient rows of g' gamma - g gamma' (halfspan doubles)."""
    C = curve.coeffs
    K = curve.K
    nu = 0.5j * np.arange(-K, K + 1)
    g = h @ C
    gp = g * nu
    rows = [
        fourier.convolve(gp, C[i]) - fourier.convolve(g, C[i] * nu)
        for i in range(C.shape[0])
    ]
    return np.vstack(rows)


def project_onto_osculating_hyperplane(curve: ParamCurve,
                                       tau: float) -> ProjectedCurve:
    """Project along tangent lines onto the osculating hyperplane at tau.

    The result is a first-class curve one dimension down, convex whenever
    the input is.  A tangent line lying inside the hyperplane (impossible
    for convex curves) leaves a zero of the projected parameterization and
    raises a geometry error.
    """
    n = curve.n
    if n < 2:
        raise ValueError("projection needs ambient dimension at least 2")
    h = projective.osculating_hyperplane(curve, tau)
    rows = _projected_rows(curve, h)
    mat, worst = fourier.deflate(rows, float(tau), n - 1, curve.projective_period)
    if worst > DEFLATE_REMAINDER:
        raise GeometryError(
            f"projection at tau={tau:.6g} does not vanish to order {n - 1}: "
            f"relative division remainder {worst:.2e}"
        )
    scale = np.abs(mat).max()
    herm = fourier.hermitized(mat)
    if np.abs(mat - herm).max() > 1e-8 * max(scale, 1e-300):
        raise GeometryError("deflated projection is not a real curve")

    # internal coordinates: orthonormal complement of the covector h
    B = projective.complement(h)
    inner = fourier.trimmed(B.astype(complex) @ herm)
    child = ParamCurve(inner, model=f"proj({curve.model} @ {tau:.6g})")

    norms = np.linalg.norm(fourier.to_samples(child.coeffs, 1024), axis=0)
    if norms.min() < _MIN_NORM_REL * norms.max():
        raise GeometryError(
            "projected parameterization vanishes: some tangent line lies "
            "inside the osculating hyperplane (curve is not convex)"
        )

    # the filled-in point at tau must be the original curve point
    at_tau = np.real(fourier.evaluate(herm, np.array([float(tau)]))).ravel()
    a = at_tau / np.linalg.norm(at_tau)
    b = curve.point(tau)
    b = b / np.linalg.norm(b)
    if abs(abs(a @ b) - 1.0) > 1e-8:
        raise GeometryError("projection limit at tau disagrees with the curve point")

    return ProjectedCurve(
        base=curve,
        moments=(float(tau),),
        curve=child,
        lift=B,
        ambient=projective.Subspace(B, n),
    )


def project_iterated(curve: ParamCurve, moments) -> ProjectedCurve:
    """Repeated hyperplane projection; repeats of a moment merge naturally.

    Each step drops one dimension, so k moments admit k up to n-1 (the last
    useful target is a curve on a projective line).  The composed lift keeps
    orthonormal rows, and the ambient subspace is the intersection of the
    osculating hyperplanes at the given moments of the original curve.
    """
    moments = tuple(float(t) for t in moments)
    n = curve.n
    if not 1 <= len(moments) <= n - 1:
        raise ValueError(f"moment count must be in 1..{n - 1}")
    cur = curve
    U = np.eye(n + 1)
    for tau in moments:
        step = project_onto_osculating_hyperplane(cur, tau)
        cur = step.curve
        U = step.lift @ U
    return ProjectedCurve(
        base=curve,
        moments=moments,
        curve=cur,
        lift=U,
        ambient=projective.Subspace(U, n),
    )
