"""Counting osculating hyperplanes through a point, with multiplicities.

The tangency function F_p(t) = det[gamma(t); gamma'(t); ...; gamma^(n-1)(t); p]
vanishes exactly where the osculating hyperplane at t passes through p, and
the order of that zero is the order of tangency.  Expanding the determinant
along p gives F_p = (-1)^n <gamma*(t), p> with gamma* the osculating-hyperplane
covector, whose trig-polynomial coefficients each curve computes once, so F_p
and every derivative of it are available in closed form.

With u = exp(i t / 2), F_p is u^(-K) times a degree-2K polynomial in u.
Its spectrum lies on one residue class mod s = 4 pi / period (the curve's
dual_fold), so that polynomial is u^j0 Q(u^s), and each zero on one period
is one unit-circle eigenvalue of Q's companion matrix.  Each eigenvalue
moment where |F_p| is below the zero threshold gets its order from a
derivative scan, which polishes it for order m only where at least m
eigenvalues crowd it; the sites are then grouped once within the merge
tolerance, one zero per group.  order_of_tangency reads the same order
off the osculating flag.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .config import DEFAULT, Tolerances
from .errors import DegeneracyError, PrecisionError
from .projective import (circular_clusters, circular_gap, fold,
                         osculating_subspace, point_vector)


@dataclass(frozen=True)
class RootCount:
    """Tangency moments (parameter, order) and their multiplicity-counted total."""

    tangencies: tuple
    total: int

    def moments(self) -> list:
        """Moments repeated by multiplicity, sorted."""
        out: list[float] = []
        for t, m in self.tangencies:
            out.extend([t] * m)
        return sorted(out)


def _point_vec(p, dim: int) -> np.ndarray:
    v = point_vector(p, dim)
    return v / np.linalg.norm(v)


def tangency_function(curve, p) -> fourier.TrigPoly:
    """F_p as a trig polynomial; derivatives come from .deriv()."""
    n = curve.n
    v = _point_vec(p, n + 1)
    return fourier.TrigPoly((-1) ** n * (v @ curve.dual_coeffs))


def order_of_tangency(curve, p, tau: float, tol: Tolerances = DEFAULT) -> int:
    """Largest i with p inside the codimension-i osculating subspace at tau.

    Requires p to lie on the osculating hyperplane at tau; equals the order of
    tau as a zero of F_p.  Membership is decided by rank, not differentiation,
    which keeps it usable for merged zero clusters.  A vanishing jet row, as
    at a cusp, raises DegeneracyError.
    """
    n = curve.n
    v = _point_vec(p, n + 1)
    for m in range(n):
        if osculating_subspace(curve, tau, m, tol).contains(v, tol):
            return n - m
    raise ValueError("point is not on the osculating hyperplane at tau")


_UNIT_BAND = 1e-2       # ||u| - 1| of root candidates; high-order zeros split off the circle


def count_roots(curve, p, tol: Tolerances = DEFAULT) -> RootCount:
    """All tangency moments of p with orders; total counted with multiplicity.

    A zero whose order cannot be certified raises PrecisionError.
    """
    n = curve.n
    s, j0 = curve.dual_fold
    F = tangency_function(curve, p)
    period = curve.projective_period
    scale = _scales(curve, F)
    if scale(0) == 0.0 or not np.isfinite(scale(0)):
        raise DegeneracyError("tangency function vanished identically")
    zero_thr = tol.zero_rel * scale(0)
    # u^K F = u^j0 Q(u^s): one eigenvalue w = u^s per zero on the period
    w = np.roots(F.coeffs[j0::s][::-1])
    w = w[np.abs(np.abs(w) ** (1.0 / s) - 1.0) <= _UNIT_BAND]
    cands = np.array([fold(a, period) for a in (2.0 / s) * np.angle(w)])
    roots = cands[np.abs(F(cands)) <= zero_thr]
    sites = sorted(_assign_order(F, tau, cands, scale, zero_thr, n, period, tol)
                   for tau in roots)
    # the eigenvalues of one zero polish to one location: keep the first
    # site of each group (across the seam, the one at or above 0)
    groups = circular_clusters([t for t, _ in sites], period, tol.merge)
    tangencies = [(sites[min(g)][0], max(sites[i][1] for i in g)) for g in groups]
    return RootCount(tuple(sorted(tangencies)), sum(m for _, m in tangencies))


def _scales(curve, F: fourier.TrigPoly):
    """j -> max |F^(j)| on the curve's scale grid, by fourier.evaluate's product."""
    ph = curve.scale_phases
    return functools.cache(lambda j: np.abs(np.real(ph @ F.deriv_coeffs(j))).max())


def _newton_polish(G, t0: float, window: float):
    t = t0
    for _ in range(12):
        g = float(G(t))
        dg = float(G(t, order=1))
        if not np.isfinite(g) or dg == 0.0:
            return None
        step = g / dg
        t -= step
        if abs(t - t0) > window:
            return None
        if abs(step) <= 1e-15 * (1.0 + abs(t)):
            return t
    return t


def _assign_order(F, tau, cands, scale, zero_thr, n, period, tol):
    """Order of tau as a zero of F, relocating tau for high orders.

    A zero of order m is pinned down by values of F alone only to about
    eps**(1/m), which poisons a derivative scan at the crude location.  For
    each hypothetical order m, descending, the same zero is a simple zero of
    F^(m-1) and Newton recovers it to machine accuracy; the first hypothesis
    whose rescan at the polished point is internally consistent wins.  The
    polish window scales with the intrinsic location uncertainty, so a
    hypothesis cannot swallow a genuinely distinct neighbouring zero.

    An order-m zero splits into m eigenvalues around it, and the polish
    reaches only a zero within the window of tau; so hypothesis m is tried
    only when at least m candidates (cands, the unit-band moments) lie
    within twice its window of tau.  Order m's window, and the scale(m) it
    reads, is computed only when there are at least m candidates, and a
    simple zero that no other candidate crowds is never polished.
    """
    eps = np.finfo(float).eps
    gaps = np.sort(circular_gap(cands, tau, period))
    for m in range(min(n, gaps.size), 1, -1):
        s_m = max(scale(m), eps * scale(0))
        window = 10.0 * (eps * scale(0) * math.factorial(m) / s_m) ** (1.0 / m) + 1e-12
        if gaps[m - 1] > 2.0 * window:
            continue
        t2 = _newton_polish(F.deriv(m - 1), tau, window)
        if t2 is None:
            continue
        if abs(float(F(t2))) > zero_thr:
            continue
        if any(abs(float(F(t2, order=j))) > tol.deriv_rel * scale(j)
               for j in range(1, m)):
            continue
        if abs(float(F(t2, order=m))) > tol.deriv_rel * scale(m):
            return fold(t2, period), m
    if abs(float(F(tau, order=1))) > tol.deriv_rel * scale(1):
        return fold(tau, period), 1
    raise PrecisionError(
        f"cannot certify the tangency order at t={tau:.12g}; "
        "the derivative scan is inconclusive at every order"
    )
