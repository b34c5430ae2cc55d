"""Counting osculating hyperplanes through a point, with multiplicities.

The tangency function F_p(t) = det[gamma(t); gamma'(t); ...; gamma^(n-1)(t); p]
vanishes exactly where the osculating hyperplane at t passes through p, and
the order of that zero is the order of tangency.  Expanding the determinant
along p gives F_p = (-1)^n <gamma*(t), p> with gamma* the osculating-hyperplane
covector, whose trig-polynomial coefficients each curve computes once, so F_p
and every derivative of it are available in closed form.

Zeros are located on a dense grid (sign changes for odd orders, certified
dips of |F_p| for even orders), refined by bracketed root finding, merged
within a tolerance, and assigned multiplicities by a derivative scan that is
cross-checked against membership of p in the osculating flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import fourier
from .config import BRACKET_GRID, DEFAULT, MAX_GRID, Tolerances
from .errors import DegeneracyError, PrecisionError
from .projective import merge_moments


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
    v = np.asarray(getattr(p, "coords", p), float)
    if v.shape != (dim,):
        raise ValueError(f"point must have {dim} homogeneous coordinates")
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("zero vector is not a point")
    return v / nrm


def tangency_function(curve, p) -> fourier.TrigPoly:
    """F_p as a trig polynomial; derivatives come from .deriv()."""
    n = curve.n
    v = _point_vec(p, n + 1)
    return fourier.TrigPoly((-1) ** n * (v @ curve.dual_coeffs))


def order_of_tangency(curve, p, tau: float, tol: Tolerances = DEFAULT) -> int:
    """Largest i with p inside the codimension-i osculating subspace at tau.

    Requires p to lie on the osculating hyperplane at tau; equals the order of
    tau as a zero of F_p.  Membership is decided by rank, not differentiation,
    which keeps it usable for merged zero clusters.
    """
    n = curve.n
    v = _point_vec(p, n + 1)
    jets = curve.jet(tau, n - 1)
    jets = jets / np.linalg.norm(jets, axis=1, keepdims=True)
    best = 0
    q: list[np.ndarray] = []
    for m in range(n):
        w = jets[m].copy()
        for b in q:
            w -= (b @ w) * b
        for b in q:  # second pass for orthogonality at high order
            w -= (b @ w) * b
        nw = np.linalg.norm(w)
        if nw < 1e-13:
            raise DegeneracyError(f"jet rows dependent at tau={tau}")
        q.append(w / nw)
        r = v.copy()
        for b in q:
            r -= (b @ r) * b
        if np.linalg.norm(r) <= tol.member_rel:
            best = n - m
            break
    if best == 0:
        raise ValueError("point is not on the osculating hyperplane at tau")
    return best


def _refine_bracket(F, a: float, b: float) -> float:
    fa, fb = F(a), F(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if np.sign(fa) == np.sign(fb):
        raise _Retry  # grid sample signs disagreed with pointwise values
    return brentq(lambda x: float(F(x)), a, b, xtol=1e-14, rtol=8.9e-16)


def count_roots(curve, p, tol: Tolerances = DEFAULT,
                grid: int = BRACKET_GRID) -> RootCount:
    """All tangency moments of p with orders; total counted with multiplicity.

    The grid doubles (up to a cap) whenever a dip of |F_p| cannot be certified
    as either a genuine even-order zero or a near miss; an uncertifiable
    configuration raises PrecisionError.
    """
    F = tangency_function(curve, p)
    period = curve.projective_period
    while True:
        try:
            return _count_on_grid(curve, p, F, period, grid, tol)
        except _Retry:
            grid *= 2
            if grid > MAX_GRID:
                raise PrecisionError(
                    "unresolved zero cluster of the tangency function; "
                    "perturb the point or raise the resolution"
                ) from None


class _Retry(Exception):
    pass


def _continuation_sign(F: fourier.TrigPoly, period: float) -> float:
    """eta with F(t + period) = eta * F(t); +/-1 for consistent spectra."""
    c = F.coeffs
    K = fourier.halfspan(c)
    mags = np.abs(c)
    ks = np.nonzero(mags > 1e-12 * mags.max())[0] - K
    if ks.size == 0:
        return 1.0
    phases = np.exp(0.5j * ks * period)
    eta = np.sign(phases[0].real)
    if np.abs(phases - eta).max() > 1e-8:
        raise DegeneracyError("tangency function is not (anti)periodic over the stated period")
    return float(eta)


_GRID_OFFSET = 1.0 / np.pi  # irrational cell offset; keeps zeros off sample points


def _count_on_grid(curve, p, F, period, grid, tol) -> RootCount:
    n = curve.n
    width = period / grid
    ts = (np.arange(grid) + _GRID_OFFSET) * width
    eta = _continuation_sign(F, period)
    base0 = F.sample(ts)
    base1 = F.sample(ts, order=1)
    # rotate so the scan starts at the global max of |F|: a zero band can then
    # never straddle the seam, and the wrapped tail picks up the sign eta
    shift = int(np.argmax(np.abs(base0)))
    idx = (np.arange(grid) + shift) % grid
    wrapped = (np.arange(grid) + shift) >= grid
    sgn = np.where(wrapped, eta, 1.0)
    f0 = np.append(base0[idx] * sgn, eta * base0[shift])
    f1 = np.append(base1[idx] * sgn, eta * base1[shift])
    te = np.append(ts[idx] + wrapped * period, ts[shift] + period)
    scale = np.abs(f0).max()
    if scale == 0.0 or not np.isfinite(scale):
        raise DegeneracyError("tangency function vanished identically")
    zero_thr = tol.zero_rel * scale
    dip_thr = 1e-4 * scale

    s = np.where(f0 > zero_thr, 1, np.where(f0 < -zero_thr, -1, 0))
    roots: list[float] = []

    # odd-order zeros: definite sign changes, hopping over any zero band
    if np.all(s != 0):
        for i in np.nonzero(s[:-1] * s[1:] < 0)[0]:
            roots.append(_refine_bracket(F, te[i], te[i + 1]) % period)
    else:
        i = 0
        while i < grid:
            if s[i] == 0:
                i += 1
                continue
            j = i + 1
            while j <= grid and s[j] == 0:
                j += 1
            if j > grid:
                break
            if s[j] == -s[i]:
                roots.append(_refine_bracket(F, te[i], te[j]) % period)
            i = j

    # even-order zeros live at extrema of F; refine an extremum whenever the
    # cell values and slopes admit |F| reaching the zero band inside the cell
    F1 = F.deriv(1)
    absf0 = np.abs(f0)
    lo = np.minimum(absf0[:-1], absf0[1:])
    reach = lo - 2.0 * width * np.maximum(np.abs(f1[:-1]), np.abs(f1[1:]))
    cand = (f1[:-1] * f1[1:] < 0) & (reach <= dip_thr)
    for i in np.nonzero(cand)[0]:
        tstar = _refine_bracket(F1, te[i], te[i + 1])
        v = float(F(tstar))
        if abs(v) <= zero_thr:
            roots.append(tstar % period)
        elif s[i] != 0 and s[i] == s[i + 1] and s[i] * v < 0:
            raise _Retry  # two crossings hidden in one cell; split them

    clusters = merge_moments(roots, period, tol)
    dscales: dict[int, float] = {0: scale, 1: np.abs(f1).max()}
    sites = [
        _assign_order(F, tau, ts, dscales, zero_thr, n, period, tol)
        for tau, _size in clusters
    ]
    # polished locations of one zero found twice coincide; keep one per site
    tangencies = _cluster_sites(sites, period, tol.merge)
    total = sum(m for _, m in tangencies)
    return RootCount(tuple(sorted(tangencies)), total)


def _cluster_sites(sites, period, merge_tol):
    if not sites:
        return []
    out: list[list] = []
    for tau, m in sorted(sites):
        if out and tau - out[-1][0] <= merge_tol:
            out[-1][1] = max(out[-1][1], m)
        else:
            out.append([tau, m])
    if len(out) > 1 and (out[0][0] + period) - out[-1][0] <= merge_tol:
        out[0][1] = max(out[0][1], out[-1][1])
        out.pop()
    return [(tau, m) for tau, m in out]


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


def _assign_order(F, tau, ts, dscales, zero_thr, n, period, tol):
    """Order of tau as a zero of F, relocating tau for high orders.

    A zero of order m is pinned down by values of F alone only to about
    eps**(1/m), which poisons a derivative scan at the crude location.  For
    each hypothetical order m, descending, the same zero is a simple zero of
    F^(m-1) and Newton recovers it to machine accuracy; the first hypothesis
    whose rescan at the polished point is internally consistent wins.  The
    polish window scales with the intrinsic location uncertainty, so a
    hypothesis cannot swallow a genuinely distinct neighbouring zero.
    """
    eps = np.finfo(float).eps

    def scale(j: int) -> float:
        if j not in dscales:
            dscales[j] = np.abs(F.sample(ts, order=j)).max()
        return dscales[j]

    fact = 1.0
    deltas = {}
    for m in range(2, n + 1):
        fact *= m
        s_m = max(scale(m), eps * scale(0))
        deltas[m] = (eps * scale(0) * fact / s_m) ** (1.0 / m)

    for m in range(n, 1, -1):
        window = 10.0 * deltas[m] + 1e-12
        t2 = _newton_polish(F.deriv(m - 1), tau, window)
        if t2 is None:
            continue
        if abs(float(F(t2))) > zero_thr:
            continue
        if any(abs(float(F(t2, order=j))) > tol.deriv_rel * scale(j)
               for j in range(1, m)):
            continue
        if abs(float(F(t2, order=m))) > tol.deriv_rel * scale(m):
            return t2 % period, m
    if abs(float(F(tau, order=1))) > tol.deriv_rel * scale(1):
        return tau % period, 1
    raise PrecisionError(
        f"cannot certify the tangency order at t={tau:.12g}; "
        "the derivative scan is inconclusive at every order"
    )
