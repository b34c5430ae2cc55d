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
eigenvalues crowd it; the sites are then grouped once within MERGE, one
zero per group.  order_of_tangency reads the same order off the
osculating flag.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fourier
from .errors import DegeneracyError, PrecisionError
from .projective import (MERGE, circular_clusters, circular_gap, fold,
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


def order_of_tangency(curve, p, tau: float) -> int:
    """Largest i with p inside the codimension-i osculating subspace at tau.

    Requires p to lie on the osculating hyperplane at tau; equals the order of
    tau as a zero of F_p.  Membership is decided by rank, not differentiation,
    which keeps it usable for merged zero clusters.  A vanishing jet row, as
    at a cusp, raises DegeneracyError.
    """
    n = curve.n
    v = _point_vec(p, n + 1)
    for m in range(n):
        if osculating_subspace(curve, tau, m).contains(v):
            return n - m
    raise ValueError("point is not on the osculating hyperplane at tau")


_ZERO_REL = 1e-10       # |F_p| below _ZERO_REL times max |F_p| flags a tangency
_UNIT_BAND = 1e-2       # ||u| - 1| of root candidates; high-order zeros split off the circle
_DERIV_REL = 1e-6       # a derivative is nonzero above _DERIV_REL times its scale


BLOCK_ROWS = 64   # row cap of the samplers' blocks; bounds the scale products at about 4 MB


def block_sizes():
    """Row counts of a sampler's successive count_roots_many blocks.

    1, 2, 4, ... up to BLOCK_ROWS, then BLOCK_ROWS: a sampler that stops
    early, at a witness of non-convexity, counts few rows past its stop.
    """
    k = 1
    while True:
        yield k
        k = min(2 * k, BLOCK_ROWS)


def block_note(tally) -> str:
    """DEBUG text of a sampler's block tally (a Counter of rows counted,
    blocks, rows walked and rows scanned above order 1)."""
    return (f"{tally['rows']} rows counted in {tally['blocks']} blocks, "
            f"{tally['rows'] - tally['walked']} past the stop, "
            f"{tally['scanned']} scanned above order 1")


def count_roots(curve, p) -> RootCount:
    """All tangency moments of p with orders; total counted with multiplicity.

    A zero whose order cannot be certified raises PrecisionError.  This is
    the one-row call of count_roots_many.
    """
    rc = count_roots_many(curve, [p])[0]
    if isinstance(rc, Exception):
        raise rc
    return rc


def count_roots_many(curve, points, stats=None) -> list:
    """count_roots of each point: its RootCount, or the exception it raises.

    The work shared by the rows is stacked, and each stacked product rounds
    as the one-row product it replaces: the F_p rows are one product with
    dual_coeffs, each scale is one gemv per row on the scale grid, the
    folded companion matrices share one eigvals, and the candidate values
    are one gemv per row for each candidate count.  A row whose end
    coefficient is 0 (np.roots strips it) or whose companion matrix is not
    finite goes through np.roots.  The order scan runs per row on its kept
    sites.  A dual spectrum that mixes residue classes raises for the whole
    call.  stats, a Counter, gains "scanned": the rows whose order scan
    goes above order 1 (roots and two or more candidates).
    """
    n = curve.n
    s, j0 = curve.dual_fold
    period = curve.projective_period
    out: list = [None] * len(points)
    rows, V = [], []
    for i, p in enumerate(points):
        try:
            V.append(_point_vec(p, n + 1))
            rows.append(i)
        except Exception as exc:
            out[i] = exc
    if not rows:
        return out
    # F_p = (-1)^n <gamma*, p>, row by row as tangency_function builds it
    R = (-1) ** n * np.matmul(np.array(V)[:, None, :], curve.dual_coeffs)[:, 0]
    Fs = [fourier.TrigPoly(r) for r in R]
    H = np.array([F.coeffs for F in Fs])
    scale0 = _scales(curve, H)
    zero_thr = _ZERO_REL * scale0
    # u^K F = u^j0 Q(u^s): one eigenvalue w = u^s per zero on the period
    W = _stacked_roots(H[:, j0::s][:, ::-1])
    cands = [np.array([fold(a, period) for a in (2.0 / s) * np.angle(
                 w[np.abs(np.abs(w) ** (1.0 / s) - 1.0) <= _UNIT_BAND])])
             if isinstance(w, np.ndarray) else np.zeros(0) for w in W]
    counts = [c.size for c in cands]
    nu = fourier.frequencies(fourier.halfspan(H))
    roots = list(cands)
    for k in set(counts) - {0}:
        idx = [r for r, c in enumerate(counts) if c == k]
        C = np.array([cands[r] for r in idx])
        ph = np.exp(1j * np.multiply.outer(C, nu))
        G, thr = (H, zero_thr) if len(idx) == len(H) else (H[idx], zero_thr[idx])
        keep = np.abs(np.real(np.matmul(ph, G[..., None]))[..., 0]) <= thr[:, None]
        for r, c_r, keep_r in zip(idx, C, keep):
            roots[r] = c_r[keep_r]
    # a row's order scan reads scale(j) only up to its candidate count; its
    # F keeps the derivative coefficients that the scan evaluates again
    top = [min(k, n) if rt.size else 0 for k, rt in zip(counts, roots)]
    D = [F.deriv_coeffs(j) for F, t in zip(Fs, top) for j in range(1, t + 1)]
    higher = iter(_scales(curve, np.array(D)) if D else ())
    if stats is not None:
        stats.update(scanned=sum(t >= 2 for t in top))
    for r, i in enumerate(rows):
        scale = [scale0[r], *itertools.islice(higher, top[r])]
        if scale[0] == 0.0 or not np.isfinite(scale[0]):
            out[i] = DegeneracyError("tangency function vanished identically")
        elif not isinstance(W[r], np.ndarray):
            out[i] = W[r]
        elif not top[r]:
            out[i] = RootCount((), 0)
        else:
            try:
                out[i] = _tally(Fs[r], roots[r], cands[r], scale,
                                zero_thr[r], n, period)
            except Exception as exc:
                out[i] = exc
    return out


def _stacked_roots(P: np.ndarray) -> list:
    """np.roots of each row of descending coefficients P, or the error it raises.

    The finite companion matrices of rows with nonzero end coefficients
    share one eigvals, which gives np.roots' bits; the other rows go through
    np.roots itself.  A block whose end coefficients are all nonzero tries
    that eigvals on every row first and sorts its rows only when a
    companion matrix is not finite.
    """
    N, d = P.shape[0], P.shape[1] - 1
    A = np.zeros((N, d, d), complex)
    A.reshape(N, d * d)[:, d::d + 1] = 1.0      # the subdiagonal
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        A[:, :1] = -P[:, None, 1:] / P[:, None, :1]
    if P[:, 0].all() and P[:, -1].all():
        try:
            return list(np.linalg.eigvals(A))
        except np.linalg.LinAlgError:
            pass        # a companion matrix that is not finite: sort the rows
    own = (P[:, 0] == 0) | (P[:, -1] == 0) | ~np.isfinite(A[:, :1]).all(axis=(1, 2))
    stacked = iter(np.linalg.eigvals(A[~own]))
    out = []
    for row, alone in zip(P, own):
        try:
            out.append(np.roots(row) if alone else next(stacked))
        except Exception as exc:
            out.append(exc)
    return out


def _scales(curve, D: np.ndarray) -> np.ndarray:
    """max |F| on the curve's scale grid for each row D of coefficients.

    One gemv per row, as fourier.evaluate makes it (a GEMM rounds
    otherwise), and BLOCK_ROWS rows per product.
    """
    out = np.empty(len(D))
    for k in range(0, len(D), BLOCK_ROWS):
        vals = np.matmul(curve.scale_phases, D[k:k + BLOCK_ROWS, :, None])[..., 0]
        out[k:k + BLOCK_ROWS] = np.abs(np.real(vals)).max(axis=1)
    return out


def _tally(F, roots, cands, scale, zero_thr, n, period) -> RootCount:
    """RootCount of F from its zero candidates roots, one site per group."""
    sites = sorted(_assign_order(F, tau, cands, scale, zero_thr, n, period)
                   for tau in roots)
    # the eigenvalues of one zero polish to one location: keep the first
    # site of each group (across the seam, the one at or above 0)
    groups = circular_clusters([t for t, _ in sites], period, MERGE)
    tangencies = [(sites[min(g)][0], max(sites[i][1] for i in g)) for g in groups]
    return RootCount(tuple(sorted(tangencies)), sum(m for _, m in tangencies))


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


def _assign_order(F, tau, cands, scale, zero_thr, n, period):
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
        s_m = max(scale[m], eps * scale[0])
        window = 10.0 * (eps * scale[0] * math.factorial(m) / s_m) ** (1.0 / m) + 1e-12
        if gaps[m - 1] > 2.0 * window:
            continue
        t2 = _newton_polish(F.deriv(m - 1), tau, window)
        if t2 is None:
            continue
        if abs(float(F(t2))) > zero_thr:
            continue
        if any(abs(float(F(t2, order=j))) > _DERIV_REL * scale[j]
               for j in range(1, m)):
            continue
        if abs(float(F(t2, order=m))) > _DERIV_REL * scale[m]:
            return fold(t2, period), m
    if abs(float(F(tau, order=1))) > _DERIV_REL * scale[1]:
        return fold(tau, period), 1
    raise PrecisionError(
        f"cannot certify the tangency order at t={tau:.12g}; "
        "the derivative scan is inconclusive at every order"
    )
