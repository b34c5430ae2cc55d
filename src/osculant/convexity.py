"""Convexity certificates for closed curves in projective space.

A closed curve is convex when every hyperplane meets it with total
multiplicity at most n.  Two computable shadows of that property are
implemented here: a root-count bound over random points, and transversality
of osculating-subspace intersections over moment tuples.  Sampling can only
certify failure, so a passing report means "no violation found at the stated
trial count", never a proof.

The intersection criterion gets a second, deterministic phase: violations
such as bitangent hyperplanes live on measure-zero subsets of the moment
torus, which random tuples miss almost surely.  The (1, n-1) and (n-1, 1)
compositions are proved clean when they are: if no osculating hyperplane
meets the curve again, none contains a tangent line.  That is a proof over
the whole moment torus, near the diagonal too, and it settles every
two-part composition of a curve with n <= 3.  The remaining compositions
get a coarse scan over a moment grid followed by a pattern search for
the smallest stacked singular value, which finds violations reliably but
proves nothing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import fourier, projective
from .config import DEFAULT, Tolerances
from .errors import PrecisionError
from .tangency import count_roots

_log = logging.getLogger("osculant")

PAIR_SCAN_GRID = 96
HYPERPLANE_GRID = 256
_SIGMA_VIOLATION = 1e-7


@dataclass(frozen=True)
class ConvexityReport:
    """Outcome of a convexity check; a failing verdict carries a witness."""

    verdict: bool
    trials: int
    max_roots_seen: int | None = None
    witness: Any = None
    notes: str = ""

    def __bool__(self) -> bool:
        return self.verdict


def check_convex_sampling(curve, trials: int = 1000, rng=None,
                          tol: Tolerances = DEFAULT) -> ConvexityReport:
    """Test the root-count bound over random points of projective space.

    Points are drawn from the rotation-invariant distribution (normalized
    Gaussian vectors).  Any point with more than n tangent hyperplanes
    counted with multiplicity disproves convexity and is returned as the
    witness.  Points that defeat the root counter are redrawn, with a cap
    of 5 percent of the requested trials.
    """
    rng = np.random.default_rng(rng)
    n = curve.n
    retry_cap = max(5, trials // 20)
    retries = 0
    max_seen = 0
    done = 0
    while done < trials:
        p = rng.standard_normal(n + 1)
        try:
            rc = count_roots(curve, p, tol)
        except PrecisionError:
            retries += 1
            if retries > retry_cap:
                raise
            continue
        done += 1
        max_seen = max(max_seen, rc.total)
        if rc.total > n:
            return ConvexityReport(
                False, done, max_seen,
                witness={"point": tuple(float(x) for x in p),
                         "total": rc.total,
                         "tangencies": rc.tangencies},
                notes=f"found a point with {rc.total} > {n} "
                      "tangent hyperplanes",
            )
    return ConvexityReport(True, done, max_seen,
                           notes=f"no violation found in {done} trials")


def _random_composition(n: int, rng) -> tuple[int, ...]:
    r = int(rng.integers(1, n + 1))
    if r == 1:
        return (n,)
    cuts = np.sort(rng.choice(np.arange(1, n), size=r - 1, replace=False))
    return tuple(int(x) for x in np.diff(np.concatenate(([0], cuts, [n]))))


def _annihilators(curve, ts, k, tol) -> np.ndarray:
    """Annihilators of the codimension-k osculating subspaces at moments ts.

    Shape (len(ts), k, n+1): the trailing k rows of each osculating frame.
    """
    n = curve.n
    return projective.osculating_frame(curve.jet_grid(ts, n - k), tol)[:, n - k + 1:]


def _sigma_block(curve, k, ts1, ts2, scan_sep, tol) -> np.ndarray:
    """sigma of the composition (k, n-k) on the moment grid ts1 x ts2.

    sigma[i, j] is the smallest singular value of the stacked annihilators
    at moments (ts1[i], ts2[j]); pairs closer than scan_sep are +inf.  The
    block of (n-k, k) on ts2 x ts1 has the same singular values, so it is
    this block transposed.
    """
    n = curve.n
    a1, a2 = _annihilators(curve, ts1, k, tol), _annihilators(curve, ts2, n - k, tol)
    shape = (len(ts1), len(ts2))
    stacked = np.concatenate((np.broadcast_to(a1[:, None], (*shape, k, n + 1)),
                              np.broadcast_to(a2[None, :], (*shape, n - k, n + 1))),
                             axis=2)
    sig = np.linalg.svd(stacked, compute_uv=False)[..., -1]
    gap = projective.circular_gap(np.subtract.outer(ts1, ts2), 0.0,
                                  curve.projective_period)
    sig[gap < scan_sep] = np.inf
    return sig


def _pattern_search(curve, k, x, step, scan_sep, tol):
    """Local minimum of sigma of (k, n-k) near moments x; returns (x, sigma, values).

    Each step evaluates a 5x5 window of spacing step centred on x and moves
    to its smallest sigma; when the centre is smallest, the step shrinks
    fourfold.  The search stops once the step is below 1e-13 or after 400
    steps.  values counts the sigma values computed.
    """
    offsets = np.arange(-2, 3)
    sig, steps = np.inf, 0
    while step >= 1e-13 and steps < 400:
        window = _sigma_block(curve, k, x[0] + step * offsets,
                              x[1] + step * offsets, scan_sep, tol)
        steps += 1
        sig = float(window.min())
        if window[2, 2] <= sig:
            step /= 4.0
        else:
            i, j = np.unravel_index(np.argmin(window), window.shape)
            x = (x[0] + step * offsets[i], x[1] + step * offsets[j])
    return x, sig, 25 * steps


def _intersection_dim_stable(curve, parts, moments, tol) -> int:
    n = curve.n
    anns = [projective.osculating_frame(curve.jet(float(t), n - k), tol)[n - k + 1:]
            for k, t in zip(parts, moments)]
    dim, dim10 = (len(null) - 1 for null in projective.joint_null(
        anns, tol.rank_rel, 10 * tol.rank_rel))
    if dim != dim10:
        raise PrecisionError(
            f"intersection dimension flips from {dim} to {dim10} under a "
            f"10x rank tolerance at moments {tuple(moments)}"
        )
    return dim


def _pair_scan(curve, tol, first=1):
    """Deterministic sweep for rank drops of two-part intersections.

    Scans the compositions (k, n-k) with first <= k <= n-k.  Near the
    diagonal the two subspaces mathematically collapse onto each other (up
    to cubically in the gap), so moments closer than 5 percent of the
    period are excluded; check_convex_criterion covers those cells of
    (1, n-1) with _hyperplane_certificate, and violations at shorter range
    in other compositions reveal themselves to the sampling bound instead.
    Each composition gets one _sigma_block on a PAIR_SCAN_GRID^2 grid; its
    local minima under 0.15 times the median, at most 12 and smallest
    first, are refined by _pattern_search on the same evaluator.  A
    candidate only becomes a witness if the refined minimum is a
    certified rank drop: tiny smallest singular value and a
    tolerance-stable nonzero intersection dimension.

    One search of (k, n-k) with k <= n-k stands for its mirror (n-k, k)
    as well.  When k = n-k, a candidate (i, j) whose mirror (j, i) was
    already refined is skipped: had that refinement found a witness, the
    scan would have ended there.
    """
    n = curve.n
    period = curve.projective_period
    scan_sep = max(0.05 * period, tol.moment_sep * period)
    grid = np.arange(PAIR_SCAN_GRID) * (period / PAIR_SCAN_GRID)
    for k1 in range(first, n // 2 + 1):
        parts = (k1, n - k1)
        sig = _sigma_block(curve, k1, grid, grid, scan_sep, tol)
        trigger = 0.15 * np.median(sig[np.isfinite(sig)])
        neighborhood = np.stack([
            np.roll(np.roll(sig, di, axis=0), dj, axis=1)
            for di in (-1, 0, 1) for dj in (-1, 0, 1)
            if (di, dj) != (0, 0)
        ])
        local_min = sig <= neighborhood.min(axis=0)
        order = np.argsort(np.where(local_min, sig, np.inf), axis=None)
        refined, evals, best = 0, 0, np.inf
        starts, skipped = set(), 0
        witness = None
        for flat in order[:12]:
            i, j = np.unravel_index(flat, sig.shape)
            if not local_min[i, j] or sig[i, j] > trigger:
                break
            if parts == parts[::-1] and (j, i) in starts:
                skipped += 1
                continue
            starts.add((i, j))
            x, fun, values = _pattern_search(curve, k1, (grid[i], grid[j]),
                                             grid[1], scan_sep, tol)
            refined, evals = refined + 1, evals + values
            best = min(best, fun)
            if fun >= _SIGMA_VIOLATION:
                continue
            t1, t2 = (projective.fold(t, period) for t in x)
            try:
                dim = _intersection_dim_stable(curve, parts, (t1, t2), tol)
            except PrecisionError:
                continue
            if dim != 0:
                witness = {"composition": parts, "moments": (t1, t2),
                           "sigma_min": fun, "dim": dim}
                break
        _log.debug("pair scan %s: covers %s by transpose, %d candidates "
                   "refined, %d mirror candidates skipped, %d evaluations, "
                   "smallest refined sigma %.3g",
                   parts, parts[::-1], refined, skipped, evals, best)
        if witness is not None:
            return witness
    return None


def _hyperplane_certificate(curve, tol):
    """Prove that no osculating hyperplane meets the curve again.

    The pairing <gamma*(t1), gamma(t1 + s)> vanishes to order n at every s
    in P*Z (P the projective period), so h(t1, s) = <gamma*(t1),
    gamma(t1 + s)> / sin^n(pi s / P) is a trig polynomial.  A zero-free h
    means that the osculating hyperplane at each t1 meets the curve only
    at t1, with order exactly n; then no tangent line lies in an
    osculating hyperplane, which rules out every (1, n-1) and (n-1, 1)
    rank drop, near the diagonal too.

    h is evaluated on a HYPERPLANE_GRID^2 grid over the 4pi x 4pi lift.
    It has no zero when every grid value has one sign and min|h| exceeds
    half a grid step times sum |Q| (|nu_t1| + |nu_s|), a bound on how far
    h moves between grid points, plus the rounding bound of the
    evaluation: 8 eps sum |Q| (number of coefficients + largest phase
    argument).  Returns (certified, witness).  witness is a zero of h when
    h takes both signs beyond the rounding bound, else None.  Neither
    holds unless the deflation remainder (relative to its row) and Im h
    (relative to sum |Q|) stay below tol.rank_rel.  Never raises; a curve
    it cannot decide is left to the pair scan.
    """
    n, K, period = curve.n, curve.K, curve.projective_period
    dual = curve.dual_coeffs
    Kd = fourier.halfspan(dual)
    turns = round(4.0 * np.pi / period)     # periods in the 4pi lift
    Ks = K - turns * n // 2
    if Ks < 0:
        _log.debug("osculating-hyperplane certificate: the pairing has "
                   "span %d, below its %d forced zeros", 2 * K, turns * n)
        return False, None
    # row m of the pairing in (t1, s) collects G[m - b, b]
    pairing = dual.T @ curve.coeffs
    rows = np.zeros((2 * (Kd + K) + 1, 2 * K + 1), complex)
    for b in range(2 * K + 1):
        rows[b:b + 2 * Kd + 1, b] = pairing[:, b]
    top = np.abs(rows).max(axis=1)
    rows[top <= 1e-12 * top.max()] = 0.0    # rows of pure rounding
    # (u^turns - 1)^n = u^(turns n / 2) (2i)^n sin^n(pi s / P), u = e^(is/2)
    roots = np.exp(2j * np.pi * np.arange(turns) / turns)
    q, remainder = fourier.deflate(rows, roots, n)
    q *= (2j) ** n
    ts = fourier.sample_grid(HYPERPLANE_GRID)
    nu1, nu2 = fourier.frequencies(Kd + K), fourier.frequencies(Ks)
    h = fourier.phase_matrix(ts, Kd + K) @ q @ fourier.phase_matrix(ts, Ks).T
    mass = np.abs(q).sum()
    imag, h = np.abs(h.imag).max(), h.real
    slack = 0.5 * ts[1] * (np.abs(q) * np.add.outer(np.abs(nu1),
                                                     np.abs(nu2))).sum()
    rounding = 8 * np.finfo(float).eps * mass * (
        q.size + ts[-1] * (nu1[-1] + nu2[-1]))
    lo, hi = float(h.min()), float(h.max())
    margin = max(lo, -hi)       # min|h| when h has one sign
    if remainder > tol.rank_rel or imag > tol.rank_rel * mass:
        _log.debug("osculating-hyperplane certificate: not decided, "
                   "deflation remainder %.3g, |Im h| %.3g", remainder, imag)
        return False, None
    if margin > slack + rounding:
        _log.debug("pair scan %s: certified by osculating-hyperplane "
                   "positivity, covers %s; margin %.3g over slack %.3g and "
                   "rounding %.3g on a %dx%d grid, deflation remainder %.3g",
                   (1, n - 1), (n - 1, 1), margin, slack, rounding,
                   HYPERPLANE_GRID, HYPERPLANE_GRID, remainder)
        return True, None
    if lo < -rounding and hi > rounding:
        t1, s = _zero_between_cells(h, q, ts, nu1, nu2)
        _log.debug("osculating-hyperplane certificate: h changes sign, "
                   "range [%.3g, %.3g]", lo, hi)
        return False, {"moments": (projective.fold(t1, period),
                                   projective.fold(t1 + s, period)),
                       "h_range": (lo, hi)}
    _log.debug("osculating-hyperplane certificate: not decided, h in "
               "[%.3g, %.3g], margin %.3g under slack %.3g and rounding "
               "%.3g", lo, hi, margin, slack, rounding)
    return False, None


def _zero_between_cells(h, q, ts, nu1, nu2):
    """(t1, s) with h = 0, bisected between neighbors of opposite sign.

    h holds the grid values; the first neighboring pair along s with
    opposite signs is taken, else the first along t1.
    """
    pos = h > 0
    for axis in (1, 0):
        cells = np.argwhere(pos != np.roll(pos, -1, axis=axis))
        if len(cells):
            break
    i, j = cells[0]
    shift = np.array([0.0, 1.0] if axis == 1 else [1.0, 0.0])
    start = np.array([ts[i], ts[j]])
    near, far = 0.0, ts[1]
    for _ in range(60):
        mid = 0.5 * (near + far)
        t1, s = start + mid * shift
        value = np.real(np.exp(1j * t1 * nu1) @ q @ np.exp(1j * s * nu2))
        if (value > 0) == pos[i, j]:
            near = mid
        else:
            far = mid
    t1, s = start + 0.5 * (near + far) * shift
    return float(t1), float(s)


def check_convex_criterion(curve, samples: int = 500, rng=None,
                           tol: Tolerances = DEFAULT,
                           pair_scan: bool = True) -> ConvexityReport:
    """Transversality of osculating-subspace intersections.

    For random compositions (k_1, ..., k_r) of n and separated moment
    tuples, the intersection of the subspaces of codimension k_i at t_i
    must be a single point.  The rank decision must hold at the working
    tolerance and at ten times the working tolerance, otherwise a precision
    error is raised.  Deterministic checks then hunt for the measure-zero
    violations random tuples cannot see.  _hyperplane_certificate proves
    (1, n-1) and (n-1, 1) clean over the whole moment torus, near the
    diagonal too, when it can; the pair scan covers every composition it
    did not prove, so a curve with n <= 3 that it certifies needs no scan.
    If the scan finds no witness but the certificate found an osculating
    hyperplane that meets the curve again, the criterion fails with that
    zero of h as its witness.
    """
    rng = np.random.default_rng(rng)
    n = curve.n
    period = curve.projective_period
    sep = tol.moment_sep * period
    for _ in range(samples):
        parts = _random_composition(n, rng)
        moments = projective.separated_moments(len(parts), period, sep, rng)
        dim = _intersection_dim_stable(curve, parts, moments, tol)
        if dim != 0:
            return ConvexityReport(
                False, samples,
                witness={"composition": parts,
                         "moments": tuple(float(t) for t in moments),
                         "dim": dim},
                notes="osculating intersection is not a point",
            )
    if pair_scan:
        certified, meets = _hyperplane_certificate(curve, tol)
        witness = _pair_scan(curve, tol, first=2 if certified else 1)
        if witness is not None:
            return ConvexityReport(
                False, samples, witness=witness,
                notes="pair scan found a rank drop",
            )
        if meets is not None:
            return ConvexityReport(
                False, samples, witness=meets,
                notes="an osculating hyperplane meets the curve again",
            )
    scanned = " plus a deterministic pair scan" if pair_scan else ""
    return ConvexityReport(
        True, samples,
        notes=f"all {samples} random intersections are points{scanned}")
