"""Convexity certificates for closed curves in projective space.

A closed curve is convex when every hyperplane meets it with total
multiplicity at most n.  Two computable shadows of that property are
implemented here: a root-count bound over random points, and transversality
of osculating-subspace intersections over moment tuples.  Sampling can only
certify failure, so a passing report means "no violation found at the stated
trial count", never a proof.

The intersection criterion gets a second, deterministic phase: violations
such as bitangent hyperplanes live on measure-zero subsets of the moment
torus, which random tuples miss almost surely.  Each two-part composition
(k, n-k) with its mirror (n-k, k) is proved clean when it is: a rank drop
puts a hyperplane through the codimension-k osculating subspace at one
moment that meets the curve k+1 times at another, and a Wronskian of one
sign rules that out over the whole moment torus, near the diagonal too.
For k = 1 the Wronskian is the pairing of the osculating hyperplane with
the curve.  Compositions that no Wronskian proves get a coarse scan over a
moment grid followed by a pattern search for the smallest stacked
singular value, which finds violations reliably but proves nothing.
This phase reads the curve alone, never the rng, so each curve keeps it
(ParamCurve.two_part_proof).  The random tuples are all drawn first and
decided in one stacked pass per composition.
"""

from __future__ import annotations

import functools
import itertools
import logging
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from . import fourier, projective
from .errors import DegeneracyError, PrecisionError
from .projective import RANK_REL
from .tangency import count_roots

_log = logging.getLogger("osculant")

PAIR_SCAN_GRID = 96
HYPERPLANE_GRID = 256
REFINE_DEPTH = 4
REFINE_CELLS = HYPERPLANE_GRID ** 2
_SIGMA_VIOLATION = 1e-7
MOMENT_SEP = 1e-3       # min spacing of sampled moments, fraction of the period


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


def check_convex_sampling(curve, trials: int = 1000,
                          rng=None) -> ConvexityReport:
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
            rc = count_roots(curve, p)
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


def _annihilators(curve, ts, k) -> np.ndarray:
    """Annihilators of the codimension-k osculating subspaces at moments ts.

    Shape (len(ts), k, n+1): the trailing k rows of each osculating frame.
    """
    n = curve.n
    return projective.osculating_frame(curve.jet_grid(ts, n - k))[:, n - k + 1:]


def _sigma_block(curve, k, ts1, ts2, scan_sep) -> np.ndarray:
    """sigma of the composition (k, n-k) on the moment grid ts1 x ts2.

    sigma[i, j] is the smallest singular value of the stacked annihilators
    at moments (ts1[i], ts2[j]); pairs closer than scan_sep are +inf.  The
    block of (n-k, k) on ts2 x ts1 has the same singular values, so it is
    this block transposed.
    """
    n = curve.n
    a1, a2 = _annihilators(curve, ts1, k), _annihilators(curve, ts2, n - k)
    shape = (len(ts1), len(ts2))
    stacked = np.concatenate((np.broadcast_to(a1[:, None], (*shape, k, n + 1)),
                              np.broadcast_to(a2[None, :], (*shape, n - k, n + 1))),
                             axis=2)
    sig = np.linalg.svd(stacked, compute_uv=False)[..., -1]
    gap = projective.circular_gap(np.subtract.outer(ts1, ts2), 0.0,
                                  curve.projective_period)
    sig[gap < scan_sep] = np.inf
    return sig


def _pattern_search(curve, k, x, step, scan_sep):
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
                              x[1] + step * offsets, scan_sep)
        steps += 1
        sig = float(window.min())
        if window[2, 2] <= sig:
            step /= 4.0
        else:
            i, j = np.unravel_index(np.argmin(window), window.shape)
            x = (x[0] + step * offsets[i], x[1] + step * offsets[j])
    return x, sig, 25 * steps


def _stacked_sigmas(curve, parts, moments) -> np.ndarray:
    """Singular values of the stacked annihilators at each row of moments.

    One osculating_frame per part serves every row, and each row's SVD is
    joint_null's full one, so it has the bits of that row alone (with
    compute_uv=False they may round otherwise).  Raises DegeneracyError as
    osculating_frame does when any row's jet is degenerate.
    """
    n = curve.n
    moments = np.asarray(moments, float)
    anns = [projective.osculating_frame(
        curve.jet(moments[:, j], n - k))[:, n - k + 1:]
        for j, k in enumerate(parts)]
    return np.linalg.svd(np.concatenate(anns, axis=1))[1]


def _rank_decisions(curve, parts, draws) -> list:
    """Intersection dimension of composition parts at each moment tuple of draws.

    Each entry is the dimension at RANK_REL, or the error that refuses the
    draw: a PrecisionError when the dimension flips under ten times
    RANK_REL, a DegeneracyError when a jet drops rank.  A degenerate stack
    is decided draw by draw.
    """
    try:
        s = _stacked_sigmas(curve, parts, draws)
    except DegeneracyError as err:
        if len(draws) == 1:
            return [err]
        return [d for m in draws for d in _rank_decisions(curve, parts, [m])]
    dims, dims10 = (curve.n - np.sum(s > rel * s[:, :1], axis=1)
                    for rel in (RANK_REL, 10 * RANK_REL))
    return [int(dim) if dim == dim10 else PrecisionError(
        f"intersection dimension flips from {dim} to {dim10} under a "
        f"10x rank tolerance at moments {tuple(m)}")
        for dim, dim10, m in zip(dims, dims10, draws)]


def _intersection_dim_stable(curve, parts, moments) -> int:
    """The rank decision of one draw; raises the error that refuses it."""
    dim, = _rank_decisions(curve, parts, [moments])
    if isinstance(dim, Exception):
        raise dim
    return dim


def _pair_scan(curve, skip=()):
    """Deterministic sweep for rank drops of two-part intersections.

    Scans the compositions (k, n-k) with k <= n-k and k not in skip.  Near
    the diagonal the two subspaces mathematically collapse onto each other
    (up to cubically in the gap), so moments closer than 5 percent of the
    period are excluded; check_convex_criterion covers those cells with
    _wronskian_certificate where it decides, and violations at shorter
    range elsewhere reveal themselves to the sampling bound instead.
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
    scan_sep = 0.05 * period
    grid = np.arange(PAIR_SCAN_GRID) * (period / PAIR_SCAN_GRID)
    for k1 in range(1, n // 2 + 1):
        if k1 in skip:
            continue
        parts = (k1, n - k1)
        sig = _sigma_block(curve, k1, grid, grid, scan_sep)
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
                                             grid[1], scan_sep)
            refined, evals = refined + 1, evals + values
            best = min(best, fun)
            if fun >= _SIGMA_VIOLATION:
                continue
            t1, t2 = (projective.fold(t, period) for t in x)
            try:
                dim = _intersection_dim_stable(curve, parts, (t1, t2))
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


def _leibniz(m, signed=True):
    """Determinant (signed) or permanent of the k x k nested list m.

    Entries may be arrays of one shape.  The sum runs over permutations;
    for k = 1 it is the one entry, bit for bit.
    """
    if len(m) == 1:
        return m[0][0]
    terms = []
    for perm in itertools.permutations(range(len(m))):
        term = functools.reduce(operator.mul,
                                (m[p][j] for j, p in enumerate(perm)))
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        terms.append(-term if signed and odd else term)
    return functools.reduce(operator.add, terms)


def _wronskian_coeffs(d):
    """Coefficients of W = det d, from its values on a grid just above Nyquist.

    d[i][j] holds the (t1, s) coefficients of the i-th s-derivative of g_j;
    each term of the determinant multiplies k of them, so spans add.  A
    1 x 1 determinant is its entry.
    """
    k = len(d)
    if k == 1:
        return d[0][0]
    shape = tuple(k * (m - 1) + 1 for m in d[0][0].shape)

    def values(c):
        pad = [((m - e) // 2,) * 2 for m, e in zip(shape, c.shape)]
        return np.fft.ifft2(np.fft.ifftshift(np.pad(c, pad)), norm="forward")

    w = _leibniz([[values(c) for c in row] for row in d])
    return np.fft.fftshift(np.fft.fft2(w, norm="forward"))


def _bisect(value, start, shift, length, positive):
    """start + x * shift, 0 < x < length, where value changes sign.

    (value > 0) is `positive` at start and not at start + length * shift.
    """
    near, far = 0.0, length
    for _ in range(60):
        mid = 0.5 * (near + far)
        if (value(*(start + mid * shift)) > 0) == positive:
            near = mid
        else:
            far = mid
    return start + 0.5 * (near + far) * shift


def _wronskian_certificate(curve, k):
    """Prove that no (k, n-k) or (n-k, k) intersection drops rank.

    The covectors gamma*^(j)(t1), j < k, span the annihilator of the
    codimension-k osculating subspace at t1, and each pairing
    <gamma*^(j)(t1), gamma(t1 + s)> vanishes to order n-k+1 at every s in
    P*Z (P the projective period).  So g_j = pairing / sin^(n-k+1)(pi s/P)
    is a trig polynomial, and so is W(t1, s) = det[d^i g_j / ds^i], i, j < k.
    A (k, n-k) rank drop at (t1, t1 + s) puts both subspaces in a hyperplane
    of the pencil that meets the curve to order k+1 at t1 + s, and W
    vanishes there.  A zero-free W rules out every (k, n-k) and (n-k, k)
    rank drop over the whole moment torus, near the diagonal too.  A zero
    of W gives a hyperplane through the osculating subspace at t1 that
    meets the curve n-k+1 times there and k times at t1 + s, n+1 in all,
    so the curve is not convex.  For k = 1, W is h = <gamma*(t1),
    gamma(t1 + s)> / sin^n(pi s/P), and a zero-free h says that no
    osculating hyperplane meets the curve again.  This is the Wronskian
    test for extended Chebyshev systems (Karlin and Studden, Tchebycheff
    Systems, 1966).

    W's coefficients W_c come from the determinant of the g values on a
    grid just above its Nyquist rate (for k = 1, W_c are h's), and every
    value of W, on the HYPERPLANE_GRID^2 grid over the 4pi x 4pi lift, in
    refined cells and in bisection, is the phase sum over W_c.  W has no
    zero when every grid value has one sign and min|W| exceeds half a grid
    step times sum |W_c| (|nu_t1| + |nu_s|), a bound on how far W moves
    between grid points, plus the rounding bound 8 k eps M (S + largest
    phase argument).  Here S is the number of W_c, and M, the permanent of
    the masses sum |d^i g_j|, bounds sum |W_c|.  A phase sum errs by about
    4 eps M per term of its two sums and eps M per unit of phase argument;
    for k >= 2 the FFTs behind W_c add about 4 (k + 1) log2(S) sqrt(S)
    eps M, under 8 (k - 1) eps M S once S > 100 (S >= 165 on the stock
    curves).  Against an extended-precision evaluation the grid values err
    by under 10 eps M.  Cells whose |W| lies under that slack are refined
    4 x 4, each level quartering the step and the slack, for at most
    REFINE_DEPTH levels of at most REFINE_CELLS cells.  Returns (certified,
    witness).  witness is a zero of W when W takes both signs beyond the
    rounding bound, else None.  Neither holds unless the deflation
    remainders (relative to the largest coefficient of each pairing) and
    Im W (relative to M) stay below RANK_REL.  Never raises; a
    composition it cannot decide is left to the pair scan.
    """
    n, K, period = curve.n, curve.K, curve.projective_period
    dual, parts = curve.dual_coeffs, (k, n - k)
    Kd = fourier.halfspan(dual)
    kind = "osculating-hyperplane" if k == 1 else "Wronskian"
    turns = round(4.0 * np.pi / period)     # periods in the 4pi lift
    Ks = K - turns * (n - k + 1) // 2
    if Ks < 0:
        _log.debug("%s certificate %s: the pairing has span %d, below its "
                   "%d forced zeros", kind, parts, 2 * K, turns * (n - k + 1))
        return False, None
    # row m of each pairing in (t1, s) collects G[m - b, b]
    qs, remainder = [], 0.0
    rows = np.zeros((2 * (Kd + K) + 1, 2 * K + 1), complex)
    for j in range(k):
        pairing = (dual * (1j * fourier.frequencies(Kd)) ** j).T @ curve.coeffs
        for b in range(2 * K + 1):
            rows[b:b + 2 * Kd + 1, b] = pairing[:, b]
        q, rem = fourier.deflate(rows, 0.0, n - k + 1, period)
        qs.append(q)
        remainder = max(remainder, rem)
    d = [[q * (1j * fourier.frequencies(Ks)) ** i for q in qs]
         for i in range(k)]
    wc = _wronskian_coeffs(d)
    K1, K2 = (m // 2 for m in wc.shape)     # k (Kd + K) and k Ks
    nu1, nu2 = fourier.frequencies(K1), fourier.frequencies(K2)

    def values(t1, s):
        """Complex W at t1 (..., A) and s (..., B), in shape (..., A, B)."""
        return fourier.phase_matrix(t1, K1) @ wc @ np.swapaxes(
            fourier.phase_matrix(s, K2), -1, -2)

    ts = fourier.sample_grid(HYPERPLANE_GRID)
    w = values(ts, ts)
    imag, w = np.abs(w.imag).max(), w.real
    mass = _leibniz([[np.abs(c).sum() for c in row] for row in d], signed=False)
    slack = 0.5 * ts[1] * (np.abs(wc) * np.add.outer(
        np.abs(nu1), np.abs(nu2))).sum()
    rounding = 8 * k * np.finfo(float).eps * mass * (
        wc.size + ts[-1] * (nu1[-1] + nu2[-1]))
    lo, hi = float(w.min()), float(w.max())
    margin = max(lo, -hi)       # min|W| when W has one sign
    if remainder > RANK_REL or imag > RANK_REL * mass:
        _log.debug("%s certificate %s: not decided, deflation remainder "
                   "%.3g, |Im W| %.3g", kind, parts, remainder, imag)
        return False, None

    def zero(start, shift, length, positive):
        t1, s = _bisect(lambda t1, s: values([t1], [s])[0, 0].real,
                        start, shift, length, positive)
        _log.debug("%s certificate %s: W changes sign, range [%.3g, %.3g]",
                   kind, parts, lo, hi)
        return False, {"composition": parts,
                       "moments": (projective.fold(float(t1), period),
                                   projective.fold(float(t1 + s), period)),
                       "w_range": (lo, hi)}

    if lo < -rounding and hi > rounding:
        # the first neighboring grid pair of opposite signs along s, else t1
        pos = w > 0
        for axis in (1, 0):
            cells = np.argwhere(pos != np.roll(pos, -1, axis=axis))
            if len(cells):
                break
        i, j = cells[0]
        return zero(np.array([ts[i], ts[j]]),
                    np.array([0.0, 1.0] if axis == 1 else [1.0, 0.0]),
                    ts[1], pos[i, j])
    sign = 1.0 if lo > 0 else -1.0
    # cells under the slack, centred on grid points that stay their roots
    i, j = (np.nonzero(sign * w <= slack + rounding)
            if margin <= slack + rounding else ([], []))
    t1, s = ts[i], ts[j]
    roots = np.stack((t1, s), axis=1)
    step, bound, refined, depth = ts[1], slack, 0, 0
    offsets = np.arange(4) - 1.5
    while margin > rounding and 0 < len(t1) <= REFINE_CELLS \
            and depth < REFINE_DEPTH:
        refined, depth = refined + len(t1), depth + 1
        step, bound = step / 4, bound / 4
        t1 = t1[:, None] + step * offsets
        s = s[:, None] + step * offsets
        v = sign * np.concatenate([
            values(t1[c:c + 1024], s[c:c + 1024]).real
            for c in range(0, len(t1), 1024)])
        wrong = np.argwhere(v < -rounding)
        if len(wrong):
            c, a, b = wrong[0]
            return zero(roots[c], np.array([t1[c, a], s[c, b]]) - roots[c],
                        1.0, sign > 0)
        c, a, b = np.nonzero(v <= bound + rounding)
        t1, s, roots = t1[c, a], s[c, b], roots[c]
    if margin > rounding and not len(t1):
        _log.debug("pair scan %s: certified by %s positivity, covers %s; "
                   "margin %.3g over slack %.3g and rounding %.3g on a %dx%d "
                   "grid, %d cells refined to depth %d, deflation remainder "
                   "%.3g", parts, kind, parts[::-1], margin, slack, rounding,
                   HYPERPLANE_GRID, HYPERPLANE_GRID, refined, depth, remainder)
        return True, None
    _log.debug("%s certificate %s: not decided, W in [%.3g, %.3g], margin "
               "%.3g under slack %.3g and rounding %.3g, %d cells left after "
               "%d refinement levels", kind, parts, lo, hi, margin, slack,
               rounding, len(t1), depth)
    return False, None


class TwoPartProof:
    """What check_convex_criterion proves of a curve's two-part compositions.

    Neither part reads the rng, so ParamCurve.two_part_proof keeps one per
    curve.  certificates holds _wronskian_certificate(curve, k) for each
    k <= n/2, made with the object; scan() runs _pair_scan over the
    compositions that no certificate proved on its first call, and keeps
    the result unless it raises.  Witnesses are handed out as copies.
    """

    def __init__(self, curve):
        self.curve = curve
        self.certificates = tuple(_wronskian_certificate(curve, k)
                                  for k in range(1, curve.n // 2 + 1))
        self.certified = frozenset(
            k for k, (proved, _) in enumerate(self.certificates, 1) if proved)

    def meets(self):
        """The zero of W of the smallest k that has one, else None."""
        w = next((w for _, w in self.certificates if w is not None), None)
        return None if w is None else dict(w)

    @cached_property
    def _scan(self):
        return _pair_scan(self.curve, skip=self.certified)

    def scan(self):
        """The pair scan's witness, else None."""
        return None if self._scan is None else dict(self._scan)


def check_convex_criterion(curve, samples: int = 500, rng=None,
                           pair_scan: bool = True) -> ConvexityReport:
    """Transversality of osculating-subspace intersections.

    For random compositions (k_1, ..., k_r) of n and separated moment
    tuples, the intersection of the subspaces of codimension k_i at t_i
    must be a single point.  All samples tuples are drawn first, so a
    Generator passed as rng advances by samples tuples even when the
    criterion stops early (an integer seed gives the same tuples as
    always).  The tuples of each composition are then decided in one
    stacked pass, and walked in the order drawn: a rank decision must
    hold at RANK_REL and at ten times RANK_REL, otherwise a precision
    error is raised; when a certificate has already found a zero of its
    Wronskian, the walk stops there instead and the checks below decide.
    A degenerate jet raises only when the walk reaches its tuple.
    Deterministic checks hunt for the measure-zero violations random
    tuples cannot see, and read the curve alone: curve.two_part_proof
    keeps them for the next call.  _wronskian_certificate, one call per
    k <= n/2, proves (k, n-k) and (n-k, k) clean over the whole moment
    torus, near the diagonal too, when it can.  A random two-part tuple of
    a proved composition is then counted among the samples as a point
    without a rank decision of its own, so the notes' count includes such
    draws.  The pair scan covers only the compositions that no
    certificate proved, so a curve certified for every k runs no scan.
    If the scan finds no witness but a certificate found a zero of its
    Wronskian, a hyperplane that meets the curve more than n times, the
    criterion fails with the zero of the smallest such k as its witness.
    A call that raises keeps no proof it made.
    """
    made = pair_scan and "two_part_proof" not in vars(curve)
    try:
        return _criterion(curve, samples, np.random.default_rng(rng),
                          pair_scan, made)
    except BaseException:
        if made:
            vars(curve).pop("two_part_proof", None)
        raise


def _criterion(curve, samples, rng, pair_scan, made) -> ConvexityReport:
    n = curve.n
    period = curve.projective_period
    proof = curve.two_part_proof if pair_scan else None
    certified = proof.certified if pair_scan else ()
    meets = proof.meets() if pair_scan else None
    draws = []
    for _ in range(samples):
        parts = _random_composition(n, rng)
        draws.append((parts, projective.separated_moments(
            len(parts), period, MOMENT_SEP * period, rng)))
    stacks = {}
    for i, (parts, _) in enumerate(draws):
        if not (len(parts) == 2 and min(parts) in certified):
            stacks.setdefault(parts, []).append(i)
    dims = {}
    for parts, idx in stacks.items():
        dims.update(zip(idx, _rank_decisions(
            curve, parts, [draws[i][1] for i in idx])))
    stop = next((i for i in sorted(dims) if dims[i] != 0), None)
    dim = dims.get(stop, 0)
    deferred = isinstance(dim, PrecisionError) and meets is not None
    if stop is None:
        walk = "ran through every draw"
    else:
        walk = (f"stopped at draw {stop + 1} on " + (
            f"dimension {dim}" if isinstance(dim, int) else type(dim).__name__)
            + (", deferred to a zero of W" if deferred else ""))
    if pair_scan:
        scan = ("kept" if "_scan" in vars(proof) else
                "made" if stop is None or deferred else "not reached")
        kept = f"certificates {'made' if made else 'kept'}, pair scan {scan}"
    else:
        kept = "not read"
    _log.debug("criterion on %s: %d draws, %d skipped as proved, %d decided "
               "in %d stacks, walk %s; two-part proof: %s", curve.model,
               samples, samples - len(dims), len(dims), len(stacks), walk,
               kept)
    if isinstance(dim, Exception) and not deferred:
        raise dim
    if dim != 0 and not deferred:
        parts, moments = draws[stop]
        return ConvexityReport(
            False, samples,
            witness={"composition": parts,
                     "moments": tuple(float(t) for t in moments),
                     "dim": dim},
            notes="osculating intersection is not a point",
        )
    if pair_scan:
        witness = proof.scan()
        if witness is not None:
            return ConvexityReport(
                False, samples, witness=witness,
                notes="pair scan found a rank drop",
            )
        if meets is not None:
            return ConvexityReport(
                False, samples, witness=meets,
                notes="an osculating hyperplane meets the curve again"
                if meets["composition"][0] == 1 else
                "a hyperplane through an osculating subspace meets the "
                "curve more than n times",
            )
    scanned = " plus a deterministic pair scan" if pair_scan else ""
    return ConvexityReport(
        True, samples,
        notes=f"all {samples} random intersections are points{scanned}")
