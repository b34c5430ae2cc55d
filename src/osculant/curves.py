"""Closed curve models in P^n with trigonometric-polynomial coordinates.

Every model (and everything derived from one: duals, projections) is a finite
trigonometric polynomial, so jets of any order are read in closed form
from derivative coefficients that each curve keeps, and root counting never
needs numerical differentiation.

Models
------
trig_convex(2k)    (1, cos t, sin t, ..., cos kt, sin kt); period 2*pi.
trig_convex(2k+1)  (cos t, sin t, cos 3t, sin 3t, ..., cos (2k+1)t, sin (2k+1)t);
                   the lift flips sign after pi, so the projective period is pi.
rational_normal(n) (cos^n, cos^(n-1) sin, ..., sin^n); projective period pi.
fourier            caller-supplied harmonic coefficients (negative controls).
"""

from __future__ import annotations

import json
import re
from functools import cached_property

import numpy as np

from . import fourier
from .errors import DegeneracyError
from .projective import RANK_REL


class ParamCurve:
    """A curve S^1 -> P^n by homogeneous coordinates that are trig polynomials.

    coeffs[i, K+k] is the coefficient of exp(1j*(k/2)*t) in coordinate i.
    Instances are immutable, and they own their derived data: the projective
    period, the derivative and dual coefficients, the phases of the scale
    grid, the dual curve, the elliptic hull and the two-part convexity proof
    are each computed at most once.
    """

    def __init__(self, coeffs, model: str = "fourier"):
        coeffs = fourier.trimmed(fourier.hermitized(np.asarray(coeffs, complex)))
        if coeffs.ndim != 2:
            raise ValueError("coefficients must be a matrix (rows = coordinates)")
        if coeffs.shape[0] < 2:
            raise ValueError("a projective curve needs at least two coordinates")
        if not np.any(np.abs(coeffs) > 0):
            raise ValueError("zero curve")
        self.coeffs = coeffs
        self.coeffs.flags.writeable = False
        self.model = model
        self._period = _projective_period(coeffs)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def K(self) -> int:
        return fourier.halfspan(self.coeffs)

    @property
    def projective_period(self) -> float:
        """pi when gamma(t + pi) = +/- gamma(t), else 2*pi."""
        return self._period

    def point(self, t) -> np.ndarray:
        """gamma(t); an array of moments gives one row per moment."""
        return fourier.evaluate(self.coeffs, t)

    def jet_coeffs(self, order: int) -> np.ndarray:
        """Rows j = 0..order of (1j*nu)**j * coeffs, shape (order+1, n+1, 2K+1)."""
        if not 0 <= order <= self.n:
            raise ValueError(f"jet order must lie in 0..{self.n}")
        return self._jet_coeffs[: order + 1]

    def jet(self, t, order: int) -> np.ndarray:
        """Derivatives 0..order at a moment, shape (order+1, n+1).

        An array of moments gives one jet per moment, shape (len(t),
        order+1, n+1); the einsum keeps each moment's bits.
        """
        ph = fourier.phase_matrix(t, self.K)
        return np.real(np.einsum("ork,...k->...or", self.jet_coeffs(order), ph))

    def jet_grid(self, ts: np.ndarray, order: int) -> np.ndarray:
        """Stacked jets on a grid, shape (len(ts), order+1, n+1).

        One product per order keeps fourier.evaluate's bits, which dual_coeffs
        reads; one product for all orders, or jet's einsum, rounds otherwise.
        """
        ph = fourier.phase_matrix(ts, self.K)
        return np.stack([np.real(ph @ r.T) for r in self.jet_coeffs(order)], axis=1)

    @cached_property
    def _jet_coeffs(self) -> np.ndarray:
        scal = (1j * fourier.frequencies(self.K)) ** np.arange(self.n + 1)[:, None]
        out = scal[:, None, :] * self.coeffs
        out.flags.writeable = False
        return out

    @cached_property
    def dual_coeffs(self) -> np.ndarray:
        """Coefficient rows of the osculating-hyperplane covector gamma*(t).

        gamma*_i is (-1)^i times the minor of the order n-1 jet without
        column i, a trig polynomial recovered exactly by sampling above the
        Nyquist rate.  Expanding the determinant along its last row gives
        F_p = det[gamma, ..., gamma^(n-1), p] = (-1)^n <gamma*, p>.  No rank
        check: tangency functions stay defined where the jet degenerates.
        """
        n = self.n
        Kw = n * self.K
        jets = self.jet_grid(fourier.sample_grid(_construction_size(Kw)), n - 1)
        cols = np.arange(n + 1)
        rows = []
        for i in range(n + 1):
            minor = jets[:, :, cols != i]
            rows.append(fourier.from_samples(((-1.0) ** i) * np.linalg.det(minor), Kw))
        out = fourier.trimmed(np.vstack(rows))
        out.flags.writeable = False
        return out

    @cached_property
    def dual_fold(self) -> tuple:
        """(s, j0) with s = 4*pi/period: dual_coeffs live on columns j0 (mod s).

        Every F_p lifted to the projective period is then +/- itself, and its
        degree-2K polynomial in u = exp(i t/2) is u^j0 times a polynomial in
        u^s.  Columns below 1e-12 of the largest count as empty; a spectrum
        that mixes residue classes raises DegeneracyError.
        """
        ks = _support(self.dual_coeffs)
        s = round(4.0 * np.pi / self._period)
        if ks.size == 0:
            return s, 0
        # one class k0 (mod s), and it is its own conjugate class -k0
        if np.any((ks - ks[0]) % s) or 2 * ks[0] % s:
            raise DegeneracyError("tangency function is not (anti)periodic over the stated period")
        return s, int(ks[0] + fourier.halfspan(self.dual_coeffs)) % s

    @cached_property
    def scale_phases(self) -> np.ndarray:
        """Phases of the dual span on the offset grid behind every F_p scale."""
        ts = (np.arange(4096) + 1.0 / np.pi) * (self._period / 4096)
        out = fourier.phase_matrix(ts, fourier.halfspan(self.dual_coeffs))
        out.flags.writeable = False
        return out

    @cached_property
    def dual(self) -> "ParamCurve":
        """The dual curve, built once; see dual_curve."""
        return dual_curve(self)

    @cached_property
    def hull(self):
        """The elliptic hull (even n, convex curves), built once; see elliptic_hull."""
        from .hulls import elliptic_hull

        return elliptic_hull(self)

    @cached_property
    def two_part_proof(self):
        """Certificates and pair scan of the two-part compositions, made once.

        See convexity.TwoPartProof; check_convex_criterion reads it.
        """
        from .convexity import TwoPartProof

        return TwoPartProof(self)

    def __repr__(self):
        return f"ParamCurve(n={self.n}, K={self.K}, model={self.model!r})"


def _support(coeffs: np.ndarray) -> np.ndarray:
    """Frequencies k of exp(1j*k*t/2) whose column tops 1e-12 of the largest."""
    col = np.abs(coeffs).max(axis=0)
    return np.nonzero(col > 1e-12 * col.max())[0] - fourier.halfspan(coeffs)


def _projective_period(coeffs: np.ndarray) -> float:
    ks = _support(coeffs)
    if np.all(ks % 2 == 0):
        half = ks // 2  # integer frequencies
        if half.size and np.all(half % 2 == half[0] % 2):
            return np.pi
    return 2.0 * np.pi


def _construction_size(K: int) -> int:
    """Power-of-two sample count above the Nyquist rate for half-span K."""
    return 1 << (2 * K + 2).bit_length()


def _harmonic_row(K: int, m: int, kind: str) -> np.ndarray:
    """Row of length 2K+1 for cos(m t), sin(m t) or the constant 1."""
    row = np.zeros(2 * K + 1, complex)
    if kind == "const":
        row[K] = 1.0
    elif kind == "cos":
        row[K + 2 * m] = 0.5
        row[K - 2 * m] = 0.5
    elif kind == "sin":
        row[K + 2 * m] = -0.5j
        row[K - 2 * m] = 0.5j
    return row


def _trig_convex(n: int) -> np.ndarray:
    if n % 2 == 0:
        k = n // 2
        K = 2 * k
        rows = [_harmonic_row(K, 0, "const")]
        for m in range(1, k + 1):
            rows.append(_harmonic_row(K, m, "cos"))
            rows.append(_harmonic_row(K, m, "sin"))
    else:
        # odd harmonics 1, 3, ..., n: the lift is anti-periodic over pi, and any
        # covector pairing has at most n projective zeros counted with multiplicity
        K = 2 * n
        rows = []
        for m in range(1, n + 1, 2):
            rows.append(_harmonic_row(K, m, "cos"))
            rows.append(_harmonic_row(K, m, "sin"))
    return np.vstack(rows)


def _rational_normal(n: int) -> np.ndarray:
    cos_c = np.zeros(5, complex)
    cos_c[0] = cos_c[4] = 0.5
    sin_c = np.zeros(5, complex)
    sin_c[0] = 0.5j
    sin_c[4] = -0.5j
    rows = []
    for j in range(n + 1):
        acc = np.array([1.0 + 0.0j])
        for _ in range(n - j):
            acc = fourier.convolve(acc, cos_c)
        for _ in range(j):
            acc = fourier.convolve(acc, sin_c)
        rows.append(acc)
    K = max(fourier.halfspan(r) for r in rows)
    return np.vstack([fourier.pad_to(r, K) for r in rows])


def _fourier_matrix(coeff_rows) -> np.ndarray:
    """Rows [a0, a1, b1, a2, b2, ...] meaning a0 + sum a_m cos(mt) + b_m sin(mt)."""
    rows = [np.asarray(r, float) for r in coeff_rows]
    width = max(len(r) for r in rows)
    mmax = (width - 1 + 1) // 2
    K = 2 * max(mmax, 1)
    out = []
    for r in rows:
        acc = np.zeros(2 * K + 1, complex)
        if len(r) > 0:
            acc += r[0] * _harmonic_row(K, 0, "const")
        for m in range(1, mmax + 1):
            ai = 2 * m - 1
            bi = 2 * m
            if ai < len(r) and r[ai]:
                acc += r[ai] * _harmonic_row(K, m, "cos")
            if bi < len(r) and r[bi]:
                acc += r[bi] * _harmonic_row(K, m, "sin")
        out.append(acc)
    return np.vstack(out)


def build_model(model: str, n: int | None = None, coeffs=None) -> ParamCurve:
    """Construct a named curve model.

    trig_convex and rational_normal require n >= 2; fourier requires a
    coefficient matrix with one row per homogeneous coordinate.
    """
    if model == "trig_convex":
        if n is None or n < 2:
            raise ValueError("trig_convex requires n >= 2")
        return ParamCurve(_trig_convex(n), model=f"trig_convex({n})")
    if model == "rational_normal":
        if n is None or n < 2:
            raise ValueError("rational_normal requires n >= 2")
        return ParamCurve(_rational_normal(n), model=f"rational_normal({n})")
    if model == "fourier":
        if coeffs is None:
            raise ValueError("fourier model requires a coefficient matrix")
        c = _fourier_matrix(coeffs)
        if n is not None and c.shape[0] != n + 1:
            raise ValueError("coefficient rows disagree with n")
        return ParamCurve(c, model="fourier")
    raise ValueError(f"unknown model {model!r}")


def perturbed_circle(amplitude: float = 0.3) -> ParamCurve:
    """Circle with a third-harmonic radial wobble: r(t) = 1 + amplitude*cos(3t).

    Convex for small amplitude; beyond roughly 0.1 the curvature changes sign
    and bitangent lines appear, making this the plane negative control.
    """
    a = float(amplitude) / 2.0
    rows = [
        [1.0],
        [0.0, 1.0, 0.0, a, 0.0, 0.0, 0.0, a, 0.0],
        [0.0, 0.0, 1.0, 0.0, -a, 0.0, 0.0, 0.0, a],
    ]
    return build_model("fourier", 2, rows)


def nonconvex_space_curve() -> ParamCurve:
    """A generic but non-convex closed curve in three dimensions.

    The mismatched top harmonic breaks the osculating transversality: some
    tangent line lies inside a distant osculating plane, and suitable points
    see more than three tangent planes.
    """
    rows = [
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    ]
    return build_model("fourier", 3, rows)


def curve_from_spec(spec) -> ParamCurve:
    """Build a curve from a JSON object, a path to one, or model:n shorthand.

    Schema: {"model": "trig_convex"|"rational_normal"|"fourier",
             "n": int, "coeffs": [[...], ...]}  (coeffs only for fourier).
    The shorthand "trig_convex:4" or "rational_normal:3" names a stock
    model; any other string is a path.
    """
    if isinstance(spec, str):
        m = re.fullmatch(r"(trig_convex|rational_normal):(\d+)", spec)
        if m:
            return build_model(m.group(1), int(m.group(2)))
    if isinstance(spec, (str, bytes)):
        with open(spec) as fh:
            spec = json.load(fh)
    if not isinstance(spec, dict) or "model" not in spec:
        raise ValueError("curve spec must be an object with a 'model' key")
    return build_model(spec["model"], spec.get("n"), spec.get("coeffs"))


def dual_curve(curve: ParamCurve) -> ParamCurve:
    """The osculating-hyperplane curve in the dual space.

    Its coordinates are curve.dual_coeffs, the generalized cross product of
    the order n-1 jet rows, so <gamma*(t), gamma^(j)(t)> = 0 for j < n.  The
    covector must not vanish anywhere on the construction grid: a curve whose
    jet drops rank has no dual curve.
    """
    coeffs = curve.dual_coeffs
    w = fourier.to_samples(coeffs, _construction_size(curve.n * curve.K))
    scale = np.linalg.norm(w, axis=0)
    if scale.min() < RANK_REL * max(scale.max(), 1e-300):
        raise DegeneracyError("order n-1 jet drops rank somewhere on the curve")
    return ParamCurve(coeffs, model=f"dual({curve.model})")
