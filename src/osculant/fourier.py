"""Coefficient arrays for real trigonometric polynomials on half-integer frequencies.

A function f(t) = sum_k c[k] exp(1j * (k/2) * t), k = -K..K, is stored as the
complex array [c[-K], ..., c[K]].  Working on the k/2 grid keeps functions that
flip sign after one turn (lifts of odd-degree projective curves, deflated
projections) inside a single representation: their spectra sit on odd k.  Real
functions satisfy c[-k] = conj(c[k]).

With u = exp(1j*t/2), f is u**(-K) times a polynomial of degree 2K in u;
deflate divides powers of sin(pi (t - tau) / period) out of f by synthetic
division at that polynomial's roots on the unit circle.
"""

from __future__ import annotations

import numpy as np


def halfspan(coeffs) -> int:
    m = np.shape(coeffs)[-1]
    if m % 2 != 1:
        raise ValueError("coefficient arrays must have odd length")
    return (m - 1) // 2


def frequencies(K: int) -> np.ndarray:
    """Frequencies nu_k = k/2 for k = -K..K."""
    return np.arange(-K, K + 1) * 0.5


def hermitized(coeffs: np.ndarray) -> np.ndarray:
    """Project onto the real-function subspace c[-k] = conj(c[k])."""
    return 0.5 * (coeffs + np.conj(coeffs[..., ::-1]))


def pad_to(coeffs: np.ndarray, K: int) -> np.ndarray:
    extra = K - halfspan(coeffs)
    if extra < 0:
        raise ValueError("cannot shrink by padding")
    if extra == 0:
        return coeffs
    pad = [(0, 0)] * (coeffs.ndim - 1) + [(extra, extra)]
    return np.pad(coeffs, pad)


def trimmed(coeffs: np.ndarray, rel: float = 1e-13) -> np.ndarray:
    """Drop outer frequency bands whose coefficients are negligible."""
    K = halfspan(coeffs)
    flat = coeffs.reshape(-1, 2 * K + 1)
    col = np.abs(flat).max(axis=0)
    thr = rel * (col.max() or 1.0)
    keep = np.nonzero(col > thr)[0]
    if keep.size == 0:
        return coeffs[..., K : K + 1]
    k_new = int(max(K - keep[0], keep[-1] - K, 0))
    return coeffs[..., K - k_new : K + k_new + 1]


def phase_matrix(ts: np.ndarray, K: int) -> np.ndarray:
    """exp(1j * outer(ts, nu)), with no temporaries of the grid's size."""
    ts = np.asarray(ts, float)
    out = np.zeros(ts.shape + (2 * K + 1,), complex)
    np.multiply.outer(ts, frequencies(K), out=out.imag)
    return np.exp(out, out=out)


def evaluate(coeffs: np.ndarray, ts, order: int = 0) -> np.ndarray:
    """Values of the order-th derivative at ts.

    coeffs may be 1-d (scalar function) or 2-d (rows = coordinates); the
    result has shape ts.shape (+ (rows,) in the 2-d case, with ts axis first).
    """
    K = halfspan(coeffs)
    c = coeffs * (1j * frequencies(K)) ** order if order else coeffs
    ph = phase_matrix(np.atleast_1d(np.asarray(ts, float)), K)
    vals = np.real(ph @ (c.T if c.ndim == 2 else c))
    if np.ndim(ts) == 0:
        return vals[0]
    return vals


def sample_grid(M: int) -> np.ndarray:
    """Uniform construction grid over the full 4*pi cycle of the half-frequency lift."""
    return 4.0 * np.pi * np.arange(M) / M


def from_samples(values: np.ndarray, K: int) -> np.ndarray:
    """Recover coefficients on -K..K from values on sample_grid(M), M > 2K.

    Exact (up to roundoff) when the sampled function really is band-limited
    to |k| <= K; the aliasing residual is checked.
    """
    values = np.asarray(values, float)
    M = values.shape[-1]
    if M <= 2 * K:
        raise ValueError("need more than 2K samples")
    X = np.fft.fft(values) / M
    idx = np.arange(-K, K + 1) % M
    out = hermitized(X[..., idx])
    if M > 2 * K + 2:
        inside = np.abs(out).max() or 1.0
        rest = np.delete(X, idx, axis=-1)
        if rest.size and np.abs(rest).max() > 1e-7 * inside:
            raise ValueError("sampled function is not band-limited to the requested span")
    return out


def to_samples(coeffs: np.ndarray, M: int) -> np.ndarray:
    """Values on sample_grid(M), M > 2K, on the last axis; inverts from_samples."""
    K = halfspan(coeffs)
    if M <= 2 * K:
        raise ValueError("need more than 2K samples")
    X = np.zeros(np.shape(coeffs)[:-1] + (M,), complex)
    X[..., np.arange(-K, K + 1) % M] = coeffs
    return np.real(np.fft.ifft(X, norm="forward"))


def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of the pointwise product; spans add."""
    return np.convolve(a, b)


def _horner(desc: list, root: complex):
    """Divide the descending coefficient list desc by (u - root).

    Returns (quotient as a descending list, |remainder|).  Python complex
    arithmetic gives the textbook product of numpy's scalar path at a
    fraction of its cost per step; numpy's vectorized complex multiply can
    differ from both in the last bit.
    """
    out, acc = [], 0j
    for d in desc[:-1]:
        acc = d + root * acc
        out.append(acc)
    return out, abs(desc[-1] + root * acc)


def deflate(rows: np.ndarray, tau: float, times: int, period: float):
    """Divide ascending coefficient rows by sin^times(pi (t - tau) / period).

    In u = exp(it/2) the factor's zeros are the turns = 4pi/period roots
    u_tau * 1j**(4k/turns) of u**turns - u_tau**turns, which equals
    (u u_tau)**(turns/2) * 2i * sin(pi (t - tau) / period).  Each root is
    divided out `times` times, and the quotient is multiplied by
    (2i)**times * u_tau**(turns * times / 2).  Returns (quotient rows,
    largest remainder relative to the largest coefficient of all rows), so
    a row of pure rounding reads as rounding; a large remainder means the
    rows do not vanish to that order.
    """
    turns = round(4.0 * np.pi / period)
    u = np.exp(0.5j * tau)
    divisors = [complex(u * 1j ** (4 * k // turns)) for k in range(turns)] * times
    rows = np.asarray(rows, complex)
    out, worst = [], 0.0
    for desc in rows[:, ::-1].tolist():
        for r in divisors:
            desc, rem = _horner(desc, r)
            worst = max(worst, rem)
        out.append(desc[::-1])
    scalar = (2j) ** times * np.exp(0.25j * times * turns * tau)
    return np.array(out, complex) * scalar, worst / (np.abs(rows).max() or 1.0)


class TrigPoly:
    """A real trigonometric polynomial with exact derivatives of every order.

    Frequencies and each derivative's coefficients are kept, so a call only
    makes its phase rows; values are fourier.evaluate's bit for bit.
    """

    __slots__ = ("coeffs", "_nu", "_derivs")

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, complex)
        if coeffs.ndim != 1:
            raise ValueError("scalar coefficients must be 1-d")
        self.coeffs = hermitized(coeffs)
        self._nu = frequencies(self.K)
        self._derivs = {0: self.coeffs}

    @property
    def K(self) -> int:
        return halfspan(self.coeffs)

    def deriv_coeffs(self, order: int) -> np.ndarray:
        """coeffs * (1j*nu)**order, as fourier.evaluate scales them."""
        c = self._derivs.get(order)
        if c is None:
            c = self._derivs[order] = self.coeffs * (1j * self._nu) ** order
        return c

    def __call__(self, t, order: int = 0):
        ph = np.exp(1j * np.multiply.outer(np.atleast_1d(np.asarray(t, float)),
                                           self._nu))
        vals = np.real(ph @ self.deriv_coeffs(order))
        return vals[0] if np.ndim(t) == 0 else vals

    def deriv(self, order: int = 1) -> "TrigPoly":
        return TrigPoly(self.deriv_coeffs(order))
