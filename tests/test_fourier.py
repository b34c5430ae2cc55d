"""Half-integer Fourier layer: evaluation, derivatives, deflation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osculant import fourier


def random_real_coeffs(rng, K):
    c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
    return fourier.hermitized(c)


def test_evaluate_matches_direct_sum():
    rng = np.random.default_rng(0)
    c = random_real_coeffs(rng, 3)
    ts = np.linspace(0, 4 * np.pi, 17)
    ks = fourier.frequencies(3)  # half-integers -K/2 .. K/2
    direct = np.array([np.sum(c * np.exp(1j * ks * t)) for t in ts])
    got = fourier.evaluate(c, ts)
    assert np.allclose(got, direct.real, atol=1e-12)
    assert np.max(np.abs(direct.imag)) < 1e-12


def test_derivative_finite_difference():
    rng = np.random.default_rng(1)
    c = random_real_coeffs(rng, 4)
    h = 1e-6
    for t in (0.3, 2.1, 5.9):
        fd = (fourier.evaluate(c, t + h) - fourier.evaluate(c, t - h)) / (2 * h)
        assert abs(fourier.evaluate(c, t, order=1) - fd) < 1e-7


def test_from_samples_roundtrip():
    rng = np.random.default_rng(2)
    c = random_real_coeffs(rng, 5)
    M = 32
    ts = fourier.sample_grid(M)
    vals = fourier.evaluate(c, ts)
    back = fourier.from_samples(vals, 5)
    assert np.allclose(back, c, atol=1e-12)
    # and back to samples, also for stacked rows and the smallest M
    rows = np.vstack([c, fourier.pad_to(random_real_coeffs(rng, 2), 5)])
    for coeffs in (c, rows):
        for m in (11, M, 1024):
            want = fourier.evaluate(coeffs, fourier.sample_grid(m)).T
            got = fourier.to_samples(coeffs, m)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(ValueError):
        fourier.to_samples(c, 10)


def test_deflate_removes_root_exactly():
    # g * sin^m(pi (t - tau) / P) recovered by synthetic division, for the
    # two projective periods; the sine sits on frequencies +-turns/4
    rng = np.random.default_rng(3)
    g = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    tau = 0.7
    for period, times in ((2 * np.pi, 1), (2 * np.pi, 3), (np.pi, 2)):
        turns = round(4 * np.pi / period)
        sine = np.zeros(turns + 1, complex)
        sine[0] = -np.exp(0.25j * turns * tau) / 2j
        sine[-1] = np.exp(-0.25j * turns * tau) / 2j
        full = g
        for _ in range(times):
            full = fourier.convolve(full, sine)
        quot, rem = fourier.deflate(full[None], tau, times, period)
        assert rem < 1e-12
        assert np.allclose(quot[0], g, atol=1e-12)
        # a row of pure rounding leaves a remainder of rounding size
        noise = 1e-17 * rng.standard_normal(full.size)
        _, rem = fourier.deflate(np.vstack([full, noise]), tau, times, period)
        assert rem < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.floats(0.1, 6.0))
def test_trigpoly_deriv_consistent(K, t):
    rng = np.random.default_rng(K * 1000 + int(t * 100))
    p = fourier.TrigPoly(random_real_coeffs(rng, K))
    assert abs(p.deriv(1)(t) - p(t, order=1)) < 1e-10 * (1 + abs(p(t, 1)))


def test_trimmed_drops_padding():
    c = np.zeros(9, complex)
    c[4] = 1.0  # constant term at K=4
    assert fourier.trimmed(c).shape == (1,)
