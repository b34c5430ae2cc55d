"""Exact binary-form lane: Sturm counts and the real/positive factorization."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from osculant import count_roots
from osculant.curves import dual_curve, nonconvex_space_curve
from osculant.errors import PrecisionError
from osculant.forms import (BinaryForm, exact_count, factor_binary_form,
                            form_to_point, point_to_form, sturm_count)


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def from_roots(real_roots, complex_pairs):
    coeffs = [Fraction(1)]
    for r in real_roots:
        coeffs = poly_mul(coeffs, [-Fraction(r), Fraction(1)])
    for b, c in complex_pairs:
        coeffs = poly_mul(coeffs, [Fraction(c), Fraction(b), Fraction(1)])
    return BinaryForm(tuple(coeffs))


def test_sturm_count_simple_cases():
    assert sturm_count(from_roots([0, 1, -1], [])) == 3
    assert sturm_count(from_roots([], [(0, 1)])) == 0
    assert sturm_count(from_roots([2], [(0, 3)])) == 1


def test_sturm_counts_multiplicity():
    f = from_roots([1, 1, 4], [])
    assert sturm_count(f) == 3


def test_factor_x4_minus_1():
    f = BinaryForm((Fraction(-1), Fraction(0), Fraction(0), Fraction(0),
                    Fraction(1)))
    real, pos = factor_binary_form(f)
    assert real.degree == 2
    assert pos.degree == 2
    assert sturm_count(real) == 2
    assert sturm_count(pos) == 0


def test_factor_x3_minus_x():
    f = from_roots([0, 1, -1], [])
    real, pos = factor_binary_form(f)
    assert real.degree == 3
    assert pos.degree == 0


def test_factor_recombines_exactly():
    f = from_roots([Fraction(1, 3), -2], [(Fraction(1, 2), 5)])
    real, pos = factor_binary_form(f)
    prod = poly_mul(list(real.coeffs), list(pos.coeffs))
    scale = f.coeffs[-1] / prod[-1]
    assert [c * scale for c in prod] == list(f.coeffs)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=3, max_size=7))
def test_factor_random_integer_forms(coeffs):
    # irrational real roots admit only a certified split, not a rational one,
    # so recombination is checked at the certification tolerance here
    if not any(coeffs):
        coeffs[0] = 1
    f = BinaryForm(tuple(Fraction(c) for c in coeffs))
    try:
        real, pos = factor_binary_form(f)
    except PrecisionError:
        return
    assert real.degree + pos.degree == f.degree
    assert sturm_count(pos) == 0
    assert sturm_count(real) == real.degree
    prod = poly_mul(list(real.coeffs), list(pos.coeffs))
    lead = next(c for c in reversed(f.coeffs) if c)
    plead = next(c for c in reversed(prod) if c)
    scale = lead / plead
    err = max(abs(c * scale - c0) for c, c0 in zip(prod, f.coeffs))
    assert float(err) <= 1e-20 * max(abs(float(c)) for c in f.coeffs)


def test_point_form_roundtrip():
    p = [Fraction(2), Fraction(-1), Fraction(3), Fraction(5)]
    f = point_to_form(p)
    assert form_to_point(f) == p


def test_perfect_power_has_one_root():
    # the form attached to a curve point is (a x1 + b x2)^n
    n = 4
    a, b = Fraction(2), Fraction(3)
    coeffs = [a ** (n - j) * b ** j * _binom(n, j) for j in range(n + 1)]
    f = BinaryForm(tuple(coeffs))
    assert sturm_count(f) == n


def _binom(n, k):
    from math import comb
    return Fraction(comb(n, k))


def test_degree_and_nonzero_validation():
    with pytest.raises(ValueError):
        BinaryForm((Fraction(0), Fraction(0)))


def test_exact_count_covers_the_stock_families(trig, rational):
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        for c in (trig[n], rational[n]):
            for p in rng.standard_normal((5, n + 1)):
                assert exact_count(c, p) == count_roots(c, p).total
    assert exact_count(nonconvex_space_curve(), [1.0, 0.0, 0.0, 0.0]) is None
    assert exact_count(dual_curve(rational[3]), [1.0, 0.0, 0.0, 0.0]) is None
