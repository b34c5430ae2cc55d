"""Curve models, specs, and the dual curve."""

import json

import numpy as np
import pytest

from osculant import fourier
from osculant.curves import (build_model, curve_from_spec, dual_curve,
                             nonconvex_space_curve, perturbed_circle)
from osculant.errors import DegeneracyError
from osculant.projection import project_iterated


def test_circle_is_the_circle():
    c = build_model("trig_convex", 2)
    t = 0.77
    assert np.allclose(c.point(t), [1.0, np.cos(t), np.sin(t)])


def test_trig_models_have_expected_shape():
    for n in range(2, 7):
        c = build_model("trig_convex", n)
        assert c.n == n
        assert c.point(0.0).shape == (n + 1,)


def test_odd_trig_model_is_antiperiodic():
    c = build_model("trig_convex", 3)
    t = 1.234
    assert np.allclose(c.point(t + np.pi), -c.point(t), atol=1e-12)
    assert c.projective_period == pytest.approx(np.pi)


def test_rational_normal_is_projectively_pi_periodic():
    c = build_model("rational_normal", 4)
    t = 0.51
    assert np.allclose(c.point(t + np.pi), c.point(t), atol=1e-12)
    assert c.projective_period == pytest.approx(np.pi)


def test_rational_normal_monomials():
    # gamma(t) ~ (1, x, x^2, x^3) with x = tan(t) after rescaling
    c = build_model("rational_normal", 3)
    t = 0.4
    p = c.point(t)
    p = p / p[0]
    x = np.tan(t)
    assert np.allclose(p, [1, x, x * x, x ** 3], atol=1e-12)


def test_jet_matches_finite_difference():
    c = build_model("trig_convex", 3)
    t, h = 2.2, 1e-5
    jet = c.jet(t, 2)
    fd1 = (c.point(t + h) - c.point(t - h)) / (2 * h)
    fd2 = (c.point(t + h) - 2 * c.point(t) + c.point(t - h)) / h ** 2
    assert np.allclose(jet[1], fd1, atol=1e-8)
    assert np.allclose(jet[2], fd2, atol=1e-4)


def test_jet_grid_agrees_with_pointwise():
    c = build_model("rational_normal", 4)
    ts = np.linspace(0, np.pi, 9, endpoint=False)
    grid = c.jet_grid(ts, 2)
    for i, t in enumerate(ts):
        assert np.allclose(grid[i], c.jet(float(t), 2), atol=1e-12)


def test_jet_grid_rows_are_evaluate_bit_for_bit(trig, rational):
    # dual_coeffs is built from jet_grid, so these bits are what F_p reads
    child = project_iterated(trig[4], [1.0]).curve
    for c in (trig[5], rational[4], dual_curve(rational[4]), child):
        ts = np.linspace(0.0, c.projective_period, 29, endpoint=False) + 0.01
        grid = c.jet_grid(ts, c.n)
        for j in range(c.n + 1):
            want = fourier.evaluate(c.coeffs, ts, order=j)
            assert np.array_equal(grid[:, j], want), (c, j)
        with pytest.raises(ValueError):
            c.jet_coeffs(c.n + 1)


def test_stacked_jets_are_per_moment_jets_bit_for_bit(trig, rational):
    # the criterion decides its random draws from one jet per part over
    # the stacked moments; each must be the jet of its moment alone
    curves = (trig[4], trig[5], rational[3], rational[6],
              dual_curve(rational[4]), nonconvex_space_curve())
    rng = np.random.default_rng(3)
    for c in curves:
        ts = rng.uniform(0.0, c.projective_period, 400)
        for order in range(c.n + 1):
            stack = c.jet(ts, order)
            assert stack.shape == (400, order + 1, c.n + 1)
            for t, jet in zip(ts, stack):
                assert np.array_equal(jet, c.jet(float(t), order)), \
                    (c.model, order, t)


def test_curve_from_spec_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model": "trig_convex", "n": 3}))
    c = curve_from_spec(str(path))
    assert c.n == 3


def test_curve_from_spec_reads_model_shorthand():
    c = curve_from_spec("trig_convex:4")
    assert np.array_equal(c.coeffs, build_model("trig_convex", 4).coeffs)


def test_curve_from_spec_fourier_rows():
    c = curve_from_spec({"model": "fourier",
                         "coeffs": [[1], [0, 1, 0], [0, 0, 1]]})
    assert np.allclose(c.point(0.3), [1, np.cos(0.3), np.sin(0.3)])


def test_bad_specs_raise():
    with pytest.raises(ValueError):
        build_model("trig_convex", 1)
    with pytest.raises(ValueError):
        build_model("nope", 3)
    with pytest.raises(ValueError):
        curve_from_spec({"n": 3})


def test_dual_curve_annihilates_jets():
    c = build_model("trig_convex", 4)
    d = dual_curve(c)
    for t in (0.0, 1.1, 3.9):
        jet = c.jet(t, c.n - 1)
        assert np.max(np.abs(jet @ d.point(t))) < 1e-9


def test_dual_of_circle_is_the_tangent_line():
    # tangent line of the unit circle at angle t: -1 + x cos t + y sin t = 0
    c = build_model("trig_convex", 2)
    d = dual_curve(c)
    t = 0.9
    w = d.point(t)
    w = w / np.linalg.norm(w)
    expected = np.array([-1.0, np.cos(t), np.sin(t)]) / np.sqrt(2)
    assert min(np.linalg.norm(w - expected),
               np.linalg.norm(w + expected)) < 1e-9


def test_dual_curve_rank_gate():
    # |gamma*| of rational_normal(4) varies by a factor of about 0.48; the
    # astroid's gamma* vanishes at its cusps
    assert dual_curve(build_model("rational_normal", 4)).n == 4
    astroid = build_model("fourier", 2, [[1], [0, .75, 0, 0, 0, .25, 0],
                                         [0, 0, .75, 0, 0, 0, -.25]])
    with pytest.raises(DegeneracyError):
        dual_curve(astroid)


def test_derived_data_is_built_once():
    c = build_model("trig_convex", 4)
    assert c.dual is c.dual
    assert c.hull is c.hull
    assert c.hull.curve is c
    assert np.array_equal(c.dual.coeffs, dual_curve(c).coeffs)


def test_negative_controls_exist():
    pc = perturbed_circle(0.3)
    sc = nonconvex_space_curve()
    assert pc.n == 2
    assert sc.n == 3
