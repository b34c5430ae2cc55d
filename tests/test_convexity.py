"""Both convexity checkers on the stock models and the negative controls."""

import itertools
import logging
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from osculant import (
    check_convex_criterion,
    check_convex_sampling,
    count_roots,
    fourier,
)
from osculant import convexity
from osculant.config import DEFAULT
from osculant.convexity import (_annihilators, _hyperplane_certificate,
                                _intersection_dim_stable, _pair_scan,
                                _random_composition, _sigma_block)
from osculant.curves import (build_model, dual_curve, nonconvex_space_curve,
                             perturbed_circle)
from osculant.errors import DegeneracyError, PrecisionError
from osculant.projection import project_iterated
from osculant.projective import (intersect, osculating_subspace,
                                 separated_moments)

ASTROID = [[1], [0, .75, 0, 0, 0, .25, 0], [0, 0, .75, 0, 0, 0, -.25]]


def _grid(c):
    return np.arange(96) * (c.projective_period / 96)


def _anns(c, ts, k):
    """Codimension-k annihilators at ts."""
    return _annihilators(c, ts, k, DEFAULT)


CERTIFY_CURVES = (
    lambda: build_model("trig_convex", 4),
    lambda: build_model("rational_normal", 3),
    lambda: dual_curve(build_model("rational_normal", 4)),
    nonconvex_space_curve,
    lambda: perturbed_circle(0.3),
)


def test_stock_models_pass_sampling(trig, rational):
    for n in range(2, 7):
        for c in (trig[n], rational[n]):
            report = check_convex_sampling(c, trials=120, rng=n)
            assert report, (c.model, report.notes)
            assert report.max_roots_seen <= n
            assert f"no violation found in {report.trials} trials" in report.notes


def test_stock_models_pass_criterion(trig, rational):
    # the deterministic pair scan is exercised separately on small n
    for n in range(2, 7):
        for c in (trig[n], rational[n]):
            report = check_convex_criterion(c, samples=30, rng=n,
                                            pair_scan=False)
            assert report, (c.model, report.witness)


def test_pair_scan_clean_on_small_models(trig, rational):
    for c in (trig[2], trig[3], rational[3], trig[4], dual_curve(rational[4])):
        assert check_convex_criterion(c, samples=10, rng=0, pair_scan=True)


def test_batched_annihilators_span_the_osculating_annihilators(trig, rational):
    for n in range(2, 7):
        for c in (trig[n], rational[n]):
            grid = _grid(c)
            for k in range(1, n + 1):
                batch = _anns(c, grid, k)
                assert batch.shape == (96, k, n + 1)
                for t, ann in zip(grid, batch):
                    ref = osculating_subspace(c, t, n - k).annihilator()
                    assert np.abs(ann.T @ ann - ref.T @ ref).max() < 1e-12


def _pairwise_sigma(c, grid, sep, k):
    """The (k, n-k) sigma grid, one osculating_subspace pair at a time."""
    n, period = c.n, c.projective_period
    ref = np.full((len(grid), len(grid)), np.inf)
    for i, t1 in enumerate(grid):
        for j, t2 in enumerate(grid):
            d = abs(t1 - t2) % period
            if min(d, period - d) < sep:
                continue
            stacked = np.vstack((
                osculating_subspace(c, t1, n - k).annihilator(),
                osculating_subspace(c, t2, k).annihilator()))
            ref[i, j] = np.linalg.svd(stacked, compute_uv=False)[-1]
    return ref


def test_sigma_grid_matches_pairwise_loop(trig, rational):
    for c in (trig[4], dual_curve(rational[4])):
        n, grid = c.n, _grid(c)
        sep = 0.05 * c.projective_period
        for k in range(1, n // 2 + 1):
            sig = _sigma_block(c, k, grid, grid, sep, DEFAULT)
            ref = _pairwise_sigma(c, grid, sep, k)
            assert np.array_equal(np.isinf(sig), np.isinf(ref))
            finite = np.isfinite(ref)
            assert np.abs(sig[finite] - ref[finite]).max() < 1e-10


def test_mirrored_sigma_grid_is_the_transpose(trig, rational):
    # the scan drops (n-k, k) for k < n-k: its grid is the transpose of (k, n-k)
    for c in (trig[4], dual_curve(rational[4])):
        n, grid = c.n, _grid(c)
        sep = 0.05 * c.projective_period
        for k in range(1, (n + 1) // 2):
            sig = _sigma_block(c, k, grid, grid, sep, DEFAULT)
            mirror = _pairwise_sigma(c, grid, sep, n - k)
            assert np.array_equal(np.isinf(mirror), np.isinf(sig.T))
            finite = np.isfinite(mirror)
            assert np.abs(sig.T[finite] - mirror[finite]).max() < 1e-12


def test_sigma_is_the_per_moment_annihilator_svd():
    # a block stacks the annihilators of each pair of moments and takes one
    # batched SVD; each value must equal that pair's own SVD bit for bit
    for make in CERTIFY_CURVES:
        c = make()
        n, period = c.n, c.projective_period
        sep = 0.05 * period
        rng = np.random.default_rng(17)
        for k in range(1, n):
            for ts1, ts2 in rng.uniform(0.0, period, (20, 2, 5)):
                block = _sigma_block(c, k, ts1, ts2, sep, DEFAULT)
                anns1, anns2 = _anns(c, ts1, k), _anns(c, ts2, n - k)
                for a, b in itertools.product(range(5), range(5)):
                    d = abs(ts1[a] - ts2[b]) % period
                    if min(d, period - d) < sep:
                        want = np.inf
                    else:
                        stacked = np.concatenate((anns1[a], anns2[b]))
                        want = np.linalg.svd(stacked, compute_uv=False)[-1]
                    assert block[a, b] == want, (c.model, k, ts1[a], ts2[b])


def test_criterion_dimension_is_the_intersection_dimension():
    # one SVD read at both tolerances decides what two intersects decide
    loose = DEFAULT.with_overrides(rank_rel=10 * DEFAULT.rank_rel)
    for make in CERTIFY_CURVES:
        c = make()
        n, period = c.n, c.projective_period
        rng = np.random.default_rng(5)
        for _ in range(200):
            parts = _random_composition(n, rng)
            moments = separated_moments(len(parts), period,
                                        DEFAULT.moment_sep * period, rng)
            subs = [osculating_subspace(c, t, n - k)
                    for k, t in zip(parts, moments)]
            dim, dim10 = intersect(subs).dim, intersect(subs, loose).dim
            if dim != dim10:
                with pytest.raises(PrecisionError):
                    _intersection_dim_stable(c, parts, moments, DEFAULT)
            else:
                assert _intersection_dim_stable(c, parts, moments,
                                                DEFAULT) == dim
    # the pinned witness of the non-convex control
    c, moments = nonconvex_space_curve(), (0.0, 3.1415926540347137)
    subs = [osculating_subspace(c, moments[0], 2),
            osculating_subspace(c, moments[1], 1)]
    assert intersect(subs).dim == 1
    assert _intersection_dim_stable(c, (1, 2), moments, DEFAULT) == 1


def test_pair_scan_control_witnesses_are_pinned():
    w = _pair_scan(nonconvex_space_curve(), DEFAULT)
    assert (w["composition"], w["moments"], w["dim"]) == \
           ((1, 2), (0.0, 3.141592655296769), 1)
    w = _pair_scan(perturbed_circle(0.3), DEFAULT)
    assert (w["composition"], w["moments"], w["dim"]) == \
           ((1, 1), (3.7890534077766698, 2.494131899402917), 1)


def _random_fourier_curve(n, amplitude, seed):
    """trig_convex(n), n = 2, 3, 4, plus a random third harmonic in every row."""
    rows = np.zeros((n + 1, 7))     # a0, a1, b1, a2, b2, a3, b3 per row
    harmonics = {2: (0, 1, 2), 3: (1, 2, 5, 6), 4: (0, 1, 2, 3, 4)}[n]
    rows[np.arange(n + 1), harmonics] = 1.0
    rows[:, 5:] += amplitude * np.random.default_rng(seed).standard_normal((n + 1, 2))
    return build_model("fourier", n, rows.tolist())


# (n, amplitude, seed) -> whether the full pair scan finds a witness, as
# the Nelder-Mead refinement that the pattern search replaced found it
RANDOM_SCAN_VERDICTS = {
    (2, 0.05, 0): False, (2, 0.15, 0): True, (2, 0.4, 0): True,
    (3, 0.05, 0): False, (3, 0.15, 0): False, (3, 0.4, 0): False,
    (4, 0.05, 0): False, (4, 0.15, 0): True, (4, 0.4, 0): True,
    (4, 0.05, 1): True, (4, 0.15, 1): False, (4, 0.4, 1): True,
}


def test_pair_scan_verdicts_on_random_fourier_curves_are_pinned():
    for key, found in RANDOM_SCAN_VERDICTS.items():
        c = _random_fourier_curve(*key)
        w = _pair_scan(c, DEFAULT)
        assert (w is not None) == found, key
        if found:
            assert _intersection_dim_stable(c, w["composition"], w["moments"],
                                            DEFAULT) > 0, key


def test_convexity_checks_leave_scipy_optimize_unloaded():
    # the pair scan refines on its own sigma evaluator, without scipy
    code = """if True:
        import sys
        from osculant import check_convex_criterion, check_convex_sampling
        from osculant.curves import (build_model, dual_curve,
                                     nonconvex_space_curve, perturbed_circle)
        for c in (build_model("trig_convex", 4), build_model("rational_normal", 3),
                  dual_curve(build_model("rational_normal", 4)),
                  nonconvex_space_curve(), perturbed_circle(0.3)):
            check_convex_sampling(c, trials=50, rng=1)
            print(check_convex_criterion(c, samples=50, rng=1).notes)
        print("scipy.optimize" in sys.modules)
    """
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *notes, loaded = proc.stdout.splitlines()
    assert notes[3:] == ["pair scan found a rank drop"] * 2
    assert all(n.endswith("plus a deterministic pair scan") for n in notes[:3])
    assert loaded == "False"

def test_cusp_on_the_scan_grid_is_a_degeneracy():
    astroid = build_model("fourier", 2, ASTROID)
    with pytest.raises(DegeneracyError):
        _anns(astroid, _grid(astroid), 1)
    with pytest.raises(DegeneracyError):
        check_convex_criterion(astroid, samples=10, rng=0)
    # the velocity at these cusps evaluates to about 1e-16, not to 0
    sep = 0.05 * astroid.projective_period
    for t in (np.pi / 2, np.pi, 3 * np.pi / 2):
        with pytest.raises(DegeneracyError):
            _anns(astroid, np.array([t]), 1)
        for t1, t2 in ((t, t + 1.0), (t + 1.0, t)):
            with pytest.raises(DegeneracyError):
                _sigma_block(astroid, 1, [t1], [t2], sep, DEFAULT)


def test_pair_scan_logs_one_record_per_composition(trig, caplog):
    check_convex_criterion(trig[3], samples=5, rng=0)
    assert not [r for r in caplog.records if r.name == "osculant"]
    caplog.set_level(logging.DEBUG, logger="osculant")
    check_convex_criterion(trig[3], samples=5, rng=0)
    msgs = [r.getMessage() for r in caplog.records if r.name == "osculant"]
    # n = 3 has no composition left for the scan once (1, 2) is certified
    assert [m.split(":")[0] for m in msgs] == ["pair scan (1, 2)"]
    assert all("certified by osculating-hyperplane positivity" in m
               and "covers (2, 1)" in m and "margin" in m and "slack" in m
               and "256x256 grid" in m and "deflation remainder" in m
               for m in msgs)


def test_self_mirrored_composition_skips_mirror_candidates(trig, caplog):
    caplog.set_level(logging.DEBUG, logger="osculant")
    check_convex_criterion(trig[4], samples=5, rng=0)
    msgs = [r.getMessage() for r in caplog.records if r.name == "osculant"]
    assert [m.split(":")[0] for m in msgs] == ["pair scan (1, 3)",
                                               "pair scan (2, 2)"]
    assert "certified by osculating-hyperplane positivity" in msgs[0]
    assert ("covers (2, 2) by transpose" in msgs[1]
            and "evaluations" in msgs[1] and "smallest refined sigma" in msgs[1])
    refined, skipped = map(int, re.search(
        r"(\d+) candidates refined, (\d+) mirror candidates skipped",
        msgs[1]).groups())
    assert refined < 12
    assert skipped >= 1


def test_pair_scan_refines_only_local_minima(rational, caplog):
    # (1, 3) and (2, 2) each have 4 local minima under the trigger; the
    # scan must stop there rather than walk on through non-minimum cells.
    # The sigma-value counts pin every pattern-search trajectory as well
    caplog.set_level(logging.DEBUG, logger="osculant")
    assert _pair_scan(dual_curve(rational[4]), DEFAULT) is None
    msgs = [r.getMessage() for r in caplog.records if r.name == "osculant"]
    counts = [tuple(map(int, re.search(
        r"(\d+) candidates refined, (\d+) mirror candidates skipped, "
        r"(\d+) evaluations", m).groups())) for m in msgs]
    assert counts == [(4, 0, 4400), (3, 1, 3050)]


def test_hyperplane_certificate_on_convex_curves(trig, rational):
    curves = [c for n in range(2, 7) for c in (trig[n], rational[n])]
    curves += [dual_curve(rational[4]),
               project_iterated(trig[4], (1.0,)).curve,
               perturbed_circle(0.05)]
    for c in curves:
        assert _hyperplane_certificate(c, DEFAULT) == (True, None), c.model


def test_hyperplane_certificate_refuses_nonconvex_curves():
    astroid = build_model("fourier", 2, ASTROID)
    for c in (nonconvex_space_curve(), astroid, perturbed_circle(0.1001),
              perturbed_circle(0.11), perturbed_circle(0.3)):
        certified, meets = _hyperplane_certificate(c, DEFAULT)
        assert not certified, c.model
        lo, hi = meets["h_range"]
        assert lo < 0 < hi


def test_criterion_without_pair_scan_skips_the_certificate(trig, monkeypatch):
    def refuse(curve, tol):
        raise AssertionError("certificate ran")
    monkeypatch.setattr(convexity, "_hyperplane_certificate", refuse)
    assert check_convex_criterion(trig[3], samples=5, rng=0, pair_scan=False)


@pytest.mark.parametrize("a", [0.102, 0.105])
def test_osculating_hyperplane_meeting_the_curve_fails(a):
    # the pair scan misses these curves; sampling and h do not
    pc = perturbed_circle(a)
    samp = check_convex_sampling(pc, trials=2000, rng=1)
    assert not samp and samp.witness["total"] == 4
    report = check_convex_criterion(pc, samples=50, rng=1)
    assert not report
    assert report.notes == "an osculating hyperplane meets the curve again"
    lo, hi = report.witness["h_range"]
    assert lo < 0 < hi
    t1, t2 = report.witness["moments"]
    assert 0 < abs(t1 - t2) < pc.projective_period
    # the tangent line at t1 passes through gamma(t2)
    cov = fourier.evaluate(pc.dual_coeffs, t1)
    pt = pc.point(t2)
    assert abs(cov @ pt) < 1e-9 * np.linalg.norm(cov) * np.linalg.norm(pt)


def test_perturbed_circle_fails_sampling():
    report = check_convex_sampling(perturbed_circle(0.3), trials=400, rng=1)
    assert not report
    assert report.witness["total"] > 2
    assert len(report.witness["tangencies"]) >= 3


def test_perturbed_circle_bitangent_witness():
    pc = perturbed_circle(0.3)
    report = check_convex_criterion(pc, samples=50, rng=1)
    assert not report
    w = report.witness
    assert w["composition"] == (1, 1)    # two tangent lines coincide
    assert w["sigma_min"] < 1e-10
    t1, t2 = w["moments"]
    assert all(0 <= t < pc.projective_period for t in (t1, t2))
    assert abs(t1 - t2) > 0.1            # genuinely distinct moments


def test_small_wobble_stays_convex():
    c = perturbed_circle(0.05)
    assert check_convex_sampling(c, trials=200, rng=3)
    assert check_convex_criterion(c, samples=40, rng=3)


def test_space_curve_explicit_violation():
    sc = nonconvex_space_curve()
    rc = count_roots(sc, (0.0, 3.0, 0.0, -1.0))
    assert rc.total == 4                 # exceeds the bound for n = 3
    assert all(m == 1 for _, m in rc.tangencies)


def test_space_curve_fails_both_checks():
    sc = nonconvex_space_curve()
    assert not check_convex_sampling(sc, trials=400, rng=2)
    report = check_convex_criterion(sc, samples=50, rng=2)
    assert not report
    comp = report.witness["composition"]
    assert sorted(comp) == [1, 2]        # tangent line inside an osculating plane
    assert all(0 <= t < sc.projective_period for t in report.witness["moments"])
    t1, t2 = sorted(t % (2 * math.pi) for t in report.witness["moments"])
    assert t1 == pytest.approx(0.0, abs=1e-6)
    assert t2 == pytest.approx(math.pi, abs=1e-6)


def test_reports_are_deterministic_for_fixed_seed(trig):
    a = check_convex_sampling(trig[3], trials=60, rng=7)
    b = check_convex_sampling(trig[3], trials=60, rng=7)
    assert (a.verdict, a.trials, a.max_roots_seen) == \
           (b.verdict, b.trials, b.max_roots_seen)
