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
from osculant.convexity import (MOMENT_SEP, _annihilators,
                                _intersection_dim_stable, _pair_scan,
                                _random_composition, _rank_decisions,
                                _sigma_block, _stacked_sigmas,
                                _wronskian_certificate)
from osculant.curves import (build_model, dual_curve, nonconvex_space_curve,
                             perturbed_circle)
from osculant.errors import DegeneracyError, PrecisionError
from osculant.projection import project_iterated
from osculant.projective import (RANK_REL, intersect, joint_null,
                                 osculating_frame, osculating_subspace,
                                 separated_moments)

ASTROID = [[1], [0, .75, 0, 0, 0, .25, 0], [0, 0, .75, 0, 0, 0, -.25]]


def _grid(c):
    return np.arange(96) * (c.projective_period / 96)


def _anns(c, ts, k):
    """Codimension-k annihilators at ts."""
    return _annihilators(c, ts, k)


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
            sig = _sigma_block(c, k, grid, grid, sep)
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
            sig = _sigma_block(c, k, grid, grid, sep)
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
                block = _sigma_block(c, k, ts1, ts2, sep)
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
    # one SVD read at both cutoffs decides what intersect and its 10x
    # reference decide
    for make in CERTIFY_CURVES:
        c = make()
        n, period = c.n, c.projective_period
        rng = np.random.default_rng(5)
        for _ in range(200):
            parts = _random_composition(n, rng)
            moments = separated_moments(len(parts), period,
                                        MOMENT_SEP * period, rng)
            subs = [osculating_subspace(c, t, n - k)
                    for k, t in zip(parts, moments)]
            dim = intersect(subs).dim
            dim10 = len(joint_null([s.annihilator() for s in subs],
                                   RANK_REL, 10 * RANK_REL)[1]) - 1
            if dim != dim10:
                with pytest.raises(PrecisionError):
                    _intersection_dim_stable(c, parts, moments)
            else:
                assert _intersection_dim_stable(c, parts, moments) == dim
    # the pinned witness of the non-convex control
    c, moments = nonconvex_space_curve(), (0.0, 3.1415926540347137)
    subs = [osculating_subspace(c, moments[0], 2),
            osculating_subspace(c, moments[1], 1)]
    assert intersect(subs).dim == 1
    assert _intersection_dim_stable(c, (1, 2), moments) == 1


def test_pair_scan_control_witnesses_are_pinned():
    w = _pair_scan(nonconvex_space_curve())
    assert (w["composition"], w["moments"], w["dim"]) == \
           ((1, 2), (0.0, 3.141592655296769), 1)
    w = _pair_scan(perturbed_circle(0.3))
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
        w = _pair_scan(c)
        assert (w is not None) == found, key
        if found:
            assert _intersection_dim_stable(c, w["composition"],
                                            w["moments"]) > 0, key


PASS = "all 50 random intersections are points plus a deterministic pair scan"
SCAN = "pair scan found a rank drop"
MEETS = "an osculating hyperplane meets the curve again"
# notes of check_convex_criterion(c, 50, rng=1) before the Wronskian
# certificate, when only (1, n-1) had a proof and (2, 2) was always scanned
RANDOM_CRITERION_NOTES = dict(zip(RANDOM_SCAN_VERDICTS, (
    PASS, SCAN, SCAN, PASS, PASS, PASS,
    PASS, SCAN, SCAN, SCAN, MEETS, SCAN)))
CIRCLE_CRITERION_NOTES = {
    0.05: PASS, 0.09: PASS, 0.098: PASS, 0.1: PASS, 0.1001: MEETS,
    0.102: MEETS, 0.11: SCAN, 0.2: MEETS, 0.3: SCAN, 0.5: SCAN}


def test_criterion_notes_are_pinned(trig, rational):
    curves = [(key, _random_fourier_curve(*key), notes)
              for key, notes in RANDOM_CRITERION_NOTES.items()]
    curves += [(a, perturbed_circle(a), notes)
               for a, notes in CIRCLE_CRITERION_NOTES.items()]
    curves += [("space", nonconvex_space_curve(), SCAN)]
    curves += [(c.model, c, PASS) for n in range(2, 7)
               for c in (trig[n], rational[n])]
    for key, c, notes in curves:
        report = check_convex_criterion(c, 50, rng=1)
        assert (report.verdict, report.notes) == (notes == PASS, notes), key


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
                _sigma_block(astroid, 1, [t1], [t2], sep)


def _proof_records(caplog):
    """Certificate and pair-scan records, without the criterion's own."""
    return [r.getMessage() for r in caplog.records if r.name == "osculant"
            and not r.getMessage().startswith("criterion on")]


def test_pair_scan_logs_one_record_per_composition(trig, caplog):
    check_convex_criterion(trig[3], samples=5, rng=0)
    assert not [r for r in caplog.records if r.name == "osculant"]
    caplog.set_level(logging.DEBUG, logger="osculant")
    # records appear when a curve's proof is made, so the curve is fresh
    c = build_model("trig_convex", 3)
    check_convex_criterion(c, samples=5, rng=0)
    msgs = _proof_records(caplog)
    # n = 3 has no composition left for the scan once (1, 2) is certified
    assert [m.split(":")[0] for m in msgs] == ["pair scan (1, 2)"]
    assert all("certified by osculating-hyperplane positivity" in m
               and "covers (2, 1)" in m and "margin" in m and "slack" in m
               and "256x256 grid" in m and "deflation remainder" in m
               for m in msgs)
    caplog.clear()
    check_convex_criterion(c, samples=5, rng=1)
    assert _proof_records(caplog) == []


def test_self_mirrored_composition_skips_mirror_candidates(trig, caplog):
    caplog.set_level(logging.DEBUG, logger="osculant")
    assert _pair_scan(trig[4]) is None
    msgs = [r.getMessage() for r in caplog.records if r.name == "osculant"]
    assert [m.split(":")[0] for m in msgs] == ["pair scan (1, 3)",
                                               "pair scan (2, 2)"]
    assert ("covers (2, 2) by transpose" in msgs[1]
            and "evaluations" in msgs[1] and "smallest refined sigma" in msgs[1])
    refined, skipped = map(int, re.search(
        r"(\d+) candidates refined, (\d+) mirror candidates skipped",
        msgs[1]).groups())
    assert refined < 12
    assert skipped >= 1
    # the criterion proves both compositions and scans neither; records
    # appear when a curve's proof is made, so the curve is fresh
    caplog.clear()
    c = build_model("trig_convex", 4)
    check_convex_criterion(c, samples=5, rng=0)
    msgs = _proof_records(caplog)
    assert [m.split(":")[0] for m in msgs] == ["pair scan (1, 3)",
                                               "pair scan (2, 2)"]
    assert "certified by osculating-hyperplane positivity" in msgs[0]
    assert "certified by Wronskian positivity, covers (2, 2)" in msgs[1]
    caplog.clear()
    check_convex_criterion(c, samples=5, rng=1)
    assert _proof_records(caplog) == []


def test_pair_scan_refines_only_local_minima(rational, caplog):
    # (1, 3) and (2, 2) each have 4 local minima under the trigger; the
    # scan must stop there rather than walk on through non-minimum cells.
    # The sigma-value counts pin every pattern-search trajectory as well
    caplog.set_level(logging.DEBUG, logger="osculant")
    assert _pair_scan(dual_curve(rational[4])) is None
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
        assert _wronskian_certificate(c, 1) == (True, None), c.model


def test_hyperplane_certificate_refuses_nonconvex_curves():
    astroid = build_model("fourier", 2, ASTROID)
    for c in (nonconvex_space_curve(), astroid, perturbed_circle(0.1001),
              perturbed_circle(0.11), perturbed_circle(0.3)):
        certified, meets = _wronskian_certificate(c, 1)
        assert not certified, c.model
        assert meets["composition"] == (1, c.n - 1)
        lo, hi = meets["w_range"]
        assert lo < 0 < hi


def test_wronskian_certifies_every_composition_of_the_stock_curves(
        trig, rational):
    for c in [c for n in range(4, 7) for c in (trig[n], rational[n])] + [
            dual_curve(rational[4])]:
        for k in range(2, c.n // 2 + 1):
            assert _wronskian_certificate(c, k) == (True, None), \
                (c.model, k)


def test_refinement_certifies_curves_near_the_threshold(caplog):
    # min|W| lies under the grid's Lipschitz slack on each of these convex
    # curves; refining only the cells under the slack proves them
    caplog.set_level(logging.DEBUG, logger="osculant")
    for c, k in ((perturbed_circle(0.09), 1), (perturbed_circle(0.098), 1),
                 (_random_fourier_curve(4, 0.05, 0), 2),
                 (_random_fourier_curve(4, 0.03, 1), 2)):
        caplog.clear()
        assert _wronskian_certificate(c, k) == (True, None), k
        depth = int(re.search(r"refined to depth (\d+)",
                              caplog.records[-1].getMessage()).group(1))
        assert 1 <= depth <= convexity.REFINE_DEPTH


def test_wronskian_rounding_bound_covers_the_grid_error(
        trig, rational, monkeypatch, caplog):
    # the certificate evaluates W from coefficients an FFT gives it; an
    # extended-precision determinant of the g values is the reference
    seen = {}

    def spy(d):
        seen["d"], seen["wc"] = d, wronskian_coeffs(d)
        return seen["wc"]
    wronskian_coeffs = convexity._wronskian_coeffs
    monkeypatch.setattr(convexity, "_wronskian_coeffs", spy)
    caplog.set_level(logging.DEBUG, logger="osculant")

    def phases(ts, m):
        nu = np.arange(-(m // 2), m // 2 + 1, dtype=np.longdouble) / 2
        return np.exp(1j * np.multiply.outer(ts.astype(np.longdouble), nu))
    ts = fourier.sample_grid(convexity.HYPERPLANE_GRID)
    cases = [(c, k) for c in [c for n in range(4, 7)
                              for c in (trig[n], rational[n])]
             + [dual_curve(rational[4])] for k in range(2, c.n // 2 + 1)]
    cases += [(perturbed_circle(0.098), 1),
              (_random_fourier_curve(4, 0.05, 0), 2),
              (_random_fourier_curve(4, 0.03, 1), 2)]
    for c, k in cases:
        caplog.clear()
        assert _wronskian_certificate(c, k)[0], (c.model, k)
        rounding = float(re.search(r"rounding ([^ ]+) on",
                                   caplog.records[-1].getMessage()).group(1))
        d, wc = seen["d"], seen["wc"]
        w = (fourier.phase_matrix(ts, wc.shape[0] // 2) @ wc
             @ fourier.phase_matrix(ts, wc.shape[1] // 2).T).real
        e1, e2 = (phases(ts, m) for m in d[0][0].shape)
        exact = convexity._leibniz([[e1 @ g @ e2.T for g in row]
                                    for row in d]).real
        assert np.abs(w - exact).max() < rounding, (c.model, k)


def test_wronskian_zero_is_a_hyperplane_meeting_the_curve_n_plus_one_times():
    c = _random_fourier_curve(4, 0.05, 1)
    n, k = c.n, 2
    certified, meets = _wronskian_certificate(c, k)
    assert not certified and meets["composition"] == (k, n - k)
    lo, hi = meets["w_range"]
    assert lo < 0 < hi
    t1, t2 = meets["moments"]
    # the pencil spanned by gamma*^(j)(t1), j < k, has a member that meets
    # the curve n-k+1 times at t1 and k times at t2
    pencil = np.array([fourier.evaluate(c.dual_coeffs, t1, order=j)
                       for j in range(k)])
    at_t2 = c.jet(t2, k - 1)
    _, sv, vh = np.linalg.svd(at_t2 @ pencil.T)
    assert sv[-1] < 1e-9 * sv[0]
    cov = vh[-1] @ pencil
    for t, order in ((t1, n - k + 1), (t2, k)):
        jet = c.jet(t, order - 1)
        rel = np.abs(jet @ cov) / (np.linalg.norm(jet, axis=1)
                                   * np.linalg.norm(cov))
        assert rel.max() < 1e-9, (t, order, rel)


def test_certified_curves_run_no_pair_scan(trig, rational, monkeypatch):
    def refuse(*args):
        raise AssertionError("pair scan ran")
    monkeypatch.setattr(convexity, "_sigma_block", refuse)
    for c in (trig[4], dual_curve(rational[4])):
        report = check_convex_criterion(c, samples=50, rng=1)
        assert report, c.model
        assert report.notes.endswith("plus a deterministic pair scan")


def test_certified_compositions_need_no_random_rank_decision(rational):
    # this draw puts two moments 0.0033 apart, where the (k, n-k) rank
    # decision flips under a 10x tolerance; (1, 3) and (2, 2) are proved,
    # so the draw is a point without one
    c = dual_curve(rational[4])
    rng = np.random.default_rng([13, 62, 2, 1])
    with pytest.raises(PrecisionError):
        check_convex_criterion(c, samples=50, rng=rng, pair_scan=False)
    rng = np.random.default_rng([13, 62, 2, 1])
    assert check_convex_criterion(c, samples=50, rng=rng)


def test_refused_draw_defers_to_a_wronskian_zero():
    # a near-diagonal draw flips under a 10x cutoff, but both Wronskians
    # of this curve change sign: the draws stop and the pair scan decides
    c = _random_fourier_curve(4, 0.04, 8)
    assert _wronskian_certificate(c, 2)[1] is not None
    with pytest.raises(PrecisionError):
        check_convex_criterion(c, 30, rng=8, pair_scan=False)
    report = check_convex_criterion(c, 30, rng=8)
    assert not report
    assert report.notes == "pair scan found a rank drop"
    assert report.witness["composition"] == (2, 2)
    assert report.witness["dim"] == 1


def test_stacked_rank_decisions_are_the_per_draw_path(trig, rational):
    # per draw: one jet per moment, osculating_frame, then joint_null's SVD
    # read at RANK_REL and 10 RANK_REL
    curves = [c for n in range(2, 7) for c in (trig[n], rational[n])]
    curves += [dual_curve(rational[4]), nonconvex_space_curve(),
               perturbed_circle(0.3)]
    for c in curves:
        n, period = c.n, c.projective_period
        rng = np.random.default_rng(11)
        stacks = {}
        for _ in range(200):
            parts = _random_composition(n, rng)
            stacks.setdefault(parts, []).append(separated_moments(
                len(parts), period, MOMENT_SEP * period, rng))
        for parts, draws in stacks.items():
            sigmas = _stacked_sigmas(c, parts, draws)
            decisions = _rank_decisions(c, parts, draws)
            for moments, sig, decided in zip(draws, sigmas, decisions):
                anns = [osculating_frame(c.jet(float(t), n - k))[n - k + 1:]
                        for k, t in zip(parts, moments)]
                want = np.linalg.svd(np.vstack(anns))[1]
                assert np.array_equal(sig, want), (c.model, parts, moments)
                dim, dim10 = (len(null) - 1 for null in joint_null(
                    anns, RANK_REL, 10 * RANK_REL))
                if dim == dim10:
                    assert decided == dim
                else:
                    assert isinstance(decided, PrecisionError)


def test_degenerate_draw_refuses_only_itself():
    # the astroid's velocity vanishes at pi/2; the draws beside it in the
    # stack keep the decisions they have alone
    astroid = build_model("fourier", 2, ASTROID)
    draws = [(0.3, 1.2), (np.pi / 2, 2.5), (0.7, 2.9)]
    decisions = _rank_decisions(astroid, (1, 1), draws)
    assert isinstance(decisions[1], DegeneracyError)
    assert str(decisions[1]) == "a jet of order 1 has a vanishing row"
    for moments, decided in zip(draws[::2], decisions[::2]):
        assert decided == _intersection_dim_stable(astroid, (1, 1), moments)
    with pytest.raises(DegeneracyError):
        _intersection_dim_stable(astroid, (1, 1), draws[1])


def _refuse_proof(monkeypatch):
    def refuse(*args):
        raise AssertionError("the two-part proof was made again")
    monkeypatch.setattr(convexity, "_wronskian_certificate", refuse)
    monkeypatch.setattr(convexity, "_sigma_block", refuse)


def test_second_criterion_call_reads_the_kept_proof(monkeypatch):
    curves = [build_model("trig_convex", 4),
              dual_curve(build_model("rational_normal", 4)),
              nonconvex_space_curve(), perturbed_circle(0.3),
              perturbed_circle(0.102), _random_fourier_curve(4, 0.04, 8)]
    first = [check_convex_criterion(c, 30, rng=8) for c in curves]
    assert [r.notes for r in first[2:]] == [SCAN, SCAN, MEETS, SCAN]
    _refuse_proof(monkeypatch)
    for c, report in zip(curves, first):
        assert check_convex_criterion(c, 30, rng=8) == report, c.model


def test_edited_witnesses_leave_the_next_report_unchanged(monkeypatch):
    curves = [nonconvex_space_curve(), perturbed_circle(0.102)]
    reports = [check_convex_criterion(c, 50, rng=1) for c in curves]
    assert [r.notes for r in reports] == [SCAN, MEETS]
    want = [dict(r.witness) for r in reports]
    for r in reports:
        r.witness["composition"] = (9, 9)
        r.witness.pop("moments")
    _refuse_proof(monkeypatch)
    for c, w in zip(curves, want):
        assert check_convex_criterion(c, 50, rng=1).witness == w


def test_a_call_that_raises_keeps_no_proof():
    astroid = build_model("fourier", 2, ASTROID)
    with pytest.raises(DegeneracyError):
        check_convex_criterion(astroid, samples=10, rng=0)
    assert "two_part_proof" not in vars(astroid)
    # this draw's rank decision flips, and no W of trig_convex:6 has a zero
    c = build_model("trig_convex", 6)
    rng = np.random.default_rng(4)
    with pytest.raises(PrecisionError, match="flips from 0 to 1"):
        check_convex_criterion(c, 50, rng=rng)
    assert "two_part_proof" not in vars(c)
    # every tuple was drawn before the walk stopped
    period = c.projective_period
    ref = np.random.default_rng(4)
    for _ in range(50):
        parts = _random_composition(c.n, ref)
        separated_moments(len(parts), period, MOMENT_SEP * period, ref)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert check_convex_criterion(c, 20, rng=0, pair_scan=False)
    assert "two_part_proof" not in vars(c)


CRITERION_RECORD = re.compile(
    r"criterion on (.+): (\d+) draws, (\d+) skipped as proved, (\d+) decided "
    r"in (\d+) stacks, walk (.+); two-part proof: (.+)")


def test_criterion_logs_one_record_per_call(caplog):
    check_convex_criterion(nonconvex_space_curve(), samples=20, rng=0)
    assert not [r for r in caplog.records if r.name == "osculant"]
    caplog.set_level(logging.DEBUG, logger="osculant")
    space, trig4 = nonconvex_space_curve(), build_model("trig_convex", 4)
    cases = [
        (space, 50, 1, True, "ran through every draw",
         "certificates made, pair scan made"),
        (space, 50, 1, True, "ran through every draw",
         "certificates kept, pair scan kept"),
        (trig4, 50, 1, False, "ran through every draw", "not read"),
        (trig4, 50, 1, True, "ran through every draw",
         "certificates made, pair scan made"),
        (_random_fourier_curve(4, 0.04, 8), 30, 8, True,
         "stopped at draw 9 on PrecisionError, deferred to a zero of W",
         "certificates made, pair scan made"),
        (build_model("trig_convex", 6), 50, 4, True,
         "stopped at draw 11 on PrecisionError",
         "certificates made, pair scan not reached"),
    ]
    # the draws at which the walk stops are those at which a draw-by-draw
    # criterion raised
    for c, samples, seed, scan, walk, proof in cases:
        caplog.clear()
        try:
            check_convex_criterion(c, samples, rng=seed, pair_scan=scan)
        except PrecisionError:
            pass
        msgs = [r.getMessage() for r in caplog.records
                if r.name == "osculant" and r.getMessage().startswith(
                    "criterion on")]
        assert len(msgs) == 1, msgs
        model, drawn, skipped, decided, stacks, got_walk, got_proof = \
            CRITERION_RECORD.fullmatch(msgs[0]).groups()
        assert (model, int(drawn)) == (c.model, samples)
        assert int(skipped) + int(decided) == samples
        assert (int(skipped) > 0) == (scan and c.model.startswith("trig"))
        assert 1 <= int(stacks) <= 2 ** (c.n - 1)
        assert (got_walk, got_proof) == (walk, proof)


def test_criterion_without_pair_scan_skips_the_certificate(trig, monkeypatch):
    def refuse(curve, k):
        raise AssertionError("certificate ran")
    monkeypatch.setattr(convexity, "_wronskian_certificate", refuse)
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
    lo, hi = report.witness["w_range"]
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
