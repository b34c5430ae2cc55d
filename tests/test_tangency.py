"""Tangency counting against closed-form and algebraic oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from osculant import fourier, tangency
from osculant import (
    BinaryForm,
    count_roots,
    count_roots_many,
    form_to_point,
    RootCount,
    order_of_tangency,
    osculating_subspace,
    sturm_count,
    tangency_function,
)
from osculant.curves import (ParamCurve, build_model, dual_curve,
                             nonconvex_space_curve, perturbed_circle)
from osculant.errors import DegeneracyError, PrecisionError
from osculant.projection import project_iterated
from osculant.projective import point_vector
from osculant.strata import _census_point


def _form_from_roots(roots, degree):
    """Monic real-rooted form of the given degree, ascending coefficients."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [Fraction(0)] + coeffs
        for j in range(len(coeffs) - 1):
            coeffs[j] -= Fraction(r) * coeffs[j + 1]
    while len(coeffs) < degree + 1:
        coeffs.append(Fraction(0))
    return BinaryForm(tuple(coeffs))


def test_circle_outside_point_two_tangents(trig):
    circle = trig[2]
    rc = count_roots(circle, (1.0, 3.0, 0.0))
    assert rc.total == 2
    taus = sorted(t for t, _ in rc.tangencies)
    expected = [math.acos(1.0 / 3.0), 2 * math.pi - math.acos(1.0 / 3.0)]
    assert np.allclose(taus, expected, atol=1e-10)
    assert all(m == 1 for _, m in rc.tangencies)


def test_circle_inside_point_no_tangents(trig):
    assert count_roots(trig[2], (1.0, 0.1, 0.0)).total == 0
    assert count_roots(trig[2], (1.0, 0.0, 0.0)).total == 0


def test_point_on_circle_double_tangency(trig):
    circle = trig[2]
    p = circle.point(1.0)
    rc = count_roots(circle, p)
    assert rc.total == 2
    assert rc.tangencies == ((pytest.approx(1.0, abs=1e-8), 2),)


def test_tangency_function_vanishes_at_moments(trig, rng):
    for n in (2, 3, 4):
        c = trig[n]
        p = rng.standard_normal(n + 1)
        F = tangency_function(c, p)
        scale = max(abs(F(t)) for t in np.linspace(0, 2 * np.pi, 64))
        for tau, _ in count_roots(c, p).tangencies:
            assert abs(F(tau)) <= 1e-9 * scale


def test_tangency_function_is_the_determinant(trig, rational, rng):
    # reference: F_p(t) = det[gamma, gamma', ..., gamma^(n-1), p] on a grid
    curves = [*trig.values(), *rational.values(),
              perturbed_circle(0.3), nonconvex_space_curve()]
    ts = np.linspace(0.0, 4.0 * np.pi, 97)
    for c in curves:
        n = c.n
        v = rng.standard_normal(n + 1)
        v /= np.linalg.norm(v)
        jets = c.jet_grid(ts, n - 1)
        rows = np.broadcast_to(v, (ts.size, 1, n + 1))
        want = np.linalg.det(np.concatenate([jets, rows], axis=1))
        got = tangency_function(c, v)(ts)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), c


def test_curve_owned_scales_are_the_evaluated_maxima(trig, rational, rng):
    child = project_iterated(trig[4], [0.7]).curve
    for c in (trig[3], trig[4], trig[6], rational[3], rational[6], child):
        F = tangency_function(c, rng.standard_normal(c.n + 1))
        period = c.projective_period
        ts = (np.arange(4096) + 1.0 / np.pi) * (period / 4096)
        for j in range(c.n + 1):
            scale = tangency._scales(c, F.deriv_coeffs(j)[None])
            assert scale.shape == (1,)
            assert scale[0] == np.abs(fourier.evaluate(F.coeffs, ts, j)).max()


def test_scalar_path_is_fourier_evaluate(trig, rational, rng):
    # TrigPoly keeps its frequencies and derivative coefficients; a value
    # must still be fourier.evaluate's, bit for bit, scalar or array
    for n in range(2, 7):
        for c in (trig[n], rational[n]):
            F = tangency_function(c, rng.standard_normal(n + 1))
            nu = fourier.frequencies(F.K)
            ts = rng.uniform(0.0, c.projective_period, 6)
            for j in range(n + 2):
                for t in ts:
                    assert F(t, order=j) == fourier.evaluate(F.coeffs, t, j)
                assert np.array_equal(F(ts, order=j),
                                      fourier.evaluate(F.coeffs, ts, j))
                want = fourier.TrigPoly(F.coeffs * (1j * nu) ** j)
                assert np.array_equal(F.deriv(j).coeffs, want.coeffs)


def test_fixed_grids_are_sampled_once_per_curve(monkeypatch, rng):
    # the scale grid and the hull's support grid belong to their curves:
    # no second count and no boundary_scale rebuilds a large phase matrix
    c = build_model("trig_convex", 4)
    hull = c.hull
    count_roots(c, rng.standard_normal(5))
    rows = []
    real = fourier.phase_matrix

    def recorder(ts, K):
        rows.append(np.size(ts))
        return real(ts, K)

    monkeypatch.setattr(fourier, "phase_matrix", recorder)
    count_roots(c, rng.standard_normal(5))
    hull.boundary_scale(rng.standard_normal(4))
    assert rows and max(rows) < 256


# count_roots totals on 100 census draws per curve, default_rng(7) per curve;
# every site in these draws is a simple zero
_PINNED_CENSUS_TOTALS = {
    "rational_normal:3": "11333331313331131313131111311111113133111313313311"
        "33313313313111131131131113111111313131111133313331",
    "rational_normal:5": "31153133111313111355131513111155111331311111331113"
        "53333513333113115333153311111351135331353111355355",
    "rational_normal:6": "44244424222062640224462644024624220042242226226022"
        "44224422004240202062022622024426024424642242442004",
    "trig_convex:3": "11311131311131131133111111111111111311111133111111"
        "11113313313111111131111113111111311131311131111331",
    "trig_convex:4": "20002402204202202442022042220222220000040022042222"
        "24000224002222002222002442002202224000222042222204",
    "trig_convex:6": "22024022022262642402022622024222220220022426426022"
        "22222222022220220022020622242226222222622222224202",
}


def test_census_draw_counts_are_pinned():
    for name, want in _PINNED_CENSUS_TOTALS.items():
        model, n = name.split(":")
        c = build_model(model, int(n))
        rng = np.random.default_rng(7)
        got = []
        for _ in range(len(want)):
            rc = count_roots(c, _census_point(c, rng))
            assert [m for _, m in rc.tangencies] == [1] * rc.total, name
            got.append(str(rc.total))
        assert "".join(got) == want, name


def _astroid():
    return build_model("fourier", 2, [[1], [0, .75, 0, 0, 0, .25, 0],
                                      [0, 0, .75, 0, 0, 0, -.25]])


def test_polish_windows_are_computed_only_for_orders_tried(monkeypatch):
    # order m is tried only where m unit-band candidates crowd a zero, so
    # the window of order m, and the scale product it reads, wait until then;
    # each row of the scale table is matched to its point and order by its
    # coefficients, F_p^(j) as tangency_function's deriv_coeffs(j)
    c = build_model("rational_normal", 6)
    pts = np.random.default_rng(3).standard_normal((300, 7))
    order_of = {tangency_function(c, p).deriv_coeffs(j).tobytes(): (i, j)
                for i, p in enumerate(pts) for j in range(c.n + 1)}
    requested = [set() for _ in pts]
    scales = tangency._scales

    def recording(curve, D):
        for d in D:
            i, j = order_of[d.tobytes()]
            requested[i].add(j)
        return scales(curve, D)

    monkeypatch.setattr(tangency, "_scales", recording)
    results = [rc for k in range(0, 300, tangency.BLOCK_ROWS)
               for rc in count_roots_many(c, pts[k:k + tangency.BLOCK_ROWS])]
    totals = set()
    for orders, rc in zip(requested, results):
        total = rc.total
        assert orders == {0} if total == 0 else orders <= set(range(total + 1))
        totals.add(total)
    assert {2, 4} <= totals


def test_dual_spectrum_folds_onto_one_residue_class(trig, rational):
    # F_p's polynomial in u = exp(i t/2) is u^j0 Q(u^s) with s = 4 pi / period
    curves = [*trig.values(), *rational.values(),
              dual_curve(rational[4]), project_iterated(trig[5], [0.7]).curve,
              perturbed_circle(0.3), nonconvex_space_curve(), _astroid()]
    for c in curves:
        s, j0 = c.dual_fold
        assert s * c.projective_period == pytest.approx(4.0 * np.pi), c
        assert 0 <= j0 < s, c
        col = np.abs(c.dual_coeffs).max(axis=0)
        off = (np.arange(col.size) - j0) % s != 0
        assert col[~off].max() == col.max(), c
        assert col[off].max(initial=0.0) <= 1e-12 * col.max(), c


def test_mixed_residue_classes_are_a_degeneracy():
    # rows 1, cos(t/2), sin t: the dual mixes odd and even k over period 2 pi
    K = 2
    one, half_cos, sin1 = (np.zeros(2 * K + 1, complex) for _ in range(3))
    one[K] = 1.0
    half_cos[K - 1] = half_cos[K + 1] = 0.5
    sin1[K + 2], sin1[K - 2] = -0.5j, 0.5j
    c = ParamCurve(np.vstack([one, half_cos, sin1]))
    with pytest.raises(DegeneracyError, match="anti"):
        count_roots(c, (1.0, 0.3, 0.2))
    # an empty spectrum has no class to mix: F_p vanishes identically
    with pytest.raises(DegeneracyError, match="identically"):
        count_roots(ParamCurve(np.ones((3, 1))), (1.0, 0.3, 0.2))


def test_counts_survive_a_jet_that_drops_rank():
    # the astroid has cusps: no dual curve, but F_p is still a trig polynomial
    astroid = _astroid()
    assert count_roots(astroid, (1.0, 0.1, 0.05)).total == 8
    assert count_roots(astroid, (1.0, 2.0, 0.3)).total == 6
    with pytest.raises(DegeneracyError):
        dual_curve(astroid)


def _circ_close(got, expected, period, atol):
    def canon(x):
        x = x % period
        return x - period if x > period - atol else x

    assert len(got) == len(expected)
    for a, b in zip(sorted(map(canon, got)), sorted(map(canon, expected))):
        d = abs(a - b) % period
        assert min(d, period - d) <= atol, (got, expected)


def test_rational_normal_matches_sturm(rational):
    # planted rational roots x land at the moment with cot(t) = -x;
    # a root at infinity (degree drop) lands at t = 0 mod pi
    cases = [
        (2, [3, -2]),
        (3, [1, 1, 4]),
        (4, [-1, 1]),
        (5, [0, 2, -3]),
        (6, [5]),
    ]
    for n, roots in cases:
        f = _form_from_roots(roots, n)
        p = form_to_point(f)
        rc = count_roots(rational[n], p)
        assert rc.total == sturm_count(f), (n, roots)
        finite = [math.atan2(-1.0, r) for r in roots]
        finite += [0.0] * (rc.total - len(finite))
        _circ_close(rc.moments(), finite, math.pi, 1e-7)


def test_planted_double_root_order(rational):
    f = _form_from_roots([2, 2, 5], 3)
    p = form_to_point(f)
    rc = count_roots(rational[3], p)
    orders = sorted(m for _, m in rc.tangencies)
    assert orders == [1, 2]
    assert rc.total == 3
    tau2 = next(t for t, m in rc.tangencies if m == 2)
    assert order_of_tangency(rational[3], p, tau2) == 2


# per draw of test_flag_points_report_their_order, the order reported within
# 1e-6 of tau, or x for a refusal
_FLAG_POINT_ORDERS = (
    "111111111111111111112222222222222222222211111111111111111111"
    "222222222222222222223333333333333333333311111111111111111111"
    "222222222222222222223333333333333333333344444444444444444444"
    "111111111111111111112222222222222222222233333333333333333333"
    "444444444444444444445555555555555555555511111111111111111111"
    "222222222222222222223333333333333333333344444444444444444444"
    "555555555555555555556666666666666666666611111111111111111111"
    "222222222222222222221111111111111111111122222222222222222222"
    "333333333333333333331111111111111111111122222222222222222222"
    "333333333333333333334444444444444444444411111111111111111111"
    "222222222222222222223333333333333333333344444444444444444444"
    "555555555555555555551111111111111111111122222222222222222222"
    "3333333333333333333344444444444444444444555555555555x5555555"
    "66666666666666666666"
)


def test_flag_points_report_their_order(trig, rational, rng):
    # a point of the codimension-r osculating subspace at tau is a zero of
    # order r there.  A draw that lies within _MEMBER_REL of a deeper flag at a
    # nearby moment is that deeper point at the library's tolerance, so an
    # order the flag confirms there counts with the refusals, not as wrong
    draws, refused, wrong, reported = 0, 0, [], []
    for c in (*trig.values(), *rational.values()):
        n, period = c.n, c.projective_period
        for r in range(1, n + 1):
            for _ in range(20):
                tau = rng.uniform(0.0, period)
                basis = osculating_subspace(c, tau, n - r).basis
                p = rng.standard_normal(n - r + 1) @ basis
                draws += 1
                try:
                    rc = count_roots(c, p)
                except PrecisionError:
                    refused += 1
                    reported.append("x")
                    continue
                gap = [abs(t - tau) % period for t, _ in rc.tangencies]
                hit = [m for (_, m), d in zip(rc.tangencies, gap)
                       if min(d, period - d) <= 1e-6]
                reported.append("".join(map(str, hit)) or "-")
                if rc.total <= n and (n - rc.total) % 2 == 0:
                    if hit == [r]:
                        continue
                    if any(m > r and order_of_tangency(c, p, t) == m
                           for t, m in rc.tangencies):
                        refused += 1
                        continue
                wrong.append((c.model, r, tau, rc))
    assert draws == 800
    assert not wrong
    assert refused <= draws // 100
    assert "".join(reported) == _FLAG_POINT_ORDERS


def test_order_of_tangency_refuses_a_cusp():
    # the astroid's velocity vanishes at t = 0 and evaluates to about 1e-16
    # at t = pi/2, so neither moment has an osculating flag to read
    astroid = _astroid()
    for t in (0.0, np.pi / 2):
        jet = astroid.jet(t, 2)
        with pytest.raises(DegeneracyError):
            order_of_tangency(astroid, jet[0] + 0.37 * jet[2], t)


def test_bound_and_parity(trig, rational, rng):
    for n in range(2, 6):
        for c in (trig[n], rational[n]):
            for _ in range(40):
                rc = count_roots(c, rng.standard_normal(n + 1))
                assert rc.total <= n
                assert rc.total % 2 == n % 2


def test_moments_expand_multiplicity():
    from osculant.tangency import RootCount

    rc = RootCount(tangencies=((2.0, 2), (0.5, 1)), total=3)
    assert rc.moments() == [0.5, 2.0, 2.0]


def test_rejects_bad_points(trig):
    with pytest.raises(ValueError):
        count_roots(trig[2], (1.0, 2.0))
    with pytest.raises(ValueError):
        count_roots(trig[2], (0.0, 0.0, 0.0))


def test_rejects_non_finite_points(trig):
    for p in ((np.nan, 1.0, 0.0), (np.inf, 1.0, 0.0), (1.0, -np.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            count_roots(trig[2], p)
        with pytest.raises(ValueError, match="finite"):
            order_of_tangency(trig[2], p, 0.0)


def test_points_whose_norm_overflows_are_rescaled(trig, rng):
    # the sum of squares overflows; the point is the one at [1, 1, 1e-308]
    assert count_roots(trig[2], [1e308, 1e308, 1.0]) == \
           count_roots(trig[2], [1.0, 1.0, 1e-308])
    assert count_roots(trig[2], [1e308, 1e308, 1.0]).total == 2
    assert count_roots(trig[2], [1e-200] * 3) == count_roots(trig[2], [1.0] * 3)
    # ordinary points keep their bits: no rescaling unless the norm fails
    for v in rng.standard_normal((50, 5)) * 10.0 ** rng.integers(-8, 9, (50, 1)):
        assert np.array_equal(tangency._point_vec(v, 5), v / np.linalg.norm(v))


def _outcome(result):
    """A RootCount, or an exception as its type and message."""
    return (type(result), str(result)) if isinstance(result, Exception) else result


def _one_row(c, p):
    try:
        return count_roots(c, p)
    except Exception as exc:
        return (type(exc), str(exc))


def _block_draws(c, rng):
    """Census draws, gaussian points and points on osculating flags of c."""
    n, period = c.n, c.projective_period
    pts = [_census_point(c, rng) for _ in range(30)]
    pts += list(rng.standard_normal((20, n + 1)))
    for r in range(1, n + 1):
        for _ in range(4):
            basis = osculating_subspace(c, rng.uniform(0.0, period), n - r).basis
            pts.append(rng.standard_normal(n - r + 1) @ basis)
    return pts


def _planted_double_zeros(count, rng):
    """Points of rational_normal(6) with one exact double zero: form roots
    (a, a) and four others, all in [-3, 3]."""
    pts = []
    for _ in range(count):
        a = round(float(rng.uniform(-3.0, 3.0)), 3)
        rest = [round(float(x), 3) for x in rng.uniform(-3.0, 3.0, 4)]
        pts.append(form_to_point(_form_from_roots([a, a, *rest], 6)))
    return pts


def test_count_roots_many_equals_count_roots_per_row(trig, rational, rng):
    # a block gives each row the RootCount that the one-row call returns,
    # or the exception it raises, with the same type and message
    curves = [*trig.values(), *rational.values(), dual_curve(rational[4]),
              nonconvex_space_curve(), perturbed_circle(0.3)]
    blocks = [(c, _block_draws(c, rng)) for c in curves]
    blocks.append((rational[6], _planted_double_zeros(60, rng)))
    kinds = set()
    for c, pts in blocks:
        pts[3], pts[11] = np.full(c.n + 1, np.nan), np.zeros(c.n + 1)
        got = count_roots_many(c, pts)
        assert len(got) == len(pts)
        for p, rc in zip(pts, got):
            assert _outcome(rc) == _one_row(c, p), (c.model, p)
            kinds.add(type(rc))
    assert {RootCount, ValueError, PrecisionError} <= kinds


def test_flag_point_draws_count_alike_in_one_block(trig, rational):
    # the draws of test_flag_points_report_their_order, as one block per curve
    rng = np.random.default_rng(20260823)
    for c in (*trig.values(), *rational.values()):
        n, period = c.n, c.projective_period
        pts = []
        for r in range(1, n + 1):
            for _ in range(20):
                basis = osculating_subspace(c, rng.uniform(0.0, period), n - r).basis
                pts.append(rng.standard_normal(n - r + 1) @ basis)
        for k in range(0, len(pts), tangency.BLOCK_ROWS):
            block = pts[k:k + tangency.BLOCK_ROWS]
            for p, rc in zip(block, count_roots_many(c, block)):
                assert _outcome(rc) == _one_row(c, p), (c.model, p)


def test_stacked_products_are_the_one_row_products(trig, rational, rng,
                                                   monkeypatch):
    # F rows, every scale and the companion eigenvalues of a block equal
    # the products of one point at a time (tangency_function, a matrix-
    # vector product on the scale grid, np.roots) bit for bit; a numpy or
    # BLAS that rounds a stacked product otherwise fails here
    curves = [*trig.values(), *rational.values(), dual_curve(rational[4]),
              nonconvex_space_curve(), perturbed_circle(0.3)]
    scales, stacked_roots = tangency._scales, tangency._stacked_roots
    for c in curves:
        n = c.n
        s, j0 = c.dual_fold
        seen, eig = [], []

        def scales_rec(curve, D):
            out = scales(curve, D)
            seen.append((D.copy(), out))
            return out

        def roots_rec(P):
            eig.append(stacked_roots(P))
            return eig[-1]

        monkeypatch.setattr(tangency, "_scales", scales_rec)
        monkeypatch.setattr(tangency, "_stacked_roots", roots_rec)
        pts = _block_draws(c, rng)
        count_roots_many(c, pts)
        monkeypatch.undo()
        Fs = [tangency_function(c, p) for p in pts]
        H0 = seen[0][0]
        assert len(H0) == len(pts)
        for F, h in zip(Fs, H0):
            assert np.array_equal(F.coeffs, h), c.model
        order_of = {F.deriv_coeffs(j).tobytes(): (F, j)
                    for F in Fs for j in range(n + 1)}
        tried = set()
        for D, got in seen:
            for d, g in zip(D, got):
                F, j = order_of[d.tobytes()]
                want = np.abs(np.real(c.scale_phases @ F.deriv_coeffs(j))).max()
                assert g == want, (c.model, j)
                tried.add(j)
        assert tried >= {0, 1}
        (W,) = eig
        for F, w in zip(Fs, W):
            assert np.array_equal(w, np.roots(F.coeffs[j0::s][::-1])), c.model


@pytest.mark.parametrize("rows", [slice(None), [0, 4, 5], [0, 5], [4]])
def test_stacked_roots_strip_like_np_roots(rows):
    # rows with a zero end coefficient, which np.roots strips, or a
    # companion matrix that is not finite go through np.roots itself, and
    # an error of np.roots belongs to its row; a block with every end
    # coefficient nonzero but one row not finite ([0, 4, 5]) also sorts
    P = np.array([[1.0, 2.0, -3.0, 0.5], [0.0, 1.0, 2.0, 3.0],
                  [1.0, 2.0, 3.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                  [1e-320, 1.0, 2.0, 3.0], [2.0, -1.0, 0.5, 4.0]], complex)[rows]
    got = tangency._stacked_roots(P)
    assert len(got) == len(P)
    for row, w in zip(P, got):
        try:
            want = np.roots(row)
        except Exception as exc:
            assert (type(w), str(w)) == (type(exc), str(exc))
        else:
            assert np.array_equal(w, want)


def test_block_rows_fail_alone(trig):
    # a non-finite or zero row gets its own ValueError; the other rows count
    c = trig[3]
    pts = [(1.0, 0.2, 0.3, 0.1), (np.nan, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0),
           (0.0, 1.0, 0.1, 0.0), (np.inf, 0.0, 0.0, 1.0), (1.0, 2.0)]
    got = count_roots_many(c, pts)
    for p, rc in zip(pts, got):
        assert _outcome(rc) == _one_row(c, p)
    assert [type(rc) for rc in got] == [RootCount, ValueError, ValueError,
                                        RootCount, ValueError, ValueError]
    assert count_roots_many(c, []) == []


def test_extreme_rows_rescale_in_a_block(trig):
    # rows whose norm over- or underflows rescale as point_vector does,
    # with no RuntimeWarning (Tier-1 turns one into an error)
    c = trig[2]
    pts = [(1e308, 1e308, 1.0), (1e-310, 2e-311, 1e-311), (1.0, 3.0, 0.0)]
    got = count_roots_many(c, pts)
    for p, rc in zip(pts, got):
        assert rc == count_roots(c, point_vector(p))
    assert [rc.total for rc in got] == [2, 0, 2]
