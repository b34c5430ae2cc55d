"""Root-filtration strata: labels, fiber data, transport, census."""

import logging
import math
from fractions import Fraction

import numpy as np
import pytest

from osculant import (
    BinaryForm,
    component_census,
    count_roots,
    form_to_point,
    realize,
    rescale_moments,
    sample_discriminant,
    stratum_label,
    tangency_data,
    transport,
)
from osculant.errors import (GeometryError, OnDiscriminantError, OsculantError,
                             PrecisionError)
from osculant.projective import circular_gap
from osculant.tangency import RootCount


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _form(real_roots, positive_pairs, degree):
    """(x - r_i) factors times (x^2 + c) factors, padded to the degree."""
    coeffs = [Fraction(1)]
    for r in real_roots:
        coeffs = _poly_mul(coeffs, [-Fraction(r), Fraction(1)])
    for c in positive_pairs:
        coeffs = _poly_mul(coeffs, [Fraction(c), Fraction(0), Fraction(1)])
    while len(coeffs) < degree + 1:
        coeffs.append(Fraction(0))
    return BinaryForm(tuple(coeffs))


def test_labels_match_real_root_counts(rational):
    cases = [
        (4, _form([1, -1, 2, -2], [], 4), 0),
        (4, _form([1, -1], [1], 4), 1),
        (4, _form([], [1, 2], 4), 2),
        (5, _form([3], [1, 5], 5), 2),
        (5, _form([0, 1, -1, 2, 7], [], 5), 0),
    ]
    for n, f, want in cases:
        assert stratum_label(rational[n], form_to_point(f)) == want


def test_circle_center_classification(trig):
    data = tangency_data(trig[2], (1.0, 0.0, 0.0))
    assert data.index == 1
    assert data.moments == ()
    assert data.fiber_point.radius == 0.0
    assert len(data.fiber_point.direction) == 2


def test_top_stratum_has_trivial_fiber(rational):
    f = _form([1, -1, 2, -2], [], 4)
    data = tangency_data(rational[4], form_to_point(f))
    assert data.index == 0
    assert len(data.moments) == 4
    assert data.fiber_point.direction == ()
    assert data.fiber_point.radius == 0.0


def test_planted_moments_land_where_expected(rational):
    # roots x sit at the moments with cot(t) = -x
    f = _form([1, -1], [1], 4)
    data = tangency_data(rational[4], form_to_point(f))
    assert data.index == 1
    got = sorted(m % math.pi for m in data.moments)
    assert np.allclose(got, [math.pi / 4, 3 * math.pi / 4], atol=1e-7)
    assert 0.0 <= data.fiber_point.radius < 1.0


def test_transport_identity(trig, rational, rng):
    for c in (trig[3], trig[4], rational[4]):
        for _ in range(5):
            p = rng.standard_normal(c.n + 1)
            try:
                q = np.asarray(transport(p, c, c).coords, float)
            except (OnDiscriminantError, OsculantError):
                continue
            u = p / np.linalg.norm(p)
            v = q / np.linalg.norm(q)
            assert min(np.linalg.norm(v - u), np.linalg.norm(v + u)) < 1e-9


def test_transport_between_families(trig, rational, rng):
    c1, c2 = trig[4], rational[4]
    moved = 0
    for _ in range(12):
        p = rng.standard_normal(5)
        try:
            i1 = stratum_label(c1, p)
            q = np.asarray(transport(p, c1, c2).coords, float)
            assert stratum_label(c2, q) == i1
            back = np.asarray(transport(q, c2, c1).coords, float)
        except OsculantError:
            continue
        u = p / np.linalg.norm(p)
        v = back / np.linalg.norm(back)
        assert min(np.linalg.norm(v - u), np.linalg.norm(v + u)) < 1e-6
        moved += 1
    assert moved >= 8


def test_transport_of_discriminant_points_keeps_their_tangency(trig, rational):
    # two of these points have moments that rescale to about 0 and pi/2 on
    # rational_normal:4, where the projection deflates rows of pure rounding
    c1, c2 = trig[4], rational[4]
    s = sample_discriminant(c1, t_steps=24, ruling_steps=5)
    scale = c2.projective_period / c1.projective_period
    for t, row in zip(s.ts * scale, s.patches):
        for p in row:
            rc = count_roots(c2, transport(p, c1, c2))
            gap, order = min((circular_gap(u, t, c2.projective_period), m)
                             for u, m in rc.tangencies)
            assert gap < 1e-9 and order >= 2, (t, rc)


def test_transport_same_period_keeps_moments(trig, rng):
    from osculant.curves import perturbed_circle

    c1, c2 = trig[2], perturbed_circle(0.05)
    p = np.array([1.0, 2.5, 0.3])
    d1 = tangency_data(c1, p)
    q = transport(p, c1, c2)
    d2 = tangency_data(c2, q)
    assert d1.index == d2.index
    assert np.allclose(sorted(d1.moments), sorted(d2.moments), atol=1e-8)


def test_realize_on_held_data_matches_transport(trig, rational, rng):
    # periods 2pi -> pi: the rescale is exercised, and the result is bitwise
    c1, c2 = trig[4], rational[4]
    done = 0
    for _ in range(40):
        p = rng.standard_normal(5)
        try:
            q = transport(p, c1, c2).coords
        except OsculantError:
            continue
        data = rescale_moments(tangency_data(c1, p), c1, c2)
        assert all(t < c2.projective_period for t in data.moments)
        assert np.array_equal(realize(c2, data).coords, q)
        done += 1
    assert done >= 20


def test_fiber_data_moves_continuously(trig, rng):
    c = trig[4]
    found = 0
    while found < 5:
        p = rng.standard_normal(5)
        try:
            d0 = tangency_data(c, p)
            d1 = tangency_data(c, p + 1e-7 * np.linalg.norm(p)
                               * rng.standard_normal(5))
        except OsculantError:
            continue
        if d0.index != d1.index or not d0.moments:
            continue
        drift = max(abs(a - b) for a, b in
                    zip(sorted(d0.moments), sorted(d1.moments)))
        assert drift < 1e-4
        found += 1


def test_census_schema_and_components(trig, rational):
    out = component_census(trig[3], samples=400, seed=5,
                           constancy_checks=20)
    assert out["n"] == 3 and out["samples"] == 400 and out["seed"] == 5
    assert list(out["histogram"]) == ["3", "1"]
    assert out["components"] == 2
    assert sum(out["histogram"].values()) <= 400

    out4 = component_census(rational[4], samples=600, seed=5,
                            constancy_checks=20)
    assert list(out4["histogram"]) == ["4", "2", "0"]
    assert out4["components"] == 3


def test_parity_mismatch_is_an_on_discriminant_signal(monkeypatch, trig):
    import osculant.strata as strata

    fake = RootCount(tangencies=((0.5, 1),), total=1)
    monkeypatch.setattr(strata, "count_roots", lambda *a, **k: fake)
    with pytest.raises(OnDiscriminantError) as exc:
        strata.stratum_label(trig[2], (1.0, 0.0, 0.0))
    assert exc.value.count == 1
    assert np.array_equal(exc.value.point, [1.0, 0.0, 0.0])


class _ReadOnDemand:
    """count_roots_many's results from a per-point fake, each made when the
    census first reads it, so the fake sees the points the census reads."""

    def __init__(self, fake, c, pts):
        self._fake, self._c, self._pts, self._got = fake, c, pts, {}

    def __len__(self):
        return len(self._pts)

    def __getitem__(self, i):
        if i not in self._got:
            try:
                self._got[i] = self._fake(self._c, self._pts[i])
            except Exception as exc:
                self._got[i] = exc
        return self._got[i]


def _count_with(monkeypatch, fake):
    """Make the census count each point it reads with fake(c, p)."""
    import osculant.strata as strata

    monkeypatch.setattr(strata, "count_roots_many",
                        lambda c, pts, stats=None: _ReadOnDemand(fake, c, pts))


def test_census_constancy_draws_are_bounded(monkeypatch, trig):
    import osculant.strata as strata
    from osculant.cli import main

    real = strata.count_roots
    samples = 100
    calls = {"n": 0}

    def histogram_then_reject(*a, **k):
        calls["n"] += 1
        # a constancy loop without a cap would never stop; fail instead.
        # 100 constancy checks (the default) allow 1000 draws
        assert calls["n"] <= samples + 2 * 1000, "unbounded constancy loop"
        if calls["n"] <= samples:
            return real(*a, **k)
        raise PrecisionError("rejected")

    _count_with(monkeypatch, histogram_then_reject)
    with pytest.raises(PrecisionError, match="discarded 50 of 50 draws"):
        component_census(trig[2], samples=samples, seed=1,
                         constancy_checks=5)

    calls["n"] = 0
    assert main(["components", "--curve", "trig_convex:2",
                 "--samples", str(samples), "--seed", "1"]) == 2


def test_census_logs_one_record_per_phase(monkeypatch, trig, caplog):
    import osculant.strata as strata

    real, calls = strata.count_roots, [0]

    def flaky(*a, **k):
        # every 4th count is refused, every other 5th has the wrong parity
        calls[0] += 1
        if calls[0] % 4 == 0:
            raise PrecisionError("refused")
        rc = real(*a, **k)
        return RootCount(rc.tangencies, rc.total + (calls[0] % 5 == 0))

    _count_with(monkeypatch, flaky)
    want = component_census(trig[2], samples=40, seed=3, constancy_checks=5)
    assert not [r for r in caplog.records if r.name == "osculant"]
    calls[0] = 0
    caplog.set_level(logging.DEBUG, logger="osculant")
    assert component_census(trig[2], samples=40, seed=3,
                            constancy_checks=5) == want
    msgs = [r.getMessage() for r in caplog.records if r.name == "osculant"]
    assert msgs == [
        "census trig_convex(2) sampling: 24 of 40 kept; "
        "discarded PrecisionError 10, OnDiscriminantError 6; "
        "40 rows counted in 6 blocks, 0 past the stop, 0 scanned above order 1",
        "census trig_convex(2) constancy: 5 pairs certified in 13 draws; "
        "discarded PrecisionError 5, OnDiscriminantError 3, straddle 0; "
        "26 rows counted in 6 blocks, 0 past the stop, 0 scanned above order 1",
    ]

    # a phase that raises logs its record first
    caplog.clear()

    def refuse(*a, **k):
        raise PrecisionError("refused")

    _count_with(monkeypatch, refuse)
    with pytest.raises(PrecisionError, match="never reached"):
        component_census(trig[2], samples=20, seed=3)
    msgs = [r.getMessage() for r in caplog.records if r.name == "osculant"]
    assert msgs == ["census trig_convex(2) sampling: 0 of 20 kept; "
                    "discarded PrecisionError 20, OnDiscriminantError 0; "
                    "20 rows counted in 5 blocks, 0 past the stop, "
                    "0 scanned above order 1"]


def test_census_discards_a_confirmed_straddle(monkeypatch, trig, caplog):
    # the 48th constancy pair of this census lies across the discriminant:
    # count 1 at v, 3 at w, and the exact oracle agrees with both
    import osculant.strata as strata

    caplog.set_level(logging.DEBUG, logger="osculant")
    out = component_census(trig[3], samples=2000, seed=0)
    assert out["histogram"] == {"3": 419, "1": 1581}
    msgs = [r.getMessage() for r in caplog.records if r.name == "osculant"]
    assert msgs[-1] == ("census trig_convex(3) constancy: 100 pairs certified "
                        "in 101 draws; discarded PrecisionError 0, "
                        "OnDiscriminantError 0, straddle 1; 202 rows counted "
                        "in 7 blocks, 0 past the stop, 36 scanned above order 1")

    # an oracle that sees no jump leaves the straddle unconfirmed
    monkeypatch.setattr(strata, "exact_count", lambda c, p: 1)
    with pytest.raises(GeometryError, match="jumped 1 -> 3"):
        component_census(trig[3], samples=2000, seed=0)


def test_census_with_every_draw_refused_exits_2(monkeypatch):
    import osculant.strata as strata
    from osculant.cli import main

    def refuse(*a, **k):
        raise PrecisionError("rejected")

    _count_with(monkeypatch, refuse)
    assert main(["components", "--curve", "trig_convex:3",
                 "--samples", "20"]) == 2
