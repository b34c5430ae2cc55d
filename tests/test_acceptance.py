"""End-to-end acceptance battery.

Every advertised guarantee of the package gets one test and one printed
pass/fail line; the tolerances in the assertions are the contract.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from osculant import (
    BinaryForm,
    check_convex_criterion,
    check_convex_sampling,
    component_census,
    count_roots,
    elliptic_hull_membership,
    exact_count,
    factor_binary_form,
    hull_center,
    project_iterated,
    project_onto_osculating_hyperplane,
    sturm_count,
    transport,
)
from osculant.curves import dual_curve, nonconvex_space_curve
from osculant.errors import OsculantError, PrecisionError
from osculant.forms import poly_mul


@pytest.fixture
def verdict(capsys):
    """One pass/fail line per criterion, written through output capture."""
    def _verdict(name, ok, detail=""):
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"{name}: {'pass' if ok else 'FAIL'}{tail}", flush=True)
        assert ok, f"{name}{tail}"
    return _verdict


def test_component_census(trig, verdict):
    """Histogram support {n, n-2, ...} and floor(n/2)+1 components, 5000 draws."""
    details = []
    ok = True
    for n, want in ((2, 2), (3, 2), (4, 3), (5, 3)):
        t0 = time.time()
        out = component_census(trig[n], samples=5000, seed=n)
        dt = time.time() - t0
        support = {int(k) for k in out["histogram"]}
        good = (support == set(range(n % 2, n + 1, 2))
                and out["components"] == want and dt <= 120.0)
        ok = ok and good
        details.append(f"n={n}:{out['components']} in {dt:.0f}s")
    verdict("component census n=2..5", ok, ", ".join(details))


def test_projection_count_recursion(trig, verdict):
    """Dropping k osculating hyperplanes removes exactly k tangencies."""
    rng = np.random.default_rng(11)
    exact = 0
    total = 0
    for n in (3, 4, 5):
        for k in (1, 2):
            for _ in range(100):
                moments = rng.uniform(0, 2 * np.pi, size=k)
                pr = project_iterated(trig[n], moments)
                p = pr.lift_point(rng.standard_normal(pr.curve.n + 1))
                total += 1
                if count_roots(trig[n], p).total == pr.count_roots(p).total + k:
                    exact += 1
    verdict("root-count recursion", exact == total, f"{exact}/{total} exact")


def test_exact_oracle_agreement(trig, rational, verdict):
    """Numerical tangency count equals the exact real-root count of forms.

    exact_count reads a trig_convex point through trig_convex_map, which
    carries its osculating flags onto those of rational_normal.
    """
    rng = np.random.default_rng(13)
    ok = True
    details = []
    for family, curves in (("rational", rational), ("trig", trig)):
        for n in range(2, 7):
            mismatches = 0
            retries = 0
            done = 0
            while done < 200:
                coords = [Fraction(int(rng.integers(-20, 21)),
                                   int(rng.integers(1, 11)))
                          for _ in range(n + 1)]
                if not any(coords):
                    continue
                try:
                    got = count_roots(curves[n],
                                      [float(c) for c in coords]).total
                except PrecisionError:
                    retries += 1
                    if retries > 10:     # 5 percent of 200
                        break
                    continue
                done += 1
                if got != exact_count(curves[n], coords):
                    mismatches += 1
            good = done == 200 and mismatches == 0
            ok = ok and good
            details.append(f"{family} n={n}:{mismatches} bad/{retries} retried")
    verdict("exact oracle agreement", ok, ", ".join(details))


def test_tangency_bound(trig, rational, verdict):
    """No point of a convex model exceeds n tangencies; the control does."""
    ok = True
    trials = 0
    for n in range(2, 7):
        for c in (trig[n], rational[n]):
            rep = check_convex_sampling(c, trials=1000, rng=n)
            trials += rep.trials
            ok = ok and bool(rep) and rep.max_roots_seen <= n
    control = check_convex_sampling(nonconvex_space_curve(), trials=400, rng=2)
    witness_ok = (not control) and control.witness["total"] > 3
    verdict("tangency bound", ok and trials == 10000 and witness_ok,
             f"{trials} trials clean, control witness "
             f"{control.witness['total'] if control.witness else '-'} > 3")


def test_transversality_criterion(trig, rational, verdict):
    """Codimension-n osculating intersections are points, stable at 10x tol."""
    ok = True
    samples = 0
    for n in range(2, 7):
        for c in (trig[n], rational[n]):
            rep = check_convex_criterion(c, samples=50, rng=n, pair_scan=False)
            samples += rep.trials
            ok = ok and bool(rep)
    verdict("osculating transversality", ok and samples == 500,
             f"{samples} compositions, all dim 0")


def test_dual_curve_convexity(trig, rational, verdict):
    """Duals of convex models pass both checks at the same trial counts."""
    ok = True
    for n in range(2, 7):
        for c in (trig[n], rational[n]):
            d = dual_curve(c)
            samp = check_convex_sampling(d, trials=1000, rng=n)
            crit = check_convex_criterion(d, samples=50, rng=n,
                                          pair_scan=False)
            ok = ok and bool(samp) and bool(crit)
    verdict("dual convexity", ok, "10 dual curves, both checks")


def test_local_projection_model(rational, verdict):
    """Projecting the monomial chart at 0 scales x^j by (n-j)/n."""
    worst = 0.0
    for n in (3, 4, 5):
        pr = project_onto_osculating_hyperplane(rational[n], 0.0)

        def coeff(j, h):
            q = pr.lift_point(pr.curve.point(h))
            return q[j] / (q[0] * math.tan(h) ** j)

        for j in range(1, n):
            est = (4.0 * coeff(j, 2e-3) - coeff(j, 4e-3)) / 3.0
            rel = abs(est - (n - j) / n) / ((n - j) / n)
            worst = max(worst, rel)
    verdict("local projection model", worst <= 1e-6, f"worst rel {worst:.2e}")


def test_cross_curve_transport(trig, rational, verdict):
    """Transport preserves the count exactly; round trips return the point."""
    rng = np.random.default_rng(17)
    ok = True
    details = []
    for n in (2, 3, 4):
        c1, c2 = trig[n], rational[n]
        moved = 0
        redraws = 0
        worst = 0.0
        while moved < 200:
            p = rng.standard_normal(n + 1)
            try:
                before = count_roots(c1, p).total
                q = np.asarray(transport(p, c1, c2).coords, float)
                after = count_roots(c2, q).total
                back = np.asarray(transport(q, c2, c1).coords, float)
            except OsculantError:
                redraws += 1
                if redraws > 10:
                    break
                continue
            moved += 1
            u = p / np.linalg.norm(p)
            v = back / np.linalg.norm(back)
            err = min(np.linalg.norm(v - u), np.linalg.norm(v + u))
            worst = max(worst, err)
            ok = ok and before == after and err <= 1e-5
        ok = ok and moved == 200
        details.append(f"n={n}: worst rt {worst:.1e}, {redraws} redrawn")
    verdict("cross-curve transport", ok, ", ".join(details))


def test_hull_membership_and_center(trig, rational, verdict):
    """Midpoints of hull members are members; the circle centers at (1,0,0)."""
    rng = np.random.default_rng(19)
    good = 0
    tried = 0
    for c in (trig[2], trig[4], trig[6], rational[4], rational[6]):
        hull = c.hull
        dim = hull.frame.shape[0]
        members = []
        for _ in range(25):
            d = rng.standard_normal(dim)
            d /= np.linalg.norm(d)
            rho = rng.uniform(0.0, 0.9) * hull.boundary_scale(d)
            members.append(hull.center_chart + rho * d)
        for _ in range(100):
            i, j = rng.integers(0, len(members), size=2)
            mid = hull.from_chart(0.5 * (members[i] + members[j]))
            tried += 1
            good += bool(elliptic_hull_membership(c, mid))
    center = np.asarray(hull_center(trig[2]).coords, float)
    center = center / np.linalg.norm(center) * np.sign(center[0])
    cerr = np.linalg.norm(center - np.array([1.0, 0.0, 0.0]))
    verdict("elliptic hull", good == 500 and tried == 500 and cerr <= 1e-6,
             f"{good}/500 midpoints, center error {cerr:.1e}")


def _random_split_form(degree, rng):
    """Random rational form with a known real-rooted x positive split."""
    coeffs = [Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5)))]
    left = degree
    npos = int(rng.integers(0, left // 2 + 1))
    for _ in range(npos):
        a = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        b = a * a / 4 + Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 4)))
        coeffs = poly_mul(coeffs, [b, a, Fraction(1)])
        left -= 2
    while left > 0:
        if left >= 2 and rng.random() < 0.4:
            s = Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 5)))
            coeffs = poly_mul(coeffs, [-s, Fraction(0), Fraction(1)])
            left -= 2
        else:
            r = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
            coeffs = poly_mul(coeffs, [-r, Fraction(1)])
            left -= 1
    if rng.random() < 0.5:
        coeffs = [-c for c in coeffs]
    return BinaryForm(tuple(coeffs))


def test_exact_factorization(verdict):
    """Certified splits recombine exactly and count their real roots."""
    gen = np.random.default_rng(23)
    exact = 0
    counted = 0
    total = 0
    for degree in range(2, 7):
        for _ in range(100):
            f = _random_split_form(degree, gen)
            real, pos = factor_binary_form(f)
            total += 1
            counted += real.degree == sturm_count(f)
            prod = poly_mul(list(real.coeffs), list(pos.coeffs))
            lead = next(c for c in reversed(f.coeffs) if c)
            plead = next(c for c in reversed(prod) if c)
            scale = lead / plead
            exact += [c * scale for c in prod] == list(f.coeffs)
    verdict("exact factorization",
             exact == total == 500 and counted == total,
             f"{exact}/{total} exact, {counted} root-counted")
