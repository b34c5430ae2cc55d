"""Exact arithmetic for real binary forms of degree n.

A form f(x, y) = sum_j c[j] x^(n-j) y^j with rational coefficients is the
coordinate model for points of P^n over the degree-n parameterized curve
(cos^n, ..., sin^n): the coefficient identification divides out binomials, so
point_to_form(gamma(theta)) is a perfect n-th power and real projective roots
of the form correspond one-to-one to tangency moments.

All root counting here is exact over Fraction: Sturm chains for distinct
roots, Yun's square-free decomposition for multiplicities, and the root at
(1:0) read off the degree drop of the dehomogenization f(t, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import PrecisionError

# ---------------------------------------------------------------------------
# dense univariate polynomials over Fraction, ascending coefficients


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def poly_scale(a, s):
    s = Fraction(s)
    return _trim([c * s for c in a])


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv
        if c:
            q[i] = c
            for j, cb in enumerate(b):
                a[i + j] -= c * cb
    return _trim(q), _trim(a)


def poly_deriv(a):
    return _trim([i * c for i, c in enumerate(a)][1:])


def poly_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_monic(a):
    return poly_scale(a, 1 / a[-1]) if a else a


def poly_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, poly_monic(r)
    return poly_monic(a)


def yun_squarefree(p):
    """Square-free decomposition p = const * prod g_i^i with g_i monic, coprime."""
    p = poly_monic(list(p))
    if len(p) <= 1:
        return []
    dp = poly_deriv(p)
    a = poly_gcd(p, dp)
    b, _ = poly_divmod(p, a)
    c, _ = poly_divmod(dp, a)
    d = poly_add(c, poly_scale(poly_deriv(b), -1))
    out = []
    i = 1
    while len(b) > 1:
        g = poly_gcd(b, d)
        out.append((poly_monic(g), i))
        b, _ = poly_divmod(b, g)
        c, _ = poly_divmod(d, g)
        d = poly_add(c, poly_scale(poly_deriv(b), -1))
        i += 1
    return [(g, i) for g, i in out if len(g) > 1]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def sturm_chain(p):
    chain = [list(p), poly_deriv(p)]
    while len(chain[-1]) > 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append(poly_scale(r, -1))
    return [c for c in chain if c]


def _variations(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at_inf(chain, positive: bool) -> int:
    signs = []
    for c in chain:
        s = _sign(c[-1])
        if not positive and (len(c) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def _variations_at(chain, x) -> int:
    return _variations([_sign(poly_eval(c, x)) for c in chain])


def count_real_roots_poly(p) -> int:
    """Distinct real roots of a nonzero rational polynomial (exact)."""
    p = [Fraction(c) for c in p]
    if not _trim(list(p)):
        raise ValueError("zero polynomial")
    sf = squarefree_part(p)
    if len(sf) <= 1:
        return 0
    chain = sturm_chain(sf)
    return _variations_at_inf(chain, False) - _variations_at_inf(chain, True)


def squarefree_part(p):
    p = poly_monic([Fraction(c) for c in p])
    if len(p) <= 1:
        return p
    g = poly_gcd(p, poly_deriv(p))
    q, _ = poly_divmod(p, g)
    return poly_monic(q)


def count_roots_interval(sf_chain, a, b) -> int:
    """Distinct roots in (a, b] for a square-free chain, endpoints nonroots."""
    return _variations_at(sf_chain, a) - _variations_at(sf_chain, b)


def isolate_real_roots(q):
    """Disjoint rational isolating intervals (a, b) for a square-free polynomial.

    Returns a list of (a, b) with exactly one simple root in each open
    interval and q nonzero at every endpoint.
    """
    q = poly_monic([Fraction(c) for c in q])
    if len(q) <= 1:
        return []
    bound = Fraction(1) + max(abs(c) for c in q[:-1])
    chain = sturm_chain(q)
    out = []

    def nonroot_near(x, step):
        while poly_eval(q, x) == 0:
            x += step
            step /= 2
        return x

    lo = nonroot_near(-bound, Fraction(-1, 7))
    hi = nonroot_near(bound, Fraction(1, 7))
    stack = [(lo, hi, count_roots_interval(chain, lo, hi))]
    while stack:
        a, b, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        if poly_eval(q, mid) == 0:
            eps = (b - a) / 2 ** 12
            l = nonroot_near(mid - eps, -eps / 3)
            r = nonroot_near(mid + eps, eps / 3)
            out.append((l, r))
            stack.append((a, l, count_roots_interval(chain, a, l)))
            stack.append((r, b, count_roots_interval(chain, r, b)))
        else:
            stack.append((a, mid, count_roots_interval(chain, a, mid)))
            stack.append((mid, b, count_roots_interval(chain, mid, b)))
    return sorted(out)


def refine_root(q, a, b, bits: int = 170) -> Fraction:
    """Shrink a sign-change bracket by exact bisection to width (b-a)/2^bits."""
    fa = poly_eval(q, a)
    if fa == 0:
        return a
    if poly_eval(q, b) == 0:
        return b
    sa = _sign(fa)
    for _ in range(bits):
        m = (a + b) / 2
        fm = poly_eval(q, m)
        if fm == 0:
            return m
        if _sign(fm) == sa:
            a = m
        else:
            b = m
    return (a + b) / 2


# ---------------------------------------------------------------------------
# binary forms


@dataclass(frozen=True)
class BinaryForm:
    """f(x, y) = sum_j coeffs[j] x^(degree-j) y^j with Fraction coefficients."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coeffs)
        if len(cs) < 1 or all(c == 0 for c in cs):
            raise ValueError("binary form must have a nonzero coefficient")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def dehomogenized(self):
        """Coefficients of f(t, 1), ascending in t."""
        return _trim([Fraction(c) for c in reversed(self.coeffs)])

    def infinity_multiplicity(self) -> int:
        """Multiplicity of the root at (1:0): the degree drop of f(t, 1)."""
        return self.degree - (len(self.dehomogenized()) - 1)

    def __call__(self, x, y):
        n = self.degree
        return sum(c * Fraction(x) ** (n - j) * Fraction(y) ** j
                   for j, c in enumerate(self.coeffs))


def sturm_count(form: BinaryForm) -> int:
    """Number of real projective roots with multiplicity, exactly.

    Each square-free factor of exponent i contributes i per distinct real
    root, and the root at infinity contributes its degree drop.
    """
    return _real_mult_count(form.dehomogenized()) + form.infinity_multiplicity()


def point_to_form(p, n: int | None = None) -> BinaryForm:
    """Coefficient identification sending curve points to perfect powers.

    Coordinates are taken as rationals (floats are reconstructed with
    denominator at most 10^12); entry j is multiplied by C(n, j).
    """
    vals = [c if isinstance(c, (Fraction, int)) else
            Fraction(float(c)).limit_denominator(10 ** 12)
            for c in (getattr(p, "coords", p))]
    if n is None:
        n = len(vals) - 1
    if len(vals) != n + 1:
        raise ValueError("coordinate count disagrees with degree")
    return BinaryForm(tuple(Fraction(v) * comb(n, j) for j, v in enumerate(vals)))


def form_to_point(form: BinaryForm):
    """Inverse identification; returns a list of Fractions."""
    n = form.degree
    return [c / comb(n, j) for j, c in enumerate(form.coeffs)]


def trig_convex_map(n: int):
    """Exact matrix E with E @ trig_convex(n)(t) = rational_normal(n)(s).

    Row j holds the harmonic coefficients of cos^(n-j)(s) sin^j(s) in the
    coordinate order of trig_convex(n), with s = t/2 for even n and s = t for
    odd n.  E carries osculating flags to osculating flags, so the tangency
    count of p on trig_convex(n) is sturm_count(point_to_form(E @ p)).
    """
    rows = []
    for j in range(n + 1):
        # z-coefficients of (z + 1/z)^(n-j) (z - 1/z)^j; the form is that
        # product over 2^n i^j, and c z^m + conj(c) z^-m = 2 Re c cos(ms)
        # - 2 Im c sin(ms)
        coef: dict[int, int] = {}
        for a in range(n - j + 1):
            for b in range(j + 1):
                m = n - 2 * a - 2 * b
                coef[m] = coef.get(m, 0) + comb(n - j, a) * comb(j, b) * (-1) ** b
        re, im = ((1, 0), (0, -1), (-1, 0), (0, 1))[j % 4]   # (-i)^j
        row = []
        for m in range(n % 2, n + 1, 2):
            c = Fraction(coef.get(m, 0), 2 ** n)
            row += [re * c] if m == 0 else [2 * re * c, -2 * im * c]
        rows.append(row)
    return rows


def exact_count(curve, p) -> int | None:
    """Exact tangency count of p on a stock curve; None without an oracle.

    On rational_normal(n) this is sturm_count(point_to_form(p)), on
    trig_convex(n) the point is first carried by trig_convex_map(n).  Float
    coordinates are read exactly, so the count is that of the float point
    itself.
    """
    n = curve.n
    vals = [c if isinstance(c, (Fraction, int)) else Fraction(float(c))
            for c in getattr(p, "coords", p)]
    if curve.model == f"trig_convex({n})":
        vals = [sum(e * c for e, c in zip(row, vals))
                for row in trig_convex_map(n)]
    elif curve.model != f"rational_normal({n})":
        return None
    return sturm_count(point_to_form(vals, n))


# ---------------------------------------------------------------------------
# real-rooted x positive factorization

RECONSTRUCT_REL = Fraction(1, 10 ** 30)


def _real_mult_count(p) -> int:
    """Real roots of an ascending-coefficient polynomial, with multiplicity."""
    if len(p) <= 1:
        return 0
    return sum(i * count_real_roots_poly(g) for g, i in yun_squarefree(p))


def factor_binary_form(form: BinaryForm):
    """Split f = (real-rooted factor) * (positive factor), certified.

    Real roots are isolated exactly and refined by rational bisection to
    ~2^-170; the real-rooted factor is the product of the corresponding linear
    forms (plus y^m for the root at infinity) and the positive factor is the
    exact rational quotient.  The division remainder, the recombined product
    and the factor root counts are all certified; failure raises
    PrecisionError rather than returning an uncertified split.
    """
    n = form.degree
    p = form.dehomogenized()
    inf = form.infinity_multiplicity()

    real_poly = [Fraction(1)]
    for g, mult in yun_squarefree(p):
        for a, b in isolate_real_roots(g):
            r = refine_root(g, a, b)
            # a rational root with a moderate denominator is within 2^-170 of
            # exactly one such rational, so snapping and verifying recovers it
            cand = r.limit_denominator(10 ** 18)
            if poly_eval(g, cand) == 0:
                r = cand
            for _ in range(mult):
                real_poly = poly_mul(real_poly, [-r, Fraction(1)])

    # individual roots may be irrational while the monic real-rooted factor
    # still has rational coefficients (x^2 - 2); reconstruct at the factor
    # level and keep the result only when every certificate is exact
    if len(real_poly) > 1:
        snapped = [c.limit_denominator(10 ** 12) for c in real_poly]
        if snapped != real_poly:
            q, r = poly_divmod(p, snapped)
            if (not any(r) and _real_mult_count(snapped) == len(snapped) - 1
                    and _real_mult_count(q) == 0):
                real_poly = snapped

    pos_poly, rem = poly_divmod(p, real_poly)
    scale = max(abs(c) for c in p)
    if rem and max(abs(c) for c in rem) > RECONSTRUCT_REL * scale:
        raise PrecisionError("real-rooted factor failed the exact-division certificate")

    real_deg = (len(real_poly) - 1) + inf
    pos_deg = n - real_deg

    def to_form(poly_asc, degree):
        # ascending t-coefficients back into the x^(d-j) y^j layout; any gap
        # between the polynomial degree and `degree` becomes a power of y
        cs = [Fraction(0)] * (degree + 1)
        for i, c in enumerate(poly_asc):
            cs[degree - i] = c
        return BinaryForm(tuple(cs))

    real_form = to_form(real_poly, real_deg)
    pos_form = to_form(pos_poly, pos_deg)

    # certificates
    if sturm_count(real_form) != real_deg:
        raise PrecisionError("real-rooted factor is not totally real at certification")
    if pos_deg > 0 and sturm_count(pos_form) != 0:
        raise PrecisionError("positive factor acquired a real root at certification")
    prod = poly_mul(real_form.dehomogenized(), pos_form.dehomogenized())
    diff = poly_add(poly_scale(prod, p[-1] / prod[-1] if prod else 1), poly_scale(p, -1))
    if diff and max(abs(c) for c in diff) > RECONSTRUCT_REL * scale:
        raise PrecisionError("recombined product drifted from the input")
    if pos_deg > 0 and pos_form.coeffs[0] < 0:
        # definite factor normalized positive; compensate to keep the product
        pos_form = BinaryForm(tuple(-c for c in pos_form.coeffs))
        real_form = BinaryForm(tuple(-c for c in real_form.coeffs))
    return real_form, pos_form
