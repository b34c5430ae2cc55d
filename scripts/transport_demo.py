"""Carry random points between two convex curves and report the drift.

The classification (stratum index, tangency moments, fiber coordinates)
is computed on the source curve, realized on the target, and pulled back;
a faithful transport preserves the tangency count and returns the point.
"""

import argparse

import numpy as np

from osculant import (count_roots, curve_from_spec, realize, rescale_moments,
                      tangency_data, transport)
from osculant.errors import OsculantError


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--curve", default="trig_convex:4")
    ap.add_argument("--curve2", default="rational_normal:4")
    ap.add_argument("--points", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    c1, c2 = curve_from_spec(args.curve), curve_from_spec(args.curve2)
    if c1.n != c2.n:
        raise SystemExit("curves must share the ambient dimension")
    rng = np.random.default_rng(args.seed)

    kept = 0
    skipped = 0
    worst = 0.0
    while kept < args.points:
        p = rng.standard_normal(c1.n + 1)
        try:
            data = tangency_data(c1, p)
            q = np.asarray(
                realize(c2, rescale_moments(data, c1, c2)).coords, float)
            back = np.asarray(transport(q, c2, c1).coords, float)
        except OsculantError:
            skipped += 1       # numerically on the discriminant, redraw
            continue
        kept += 1
        u, v = p / np.linalg.norm(p), back / np.linalg.norm(back)
        err = min(np.linalg.norm(v - u), np.linalg.norm(v + u))
        worst = max(worst, err)
        same = count_roots(c2, q).total == count_roots(c1, p).total
        print(f"#{kept:3d} stratum {data.index}  count preserved: {same}  "
              f"round trip {err:.2e}")

    print(f"\n{kept} points, {skipped} skipped, worst round trip {worst:.2e}")


if __name__ == "__main__":
    main()
