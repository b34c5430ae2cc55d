"""Command-line surface: curve checks, root counts, census, hull, mesh, transport.

Exit codes: 0 success or verdict pass, 1 verdict failure (including geometric
rejections), 2 a result could not be certified at working precision, 3 usage
errors.  All randomness is seeded, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .convexity import check_convex_criterion, check_convex_sampling
from .curves import curve_from_spec
from .errors import OnDiscriminantError, OsculantError, PrecisionError
from .mesh import export, sample_discriminant
from .projection import project_iterated
from .projective import normalize
from .strata import (component_census, realize, rescale_moments,
                     tangency_data)
from .hulls import elliptic_hull_membership
from .tangency import count_roots

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_PRECISION = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _parse_point(raw: str, dim: int) -> np.ndarray:
    parts = raw.strip().strip("()").split(",")
    try:
        v = np.array([float(x) for x in parts])
    except ValueError:
        raise ValueError(f"point {raw!r} is not comma-separated numbers")
    if v.shape != (dim,) or not v.any():
        raise ValueError(f"point needs {dim} homogeneous coordinates, "
                         "not all zero")
    if not np.isfinite(v).all():
        raise ValueError(f"point {raw!r} has a non-finite coordinate")
    return v


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    return x


def _emit(doc: dict) -> None:
    print(json.dumps(_jsonable(doc), indent=2, sort_keys=True))


def _report(rep) -> dict:
    doc = {"verdict": rep.verdict, "trials": rep.trials, "notes": rep.notes}
    if rep.max_roots_seen is not None:
        doc["max_roots_seen"] = rep.max_roots_seen
    if rep.witness is not None:
        doc["witness"] = rep.witness
    return doc


def _cmd_check_convex(ns) -> int:
    c = curve_from_spec(ns.curve)
    samp = check_convex_sampling(c, trials=ns.trials,
                                 rng=np.random.default_rng(ns.seed))
    crit = check_convex_criterion(c, samples=ns.samples,
                                  rng=np.random.default_rng(ns.seed + 1))
    ok = bool(samp) and bool(crit)
    _emit({"verdict": "pass" if ok else "fail",
           "sampling": _report(samp), "criterion": _report(crit)})
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_roots(ns) -> int:
    c = curve_from_spec(ns.curve)
    p = _parse_point(ns.point, c.n + 1)
    rc = count_roots(c, p)
    _emit({"total": rc.total,
           "tangencies": [[t, m] for t, m in rc.tangencies]})
    return EXIT_PASS


def _cmd_project(ns) -> int:
    c = curve_from_spec(ns.curve)
    child = project_iterated(c, ns.moments)
    rep = check_convex_sampling(child.curve, trials=max(100, ns.trials // 5),
                                rng=np.random.default_rng(ns.seed))
    rng = np.random.default_rng(ns.seed + 1)
    k = len(ns.moments)
    drops = []
    for _ in range(10):
        # the recursion applies to points of the intersection subspace
        v = child.lift_point(rng.standard_normal(child.curve.n + 1))
        try:
            before = count_roots(c, v).total
            after = child.count_roots(v).total
        except OsculantError:
            continue
        drops.append(before - after)
    recursion_ok = bool(drops) and all(d == k for d in drops)
    _emit({"verdict": "pass" if (bool(rep) and recursion_ok) else "fail",
           "child_dimension": child.curve.n,
           "child_convexity": _report(rep),
           "root_drop_checks": drops,
           "expected_drop": k})
    return EXIT_PASS if (bool(rep) and recursion_ok) else EXIT_FAIL


def _cmd_components(ns) -> int:
    c = curve_from_spec(ns.curve)
    _emit(component_census(c, ns.samples, seed=ns.seed))
    return EXIT_PASS


def _cmd_hull(ns) -> int:
    c = curve_from_spec(ns.curve)
    rng = np.random.default_rng(ns.seed)
    probes = [rng.standard_normal(c.n + 1) for _ in range(20)]
    center = c.hull.center.coords if c.n % 2 == 0 else None

    def probe(v):
        try:
            return elliptic_hull_membership(c, normalize(v))
        except OsculantError:
            return None

    verdicts = [probe(v) for v in probes]
    doc = {"n": c.n, "seed": ns.seed,
           "probes": [{"point": p, "member": m}
                      for p, m in zip(probes, verdicts)]}
    if center is not None:
        doc["center"] = center
    _emit(doc)
    return EXIT_PASS


def _cmd_mesh(ns) -> int:
    c = curve_from_spec(ns.curve)
    if ns.out is None:
        raise ValueError("mesh needs --out")
    s = sample_discriminant(c, ns.t_steps, ns.ruling_steps)
    path = export(s, ns.format, ns.out)
    _emit({"written": str(path), "resolution": list(s.resolution),
           "format": ns.format})
    return EXIT_PASS


def _cmd_transport(ns) -> int:
    c1 = curve_from_spec(ns.curve)
    c2 = curve_from_spec(ns.curve2)
    p = _parse_point(ns.point, c1.n + 1)
    d1 = tangency_data(c1, p)
    if c1.n != c2.n:
        raise ValueError("transport needs curves of the same ambient dimension")
    q = realize(c2, rescale_moments(d1, c1, c2))
    d2 = tangency_data(c2, q.coords)
    back = realize(c1, rescale_moments(d2, c2, c1))
    a = normalize(p).coords
    b = back.coords / np.linalg.norm(back.coords)
    rt = float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))
    ok = d1.index == d2.index and rt <= 1e-5
    _emit({"verdict": "pass" if ok else "fail",
           "transported": q.coords,
           "stratum_before": d1.index, "stratum_after": d2.index,
           "moments_before": list(d1.moments),
           "moments_after": list(d2.moments),
           "roundtrip_error": rt})
    return EXIT_PASS if ok else EXIT_FAIL


# each command and the arguments it reads besides --curve
_COMMANDS = {
    "check-convex": (_cmd_check_convex, ("--seed", "--trials", "--samples")),
    "roots": (_cmd_roots, ("point",)),
    "project": (_cmd_project, ("--seed", "--trials", "moments")),
    "components": (_cmd_components, ("--seed", "--samples")),
    "hull": (_cmd_hull, ("--seed",)),
    "mesh": (_cmd_mesh, ("--t-steps", "--ruling-steps", "--format", "--out")),
    "transport": (_cmd_transport, ("point", "curve2")),
}
_ARGUMENTS = {
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=int, default=1000),
    "--samples": dict(type=int, default=2000),
    "--t-steps": dict(type=int, default=96),
    "--ruling-steps": dict(type=int, default=24),
    "--format": dict(default="csv", choices=("obj", "csv", "json")),
    "--out": {},
    "point": dict(help="comma-separated homogeneous coordinates"),
    "moments": dict(nargs="+", type=float),
    "curve2": dict(help="target curve spec or shorthand"),
}


def _build_parser() -> _Parser:
    p = _Parser(prog="osculant",
                description="tangency counting and stratification toolkit")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_Parser)
    for name, (_, args) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--curve", required=True,
                        help="curve spec JSON path, or model:n shorthand")
        for arg in args:
            sp.add_argument(arg, **_ARGUMENTS[arg])
    return p


def main(argv=None) -> int:
    """Parse argv, run the command; returns the process exit code."""
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[ns.command][0](ns)
    except (PrecisionError, OnDiscriminantError) as e:
        print(f"precision: {e}", file=sys.stderr)
        return EXIT_PRECISION
    except OsculantError as e:
        print(f"rejected: {e}", file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as e:
        print(f"usage: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
