"""The four benchmark workloads, written against osculant's public API only.

Each workload builds its curves and warms them up (`setup`), hands out
timed units of work by index (`unit`), and checks the outputs after the
timed loop (`check`).  A unit is a list of named operations; the timed
loop runs them one after another in this process.  Inputs depend only on
the workload seed and the unit index, so the same seed gives the same
inputs however many units a run completes.  `cap_s` is the wall-clock cap
of one operation; the caps keep a run in which every operation hangs
under the 180 s a run may take.

Only osculant's public names are used.  Anything the workload needs that
the package keeps private (the census point mixture, for instance) is
written out here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

import osculant
import osculant.cli
from osculant import (PrecisionError, OnDiscriminantError, build_model,
                      check_convex_criterion, check_convex_sampling,
                      count_roots, dual_curve, nonconvex_space_curve,
                      osculating_intersection, perturbed_circle,
                      point_to_form, stratum_label, sturm_count, transport)

HERE = Path(__file__).resolve().parent
CLI_REFERENCE = HERE / "cli_reference.json"

# Exceptions with which osculant refuses to certify a result.  An operation
# that ends this way failed, but its output is not wrong.
REFUSALS = (PrecisionError, OnDiscriminantError)


def model(spec: str):
    name, n = spec.split(":")
    return build_model(name, int(n))


# ---------------------------------------------------------------------------
# census: one curve, many points


CENSUS_CURVES = ("rational_normal:3", "trig_convex:4", "rational_normal:6")
# Mixture per block of 25 points of one curve; every block has exactly these
# counts, so the share of slow near-discriminant points is the same for any
# seed.  "rational" points are ambient points with small rational
# coordinates, which the exact Sturm oracle can check on rational_normal.
CENSUS_BLOCK = (("ambient", 8), ("rational", 3), ("near_curve", 7),
                ("near_chord", 4), ("near_corner", 3))
CENSUS_BLOCK_SIZE = sum(k for _, k in CENSUS_BLOCK)


def _spread_moments(n: int, period: float, rng) -> list:
    """n moments with circular gaps of at least 0.08 period (bounded draws)."""
    for _ in range(200):
        ts = np.sort(rng.uniform(0.0, period, n))
        gaps = np.diff(np.append(ts, ts[0] + period))
        if gaps.min() >= 0.08 * period:
            return [float(t) for t in ts]
    return [period * k / n for k in range(n)]


class Census:
    """stratum_label calls round-robin over three warm curves."""

    name = "census"
    cap_s = 5.0
    run_checks = len(CENSUS_CURVES)   # one support check per curve

    def __init__(self, seed: int):
        self.seed = seed
        self.curves = [model(s) for s in CENSUS_CURVES]
        self.periods = [c.projective_period for c in self.curves]
        self._blocks: dict = {}
        self.inputs: dict[int, tuple] = {}

    def sizes(self) -> dict:
        return {"curves": list(CENSUS_CURVES),
                "block": dict(CENSUS_BLOCK)}

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 99])
        for c in self.curves:
            stratum_label(c, rng.standard_normal(c.n + 1))

    def _category(self, ci: int, j: int) -> str:
        b = j // CENSUS_BLOCK_SIZE
        cats = self._blocks.get((ci, b))
        if cats is None:
            cats = [name for name, k in CENSUS_BLOCK for _ in range(k)]
            np.random.default_rng([self.seed, ci, b, 1]).shuffle(cats)
            self._blocks[(ci, b)] = cats
        return cats[j % CENSUS_BLOCK_SIZE]

    def _point(self, ci: int, j: int):
        c, period = self.curves[ci], self.periods[ci]
        n = c.n
        rng = np.random.default_rng([self.seed, ci, j])
        cat = self._category(ci, j)
        exact = None
        if cat == "ambient":
            v = rng.standard_normal(n + 1)
        elif cat == "rational":
            exact = [Fraction(0)]
            while not any(exact):
                exact = [Fraction(int(rng.integers(-20, 21)),
                                  int(rng.integers(1, 11)))
                         for _ in range(n + 1)]
            v = np.array([float(x) for x in exact])
        elif cat == "near_curve":
            base = c.point(rng.uniform(0.0, period))
            eps = 10.0 ** rng.uniform(-2.6, -0.3)
            v = base + eps * np.linalg.norm(base) * rng.standard_normal(n + 1)
        elif cat == "near_chord":
            t1, t2 = rng.uniform(0.0, period, 2)
            mix = rng.uniform(0.15, 0.85)
            base = mix * c.point(t1) + (1.0 - mix) * c.point(t2)
            eps = 10.0 ** rng.uniform(-3.0, -1.0)
            v = base + eps * (np.linalg.norm(base) + 1e-9) \
                * rng.standard_normal(n + 1)
        else:
            cut = osculating_intersection(c, _spread_moments(n, period, rng))
            v = cut.spanning_point().coords + 1e-3 * rng.standard_normal(n + 1)
        return cat, v, exact

    def unit(self, k: int) -> list:
        ci, j = k % len(self.curves), k // len(self.curves)
        cat, v, exact = self._point(ci, j)
        self.inputs[k] = (ci, cat, exact)
        c = self.curves[ci]
        return [(f"{CENSUS_CURVES[ci]}.{cat}", lambda: stratum_label(c, v))]

    def check(self, results: list) -> list:
        """Failures as (operation key or None, kind, detail)."""
        out = []
        seen = {ci: set() for ci in range(len(self.curves))}
        for r in results:
            ci, _cat, exact = self.inputs[r.unit]
            if r.error is not None:
                continue
            n = self.curves[ci].n
            seen[ci].add(n - 2 * r.value)
            if exact is not None and CENSUS_CURVES[ci].startswith("rational"):
                want = (n - sturm_count(point_to_form(exact, n))) // 2
                if r.value != want:
                    out.append((r.key, "wrong",
                                f"{CENSUS_CURVES[ci]} {exact}: stratum "
                                f"{r.value}, Sturm oracle {want}"))
        for ci, c in enumerate(self.curves):
            expected = set(range(c.n % 2, c.n + 1, 2))
            if seen[ci] != expected:
                out.append((None, "wrong",
                            f"{CENSUS_CURVES[ci]}: counts seen "
                            f"{sorted(seen[ci])}, expected {sorted(expected)}"))
        return out


# ---------------------------------------------------------------------------
# certify: sampling and criterion checks over a fixed set of curves


CERTIFY_TRIALS = 50
CERTIFY_SAMPLES = 50
CERTIFY_CURVES = (("trig_convex:4", True), ("rational_normal:3", True),
                  ("dual_curve(rational_normal:4)", True),
                  ("nonconvex_space_curve()", False),
                  ("perturbed_circle(0.3)", False))


class Certify:
    """One unit is a pass of both convexity checks over every curve."""

    name = "certify"
    cap_s = 15.0
    run_checks = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.curves = [model("trig_convex:4"), model("rational_normal:3"),
                       dual_curve(model("rational_normal:4")),
                       nonconvex_space_curve(), perturbed_circle(0.3)]

    def sizes(self) -> dict:
        return {"curves": [name for name, _ in CERTIFY_CURVES],
                "trials": CERTIFY_TRIALS, "samples": CERTIFY_SAMPLES,
                "pair_scan": True}

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 99])
        for c in self.curves:
            count_roots(c, rng.standard_normal(c.n + 1))

    def unit(self, k: int) -> list:
        ops = []
        for ci, c in enumerate(self.curves):
            def certificate(c=c, ci=ci):
                samp = check_convex_sampling(
                    c, trials=CERTIFY_TRIALS,
                    rng=np.random.default_rng([self.seed, k, ci, 0]))
                crit = check_convex_criterion(
                    c, samples=CERTIFY_SAMPLES,
                    rng=np.random.default_rng([self.seed, k, ci, 1]),
                    pair_scan=True)
                return samp, crit
            ops.append((CERTIFY_CURVES[ci][0], certificate))
        return ops

    def check(self, results: list) -> list:
        out = []
        for r in results:
            if r.error is not None:
                continue
            name, convex = CERTIFY_CURVES[r.index]
            n = self.curves[r.index].n
            samp, crit = r.value
            if convex:
                if not (samp and crit):
                    out.append((r.key, "wrong",
                                f"{name} rejected: {samp.notes}; {crit.notes}"))
                continue
            over = (not samp and samp.witness is not None
                    and samp.witness["total"] > n)
            drop = (not crit and crit.witness is not None
                    and crit.witness["dim"] > 0)
            if not (over or drop):
                out.append((r.key, "wrong",
                            f"{name} accepted or failed without a witness: "
                            f"{samp.notes}; {crit.notes}"))
        return out


# ---------------------------------------------------------------------------
# transport: round trips between the strata of two curves


TRANSPORT_PAIRS = (("trig_convex:4", "rational_normal:4"),
                   ("trig_convex:3", "rational_normal:3"))
ROUNDTRIP_TOL = 1e-5


class Transport:
    """One unit is p -> transport(p, c1, c2) -> transport(q, c2, c1)."""

    name = "transport"
    cap_s = 20.0
    run_checks = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.pairs = [(model(a), model(b)) for a, b in TRANSPORT_PAIRS]
        self.inputs: dict[int, tuple] = {}

    def sizes(self) -> dict:
        return {"pairs": [list(p) for p in TRANSPORT_PAIRS],
                "points": "standard normal", "roundtrip_tol": ROUNDTRIP_TOL}

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 99])
        for c1, c2 in self.pairs:
            q = transport(rng.standard_normal(c1.n + 1), c1, c2)
            transport(q.coords, c2, c1)

    def unit(self, k: int) -> list:
        pi = k % len(self.pairs)
        c1, c2 = self.pairs[pi]
        p = np.random.default_rng([self.seed, k]).standard_normal(c1.n + 1)
        self.inputs[k] = (pi, p)

        def roundtrip():
            q = transport(p, c1, c2).coords
            return q, transport(q, c2, c1).coords

        return [("{}<->{}".format(*TRANSPORT_PAIRS[pi]), roundtrip)]

    def check(self, results: list) -> list:
        out = []
        for r in results:
            if r.error is not None:
                continue
            pi, p = self.inputs[r.unit]
            c1, c2 = self.pairs[pi]
            q, back = r.value
            a = p / np.linalg.norm(p)
            b = back / np.linalg.norm(back)
            err = float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))
            try:
                before = count_roots(c1, p).total
                after = count_roots(c2, q).total
            except REFUSALS as e:
                out.append((r.key, "refused", f"recount: {e}"))
                continue
            if err > ROUNDTRIP_TOL or before != after:
                out.append((r.key, "wrong",
                            f"unit {r.unit}: round-trip error {err:.2e}, "
                            f"count {before} -> {after}"))
        return out


# ---------------------------------------------------------------------------
# cli: every command in-process, compared with a reference


CLI_OPS = (
    ("check-convex", ["check-convex", "--curve", "trig_convex:2",
                      "--trials", "50", "--samples", "20"], None),
    ("roots", ["roots", "--curve", "trig_convex:4",
               "(1, 0.3, -0.2, 0.5, 0.1)"], None),
    ("project", ["project", "--curve", "trig_convex:4", "--trials", "100",
                 "1.0", "2.5"], None),
    ("components", ["components", "--curve", "trig_convex:2",
                    "--samples", "100", "--seed", "1"], None),
    ("hull.threads1", ["hull", "--curve", "trig_convex:4"], "1"),
    ("hull.threads2", ["hull", "--curve", "trig_convex:4"], "2"),
    ("mesh.obj", ["mesh", "--curve", "rational_normal:3", "--format", "obj",
                  "--t-steps", "32", "--ruling-steps", "8",
                  "--out", "dev.obj"], None),
    ("mesh.csv", ["mesh", "--curve", "rational_normal:3", "--format", "csv",
                  "--t-steps", "32", "--ruling-steps", "8",
                  "--out", "dev.csv"], None),
    ("transport", ["transport", "--curve", "trig_convex:4",
                   "(1, 0.2, -0.4, 0.1, 0.3)", "rational_normal:4"], None),
)


def run_cli(argv: list, threads: str | None, workdir: Path) -> dict:
    """One in-process CLI call: exit code, stdout, sha256 of a written file.

    The command runs with `workdir` as the current directory, so `--out`
    paths and the JSON that echoes them are the same in every run.
    """
    out, err = io.StringIO(), io.StringIO()
    old_cwd = os.getcwd()
    old_threads = os.environ.get("OSCULANT_THREADS")
    if threads is not None:
        os.environ["OSCULANT_THREADS"] = threads
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = osculant.cli.main(list(argv))
    finally:
        os.chdir(old_cwd)
        if old_threads is None:
            os.environ.pop("OSCULANT_THREADS", None)
        else:
            os.environ["OSCULANT_THREADS"] = old_threads
    doc = {"exit": code, "stdout": out.getvalue()}
    if "--out" in argv:
        written = workdir / argv[argv.index("--out") + 1]
        doc["file_sha256"] = (hashlib.sha256(written.read_bytes()).hexdigest()
                              if written.exists() else None)
        written.unlink(missing_ok=True)
    return doc


class Cli:
    """One unit is a pass over the commands, in a seed-shuffled order."""

    name = "cli"
    cap_s = 8.0
    run_checks = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.reference = json.loads(CLI_REFERENCE.read_text())

    def sizes(self) -> dict:
        return {name: argv for name, argv, _ in CLI_OPS}

    def setup(self) -> None:
        # every command once: the CLI rebuilds its curves on each call, so
        # the warm-up is one pass, which also pays scipy's lazy imports
        for _name, argv, threads in CLI_OPS:
            run_cli(argv, threads, self.workdir)

    def unit(self, k: int) -> list:
        order = np.random.default_rng([self.seed, k]).permutation(len(CLI_OPS))
        return [(CLI_OPS[i][0],
                 lambda i=i: run_cli(CLI_OPS[i][1], CLI_OPS[i][2],
                                     self.workdir))
                for i in order]

    def check(self, results: list) -> list:
        out = []
        for r in results:
            if r.error is not None:
                continue
            want = self.reference[r.name]
            if r.value != want:
                diff = [k for k in sorted(set(want) | set(r.value))
                        if want.get(k) != r.value.get(k)]
                out.append((r.key, "wrong",
                            f"{r.name}: {', '.join(diff)} differ from the "
                            "reference"))
        return out


def capture_cli_reference(workdir: Path) -> dict:
    """Outputs of every CLI operation, as stored in cli_reference.json."""
    return {name: run_cli(argv, threads, workdir)
            for name, argv, threads in CLI_OPS}


WORKLOADS = {"census": Census, "certify": Certify, "transport": Transport,
             "cli": Cli}
