"""In-memory span tracing of osculant's public functions, from outside it.

`Tracer.install()` replaces each traced function at every binding inside the
loaded ``osculant.*`` modules (module globals, re-exports and class
attributes), so a call from ``strata`` into ``tangency.count_roots`` records
a span just like a call from the benchmark.  `Tracer.uninstall()` puts the
original objects back.  Nothing under ``src/`` is modified on disk.

A span is (name, start, end, parent span index, operation id, raised).
Spans are recorded only while `op_id` is set: the index of a timed unit,
or "check" while outputs are checked.  The parent is the innermost open
span of the same thread; a span opened on a
worker thread with nothing open there takes the innermost open span of the
thread that installed the tracer, so the ``hull`` command's probe pool nests
under ``cli.main.hull``.  Self time is a span's duration minus the part of
its interval covered by the union of its children's intervals, which stays
correct when children overlap on two worker threads.
"""

from __future__ import annotations

import functools
import gzip
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

# Traced callables, as "module:qualname".  A qualname with a dot names a
# method (or property) of a class defined in that module.
SPANNED = (
    "fourier:evaluate",
    "fourier:from_samples",
    "fourier:deflate",
    "curves:ParamCurve.jet_grid",
    "curves:dual_curve",
    "projective:osculating_subspace",
    "projective:intersect",
    "projective:osculating_intersection",
    "tangency:count_roots",
    "tangency:tangency_function",
    "convexity:check_convex_sampling",
    "convexity:check_convex_criterion",
    "projection:project_onto_osculating_hyperplane",
    "projection:project_iterated",
    "hulls:elliptic_hull",
    "hulls:EllipticHull.boundary_scale",
    "hulls:elliptic_hull_membership",
    "strata:stratum_label",
    "strata:tangency_data",
    "strata:transport",
    "strata:component_census",
    "mesh:sample_discriminant",
    "mesh:export",
    "forms:sturm_count",
)
# Called tens of thousands of times per second: counted, not spanned.
COUNTED = ("curves:ParamCurve.projective_period",)
CLI_COMMANDS = ("check-convex", "roots", "project", "components", "hull",
                "mesh", "transport")


def span_name(target: str) -> str:
    return target.replace(":", ".")


class Tracer:
    """Spans and counts for one benchmark run; install, run, uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.export_bytes = 0
        self.op_id = None
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()     # the hull probe pool opens spans
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> tuple[list, int]:
        st = self._stacks.setdefault(threading.get_ident(), [])
        if st:
            parent = st[-1]
        else:
            main = self._stacks.get(self._main) or [None]
            parent = main[-1]
        rec = [name, perf_counter(), 0.0, parent, self.op_id, False]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        st.append(idx)
        return st, idx

    def _close(self, st: list, idx: int, raised: bool) -> None:
        rec = self.spans[idx]
        rec[2] = perf_counter()
        rec[5] = raised
        st.pop()

    def _spanned(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:          # outside any operation
                return fn(*args, **kwargs)
            st, idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(st, idx, True)
                raise
            tracer._close(st, idx, False)
            return out

        return wrapper

    def _export_wrapper(self, fn):
        inner = self._spanned("mesh.export", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            path = inner(*args, **kwargs)
            if isinstance(tracer.op_id, int):
                tracer.export_bytes += Path(path).stat().st_size
            return path

        return wrapper

    def _cli_main_wrapper(self, fn):
        tracer = self
        by_command = {c: self._spanned(f"cli.main.{c}", fn)
                      for c in CLI_COMMANDS}

        @functools.wraps(fn)
        def wrapper(argv=None):
            command = argv[0] if argv else None
            return by_command.get(command, fn)(argv)

        return wrapper

    def _counted_property(self, name: str, prop: property) -> property:
        tracer, fget = self, prop.fget

        def getter(obj):
            if isinstance(tracer.op_id, int):
                tracer.counts[name] = tracer.counts.get(name, 0) + 1
            return fget(obj)

        return property(getter, prop.fset, prop.fdel, prop.__doc__)

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, callers=()) -> None:
        """Wrap every binding in osculant.* and in the `callers` modules."""
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "osculant"
                                      or k.startswith("osculant."))]
        mods += list(callers)
        pkg = sys.modules["osculant"]
        for target in SPANNED + COUNTED + ("cli:main",):
            modname, qual = target.split(":")
            mod = getattr(pkg, modname)
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                if isinstance(orig, property):
                    new = self._counted_property(span_name(target), orig)
                else:
                    new = self._spanned(span_name(target), orig)
                self._set(cls, attr, new)
                continue
            orig = getattr(mod, qual)
            if target == "mesh:export":
                new = self._export_wrapper(orig)
            elif target == "cli:main":
                new = self._cli_main_wrapper(orig)
            else:
                new = self._spanned(span_name(target), orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the union of child intervals."""
        children: dict[int, list] = {}
        for rec in self.spans:
            if rec[3] is not None:
                children.setdefault(rec[3], []).append((rec[1], rec[2]))
        out = np.array([rec[2] - rec[1] for rec in self.spans])
        for parent, ivs in children.items():
            ivs.sort()
            covered = 0.0
            cur_a, cur_b = ivs[0]
            for a, b in ivs[1:]:
                if a > cur_b:
                    covered += cur_b - cur_a
                    cur_a, cur_b = a, b
                else:
                    cur_b = max(cur_b, b)
            covered += cur_b - cur_a
            out[parent] -= covered
        return out

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: name,start_s,end_s,parent,op,raised."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent,op,raised\n")
            for name, a, b, parent, op, raised in self.spans:
                fh.write(f"{name},{a!r},{b!r},"
                         f"{'' if parent is None else parent},"
                         f"{'' if op is None else op},{int(raised)}\n")


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Per-layer metrics of the timed units, as {name: (value, unit)}.

    Spans of the check phase are left out, except those of the Sturm
    oracle, which runs only there.
    """
    self_s = tracer.self_times()
    agg: dict[str, list] = {}
    for rec, own in zip(tracer.spans, self_s):
        name, start, end, _parent, op, raised = rec
        if (op == "check") != (name == "forms.sturm_count"):
            continue
        a = agg.setdefault(name, [0, 0.0, [], 0])
        a[0] += 1
        a[1] += own
        a[2].append(end - start)
        a[3] += raised
    out = {}
    names = [span_name(t) for t in SPANNED]
    names += [f"cli.main.{c}" for c in CLI_COMMANDS]
    for name in names:
        calls, own, _, _ = agg.get(name, (0, 0.0, [], 0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (own, "s")
    calls, _, durations, raised = agg.get("tangency.count_roots",
                                          (0, 0.0, [], 0))
    out["tangency.count_roots.p50_ms"] = (
        float(np.median(durations)) * 1e3 if durations else 0.0, "ms")
    out["tangency.count_roots.fail_ratio"] = (
        raised / calls if calls else 0.0, "ratio")
    out["hulls.elliptic_hull.builds_per_op"] = (
        agg.get("hulls.elliptic_hull", [0])[0] / units, "1/op")
    for target in COUNTED:
        name = span_name(target)
        out[f"{name}.calls"] = (tracer.counts.get(name, 0), "count")
    out["mesh.export.bytes"] = (tracer.export_bytes, "bytes")
    return out
