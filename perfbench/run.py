"""osculant benchmark: one workload, one seed, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end metrics; with --trace 1 they are the per-layer metrics of a
traced run.  The lines before it are a readable report.  Full results go to
.perfbench_out/ in the checkout.  See perfbench/README.md.
"""

from time import perf_counter

_T0 = perf_counter()   # start of this interpreter, before any heavy import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("census", "certify", "transport", "cli")
SETUP_REPEATS = 3
# share of --seconds given to the untraced half of a --trace 1 run
TRACE_BASELINE_SHARE = 0.4


class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation exceeds its wall-clock cap.

    A BaseException, so `except Exception` inside the program cannot
    swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout


@dataclass
class Result:
    unit: int
    index: int
    name: str
    seconds: float
    value: object = None
    error: str | None = None
    kind: str | None = None   # "refused", "timeout" or "raised" with error
    phase: int = 0            # 1 for the traced half of a --trace 1 run

    @property
    def key(self) -> tuple:
        return (self.phase, self.unit, self.index)


def _require_sources() -> None:
    if not (SRC / "osculant" / "__init__.py").is_file():
        sys.exit(f"perfbench: no osculant sources under {SRC}; run from the "
                 "root of a full checkout")


def _import_program():
    """Put the checkout's src/ first on sys.path and import osculant from it."""
    _require_sources()
    sys.path.insert(0, str(SRC))
    import osculant
    if Path(osculant.__file__).resolve().parent != SRC / "osculant":
        sys.exit(f"perfbench: imported osculant from {osculant.__file__}, "
                 f"not from {SRC}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    return workloads


def _make(workloads, name: str, seed: int):
    cls = workloads.WORKLOADS[name]
    if name == "cli":
        work = OUT / f"cli-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        return cls(seed, work)
    return cls(seed)


def _setup_probe(name: str, seed: int) -> None:
    """Child mode: import, build the curves, warm up; print seconds taken."""
    workloads = _import_program()
    wl = _make(workloads, name, seed)
    wl.setup()
    print(repr(perf_counter() - _T0))
    _cleanup(wl)


def _cleanup(wl) -> None:
    work = getattr(wl, "workdir", None)
    if work is not None and work.is_dir():
        for f in work.iterdir():
            f.unlink()
        work.rmdir()


def _setup_seconds(name: str, seed: int) -> list:
    """Set-up time of SETUP_REPEATS fresh interpreters, each on its own."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: set-up probe for {name} failed")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def timed_loop(wl, seconds: float, max_units: int | None = None,
               tracer=None, phase: int = 0) -> tuple[list, list]:
    """Closed loop: run units until the next one would overrun `seconds`.

    Returns per-operation results and per-unit times.  Inputs for a unit
    are made before its clock starts; the time of a unit is the sum of its
    operations' times.
    """
    import workloads       # importable once _import_program has run
    results: list[Result] = []
    unit_times: list[float] = []
    start = perf_counter()
    k = 0
    while max_units is None or k < max_units:
        ops = wl.unit(k)
        spent = 0.0
        for i, (name, fn) in enumerate(ops):
            r = Result(k, i, name, 0.0, phase=phase)
            if tracer is not None:
                tracer.op_id = k
            t0 = perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, wl.cap_s)
                try:
                    r.value = fn()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
            except OpTimeout:
                r.kind, r.error = "timeout", f"exceeded the {wl.cap_s} s cap"
            except workloads.REFUSALS as e:
                r.kind, r.error = "refused", f"{type(e).__name__}: {e}"
            except Exception as e:   # a defect in the program: count it
                r.kind, r.error = "raised", f"{type(e).__name__}: {e}"
            r.seconds = perf_counter() - t0
            if tracer is not None:
                tracer.op_id = None
            spent += r.seconds
            results.append(r)
        unit_times.append(spent)
        k += 1
        if max_units is None and perf_counter() - start + spent > seconds:
            break
    return results, unit_times


def _percentile(xs: list, q: float) -> float:
    return float(np.percentile(np.asarray(xs), q))


def _blas_record() -> dict:
    """BLAS libraries loaded in this process and their thread counts (read only)."""
    import ctypes
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = {"name": info.get("name"), "version": info.get("version"),
           "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                               "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")
                   if k in os.environ},
           "libraries": {}}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                rec["libraries"][Path(path).name] = fn()
                break
    return rec


def environment(wl, seed: int) -> dict:
    import scipy
    return {"python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "blas": _blas_record(),
            "workload": wl.name, "seed": seed, "sizes": wl.sizes()}


def _check(wl, results: list, tracer=None) -> tuple[int, int, bool, list]:
    """Run the workload's checks; returns attempted, failed, correct, notes."""
    if tracer is not None:
        tracer.op_id = "check"
    found = wl.check(results)
    if tracer is not None:
        tracer.op_id = None
    bad_keys = set()
    notes = []
    correct = True
    run_failures = 0
    for r in results:
        if r.error is not None:
            bad_keys.add(r.key)
            notes.append(f"{r.kind}: unit {r.unit} {r.name}: {r.error}")
            correct = correct and r.kind != "raised"
    for key, kind, detail in found:
        if key is None:
            run_failures += 1
        else:
            bad_keys.add(key)
        notes.append(f"{kind}: {detail}")
        correct = correct and kind != "wrong"
    attempted = len(results) + wl.run_checks
    return attempted, len(bad_keys) + run_failures, correct, notes


def _per_operation(results: list) -> dict:
    """Count, p50 and p90 of each named operation's time."""
    by: dict[str, list] = {}
    for r in results:
        by.setdefault(r.name, []).append(r.seconds)
    return {k: {"count": len(v), "p50_ms": _percentile(v, 50) * 1e3,
                "p90_ms": _percentile(v, 90) * 1e3}
            for k, v in sorted(by.items())}


def _as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def end_to_end(unit_times: list, setup: list) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_per_s": (len(unit_times) / sum(unit_times), "1/s"),
        "latency_p50_ms": (_percentile(unit_times, 50) * 1e3, "ms"),
        "latency_p90_ms": (_percentile(unit_times, 90) * 1e3, "ms"),
        "setup_s": (float(np.median(setup)), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def named(name: str, e2e: dict, unit_times: list) -> dict:
    """The end-to-end metrics under the workload's own names, for the report.

    classify_p99_ms is reported but not listed in BENCHMARK.json: on a
    2-vCPU machine with two BLAS threads its run-to-run spread is wider
    than any bound the benchmark may set.
    """
    per_s = e2e["throughput_per_s"][0]
    p50, p90 = e2e["latency_p50_ms"][0], e2e["latency_p90_ms"][0]
    if name == "census":
        return {"classify_per_s": (per_s, "points/s"),
                "classify_p50_ms": (p50, "ms"),
                "classify_p90_ms": (p90, "ms"),
                "classify_p99_ms": (_percentile(unit_times, 99) * 1e3, "ms")}
    if name == "transport":
        return {"roundtrip_per_s": (per_s, "round trips/s"),
                "roundtrip_p50_ms": (p50, "ms"),
                "roundtrip_p90_ms": (p90, "ms")}
    return {f"{name}_s": (p50 / 1e3, "s per pass")}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _require_sources()
    setup = _setup_seconds(name, seed)
    workloads = _import_program()
    wl = _make(workloads, name, seed)
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "setup_samples_s": setup}
    shown = {}
    try:
        wl.setup()
        signal.signal(signal.SIGALRM, _on_alarm)
        if not trace:
            results, unit_times = timed_loop(wl, seconds)
            attempted, failed, correct, notes = _check(wl, results)
            metrics = end_to_end(unit_times, setup)
            shown = named(name, metrics, unit_times)
            report.update(named=_as_json(shown),
                          measured_s=sum(unit_times),
                          operations=_per_operation(results))
        else:
            from spans import Tracer, layer_metrics
            base, base_units = timed_loop(wl, TRACE_BASELINE_SHARE * seconds)
            tracer = Tracer()
            tracer.install(callers=[workloads])
            try:
                results, unit_times = timed_loop(
                    wl, seconds, max_units=len(base_units), tracer=tracer,
                    phase=1)
                attempted, failed, correct, notes = _check(
                    wl, base + results, tracer)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, len(unit_times))
            untraced, traced = sum(base_units), sum(unit_times)
            metrics["trace.untraced_s"] = (untraced, "s")
            metrics["trace.traced_s"] = (traced, "s")
            metrics["trace.overhead_s"] = (traced - untraced, "s")
            spans_file = OUT / f"spans-{name}.csv.gz"
            tracer.write(spans_file)
            report.update(spans=len(tracer.spans),
                          spans_file=str(spans_file.relative_to(ROOT)))
    finally:
        _cleanup(wl)

    env = environment(wl, seed)
    report.update(environment=env, units=len(unit_times), correct=correct,
                  attempted=attempted, failed=failed,
                  failed_share=failed / attempted, notes=notes,
                  metrics=_as_json(metrics))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")

    print(f"# osculant benchmark: workload={name} seed={seed} "
          f"seconds={seconds} trace={int(trace)}")
    print(f"# python {env['python']}, numpy {env['numpy']}, scipy "
          f"{env['scipy']}, nproc {env['nproc']}, blas {env['blas']['name']} "
          f"{env['blas']['version']} threads {env['blas']['libraries']}")
    print(f"# units {len(unit_times)}; attempted {attempted}, failed {failed}, "
          f"failed_share {failed / attempted:.6g}, correct {correct}")
    for note in notes[:20]:
        print(f"#   {note}")
    if len(notes) > 20:
        print(f"#   ... {len(notes) - 20} more in .perfbench_out/")
    for k, (v, u) in {**metrics, **shown}.items():
        print(f"{k} {v:.6g} {u}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": _as_json(metrics)}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own interpreter, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))], cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
