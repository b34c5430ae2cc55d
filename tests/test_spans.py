"""The benchmark's trace targets name callables that the package still has.

perfbench/spans.py raises at install when a target is missing; this test
fails first, without running the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(target: str):
    modname, qual = target.split(":")
    mod = importlib.import_module(f"osculant.{modname}")
    if "." in qual:
        cls_name, attr = qual.split(".")
        return vars(getattr(mod, cls_name)).get(attr)
    return getattr(mod, qual, None)


def test_every_trace_target_resolves(monkeypatch):
    spans = _spans(monkeypatch)
    for target in spans.SPANNED:
        assert callable(_resolve(target)), target
    for target in spans.COUNTED:
        assert isinstance(_resolve(target), property), target
    assert callable(_resolve("cli:main"))
