"""CLI commands print what the benchmark's cli reference holds, byte for byte.

perfbench/workloads.py is loaded read-only and its own runner makes each
call, so a changed CLI byte fails here before a benchmark run.  The
commands below print no float bits, so the reference holds on every
supported Python and numpy.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
COMMANDS = ("check-convex", "roots", "project", "components")


@pytest.fixture(scope="module")
def workloads():
    old = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # read-only
    try:
        spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                      WORKLOADS)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = old
    return mod


@pytest.mark.parametrize("name", COMMANDS)
def test_cli_output_matches_the_reference(workloads, name, tmp_path):
    reference = json.loads(workloads.CLI_REFERENCE.read_text())
    ops = {op: (argv, threads) for op, argv, threads in workloads.CLI_OPS}
    argv, threads = ops[name]
    assert workloads.run_cli(argv, threads, tmp_path) == reference[name]
