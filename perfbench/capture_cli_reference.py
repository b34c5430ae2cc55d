"""Rewrite cli_reference.json from the osculant sources of this checkout.

The reference holds the exit code, stdout and written-file digest of every
operation of the cli workload.  It was captured on the commit that added
the benchmark; rewrite it only for a change that is meant to alter CLI
output, and say so in that change.

    python3 perfbench/capture_cli_reference.py
"""

import json
import shutil
import sys

import run


def main() -> int:
    workloads = run._import_program()
    work = run.OUT / "cli-reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ref = workloads.capture_cli_reference(work)
    finally:
        shutil.rmtree(work)
    workloads.CLI_REFERENCE.write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n")
    for name, doc in ref.items():
        print(f"{name}: exit {doc['exit']}, {len(doc['stdout'])} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
