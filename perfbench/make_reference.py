"""Record the outputs the benchmark's correctness gate compares against.

    python3 perfbench/make_reference.py

Runs every operation of every workload once and writes ``reference.json``:
the exit code, the sha256 of each exported file, and each check's verdict,
max residual and tolerance.  The file is recorded once, on the commit that
defines the benchmark; recording it again on a later commit would hide any
change in the program's output.
"""

import json
import os
import sys

os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import workloads as wl  # noqa: E402


def main() -> int:
    root = wl.HERE.parent
    cli = wl.import_cli(root)
    reference = {}
    for workload in wl.WORKLOADS:
        reference[workload] = {}
        for op in wl.operations(workload, root):
            outcome = wl.execute(cli, op)
            if outcome.error:
                print(f"{op.key}: {outcome.error}", file=sys.stderr)
                return 1
            reference[workload][op.key] = wl.observe(op, outcome)
            print(f"{workload} {op.key}: exit {outcome.exit_code}, {outcome.latency:.3f} s")
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
