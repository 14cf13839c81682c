"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload cli_batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported and launched
from the checkout's ``src`` tree.  Human-readable notes go to stdout
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code
is 0 when every oracle and cross-mode check passed, 1 when one failed
and 2 when the run could not start.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness

WORKLOADS = ("cli_batch", "daemon_mixed", "site_recrawl")


def _benchmark_spec() -> dict:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not harness.program_present():
        sys.stderr.write(
            f"perfbench: no program source under {harness.SRC}; run from the "
            "root of a full checkout\n"
        )
        return 2
    sys.path.insert(0, str(harness.SRC))

    spec = _benchmark_spec()
    section = "per_layer" if args.trace else "end_to_end"
    names = [metric["name"] for metric in spec[section]]

    if args.workload == "cli_batch":
        from cli_batch import run_workload
    elif args.workload == "daemon_mixed":
        from daemon_mixed import run_workload
    else:
        from site_recrawl import run_workload
    outcome = run_workload(args.seed, args.seconds, bool(args.trace))

    missing = [name for name in names if name not in outcome.metrics]
    if missing:
        outcome.fail(f"workload did not measure {missing}")
        for name in missing:
            outcome.metric(name, 0.0, "count")
    for line in outcome.lines:
        print(line)
    attempted = max(1, outcome.attempted)
    print(
        f"{args.workload}: fail_frac={outcome.failed / attempted:.4f} "
        f"({outcome.failed} of {attempted} operations failed)"
    )
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(outcome.result_line(names)), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
