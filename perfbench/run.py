"""FTMP benchmark: one command, three seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream-loopback --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``stream-loopback``   — three stacks on real loopback UDP sockets, one
  asyncio loop, open-loop Poisson multicasts (wall clock);
* ``lossy-stream-sim``  — five members on a simulated 1 %-loss network
  with E17's closed-loop datapath (simulated time);
* ``giop-failover-sim`` — replicated GIOP invocations from four
  closed-loop clients across a replica crash (simulated time).

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
same seed untraced and then traced (spans around every layer's public
entry points, installed from here, so no program source changes) and
reports the per-layer metrics; the retained spans are written to
``.perfbench/``.  Every run checks the program's output with the oracle
battery (total order, FIFO, no duplicates) and, on the GIOP workload,
replies and replica states against a sequential execution.  The last
line of standard output is one JSON object; the exit code is non-zero
when a correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program() -> None:
    """Make ``repro`` (the program, under ``src/``) and this package importable."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program sources not found under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' to run the three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    _import_program()
    from perfbench import report

    if args.workload == "all":
        names = list(report.WORKLOADS)
    elif args.workload in report.WORKLOADS:
        names = [args.workload]
    else:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{sorted(report.WORKLOADS)} or 'all'")
    metrics, violations, attempted, failed = {}, [], 0, 0
    for name in names:
        m, v, a, f = _run_one(report, name, args.seed, args.seconds, args.trace)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: value for k, value in m.items()})
        violations += v
        attempted += a
        failed += f
    for v in violations[:20]:
        print(f"VIOLATION: {v}")
    correct = not violations
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _run_one(report, workload: str, seed: int, seconds: int, trace: int):
    """One workload: the untraced run, plus the traced run with ``trace``.

    Returns (metrics, violations, ops attempted, ops failed).
    """
    run = report.WORKLOADS[workload]
    untraced = run(seed, seconds, False)
    report.print_end_to_end(untraced)
    if not trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report.end_to_end(untraced).items()}
        return metrics, untraced.violations, untraced.attempted, untraced.failed
    traced = run(seed, seconds, True)
    layers = report.per_layer(traced, untraced)
    report.print_per_layer(layers, traced)
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    traced.session.recorder.write(out / f"spans-{workload}-seed{seed}.jsonl")
    violations = untraced.violations + traced.violations
    if traced.sim and traced.latencies != untraced.latencies:
        violations.append("tracing changed the simulated latencies: "
                          "the wrappers perturbed the program")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    return (metrics, violations, untraced.attempted + traced.attempted,
            untraced.failed + traced.failed)


if __name__ == "__main__":
    sys.exit(main())
