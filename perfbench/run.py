#!/usr/bin/env python3
"""One seeded benchmark of Pretzel serving at ring degree n = 1024.

Run from the repository root::

    python3 perfbench/run.py --workload spam_stream --seed 1 --seconds 10 --trace 0

``--trace 0`` builds the workload's set-up ``SETUP_REPEATS`` times (the
median is ``setup_s``), serves one timed pass with no instrumentation and
prints every end-to-end metric.  ``--trace 1`` builds the set-up once with
the layer wrappers installed, serves an untraced pass and then a traced
pass over the same inputs, prints every per-layer metric and writes the
spans to ``perfbench/out/``.  Either way the last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workloads, metrics and the layer map are in ``perfbench/spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def _import_program() -> bool:
    """Put the program's source tree on the path (agents inherit it)."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SOURCE))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SOURCE) + (os.pathsep + inherited if inherited else "")
    return True


def measure(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and human-readable notes."""
    import layertrace
    import report
    import spec
    from workloads import WORKLOAD_CLASSES

    base_ots = layertrace.BaseOtCounter().install()
    bench = WORKLOAD_CLASSES[workload](seed, seconds, base_ots)
    notes: list[str] = []
    try:
        if not traced:
            setup_times = []
            for repeat in range(spec.SETUP_REPEATS):
                if repeat:
                    bench.close()
                start = time.perf_counter()
                bench.setup()
                setup_times.append(time.perf_counter() - start)
            run = bench.run(layertrace.Spans(), 0)
            values, note = report.end_to_end(run, statistics.median(setup_times), workload)
            notes.append(note)
            notes.append("setup_s samples: " + ", ".join(f"{t:.3f}" for t in setup_times))
            passes = [run]
            units = {name: unit for name, unit, _, _ in spec.END_TO_END}
        else:
            spans = layertrace.Spans()
            with layertrace.tracing(spans):
                bench.setup()
            untraced = bench.run(layertrace.Spans(), 0)
            with layertrace.tracing(spans):
                run = bench.run(spans, 1)
            values = report.per_layer(run, untraced, spans, workload)
            path = HERE / "out" / f"spans-{workload}-seed{seed}.json"
            spans.write(path)
            notes.append(f"{len(spans.records)} spans written to {path.relative_to(HERE.parent)}")
            passes = [untraced, run]
            units = {name: entry[0] for name, entry in spec.PER_LAYER.items()}
    finally:
        bench.close()
        base_ots.patches.restore()
    problems = [problem for one in passes for problem in report.check(one, workload)]
    notes += [f"CHECK FAILED: {problem}" for problem in problems]
    attempted = len(run.emails)
    failed = sum(1 for email in run.emails if not email.succeeded)
    return report.as_result(values, units, attempted, failed, not problems), notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_program():
        return 2
    import spec

    if args.workload not in spec.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, entry in result["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    for note in notes:
        print(note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main())
