#!/usr/bin/env python3
"""Quick self-check of the benchmark's own code (about two minutes).

Run from the repository root::

    python3 perfbench/selfcheck.py

It checks that ``BENCHMARK.json`` agrees with ``spec.py``, that the stored
DH group is the one :func:`inputs.derive_dh_group` derives, that a tiny run
of every workload, untraced and traced, prints every named metric with its
unit and a correct, failure-free result, and that the benchmark refuses to
run without the program's source next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_SECONDS = "1"


def check_manifest() -> None:
    import spec

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert manifest["command"] == ["python3", "perfbench/run.py"], manifest["command"]
    assert manifest["paths"] == ["perfbench"], manifest["paths"]
    assert manifest["workloads"] == [
        {"name": name, "why": shape["why"]} for name, shape in spec.WORKLOADS.items()
    ], "BENCHMARK.json workloads differ from spec.WORKLOADS"
    assert manifest["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in spec.END_TO_END
    ], "BENCHMARK.json end_to_end differs from spec.END_TO_END"
    assert manifest["per_layer"] == [
        {"name": name, "unit": entry[0], "better": entry[1]}
        for name, entry in spec.PER_LAYER.items()
    ], "BENCHMARK.json per_layer differs from spec.PER_LAYER"
    for shape in spec.WORKLOADS.values():
        assert len(shape["why"]) <= 200 and "\n" not in shape["why"]


def check_dh_group() -> None:
    import inputs

    assert inputs.derive_dh_group() == inputs.dh_group(), "stored DH group is not the derived one"


def run(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", TINY_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_tiny_runs() -> None:
    import spec

    expected = {
        0: {name: unit for name, unit, _, _ in spec.END_TO_END},
        1: {name: entry[0] for name, entry in spec.PER_LAYER.items()},
    }
    for workload in spec.WORKLOADS:
        for trace in (0, 1):
            done = run(workload, trace, ROOT)
            assert done.returncode == 0, f"{workload} trace={trace} failed:\n{done.stderr}"
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, f"{workload} trace={trace}: {done.stdout}"
            assert result["attempted"] >= 1 and result["failed"] == 0, result
            units = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert units == expected[trace], f"{workload} trace={trace} metrics: {units}"
            for name, entry in result["metrics"].items():
                assert isinstance(entry["value"], (int, float)), (workload, name, entry)
            print(f"ok {workload} trace={trace}: {len(units)} metrics")


def check_refuses_without_source() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in HERE.glob("*.py"):
        shutil.copy2(path, bare / "perfbench" / path.name)
    try:
        done = run("spam_stream", 0, bare)
        assert done.returncode != 0, "the benchmark ran without the program's source"
        assert '"metrics"' not in done.stdout, "the benchmark printed a result without the source"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses to run without src/")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    check_manifest()
    check_dh_group()
    check_refuses_without_source()
    check_tiny_runs()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
