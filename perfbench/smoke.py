"""Self-test of the benchmark at toy size.

    python3 perfbench/smoke.py

Runs every workload in ``BENCHMARK.json`` with ``--size toy`` both untraced
and traced, so every correctness check runs, and asserts that each result
line is well formed, correct, and carries exactly the metrics (and units)
that ``BENCHMARK.json`` declares.  Then copies ``BENCHMARK.json`` and the
benchmark's own directories into an otherwise empty directory and asserts
that the benchmark refuses to run there.  Exits non-zero on the first
failure.  Takes about a minute.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, bench: dict, workload: str, trace: int, extra=()) -> subprocess.CompletedProcess:
    argv = [*bench["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(bench: dict, workload: str, trace: int) -> None:
    done = run(ROOT, bench, workload, trace, ["--size", "toy"])
    label = f"{workload} trace={trace}"
    assert done.returncode == 0, f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}"
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, f"{label}: {done.stdout[-2000:]}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared, f"{label}: metrics {sorted(got)} != declared {sorted(declared)}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), f"{label}: {name}"
        if not trace:
            assert metric["value"] > 0, f"{label}: {name} is not positive"
    print(f"ok  {label}: attempted {result['attempted']}")


def check_refuses_bare_directory(bench: dict) -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, bench, bench["workloads"][0]["name"], 0)
        assert done.returncode != 0, "benchmark ran without the program's sources"
        assert '"correct"' not in done.stdout, "benchmark printed a result without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the program's sources")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_result(bench, workload, trace)
    check_refuses_bare_directory(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
