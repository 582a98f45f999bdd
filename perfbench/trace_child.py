"""Traced, in-process iterations of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/trace_child.py <spec.json> <result.json>

Measures ``import embcompare.cli`` first, then runs the workload's steps by
calling ``embcompare.cli.main(argv)`` (and the library pipeline) directly,
so the real command code runs under the tracer.  In ``pairs`` mode it
alternates untraced and traced iterations until ``budget_s`` has passed, so
the two walls give the tracing overhead; otherwise it runs one traced
iteration.  Every iteration's outputs are checked.
"""
import json
import sys
import time

_t0 = time.perf_counter()
import embcompare.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

from pathlib import Path  # noqa: E402

import embcompare  # noqa: E402
import tracing  # noqa: E402
import wide_pipeline  # noqa: E402
import workloads  # noqa: E402


def run_steps(step_list) -> list[str]:
    errors = []
    for kind, args in step_list:
        try:
            if kind == "cli":
                rc = embcompare.cli.main(args)
                if rc != 0:
                    errors.append(f"{args[0]}: exit code {rc}")
            else:
                wide_pipeline.run(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(f"{kind} {args[0]}: {type(exc).__name__}: {exc}")
    return errors


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    entry, out = Path(spec["entry"]), Path(spec["out"])
    step_list = workloads.steps(spec["workload"], entry, out, spec["threads"])
    checker = workloads.Checker(spec["workload"], entry)
    tracer = tracing.Tracer()
    iterations = []

    def iteration(traced: bool) -> None:
        workloads.reset_outputs(out)
        tracer.iteration += 1
        start = time.perf_counter()
        if traced:
            tracer.install(embcompare, embcompare.cli)
            try:
                with tracing.RssSampler() as tracer.rss, tracer.span("bench.iteration", "bench"):
                    errors = run_steps(step_list)
            finally:
                tracer.uninstall()
                tracer.rss = None
        else:
            errors = run_steps(step_list)
        wall = time.perf_counter() - start
        errors += checker.check(out)
        iterations.append({"traced": traced, "wall_s": wall, "errors": errors})

    start = time.perf_counter()
    if spec["pairs"]:
        while True:
            iteration(traced=False)
            iteration(traced=True)
            if time.perf_counter() - start >= spec["budget_s"]:
                break
    else:
        iteration(traced=True)

    result = {"import_s": IMPORT_S, "iterations": iterations, "spans": tracer.spans}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
