"""embcompare benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload compare-text --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the program is executed from its
``src/`` tree (nothing is installed).  Inputs are generated from ``--seed``
and cached under ``.perfbench/cache`` outside the timed region.

``--trace 0`` times whole iterations from outside, one process per program
invocation, and prints the end-to-end metrics.  ``--trace 1`` runs the
workload in-process under the span tracer (see ``tracing.py``) and prints
the per-layer metrics.  Either way every iteration's outputs are checked,
and the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details (samples, machine facts, input sizes, errors).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("compare-text", "compare-wide", "analogy-roundtrip")
END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]

SETUP_REPEATS = 3
MIN_ITERATIONS = 2        # the byte-identity check needs a second iteration
TRACE_PAIRS_SHARE = 0.5   # of --seconds, for untraced/traced pairs
CHILD_TIMEOUT_S = 120
RUN_DEADLINE_S = 150      # start no new iteration after this


@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_child(argv: list[str], env: dict, log: Path) -> ChildRun:
    """Run one process to completion; wall from outside, CPU and peak RSS from wait4."""
    with open(log, "ab") as err:
        err.write(f"$ {' '.join(argv)}\n".encode())
        err.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
    )


def child_env(single_thread: bool = False) -> dict:
    """Environment for program processes: default thread counts unless asked for one."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EMBCOMPARE_THREADS"):
        env.pop(var, None)
    if single_thread:
        env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def step_argv(kind: str, args: list[str]) -> list[str]:
    if kind == "cli":
        return [sys.executable, "-m", "embcompare", *args]
    return [sys.executable, str(HERE / "wide_pipeline.py"), *args]


def tail_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return {"percentile": p, "value": statistics.quantiles(values, n=1000)[int(p * 10) - 1]}
    return None


def measure_setup(env: dict, log: Path) -> tuple[list[float], int]:
    """Fresh-interpreter ``import embcompare.cli`` walls, after one warm-up
    import that fills the bytecode cache."""
    argv = [sys.executable, "-c", "import embcompare.cli"]
    failed = int(run_child(argv, env, log).code != 0)
    walls = []
    for _ in range(SETUP_REPEATS):
        r = run_child(argv, env, log)
        failed += r.code != 0
        walls.append(r.wall_s)
    return walls, failed


def timed_run(workloads, name: str, entry: Path, out: Path, log: Path, seconds: float, t0: float):
    env = child_env()
    setup_walls, setup_failed = measure_setup(env, log)
    step_list = workloads.steps(name, entry, out, [])
    checker = workloads.Checker(name, entry)
    samples, errors = [], []
    measured = 0.0  # program time only: checks and output resets are not measured
    while len(samples) < MIN_ITERATIONS or measured < seconds:
        if time.perf_counter() - t0 > RUN_DEADLINE_S:
            break
        workloads.reset_outputs(out)
        s = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "step_walls": [], "errors": []}
        for kind, args in step_list:
            r = run_child(step_argv(kind, args), env, log)
            s["step_walls"].append(r.wall_s)
            s["wall_s"] += r.wall_s
            s["cpu_s"] += r.cpu_s
            s["peak_rss_mb"] = max(s["peak_rss_mb"], r.peak_rss_mb)
            if r.code != 0:
                s["errors"].append(f"{kind} {args[0]}: exit code {r.code}")
                break
        if not s["errors"]:
            s["errors"] = checker.check(out)
        samples.append(s)
        measured += s["wall_s"]
        errors += s["errors"]

    metrics = {key: statistics.median(s[key] for s in samples) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup_walls)
    walls = [s["wall_s"] for s in samples]
    details = {
        "iterations": len(samples),
        "samples": [{k: v for k, v in s.items() if k != "errors"} for s in samples],
        "wall_s": {"median": metrics["wall_s"], "tail": tail_percentile(walls), "n": len(walls)},
        "setup_s_samples": setup_walls,
        "setup_failed": setup_failed,
    }
    attempted = len(samples) + SETUP_REPEATS + 1
    failed = sum(1 for s in samples if s["errors"]) + setup_failed
    return metrics, attempted, failed, errors, details


def run_trace_child(name: str, entry: Path, out: Path, log: Path, run_dir: Path,
                    pairs: bool, budget_s: float, single_thread: bool) -> dict:
    tag = "single" if single_thread else "default"
    spec = {
        "workload": name, "entry": str(entry), "out": str(out), "pairs": pairs,
        "budget_s": budget_s, "threads": ["--threads", "1"] if single_thread else [],
    }
    spec_path, result_path = run_dir / f"spec-{tag}.json", run_dir / f"trace-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    argv = [sys.executable, str(HERE / "trace_child.py"), str(spec_path), str(result_path)]
    r = run_child(argv, child_env(single_thread), log)
    if r.code != 0 or not result_path.exists():
        error = f"trace child ({tag}) exit code {r.code}"
        return {"import_s": 0.0, "spans": [],
                "iterations": [{"traced": True, "wall_s": 0.0, "errors": [error]}]}
    return json.loads(result_path.read_text(encoding="utf-8"))


def traced_run(tracing, name: str, entry: Path, out: Path, log: Path, run_dir: Path,
               seconds: float, results_dir: Path, stem: str):
    default = run_trace_child(name, entry, out, log, run_dir, True, seconds * TRACE_PAIRS_SHARE, False)
    single = run_trace_child(name, entry, out, log, run_dir, False, 0.0, True)
    metrics = tracing.layer_metrics(default, single)
    (results_dir / f"{stem}-spans.json").write_text(
        json.dumps({"default": default, "single_thread": single}), encoding="utf-8")
    # Byte identity is checked within each child only: the program promises
    # identical reports across --threads, but a different BLAS thread count
    # may round differently in the last bit.
    iterations = default["iterations"] + single["iterations"]
    errors = [e for it in iterations for e in it["errors"]]
    details = {
        "iterations": [{"traced": it["traced"], "wall_s": it["wall_s"]} for it in iterations],
        "spans_file": str(results_dir / f"{stem}-spans.json"),
        "single_thread_child": "OPENBLAS_NUM_THREADS=1 and --threads 1",
    }
    failed = sum(1 for it in iterations if it["errors"])
    return metrics, len(iterations), failed, errors, details


def machine_facts(env: dict) -> dict:
    import numpy
    import scipy

    def command(*argv):
        try:
            done = subprocess.run(argv, capture_output=True, text=True, timeout=10, cwd=ROOT)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    llc = command("getconf", "LEVEL3_CACHE_SIZE")
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc_bytes": int(llc) if llc and llc.isdigit() else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": env.get("OPENBLAS_NUM_THREADS", "default (one per CPU)"),
        "git_rev": command("git", "rev-parse", "HEAD") if (ROOT / ".git").exists() else None,
        "src_sha256": src.hexdigest(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy inputs for the self-test (smoke.py)")
    args = parser.parse_args()
    t0 = time.perf_counter()
    # turn SIGTERM into an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in ("src/embcompare/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"run.py: not a source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    prepare_start = time.perf_counter()
    entry = workloads.prepare(args.workload, args.seed, args.size)
    prepare_s = time.perf_counter() - prepare_start
    meta = workloads.load_meta(entry)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    run_dir = Path(".perfbench") / "work" / f"{stem}-{os.getpid()}"
    results_dir = Path(".perfbench") / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    out, log = run_dir / "out", run_dir / "stderr.log"
    out.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed, errors, details = traced_run(
                tracing, args.workload, entry, out, log, run_dir, args.seconds, results_dir, stem)
            units = dict(tracing.PER_LAYER)
        else:
            metrics, attempted, failed, errors, details = timed_run(
                workloads, args.workload, entry, out, log, args.seconds, t0)
            units = dict(END_TO_END)
        if errors:
            print(log.read_text(encoding="utf-8", errors="replace")[-4000:], file=sys.stderr)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    machine = machine_facts(child_env())
    details.update(
        workload=args.workload,
        seed=args.seed,
        size=args.size,
        inputs={
            "params": meta["params"],
            "input_bytes": meta["input_bytes"],
            "llc_bytes": machine["llc_bytes"],
            "gen_s": meta["gen_s"],
            "prepare_s": prepare_s,
        },
        machine=machine,
        failed_ratio=failed / attempted,
        errors=errors[:20],
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (results_dir / f"{stem}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=2), encoding="utf-8")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
