"""Spans recorded from outside the program, and the per-layer metrics derived
from them.

The tracer wraps the public functions that ``embcompare.cli`` imports (and
the same names on the ``embcompare`` package, which the library pipeline
uses) plus ``embcompare.cli.main``.  Each call records a span: name, layer
(the function's module), start, end and parent span.  Spans stay in memory
and are written out when the traced run ends.  Nothing inside ``src/`` is
changed.

Standard library only: the traced child measures ``import embcompare.cli``
before anything else pulls in numpy.
"""
from __future__ import annotations

import contextlib
import functools
import os
import statistics
import threading
import time
from pathlib import Path

WRAPPED = {
    "alignment": ["one_to_one_score"],
    "analogy_eval": ["agreement_report", "evaluate", "krippendorff_alpha",
                     "parse_analogy_file", "read_answers_csv", "write_answers_csv"],
    "cca": ["cca_fit"],
    "column_stats": ["correlation_matrix", "histogram"],
    "embedding_io": ["align_vocabularies", "parse_embedding", "write_glove_text"],
    "synthgen": ["derive_pair", "random_embedding", "random_invertible",
                 "random_permutation", "random_sign_mask"],
}
RSS_TRACKED = {"embedding_io.parse_embedding", "analogy_eval.evaluate"}

# (metric, unit); layers that do not run on a workload report 0
PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("embedding_io.parse_embedding.busy_s", "s"),
    ("embedding_io.parse_embedding.mb_per_s", "MB/s"),
    ("embedding_io.parse_embedding.rows", "count"),
    ("embedding_io.parse_embedding.rss_growth_mb", "MB"),
    ("embedding_io.align_vocabularies.busy_s", "s"),
    ("embedding_io.align_vocabularies.shared_rows", "count"),
    ("embedding_io.write_glove_text.busy_s", "s"),
    ("embedding_io.write_glove_text.mb_per_s", "MB/s"),
    ("column_stats.correlation_matrix.busy_s", "s"),
    ("column_stats.correlation_matrix.gflop_per_s", "GFLOP/s"),
    ("column_stats.correlation_matrix.speedup", "x"),
    ("column_stats.histogram.busy_s", "s"),
    ("alignment.one_to_one_score.busy_s", "s"),
    ("cca.cca_fit.busy_s", "s"),
    ("cca.cca_fit.gflop_per_s", "GFLOP/s"),
    ("cca.cca_fit.k", "count"),
    ("cca.cca_fit.speedup", "x"),
    ("analogy_eval.parse_analogy_file.busy_s", "s"),
    ("analogy_eval.evaluate.busy_s", "s"),
    ("analogy_eval.evaluate.questions_per_s", "1/s"),
    ("analogy_eval.evaluate.gflop_per_s", "GFLOP/s"),
    ("analogy_eval.evaluate.rss_growth_mb", "MB"),
    ("analogy_eval.evaluate.speedup", "x"),
    ("analogy_eval.krippendorff_alpha.busy_s", "s"),
    ("analogy_eval.write_answers_csv.busy_s", "s"),
    ("analogy_eval.read_answers_csv.busy_s", "s"),
    ("synthgen.random_embedding.busy_s", "s"),
    ("synthgen.derive_pair.busy_s", "s"),
    *((f"{layer}.self_s", "s") for layer in WRAPPED),
    ("bench.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.spans", "count"),
]
SPEEDUPS = ["column_stats.correlation_matrix", "cca.cca_fit", "analogy_eval.evaluate"]


def _file_bytes(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, Path)) else 0


# Work done per call, computed from argument and result shapes
# ("computed" flop counts: the nominal 2*m*n*k of each matrix product).
def _counts_parse(args, kwargs, result):
    return {"rows": result.n_words, "bytes": _file_bytes(args[0])}


def _counts_align(args, kwargs, result):
    return {"shared_rows": result.shared_count}


def _counts_write(args, kwargs, result):
    return {"bytes": _file_bytes(args[1])}


def _counts_correlation(args, kwargs, result):
    pair = args[0]
    return {"flop": 2 * pair.shared_count * pair.left.n_dims * pair.right.n_dims}


def _counts_cca(args, kwargs, result):
    pair = args[0]
    dx, dy = pair.left.n_dims, pair.right.n_dims
    return {"flop": 2 * pair.shared_count * (dx * dx + dy * dy + dx * dy), "k": result.k}


def _counts_evaluate(args, kwargs, result):
    e, questions = args[0], args[1]
    answered = result.total.answered
    return {"questions": len(questions), "flop": 2 * e.n_words * e.n_dims * answered}


COUNTS = {
    "embedding_io.parse_embedding": _counts_parse,
    "embedding_io.align_vocabularies": _counts_align,
    "embedding_io.write_glove_text": _counts_write,
    "column_stats.correlation_matrix": _counts_correlation,
    "cca.cca_fit": _counts_cca,
    "analogy_eval.evaluate": _counts_evaluate,
}


class RssSampler:
    """Resident set size of this process, polled every few milliseconds.

    ``mark()`` starts a new peak window and returns the current RSS;
    ``peak()`` is the highest RSS seen since the last mark.
    """

    INTERVAL_S = 0.005

    def __init__(self):
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def rss(self) -> int:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * self._page

    def _poll(self):
        while not self._stop.wait(self.INTERVAL_S):
            self._peak = max(self._peak, self.rss())

    def mark(self) -> int:
        now = self.rss()
        self._peak = now
        return now

    def peak(self) -> int:
        self._peak = max(self._peak, self.rss())
        return self._peak

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


class Tracer:
    """Records spans around calls into the program's layers."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.rss: RssSampler | None = None
        self.iteration = -1

    def _begin(self, name: str, layer: str) -> dict:
        span = {"name": name, "layer": layer, "iteration": self.iteration,
                "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """A span for the benchmark's own code (one per iteration)."""
        span = self._begin(name, layer)
        try:
            yield span
        finally:
            self._end(span)

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        counts = COUNTS.get(name)
        track_rss = name in RSS_TRACKED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss0 = self.rss.mark() if track_rss and self.rss else None
            span = self._begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if counts:
                span["counts"] = counts(args, kwargs, result)
            if rss0 is not None:
                span.setdefault("counts", {})["rss_growth"] = self.rss.peak() - rss0
            return result

        return traced

    def install(self, package, cli) -> None:
        """Replace the wrapped names on ``cli`` and the package; undo with :meth:`uninstall`."""
        for layer, names in WRAPPED.items():
            for fname in names:
                wrapped = self._wrap(layer, getattr(cli, fname))
                for ns in (cli, package):
                    if hasattr(ns, fname):
                        self._saved.append((ns, fname, getattr(ns, fname)))
                        setattr(ns, fname, wrapped)
        self._saved.append((cli, "main", cli.main))
        cli.main = self._wrap("cli", cli.main)

    def uninstall(self) -> None:
        while self._saved:
            ns, fname, original = self._saved.pop()
            setattr(ns, fname, original)


# ---------------------------------------------------------------- aggregation


def _per_iteration(spans: list[dict]) -> list[dict]:
    """Busy time, self time per layer, and summed counts for each iteration."""
    child_time = [0.0] * len(spans)
    by_iter: dict[int, list[tuple[int, dict]]] = {}
    for idx, s in enumerate(spans):
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
        by_iter.setdefault(s["iteration"], []).append((idx, s))
    out = []
    for it in sorted(by_iter):
        group = by_iter[it]
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        counts: dict[str, dict[str, float]] = {}
        for idx, s in group:
            dur = s["end"] - s["start"]
            busy[s["name"]] = busy.get(s["name"], 0.0) + dur
            self_s[s["layer"]] = self_s.get(s["layer"], 0.0) + dur - child_time[idx]
            c = counts.setdefault(s["name"], {})
            for k, v in s.get("counts", {}).items():
                c[k] = max(c.get(k, 0), v) if k in ("rss_growth", "k") else c.get(k, 0) + v
        out.append({"busy": busy, "self": self_s, "counts": counts, "spans": len(group)})
    return out


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(default: dict, single: dict) -> dict[str, float]:
    """Per-layer metrics from the default-thread and one-thread traced children.

    Every value is the median over traced iterations of a per-iteration sum
    (peaks: per-iteration maximum).
    """
    iters = _per_iteration(default["spans"])
    single_iters = _per_iteration(single["spans"])

    def busy(name, source=iters):
        return _median(i["busy"].get(name, 0.0) for i in source)

    def count(name, key):
        return _median(i["counts"].get(name, {}).get(key, 0) for i in iters)

    def rate(name, key, scale):
        return _median(
            _rate(i["counts"].get(name, {}).get(key, 0) / scale, i["busy"].get(name, 0.0))
            for i in iters
        )

    m: dict[str, float] = {
        "cli.import_s": default["import_s"],
        "cli.main.self_s": _median(i["self"].get("cli", 0.0) for i in iters),
    }
    for layer, names in WRAPPED.items():
        for fname in names:
            m[f"{layer}.{fname}.busy_s"] = busy(f"{layer}.{fname}")
        m[f"{layer}.self_s"] = _median(i["self"].get(layer, 0.0) for i in iters)
    m["bench.self_s"] = _median(i["self"].get("bench", 0.0) for i in iters)

    parse, evaluate = "embedding_io.parse_embedding", "analogy_eval.evaluate"
    m[f"{parse}.mb_per_s"] = rate(parse, "bytes", 1e6)
    m[f"{parse}.rows"] = count(parse, "rows")
    m[f"{parse}.rss_growth_mb"] = count(parse, "rss_growth") / 1e6
    m["embedding_io.align_vocabularies.shared_rows"] = count(
        "embedding_io.align_vocabularies", "shared_rows")
    m["embedding_io.write_glove_text.mb_per_s"] = rate("embedding_io.write_glove_text", "bytes", 1e6)
    m["column_stats.correlation_matrix.gflop_per_s"] = rate(
        "column_stats.correlation_matrix", "flop", 1e9)
    m["cca.cca_fit.gflop_per_s"] = rate("cca.cca_fit", "flop", 1e9)
    m["cca.cca_fit.k"] = count("cca.cca_fit", "k")
    m[f"{evaluate}.questions_per_s"] = rate(evaluate, "questions", 1)
    m[f"{evaluate}.gflop_per_s"] = rate(evaluate, "flop", 1e9)
    m[f"{evaluate}.rss_growth_mb"] = count(evaluate, "rss_growth") / 1e6
    for name in SPEEDUPS:
        m[f"{name}.speedup"] = _rate(busy(name, single_iters), busy(name))

    traced = [it["wall_s"] for it in default["iterations"] if it["traced"]]
    untraced = [it["wall_s"] for it in default["iterations"] if not it["traced"]]
    m["trace.traced_wall_s"] = _median(traced)
    m["trace.untraced_wall_s"] = _median(untraced)
    m["trace.overhead_s"] = _median(t - u for t, u in zip(traced, untraced))
    m["trace.spans"] = _median(i["spans"] for i in iters)
    return {name: m[name] for name, _ in PER_LAYER}
