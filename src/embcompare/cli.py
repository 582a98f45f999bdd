"""Command-line entry point.

Subcommands:

* ``compare``   -- end-to-end comparison of two embedding files
* ``analogy``   -- analogy-task accuracy for one embedding
* ``agreement`` -- Krippendorff's alpha between two answer files
* ``synth``     -- generate a synthetic embedding pair with ground truth

``compare``, ``analogy`` and ``agreement`` write JSON to stdout (or
``--out``); a short human-readable summary goes to stderr.  Exit codes:
0 success, 1 input or validation error, 2 internal numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

# Idle OpenBLAS worker threads spin for 2**n cycles before they sleep; the
# default n = 28 (about 0.1 s) burns a second core through numpy's import
# and every single-threaded phase after a BLAS call.  2**16 cycles (about
# 25 us) still bridges LAPACK's back-to-back calls.  OpenBLAS reads the
# variable when numpy loads it, so this must run before any numpy import
# (the package's __init__ imports nothing); a value the user set is kept.
# The thread count is unchanged, so outputs are too.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "16")

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402
from .alignment import one_to_one_score  # noqa: E402
from .analogy_eval import (  # noqa: E402
    QUESTION_COLUMNS,
    AnalogyQuestion,
    agreement_report,
    evaluate,
    krippendorff_alpha,
    parse_analogy_file,
    read_answers_csv,
    write_answers_csv,
)
from .cca import NumericalError, cca_fit, check_regularization  # noqa: E402
from .column_stats import DEFAULT_BINS, check_bins, correlation_matrix, histogram  # noqa: E402
from .embedding_io import (  # noqa: E402
    _FORMATS,
    _at_once,
    align_vocabularies,
    parse_embedding,
    write_csv_rows,
    write_glove_text,
)
from .synthgen import (  # noqa: E402
    SynthSpec,
    derive_pair,
    random_embedding,
    random_invertible,
    random_permutation,
    random_sign_mask,
)

# synth --transform: each name's transform factory, called as (dims, seed)
_SYNTH_TRANSFORMS = {
    "identity": None,
    "permutation": random_permutation,
    "sign_flip": random_sign_mask,
    "linear": random_invertible,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to 1 (input error)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _note(*lines: str) -> None:
    for line in lines:
        print(line, file=sys.stderr)


def _tool_block() -> dict:
    return {"name": "embcompare", "version": __version__, "schema": 2}


def _read_questions(args) -> list[AnalogyQuestion]:
    """Parse ``args.questions``; before any embedding, so a bad file fails fast."""
    questions = parse_analogy_file(args.questions, lowercase=args.lowercase)
    if not questions:
        raise ValueError(f"{args.questions}: no questions")
    return questions


# kept in cli.py: perfbench/tracing.py traces the stages under this module's names
def compare_report(args) -> dict:
    """The ``compare`` report, each score stated once, without
    ``generated_at``; writes the plot CSVs when ``args.plots_dir`` is set."""
    # the questions file is checked before an embedding is parsed
    questions = _read_questions(args) if args.questions else None
    # the left file first, so its error wins when both are bad
    left = parse_embedding(args.left, args.format)
    right = parse_embedding(args.right, args.format)
    if left.n_dims != right.n_dims:
        raise ValueError(
            f"{args.left} has {left.n_dims} dimensions but {args.right} has "
            f"{right.n_dims}; compare needs equal dimensionalities"
        )
    pair = align_vocabularies(left, right)
    # before kappa and CCA, so questions with no item answered by both runs
    # fail before the costly stages
    agreement = (
        None if questions is None else agreement_report(left, right, questions)
    )

    kappa = correlation_matrix(pair)
    kappa_hist = histogram(kappa.values.ravel(), bins=args.bins, with_kde=args.kde)
    matching = one_to_one_score(kappa, use_abs=args.abs_correlation)
    cca_result = cca_fit(pair, regularization=args.regularization)

    if args.plots_dir:
        tables = {}  # CSV stem -> (header, columns)
        for stem, h in (
            ("hist_kappa", kappa_hist),
            ("hist_matched", histogram(
                matching.matched_correlations, bins=args.bins, with_kde=args.kde
            )),
            ("hist_cca", histogram(
                cca_result.correlations, bins=args.bins, with_kde=args.kde
            )),
        ):
            tables[stem] = (
                ("bin_lo", "bin_hi", "count"),
                (h.bin_edges[:-1], h.bin_edges[1:], h.counts),
            )
            if h.kde_points is not None:
                tables[f"{stem}_kde"] = (("x", "density"), h.kde_points.T)
        for stem, values in (
            ("matched_sorted", np.sort(matching.matched_correlations)[::-1]),
            ("cca_sorted", cca_result.correlations),
        ):
            tables[stem] = (
                ("rank", "correlation"), (np.arange(1, values.size + 1), values)
            )
        plots = Path(args.plots_dir)
        plots.mkdir(parents=True, exist_ok=True)
        for stem, (header, columns) in tables.items():
            # floats as repr, so each value reads back exactly
            cells = [
                [repr(v) for v in c.tolist()] if c.dtype.kind == "f" else c.tolist()
                for c in columns
            ]
            write_csv_rows(plots / f"{stem}.csv", header, zip(*cells))

    # --threads is accepted but selects nothing, so it is not echoed and
    # reports stay byte-identical across its values
    config = {
        "left": str(args.left),
        "right": str(args.right),
        "format": args.format,
        "abs_correlation": args.abs_correlation,
        "regularization": args.regularization,
        "bins": args.bins,
        "kde": args.kde,
        "questions": args.questions,
        "lowercase": args.lowercase,
    }
    return {
        "tool": _tool_block(),
        "config": config,
        "inputs": {
            "left": {"name": left.name, "words": left.n_words, "dims": left.n_dims},
            "right": {"name": right.name, "words": right.n_words, "dims": right.n_dims},
            "shared_vocabulary": pair.shared_count,
            "dropped_left": pair.dropped_left,
            "dropped_right": pair.dropped_right,
        },
        "kappa": {
            "histogram": kappa_hist.to_json_dict(),
            "degenerate_left": list(kappa.degenerate_left),
            "degenerate_right": list(kappa.degenerate_right),
        },
        "one_to_one": matching.to_json_dict(),
        "cca": cca_result.to_json_dict(),
        "analogy_agreement": None if agreement is None else agreement.to_json_dict(),
    }


def cmd_compare(args) -> int:
    check_bins(args.bins)
    check_regularization(args.regularization)
    report = compare_report(args)
    if not args.no_timestamp:
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    _emit(report, args.out)

    # the summary reads the emitted report, so the two cannot disagree
    inputs, one, cca = report["inputs"], report["one_to_one"], report["cca"]
    left, right = inputs["left"], inputs["right"]
    _note(
        f"{left['name']} ({left['words']} x {left['dims']})  vs  "
        f"{right['name']} ({right['words']} x {right['dims']})",
        f"shared vocabulary: {inputs['shared_vocabulary']} "
        f"(dropped {inputs['dropped_left']} left, {inputs['dropped_right']} right)",
        f"kappa median:      {report['kappa']['histogram']['median']:+.4f}",
        f"zeta_1to1:         {one['zeta_1to1']:+.4f}",
    )
    if "zeta_abs_1to1" in one:
        _note(f"zeta_abs_1to1:     {one['zeta_abs_1to1']:+.4f}")
    _note(
        f"zeta_cca:          {cca['zeta_cca']:+.4f}  (k={cca['k']}, "
        f"ridge={cca['regularization_left']:.3g}/{cca['regularization_right']:.3g})"
    )
    if report["analogy_agreement"] is not None:
        _note(f"analogy alpha:     {report['analogy_agreement']['alpha']:+.4f}")
    return 0


def cmd_analogy(args) -> int:
    questions = _read_questions(args)
    emb = parse_embedding(args.embedding, args.format)
    report = evaluate(emb, questions)
    if args.answers_csv:
        write_answers_csv(questions, report.answers, args.answers_csv)

    doc = {
        "tool": _tool_block(),
        "config": {
            "embedding": str(args.embedding),
            "questions": str(args.questions),
            "format": args.format,
            "lowercase": args.lowercase,
        },
        "evaluation": report.to_json_dict(),
    }
    _emit(doc, args.out)

    # the summary reads the emitted doc, so the two cannot disagree
    evaluation = doc["evaluation"]
    total = evaluation["total"]
    _note(
        f"{evaluation['embedding']}: {total['correct']}/{total['answered']} "
        f"answered correctly, {total['skipped']} skipped",
        f"accuracy: {total['accuracy']} (skipped left out), "
        f"{total['accuracy_oov_wrong']} (skipped counted wrong)",
    )
    return 0


def cmd_agreement(args) -> int:
    rows_a = read_answers_csv(args.answers_a)
    rows_b = read_answers_csv(args.answers_b)
    if len(rows_a) != len(rows_b):
        raise ValueError(
            f"answer files differ in length: {len(rows_a)} vs {len(rows_b)}"
        )
    # the files pair rows by position, so both must ask the same questions
    keys = [{k: r[k] for k in QUESTION_COLUMNS} for r in rows_a]
    for row, (key, rb) in enumerate(zip(keys, rows_b), start=1):
        key_b = {k: rb[k] for k in QUESTION_COLUMNS}
        if key != key_b:
            raise ValueError(
                f"answer files disagree on the question in row {row}: "
                f"{' '.join(key.values())!r} vs {' '.join(key_b.values())!r}"
            )
        key["question_index"] = int(key["question_index"])
    # read_answers_csv guarantees predicted is empty exactly on SKIPPED rows
    labels_a = [r["predicted"] or None for r in rows_a]
    labels_b = [r["predicted"] or None for r in rows_b]
    result = krippendorff_alpha(labels_a, labels_b)
    disagreements = result.disagreements(keys, labels_a, labels_b)
    doc = {
        "tool": _tool_block(),
        "config": {
            "answers_a": str(args.answers_a),
            "answers_b": str(args.answers_b),
        },
        **result.to_json_dict(),
        "disagreements": disagreements,
    }
    _emit(doc, args.out)
    _note(
        f"alpha: {result.alpha:+.4f} over {result.n_items} items "
        f"({result.n_excluded} excluded, {len(disagreements)} disagreements)"
    )
    return 0


def cmd_synth(args) -> int:
    base = random_embedding(args.rows, args.dims, args.seed)
    make = _SYNTH_TRANSFORMS[args.transform]
    transforms = (make(args.dims, args.seed),) if make else ()
    spec = SynthSpec(transforms=transforms, noise_sigma=args.sigma, seed=args.seed)
    pair = derive_pair(base, spec)
    write_left = partial(write_glove_text, pair.left, args.out_left)
    write_right = partial(write_glove_text, pair.right, args.out_right)
    if os.path.realpath(args.out_left) == os.path.realpath(args.out_right):
        write_left()  # one file, which ends up holding the right matrix
        write_right()
    else:
        # the left file in a forked child; its error wins, as in order, but
        # a right file written meanwhile is left on disk
        _at_once(write_left, write_right, args.out_left)
    if args.truth:
        Path(args.truth).write_text(spec.to_json() + "\n", encoding="utf-8")
    _note(
        f"wrote {args.rows} x {args.dims} pair "
        f"(transform={args.transform}, sigma={args.sigma}, seed={args.seed}) "
        f"to {args.out_left} / {args.out_right}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="embcompare",
        description="Measure how consistent two word-embedding spaces are.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, json_out=True):
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="accepted for existing command lines and ignored: analogy "
            "scoring is threaded by BLAS",
        )
        if json_out:
            p.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p = sub.add_parser("compare", help="compare two embedding files end to end")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--format", choices=_FORMATS, default="auto")
    p.add_argument(
        "--abs-correlation",
        action="store_true",
        help="match dimensions on |correlation| (sign-flip symmetry); "
        "reports zeta_abs_1to1 beside the signed zeta_1to1",
    )
    p.add_argument(
        "--regularization",
        type=float,
        default=None,
        help="absolute CCA ridge; default scales with each side's covariance",
    )
    p.add_argument("--bins", type=int, default=DEFAULT_BINS)
    p.add_argument("--kde", action="store_true", help="add KDE curves to histograms")
    p.add_argument("--plots-dir", default=None, help="write plot-ready CSVs here")
    p.add_argument(
        "--questions", default=None, help="analogy questions file for agreement"
    )
    p.add_argument("--lowercase", action="store_true")
    p.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit generated_at (for byte-identical reports)",
    )
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("analogy", help="analogy-task accuracy for one embedding")
    p.add_argument("embedding")
    p.add_argument("questions")
    p.add_argument("--format", choices=_FORMATS, default="auto")
    p.add_argument("--lowercase", action="store_true")
    p.add_argument("--answers-csv", default=None, help="write per-question answers")
    common(p)
    p.set_defaults(func=cmd_analogy)

    p = sub.add_parser("agreement", help="alpha between two answers CSVs")
    p.add_argument("answers_a")
    p.add_argument("answers_b")
    common(p)
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("synth", help="generate a synthetic embedding pair")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--transform",
        choices=_SYNTH_TRANSFORMS,
        default="identity",
    )
    p.add_argument("--sigma", type=float, default=0.0, help="noise level")
    p.add_argument("--out-left", required=True)
    p.add_argument("--out-right", required=True)
    p.add_argument("--truth", default=None, help="write ground-truth JSON here")
    common(p, json_out=False)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help/--version or usage error
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"embcompare: numerical error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"embcompare: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
