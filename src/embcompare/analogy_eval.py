"""Word-analogy evaluation and cross-run answer agreement.

Questions follow the classic analogy-task text format: ``: category-name``
header lines followed by four-word lines ``a b c d`` asking "a is to b as
c is to ?" with gold answer ``d``.  Answers are selected by the additive
vector-offset rule: the vocabulary word (excluding a, b and c) whose vector
has the highest cosine similarity to ``vec(b) - vec(a) + vec(c)``.

Agreement between two runs is quantified with Krippendorff's alpha for
nominal labels over two raters.
"""
from __future__ import annotations

import csv
import json
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .embedding_io import EmbeddingMatrix, opened, row_normalize, split_lines
from .embedding_io import write_csv_rows

SKIPPED = "SKIPPED"
ANSWERED = "ANSWERED"

_QUESTION_BLOCK = 64


class AnalogyParseError(ValueError):
    """A question file violates the analogy-task format."""


@dataclass(frozen=True)
class AnalogyQuestion:
    a: str
    b: str
    c: str
    d: str
    category: str

    def __post_init__(self):
        if not (self.a and self.b and self.c and self.d):
            raise ValueError("analogy words must be non-empty")
        if not self.category:
            raise ValueError("question has no category")

    @property
    def section(self) -> str:
        """``syntactic`` for ``gram*`` categories, ``semantic`` otherwise."""
        return "syntactic" if self.category.startswith("gram") else "semantic"


@dataclass(frozen=True)
class AnswerRecord:
    question_index: int
    predicted: str | None  # None when a, b or c is out of vocabulary
    correct: bool | None   # None when skipped or the gold answer is OOV

    @property
    def status(self) -> str:
        return SKIPPED if self.predicted is None else ANSWERED


@dataclass(frozen=True)
class ScopeCounts:
    """Tallies for one category, one section, or the whole question set."""

    total: int
    answered: int
    skipped: int
    correct: int

    @property
    def accuracy(self) -> float | None:
        """Correct over answered; None when nothing was answered."""
        return self.correct / self.answered if self.answered else None

    @property
    def accuracy_oov_wrong(self) -> float | None:
        """Correct over all questions, counting skipped ones as wrong."""
        return self.correct / self.total if self.total else None

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "answered": self.answered,
            "skipped": self.skipped,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "accuracy_oov_wrong": self.accuracy_oov_wrong,
        }


@dataclass(frozen=True)
class EvaluationReport:
    embedding_name: str
    answers: tuple[AnswerRecord, ...]
    per_category: dict[str, ScopeCounts]
    per_section: dict[str, ScopeCounts]
    total: ScopeCounts

    def to_json_dict(self) -> dict:
        return {
            "embedding": self.embedding_name,
            "total": self.total.to_json_dict(),
            "sections": {k: v.to_json_dict() for k, v in self.per_section.items()},
            "categories": {k: v.to_json_dict() for k, v in self.per_category.items()},
        }


@dataclass(frozen=True)
class AgreementResult:
    """Krippendorff's alpha over two runs' predicted labels."""

    alpha: float
    n_items: int
    n_excluded: int
    n_agreements: int
    coincidence: dict[tuple[str, str], int]
    degenerate: bool = False  # all labels identical: alpha 1 by convention


def parse_analogy_file(
    source: str | Path | IO, lowercase: bool = False
) -> list[AnalogyQuestion]:
    """Parse ``: category`` headers and four-word question lines.

    Lines with any other token count are errors, as is a question appearing
    before the first category header.
    """
    questions: list[AnalogyQuestion] = []
    category: str | None = None
    for lineno, parts in split_lines(source, error=AnalogyParseError):
        if parts[0] == ":":
            if len(parts) != 2:
                raise AnalogyParseError(
                    f"line {lineno}: malformed category header {' '.join(parts)!r}"
                )
            category = parts[1]
            continue
        if len(parts) != 4:
            raise AnalogyParseError(
                f"line {lineno}: expected 4 words, got {len(parts)}"
            )
        if category is None:
            raise AnalogyParseError(
                f"line {lineno}: question appears before any ': category' header"
            )
        a, b, c, d = (p.lower() for p in parts) if lowercase else parts
        questions.append(AnalogyQuestion(a=a, b=b, c=c, d=d, category=category))
    return questions


def _predict(
    e: EmbeddingMatrix,
    questions: Sequence[AnalogyQuestion],
    workers: int | None = None,
) -> list[str | None]:
    """Predicted word per question (None where a, b or c is OOV).

    Questions are processed in fixed-size blocks so results do not depend
    on the worker count.
    """
    index = e.index
    values = e.values
    predictions: list[str | None] = [None] * len(questions)

    askable: list[tuple[int, int, int, int]] = []
    for qi, q in enumerate(questions):
        ia, ib, ic = index.get(q.a), index.get(q.b), index.get(q.c)
        if ia is None or ib is None or ic is None:
            continue
        askable.append((qi, ia, ib, ic))
    if not askable:
        return predictions

    blocks = [
        askable[s : s + _QUESTION_BLOCK]
        for s in range(0, len(askable), _QUESTION_BLOCK)
    ]

    def run(block: list[tuple[int, int, int, int]]) -> list[tuple[int, int]]:
        ia = np.array([t[1] for t in block], dtype=np.intp)
        ib = np.array([t[2] for t in block], dtype=np.intp)
        ic = np.array([t[3] for t in block], dtype=np.intp)
        targets = values[ib] - values[ia] + values[ic]
        scores = values @ targets.T
        for col in range(len(block)):
            scores[ia[col], col] = -np.inf
            scores[ib[col], col] = -np.inf
            scores[ic[col], col] = -np.inf
        best = np.argmax(scores, axis=0)  # ties: lowest vocabulary index
        cols = np.arange(len(block))
        # a tiny vocabulary can leave no candidate at all once the three
        # query words are excluded; report those as unanswerable
        best = np.where(np.isneginf(scores[best, cols]), -1, best)
        return [(t[0], int(row)) for t, row in zip(block, best)]

    if workers is None or workers <= 1 or len(blocks) == 1:
        results: Iterable = map(run, blocks)
    else:
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(run, blocks))
        finally:
            pool.shutdown()
    for pairs in results:
        for qi, row in pairs:
            if row >= 0:
                predictions[qi] = e.vocab[row]
    return predictions


def answer_question(e: EmbeddingMatrix, q: AnalogyQuestion) -> AnswerRecord:
    """Answer a single question against a row-normalized embedding."""
    predicted = _predict(e, [q])[0]
    return AnswerRecord(
        question_index=0,
        predicted=predicted,
        correct=_correctness(e.index, q, predicted),
    )


def _correctness(
    index: dict[str, int], q: AnalogyQuestion, predicted: str | None
) -> bool | None:
    if predicted is None or q.d not in index:
        return None
    return predicted == q.d


def _tally(
    questions: Sequence[AnalogyQuestion], answers: Sequence[AnswerRecord]
) -> tuple[dict[str, ScopeCounts], dict[str, ScopeCounts], ScopeCounts]:
    def counts(indices: list[int]) -> ScopeCounts:
        answered = sum(1 for i in indices if answers[i].predicted is not None)
        return ScopeCounts(
            total=len(indices),
            answered=answered,
            skipped=len(indices) - answered,
            correct=sum(1 for i in indices if answers[i].correct),
        )

    by_category: dict[str, list[int]] = {}
    by_section: dict[str, list[int]] = {}
    for i, q in enumerate(questions):
        by_category.setdefault(q.category, []).append(i)
        by_section.setdefault(q.section, []).append(i)
    return (
        {k: counts(v) for k, v in by_category.items()},
        {k: counts(v) for k, v in by_section.items()},
        counts(list(range(len(questions)))),
    )


def evaluate(
    e: EmbeddingMatrix,
    questions: Sequence[AnalogyQuestion],
    workers: int | None = None,
) -> EvaluationReport:
    """Answer every question and tally accuracy by category, section, total.

    The embedding is row-normalized internally; accuracy denominators count
    answered (non-skipped) questions, with the skipped-counts-as-wrong
    variant reported alongside.
    """
    unit, _ = row_normalize(e)
    predictions = _predict(unit, questions, workers=workers)
    answers = tuple(
        AnswerRecord(
            question_index=i,
            predicted=pred,
            correct=_correctness(unit.index, q, pred),
        )
        for i, (q, pred) in enumerate(zip(questions, predictions))
    )
    per_category, per_section, total = _tally(questions, answers)
    return EvaluationReport(
        embedding_name=e.name,
        answers=answers,
        per_category=per_category,
        per_section=per_section,
        total=total,
    )


def krippendorff_alpha(
    answers_a: Sequence[str | None], answers_b: Sequence[str | None]
) -> AgreementResult:
    """Nominal-data Krippendorff's alpha for two raters.

    Items where either label is None (skipped) are excluded.  Each usable
    item contributes both ordered label pairs to the coincidence table;
    alpha = 1 - observed/expected disagreement.  When every label is
    identical the expected disagreement is zero and alpha is 1 by
    convention, flagged as degenerate.
    """
    if len(answers_a) != len(answers_b):
        raise ValueError(
            f"answer sequences differ in length: {len(answers_a)} vs {len(answers_b)}"
        )
    usable = [
        (x, y) for x, y in zip(answers_a, answers_b) if x is not None and y is not None
    ]
    if not usable:
        raise ValueError("no items were answered by both runs")
    n_items = len(usable)
    n_excluded = len(answers_a) - n_items

    coincidence: Counter[tuple[str, str]] = Counter()
    label_counts: Counter[str] = Counter()
    disagree = 0
    for x, y in usable:
        coincidence[(x, y)] += 1
        coincidence[(y, x)] += 1
        label_counts[x] += 1
        label_counts[y] += 1
        if x != y:
            disagree += 1

    n = 2 * n_items
    expected_agree = Fraction(
        sum(c * (c - 1) for c in label_counts.values()), n * (n - 1)
    )
    expected_disagree = 1 - expected_agree
    if expected_disagree == 0:
        return AgreementResult(
            alpha=1.0,
            n_items=n_items,
            n_excluded=n_excluded,
            n_agreements=n_items - disagree,
            coincidence=dict(coincidence),
            degenerate=True,
        )
    alpha = 1 - Fraction(disagree, n_items) / expected_disagree
    return AgreementResult(
        alpha=float(alpha),
        n_items=n_items,
        n_excluded=n_excluded,
        n_agreements=n_items - disagree,
        coincidence=dict(coincidence),
    )


@dataclass(frozen=True)
class AgreementReport:
    left: EvaluationReport
    right: EvaluationReport
    agreement: AgreementResult
    disagreements: tuple[dict, ...]
    scores: dict | None = None

    def to_json_dict(self) -> dict:
        d = {
            "alpha": self.agreement.alpha,
            "n_items": self.agreement.n_items,
            "n_excluded": self.agreement.n_excluded,
            "left": self.left.to_json_dict(),
            "right": self.right.to_json_dict(),
            "disagreements": list(self.disagreements),
        }
        if self.scores is not None:
            d["scores"] = dict(self.scores)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def agreement_report(
    e1: EmbeddingMatrix,
    e2: EmbeddingMatrix,
    questions: Sequence[AnalogyQuestion],
    scores: dict | None = None,
    workers: int | None = None,
) -> AgreementReport:
    """Evaluate both embeddings, compute alpha and list disagreements.

    ``scores`` may carry companion similarity metrics (for example the
    matching and CCA aggregates) to be echoed next to alpha.
    """
    left = evaluate(e1, questions, workers=workers)
    right = evaluate(e2, questions, workers=workers)
    agreement = krippendorff_alpha(
        [r.predicted for r in left.answers],
        [r.predicted for r in right.answers],
    )
    disagreements = tuple(
        {
            "question_index": i,
            "a": q.a,
            "b": q.b,
            "c": q.c,
            "d": q.d,
            "category": q.category,
            "predicted_left": left.answers[i].predicted,
            "predicted_right": right.answers[i].predicted,
        }
        for i, q in enumerate(questions)
        if left.answers[i].predicted is not None
        and right.answers[i].predicted is not None
        and left.answers[i].predicted != right.answers[i].predicted
    )
    return AgreementReport(
        left=left,
        right=right,
        agreement=agreement,
        disagreements=disagreements,
        scores=scores,
    )


def write_answers_csv(
    questions: Sequence[AnalogyQuestion],
    answers: Sequence[AnswerRecord],
    dest: str | Path | IO,
) -> None:
    """One row per question: question_index, a, b, c, d, predicted, status."""
    header = ["question_index", "a", "b", "c", "d", "predicted", "status"]
    rows = (
        [r.question_index, q.a, q.b, q.c, q.d, r.predicted or "", r.status]
        for q, r in zip(questions, answers)
    )
    write_csv_rows(dest, header, rows)


def read_answers_csv(source: str | Path | IO) -> list[dict]:
    """Rows of an answers CSV as dicts, with basic schema validation."""
    with opened(source, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"question_index", "a", "b", "c", "d", "predicted", "status"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(
                f"answers CSV must have columns {sorted(required)}, "
                f"got {reader.fieldnames}"
            )
        return list(reader)
