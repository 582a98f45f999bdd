"""Word-analogy evaluation and cross-run answer agreement.

Questions follow the classic analogy-task text format: ``: category-name``
header lines followed by four-word lines ``a b c d`` asking "a is to b as
c is to ?" with gold answer ``d``.  Answers are selected by the additive
vector-offset rule: the vocabulary word (excluding a, b and c) whose vector
has the highest cosine similarity to ``vec(b) - vec(a) + vec(c)``.

Questions are scored in blocks of a fixed 128 (``_QUESTION_BLOCK``): one
matrix product per block, threaded by BLAS itself.  The block size is a
constant rather than a function of the CPU count, so every machine splits
the questions the same way; 128 columns keep the product gemm-sized while
the float64 V x 128 score block stays at 51 MB for V=50k.  Near-ties
within a few ulps can still depend on the BLAS kernel and its thread
count.

Agreement between two runs is quantified with Krippendorff's alpha for
nominal labels over two raters.
"""
from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .embedding_io import EmbeddingMatrix, opened, row_normalize, split_lines
from .embedding_io import write_csv_rows

SKIPPED = "SKIPPED"
ANSWERED = "ANSWERED"

_QUESTION_BLOCK = 128


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
    correct: int

    @property
    def skipped(self) -> int:
        return self.total - self.answered

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
    disagreeing: tuple[int, ...]  # positions answered by both, with different labels
    degenerate: bool = False  # all labels identical: alpha 1 by convention

    @property
    def n_agreements(self) -> int:
        return self.n_items - len(self.disagreeing)

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "n_items": self.n_items,
            "n_excluded": self.n_excluded,
            "n_agreements": self.n_agreements,
            "degenerate": self.degenerate,
        }


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
) -> list[str | None]:
    """Predicted word per question (None where a, b or c is OOV)."""
    index = e.index
    values = e.values
    predictions: list[str | None] = [None] * len(questions)

    askable: list[tuple[int, int, int, int]] = []
    for qi, q in enumerate(questions):
        ia, ib, ic = index.get(q.a), index.get(q.b), index.get(q.c)
        if ia is None or ib is None or ic is None:
            continue
        askable.append((qi, ia, ib, ic))

    for start in range(0, len(askable), _QUESTION_BLOCK):
        qi, ia, ib, ic = np.array(
            askable[start : start + _QUESTION_BLOCK], dtype=np.intp
        ).T
        targets = values[ib] - values[ia] + values[ic]
        scores = values @ targets.T
        cols = np.arange(len(qi))
        scores[ia, cols] = -np.inf
        scores[ib, cols] = -np.inf
        scores[ic, cols] = -np.inf
        best = np.argmax(scores, axis=0)  # ties: lowest vocabulary index
        # a tiny vocabulary can leave no candidate at all once the three
        # query words are excluded; those questions stay unanswered
        answered = ~np.isneginf(scores[best, cols])
        for q, row in zip(qi[answered].tolist(), best[answered].tolist()):
            predictions[q] = e.vocab[row]
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
        return ScopeCounts(
            total=len(indices),
            answered=sum(1 for i in indices if answers[i].predicted is not None),
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
) -> EvaluationReport:
    """Answer every question and tally accuracy by category, section, total.

    The embedding is row-normalized internally; accuracy denominators count
    answered (non-skipped) questions, with the skipped-counts-as-wrong
    variant reported alongside.
    """
    unit, _ = row_normalize(e)
    predictions = _predict(unit, questions)
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

    Items where either label is None (skipped) are excluded.  For two raters
    and nominal labels the coincidence table reduces to the label marginals
    and the number of disagreeing items (Krippendorff, *Computing
    Krippendorff's Alpha-Reliability*, 2011); alpha = 1 - observed/expected
    disagreement.  The positions of the disagreeing items are returned in
    ``disagreeing``.  When every label is identical the expected
    disagreement is zero and alpha is 1 by convention, flagged as
    degenerate.
    """
    if len(answers_a) != len(answers_b):
        raise ValueError(
            f"answer sequences differ in length: {len(answers_a)} vs {len(answers_b)}"
        )
    label_counts: Counter[str] = Counter()
    disagreeing: list[int] = []
    n_items = 0
    for i, (x, y) in enumerate(zip(answers_a, answers_b)):
        if x is None or y is None:
            continue
        n_items += 1
        label_counts[x] += 1
        label_counts[y] += 1
        if x != y:
            disagreeing.append(i)
    if not n_items:
        raise ValueError("no items were answered by both runs")

    n = 2 * n_items
    expected_agree = Fraction(
        sum(c * (c - 1) for c in label_counts.values()), n * (n - 1)
    )
    expected_disagree = 1 - expected_agree
    degenerate = expected_disagree == 0
    if degenerate:
        alpha = 1.0
    else:
        alpha = float(1 - Fraction(len(disagreeing), n_items) / expected_disagree)
    return AgreementResult(
        alpha=alpha,
        n_items=n_items,
        n_excluded=len(answers_a) - n_items,
        disagreeing=tuple(disagreeing),
        degenerate=degenerate,
    )


@dataclass(frozen=True)
class AgreementReport:
    left: EvaluationReport
    right: EvaluationReport
    agreement: AgreementResult
    disagreements: tuple[dict, ...]

    def to_json_dict(self) -> dict:
        return {
            **self.agreement.to_json_dict(),
            "left": self.left.to_json_dict(),
            "right": self.right.to_json_dict(),
            "disagreements": list(self.disagreements),
        }


def agreement_report(
    e1: EmbeddingMatrix,
    e2: EmbeddingMatrix,
    questions: Sequence[AnalogyQuestion],
) -> AgreementReport:
    """Evaluate both embeddings, compute alpha and list disagreements."""
    left = evaluate(e1, questions)
    right = evaluate(e2, questions)
    agreement = krippendorff_alpha(
        [r.predicted for r in left.answers],
        [r.predicted for r in right.answers],
    )
    disagreements = tuple(
        {
            "question_index": i,
            "a": questions[i].a,
            "b": questions[i].b,
            "c": questions[i].c,
            "d": questions[i].d,
            "category": questions[i].category,
            "predicted_left": left.answers[i].predicted,
            "predicted_right": right.answers[i].predicted,
        }
        for i in agreement.disagreeing
    )
    return AgreementReport(
        left=left, right=right, agreement=agreement, disagreements=disagreements
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
    """Rows of an answers CSV as dicts of strings, validated row by row.

    Every row must have exactly the header's fields, an integer
    ``question_index``, a status of ANSWERED or SKIPPED, and a non-empty
    ``predicted`` exactly when the status is ANSWERED.  A row that breaks
    any of these raises ``ValueError`` naming the file and CSV line.
    """
    with opened(source, "r", newline="", encoding="utf-8") as fh:
        name = getattr(fh, "name", "answers CSV")
        reader = csv.DictReader(fh)
        required = {"question_index", "a", "b", "c", "d", "predicted", "status"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(
                f"answers CSV must have columns {sorted(required)}, "
                f"got {reader.fieldnames}"
            )
        rows = []
        for row in reader:
            problem = _answer_row_problem(row)
            if problem is not None:
                raise ValueError(f"{name}: line {reader.line_num}: {problem}")
            rows.append(row)
        return rows


def _answer_row_problem(row: dict) -> str | None:
    """Why an answers-CSV row is malformed, or None when it is well formed."""
    if None in row:  # csv.DictReader files surplus fields under the key None
        return "row has more fields than the header"
    if None in row.values():  # and fills missing ones with None
        return "row has fewer fields than the header"
    try:
        int(row["question_index"])
    except ValueError:
        return f"question_index {row['question_index']!r} is not an integer"
    status, predicted = row["status"], row["predicted"]
    if status not in (ANSWERED, SKIPPED):
        return f"status {status!r} is not {ANSWERED} or {SKIPPED}"
    if status == ANSWERED and not predicted:
        return f"{ANSWERED} row has an empty predicted label"
    if status == SKIPPED and predicted:
        return f"{SKIPPED} row has predicted label {predicted!r}"
    return None
