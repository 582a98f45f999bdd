"""Word-analogy evaluation and cross-run answer agreement.

Questions follow the classic analogy-task text format: ``: category-name``
header lines followed by four-word lines ``a b c d`` asking "a is to b as
c is to ?" with gold answer ``d``.  Answers are selected by the additive
vector-offset rule: the vocabulary word (excluding a, b and c) whose vector
has the highest cosine similarity to ``vec(b) - vec(a) + vec(c)``.

On unit rows the 3CosAdd score of a vocabulary row ``v`` is a sum of three
cosines, ``v.b - v.a + v.c`` (Levy & Goldberg, CoNLL 2014), and question sets
reuse a few hundred words across thousands of questions.  So the questions
are walked in file order, in chunks of at most ``_WORD_CHUNK`` (1024)
distinct a/b/c words, and each chunk meets the vocabulary in tiles of
``_VOCAB_TILE`` (2048) rows: one matrix product gives the chunk words'
cosines to the tile, then each block of ``_QUESTION_ROWS`` (32) questions
sums its three rows of cosines (b minus a, plus c, in that order), drops a,
b and c, and takes a row-wise argmax.  A running best per question is merged
across tiles with a strict ``>``, so ties go to the lowest vocabulary index.
Scoring memory is at most ``_WORD_CHUNK x _VOCAB_TILE`` float64 cosines
(16 MB), a 512 KB score block and the chunk words' rows, whatever the
vocabulary and question counts.  The constants do not depend on the CPU count, and BLAS threads the
products itself.  Scores can differ in the last bits from the
``v.(b - a + c)`` form, so answers whose top two candidates lie within a
few ulps may differ from it; such near-ties already depend on the BLAS
kernel and its thread count.

Agreement between two runs is quantified with Krippendorff's alpha for
nominal labels over two raters.
"""
from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import astuple, dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from .embedding_io import EmbeddingMatrix, _decoded, opened, row_normalize
from .embedding_io import write_csv_rows

SKIPPED = "SKIPPED"
ANSWERED = "ANSWERED"

# scoring geometry (see the module docstring)
_VOCAB_TILE = 2048
_WORD_CHUNK = 1024
_QUESTION_ROWS = 32

# answers-CSV columns; the first five identify a question, and a row's
# question_index is its position
ANSWER_COLUMNS = ("question_index", "a", "b", "c", "d", "predicted", "status")
QUESTION_COLUMNS = ANSWER_COLUMNS[:5]


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


def section_of(category: str) -> str:
    """``syntactic`` for ``gram*`` categories, ``semantic`` otherwise."""
    return "syntactic" if category.startswith("gram") else "semantic"


@dataclass(frozen=True)
class AnswerRecord:
    """The answer to one question; its index is its position in the answers."""

    predicted: str | None  # None when a, b or c is out of vocabulary
    correct: bool | None   # None when skipped or the gold answer is OOV

    @property
    def status(self) -> str:
        return SKIPPED if self.predicted is None else ANSWERED


@dataclass(frozen=True)
class ScopeCounts:
    """Tallies for one category, one section, or the whole question set."""

    total: int = 0
    answered: int = 0
    correct: int = 0

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

    def __add__(self, other: ScopeCounts) -> ScopeCounts:
        return ScopeCounts(*(x + y for x, y in zip(astuple(self), astuple(other))))

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
    per_category: dict[str, ScopeCounts]  # in order of first appearance

    @property
    def per_section(self) -> dict[str, ScopeCounts]:
        """Category counts summed by section, in order of first appearance."""
        sections: dict[str, ScopeCounts] = {}
        for category, counts in self.per_category.items():
            section = section_of(category)
            sections[section] = sections.get(section, ScopeCounts()) + counts
        return sections

    @property
    def total(self) -> ScopeCounts:
        return sum(self.per_category.values(), ScopeCounts())

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

    def disagreements(
        self, keys: Sequence[dict], left: Sequence, right: Sequence
    ) -> list[dict]:
        """Each disagreeing item's key, then both labels; all indexed by position."""
        return [
            {**keys[i], "predicted_left": left[i], "predicted_right": right[i]}
            for i in self.disagreeing
        ]

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
    before the first category header.  Lines are decoded one at a time, so
    invalid UTF-8 is an error naming its line.
    """
    questions: list[AnalogyQuestion] = []
    category: str | None = None
    with opened(source, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = _decoded(line, lineno, AnalogyParseError).split()
            if not parts:
                continue
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
    """Predicted word per question (None where a, b or c is OOV, or where
    they cover the whole vocabulary)."""
    index = e.index
    predictions: list[str | None] = [None] * len(questions)
    askable: list[int] = []
    triples: list[tuple[int, int, int]] = []
    for qi, q in enumerate(questions):
        ids = index.get(q.a), index.get(q.b), index.get(q.c)
        if None not in ids:
            askable.append(qi)
            triples.append(ids)
    if not triples:
        return predictions

    abc = np.array(triples, dtype=np.intp)
    best = np.empty(len(abc), dtype=np.intp)
    for start, stop in _word_chunks(triples, _WORD_CHUNK):
        best[start:stop] = _best_rows(e.values, abc[start:stop])
    for qi, row in zip(askable, best.tolist()):
        if row >= 0:
            predictions[qi] = e.vocab[row]
    return predictions


def _word_chunks(
    triples: Sequence[tuple[int, int, int]], limit: int
) -> Iterator[tuple[int, int]]:
    """``(start, stop)`` of consecutive runs of questions with at most
    ``limit`` distinct words each."""
    start, words = 0, set()
    for i, abc in enumerate(triples):
        if len(words) + len(set(abc) - words) > limit:
            yield start, i
            start, words = i, set()
        words.update(abc)
    yield start, len(triples)


def _best_rows(values: np.ndarray, abc: np.ndarray) -> np.ndarray:
    """The best-scoring vocabulary row per ``(a, b, c)`` row of ``abc``, or -1
    where no row is left once a, b and c are excluded."""
    words, inverse = np.unique(abc, return_inverse=True)
    ja, jb, jc = inverse.reshape(abc.shape).T
    query = values[words]
    best_score = np.full(len(abc), -np.inf)
    best_row = np.full(len(abc), -1, dtype=np.intp)
    for t0 in range(0, len(values), _VOCAB_TILE):
        tile = values[t0 : t0 + _VOCAB_TILE]
        cosines = query @ tile.T
        for q0 in range(0, len(abc), _QUESTION_ROWS):
            block = slice(q0, q0 + _QUESTION_ROWS)
            score = cosines[jb[block]]
            score -= cosines[ja[block]]
            score += cosines[jc[block]]
            cols = abc[block] - t0
            r, k = np.nonzero((cols >= 0) & (cols < len(tile)))
            score[r, cols[r, k]] = -np.inf
            top = score.argmax(axis=1)  # ties: lowest index in the tile
            top_score = score[np.arange(len(top)), top]
            # strict: a tie with an earlier tile keeps the lower index, and
            # a tile with no candidate left (all -inf) changes nothing;
            # [block] is a view, so the masked writes land in place
            better = top_score > best_score[block]
            best_score[block][better] = top_score[better]
            best_row[block][better] = top[better] + t0
    return best_row


def answer_question(e: EmbeddingMatrix, q: AnalogyQuestion) -> AnswerRecord:
    """Answer a single question against a row-normalized embedding."""
    predicted = _predict(e, [q])[0]
    return AnswerRecord(predicted, _correctness(e.index, q, predicted))


def _correctness(
    index: dict[str, int], q: AnalogyQuestion, predicted: str | None
) -> bool | None:
    if predicted is None or q.d not in index:
        return None
    return predicted == q.d


def _tally(
    questions: Sequence[AnalogyQuestion], answers: Sequence[AnswerRecord]
) -> dict[str, ScopeCounts]:
    """Total, answered and correct counts per category, in one pass."""
    tallies: dict[str, list[int]] = {}
    for q, r in zip(questions, answers):
        tally = tallies.setdefault(q.category, [0, 0, 0])
        tally[0] += 1
        tally[1] += r.predicted is not None
        tally[2] += bool(r.correct)
    return {k: ScopeCounts(*tally) for k, tally in tallies.items()}


def evaluate(
    e: EmbeddingMatrix,
    questions: Sequence[AnalogyQuestion],
) -> EvaluationReport:
    """Answer every question and tally accuracy by category.

    The embedding is row-normalized internally; accuracy denominators count
    answered (non-skipped) questions, with the skipped-counts-as-wrong
    variant reported alongside.
    """
    unit, _ = row_normalize(e)
    predictions = _predict(unit, questions)
    answers = tuple(
        AnswerRecord(predicted=pred, correct=_correctness(unit.index, q, pred))
        for q, pred in zip(questions, predictions)
    )
    return EvaluationReport(
        embedding_name=e.name,
        answers=answers,
        per_category=_tally(questions, answers),
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
    labels_left = [r.predicted for r in left.answers]
    labels_right = [r.predicted for r in right.answers]
    agreement = krippendorff_alpha(labels_left, labels_right)
    keys = [
        {"question_index": i, "a": q.a, "b": q.b, "c": q.c, "d": q.d,
         "category": q.category}
        for i, q in enumerate(questions)
    ]
    disagreements = tuple(agreement.disagreements(keys, labels_left, labels_right))
    return AgreementReport(
        left=left, right=right, agreement=agreement, disagreements=disagreements
    )


def write_answers_csv(
    questions: Sequence[AnalogyQuestion],
    answers: Sequence[AnswerRecord],
    dest: str | Path | IO,
) -> None:
    """One row per question, with the columns ``ANSWER_COLUMNS``."""
    rows = (
        [i, q.a, q.b, q.c, q.d, r.predicted or "", r.status]
        for i, (q, r) in enumerate(zip(questions, answers))
    )
    write_csv_rows(dest, ANSWER_COLUMNS, rows)


def read_answers_csv(source: str | Path | IO) -> list[dict]:
    """Rows of an answers CSV as dicts of strings, validated row by row.

    Every row must have exactly the header's fields, a ``question_index``
    spelling its 0-based position as ``analogy`` does (so disagreements
    cite each question once: ``00`` is no second form of ``0``), a status
    of ANSWERED or SKIPPED, and a non-empty ``predicted`` exactly when the
    status is ANSWERED.  A row that breaks any of these, invalid UTF-8 or a
    row the CSV reader rejects (a field over its size limit, say) raises
    ``ValueError`` naming the CSV line.  The file is decoded in one call.
    """
    with opened(source, "rb") as fh:
        text = _decoded(fh.read(), 1, ValueError, any_line_end=True)
        reader = csv.DictReader(io.StringIO(text, newline=""))
        try:
            fields = reader.fieldnames
            if fields is None or not set(ANSWER_COLUMNS).issubset(fields):
                raise ValueError(
                    f"answers CSV must have columns {sorted(ANSWER_COLUMNS)}, "
                    f"got {fields}"
                )
            rows = []
            for position, row in enumerate(reader):
                problem = _answer_row_problem(row, position)
                if problem is not None:
                    raise ValueError(f"line {reader.line_num}: {problem}")
                rows.append(row)
        except csv.Error as exc:  # DictReader counts only the lines it returned
            raise ValueError(f"line {reader.reader.line_num}: {exc}") from None
    return rows


def _answer_row_problem(row: dict, position: int) -> str | None:
    """Why the answers-CSV row at 0-based ``position`` is malformed, or None."""
    if None in row:  # csv.DictReader files surplus fields under the key None
        return "row has more fields than the header"
    if None in row.values():  # and fills missing ones with None
        return "row has fewer fields than the header"
    index = row["question_index"]
    try:
        int(index)
    except ValueError:
        return f"question_index {index!r} is not an integer"
    if index != str(position):  # the form analogy writes, so "00" and "+0" fail
        return f"question_index must be {position}, got {index}"
    status, predicted = row["status"], row["predicted"]
    if status not in (ANSWERED, SKIPPED):
        return f"status {status!r} is not {ANSWERED} or {SKIPPED}"
    if status == ANSWERED and not predicted:
        return f"{ANSWERED} row has an empty predicted label"
    if status == SKIPPED and predicted:
        return f"{SKIPPED} row has predicted label {predicted!r}"
    return None
