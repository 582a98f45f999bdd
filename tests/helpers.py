"""Shared fixture builders for the test suite."""
from __future__ import annotations

import numpy as np

from embcompare import EmbeddingMatrix
from embcompare.analogy_eval import AnalogyQuestion


def make_embedding(values, vocab=None, name="test") -> EmbeddingMatrix:
    values = np.asarray(values, dtype=np.float64)
    if vocab is None:
        vocab = tuple(f"word{i:03d}" for i in range(values.shape[0]))
    return EmbeddingMatrix(vocab=tuple(vocab), values=values, name=name)


def exclusion_fixture() -> tuple[EmbeddingMatrix, AnalogyQuestion, str]:
    """A 5-word embedding where the raw argmax for b - a + c is c itself.

    Returns (embedding, question, expected_answer_after_exclusion).
    """
    vocab = ("alpha", "beta", "gamma", "delta", "eps")
    values = np.array(
        [
            [1.0, 0.0],   # alpha: a
            [0.9, 0.1],   # beta:  b, close to a so the offset stays near c
            [0.0, 1.0],   # gamma: c, nearest to the target
            [-0.2, 1.0],  # delta: second nearest
            [1.0, 1.0],
        ]
    )
    q = AnalogyQuestion(a="alpha", b="beta", c="gamma", d="delta", category="capital")
    return make_embedding(values, vocab, name="exclusion"), q, "delta"


def grid_fixture() -> tuple[EmbeddingMatrix, list[AnalogyQuestion]]:
    """Embedding with exact vector-offset analogies over a 2x2 attribute grid."""
    vocab = ("aa", "ba", "ab", "bb", "far1", "far2")
    values = np.array(
        [
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
            [1.0, 1.0, 1.0],
            [5.0, -5.0, 1.0],
            [-4.0, 2.0, 1.0],
        ]
    )
    questions = [
        AnalogyQuestion(a="aa", b="ba", c="ab", d="bb", category="grid-shift"),
        AnalogyQuestion(a="aa", b="ab", c="ba", d="bb", category="grid-shift"),
        AnalogyQuestion(a="ba", b="aa", c="bb", d="ab", category="grid-shift"),
        AnalogyQuestion(a="ab", b="bb", c="aa", d="ba", category="gram-grid"),
    ]
    return make_embedding(values, vocab, name="grid"), questions


def write_questions(path, questions) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        category = None
        for q in questions:
            if q.category != category:
                category = q.category
                fh.write(f": {category}\n")
            fh.write(f"{q.a} {q.b} {q.c} {q.d}\n")


def swapped_fixture() -> tuple[EmbeddingMatrix, EmbeddingMatrix, list[AnalogyQuestion]]:
    """Two embeddings that differ only in which word sits at each analogy
    target, so both questions are answered by both, with different words.

    Returns (first, second, questions); ``first`` answers win1, win2 and
    ``second`` answers win2, win1.
    """
    vocab = ("qa", "qb", "qc", "win1", "win2")
    t1 = np.array([-0.1, 0.1, 1.0])  # vec(qb) - vec(qa) + vec(qc)
    t2 = np.array([0.1, -0.1, 1.0])  # vec(qa) - vec(qb) + vec(qc)
    rows = np.array([[1.0, 0.0, 0.0], [0.9, 0.1, 0.0], [0.0, 0.0, 1.0], t1, t2])
    swapped = rows.copy()
    swapped[[3, 4]] = swapped[[4, 3]]
    questions = [
        AnalogyQuestion(a="qa", b="qb", c="qc", d="win1", category="capital"),
        AnalogyQuestion(a="qb", b="qa", c="qc", d="win2", category="capital"),
    ]
    return (
        make_embedding(rows, vocab, name="first"),
        make_embedding(swapped, vocab, name="second"),
        questions,
    )


def pinned_fixture() -> tuple[EmbeddingMatrix, EmbeddingMatrix, list[AnalogyQuestion]]:
    """Two grid embeddings and eight questions in four categories.

    The categories alternate syntactic (``gram*``) and semantic, syntactic
    first, and cover every answer kind: correct, wrong, skipped (``a`` out
    of vocabulary) and not applicable (``d`` out of vocabulary).  Every
    winner beats the runner-up by a cosine margin of at least 0.05.  The
    second embedding swaps the vectors of ``bb`` and ``far2``, so it answers
    ``far2`` wherever the first answers ``bb``.

    Returns (first, second, questions).
    """
    first, _ = grid_fixture()
    swapped = first.values.copy()
    swapped[[3, 5]] = swapped[[5, 3]]
    rows = [
        ("gram1-grid", "aa ba ab bb"),
        ("gram1-grid", "ab bb aa ba"),
        ("capital-grid", "aa ab ba bb"),
        ("capital-grid", "missing ba ab bb"),
        ("gram2-grid", "ba aa bb ab"),
        ("gram2-grid", "aa ba ab far1"),
        ("family-grid", "aa ba ab nothere"),
        ("family-grid", "ba bb aa ab"),
    ]
    questions = [
        AnalogyQuestion(*words.split(), category=category) for category, words in rows
    ]
    return (
        first,
        make_embedding(swapped, first.vocab, name="grid-swapped"),
        questions,
    )


ANSWERS_HEADER = "question_index,a,b,c,d,predicted,status\n"
# (bad row, the problem read_answers_csv reports for it)
MALFORMED_ANSWER_ROWS = [
    ("1,a,b,c\n", "row has fewer fields than the header"),
    ("1,a,b,c,d,X,ANSWERED,extra\n", "row has more fields than the header"),
    ("one,a,b,c,d,X,ANSWERED\n", "question_index 'one' is not an integer"),
    ("1,a,b,c,d,X,answered\n", "status 'answered' is not ANSWERED or SKIPPED"),
    ("1,a,b,c,d,,ANSWERED\n", "ANSWERED row has an empty predicted label"),
    ("1,a,b,c,d,X,SKIPPED\n", "SKIPPED row has predicted label 'X'"),
]
