import csv
import io
import itertools
import re
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from embcompare import analogy_eval
from embcompare import (
    agreement_report,
    answer_question,
    evaluate,
    krippendorff_alpha,
    parse_analogy_file,
    row_normalize,
)
from embcompare.analogy_eval import (
    AnalogyParseError,
    AnalogyQuestion,
    read_answers_csv,
    section_of,
    write_answers_csv,
)
from helpers import (
    ANSWERS_HEADER,
    MALFORMED_ANSWER_ROWS,
    exclusion_fixture,
    grid_fixture,
    make_embedding,
    swapped_fixture,
)
from oracles import alpha_coincidence_matrix, analogy_answers_bruteforce, cosine_ranking


def test_parse_semantic_category():
    qs = parse_analogy_file(
        io.StringIO(": capital-common-countries\nathens greece baghdad iraq\n")
    )
    assert len(qs) == 1
    assert qs[0].a == "athens" and qs[0].d == "iraq"
    assert qs[0].category == "capital-common-countries"
    assert section_of(qs[0].category) == "semantic"


def test_parse_syntactic_category():
    qs = parse_analogy_file(
        io.StringIO(": gram1-adjective-to-adverb\namazing amazingly apparent apparently\n")
    )
    assert section_of(qs[0].category) == "syntactic"


def test_parse_three_token_line_errors():
    with pytest.raises(AnalogyParseError, match="line 2"):
        parse_analogy_file(io.StringIO(": cat\na b c\n"))


def test_parse_five_token_line_errors():
    with pytest.raises(AnalogyParseError, match="line 2"):
        parse_analogy_file(io.StringIO(": cat\na b c d e\n"))


def test_parse_question_before_category_errors():
    with pytest.raises(AnalogyParseError, match="before any"):
        parse_analogy_file(io.StringIO("a b c d\n"))


def test_parse_malformed_header_errors():
    with pytest.raises(AnalogyParseError, match="line 1"):
        parse_analogy_file(io.StringIO(": two words\na b c d\n"))


def test_parse_crlf_file(tmp_path):
    path = tmp_path / "questions.txt"
    path.write_bytes(b": cat\r\n\r\nathens greece baghdad iraq\r\n")
    (q,) = parse_analogy_file(path)
    assert (q.a, q.d, q.category) == ("athens", "iraq", "cat")


def test_parse_invalid_utf8_names_line():
    with pytest.raises(AnalogyParseError, match="line 2: input is not valid UTF-8"):
        parse_analogy_file(io.BytesIO(b": cat\na b \xff d\n"))


def test_parse_lowercase_option():
    qs = parse_analogy_file(io.StringIO(": cat\nLondon England Madrid Spain\n"))
    assert qs[0].a == "London"
    lowered = parse_analogy_file(
        io.StringIO(": cat\nLondon England Madrid Spain\n"), lowercase=True
    )
    assert lowered[0].a == "london" and lowered[0].d == "spain"


def test_exact_analogy_answered_correctly():
    emb, questions = grid_fixture()
    unit, _ = row_normalize(emb)
    record = answer_question(unit, questions[0])
    assert record.predicted == "bb"
    assert record.correct is True


def test_oov_question_is_skipped():
    emb, _ = grid_fixture()
    unit, _ = row_normalize(emb)
    q = AnalogyQuestion(a="missing", b="ba", c="ab", d="bb", category="x")
    record = answer_question(unit, q)
    assert record.predicted is None
    assert record.correct is None
    assert record.status == "SKIPPED"


def test_exclusion_rule_returns_second_nearest():
    emb, question, expected = exclusion_fixture()
    unit, _ = row_normalize(emb)
    # brute-force cosine ranking: the raw nearest is c itself
    target = (
        emb.values[emb.index[question.b]]
        - emb.values[emb.index[question.a]]
        + emb.values[emb.index[question.c]]
    )
    ranking = [emb.vocab[i] for i in cosine_ranking(emb.values, target)]
    assert ranking[0] == question.c
    assert ranking[1] == expected

    record = answer_question(unit, question)
    assert record.predicted == expected


def test_predicted_never_among_query_words():
    rng = np.random.default_rng(0)
    emb = make_embedding(rng.standard_normal((30, 6)))
    unit, _ = row_normalize(emb)
    vocab = emb.vocab
    for i in range(20):
        words = rng.choice(30, size=4, replace=False)
        q = AnalogyQuestion(
            a=vocab[words[0]],
            b=vocab[words[1]],
            c=vocab[words[2]],
            d=vocab[words[3]],
            category="rand",
        )
        record = answer_question(unit, q)
        assert record.predicted not in {q.a, q.b, q.c}


def test_no_candidates_left_is_skipped():
    # all three vocabulary words are query words: nothing can be predicted
    emb = make_embedding(np.eye(3), vocab=("p", "q", "r"))
    unit, _ = row_normalize(emb)
    q = AnalogyQuestion(a="p", b="q", c="r", d="p", category="tiny")
    record = answer_question(unit, q)
    assert record.predicted is None
    assert record.status == "SKIPPED"


def test_answer_invariant_under_uniform_scaling():
    emb, questions = grid_fixture()
    scaled = make_embedding(emb.values * 17.0, vocab=emb.vocab)
    for q in questions:
        u1, _ = row_normalize(emb)
        u2, _ = row_normalize(scaled)
        assert answer_question(u1, q).predicted == answer_question(u2, q).predicted


def test_gold_answer_oov_is_not_applicable():
    emb, _ = grid_fixture()
    unit, _ = row_normalize(emb)
    q = AnalogyQuestion(a="aa", b="ba", c="ab", d="unseen", category="x")
    record = answer_question(unit, q)
    assert record.predicted == "bb"
    assert record.correct is None


def test_evaluate_perfect_grid():
    emb, questions = grid_fixture()
    report = evaluate(emb, questions)
    assert report.total.accuracy == 1.0
    assert report.total.answered == 4
    assert report.total.skipped == 0
    assert set(report.per_section) == {"semantic", "syntactic"}
    assert report.per_section["syntactic"].total == 1


def test_evaluate_mixed_counts():
    emb, questions = grid_fixture()
    wrong = AnalogyQuestion(a="aa", b="ba", c="ab", d="far1", category="grid-shift")
    skipped = AnalogyQuestion(a="nope", b="ba", c="ab", d="bb", category="grid-shift")
    qs = questions[:3] + [wrong, skipped]
    report = evaluate(emb, qs)
    total = report.total
    assert total.total == 5
    assert total.answered == 4
    assert total.skipped == 1
    assert total.correct == 3
    assert total.accuracy == pytest.approx(0.75)
    assert total.accuracy_oov_wrong == pytest.approx(0.6)
    assert total.answered + total.skipped == total.total


@contextmanager
def small_tiles(tile=4, chunk=6, rows=3):
    """A scoring geometry small enough that toy inputs span several vocabulary
    tiles, word chunks and question blocks."""
    with mock.patch.multiple(
        analogy_eval, _VOCAB_TILE=tile, _WORD_CHUNK=chunk, _QUESTION_ROWS=rows
    ):
        yield


def random_questions(rng, emb, n_questions):
    """Questions over ``emb``'s words, about one word in five out of vocabulary."""
    pool = list(emb.vocab) + [f"oov{i}" for i in range(max(1, emb.n_words // 4))]
    return [
        AnalogyQuestion(*rng.choice(pool, 4).tolist(), category="mixed")
        for _ in range(n_questions)
    ]


# with 4-row tiles, 6-word chunks and 3-question blocks: vocabularies one
# below, at and one above a tile (and a few tiles long), and question counts
# around a block
@settings(max_examples=60, deadline=None)
@given(
    n_questions=st.sampled_from([1, 2, 3, 4, 7, 40]),
    n_words=st.one_of(st.sampled_from([3, 4, 5, 7, 8, 9]), st.integers(10, 30)),
    n_dims=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_matches_bruteforce_oracle_across_blocks(
    n_questions, n_words, n_dims, seed
):
    rng = np.random.default_rng(seed)
    emb = make_embedding(rng.standard_normal((n_words, n_dims)))
    with small_tiles():
        assert_matches_oracle(emb, random_questions(rng, emb, n_questions))


@pytest.mark.parametrize("n_words", [3, 4])
def test_evaluate_matches_oracle_when_no_candidate_is_left(n_words):
    rng = np.random.default_rng(n_words)
    emb = make_embedding(rng.standard_normal((n_words, 2)))
    triples = list(itertools.product(emb.vocab, repeat=3)) * 10
    questions = [AnalogyQuestion(a, b, c, "word000", "tiny") for a, b, c in triples]
    with small_tiles():
        predicted = assert_matches_oracle(emb, questions)
    # a question is unanswerable exactly when a, b and c cover the vocabulary
    assert [p is None for p in predicted] == [len(set(t)) == n_words for t in triples]


def offset_embedding(n_words, answer_rows, query_rows=(8, 9, 2)):
    """Rows where ``b - a + c`` for the question on ``query_rows`` points
    exactly at each of ``answer_rows``; every other row scores lower."""
    values = np.zeros((n_words, 4))
    values[:, 3] = np.random.default_rng(n_words).uniform(0.1, 1.0, n_words)
    ia, ib, ic = query_rows
    values[[ia, ib, ic]] = np.eye(4)[:3]
    values[list(answer_rows)] = [-1.0, 1.0, 1.0, 0.0]
    emb = make_embedding(values)
    a, b, c = (emb.vocab[i] for i in query_rows)
    return emb, [AnalogyQuestion(a, b, c, "x", "t"), AnalogyQuestion(a, c, b, "x", "t")]


def test_duplicate_rows_in_two_tiles_go_to_the_lower_index():
    emb, questions = offset_embedding(10, answer_rows=(1, 6))  # tiles 0 and 1
    with small_tiles():
        predicted = [r.predicted for r in evaluate(emb, questions).answers]
    assert predicted == [emb.vocab[1]] * 2


def test_best_answer_in_the_last_partial_tile():
    emb, questions = offset_embedding(10, answer_rows=(9,), query_rows=(0, 5, 2))
    with small_tiles():  # tiles of rows 0-3, 4-7 and 8-9
        predicted = assert_matches_oracle(emb, questions)
    assert predicted == [emb.vocab[9]] * 2


@pytest.mark.parametrize("n_words", [3, 9])
def test_query_words_filling_a_tile(n_words):
    # with 3-row tiles, each question's a, b and c fill one tile: that tile
    # offers nothing, and with one tile nothing is left at all
    rng = np.random.default_rng(n_words)
    emb = make_embedding(rng.standard_normal((n_words, 3)))
    questions = [
        AnalogyQuestion(*emb.vocab[t : t + 3], "word000", "fill")
        for t in range(0, n_words, 3)
    ]
    with small_tiles(tile=3):
        predicted = assert_matches_oracle(emb, questions)
    assert all(p is None for p in predicted) == (n_words == 3)


def test_all_oov_questions_are_skipped_without_scoring():
    emb, _ = grid_fixture()
    questions = [AnalogyQuestion("zz", "ba", "ab", "bb", "x")] * 3
    with mock.patch.object(analogy_eval, "_best_rows", side_effect=AssertionError):
        report = evaluate(emb, questions)
    assert [r.predicted for r in report.answers] == [None] * 3


# chunks follow the question order, so reordering the questions regroups them
@settings(max_examples=40, deadline=None)
@given(
    n_words=st.integers(4, 30),
    n_questions=st.integers(1, 25),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_answers_follow_any_question_order(n_words, n_questions, seed, data):
    rng = np.random.default_rng(seed)
    emb = make_embedding(rng.standard_normal((n_words, 3)))
    questions = random_questions(rng, emb, n_questions)
    oracle = analogy_answers_bruteforce(emb.vocab, emb.values, questions)
    assume(all(gap > 1e-9 for _, gap in oracle))
    order = data.draw(st.permutations(range(n_questions)))
    with small_tiles():
        answers = [r.predicted for r in evaluate(emb, questions).answers]
        shuffled = evaluate(emb, [questions[i] for i in order]).answers
    assert [r.predicted for r in shuffled] == [answers[i] for i in order]


def assert_matches_oracle(emb, questions):
    """evaluate() agrees with the brute-force oracle on every clear answer."""
    predicted = [r.predicted for r in evaluate(emb, questions).answers]
    oracle = analogy_answers_bruteforce(emb.vocab, emb.values, questions)
    # sub-ulp near-ties depend on the BLAS kernel; compare clear winners only
    clear = [i for i, (_, gap) in enumerate(oracle) if gap > 1e-9]
    assert [predicted[i] for i in clear] == [oracle[i][0] for i in clear]
    return predicted


def test_alpha_identical_sequences():
    result = krippendorff_alpha(["X", "Y"], ["X", "Y"])
    assert result.alpha == 1.0
    assert result.n_agreements == 2
    assert not result.degenerate


def test_alpha_hand_computed_fixture():
    # coincidence-matrix arithmetic gives exactly 8/15 for this pair
    result = krippendorff_alpha(["X", "X", "Y", "Y"], ["X", "Y", "Y", "Y"])
    assert result.alpha == pytest.approx(float(Fraction(8, 15)), abs=1e-12)
    assert result.n_items == 4
    assert result.n_agreements == 3
    assert result.disagreeing == (1,)


def test_alpha_total_disagreement():
    result = krippendorff_alpha(["X", "Y"], ["Y", "X"])
    assert result.alpha == pytest.approx(-0.5, abs=1e-12)


def test_alpha_chance_level_is_zero():
    result = krippendorff_alpha(["X", "X", "X", "Y"], ["X", "X", "X", "X"])
    assert result.alpha == pytest.approx(0.0, abs=1e-12)


def test_alpha_three_labels():
    result = krippendorff_alpha(["X", "Y", "Z", "X"], ["X", "Z", "Z", "X"])
    assert result.alpha == pytest.approx(float(Fraction(12, 19)), abs=1e-12)


def test_alpha_all_labels_identical_is_degenerate_one():
    result = krippendorff_alpha(["X", "X"], ["X", "X"])
    assert result.alpha == 1.0
    assert result.degenerate


def test_alpha_skipped_items_excluded():
    result = krippendorff_alpha(["X", None, "Y"], ["X", "X", "Y"])
    assert result.alpha == 1.0
    assert result.n_items == 2
    assert result.n_excluded == 1
    assert result.disagreeing == ()


def test_alpha_disagreeing_positions_skip_excluded_items():
    result = krippendorff_alpha(["X", None, "Y", "Z", "Y"], ["Y", "X", "Y", None, "X"])
    assert result.disagreeing == (0, 4)
    assert result.n_items == 3
    assert result.n_agreements == 1


def test_alpha_is_symmetric():
    a = ["X", "Y", "X", "Z", None]
    b = ["X", "Y", "Y", "Z", "X"]
    assert krippendorff_alpha(a, b).alpha == krippendorff_alpha(b, a).alpha


_LABELS = ("A", "B", "C", "D")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_alpha_invariant_under_swap_renaming_and_shared_reordering(data):
    label = st.sampled_from(_LABELS) | st.none()
    pairs = data.draw(
        st.lists(st.tuples(label, label), min_size=1, max_size=30).filter(
            lambda ps: any(x is not None and y is not None for x, y in ps)
        )
    )
    a, b = (list(side) for side in zip(*pairs))
    result = krippendorff_alpha(a, b)

    assert krippendorff_alpha(b, a) == result

    renamed = dict(zip(_LABELS, data.draw(st.permutations(_LABELS))))
    renamed[None] = None
    relabelled = krippendorff_alpha([renamed[x] for x in a], [renamed[y] for y in b])
    assert relabelled == result

    # position i moves to position new_pos[i], in both runs at once
    order = data.draw(st.permutations(range(len(a))))
    new_pos = {i: j for j, i in enumerate(order)}
    moved = krippendorff_alpha([a[i] for i in order], [b[i] for i in order])
    assert moved.alpha == result.alpha
    assert (moved.n_items, moved.n_excluded, moved.degenerate) == (
        result.n_items, result.n_excluded, result.degenerate
    )
    assert moved.disagreeing == tuple(sorted(new_pos[i] for i in result.disagreeing))


def test_alpha_flipping_an_agreement_lowers_alpha():
    a = ["X", "Y", "X", "Y"]
    b = ["X", "Y", "X", "Y"]
    before = krippendorff_alpha(a, b).alpha
    b_flipped = ["X", "Y", "X", "X"]
    after = krippendorff_alpha(a, b_flipped).alpha
    assert after < before


@pytest.mark.parametrize("seed", range(12))
def test_alpha_matches_coincidence_oracle(seed):
    rng = np.random.default_rng(seed)
    labels = ["A", "B", "C", "D"]
    n = int(rng.integers(2, 30))
    a = [labels[i] for i in rng.integers(0, len(labels), size=n)]
    b = [
        a[i] if rng.random() < 0.6 else labels[int(rng.integers(0, len(labels)))]
        for i in range(n)
    ]
    expected = alpha_coincidence_matrix(a, b)
    assert krippendorff_alpha(a, b).alpha == pytest.approx(float(expected), abs=1e-12)


def test_alpha_errors():
    with pytest.raises(ValueError, match="length"):
        krippendorff_alpha(["X"], ["X", "Y"])
    with pytest.raises(ValueError, match="answered by both"):
        krippendorff_alpha([None, "X"], ["X", None])


def test_agreement_report_identical_embeddings():
    emb, questions = grid_fixture()
    report = agreement_report(emb, emb, questions)
    assert report.agreement.alpha == 1.0
    assert report.disagreements == ()


def test_agreement_report_lists_disagreements():
    e1, e2, questions = swapped_fixture()
    report = agreement_report(e1, e2, questions)
    assert [r.predicted for r in report.left.answers] == ["win1", "win2"]
    assert [r.predicted for r in report.right.answers] == ["win2", "win1"]
    assert report.agreement.disagreeing == (0, 1)
    assert [d["question_index"] for d in report.disagreements] == [0, 1]
    doc = report.to_json_dict()
    assert "scores" not in doc
    assert doc["alpha"] == report.agreement.alpha


def test_answers_csv_round_trip(tmp_path):
    emb, questions = grid_fixture()
    qs = questions + [
        AnalogyQuestion(a="missing", b="ba", c="ab", d="bb", category="grid-shift")
    ]
    report = evaluate(emb, qs)
    path = tmp_path / "answers.csv"
    write_answers_csv(qs, report.answers, path)
    rows = read_answers_csv(path)
    assert len(rows) == 5
    assert rows[0]["predicted"] == "bb"
    assert rows[0]["status"] == "ANSWERED"
    assert rows[4]["status"] == "SKIPPED"
    assert rows[4]["predicted"] == ""


def test_answers_csv_schema_validation(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([["a", "b"], ["1", "2"]])
    with pytest.raises(ValueError, match="columns"):
        read_answers_csv(path)


@pytest.mark.parametrize("row, problem", MALFORMED_ANSWER_ROWS)
def test_answers_csv_rejects_malformed_rows(tmp_path, row, problem):
    path = tmp_path / "answers.csv"
    path.write_text(ANSWERS_HEADER + "0,a,b,c,d,X,ANSWERED\n" + row)
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: {problem}")):
        read_answers_csv(path)


@pytest.mark.parametrize(
    "indices, line, problem",
    [
        ([5, 5, -3], 2, "question_index must be 0, got 5"),
        ([0, 0, 1], 3, "question_index must be 1, got 0"),
        ([0, 2, 1], 3, "question_index must be 1, got 2"),
        ([0, 1, -2], 4, "question_index must be 2, got -2"),
        # int() takes these, but they are not the form analogy writes
        (["00"], 2, "question_index must be 0, got 00"),
        (["+0"], 2, "question_index must be 0, got +0"),
        ([0, " 1"], 3, "question_index must be 1, got  1"),
    ],
)
def test_answers_csv_question_index_is_the_row_position(tmp_path, indices, line, problem):
    path = tmp_path / "answers.csv"
    path.write_text(
        ANSWERS_HEADER + "".join(f"{i},a,b,c,d,X,ANSWERED\n" for i in indices)
    )
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {line}: {problem}")):
        read_answers_csv(path)


@pytest.mark.parametrize("end", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_answers_csv_invalid_byte_line_counts_every_line_end(tmp_path, end):
    # the CSV reader ends a line at \r\n, \r or \n, and so does the count
    # naming the line of an invalid byte, as it does a bad row's
    rows = [ANSWERS_HEADER.rstrip("\n"), "0,a,b,c,d,X,ANSWERED", "1,a,b,c,d,Y,ANSWERED"]
    path = tmp_path / "answers.csv"
    path.write_bytes(end.join(rows).encode().replace(b"Y", b"Y\xff") + end.encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: input is not valid UTF-8")):
        read_answers_csv(path)
    path.write_bytes(end.join(rows).replace("1,", "2,").encode() + end.encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 3: question_index")):
        read_answers_csv(path)


def test_question_validation():
    with pytest.raises(ValueError, match="non-empty"):
        AnalogyQuestion(a="", b="b", c="c", d="d", category="x")
    with pytest.raises(ValueError, match="category"):
        AnalogyQuestion(a="a", b="b", c="c", d="d", category="")
