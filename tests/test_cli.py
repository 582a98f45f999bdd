import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import embcompare
from embcompare import parse_embedding, write_glove_text
from embcompare.cli import main
from embcompare.synthgen import (
    SynthSpec,
    derive_pair,
    random_embedding,
    random_invertible,
    random_permutation,
    random_sign_mask,
)
from helpers import (
    ANSWERS_HEADER,
    MALFORMED_ANSWER_ROWS,
    assert_no_child_left,
    grid_fixture,
    make_embedding,
    needs_blas_pin,
    pinned_fixture,
    run_python,
    swapped_fixture,
    write_questions,
)

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def synth_files(tmp_path):
    left = tmp_path / "left.txt"
    right = tmp_path / "right.txt"
    code = main(
        [
            "synth",
            "--rows", "400",
            "--dims", "10",
            "--seed", "5",
            "--transform", "permutation",
            "--sigma", "0.2",
            "--out-left", str(left),
            "--out-right", str(right),
            "--truth", str(tmp_path / "truth.json"),
        ]
    )
    assert code == 0
    return left, right


def test_synth_outputs_parse(tmp_path, capsys):
    left = tmp_path / "l.txt"
    right = tmp_path / "r.txt"
    truth = tmp_path / "t.json"
    code, _, err = run(
        capsys,
        "synth", "--rows", "50", "--dims", "4", "--seed", "1",
        "--transform", "linear", "--sigma", "0", "--out-left", left,
        "--out-right", right, "--truth", truth,
    )
    assert code == 0
    e_left = parse_embedding(left)
    e_right = parse_embedding(right)
    assert e_left.values.shape == (50, 4)
    assert e_left.vocab == e_right.vocab
    doc = json.loads(truth.read_text())
    assert doc["steps"][0]["kind"] == "linear"
    assert "wrote" in err


def test_synth_non_finite_sigma_exits_one(tmp_path, capsys):
    outputs = tmp_path / "l.txt", tmp_path / "r.txt", tmp_path / "t.json"
    for sigma in ("nan", "inf"):
        code, _, err = run(
            capsys, "synth", "--rows", "5", "--dims", "3", "--sigma", sigma,
            "--out-left", outputs[0], "--out-right", outputs[1], "--truth", outputs[2],
        )
        assert code == 1
        assert f"noise_sigma must be a finite number >= 0, got {sigma}" in err
        assert not any(path.exists() for path in outputs)


def test_synth_has_no_out_option(tmp_path, capsys):
    # synth writes no JSON report, so --out would name a file never written
    code, _, err = run(
        capsys, "synth", "--rows", "5", "--dims", "3", "--out-left", tmp_path / "l.txt",
        "--out-right", tmp_path / "r.txt", "--out", tmp_path / "x.json",
    )
    assert code == 1
    assert "--out" in err
    assert not any(tmp_path.iterdir())


def test_synth_has_no_name_option(tmp_path, capsys):
    # the name reached neither written file, the truth JSON nor the summary
    code, _, err = run(
        capsys, "synth", "--rows", "5", "--dims", "3", "--out-left", tmp_path / "l.txt",
        "--out-right", tmp_path / "r.txt", "--name", "foo",
    )
    assert code == 1
    assert "--name" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("transform", ["identity", "permutation", "sign_flip", "linear"])
def test_synth_files_match_the_library_writer(tmp_path, capsys, transform):
    left, right, truth = tmp_path / "l.txt", tmp_path / "r.txt", tmp_path / "t.json"
    code, _, _ = run(
        capsys, "synth", "--rows", "700", "--dims", "6", "--seed", "8",
        "--transform", transform, "--sigma", "0.3", "--out-left", left,
        "--out-right", right, "--truth", truth,
    )
    assert code == 0
    assert_no_child_left()
    base = random_embedding(700, 6, 8)
    make = {
        "identity": None,
        "permutation": random_permutation,
        "sign_flip": random_sign_mask,
        "linear": random_invertible,
    }[transform]
    transforms = (make(6, 8),) if make else ()
    spec = SynthSpec(transforms=transforms, noise_sigma=0.3, seed=8)
    pair = derive_pair(base, spec)
    for e, path in ((pair.left, left), (pair.right, right)):
        expected = tmp_path / "expected.txt"
        write_glove_text(e, expected)
        assert path.read_bytes() == expected.read_bytes()
    assert truth.read_text() == spec.to_json() + "\n"


def test_synth_to_one_path_writes_the_right_matrix(tmp_path, capsys):
    both = tmp_path / "both.txt"
    code, _, _ = run(
        capsys, "synth", "--rows", "300", "--dims", "4", "--seed", "2",
        "--transform", "linear", "--sigma", "0.5", "--out-left", both,
        "--out-right", f"{tmp_path}/./both.txt",  # the same file by another name
    )
    assert code == 0
    spec = SynthSpec(transforms=(random_invertible(4, 2),), noise_sigma=0.5, seed=2)
    expected = tmp_path / "expected.txt"
    write_glove_text(derive_pair(random_embedding(300, 4, 2), spec).right, expected)
    assert both.read_bytes() == expected.read_bytes()


def test_synth_without_fork_writes_in_order(tmp_path, capsys, monkeypatch):
    if hasattr(os, "fork"):
        monkeypatch.delattr(os, "fork")
    written = []

    def recording(e, dest):
        written.append(dest)
        write_glove_text(e, dest)

    monkeypatch.setattr("embcompare.cli.write_glove_text", recording)
    left, right = tmp_path / "l.txt", tmp_path / "r.txt"
    code, _, _ = run(
        capsys, "synth", "--rows", "300", "--dims", "4", "--out-left", left,
        "--out-right", right,
    )
    assert code == 0
    assert written == [str(left), str(right)]
    assert left.stat().st_size and right.stat().st_size


@pytest.mark.parametrize("right_ok", [True, False])
def test_synth_unwritable_left_exits_one_naming_it(tmp_path, capsys, right_ok):
    left = tmp_path / "no_such_dir" / "l.txt"
    right = tmp_path / ("r.txt" if right_ok else "other_missing_dir/r.txt")
    code, out, err = run(
        capsys, "synth", "--rows", "50", "--dims", "3", "--out-left", left,
        "--out-right", right,
    )
    assert code == 1
    assert out == ""
    assert err == f"embcompare: error: [Errno 2] No such file or directory: '{left}'\n"
    assert_no_child_left()
    # the right file is written beside the failing left one, and stays
    assert right.exists() == right_ok


def test_compare_self_is_perfect(tmp_path, capsys):
    path = tmp_path / "e.txt"
    rng = np.random.default_rng(0)
    write_glove_text(make_embedding(rng.standard_normal((300, 8))), path)
    out_file = tmp_path / "report.json"
    code, _, err = run(
        capsys, "compare", path, path, "--no-timestamp", "--out", out_file
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    zeta_1to1 = report["one_to_one"]["zeta_1to1"]
    zeta_cca = report["cca"]["zeta_cca"]
    assert zeta_1to1 == pytest.approx(1.0, abs=1e-9)
    assert zeta_cca == pytest.approx(1.0, abs=1e-6)
    assert report["inputs"]["shared_vocabulary"] == 300
    assert zeta_cca >= zeta_1to1 - 1e-6
    assert "zeta_1to1" in err
    assert_no_child_left()


def test_compare_missing_file_names_path(tmp_path, capsys):
    present = tmp_path / "here.txt"
    write_glove_text(make_embedding([[1.0, 2.0], [3.0, 4.0]]), present)
    code, _, err = run(capsys, "compare", present, tmp_path / "absent.txt")
    assert code == 1
    assert "absent.txt" in err


def test_compare_invalid_utf8_names_line(tmp_path, capsys):
    good = tmp_path / "good.txt"
    write_glove_text(make_embedding([[1.0, 2.0], [3.0, 4.0]]), good)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"word000 1 2\n\nw\xe9rd001 3 4\n")
    code, _, err = run(capsys, "compare", good, bad)
    assert code == 1
    assert "line 3: input is not valid UTF-8" in err


@pytest.mark.parametrize("bad", ["left", "right"])
def test_parse_errors_name_their_file(tmp_path, capsys, bad):
    good = tmp_path / "good.txt"
    write_glove_text(make_embedding(np.eye(3)), good)
    broken = tmp_path / f"{bad}_side.txt"
    broken.write_text("w0 1 2 3\nw1 1 x 3\n")
    files = [broken, good] if bad == "left" else [good, broken]
    expected = f"embcompare: error: {broken}: line 2: non-numeric value in row 'w1'\n"
    code, _, err = run(capsys, "compare", *files)
    assert (code, err) == (1, expected)
    questions = tmp_path / "questions.txt"
    questions.write_text(": c\nw0 w1 w2 w0\n")
    code, _, err = run(capsys, "analogy", broken, questions)
    assert (code, err) == (1, expected)


@pytest.mark.parametrize("bad", ["left", "right", "both"])
@pytest.mark.parametrize("fault", ["malformed", "missing"])
def test_compare_input_errors_keep_their_message(tmp_path, capsys, bad, fault):
    # the error is the one a left-then-right parse raises first, and compare
    # leaves no child process behind
    good = tmp_path / "good.txt"
    write_glove_text(make_embedding(np.eye(3)), good)
    paths = {"left": good, "right": good}
    for side in ("left", "right") if bad == "both" else (bad,):
        paths[side] = tmp_path / f"{side}.txt"
        if fault == "malformed":
            paths[side].write_text(f"w0 1 2 3\nw1 1 2 3\n{side} 1 2\n")
    first = paths["left"] if bad != "right" else paths["right"]
    with pytest.raises((ValueError, OSError)) as serial:
        parse_embedding(first)
    code, out, err = run(capsys, "compare", paths["left"], paths["right"])
    assert code == 1
    assert out == ""
    assert err == f"embcompare: error: {serial.value}\n"
    assert_no_child_left()


# Python 3.12 warns when os.fork() runs in a process with more than one OS
# thread (the count in /proc/self/stat).  BLAS's fork handler stops its pool,
# so the parent must be alone right after the fork; the probe reads the count
# at that point, and runs the CLI with every warning an error.
_FORK_PROBE = (
    "import os, sys, embcompare.cli\n"
    "fork, threads = os.fork, []\n"
    "def counting_fork():\n"
    "    pid = fork()\n"
    "    if pid:\n"
    "        with open('/proc/self/stat') as fh:\n"
    "            threads.append(int(fh.read().rsplit(')', 1)[1].split()[17]))\n"
    "    return pid\n"
    "os.fork = counting_fork\n"
    "code = embcompare.cli.main(sys.argv[1:])\n"
    "print(threads)\n"
    "sys.exit(code)\n"
)

needs_thread_count = pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.exists("/proc/self/stat"),
    reason="needs os.fork and /proc/self/stat",
)


def _threads_at_fork(*argv) -> str:
    """Run the CLI under the probe; its printed list of thread counts at each fork."""
    src = str(Path(embcompare.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _FORK_PROBE, *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@needs_thread_count
def test_compare_forks_from_a_single_threaded_process(tmp_path, capsys):
    # 2,500 x 300 files are of several parse blocks, so compare splits each,
    # forking once per file; --transform linear runs BLAS before the forks
    left, right = tmp_path / "l.txt", tmp_path / "r.txt"
    code, _, _ = run(
        capsys, "synth", "--rows", 2500, "--dims", 300, "--seed", 1,
        "--transform", "linear", "--out-left", left, "--out-right", right,
    )
    assert code == 0
    emb_io = embcompare.embedding_io
    assert right.stat().st_size > emb_io._SPLIT_BLOCKS * emb_io._BLOCK_BYTES
    assert _threads_at_fork(
        "compare", left, right, "--out", tmp_path / "r.json"
    ) == "[1, 1]"


@needs_thread_count
def test_synth_and_analogy_fork_from_a_single_threaded_process(tmp_path):
    # --transform linear runs BLAS before the fork; 2,500 x 300 is a file
    # of several parse blocks, so analogy splits it
    left, right = tmp_path / "l.txt", tmp_path / "r.txt"
    assert _threads_at_fork(
        "synth", "--rows", 2500, "--dims", 300, "--seed", 1, "--transform", "linear",
        "--out-left", left, "--out-right", right,
    ) == "[1]"
    emb_io = embcompare.embedding_io
    assert left.stat().st_size > emb_io._SPLIT_BLOCKS * emb_io._BLOCK_BYTES
    questions = tmp_path / "q.txt"
    questions.write_text(": c\nw000001 w000002 w000003 w000004\n")
    assert _threads_at_fork(
        "analogy", left, questions, "--out", tmp_path / "a.json"
    ) == "[1]"


def test_compare_dimension_mismatch_fails_after_parsing(tmp_path, capsys, monkeypatch):
    left, right = tmp_path / "left.txt", tmp_path / "right.txt"
    write_glove_text(make_embedding(np.eye(3)), left)
    write_glove_text(make_embedding(np.eye(4)[:3]), right)

    def no_kappa(*args, **kwargs):
        raise AssertionError("kappa computed before the dimension check")

    monkeypatch.setattr("embcompare.cli.correlation_matrix", no_kappa)
    code, _, err = run(capsys, "compare", left, right)
    assert code == 1
    assert f"{left} has 3 dimensions but {right} has 4" in err


@pytest.mark.parametrize(
    "text, problem",
    [(": capital\nqa qb qc\n", "line 2: expected 4 words, got 3"), ("", ": no questions")],
)
def test_compare_checks_questions_before_parsing(tmp_path, capsys, monkeypatch, text, problem):
    q_path = tmp_path / "questions.txt"
    q_path.write_text(text)

    def no_parse(*args, **kwargs):
        raise AssertionError("embedding parsed before the question file was checked")

    monkeypatch.setattr("embcompare.cli.parse_embedding", no_parse)
    code, _, err = run(
        capsys, "compare", tmp_path / "left.txt", tmp_path / "right.txt",
        "--questions", q_path,
    )
    assert code == 1
    assert problem in err


@pytest.mark.parametrize(
    "text, problem",
    [
        (b": capital\nw000001 w000002 w000003\n", "line 2: expected 4 words, got 3"),
        (b": capital\nw000001 w000002 w000003 w000004\nw\xff w1 w2 w3\n",
         "line 3: input is not valid UTF-8"),
    ],
    ids=["three_words", "invalid_utf8"],
)
def test_compare_question_errors_name_the_file_and_line(synth_files, tmp_path, capsys, text, problem):
    # compare reads three files; the error says which one is bad
    q_path = tmp_path / "questions.txt"
    q_path.write_bytes(text)
    code, _, err = run(capsys, "compare", *synth_files, "--questions", q_path)
    assert code == 1
    assert err == f"embcompare: error: {q_path}: {problem}\n"


def test_compare_questions_none_answered_fails_before_kappa(tmp_path, capsys, monkeypatch):
    # a question no run can answer leaves alpha nothing to score: that error
    # comes before the kappa grid, the matching and CCA are computed
    left, right = tmp_path / "left.txt", tmp_path / "right.txt"
    write_glove_text(random_embedding(300, 8, 1), left)
    write_glove_text(random_embedding(300, 8, 2), right)
    q_path = tmp_path / "questions.txt"
    q_path.write_text(": c\nunseen1 unseen2 unseen3 unseen4\n")

    def no_kappa(*args, **kwargs):
        raise AssertionError("kappa computed before the analogy agreement failed")

    monkeypatch.setattr("embcompare.cli.correlation_matrix", no_kappa)
    out = tmp_path / "report.json"
    code, _, err = run(capsys, "compare", left, right, "--questions", q_path, "--out", out)
    assert code == 1
    assert "no items were answered by both runs" in err
    assert not out.exists()


def test_commands_read_through_cli_parse_embedding(tmp_path, capsys, monkeypatch):
    # the one reader, under the name on cli that the benchmark's tracer wraps
    left, right = tmp_path / "left.txt", tmp_path / "right.txt"
    write_glove_text(random_embedding(20, 3, 1), left)
    write_glove_text(random_embedding(20, 3, 2), right)
    q_path = tmp_path / "questions.txt"
    q_path.write_text(": c\nw000001 w000002 w000003 w000004\n")
    calls = []
    real = embcompare.cli.parse_embedding

    def recording(source, *args, **kwargs):
        calls.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr("embcompare.cli.parse_embedding", recording)
    code, _, _ = run(capsys, "compare", left, right, "--out", tmp_path / "r.json")
    assert code == 0
    assert calls == [str(left), str(right)]
    calls.clear()
    code, _, _ = run(capsys, "analogy", left, q_path, "--out", tmp_path / "a.json")
    assert code == 0
    assert calls == [str(left)]


def test_every_subcommand_accepts_threads_flag(tmp_path, capsys):
    # --threads selects nothing, but existing command lines pass it to every call
    left, right = tmp_path / "left.txt", tmp_path / "right.txt"
    code, _, _ = run(
        capsys, "synth", "--rows", "400", "--dims", "8", "--seed", "3",
        "--sigma", "0.1", "--out-left", left, "--out-right", right, "--threads", "1",
    )
    assert code == 0
    q_path = tmp_path / "questions.txt"
    q_path.write_text(": capital-x\nw000001 w000002 w000003 w000004\n")
    csvs = []
    for side in (left, right):
        csvs.append(tmp_path / f"{side.stem}.csv")
        code, _, _ = run(
            capsys, "analogy", side, q_path, "--answers-csv", csvs[-1],
            "--threads", "1", "--out", tmp_path / f"{side.stem}.json",
        )
        assert code == 0
    code, _, _ = run(
        capsys, "agreement", *csvs, "--threads", "1", "--out", tmp_path / "agreement.json"
    )
    assert code == 0
    code, _, _ = run(
        capsys, "compare", left, right, "--questions", q_path, "--no-timestamp",
        "--threads", "1", "--out", tmp_path / "report.json",
    )
    assert code == 0


def test_compare_thread_count_invariance(synth_files, tmp_path, capsys):
    left, right = synth_files
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"report_{threads}.json"
        code, _, _ = run(
            capsys, "compare", left, right, "--no-timestamp",
            "--threads", threads, "--out", out, "--kde",
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@needs_blas_pin
@pytest.mark.parametrize("rows, dims", [(10000, 50), (5000, 300)])
def test_compare_outputs_do_not_depend_on_blas_threads(tmp_path, capsys, rows, dims):
    # on 2 BLAS threads the 100-column covariance moved in its last bits,
    # and with it the matching and CCA; at 300 dimensions eigh's bits moved
    left, right = tmp_path / "left.txt", tmp_path / "right.txt"
    code, _, _ = run(
        capsys, "synth", "--rows", rows, "--dims", dims, "--seed", 3, "--transform", "linear",
        "--sigma", 0.5, "--out-left", left, "--out-right", right,
    )
    assert code == 0
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        run_python(
            "import sys, embcompare.cli; sys.exit(embcompare.cli.main(sys.argv[1:]))",
            "compare", left, right, "--no-timestamp", "--abs-correlation", "--kde",
            "--plots-dir", out, "--out", tmp_path / f"report{threads}.json",
            blas_threads=threads,
        )
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        outputs.append((files, (tmp_path / f"report{threads}.json").read_bytes()))
    assert len(outputs[0][0]) == 8
    assert outputs[0] == outputs[1]


def test_compare_config_echo_round_trip(synth_files, tmp_path, capsys):
    left, right = synth_files
    first = tmp_path / "first.json"
    code, _, _ = run(
        capsys, "compare", left, right, "--no-timestamp", "--bins", "17",
        "--abs-correlation", "--regularization", "0.001", "--out", first,
    )
    assert code == 0
    config = json.loads(first.read_text())["config"]

    argv = ["compare", config["left"], config["right"], "--no-timestamp"]
    argv += ["--format", config["format"], "--bins", str(config["bins"])]
    if config["abs_correlation"]:
        argv.append("--abs-correlation")
    if config["regularization"] is not None:
        argv += ["--regularization", repr(config["regularization"])]
    if config["kde"]:
        argv.append("--kde")
    second = tmp_path / "second.json"
    argv += ["--out", str(second)]
    assert main(argv) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_compare_plots_dir(synth_files, tmp_path, capsys):
    left, right = synth_files
    plots = tmp_path / "plots"
    code, _, _ = run(
        capsys, "compare", left, right, "--no-timestamp", "--kde",
        "--plots-dir", plots, "--out", tmp_path / "r.json",
    )
    assert code == 0
    expected = {
        "hist_kappa.csv",
        "hist_matched.csv",
        "hist_cca.csv",
        "matched_sorted.csv",
        "cca_sorted.csv",
        "hist_kappa_kde.csv",
        "hist_matched_kde.csv",
        "hist_cca_kde.csv",
    }
    assert expected.issubset({p.name for p in plots.iterdir()})
    with open(plots / "cca_sorted.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rank", "correlation"]
    corrs = [float(r[1]) for r in rows[1:]]
    assert corrs == sorted(corrs, reverse=True)


def _cells(*columns):
    # the CSV text of each row: floats as repr, integers as is
    return [[repr(v) if isinstance(v, float) else str(v) for v in row] for row in zip(*columns)]


def test_compare_plot_csvs_match_report(synth_files, tmp_path, capsys):
    left, right = synth_files
    plots, out = tmp_path / "plots", tmp_path / "report.json"
    code, _, err = run(
        capsys, "compare", left, right, "--no-timestamp", "--kde", "--bins", "7",
        "--plots-dir", plots, "--out", out,
    )
    assert code == 0, err
    report = json.loads(out.read_text())
    matched = report["one_to_one"]["matched_correlations"]
    cca = report["cca"]["correlations"]
    # the report holds the kappa histogram; the other two are rebuilt from
    # the populations it holds, with the run's bins and KDE
    hists = {
        "hist_kappa": report["kappa"]["histogram"],
        "hist_matched": embcompare.histogram(matched, bins=7, with_kde=True).to_json_dict(),
        "hist_cca": embcompare.histogram(cca, bins=7, with_kde=True).to_json_dict(),
    }
    expected = {}
    for stem, h in hists.items():
        edges = h["bin_edges"]
        expected[stem] = (["bin_lo", "bin_hi", "count"], _cells(edges[:-1], edges[1:], h["counts"]))
        expected[f"{stem}_kde"] = (["x", "density"], _cells(*zip(*h["kde"])))
    for stem, values in (
        ("matched_sorted", sorted(matched, reverse=True)),
        ("cca_sorted", cca),
    ):
        expected[stem] = (["rank", "correlation"], _cells(range(1, len(values) + 1), values))
    assert {p.name for p in plots.iterdir()} == {f"{stem}.csv" for stem in expected}
    for stem, table in expected.items():
        with open(plots / f"{stem}.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert (header, rows) == table, stem


@pytest.mark.parametrize("transform", ["identity", "permutation"])
def test_compare_plots_dir_on_noiseless_pair(tmp_path, capsys, transform):
    # matched correlations of 1.0 and 1 - 7e-16 span too few ulps for 60 bins
    left, right = tmp_path / "l.txt", tmp_path / "r.txt"
    code, _, _ = run(
        capsys, "synth", "--rows", "500", "--dims", "6", "--seed", "1",
        "--transform", transform, "--sigma", "0",
        "--out-left", left, "--out-right", right, "--truth", tmp_path / "t.json",
    )
    assert code == 0
    plots = tmp_path / "plots"
    code, _, err = run(
        capsys, "compare", left, right, "--plots-dir", plots,
        "--out", tmp_path / "r.json",
    )
    assert code == 0, err
    assert {p.name for p in plots.iterdir()} == {
        "hist_kappa.csv",
        "hist_matched.csv",
        "hist_cca.csv",
        "matched_sorted.csv",
        "cca_sorted.csv",
    }


def test_compare_abs_correlation_reports_both(synth_files, tmp_path, capsys):
    left, right = synth_files
    out = tmp_path / "abs.json"
    code, _, _ = run(
        capsys, "compare", left, right, "--no-timestamp",
        "--abs-correlation", "--out", out,
    )
    assert code == 0
    block = json.loads(out.read_text())["one_to_one"]
    # the absolute values are |matched_correlations|, so only their mean is kept
    assert "matched_abs_correlations" not in block
    assert block["zeta_abs_1to1"] == np.abs(block["matched_correlations"]).mean()
    assert block["zeta_abs_1to1"] >= block["zeta_1to1"] - 1e-12


COMPARE_KEYS = {
    "": ["tool", "config", "inputs", "kappa", "one_to_one", "cca", "analogy_agreement"],
    "tool": ["name", "version", "schema"],
    "config": [
        "left", "right", "format", "abs_correlation", "regularization", "bins",
        "kde", "questions", "lowercase",
    ],
    "inputs": [
        "left", "right", "shared_vocabulary", "dropped_left", "dropped_right",
    ],
    "inputs.left": ["name", "words", "dims"],
    "inputs.right": ["name", "words", "dims"],
    "kappa": ["histogram", "degenerate_left", "degenerate_right"],
    "kappa.histogram": ["bin_edges", "counts", "median"],
    "one_to_one": ["assignment", "matched_correlations", "zeta_1to1"],
    "cca": [
        "correlations", "zeta_cca", "regularization_left", "regularization_right",
        "k", "dropped_left", "dropped_right",
    ],
}
AGREEMENT_KEYS = [
    "alpha", "n_items", "n_excluded", "n_agreements", "degenerate", "left",
    "right", "disagreements",
]


@pytest.mark.parametrize("options", [[], ["--abs-correlation"], ["--questions"]])
def test_compare_report_states_each_fact_once(synth_files, tmp_path, capsys, options):
    # every block's keys are pinned, so a copy of a score added back fails here
    left, right = synth_files
    if options == ["--questions"]:
        q_path = tmp_path / "questions.txt"
        q_path.write_text(": c\nw000001 w000002 w000003 w000004\n", encoding="utf-8")
        options = ["--questions", q_path]
    out = tmp_path / "report.json"
    code, _, err = run(
        capsys, "compare", left, right, "--no-timestamp", *options, "--out", out
    )
    assert code == 0, err
    report = json.loads(out.read_text())
    expected = dict(COMPARE_KEYS)
    if "--abs-correlation" in options:
        expected["one_to_one"] = [*expected["one_to_one"], "zeta_abs_1to1"]
    for path, keys in expected.items():
        block = report
        for part in filter(None, path.split(".")):
            block = block[part]
        assert list(block) == keys, path
    assert report["tool"]["schema"] == 2
    agreement = report["analogy_agreement"]
    if "--questions" in options:
        assert list(agreement) == AGREEMENT_KEYS
    else:
        assert agreement is None


@pytest.mark.parametrize("options", [[], ["--abs-correlation"]])
def test_compare_summary_matches_report(tmp_path, capsys, options):
    # a mixed pair: the two sides get different automatic ridges
    left, right = tmp_path / "l.txt", tmp_path / "r.txt"
    code, _, err = run(
        capsys, "synth", "--rows", "300", "--dims", "6", "--seed", "3",
        "--transform", "linear", "--sigma", "0.5",
        "--out-left", left, "--out-right", right,
    )
    assert code == 0, err
    out = tmp_path / "report.json"
    code, _, err = run(
        capsys, "compare", left, right, "--no-timestamp", *options, "--out", out
    )
    assert code == 0, err
    report = json.loads(out.read_text())
    one, cca = report["one_to_one"], report["cca"]
    lines = dict(line.split(":", 1) for line in err.splitlines()[2:])
    expected = {
        "kappa median": report["kappa"]["histogram"]["median"],
        "zeta_1to1": one["zeta_1to1"],
        "zeta_cca": cca["zeta_cca"],
    }
    if options:
        expected["zeta_abs_1to1"] = one["zeta_abs_1to1"]
    assert set(lines) == set(expected)
    for name, value in expected.items():
        assert float(lines[name].split()[0]) == round(value, 4), name
    ridge = lines["zeta_cca"].split("ridge=")[1].rstrip(")")
    assert ridge == f"{cca['regularization_left']:.3g}/{cca['regularization_right']:.3g}"
    assert cca["regularization_left"] != cca["regularization_right"]
    assert f"k={cca['k']}," in lines["zeta_cca"]


@pytest.mark.parametrize(
    "option, value, problem",
    [
        ("--bins", "0", "bins must be >= 1"),
        ("--bins", "1048577", "bins must be <= 1048576"),
        ("--regularization", "-1", "regularization must be a finite number >= 0"),
        ("--regularization", "nan", "regularization must be a finite number >= 0"),
    ],
)
def test_compare_checks_options_before_parsing(tmp_path, capsys, option, value, problem):
    # the embedding files do not exist: an error naming them means they
    # were opened before the option was checked
    code, _, err = run(
        capsys, "compare", tmp_path / "missing_l.txt", tmp_path / "missing_r.txt",
        option, value,
    )
    assert code == 1
    assert f"embcompare: error: {problem}" in err
    assert "missing_l" not in err


# the grid fixture's constant bias column is a degenerate dimension; CCA
# legitimately warns that it drops the corresponding direction
@pytest.mark.filterwarnings("ignore:dropping")
def test_compare_with_questions_adds_agreement(tmp_path, capsys):
    emb, questions = grid_fixture()
    emb_path = tmp_path / "emb.txt"
    write_glove_text(emb, emb_path)
    q_path = tmp_path / "questions.txt"
    write_questions(q_path, questions)
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "compare", emb_path, emb_path, "--no-timestamp",
        "--questions", q_path, "--out", out,
    )
    assert code == 0
    agreement = json.loads(out.read_text())["analogy_agreement"]
    assert agreement["alpha"] == 1.0
    assert agreement["n_agreements"] == len(questions)
    assert agreement["degenerate"] is False
    assert list(agreement)[:5] == [
        "alpha", "n_items", "n_excluded", "n_agreements", "degenerate"
    ]
    assert agreement["disagreements"] == []


@pytest.mark.filterwarnings("ignore:dropping")
def test_compare_with_questions_reports_degenerate_alpha(tmp_path, capsys):
    # both questions are answered "bb" by both runs: alpha is 1 by convention
    emb, questions = grid_fixture()
    same_label = [q for q in questions if q.d == "bb"]
    assert len(same_label) == 2
    emb_path = tmp_path / "emb.txt"
    write_glove_text(emb, emb_path)
    q_path = tmp_path / "questions.txt"
    write_questions(q_path, same_label)
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "compare", emb_path, emb_path, "--no-timestamp",
        "--questions", q_path, "--out", out,
    )
    assert code == 0
    agreement = json.loads(out.read_text())["analogy_agreement"]
    assert agreement["alpha"] == 1.0
    assert agreement["degenerate"] is True
    assert agreement["n_agreements"] == 2


SWAPPED_DISAGREEMENTS = [
    {
        "question_index": 0, "a": "qa", "b": "qb", "c": "qc", "d": "win1",
        "category": "capital", "predicted_left": "win1", "predicted_right": "win2",
    },
    {
        "question_index": 1, "a": "qb", "b": "qa", "c": "qc", "d": "win2",
        "category": "capital", "predicted_left": "win2", "predicted_right": "win1",
    },
]
DISAGREEMENT_KEYS = [
    "question_index", "a", "b", "c", "d", "category",
    "predicted_left", "predicted_right",
]


def _write_swapped(tmp_path):
    first, second, questions = swapped_fixture()
    paths = tmp_path / "first.txt", tmp_path / "second.txt"
    write_glove_text(first, paths[0])
    write_glove_text(second, paths[1])
    q_path = tmp_path / "questions.txt"
    write_questions(q_path, questions)
    return paths, q_path


# five words in three dimensions leave one CCA direction near-null
@pytest.mark.filterwarnings("ignore:dropping")
def test_compare_with_questions_lists_disagreements(tmp_path, capsys):
    (first, second), q_path = _write_swapped(tmp_path)
    out = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "compare", first, second, "--no-timestamp",
        "--questions", q_path, "--out", out,
    )
    assert code == 0
    agreement = json.loads(out.read_text())["analogy_agreement"]
    assert agreement["disagreements"] == SWAPPED_DISAGREEMENTS
    for entry in agreement["disagreements"]:
        assert list(entry) == DISAGREEMENT_KEYS


def test_agreement_lists_disagreements(tmp_path, capsys):
    paths, q_path = _write_swapped(tmp_path)
    csvs = []
    for path in paths:
        answers = path.with_suffix(".csv")
        code, _, _ = run(
            capsys, "analogy", path, q_path, "--answers-csv", answers,
            "--out", tmp_path / "analogy.json",
        )
        assert code == 0
        csvs.append(answers)
    out = tmp_path / "agree.json"
    code, _, _ = run(capsys, "agreement", *csvs, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    expected = [
        {k: v for k, v in entry.items() if k != "category"}
        for entry in SWAPPED_DISAGREEMENTS
    ]
    assert doc["disagreements"] == expected
    for entry in doc["disagreements"]:
        assert list(entry) == [k for k in DISAGREEMENT_KEYS if k != "category"]
    assert doc["n_agreements"] == 0


def test_analogy_outputs_match_pinned_bytes(tmp_path, monkeypatch, capsys):
    # every byte, so the order and values of the total, section and category
    # blocks cannot drift; the inputs are relative, as the outputs echo them
    left, right, questions = pinned_fixture()
    monkeypatch.chdir(tmp_path)
    write_glove_text(left, "left.txt")
    write_glove_text(right, "right.txt")
    write_questions("questions.txt", questions)
    for side in ("left", "right"):
        code, _, _ = run(
            capsys, "analogy", f"{side}.txt", "questions.txt",
            "--answers-csv", f"answers_{side}.csv", "--out", f"analogy_{side}.json",
        )
        assert code == 0
    code, _, _ = run(
        capsys, "agreement", "answers_left.csv", "answers_right.csv",
        "--out", "agreement.json",
    )
    assert code == 0
    for name in ("analogy_left.json", "answers_left.csv", "agreement.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_compare_numerical_failure_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(1)
    col = rng.standard_normal(60)
    dup = make_embedding(np.column_stack([col, col, rng.standard_normal(60)]))
    other = make_embedding(rng.standard_normal((60, 3)))
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_glove_text(dup, a)
    write_glove_text(other, b)
    code, _, err = run(
        capsys, "compare", a, b, "--no-timestamp", "--regularization", "0"
    )
    assert code == 2
    assert "numerical" in err


def test_compare_overflowing_covariance_exits_two(tmp_path, capsys):
    # values near 1e160 square past float64; numpy's overflow warnings are
    # errors here, so none may come before the one numerical error
    rng = np.random.default_rng(2)
    big = make_embedding(rng.standard_normal((40, 3)) * 1e160)
    write_glove_text(big, tmp_path / "big.txt")
    for right in (big, make_embedding(rng.standard_normal((40, 3)))):
        write_glove_text(right, tmp_path / "right.txt")
        code, out, err = run(
            capsys, "compare", tmp_path / "big.txt", tmp_path / "right.txt",
            "--no-timestamp", "--out", tmp_path / "report.json",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "embcompare: numerical error: left covariance overflows float64: "
            "its values are too large\n"
        )


def test_non_finite_regularization_exits_one(synth_files, capsys):
    left, right = synth_files
    for bad in ("nan", "inf"):
        code, _, err = run(capsys, "compare", left, right, "--regularization", bad)
        assert code == 1
        assert "embcompare: error: regularization must be a finite number" in err


def test_usage_error_exits_one(capsys):
    assert main(["compare"]) == 1
    capsys.readouterr()


def test_analogy_toy_accuracy(tmp_path, capsys):
    emb, questions = grid_fixture()
    emb_path = tmp_path / "emb.txt"
    write_glove_text(emb, emb_path)
    q_path = tmp_path / "questions.txt"
    write_questions(q_path, questions)
    answers_csv = tmp_path / "answers.csv"
    out = tmp_path / "analogy.json"
    code, _, err = run(
        capsys, "analogy", emb_path, q_path,
        "--answers-csv", answers_csv, "--out", out,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["evaluation"]["total"]["accuracy"] == 1.0
    assert doc["evaluation"]["total"]["answered"] == 4
    with open(answers_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(r["status"] == "ANSWERED" for r in rows)


def test_analogy_reports_both_accuracies(tmp_path, capsys):
    emb, questions = grid_fixture()
    emb_path = tmp_path / "emb.txt"
    write_glove_text(emb, emb_path)
    q_path = tmp_path / "questions.txt"
    with open(q_path, "w") as fh:
        fh.write(": grid-shift\naa ba ab bb\nmissing ba ab bb\n")
    out = tmp_path / "analogy.json"
    # the option chose which of the two accuracies was copied to the top level
    code, _, err = run(
        capsys, "analogy", emb_path, q_path, "--count-oov-wrong", "--out", out
    )
    assert code == 1
    assert "--count-oov-wrong" in err
    assert not out.exists()
    code, _, err = run(capsys, "analogy", emb_path, q_path, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert list(doc) == ["tool", "config", "evaluation"]
    assert doc["tool"]["schema"] == 2
    assert list(doc["config"]) == ["embedding", "questions", "format", "lowercase"]
    total = doc["evaluation"]["total"]
    assert (total["accuracy"], total["accuracy_oov_wrong"]) == (1.0, 0.5)
    assert err.splitlines() == [
        "emb: 1/1 answered correctly, 1 skipped",
        "accuracy: 1.0 (skipped left out), 0.5 (skipped counted wrong)",
    ]


def test_analogy_empty_questions_errors(tmp_path, capsys):
    emb, _ = grid_fixture()
    emb_path = tmp_path / "emb.txt"
    write_glove_text(emb, emb_path)
    q_path = tmp_path / "empty.txt"
    q_path.write_text("")
    # the question file is checked first, so a missing embedding goes unread
    for embedding in (emb_path, tmp_path / "missing.txt"):
        code, _, err = run(capsys, "analogy", embedding, q_path)
        assert code == 1
        assert f"{q_path}: no questions" in err


def test_analogy_invalid_utf8_questions_names_line(tmp_path, capsys):
    emb, _ = grid_fixture()
    emb_path = tmp_path / "emb.txt"
    write_glove_text(emb, emb_path)
    q_path = tmp_path / "questions.txt"
    q_path.write_bytes(b": grid-shift\naa ba ab bb\naa ba \xc3 bb\n")
    code, _, err = run(capsys, "analogy", emb_path, q_path)
    assert code == 1
    assert "line 3: input is not valid UTF-8" in err


def _write_answers(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["question_index", "a", "b", "c", "d", "predicted", "status"])
        for i, (predicted, status) in enumerate(rows):
            w.writerow([i, "a", "b", "c", "d", predicted, status])


def test_agreement_identical_files(tmp_path, capsys):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    rows = [("X", "ANSWERED"), ("Y", "ANSWERED")]
    _write_answers(path_a, rows)
    _write_answers(path_b, rows)
    out = tmp_path / "agree.json"
    code, _, _ = run(capsys, "agreement", path_a, path_b, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["alpha"] == 1.0
    assert doc["n_excluded"] == 0


def test_agreement_fixture_alpha(tmp_path, capsys):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    _write_answers(path_a, [(x, "ANSWERED") for x in ("X", "X", "Y", "Y")])
    _write_answers(path_b, [(x, "ANSWERED") for x in ("X", "Y", "Y", "Y")])
    out = tmp_path / "agree.json"
    code, _, _ = run(capsys, "agreement", path_a, path_b, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["alpha"] == pytest.approx(8 / 15, abs=1e-12)
    assert len(doc["disagreements"]) == 1
    assert doc["disagreements"][0]["predicted_right"] == "Y"


def test_agreement_skipped_rows_excluded(tmp_path, capsys):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    _write_answers(path_a, [("X", "ANSWERED"), ("", "SKIPPED"), ("Y", "ANSWERED")])
    _write_answers(path_b, [("X", "ANSWERED"), ("X", "ANSWERED"), ("Y", "ANSWERED")])
    out = tmp_path / "agree.json"
    code, _, _ = run(capsys, "agreement", path_a, path_b, "--out", out)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["alpha"] == 1.0
    assert doc["n_excluded"] == 1


def test_agreement_length_mismatch_exits_one(tmp_path, capsys):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    _write_answers(path_a, [("X", "ANSWERED")])
    _write_answers(path_b, [("X", "ANSWERED"), ("Y", "ANSWERED")])
    code, _, err = run(capsys, "agreement", path_a, path_b)
    assert code == 1
    assert "length" in err


def test_agreement_swapped_rows_exit_one(tmp_path, capsys):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    first, second, third = (
        "0,a,b,c,d,X,ANSWERED\n", "1,e,f,g,h,Y,ANSWERED\n", "2,i,j,k,l,Z,ANSWERED\n"
    )
    path_a.write_text(ANSWERS_HEADER + first + second + third)
    # swapped with their indices, the rows are out of position
    path_b.write_text(ANSWERS_HEADER + first + third + second)
    code, _, err = run(capsys, "agreement", path_a, path_b)
    assert code == 1
    assert f"{path_b}: line 3: question_index must be 1, got 2" in err
    # renumbered, they ask the two files different questions in one row
    path_b.write_text(ANSWERS_HEADER + first + "1" + third[1:] + "2" + second[1:])
    code, _, err = run(capsys, "agreement", path_a, path_b)
    assert code == 1
    assert "answer files disagree on the question in row 2" in err


def test_agreement_rejects_a_padded_question_index(tmp_path, capsys):
    # "00" asks the same question as "0", but only "0" is analogy's form: the
    # file fails when read instead of seeming to disagree with the other
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    path_a.write_text(ANSWERS_HEADER + "00,a,b,c,d,X,ANSWERED\n")
    path_b.write_text(ANSWERS_HEADER + "0,a,b,c,d,X,ANSWERED\n")
    code, _, err = run(capsys, "agreement", path_a, path_b)
    assert code == 1
    assert f"{path_a}: line 2: question_index must be 0, got 00" in err
    assert "disagree" not in err


@pytest.mark.parametrize("row, problem", MALFORMED_ANSWER_ROWS)
def test_agreement_malformed_row_exits_one(tmp_path, capsys, row, problem):
    good = tmp_path / "good.csv"
    _write_answers(good, [("X", "ANSWERED"), ("Y", "ANSWERED")])
    bad = tmp_path / "bad.csv"
    bad.write_text(ANSWERS_HEADER + "0,a,b,c,d,X,ANSWERED\n" + row)
    code, _, err = run(capsys, "agreement", good, bad)
    assert code == 1
    assert f"embcompare: error: {bad}: line 3: {problem}" in err


@pytest.mark.parametrize(
    "text, problem",
    [
        (b"question,a,b,c,d,predicted,status\n0,a,b,c,d,X,ANSWERED\n",
         "answers CSV must have columns"),
        (ANSWERS_HEADER.encode() + b"0,a,b,c,d,X\xff,ANSWERED\n",
         "line 2: input is not valid UTF-8"),
        (ANSWERS_HEADER.encode() + b"0,a,b,c,d," + b"X" * 140_000 + b",ANSWERED\n",
         "line 2: field larger than field limit (131072)"),
    ],
    ids=["header", "invalid_utf8", "oversized_field"],
)
def test_agreement_csv_errors_name_the_file(tmp_path, capsys, text, problem):
    good = tmp_path / "good.csv"
    _write_answers(good, [("X", "ANSWERED")])
    bad = tmp_path / "bad.csv"
    bad.write_bytes(text)
    code, _, err = run(capsys, "agreement", good, bad)
    assert code == 1
    assert err.startswith(f"embcompare: error: {bad}: {problem}")


def test_cli_import_does_not_load_scipy_stats(synth_files, tmp_path):
    # perfbench's setup_s times `import embcompare.cli` alone, so it must
    # load no scipy module at all; the KDE must not load scipy.stats either
    src = str(Path(embcompare.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    left, right = synth_files
    argv = [
        "compare", str(left), str(right), "--kde",
        "--plots-dir", str(tmp_path / "plots"), "--out", str(tmp_path / "r.json"),
    ]
    probes = {
        "import sys, embcompare.cli":
            "[m for m in sys.modules if m.partition('.')[0] == 'scipy']",
        f"import sys, embcompare.cli; assert embcompare.cli.main({argv!r}) == 0":
            "[m for m in sys.modules if m == 'scipy.stats']",
    }
    for probe, loaded in probes.items():
        out = subprocess.run(
            [sys.executable, "-c", f"{probe}; print({loaded})"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.splitlines()[-1] == "[]", probe
    assert (tmp_path / "plots" / "hist_kappa_kde.csv").exists()


@pytest.mark.parametrize("transform, loads_scipy", [("permutation", False), ("linear", True)])
def test_compare_loads_scipy_only_for_an_undecided_matching(tmp_path, transform, loads_scipy):
    # a permuted rerun's kappa grid is decided by its column maxima, so the
    # matching needs no solver; a linear mixing's grid needs it, and loads
    # scipy's compiled solver alone, with no scipy package
    left, right = tmp_path / "left.txt", tmp_path / "right.txt"
    assert main([
        "synth", "--rows", "400", "--dims", "10", "--seed", "5", "--transform", transform,
        "--sigma", "0.2", "--out-left", str(left), "--out-right", str(right),
    ]) == 0
    src = str(Path(embcompare.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    for extra in ([], ["--abs-correlation"]):
        argv = ["compare", str(left), str(right), "--out", str(tmp_path / "r.json"), *extra]
        probe = (
            f"import sys, embcompare.cli; assert embcompare.cli.main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
        ).stdout
        loaded = ["scipy.optimize._lsap"] if loads_scipy else []
        assert out.splitlines()[-1] == str(loaded), extra


# A meta-path finder that records OPENBLAS_THREAD_TIMEOUT when numpy's
# import starts, which is before numpy loads OpenBLAS and OpenBLAS reads it.
_BLAS_ENV_SPY = (
    "import atexit, os, sys\n"
    "class Spy:\n"
    "    seen = []\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'numpy' and not Spy.seen:\n"
    "            Spy.seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
    "sys.meta_path.insert(0, Spy())\n"
    "atexit.register(lambda: print(Spy.seen))\n"
)


@pytest.mark.parametrize("user_value", [None, "28"])
def test_cli_sets_blas_idle_wait_before_numpy_loads(user_value):
    # import embcompare.cli is what the console script does; run_module is
    # what python -m embcompare does
    src = str(Path(embcompare.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if user_value is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = user_value
    entries = [
        "import embcompare.cli",
        "import runpy; sys.argv[:] = ['embcompare', '--version']; "
        "runpy.run_module('embcompare', run_name='__main__', alter_sys=True)",
    ]
    for entry in entries:
        done = subprocess.run(
            [sys.executable, "-c", _BLAS_ENV_SPY + entry],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == repr([user_value or "16"]), entry


def test_report_to_stdout_by_default(synth_files, capsys):
    left, right = synth_files
    code, out, _ = run(capsys, "compare", left, right, "--no-timestamp")
    assert code == 0
    report = json.loads(out)
    assert report["tool"]["name"] == "embcompare"


def test_compare_timestamp_present_unless_disabled(synth_files, tmp_path, capsys):
    left, right = synth_files
    out = tmp_path / "ts.json"
    code, _, _ = run(capsys, "compare", left, right, "--out", out)
    assert code == 0
    assert "generated_at" in json.loads(out.read_text())
