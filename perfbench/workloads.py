"""The three benchmark workloads: seeded inputs, the steps of one iteration,
and the checks every iteration's outputs must pass.

A workload is generated once per (workload, size, seed) into a cache entry
directory and reloaded from there; generation never runs inside a timed
region.  An iteration is a list of steps:

* ``("cli", argv)``  -- one ``embcompare`` command line
* ``("wide", args)`` -- ``wide_pipeline.run(*args)``, the library pipeline

Untraced runs execute every step as its own process; the traced run calls
the same steps in-process.  Paths handed to the program are relative to the
checkout root, so reports (which echo input paths) are byte-identical
between runs of one commit.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from oracles import alpha_coincidence_matrix, reference_cca_correlations  # noqa: E402

CACHE_DIR = Path(".perfbench") / "cache"
CACHE_KEEP = 2  # entries kept per workload and size; bounds disk use

# Values are written with 5 decimals, so k / 1e5 is exactly what the parser
# reads back (both are the double nearest to the decimal string).
QUANTUM = 1e5
NOISE_SIGMA = 0.5

SIZES = {
    "compare-text": {
        "full": {"rows": 50_000, "dims": 300},
        "toy": {"rows": 400, "dims": 12},
    },
    "compare-wide": {
        "full": {"rows": 30_000, "dims": 1000},
        "toy": {"rows": 400, "dims": 24},
    },
    "analogy-roundtrip": {
        "full": {"rows": 10_000, "dims": 300, "categories": 12, "pairs": 23, "oov": 100},
        "toy": {"rows": 300, "dims": 16, "categories": 4, "pairs": 5, "oov": 4},
    },
}


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.Generator(np.random.Philox(key=[seed, tag]))


def _word_bytes(ids: np.ndarray) -> np.ndarray:
    """Fixed-width words ``w0000042`` as an (n, 8) uint8 array."""
    return np.frombuffer(
        "".join(f"w{i:07d}" for i in ids).encode("ascii"), dtype=np.uint8
    ).reshape(len(ids), 8)


def _quantize(values: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(values * QUANTUM), -999_999, 999_999).astype(np.int64)


def _text_rows(words: np.ndarray, k: np.ndarray) -> bytes:
    """glove_text rows ``word +1.23456 -0.01234 ...`` built without a Python loop per value."""
    n, d = k.shape
    mag = np.abs(k)
    cells = np.empty((n, d, 9), dtype=np.uint8)
    cells[:, :, 0] = ord(" ")
    cells[:, :, 1] = np.where(k < 0, ord("-"), ord("+"))
    cells[:, :, 2] = ord("0") + mag // 100_000
    cells[:, :, 3] = ord(".")
    frac = mag % 100_000
    for pos in range(8, 3, -1):
        cells[:, :, pos] = ord("0") + frac % 10
        frac //= 10
    newline = np.full((n, 1), ord("\n"), dtype=np.uint8)
    return np.concatenate([words, cells.reshape(n, d * 9), newline], axis=1).tobytes()


def _gen_compare_text(rng, out: Path, rows: int, dims: int) -> dict:
    """Left glove_text, right word2vec_text with header.

    10% of each side's words are missing from the other side, both files
    are in independent random row orders, and each shared right row is the
    left row under a planted column permutation and sign flip plus noise.
    """
    n_only = rows // 10
    n_shared = rows - n_only
    ids = rng.permutation(n_shared + 2 * n_only)
    shared, left_only, right_only = np.split(ids, [n_shared, n_shared + n_only])

    perm_l = rng.permutation(rows)
    left_ids = np.concatenate([shared, left_only])[perm_l]
    left = rng.standard_normal((rows, dims))
    pos_l = np.argsort(perm_l)[:n_shared]  # left row of shared[i]

    order = rng.permutation(dims)
    signs = np.where(rng.random(dims) < 0.5, -1.0, 1.0)
    right = rng.standard_normal((rows, dims))
    right[:n_shared] *= NOISE_SIGMA
    right[:n_shared] += left[pos_l][:, order] * signs
    perm_r = rng.permutation(rows)
    right_ids = np.concatenate([shared, right_only])[perm_r]
    right = right[perm_r]
    pos_r = np.argsort(perm_r)[:n_shared]  # right row of shared[i]

    k_left, k_right = _quantize(left), _quantize(right)
    del left, right
    (out / "left.txt").write_bytes(_text_rows(_word_bytes(left_ids), k_left))
    with open(out / "right.txt", "wb") as fh:
        fh.write(f"{rows} {dims}\n".encode("ascii"))
        fh.write(_text_rows(_word_bytes(right_ids), k_right))

    # the CLI aligns in the left file's row order
    shared_rows = np.sort(pos_l)
    right_rows = pos_r[perm_l[shared_rows]]
    ref = reference_cca_correlations(
        k_left[shared_rows] / QUANTUM, k_right[right_rows] / QUANTUM
    )
    np.save(out / "ref_cca.npy", ref)
    np.save(out / "order.npy", order)
    return {"shared_rows": int(n_shared), "files": ["left.txt", "right.txt"]}


def _gen_compare_wide(rng, out: Path, rows: int, dims: int) -> dict:
    """An in-memory pair: right = left @ dense invertible mixing + noise."""
    left = rng.standard_normal((rows, dims))
    mixing = rng.standard_normal((dims, dims)) / np.sqrt(dims)
    right = left @ mixing
    right += NOISE_SIGMA * rng.standard_normal((rows, dims))
    np.save(out / "left.npy", left)
    np.save(out / "right.npy", right)
    (out / "words.txt").write_text(
        "".join(f"w{i:07d}\n" for i in range(rows)), encoding="ascii"
    )
    ref = reference_cca_correlations(left, right)
    np.save(out / "ref_cca.npy", ref)
    return {"shared_rows": rows, "files": ["left.npy", "right.npy", "words.txt"]}


def _gen_analogy(rng, out: Path, rows: int, dims: int, categories: int, pairs: int, oov: int) -> dict:
    """Questions over the ``synth`` vocabulary (``w000001`` .. ``w<rows>``).

    Each category holds ``pairs`` word pairs and asks every ordered pair of
    pairs, like the classic question set; one extra category uses only
    words that no embedding contains, so all of its questions are skipped.
    """
    pool = rng.permutation(rows)[: 2 * categories * pairs] + 1
    lines = []
    for c in range(categories):
        lines.append(f": gram{c}-suffix" if c % 2 else f": topic{c}")
        words = [f"w{i:06d}" for i in pool[2 * pairs * c : 2 * pairs * (c + 1)]]
        pair_list = list(zip(words[::2], words[1::2]))
        for i, (a, b) in enumerate(pair_list):
            for j, (q, d) in enumerate(pair_list):
                if i != j:
                    lines.append(f"{a} {b} {q} {d}")
    lines.append(": all-oov")
    for i in range(oov):
        lines.append(" ".join(f"oov{4 * i + j:05d}" for j in range(4)))
    (out / "questions.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {
        "questions": len(lines) - categories - 1,
        "synth_seed": int(rng.integers(0, 2**31)),
        "files": ["questions.txt"],
    }


GENERATORS = {
    "compare-text": _gen_compare_text,
    "compare-wide": _gen_compare_wide,
    "analogy-roundtrip": _gen_analogy,
}


def prepare(workload: str, seed: int, size: str) -> Path:
    """Return the cache entry for (workload, size, seed), generating it if absent."""
    entry = CACHE_DIR / f"{workload}-{size}-{seed}"
    if (entry / "meta.json").exists():
        os.utime(entry)
        return entry
    params = SIZES[workload][size]
    tmp = CACHE_DIR / f".{entry.name}.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    start = time.perf_counter()
    meta = GENERATORS[workload](_rng(workload, seed), tmp, **params)
    meta.update(
        workload=workload,
        seed=seed,
        size=size,
        params=params,
        gen_s=time.perf_counter() - start,
        input_bytes=sum((tmp / f).stat().st_size for f in meta["files"]),
    )
    (tmp / "meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")
    # flush now, so the kernel's delayed write-back of hundreds of MB does
    # not land inside a timed region later
    for path in tmp.iterdir():
        with open(path, "rb") as fh:
            os.fsync(fh.fileno())
    shutil.rmtree(entry, ignore_errors=True)
    tmp.rename(entry)
    _evict(workload, size, keep=entry)
    return entry


def _evict(workload: str, size: str, keep: Path) -> None:
    entries = sorted(
        (p for p in CACHE_DIR.glob(f"{workload}-{size}-*") if p != keep),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for old in entries[CACHE_KEEP - 1 :]:
        shutil.rmtree(old, ignore_errors=True)


def load_meta(entry: Path) -> dict:
    return json.loads((entry / "meta.json").read_text(encoding="utf-8"))


def steps(workload: str, entry: Path, out: Path, threads: list[str]) -> list[tuple[str, list[str]]]:
    """The steps of one iteration; ``threads`` is appended to every CLI call."""
    e, o = str(entry), str(out)
    if workload == "compare-text":
        return [
            ("cli", ["compare", f"{e}/left.txt", f"{e}/right.txt", "--abs-correlation",
                     "--kde", "--plots-dir", f"{o}/plots", "--no-timestamp",
                     "--out", f"{o}/report.json", *threads]),
        ]
    if workload == "compare-wide":
        return [("wide", [e, f"{o}/report.json"])]
    if workload == "analogy-roundtrip":
        meta = load_meta(entry)
        p = meta["params"]
        q = f"{e}/questions.txt"
        return [
            ("cli", ["synth", "--rows", str(p["rows"]), "--dims", str(p["dims"]),
                     "--seed", str(meta["synth_seed"]), "--transform", "sign_flip",
                     "--sigma", str(NOISE_SIGMA), "--out-left", f"{o}/left.txt",
                     "--out-right", f"{o}/right.txt", "--truth", f"{o}/truth.json",
                     *threads]),
            ("cli", ["analogy", f"{o}/left.txt", q, "--answers-csv", f"{o}/answers_left.csv",
                     "--out", f"{o}/analogy_left.json", *threads]),
            ("cli", ["analogy", f"{o}/right.txt", q, "--answers-csv", f"{o}/answers_right.csv",
                     "--out", f"{o}/analogy_right.json", *threads]),
            ("cli", ["agreement", f"{o}/answers_left.csv", f"{o}/answers_right.csv",
                     "--out", f"{o}/agreement.json", *threads]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def reset_outputs(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)


def digest(out: Path) -> str:
    """One hash over every output file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


class Checker:
    """Checks one iteration's outputs; the expensive oracles run once per input."""

    def __init__(self, workload: str, entry: Path):
        self.workload = workload
        self.entry = entry
        self.meta = load_meta(entry)
        self.first_digest: str | None = None
        self._alpha: dict[str, Fraction] = {}

    def check(self, out: Path) -> list[str]:
        """Return the failed checks (empty when the iteration is correct)."""
        workload_checks = {
            "compare-text": self._compare_text,
            "compare-wide": self._compare_wide,
            "analogy-roundtrip": self._analogy_roundtrip,
        }[self.workload]
        try:
            errors = workload_checks(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        d = digest(out)
        if self.first_digest is None:
            self.first_digest = d
        elif d != self.first_digest:
            errors.append("outputs differ from the first iteration's bytes")
        return errors

    def _cca(self, report_cca: dict) -> list[str]:
        ref = np.load(self.entry / "ref_cca.npy")
        got = np.sort(np.asarray(report_cca["correlations"], dtype=np.float64))[::-1]
        ref = np.sort(ref)[::-1]
        if got.shape != ref.shape:
            return [f"cca: {got.size} correlations, oracle has {ref.size}"]
        errors = []
        if np.abs(got - ref).max() > 1e-6:
            errors.append(f"cca: correlations off the QR oracle by {np.abs(got - ref).max():.3g}")
        if abs(report_cca["zeta_cca"] - ref.mean()) > 1e-6:
            errors.append("cca: zeta_cca differs from the QR oracle")
        return errors

    def _compare_text(self, out: Path) -> list[str]:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        errors = self._cca(report["cca"])
        if report["one_to_one"]["assignment"] != np.load(self.entry / "order.npy").tolist():
            errors.append("matching: planted permutation not recovered")
        if report["inputs"]["shared_vocabulary"] != self.meta["shared_rows"]:
            errors.append("alignment: wrong shared vocabulary size")
        return errors

    def _compare_wide(self, out: Path) -> list[str]:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        return self._cca(report["cca"])

    def _analogy_roundtrip(self, out: Path) -> list[str]:
        raw = [(out / f"answers_{side}.csv").read_bytes() for side in ("left", "right")]
        key = hashlib.sha256(raw[0] + b"\0" + raw[1]).hexdigest()
        if key not in self._alpha:
            labels = [
                [r["predicted"] if r["status"] == "ANSWERED" else None
                 for r in csv.DictReader(b.decode("utf-8").splitlines())]
                for b in raw
            ]
            self._alpha[key] = alpha_coincidence_matrix(*labels)
        got = json.loads((out / "agreement.json").read_text(encoding="utf-8"))["alpha"]
        if got != float(self._alpha[key]):
            return [f"agreement: alpha {got!r} != oracle {float(self._alpha[key])!r}"]
        return []
