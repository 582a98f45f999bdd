"""The README library pipeline on an in-memory pair, using library defaults.

    PYTHONPATH=src python3 perfbench/wide_pipeline.py <inputs_dir> <report.json>

Loads ``left.npy``/``right.npy`` and ``words.txt`` from ``inputs_dir``, runs
align_vocabularies -> correlation_matrix -> histogram ->
one_to_one_score(use_abs=True) -> cca_fit, and writes a deterministic JSON
report.  Library functions are looked up on the ``embcompare`` package at
call time so the traced run can wrap them.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import embcompare


def run(inputs: str, report_path: str) -> None:
    inputs_dir = Path(inputs)
    vocab = tuple((inputs_dir / "words.txt").read_text(encoding="ascii").split())
    left = embcompare.EmbeddingMatrix(vocab, np.load(inputs_dir / "left.npy"), name="left")
    right = embcompare.EmbeddingMatrix(vocab, np.load(inputs_dir / "right.npy"), name="right")

    pair = embcompare.align_vocabularies(left, right)
    kappa = embcompare.correlation_matrix(pair)
    hist = embcompare.histogram(kappa.values.ravel())
    matching = embcompare.one_to_one_score(kappa, use_abs=True)
    cca = embcompare.cca_fit(pair)

    report = {
        "shared_vocabulary": pair.shared_count,
        "kappa": hist.to_json_dict(),
        "one_to_one": matching.to_json_dict(),
        "cca": cca.to_json_dict(),
    }
    Path(report_path).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    run(sys.argv[1], sys.argv[2])
