import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import embcompare


def test_public_names_resolve():
    names = embcompare.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(embcompare, name)]
    assert missing == []


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from embcompare import *", scope)
    assert set(embcompare.__all__) <= set(scope)
    assert scope["parse_embedding"] is embcompare.embedding_io.parse_embedding


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        embcompare.no_such_name


def test_package_import_loads_neither_numpy_nor_scipy():
    # the public names load on first use, so a library import leaves the
    # host's BLAS settings to whoever imports numpy first
    src = str(Path(embcompare.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, embcompare; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


# every frozen result type with an ndarray field, built from writeable arrays
_FROZEN_RESULTS = [
    ("embedding_io.EmbeddingMatrix", {"vocab": ("a", "b"), "values": np.eye(2)}),
    ("column_stats.CorrelationMatrix", {"values": np.eye(2)}),
    (
        "column_stats.HistogramSummary",
        {"bin_edges": np.array([0.0, 1.0]), "counts": np.array([2]),
         "median": 0.5, "kde_points": np.zeros((3, 2))},
    ),
    (
        "alignment.Matching",
        {"assignment": np.array([1, 0]), "matched_correlations": np.array([0.5, 0.25])},
    ),
    (
        "cca.CcaResult",
        {"correlations": np.array([0.5, 0.25]), "regularization_left": 0.0,
         "regularization_right": 0.0},
    ),
    ("synthgen.Permutation", {"order": np.array([1, 0])}),
    ("synthgen.SignFlip", {"mask": np.array([True, False])}),
    ("synthgen.Linear", {"matrix": 2.0 * np.eye(2)}),
]


@pytest.mark.parametrize(
    "kind, kwargs", _FROZEN_RESULTS, ids=[kind for kind, _ in _FROZEN_RESULTS]
)
def test_result_arrays_are_read_only_and_callers_keep_theirs(kind, kwargs):
    module, name = kind.split(".")
    obj = getattr(importlib.import_module(f"embcompare.{module}"), name)(**kwargs)
    arrays = [
        f.name for f in dataclasses.fields(obj) if isinstance(getattr(obj, f.name), np.ndarray)
    ]
    assert arrays == [k for k, v in kwargs.items() if isinstance(v, np.ndarray)]
    for field in arrays:
        assert not getattr(obj, field).flags.writeable, field
        assert kwargs[field].flags.writeable, field  # the caller's own array
