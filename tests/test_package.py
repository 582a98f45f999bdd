import os
import subprocess
import sys
from pathlib import Path

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
