"""Start-up: radgas binds dgtsv from scipy's LAPACK extension file and
imports neither ``scipy.linalg`` nor the process pool until it needs them."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import radgas  # noqa: E402
from radgas import tridiag  # noqa: E402
from test_tridiag_properties import dominant_systems  # noqa: E402


def test_import_leaves_out_scipy_linalg_and_the_process_pool():
    # a fresh interpreter: this one has imported scipy.linalg for the tests
    path = [str(Path(radgas.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "import sys, radgas, radgas.cli\n"
        "print(sorted(set(sys.modules) & {'scipy.linalg', 'concurrent.futures.process'}))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_missing_extension_names_the_directory(tmp_path):
    with pytest.raises(ImportError) as excinfo:
        tridiag._load_flapack(tmp_path)
    assert str(tmp_path) in str(excinfo.value)
    assert scipy.__version__ in str(excinfo.value)


@st.composite
def systems(draw):
    """A dominant system of two or more rows (dgtsv's wrapper refuses one),
    or one whose column k is zero (a zero pivot, info > 0)."""
    lower, diag, upper, rhs = draw(dominant_systems().filter(lambda s: s[1].shape[0] > 1))
    n = diag.shape[0]
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        diag[k] = 0.0
        if k > 0:
            upper[k - 1] = 0.0
        if k + 1 < n:
            lower[k + 1] = 0.0
    return lower, diag, upper, rhs


def gtsv_outputs(fn, lower, diag, upper, rhs, overwrite):
    """dgtsv's four arrays as bytes and its info, on fresh copies of the inputs."""
    args = (lower[1:].copy(), diag.copy(), upper[:-1].copy(), rhs.copy())
    *arrays, info = fn(*args, *[int(overwrite)] * 4)
    return [a.tobytes() for a in arrays], info


@settings(max_examples=100, deadline=None)
@given(systems(), st.booleans())
def test_dgtsv_is_scipys(system, overwrite):
    ours = gtsv_outputs(tridiag.dgtsv, *system, overwrite)
    theirs = gtsv_outputs(scipy.linalg.lapack.dgtsv, *system, overwrite)
    assert ours == theirs


def test_zero_pivot_raises_numpys_linalg_error():
    assert scipy.linalg.LinAlgError is np.linalg.LinAlgError
    lower = np.array([0.0, 0.0, 1.0])
    diag = np.array([0.0, 2.0, 2.0])
    upper = np.array([1.0, 1.0, 0.0])
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        tridiag.tridiagonal_solve(lower, diag, upper, np.ones(3))
