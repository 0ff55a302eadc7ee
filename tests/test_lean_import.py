"""Start-up: radgas imports neither scipy nor the process pool until it
needs them.  It binds dgtsv from scipy's LAPACK extension file at the first
solve, so a kappa = 0 run never loads scipy's LAPACK, and threads whose first
steps race bind it once and get the bytes of sequential steps."""

import json
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


def fresh_interpreter(code):
    """The stdout of ``code`` run by a new interpreter that imports this
    radgas (this one has imported scipy.linalg for the tests)."""
    path = [str(Path(radgas.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.strip()


def test_import_leaves_out_scipy_linalg_and_the_process_pool():
    code = (
        "import sys, radgas, radgas.cli\n"
        "print(sorted(set(sys.modules) & {'scipy.linalg', 'concurrent.futures.process'}))"
    )
    assert fresh_interpreter(code) == "[]"


LOADED = """
import json, os, sys
import radgas, radgas.cli
from radgas.config import RunConfig


def loaded():
    # whether scipy is imported, and whether its _flapack file is mapped
    # (None where /proc/self/maps does not exist)
    mapped = None
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as fh:
            mapped = "_flapack" in fh.read()
    return ["scipy" in sys.modules, mapped]


def short_run(kappa):
    config = RunConfig(eps=1e-3, kappa=kappa, r_max=24.0, n_cells=480, t_end=0.05,
                       diffusion_scheme="crank-nicolson", filter_coeff=0.01)
    assert radgas.run(config).termination_reason == "time-complete"


seen = [loaded()]
short_run(0.0)
seen.append(loaded())
short_run(1.0)
seen.append(loaded())
print(json.dumps(seen))
"""


def test_a_kappa0_run_loads_neither_scipy_nor_lapack():
    # after the import and after a kappa = 0 run, then after a kappa > 0 run,
    # which binds dgtsv at its first solve (still without importing scipy)
    seen = json.loads(fresh_interpreter(LOADED))
    assert [imported for imported, _ in seen] == [False] * 3
    if seen[0][1] is not None:
        assert [mapped for _, mapped in seen] == [False, False, True]


RACE = """
import sys, threading, time
from radgas import tridiag
from radgas.config import CRANK_NICOLSON
from radgas.grid import build_grid
from radgas.integrator import step
from radgas.state import PhysParams, make_initial_state

loads = []
load = tridiag._load_flapack


def slow_load(directory):
    # hold the bind long enough for the other thread to reach it
    loads.append(directory)
    time.sleep(0.05)
    return load(directory)


tridiag._load_flapack = slow_load
grids = [build_grid(100.0, 4000), build_grid(24.0, 1920)]
starts = [make_initial_state(g, "gaussian-bump", 1e-3, PhysParams(kappa=1.0)) for g in grids]


def first_step(i):
    new, report = step(starts[i], grids[i], 0.01, CRANK_NICOLSON, 0.01)
    assert report.validity.ok
    return b"".join(f.tobytes() for f in (new.a, new.u, new.theta))


got = [None, None]
barrier = threading.Barrier(2)


def worker(i):
    barrier.wait()
    got[i] = first_step(i)


unbound = "dgtsv" not in vars(tridiag)
threads = [threading.Thread(target=worker, args=(i,), daemon=True) for i in range(2)]
sys.setswitchinterval(1e-6)
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60.0)
sys.setswitchinterval(0.005)
alive = any(thread.is_alive() for thread in threads)
print(unbound, len(loads), alive, got == [first_step(0), first_step(1)])
"""


def test_racing_first_solves_bind_dgtsv_once_and_give_the_sequential_bytes():
    # two threads make the process's first kappa > 0 steps at once, each on
    # its own grid; the second waits for the first's bind
    assert fresh_interpreter(RACE) == "True 1 False True"


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
