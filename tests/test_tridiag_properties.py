"""Property tests: the dgtsv route against scipy's banded solver."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from radgas.tridiag import (  # noqa: E402
    TridiagonalSystem,
    solve_tridiagonal,
    tridiagonal_solve,
)

FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def dominant_systems(draw):
    """(lower, diag, upper, rhs) of a strictly diagonally dominant system."""
    n = draw(st.integers(1, 48))
    values = st.lists(FINITE, min_size=n, max_size=n)
    lower = np.array(draw(values))
    upper = np.array(draw(values))
    lower[0] = 0.0
    upper[-1] = 0.0
    margin = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
    sign = st.sampled_from([-1.0, 1.0])
    signs = np.array(draw(st.lists(sign, min_size=n, max_size=n)))
    diag = signs * (np.abs(lower) + np.abs(upper) + margin)
    rhs = np.array(draw(values))
    return lower, diag, upper, rhs


def banded(lower, diag, upper, rhs):
    """The pre-dgtsv route: dominance guard, then scipy's banded solver."""
    slack = np.abs(diag) - (np.abs(lower) + np.abs(upper))
    if not np.all(slack > 0.0):
        raise ValueError("tridiagonal system lost diagonal dominance")
    ab = np.zeros((3, diag.shape[0]))
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return solve_banded((1, 1), ab, rhs)


def solve_system(lower, diag, upper, rhs):
    system = TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs)
    return solve_tridiagonal(system)


def raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(dominant_systems())
def test_bitwise_equal_to_solve_banded(system):
    lower, diag, upper, rhs = system
    x = tridiagonal_solve(lower, diag, upper, rhs)
    assert x.tobytes() == banded(lower, diag, upper, rhs).tobytes()
    assert solve_system(lower, diag, upper, rhs).tobytes() == x.tobytes()


@settings(max_examples=100, deadline=None)
@given(dominant_systems(), st.data())
def test_same_exception_types(system, data):
    lower, diag, upper, rhs = system
    n = diag.shape[0]
    row = data.draw(st.integers(0, n - 1))
    weak = diag.copy()
    weak[row] = 0.5 * np.sign(diag[row]) * (abs(lower[row]) + abs(upper[row]))
    nan_diag = diag.copy()
    nan_diag[row] = np.nan
    nan_rhs = rhs.copy()
    nan_rhs[row] = np.nan
    # the dominance check is solve_tridiagonal's; tridiagonal_solve checks
    # only the right-hand side, its callers vouching for the matrix
    for args, solvers in (
        ((lower, weak, upper, rhs), [solve_system]),
        ((lower, nan_diag, upper, rhs), [solve_system]),
        ((lower, diag, upper, nan_rhs), [solve_system, tridiagonal_solve]),
    ):
        expected = raised(banded, *args)
        assert expected is ValueError
        for solver in solvers:
            assert raised(solver, *args) is expected
