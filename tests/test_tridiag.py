"""Tridiagonal solver: dual-route verification against dense linear algebra."""

import numpy as np
import pytest

from radgas import TridiagonalSystem, solve_tridiagonal
from radgas.tridiag import tridiagonal_solve
from test_step_reference import _apply_tridiagonal


def thomas_solve(system):
    """Reference Thomas elimination (forward sweep, back substitution)."""
    n = system.diag.shape[0]
    lower = system.lower
    diag = system.diag
    upper = system.upper
    cp = np.empty(n)
    dp = np.empty(n)
    cp[0] = upper[0] / diag[0]
    dp[0] = system.rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom
        dp[i] = (system.rhs[i] - lower[i] * dp[i - 1]) / denom
    x = np.empty(n)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def solve(system):
    """tridiagonal_solve on a system's arrays."""
    return tridiagonal_solve(system.lower, system.diag, system.upper, system.rhs)


def random_dominant_system(rng, n):
    lower = rng.uniform(-1.0, 1.0, n)
    upper = rng.uniform(-1.0, 1.0, n)
    lower[0] = 0.0
    upper[-1] = 0.0
    diag = np.abs(lower) + np.abs(upper) + rng.uniform(0.5, 2.0, n)
    rhs = rng.standard_normal(n)
    return TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs)


def dense_matrix(sys):
    n = len(sys.diag)
    m = np.diag(sys.diag)
    m += np.diag(sys.upper[:-1], k=1)
    m += np.diag(sys.lower[1:], k=-1)
    return m


@pytest.mark.parametrize("n", [3, 8, 64, 257])
def test_matches_dense_solve(n):
    rng = np.random.default_rng(1234 + n)
    for _ in range(5):
        sys = random_dominant_system(rng, n)
        x = solve_tridiagonal(sys)
        x_dense = np.linalg.solve(dense_matrix(sys), sys.rhs)
        np.testing.assert_allclose(x, x_dense, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("n", [3, 17, 128])
def test_thomas_agrees_with_banded_solver(n):
    # two independent routes to the same answer: the pure-Python elimination
    # and the LAPACK path must agree on the same system
    rng = np.random.default_rng(7 + n)
    sys = random_dominant_system(rng, n)
    x_banded = solve_tridiagonal(sys)
    x_thomas = thomas_solve(sys)
    x_dense = np.linalg.solve(dense_matrix(sys), sys.rhs)
    np.testing.assert_allclose(x_thomas, x_banded, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(x_thomas, x_dense, rtol=1e-12, atol=1e-14)


def test_residual_metric():
    # the relative residual max|A x - rhs| / max(max|rhs|, 1) of the solve
    # is at rounding level; a wrong x would show one far above it
    rng = np.random.default_rng(99)
    sys = random_dominant_system(rng, 50)
    x = solve(sys)
    scale = max(float(np.max(np.abs(sys.rhs))), 1.0)
    ax = _apply_tridiagonal(sys.lower, sys.diag, sys.upper, x)
    assert float(np.max(np.abs(ax - sys.rhs))) / scale < 1e-13
    ax = _apply_tridiagonal(sys.lower, sys.diag, sys.upper, x + 1.0)
    assert float(np.max(np.abs(ax - sys.rhs))) / scale > 1e-3


def test_diagonal_dominance_assertion():
    good = TridiagonalSystem(
        lower=np.array([0.0, -1.0, -1.0]),
        diag=np.array([3.0, 3.0, 3.0]),
        upper=np.array([-1.0, -1.0, 0.0]),
        rhs=np.zeros(3),
    )
    x = solve(good)  # should not raise
    np.testing.assert_array_equal(x, 0.0)

    weak = TridiagonalSystem(
        lower=np.array([0.0, -2.0, -2.0]),
        diag=np.array([1.0, 1.0, 1.0]),
        upper=np.array([-2.0, -2.0, 0.0]),
        rhs=np.zeros(3),
    )
    # the dominance check belongs to solve_tridiagonal; tridiagonal_solve's
    # callers vouch for it
    with pytest.raises(ValueError, match="diagonal dominance"):
        solve_tridiagonal(weak)


def test_construction_validation():
    with pytest.raises(ValueError):
        TridiagonalSystem(
            lower=np.array([1.0, 0.0, 0.0]),  # lower[0] must be zero
            diag=np.ones(3),
            upper=np.array([0.0, 0.0, 0.0]),
            rhs=np.zeros(3),
        )
    with pytest.raises(ValueError):
        TridiagonalSystem(
            lower=np.zeros(3),
            diag=np.ones(4),  # mismatched lengths
            upper=np.zeros(3),
            rhs=np.zeros(3),
        )
    with pytest.raises(ValueError, match="at least one row"):
        TridiagonalSystem(*[np.zeros(0)] * 4)


def test_identity_system():
    sys = TridiagonalSystem(
        lower=np.zeros(5),
        diag=np.ones(5),
        upper=np.zeros(5),
        rhs=np.arange(5.0),
    )
    np.testing.assert_array_equal(solve_tridiagonal(sys), np.arange(5.0))
    np.testing.assert_array_equal(thomas_solve(sys), np.arange(5.0))


@pytest.mark.parametrize("locked", ["lower", "diag", "upper", "rhs"])
def test_overwrite_refuses_a_read_only_array(locked):
    # f2py's dgtsv ignores numpy's writeable flag: asked to overwrite, it
    # used to rewrite locked diagonals and rhs and return the locked rhs
    sys = random_dominant_system(np.random.default_rng(8), 8)
    names = ("lower", "diag", "upper", "rhs")
    arrays = {name: getattr(sys, name).copy() for name in names}
    arrays[locked].setflags(write=False)
    before = {name: f.tobytes() for name, f in arrays.items()}
    with pytest.raises(ValueError, match="writeable"):
        tridiagonal_solve(**arrays, overwrite=True)
    assert {name: f.tobytes() for name, f in arrays.items()} == before
    # without overwrite the same arrays still solve, untouched
    x = tridiagonal_solve(**arrays)
    assert {name: f.tobytes() for name, f in arrays.items()} == before
    copies = {name: f.copy() for name, f in arrays.items()}
    assert tridiagonal_solve(**copies, overwrite=True).tobytes() == x.tobytes()
