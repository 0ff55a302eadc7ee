"""Tridiagonal solver: dual-route verification against dense linear algebra."""

import numpy as np
import pytest

from radgas import TridiagonalSystem, solve_tridiagonal, thomas_solve


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
    rng = np.random.default_rng(99)
    sys = random_dominant_system(rng, 50)
    x = solve_tridiagonal(sys)
    assert sys.residual(x) < 1e-13
    assert sys.residual(x + 1.0) > 1e-3


def test_diagonal_dominance_assertion():
    good = TridiagonalSystem(
        lower=np.array([0.0, -1.0, -1.0]),
        diag=np.array([3.0, 3.0, 3.0]),
        upper=np.array([-1.0, -1.0, 0.0]),
        rhs=np.zeros(3),
    )
    good.assert_diagonally_dominant()  # should not raise

    weak = TridiagonalSystem(
        lower=np.array([0.0, -2.0, -2.0]),
        diag=np.array([1.0, 1.0, 1.0]),
        upper=np.array([-2.0, -2.0, 0.0]),
        rhs=np.zeros(3),
    )
    with pytest.raises(ValueError):
        weak.assert_diagonally_dominant()


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


def test_identity_system():
    sys = TridiagonalSystem(
        lower=np.zeros(5),
        diag=np.ones(5),
        upper=np.zeros(5),
        rhs=np.arange(5.0),
    )
    np.testing.assert_array_equal(solve_tridiagonal(sys), np.arange(5.0))
    np.testing.assert_array_equal(thomas_solve(sys), np.arange(5.0))
