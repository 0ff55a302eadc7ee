"""Tridiagonal linear systems for the implicit heat-conduction update.

:func:`tridiagonal_solve` is the one solve path.  It takes the three
diagonals and the right-hand side as plain arrays, checks strict diagonal
dominance and finiteness, calls LAPACK's ``dgtsv`` and returns the solution
with its relative residual.  The conduction half steps call it directly;
:func:`solve_tridiagonal` calls it for a :class:`TridiagonalSystem`.  A plain
Thomas elimination is kept alongside it as an independent reference
implementation, and the test suite cross-checks both against dense solves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv


def tridiagonal_matvec(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """A x for A given by its diagonals (lower[0] and upper[-1] unused)."""
    out = diag * x
    out[1:] += lower[1:] * x[:-1]
    out[:-1] += upper[:-1] * x[1:]
    return out


def _dominance_slack(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """|diag| - (|lower| + |upper|) row by row; raises unless all positive."""
    slack = np.abs(diag) - (np.abs(lower) + np.abs(upper))
    if not np.all(slack > 0.0):
        raise ValueError("tridiagonal system lost diagonal dominance")
    return slack


def tridiagonal_solve(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Solve A x = rhs; returns (x, relative sup-norm residual).

    ``lower[i]`` multiplies x[i-1] and ``upper[i]`` multiplies x[i+1]; the
    unused lower[0] and upper[-1] enter only the dominance guard.  Raises
    ValueError if A is not strictly diagonally dominant or an entry is
    infinite or NaN, and LinAlgError if LAPACK meets a zero pivot.  LAPACK
    gets the same arrays as ``scipy.linalg.solve_banded((1, 1), ...)`` hands
    it, so the solution is bitwise equal to that route.
    """
    slack = _dominance_slack(lower, diag, upper)
    # Slack that passed the guard holds no NaN; an infinite coefficient
    # leaves +inf in it.
    if not (np.isfinite(slack).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    if diag.shape[0] == 1:
        x = rhs / diag
    else:
        _, _, _, x, info = dgtsv(lower[1:], diag, upper[:-1], rhs)
        if info > 0:
            raise LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    scale = max(float(np.max(np.abs(rhs))), 1.0)
    residual = float(np.max(np.abs(tridiagonal_matvec(lower, diag, upper, x) - rhs)))
    return x, residual / scale


@dataclass(frozen=True)
class TridiagonalSystem:
    """System A x = rhs with A tridiagonal.

    ``lower[i]`` multiplies x[i-1] (lower[0] is unused and must be 0) and
    ``upper[i]`` multiplies x[i+1] (upper[-1] is unused and must be 0).
    The heat-conduction assembly produces rows with diag = 1 + dt * c and
    |lower| + |upper| <= diag - 1, i.e. strict diagonal dominance, which
    makes pivot-free elimination safe.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        for name in ("lower", "diag", "upper", "rhs"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        n = self.diag.shape[0]
        for name in ("lower", "upper", "rhs"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if n < 1:
            raise ValueError("system must have at least one row")
        if self.lower[0] != 0.0 or self.upper[-1] != 0.0:
            raise ValueError("lower[0] and upper[-1] must be zero")

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    def assert_diagonally_dominant(self) -> None:
        _dominance_slack(self.lower, self.diag, self.upper)

    def residual(self, x: np.ndarray) -> float:
        """Relative sup-norm residual |A x - rhs| / max(|rhs|, 1)."""
        ax = tridiagonal_matvec(self.lower, self.diag, self.upper, x)
        scale = max(float(np.max(np.abs(self.rhs))), 1.0)
        return float(np.max(np.abs(ax - self.rhs))) / scale


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """Solve the system through :func:`tridiagonal_solve`."""
    x, _ = tridiagonal_solve(system.lower, system.diag, system.upper, system.rhs)
    return x


def thomas_solve(system: TridiagonalSystem) -> np.ndarray:
    """Reference Thomas elimination (forward sweep, back substitution)."""
    system.assert_diagonally_dominant()
    n = system.n
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
