"""Tridiagonal linear systems for the implicit heat-conduction update.

:func:`tridiagonal_solve` is the one LAPACK call site: it takes the three
diagonals and a finite right-hand side as plain arrays and returns dgtsv's
solution, its caller vouching for strict diagonal dominance.  The conduction
half steps, which form their Crank-Nicolson right-hand side in their own
scratch, call it behind a scalar precondition (and :func:`certifies_prefix`
on a window); :func:`solve_tridiagonal` checks a system row by row first.
``dgtsv`` is scipy's own, from ``scipy/linalg/_flapack``, bound at the first solve
without importing scipy, so a kappa = 0 run loads neither scipy nor its LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path
from threading import Lock

import numpy as np


def _load_flapack(directory: str | Path):
    """scipy's ``_flapack`` from ``directory``, loaded under its scipy module name."""
    path = Path(directory, "_flapack" + EXTENSION_SUFFIXES[0])
    if not path.is_file():
        from importlib.metadata import version  # only on this error path
        raise ImportError(f"no {path.name} in {directory} (scipy {version('scipy')})")
    return module_from_spec(spec_from_file_location("scipy.linalg._flapack", path))


def __getattr__(name: str, _lock=Lock()):
    """``dgtsv``, bound once on first use: threads that race here wait for one load."""
    if name != "dgtsv":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    with _lock:
        if name not in globals():
            scipy_dir = find_spec("scipy").submodule_search_locations[0]
            globals()[name] = _load_flapack(Path(scipy_dir, "linalg")).dgtsv
    return globals()[name]


def tridiagonal_solve(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray,
    overwrite: bool = False,
) -> np.ndarray:
    """Solve A x = rhs for a strictly diagonally dominant, finite A.

    ``lower[i]`` multiplies x[i-1] and ``upper[i]`` multiplies x[i+1];
    lower[0] and upper[-1] are not read.  The caller vouches for the
    dominance and finiteness of A.  Raises ValueError if rhs holds an
    infinity or NaN, and LinAlgError if LAPACK meets a zero pivot.  LAPACK
    gets the same arrays as ``scipy.linalg.solve_banded((1, 1), ...)`` hands
    it, so the solution is bitwise equal to that route.  With ``overwrite``,
    dgtsv factors and solves in the four arrays; a read-only one raises ValueError.
    """
    if overwrite and not all(a.flags.writeable for a in (lower, diag, upper, rhs)):
        raise ValueError("overwrite=True needs writeable arrays")
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    if diag.shape[0] == 1:
        x = rhs / diag
    else:
        flags = [int(overwrite)] * 4  # f2py overwrites even a read-only array
        gtsv = globals().get("dgtsv") or __getattr__("dgtsv")
        _, _, _, x, info = gtsv(lower[1:], diag, upper[:-1], rhs, *flags)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


#: Rows at the end of a solve that certify it (see certifies_prefix).
PREFIX_ROWS = 49


def certifies_prefix(lower_tail: np.ndarray, pivots: np.ndarray, x: np.ndarray) -> bool:
    """Whether x, which dgtsv solved in place (``pivots`` is the diag it left)
    from a right-hand side ending in PREFIX_ROWS +0.0 entries, heads the
    solution of a longer system with these rows (bar the last one's diag and
    upper), then rows of +0.0 right-hand side solved without interchanges on
    positive pivots.  ``lower_tail``: lower[1 - PREFIX_ROWS:] before, overwritten.

    dgtsv sweeps B(i+1) = b(i+1) - fact(i) B(i), fact(i) = fl(DL(i) / D(i)),
    then x(i) = (B(i) - DU(i) x(i+1)) / D(i).  |fact| <= 1/2 rules out an
    interchange, so both systems sweep alike to the last row.  x(i) = x(i+1)
    = +0.0 leaves B(i) = -0.0 or 0 <= B(i) <= D(i) 2**-1075, which is at most
    2**47 units of 2**-1074 as the conduction's guard keeps D <= 2**48 + 1;
    b = +0.0 and |fact| <= 1/2 halve B (1 unit rounds to 0), so 48 rows make
    B +0.0 at the last row and past it, where x is +0.0, so the last row's x
    is as here.  With |fact| > 1/2, 2**-1074 is a fixed point of the sweep.
    """
    k = PREFIX_ROWS
    if x[-k:].tobytes() != bytes(8 * k):
        return False
    fact = np.divide(lower_tail, pivots[-k:-1], out=lower_tail)
    return float(np.maximum.reduce(np.abs(fact, out=fact))) <= 0.5


@dataclass(frozen=True)
class TridiagonalSystem:
    """System A x = rhs with A tridiagonal, the argument of solve_tridiagonal.

    ``lower[i]`` multiplies x[i-1] (lower[0] is unused and must be 0) and
    ``upper[i]`` multiplies x[i+1] (upper[-1] is unused and must be 0).
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


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """Solve the system through :func:`tridiagonal_solve` after checking
    that it is strictly diagonally dominant and finite row by row (an
    infinite or NaN coefficient leaves the row's slack infinite or NaN)."""
    slack = np.abs(system.diag) - (np.abs(system.lower) + np.abs(system.upper))
    if not np.all((slack > 0.0) & (slack < np.inf)):
        raise ValueError("tridiagonal system lost diagonal dominance or finiteness")
    return tridiagonal_solve(system.lower, system.diag, system.upper, system.rhs)
