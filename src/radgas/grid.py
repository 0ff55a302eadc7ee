"""Uniform cell-centered radial mesh with exact spherical volume weights."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MIN_CELLS = 8


@dataclass(frozen=True)
class RadialGrid:
    """Cell-centered grid on [0, r_max] with n_cells cells of width dr.

    Cell centers sit at (i + 1/2) * dr, so no degree of freedom lies on
    r = 0.  ``w`` holds the exact spherical shell volume of each cell,
    (4 pi / 3) * (r_outer^3 - r_inner^3); the weights therefore telescope
    to the volume of the full ball.
    """

    r_max: float
    n_cells: int
    dr: float
    r: np.ndarray
    faces: np.ndarray
    w: np.ndarray
    face_area: np.ndarray
    #: Idle step scratch for this grid; a step takes one out while it runs.
    scratch: list = field(default_factory=list, init=False, repr=False, compare=False)


def build_grid(r_max: float, n_cells: int) -> RadialGrid:
    """Build a uniform cell-centered radial grid.

    Parameters
    ----------
    r_max : float
        Outer radius of the domain, must be positive.
    n_cells : int
        Number of cells, at least MIN_CELLS (the difference stencils need
        a handful of interior cells to make sense).
    """
    r_max = float(r_max)
    n_cells = int(n_cells)
    if not np.isfinite(r_max) or r_max <= 0.0:
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    if n_cells < MIN_CELLS:
        raise ValueError(f"n_cells must be at least {MIN_CELLS}, got {n_cells}")

    faces = np.linspace(0.0, r_max, n_cells + 1)
    centers = 0.5 * (faces[:-1] + faces[1:])
    w = 4.0 * np.pi / 3.0 * (faces[1:] ** 3 - faces[:-1] ** 3)
    face_area = 4.0 * np.pi * faces**2
    for arr in (faces, centers, w, face_area):
        arr.setflags(write=False)
    return RadialGrid(
        r_max=r_max,
        n_cells=n_cells,
        dr=r_max / n_cells,
        r=centers,
        faces=faces,
        w=w,
        face_area=face_area,
    )
