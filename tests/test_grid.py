"""Cell-centered radial grid: geometry, exactness, and validation."""

import numpy as np
import pytest
from scipy.integrate import quad

from radgas import build_grid


def test_basic_layout():
    g = build_grid(r_max=10.0, n_cells=50)
    assert g.dr == pytest.approx(0.2)
    assert g.r.shape == (50,)
    assert g.faces.shape == (51,)
    assert g.w.shape == (50,)
    assert g.face_area.shape == (51,)
    # centers sit halfway between faces
    np.testing.assert_allclose(g.r, 0.5 * (g.faces[:-1] + g.faces[1:]), rtol=0, atol=1e-15)
    assert g.faces[0] == 0.0
    assert g.faces[-1] == 10.0


def test_cell_volumes_telescope_to_ball_volume():
    # the volume weights are exact sphere-shell volumes, so their sum
    # telescopes to the volume of the full ball with no quadrature error
    g = build_grid(r_max=7.3, n_cells=97)
    ball_volume = 4.0 * np.pi / 3.0 * g.r_max**3
    assert g.w.sum() == pytest.approx(ball_volume, rel=1e-15)
    assert ball_volume == pytest.approx(4.0 / 3.0 * np.pi * 7.3**3, rel=1e-15)


def test_cell_volume_matches_quadrature():
    g = build_grid(r_max=4.0, n_cells=16)
    for i in (0, 1, 7, 15):
        vol, _ = quad(lambda s: 4.0 * np.pi * s**2, g.faces[i], g.faces[i + 1])
        assert g.w[i] == pytest.approx(vol, rel=1e-12)


def test_face_areas():
    g = build_grid(r_max=3.0, n_cells=12)
    np.testing.assert_allclose(g.face_area, 4.0 * np.pi * g.faces**2, rtol=1e-15)
    assert g.face_area[0] == 0.0


def test_weighted_sum_is_volume_integral():
    """Volume-weighted sums reproduce smooth integrals at second order."""
    exact, _ = quad(lambda s: 4.0 * np.pi * s**2 * np.exp(-(s**2)), 0.0, 12.0)
    errs = []
    for n in (200, 400):
        g = build_grid(r_max=12.0, n_cells=n)
        approx = float(np.sum(g.w * np.exp(-(g.r**2))))
        errs.append(abs(approx - exact))
    assert errs[0] / errs[1] > 3.5  # second-order midpoint-style accuracy


def test_arrays_are_locked():
    g = build_grid(r_max=1.0, n_cells=8)
    for arr in (g.r, g.faces, g.w, g.face_area):
        with pytest.raises((ValueError, RuntimeError)):
            arr[0] = 99.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(r_max=0.0, n_cells=16),
        dict(r_max=-1.0, n_cells=16),
        dict(r_max=float("nan"), n_cells=16),
        dict(r_max=float("inf"), n_cells=16),
        dict(r_max=1.0, n_cells=7),
        dict(r_max=1.0, n_cells=0),
    ],
)
def test_invalid_construction(kwargs):
    with pytest.raises(ValueError):
        build_grid(**kwargs)
