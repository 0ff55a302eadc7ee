"""Convective tendencies, characteristic structure, and the symmetric form."""

import numpy as np
import pytest

from radgas import (
    EVEN,
    ODD,
    PhysParams,
    State,
    assemble_sym_system,
    build_grid,
    cfl_dt,
    characteristic_speeds,
    convective_rhs,
    flux_divergence,
    make_initial_state,
    sound_speed,
)
from radgas.operators import derivative_array
from radgas.state import StateValidityError


def random_states(rng, n, amp_a=0.5, amp_u=1.0, amp_th=0.5):
    a = rng.uniform(-amp_a, amp_a, n)
    u = rng.uniform(-amp_u, amp_u, n)
    th = rng.uniform(-amp_th, amp_th, n)
    return a, u, th


def convective_jacobian(a, u, th):
    """Flux Jacobian of the quasilinear (a, u, theta) system in one cell."""
    return np.array(
        [
            [u, 1.0 + a, 0.0],
            [(1.0 + th) / (1.0 + a), u, 1.0],
            [0.0, 1.0 + th, u],
        ]
    )


def test_sound_speed():
    assert sound_speed(0.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    np.testing.assert_allclose(
        sound_speed(np.array([0.0, 0.5])), np.sqrt(2.0 * np.array([1.0, 1.5])), rtol=1e-15
    )


def test_characteristic_speeds_against_eigenvalue_oracle():
    # closed-form speeds u, u +- sqrt(2(1+theta)) versus a dense eigensolver
    # applied to the quasilinear flux Jacobian, state by state
    rng = np.random.default_rng(42)
    a, u, th = random_states(rng, 200)
    lo, mid, hi = characteristic_speeds(a, u, th)
    for i in range(200):
        eig = np.sort(np.linalg.eigvals(convective_jacobian(a[i], u[i], th[i])).real)
        np.testing.assert_allclose(
            [lo[i], mid[i], hi[i]], eig, rtol=1e-12, atol=1e-12
        )


def test_characteristic_speeds_ordering_and_scalars():
    lo, mid, hi = characteristic_speeds(0.1, 0.3, 0.2)
    assert lo < mid < hi
    assert mid == pytest.approx(0.3)
    assert hi - 0.3 == pytest.approx(np.sqrt(2.0 * 1.2), rel=1e-14)


def test_symmetric_system_structure():
    """The symmetrized quasilinear form: symmetric A_j, positive-definite A0."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.uniform(-0.5, 0.5)
        th = rng.uniform(-0.5, 0.5)
        u_vec = rng.uniform(-1.0, 1.0, 3)
        sys = assemble_sym_system(a, u_vec, th)
        assert sys.a0.shape == (4, 4)
        # A0 is diagonal positive definite
        np.testing.assert_array_equal(sys.a0, sys.a0.T)
        evals = np.linalg.eigvalsh(sys.a0)
        assert evals.min() >= min((1.0 + th) / (1.0 + a), 1.0 + a) - 1e-12
        for aj in sys.a_dirs:
            np.testing.assert_allclose(aj, aj.T, rtol=0, atol=1e-14)


def test_symmetric_system_normal_speeds():
    # eigenvalues of A0^{-1} (sum_j omega_j A_j) for a unit normal omega:
    # u_n (twice) and u_n +- sqrt(1 + theta).  The convective 3x3 Jacobian
    # instead carries u +- sqrt(2(1+theta)); both facts are pinned here so a
    # regression in either assembly is caught.
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.uniform(-0.4, 0.4)
        th = rng.uniform(-0.4, 0.4)
        u_vec = rng.uniform(-1.0, 1.0, 3)
        omega = rng.standard_normal(3)
        omega /= np.linalg.norm(omega)
        sys = assemble_sym_system(a, u_vec, th)
        a_n = sum(w * aj for w, aj in zip(omega, sys.a_dirs))
        gen = np.linalg.eigvals(np.linalg.solve(sys.a0, a_n))
        u_n = float(np.dot(u_vec, omega))
        expected = np.sort([u_n, u_n, u_n - np.sqrt(1.0 + th), u_n + np.sqrt(1.0 + th)])
        np.testing.assert_allclose(np.sort(gen.real), expected, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(gen.imag, 0.0, atol=1e-10)


def test_symmetric_system_source_and_rejected_points():
    # F = (0, (1 + a) grad theta), zero when grad theta is not given
    u_vec = np.array([0.1, -0.2, 0.3])
    sys = assemble_sym_system(0.25, u_vec, -0.5, grad_theta=[1.0, -2.0, 0.5])
    np.testing.assert_array_equal(sys.f, [0.0, 1.25, -2.5, 0.625])
    np.testing.assert_array_equal(assemble_sym_system(0.25, u_vec, -0.5).f, np.zeros(4))
    for a, th in [(-1.0, 0.0), (0.0, -1.0), (-2.0, 0.5)]:
        with pytest.raises(ValueError, match="outside the valid regime"):
            assemble_sym_system(a, u_vec, th)
    with pytest.raises(ValueError, match="u_vec must have shape"):
        assemble_sym_system(0.0, np.zeros(2), 0.0)
    with pytest.raises(ValueError, match="grad_theta must have shape"):
        assemble_sym_system(0.0, u_vec, 0.0, grad_theta=np.zeros((3, 1)))


@pytest.mark.parametrize(
    "a, theta", [(-1.0, 0.0), (0.0, -1.0), (np.array([0.0, -1.5]), np.zeros(2))]
)
def test_characteristic_speeds_reject_points_outside_the_valid_regime(a, theta):
    with pytest.raises(ValueError, match="outside the valid regime"):
        characteristic_speeds(a, 0.0, theta)


def test_convective_rhs_on_linear_fields():
    # a = 0, theta = 0, u = r:  da/dt = -3, du/dt = -r, dtheta/dt = -3.
    # Exact in every cell except the outermost, where the wall closure of
    # the conservative mass flux takes over.
    g = build_grid(r_max=8.0, n_cells=64)
    n = g.n_cells
    s = State(a=np.zeros(n), u=g.r.copy(), theta=np.zeros(n), t=0.0, params=PhysParams())
    da_dt, du_dt, dtheta_dt = convective_rhs(s, g)
    np.testing.assert_allclose(da_dt[:-1], -3.0, rtol=1e-12)
    np.testing.assert_allclose(du_dt, -g.r, rtol=1e-12)
    np.testing.assert_allclose(dtheta_dt, -3.0, rtol=1e-12)


def test_mass_flux_telescopes_for_any_profile():
    """Both boundary faces are closed, so the w-weighted divergence sums to zero."""
    g = build_grid(r_max=5.0, n_cells=100)
    rng = np.random.default_rng(3)
    m = rng.standard_normal(100)
    total = float(np.sum(g.w * flux_divergence(m, g)))
    assert abs(total) < 1e-10


def test_convective_rhs_small_amplitude_linearization():
    # for eps -> 0 the tendencies approach the acoustic linearization:
    # da/dt ~ -div u, du/dt ~ -d(theta)/dr - da/dr, dtheta/dt ~ -div u
    g = build_grid(r_max=10.0, n_cells=400)
    eps = 1e-8
    s = make_initial_state(g, "gaussian-bump", eps)
    _, du_dt, dtheta_dt = convective_rhs(s, g)
    div_u = derivative_array(s.u, ODD, g.dr) + 2.0 * s.u / g.r
    np.testing.assert_allclose(dtheta_dt, -div_u, rtol=0, atol=eps * 1e-6)
    grad = derivative_array(s.theta, EVEN, g.dr) + derivative_array(s.a, EVEN, g.dr)
    np.testing.assert_allclose(du_dt, -grad, rtol=0, atol=eps * 1e-6)


def test_convective_rhs_rejects_invalid_state():
    g = build_grid(r_max=2.0, n_cells=16)
    n = g.n_cells
    bad = State(
        a=np.full(n, -1.5), u=np.zeros(n), theta=np.zeros(n), t=0.0, params=PhysParams()
    )
    with pytest.raises(StateValidityError):
        convective_rhs(bad, g)


def test_cfl_dt():
    g = build_grid(r_max=4.0, n_cells=32)
    n = g.n_cells
    quiet = State(a=np.zeros(n), u=np.zeros(n), theta=np.zeros(n), t=0.0, params=PhysParams())
    assert cfl_dt(quiet, g, 0.5) == pytest.approx(0.5 * g.dr / np.sqrt(2.0), rel=1e-14)

    # faster flow shrinks the step
    moving = State(
        a=np.zeros(n), u=np.full(n, 2.0), theta=np.zeros(n), t=0.0, params=PhysParams()
    )
    assert cfl_dt(moving, g, 0.5) == pytest.approx(
        0.5 * g.dr / (2.0 + np.sqrt(2.0)), rel=1e-14
    )

    with pytest.raises(ValueError):
        cfl_dt(quiet, g, 0.0)
    with pytest.raises(ValueError):
        cfl_dt(quiet, g, 1.5)

    breached = State(
        a=np.full(n, -1.5), u=np.zeros(n), theta=np.zeros(n), t=0.0, params=PhysParams()
    )
    with pytest.raises(StateValidityError):
        cfl_dt(breached, g, 0.5)


def test_speeds_shape_consistency():
    arr = np.zeros(5)
    lo, mid, hi = characteristic_speeds(arr, arr, arr)
    assert lo.shape == (5,)
    np.testing.assert_allclose(hi, np.sqrt(2.0), rtol=1e-15)
