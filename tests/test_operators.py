"""Radial stencils on the kernel path.

The derivative kernel ``derivative_array`` is tested directly.  The
divergence du/dr + 2u/r is tested inside the convective right-hand side,
the radial Laplacian in the conduction rows of the step's reference (which
the kernel's rows equal bit for bit), and higher derivatives through the
diagnostics' derivative chain.
"""

import numpy as np
import pytest

from radgas import EVEN, ODD, PhysParams, State, build_grid, convective_rhs, step
from radgas.diagnostics import MAX_DIAG_ORDER, DiagnosticsCollector, _derivative_chain
from radgas.operators import derivative_array
from test_step_reference import _apply_tridiagonal, conduction_rows


def sample(grid, fn, parity):
    """fn on the cell centers, once fn is checked to have the given parity.

    An even profile must satisfy fn(-r) == fn(r) and an odd one
    fn(-r) == -fn(r); the kernels close their stencils at the origin with
    that reflection, so a profile of the wrong parity would be
    differentiated wrongly there.
    """
    values = np.asarray(fn(grid.r), dtype=float)
    mirrored = np.asarray(fn(-grid.r), dtype=float)
    scale = np.max(np.abs(values)) + 1e-300
    if not np.allclose(mirrored, parity * values, rtol=1e-9, atol=1e-12 * scale):
        raise ValueError(f"profile does not have parity {parity} across the origin")
    return values


def gaussian(grid):
    return sample(grid, lambda r: np.exp(-(r**2)), EVEN)


def divergence(u, grid):
    """div u = du/dr + 2u/r as the convective right-hand side computes it.

    With a = theta = 0 the temperature tendency is -(u * 0 + 1 * div u),
    which is exactly -div u.
    """
    zero = np.zeros_like(u)
    state = State(a=zero, u=u, theta=zero, t=0.0, params=PhysParams())
    return -convective_rhs(state, grid)[2]


def laplacian_rows(grid):
    """(lower, diag, upper) of the Laplacian that conduction assembles: the
    rows of M in M theta = kappa * lap(theta) / (1 + a) at kappa = 1 and
    a = 0, as the step's reference builds them.  The kernel's rows equal
    them bit for bit: every step comparison in test_step_reference pins it."""
    return conduction_rows(np.zeros(grid.n_cells), grid, 1.0)


def laplacian(values, grid):
    return _apply_tridiagonal(*laplacian_rows(grid), values)


def chain_buffers(grid, orders):
    return [np.empty(grid.n_cells) for _ in range(orders)]


def test_derivative_exact_on_linear_odd_field():
    # u = r is odd; its derivative is 1 in every cell, including the origin
    # cell (parity ghost) and the outermost cell (one-sided closure)
    g = build_grid(r_max=5.0, n_cells=40)
    u = sample(g, lambda r: r, ODD)
    np.testing.assert_allclose(derivative_array(u, ODD, g.dr), 1.0, rtol=0, atol=1e-13)


def test_derivative_exact_on_quadratic_even_field():
    g = build_grid(r_max=5.0, n_cells=40)
    f = sample(g, lambda r: r**2, EVEN)
    np.testing.assert_allclose(derivative_array(f, EVEN, g.dr), 2.0 * g.r, rtol=1e-13)


def test_derivative_second_order_convergence():
    exact = lambda r: -2.0 * r * np.exp(-(r**2))
    errs = []
    for n in (400, 800):
        g = build_grid(r_max=10.0, n_cells=n)
        df = derivative_array(gaussian(g), EVEN, g.dr)
        errs.append(np.max(np.abs(df - exact(g.r))))
    assert errs[0] / errs[1] > 3.5


def test_divergence_of_linear_field_is_three():
    """div(r e_r) = 3 identically for radial vector fields."""
    g = build_grid(r_max=4.0, n_cells=32)
    u = sample(g, lambda r: r, ODD)
    np.testing.assert_allclose(divergence(u, g), 3.0, rtol=1e-13)


def test_divergence_convergence():
    # u = r exp(-r^2):  div u = u' + 2u/r = (3 - 2r^2) exp(-r^2)
    exact = lambda r: (3.0 - 2.0 * r**2) * np.exp(-(r**2))
    errs = []
    for n in (400, 800):
        g = build_grid(r_max=10.0, n_cells=n)
        u = sample(g, lambda r: r * np.exp(-(r**2)), ODD)
        errs.append(np.max(np.abs(divergence(u, g) - exact(g.r))))
    assert errs[0] / errs[1] > 3.5


def test_laplacian_exact_on_quadratic():
    # exact in every interior cell; the outermost cell absorbs the wall
    # closure (no flux leaves through r_max), which keeps the total at zero
    g = build_grid(r_max=6.0, n_cells=48)
    lap = laplacian(sample(g, lambda r: r**2, EVEN), g)
    np.testing.assert_allclose(lap[:-1], 6.0, rtol=1e-12)
    assert abs(float(np.sum(g.w * lap))) < 1e-10


def test_laplacian_convergence_on_gaussian():
    exact = lambda r: (4.0 * r**2 - 6.0) * np.exp(-(r**2))
    errs = []
    for n in (400, 800):
        g = build_grid(r_max=10.0, n_cells=n)
        lap = laplacian(gaussian(g), g)
        interior = g.r < 6.0
        errs.append(np.max(np.abs(lap[interior] - exact(g.r[interior]))))
    assert errs[0] / errs[1] > 3.5


def test_laplacian_flux_form_telescopes():
    # both boundary faces carry zero flux, so the w-weighted sum of the
    # laplacian telescopes away for ANY field, not just decaying ones
    g = build_grid(r_max=12.0, n_cells=300)
    rng = np.random.default_rng(5)
    total = float(np.sum(g.w * laplacian(rng.standard_normal(300), g)))
    assert abs(total) < 1e-9  # roundoff of a sum whose terms are O(1/dr^2)


def test_zero_flux_at_origin():
    # an even field has no flux through r=0: the origin row couples only
    # to cell 1, and a constant field gives exactly zero there; elsewhere
    # the rows sum to zero up to rounding
    g = build_grid(r_max=3.0, n_cells=64)
    lower, diag, upper = laplacian_rows(g)
    assert lower[0] == 0.0
    assert diag[0] == -upper[0]
    lap = _apply_tridiagonal(lower, diag, upper, np.full(64, 2.5))
    assert lap[0] == 0.0
    np.testing.assert_allclose(lap, 0.0, rtol=0, atol=1e-13 * 2.5 * np.max(np.abs(diag)))


def test_higher_derivatives_against_closed_forms():
    # second and third derivatives of exp(-r^2)
    d2 = lambda r: (4.0 * r**2 - 2.0) * np.exp(-(r**2))
    d3 = lambda r: (12.0 * r - 8.0 * r**3) * np.exp(-(r**2))
    for k, exact, tol_ratio in ((2, d2, 3.4), (3, d3, 3.0)):
        errs = []
        for n in (600, 1200):
            g = build_grid(r_max=10.0, n_cells=n)
            dk = _derivative_chain(gaussian(g), EVEN, g, k, chain_buffers(g, k))[k]
            window = g.r < 5.0
            errs.append(np.max(np.abs(dk[window] - exact(g.r[window]))))
        assert errs[0] / errs[1] > tol_ratio, f"k={k}: ratio {errs[0]/errs[1]}"


def test_derivative_k_parity_bookkeeping():
    # the chain flips parity at every order: even, odd, even
    g = build_grid(r_max=2.0, n_cells=16)
    f = gaussian(g)
    chain = _derivative_chain(f, EVEN, g, 2, chain_buffers(g, 2))
    assert chain[0] is f
    d1 = derivative_array(f, EVEN, g.dr)
    assert chain[1].tobytes() == d1.tobytes()
    assert chain[2].tobytes() == derivative_array(d1, ODD, g.dr).tobytes()
    assert chain[2].tobytes() != derivative_array(d1, EVEN, g.dr).tobytes()


def test_derivative_order_limits():
    g = build_grid(r_max=2.0, n_cells=16)
    DiagnosticsCollector(g, MAX_DIAG_ORDER)
    with pytest.raises(ValueError):
        DiagnosticsCollector(g, MAX_DIAG_ORDER + 1)
    with pytest.raises(ValueError):
        DiagnosticsCollector(g, -1)


def test_parity_check_rejects_mismatch():
    g = build_grid(r_max=2.0, n_cells=16)
    with pytest.raises(ValueError):
        sample(g, lambda r: r**3 + r, EVEN)
    # same function accepted with the correct declaration
    f = sample(g, lambda r: r**3 + r, ODD)
    # the declaration is what the origin ghost uses: passed as even, the
    # derivative at cell 0 is off by about 1/2 instead of dr^2
    exact = 3.0 * g.r[0] ** 2 + 1.0
    assert abs(derivative_array(f, ODD, g.dr)[0] - exact) <= 1.01 * g.dr**2
    assert abs(derivative_array(f, EVEN, g.dr)[0] - exact) > 0.4


def test_parity_is_the_ghost_sign():
    # f(-r) = parity * f(r), so the derivative's parity is -parity
    assert (EVEN, ODD) == (1.0, -1.0)
    assert ODD == -EVEN


@pytest.mark.parametrize("parity", ["evn", "even", "odd", 0.5, 0.0])
def test_derivative_rejects_unknown_parity(parity):
    g = build_grid(r_max=2.0, n_cells=16)
    with pytest.raises(ValueError, match="parity"):
        derivative_array(gaussian(g), parity, g.dr)


def test_parity_field_validation():
    # a parity tag the kernels do not know is rejected by the derivative
    # chain, which the diagnostics use for every derivative order
    g = build_grid(r_max=2.0, n_cells=16)
    with pytest.raises(ValueError, match="parity"):
        _derivative_chain(gaussian(g), "diagonal", g, 2, chain_buffers(g, 2))


def test_length_mismatch_rejected():
    g = build_grid(r_max=2.0, n_cells=16)
    zero = np.zeros(8)
    state = State(a=zero, u=zero, theta=zero, t=0.0, params=PhysParams())
    with pytest.raises(ValueError):
        convective_rhs(state, g)
    # at kappa = 0 a step window narrower than both would hide the mismatch
    for kappa in (1.0, 0.0):
        mismatched = State(
            a=zero, u=zero, theta=zero, t=0.0, params=PhysParams(kappa=kappa)
        )
        with pytest.raises(ValueError):
            step(mismatched, g, dt=0.01)
