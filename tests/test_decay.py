"""The small-data regime decays at the diffusion-wave rate.

Linearised about (1, 0, 1), the radial velocity is irrotational, so with
conduction every mode is diffusive at low frequency: for L^1 and H^s data
in R^3 the quadratic Lyapunov functional decays like (1+t)^(-3/2) and
||theta_r||^2 like (1+t)^(-5/2) (Matsumura & Nishida 1979; Kawashima 1987;
Hoff & Zumbrun 1995).  Without conduction the energy is conserved, and the
little that the scheme and its filter lose goes to 0 under refinement.

The exponents are least-squares slopes of log L and log ||theta_r||^2
against log(1+t) over t in [20, 45] of the small-data-global settings on
coarse meshes.
"""

import numpy as np
import pytest

from radgas import CRANK_NICOLSON, ListSink, RunConfig, run


def decay_exponents(kappa, n_cells, family="gaussian-bump"):
    """(L exponent, ||theta_r||^2 exponent) of one run."""
    config = RunConfig(
        eps=1e-3,
        kappa=kappa,
        r_max=100.0,
        n_cells=n_cells,
        t_end=50.0,
        init_family=family,
        output_every=10,
        diffusion_scheme=CRANK_NICOLSON,
        filter_coeff=0.01,
    )
    sink = ListSink()
    assert run(config, sink).termination_reason == "time-complete"
    fit = [r for r in sink.records if 20.0 <= r.t <= 45.0]
    x = np.log1p([r.t for r in fit])
    return tuple(
        np.polyfit(x, np.log([getattr(r, name) for r in fit]), 1)[0]
        for name in ("lyapunov", "grad_theta_sq")
    )


@pytest.mark.parametrize("family", ["gaussian-bump", "compact-bump"])
def test_conduction_decays_at_the_diffusion_wave_rate(family):
    # measured: Gaussian -1.56 / -2.60, compact bump -1.46 / -2.43
    coarse, fine = (decay_exponents(1.0, n, family) for n in (500, 1000))
    for lyapunov, grad_theta_sq in (coarse, fine):
        assert -1.75 <= lyapunov <= -1.35
        assert -2.9 <= grad_theta_sq <= -2.3
    np.testing.assert_allclose(coarse, fine, rtol=0.0, atol=0.05)


def test_without_conduction_the_energy_does_not_decay():
    # measured: -0.079 / -0.155 at n = 1000, -0.015 / -0.030 at n = 2000
    coarse, fine = (decay_exponents(0.0, n) for n in (1000, 2000))
    assert abs(coarse[0]) < 0.1 and abs(fine[0]) < 0.1
    for c, f in zip(coarse, fine):
        assert 3.0 * abs(f) <= abs(c)
