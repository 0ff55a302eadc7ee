"""Second-order radial derivative kernel on the cell-centered mesh.

Fields extend across the origin either evenly (scalars such as a and theta)
or oddly (the radial velocity component); the caller passes that parity to
the kernel.  The stencil near r = 0 is closed by parity reflection, which is
exact for data of the given parity because the first cell centers mirror
across the origin.  At the outer edge it switches to a one-sided
second-order form, so the derivative stays O(dr^2) in the interior sup norm
for smooth fields that do not vanish at r_max.
"""

from __future__ import annotations

import numpy as np

EVEN = "even"
ODD = "odd"
PARITIES = (EVEN, ODD)


def flip_parity(parity: str) -> str:
    """Parity of the derivative of a field with the given parity."""
    if parity == EVEN:
        return ODD
    if parity == ODD:
        return EVEN
    raise ValueError(f"unknown parity {parity!r}; expected one of {PARITIES}")


def derivative_array(values: np.ndarray, parity: str, dr: float) -> np.ndarray:
    """d/dr of cell-centered values: central interior, parity ghost at r=0,
    one-sided second-order at the outer edge.  Array-level kernel."""
    n = values.shape[0]
    out = np.empty(n)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dr)
    # Ghost at -dr/2 is +f[0] for even fields and -f[0] for odd fields.
    sign = 1.0 if parity == EVEN else -1.0
    out[0] = (values[1] - sign * values[0]) / (2.0 * dr)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dr)
    return out
