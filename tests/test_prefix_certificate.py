"""The certificate of a prefix solve, ``tridiag.certifies_prefix``.

A solve on the first m rows of a longer system, the last of them cut off
from the rows past it (the same diagonal, or one closed like a wall), is
certified when its right-hand side and its solution end in PREFIX_ROWS
+0.0 entries and every elimination factor there is at most 1/2.  Then the
longer system, given a +0.0 right-hand side past the prefix and solved
without row interchanges on positive pivots (as conduction rows of +0.0
data are), has the prefix's solution followed by +0.0.

Three families of systems are drawn.  Random M-matrices whose right-hand
sides end in subnormals and zeros of either sign.  A constant tail whose
factor lies in (1/2, 1): the smallest subnormal is a fixed point of dgtsv's
sweep, reaches the wall and comes back, so the certificate must decline.
And the proof's worst case: pivots of 2**48 (the conduction's dominance
bound), factors of exactly 1/2 and a right-hand side 2**47 units of the
least subnormal deep, which takes all PREFIX_ROWS rows to die out.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from radgas.tridiag import (  # noqa: E402
    PREFIX_ROWS,
    certifies_prefix,
    tridiagonal_solve,
)

TINY = 5e-324


def prefix_solve(lower, diag, upper, rhs, m, wall):
    """dgtsv on the first m rows, as the conduction solves a window: in
    place, with the certificate.  ``wall`` closes the last row's upper face."""
    lo, d, up, b = (x[:m].copy() for x in (lower, diag, upper, rhs))
    if wall:
        d[-1] -= abs(up[-1])
    up[-1] = 0.0
    k = PREFIX_ROWS
    zero_rhs = b[-k:].tobytes() == bytes(8 * k)
    tail = lo[1 - k :].copy()
    x = tridiagonal_solve(lo, d, up, b, True)
    return x, zero_rhs and certifies_prefix(tail, d, x)


def edge_values():
    return st.one_of(
        st.sampled_from([0.0, -0.0, TINY, -TINY, 2.0**-1030, 2.0**-1022]),
        st.floats(-(2.0**-1000), 2.0**-1000),
        st.floats(-1.0, 1.0),
    )


@st.composite
def m_matrices(draw):
    """(lower, diag, upper, rhs, m): an M-matrix whose row i + 1 couples to
    row i no more than row i couples to it, so dgtsv makes no interchange,
    and a right-hand side with normal data, then an edge of subnormals and
    signed zeros, then +0.0 to the end; m is past the data."""
    s = draw(st.integers(0, 12))
    edge = draw(st.lists(edge_values(), max_size=8))
    m = draw(st.integers(len(edge) + s + 1, len(edge) + s + PREFIX_ROWS + 12))
    m = max(m, PREFIX_ROWS + 1)
    n = m + draw(st.integers(1, 40))
    scale = draw(st.floats(-6.0, 4.0).map(lambda e: 2.0**e))
    coupling = st.floats(0.0, 1.0)
    upper = -scale * np.array(draw(st.lists(coupling, min_size=n, max_size=n)))
    shrink = np.array(draw(st.lists(coupling, min_size=n, max_size=n)))
    lower = np.concatenate(([0.0], upper[:-1] * shrink[1:]))
    upper[-1] = 0.0
    margin = np.array(draw(st.lists(st.floats(1e-3, 4.0), min_size=n, max_size=n)))
    diag = np.abs(lower) + np.abs(upper) + margin
    rhs = np.zeros(n)
    rhs[:s] = draw(st.lists(st.floats(-1.0, 1.0), min_size=s, max_size=s))
    rhs[s : s + len(edge)] = edge
    return lower, diag, upper, rhs, m


@settings(max_examples=400, deadline=None)
@given(m_matrices(), st.booleans())
def test_a_certified_prefix_solve_is_the_full_solve_then_zeros(system, wall):
    lower, diag, upper, rhs, m = system
    x, certified = prefix_solve(lower, diag, upper, rhs, m, wall)
    event("certified" if certified else "declined")
    if certified:
        full = tridiagonal_solve(lower, diag, upper, rhs)
        assert full[:m].tobytes() == x.tobytes()
        assert full[m:].tobytes() == bytes(8 * (full.shape[0] - m))


def constant_tail(alpha, n, support, wall_diag):
    """Rows -alpha, 1 + 2 alpha, -alpha, the last one closed with diagonal
    ``wall_diag``, and a right-hand side of 1.0 on the first ``support``."""
    lower, upper = np.full(n, -alpha), np.full(n, -alpha)
    lower[0] = upper[-1] = 0.0
    diag = np.full(n, 1.0 + 2.0 * alpha)
    diag[-1] = wall_diag
    rhs = np.zeros(n)
    rhs[:support] = 1.0
    return lower, diag, upper, rhs


def declining_tail(alpha, n, support):
    """A constant tail whose factor is in (1/2, 1) for alpha in (2, 3.5),
    closed by a wall row whose pivot is about 1.5."""
    d_inf = (1.0 + 2.0 * alpha + np.sqrt(1.0 + 4.0 * alpha)) / 2.0
    assert 0.5 < alpha / d_inf < 1.0
    return constant_tail(alpha, n, support, 1.5 + alpha * alpha / d_inf)


@settings(max_examples=60, deadline=None)
@given(st.floats(2.2, 3.4), st.integers(1, 20), st.booleans(), st.data())
def test_a_factor_above_one_half_is_declined(alpha, support, wall, data):
    # the least subnormal is a fixed point of the sweep: it reaches the wall
    # row, whose pivot below 2 keeps it, and the back substitution carries
    # it back, so the full solve differs from a prefix whose tail is +0.0
    n = 1600
    lower, diag, upper, rhs = declining_tail(alpha, n, support)
    full = tridiagonal_solve(lower, diag, upper, rhs)
    assert full[-1] == TINY
    m = data.draw(st.integers(support + PREFIX_ROWS, n - 1))
    x, certified = prefix_solve(lower, diag, upper, rhs, m, wall)
    assert not certified
    if x[-PREFIX_ROWS:].tobytes() == bytes(8 * PREFIX_ROWS):
        event("only the factor declines")
        assert full[:m].tobytes() != x.tobytes()


def worst_case(depth, head):
    """The proof's edge: ``depth`` rows of pivot 2**48 and factor exactly
    -1/2 before the prefix's last row, with the right-hand side ``head`` at
    the first of them; past the prefix, factors of 0.6 while the pivots fall
    by 0.7 a row to a wall pivot of 1.5.  Returns (lower, diag, upper, rhs,
    m), every row strictly dominant."""
    big, lead = 2.0**48, 3
    lower, diag, upper = [0.0] * (lead + 1), [1.0] * lead + [big], [0.0] * (lead + 1)
    for _ in range(depth - 1):  # the pivot stays 2**48 exactly: upper is 0
        lower.append(-big / 2.0)
        diag.append(big)
        upper.append(0.0)
    # the prefix's last row; past it, its upper face carries the sweep on
    lower.append(-big / 2.0)
    diag.append(2.0 * big + big / 4.0)
    upper.append(-1.5 * big)
    m, pivot = len(diag), diag[-1]
    while pivot > 1.5:
        couple = 0.6 * pivot
        target = max(0.7 * pivot, 1.5)
        lower.append(-couple)
        diag.append(target + couple * abs(upper[-1]) / pivot)
        upper.append(-0.6 * target)
        pivot = target
    upper[-1] = 0.0
    lower, diag, upper = (np.array(v) for v in (lower, diag, upper))
    assert np.all(diag > np.abs(lower) + np.abs(upper))
    rhs = np.zeros(diag.shape[0])
    rhs[lead] = head
    return lower, diag, upper, rhs, m


@pytest.mark.parametrize("depth", range(PREFIX_ROWS - 2, PREFIX_ROWS + 2))
@pytest.mark.parametrize("head", [2.0**-1026, 2.0**-1027, 2.0**-1026 - TINY])
def test_the_worst_case_needs_every_row(depth, head):
    # 2**48 units of 2**-1074 at a pivot of 2**48 halve to one unit in 48
    # rows and to +0.0 in the next: the certificate must reach back that
    # far, and a certified solve must hold on the full system.  It certifies
    # once the right-hand side's one entry lies before the last PREFIX_ROWS.
    lower, diag, upper, rhs, m = worst_case(depth, head)
    full = tridiagonal_solve(lower, diag, upper, rhs)
    outcomes = []
    for wall in (False, True):
        x, certified = prefix_solve(lower, diag, upper, rhs, m, wall)
        outcomes.append(certified)
        if certified:
            assert full[:m].tobytes() == x.tobytes()
            assert full[m:].tobytes() == bytes(8 * (full.shape[0] - m))
    assert outcomes == [depth >= PREFIX_ROWS] * 2
