"""The benchmark in perfbench/ finds every function it measures.

perfbench resolves its targets by module and attribute name, and a target
that is gone turns its per-layer metrics into null instead of failing.
These tests make such a rename fail here instead.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import probes  # noqa: E402


def test_every_traced_span_resolves():
    assert probes.Tracer().missing == []


@pytest.mark.parametrize("stem", sorted(probes.SIZED_PROBES))
def test_sized_probe_builds_and_runs_its_call(stem):
    # built at the smallest benchmark size and run once, untimed
    call = probes.SIZED_PROBES[stem](1000)
    call()
