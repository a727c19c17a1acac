"""The library names the benchmark wraps and reads.

``perfbench/tracing.py`` replaces library functions by name for a traced
pass, and ``perfbench/checks.py`` reads the block cache after each query.
A rename in the library would otherwise break only traced benchmark runs
and the benchmark self-test; here it fails the tests.
"""

import sys
from pathlib import Path

from superkl import canonical, cli, crystal, weights
from superkl.weights import Interval, TypeNC, enumerate_weights

_PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    import checks
    import tracing
finally:
    sys.path.remove(_PERFBENCH)


def test_traced_queries_and_restore():
    interval, tnc = Interval.finite(0, 2), TypeNC((2, 1, 1), (0, 1, 0))
    lam = enumerate_weights(interval, tnc)[5]
    originals = [(module, name, getattr(module, name))
                 for module in (weights, canonical, crystal, cli)
                 for name in ("enumerate_weights", "order_leq") if hasattr(module, name)]
    init = canonical.BlockTable.__init__
    canonical.clear_caches()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        canonical.kl_d(lam, lam)
        table = canonical.block_table(interval, tnc)
    finally:
        restore()
    counts = tracer.counts
    assert counts["canonical.blocks"] == 1 + len(table.blocks)
    assert counts["canonical.d_nonzeros"] > 0
    assert counts["weights.enumerate_count"] == len(table.weights)
    assert canonical.BlockTable.__init__ is init
    assert all(getattr(module, name) is fn for module, name, fn in originals)

    block = canonical.block_data(lam)
    assert any(b is block for b in canonical._single_block_cache.values())
    assert any(b is block for b in table.blocks)
    assert checks.touched_blocks() == []
