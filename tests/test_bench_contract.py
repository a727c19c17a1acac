"""The library names the benchmark wraps and reads.

``perfbench/tracing.py`` replaces library functions by name for a traced
pass, and ``perfbench/checks.py`` reads the block cache after each query
and compares command outputs with ``cli._vec_json``.  A rename in the
library or a change of the output shape would otherwise break only the
benchmark runs and its self-test; here it fails the tests.
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
    import workloads
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


def test_cli_outputs_pass_the_benchmark_checks(capsys):
    def run(op):
        code = cli.main(op["argv"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        return out

    (op,), _ = workloads.generate("canonical-context", 0, "tiny")
    canonical.clear_caches()
    assert checks.canonical_context(op, run(op)) == []

    ops, _ = workloads.generate("kl-queries", 0, "tiny")
    first = {}
    for op in ops:
        first.setdefault(op["kind"], op)
    assert set(first) == {"klpoly", "klpoly-z", "canonical", "dualbasis", "twisted"}
    for op in first.values():
        canonical.clear_caches()  # as the benchmark runs each query
        out = run(op)
        assert checks.touched_blocks() + checks.p_positive(op, out) == []
        assert checks.kl_query(op, out) == []
