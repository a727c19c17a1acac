"""The library names the benchmark wraps and reads.

``perfbench/tracing.py`` replaces library functions by name for a traced
pass, and ``perfbench/checks.py`` reads the block cache after each query
and compares command outputs with ``cli._vec_json``.  A rename in the
library or a change of the output shape would otherwise break only the
benchmark runs and its self-test; here it fails the tests.
"""

import hashlib
import json
import sys
from pathlib import Path

from superkl import canonical, cli, crystal, klr, superweights, weights
from superkl.weights import Interval, TypeNC, enumerate_weights

_PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    import checks
    import tracing
    import workloads
finally:
    sys.path.remove(_PERFBENCH)

# every (module, name) that tracing.install replaces by name, read with
# getattr below: a name missing from one of them fails here, not only in a
# traced pass
WRAPPED_BY_NAME = [(module, "enumerate_weights") for module in (weights, canonical, crystal, cli)]
WRAPPED_BY_NAME += [(module, "order_leq") for module in (weights, canonical, cli)]
# every (owner, name) that tracing.install patches
PATCHED = [(canonical.BlockData, name) for name in ("psi_matrix", "d_matrix", "p_matrix")]
PATCHED += [(canonical.BlockTable, "__init__"), (canonical, "_block_members_direct"),
            (canonical, "kl_d_stable"), (cli, "_emit"), (crystal, "crystal_edges"),
            (crystal, "_component"), (superweights, "bruhat_leq"),
            (klr, "verify_relations")]
PATCHED += WRAPPED_BY_NAME


def test_traced_queries_and_restore():
    interval, tnc = Interval.finite(0, 2), TypeNC((2, 1, 1), (0, 1, 0))
    lam = enumerate_weights(interval, tnc)[5]
    originals = [(module, name, getattr(module, name)) for module, name in WRAPPED_BY_NAME]
    init = canonical.BlockTable.__init__
    canonical.clear_caches()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        canonical.canonical_basis(lam)
        table = canonical.BlockTable(interval, tnc)
        weights = table.weights  # enumerated on first read
    finally:
        restore()
    counts = tracer.counts
    assert counts["canonical.blocks"] == 1 + len(table.blocks)
    assert counts["canonical.d_nonzeros"] > 0
    assert counts["weights.enumerate_count"] == len(weights)
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


def test_traced_canonical_context_with_core_blocks(capsys):
    # d_matrix of a reduced block calls d_matrix of its core through the
    # tracer's wrapper; the checks then read blocks and cores from the cache
    originals = [getattr(owner, name) for owner, name in PATCHED]
    (op,), _ = workloads.generate("canonical-context", 0, "tiny")
    canonical.clear_caches()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        code = cli.main(op["argv"])
    finally:
        restore()
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert [getattr(owner, name) for owner, name in PATCHED] == originals
    assert tracer.counts["canonical.d_nonzeros"] > 0
    solve = tracer.layer_index["canonical.d_solve"]
    assert any(layer == solve and tracer.layer[tracer.parent[i]] == solve
               for i, layer in enumerate(tracer.layer) if tracer.parent[i] >= 0)

    cache = list(canonical._single_block_cache.values())
    assert any(block.core()[0] is not block for block in cache)
    assert checks.canonical_context(op, out) == []
    assert checks.touched_blocks() == []


def test_traced_canonical_context_with_mirrored_cores(capsys):
    # a type that reads the same reversed: a block and its omega-image share
    # one core, and a core that omega maps onto itself reads half its psi and
    # d rows off their mirror rows, with the tracer's wrappers in place
    interval, tnc = Interval.finite(0, 2), TypeNC((2, 2, 2), (0, 0, 0))
    argv = ["canonical", "--interval", "0:2", "--n", "2,2,2", "--c", "0,0,0", "--threads", "1"]
    originals = [getattr(owner, name) for owner, name in PATCHED]
    canonical.clear_caches()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        restore()
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert [getattr(owner, name) for owner, name in PATCHED] == originals
    assert tracer.counts["canonical.d_nonzeros"] > 0

    blocks = [b for b in canonical.BlockTable(interval, tnc).blocks if b.size > 1]
    cores = [b.core()[0] for b in blocks]
    assert any(core._mirror is not None and core is not b for b, core in zip(blocks, cores))
    assert any(core._mirror is not None and core is b for b, core in zip(blocks, cores))
    # a block with no frozen column whose omega-image has the smaller key reads it
    assert any(b.size > 3 and core is not b and core.tnc == tnc and core.interval == interval
               for b, core in zip(blocks, cores))
    op = {"argv": argv, "sample": [b.members[0].text() for b in blocks if b.size > 3]}
    assert checks.canonical_context(op, out) == []
    assert checks.touched_blocks() == []


def test_traced_tiny_orders_pass_keeps_its_counts(capsys):
    # the relations checked, the size of kappa's component and the blocks
    # registered on a tiny orders pass are facts of its inputs, however the
    # blocks are sorted, the closure is walked or the relations are
    # compared; every patched name is put back
    originals = [getattr(owner, name) for owner, name in PATCHED]
    ops, _ = workloads.generate("orders", 0, "tiny")
    canonical.clear_caches()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        codes = [cli.main(op["argv"]) for op in ops]
    finally:
        restore()
    _, err = capsys.readouterr()
    assert set(codes) == {0} and err == ""
    assert [getattr(owner, name) for owner, name in PATCHED] == originals
    counts = tracer.counts
    assert (counts["klr.relations_checked"], counts["crystal.component_size"],
            counts["canonical.blocks"]) == (60, 8, 19)
    for layer in ("klr.verify", "crystal.component", "canonical.block_build", "cli.emit"):
        assert tracer.layer_index[layer] in tracer.layer, layer


def test_traced_klpoly_over_z_opens_a_stable_window_span(capsys):
    canonical.clear_caches()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        code = cli.main(["klpoly", "--interval", "z", "--n", "1,1", "--c", "0,0",
                         "--matrix", "@0:10/01", "--mu", "@0:01/10"])
    finally:
        restore()
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert tracer.layer_index["canonical.stable_window"] in tracer.layer


def test_traced_poset_reads_the_block_table_and_the_oracle_does_not(capsys):
    # poset reads each block's order table; the oracle keeps to order_leq
    leq = tracing.Tracer().layer_index["weights.order_leq"]
    canonical.clear_caches()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        code = cli.main(["poset", "--interval", "0:2", "--n", "2,1,2", "--c", "0,1,0"])
        oracle_before = len(tracer.layer)
        block = next(b for b in canonical._single_block_cache.values() if b.size > 1)
        canonical.canonical_basis_direct(block.members[0])
    finally:
        restore()
    capsys.readouterr()
    assert code == 0
    assert leq not in tracer.layer[:oracle_before]
    assert leq in tracer.layer[oracle_before:]


def test_traced_crystal_counts_the_edges_it_prints(capsys):
    edges = tracing.Tracer().layer_index["crystal.edges"]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        code = cli.main(["crystal", "--interval", "0:2", "--n", "2,1", "--c", "0,1"])
    finally:
        restore()
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert edges in tracer.layer
    printed = json.loads(out)["edges"]
    assert printed and tracer.counts["crystal.edges_count"] == len(printed)


def test_full_size_orders_outputs_match_the_benchmark_pins(capsys):
    # the bytes of every seed-0 orders command at full size, not only "ok":
    # the sha256 the benchmark pins, on every Python the tests run on
    pins = json.loads((Path(_PERFBENCH) / "digests.json").read_text())["full"]["orders"]
    ops, _ = workloads.generate("orders", 0, "full")
    assert len(ops) == len(pins) == 34
    assert {op["kind"] for op in ops} >= {"poset", "crystal", "blocks", "prinjective",
                                         "prinjective-z", "klr-verify"}
    assert pins["klr-verify --interval 0:3 --d 3 --threads 1"].startswith("025a9731")
    for op in ops:
        code = cli.main(op["argv"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), op["label"]
        assert hashlib.sha256(out.encode()).hexdigest() == pins[op["label"]], op["label"]


def test_full_size_kl_queries_pass_reads_its_pinned_psi_rows(capsys, monkeypatch):
    # the seed-0 kl-queries commands with cold caches, as the benchmark runs
    # them: each output matches its pin, and the pass reads 503 psi rows from
    # the kernel (661 when a point query read the psi rows of members outside
    # its order interval and of its last column).  A count, not a time, so a
    # change that brings those reads back fails here
    pins = json.loads((Path(_PERFBENCH) / "digests.json").read_text())["full"]["kl-queries"]
    ops, _ = workloads.generate("kl-queries", 0, "full")
    assert len(ops) == len(pins) == 80
    kernel, calls = canonical._psi_kernel, []

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(canonical, "_psi_kernel", counting)
    for op in ops:
        canonical.clear_caches()
        code = cli.main(op["argv"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), op["label"]
        assert hashlib.sha256(out.encode()).hexdigest() == pins[op["label"]], op["label"]
    canonical.clear_caches()
    assert len(calls) == 503
