"""Block identity: ``column_counts`` against an sl_I weight summed entry by entry.

The reference weight reads the 01-entries through ``Matrix01.entry`` and
sums eps_j = w_j - w_(j-1), with w dropped outside I, over the 1-entries.
``BlockTable`` groups weights by ``canonical._packed_keys``, which must
part every context exactly as ``column_counts`` does.
"""

from collections import defaultdict

from conftest import block_key, sweep_contexts
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import superkl.canonical as canon
import superkl.weights as weights_module
from superkl.crystal import same_block
from superkl.weights import (
    Interval,
    Matrix01,
    TypeNC,
    column_counts,
    enumerate_weights,
    weight_count,
    weight_of,
)


def reference_weight(lam: Matrix01) -> dict[int, int]:
    """The sl_I weight of lam, summed over its entries.

    Over a finite interval every 1-entry of I_+ is summed.  Over an
    infinite one a row of baseline 1 has infinitely many 1-entries, so each
    row is summed against its baseline row, whose weight is zero: only the
    deviation columns, where the entry differs from the baseline, count.
    """
    iv = lam.interval
    finite = iv.is_finite()
    cols = iv.cols() if finite else lam.all_dev_cols()
    out: dict[int, int] = defaultdict(int)
    for i, ci in enumerate(lam.tnc.c):
        for j in cols:
            e = lam.entry(i, j) - (0 if finite else ci)
            if j in iv:
                out[j] += e
            if j - 1 in iv:
                out[j - 1] -= e
    return {k: v for k, v in out.items() if v}


def partition(weights, key) -> set[frozenset]:
    groups = defaultdict(set)
    for lam in weights:
        groups[key(lam)].add(lam)
    return {frozenset(g) for g in groups.values()}


@st.composite
def finite_context(draw):
    """A finite context over at most 4 columns and of level at most 3."""
    lo = draw(st.integers(-2, 2))
    interval = Interval.finite(lo, lo + draw(st.integers(0, 2)))
    level = draw(st.integers(1, 3))
    n = draw(st.lists(st.integers(0, interval.n_cols()), min_size=level, max_size=level))
    c = draw(st.lists(st.integers(0, 1), min_size=level, max_size=level))
    return interval, TypeNC(tuple(n), tuple(c))


@st.composite
def weight_set(draw):
    """All weights of a finite context, or a few weights over an infinite one.

    The infinite weights deviate only in a few columns, so that several of
    them share a block.
    """
    if draw(st.booleans()):
        return enumerate_weights(*draw(finite_context()))
    lo = draw(st.integers(-2, 2))
    interval = draw(st.sampled_from([Interval.all_z(), Interval.half_up(lo),
                                     Interval.half_down(lo)]))
    cols = [j for j in range(lo - 2, lo + 3) if interval.contains_col(j)]
    level = draw(st.integers(1, 3))
    tnc = TypeNC(tuple(draw(st.lists(st.integers(0, 3), min_size=level, max_size=level))),
                 tuple(draw(st.lists(st.integers(0, 1), min_size=level, max_size=level))))
    rows = [st.permutations(cols).map(lambda p, ni=ni: tuple(sorted(p[:ni])))
            for ni in tnc.n]
    return draw(st.lists(st.tuples(*rows).map(lambda devs: Matrix01(interval, tnc, devs)),
                         min_size=1, max_size=12))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(weight_set())
def test_block_key_and_weight_of_match_the_reference_weight(weights):
    refs = {lam: reference_weight(lam) for lam in weights}
    for lam in weights:
        assert dict(weight_of(lam)) == refs[lam]
        assert same_block(weights[0], lam) == (refs[weights[0]] == refs[lam])
    # blocks, and with them the registry key, exist over finite intervals only;
    # there the key is the context and the sorted column counts
    counts = {lam: tuple(sorted(column_counts(lam).items())) for lam in weights}
    if weights[0].interval.is_finite():
        assert all(block_key(lam) == (lam.interval, lam.tnc, counts[lam]) for lam in weights)
    assert partition(weights, counts.__getitem__) == partition(
        weights, lambda lam: tuple(sorted(refs[lam].items())))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(finite_context(), st.integers(0, 10**6))
def test_direct_members_are_the_table_block(context, pick):
    table = canon.BlockTable(*context)
    if not table.weights:
        return
    lam = table.weights[pick % len(table.weights)]
    (block,) = [b for b in table.blocks if lam in b.members]
    assert set(canon._block_members_direct(lam)) == set(block.monomials)
    assert set(block.monomials) == set(map(canon._monomial, block.members))


def counts_partition(weights) -> set[frozenset]:
    return partition(weights, lambda lam: tuple(sorted(column_counts(lam).items())))


def test_packed_keys_are_the_column_counts_on_the_acceptance_contexts():
    for interval, tnc in sweep_contexts():
        weights = enumerate_weights(interval, tnc)
        packed, monomials = canon._packed_keys(interval, tnc)
        keys = dict(zip(weights, packed, strict=True))
        assert partition(weights, keys.__getitem__) == counts_partition(weights)
        assert monomials == list(map(canon._monomial, weights))


@st.composite
def wide_context(draw):
    """A finite context of level 1 to 5, rows of both polarities, many full or empty."""
    lo = draw(st.integers(-3, 3))
    interval = Interval.finite(lo, lo + draw(st.integers(0, 2)))
    z, level = interval.n_cols(), draw(st.integers(1, 5))
    row = st.tuples(st.one_of(st.sampled_from([0, z]), st.integers(0, z)), st.integers(0, 1))
    rows = draw(st.lists(row, min_size=level, max_size=level))
    tnc = TypeNC(tuple(n for n, _ in rows), tuple(c for _, c in rows))
    assume(weight_count(interval, tnc) <= 3000)
    return interval, tnc


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(wide_context())
def test_packed_keys_are_the_column_counts(context):
    weights = enumerate_weights(*context)
    packed, monomials = canon._packed_keys(*context)
    keys = dict(zip(weights, packed, strict=True))
    assert partition(weights, keys.__getitem__) == counts_partition(weights)
    assert monomials == list(map(canon._monomial, weights))


def test_block_table_blocks_and_registry_keys_are_the_column_count_groups():
    # the grouping by sorted column_counts, one registry key per group
    for interval, tnc in [*sweep_contexts(max_dim=200, max_cols=4),
                          (Interval.finite(0, 3), TypeNC((2, 2, 2, 2), (0, 1, 0, 1)))]:
        canon.clear_caches()
        groups = defaultdict(set)
        for lam in enumerate_weights(interval, tnc):
            groups[block_key(lam)].add(lam)
        table = canon.BlockTable(interval, tnc)
        assert {block_key(b.members[0]): set(b.members) for b in table.blocks} == groups
        assert all(canon._single_block_cache[block_key(b.members[0])] is b
                   for b in table.blocks)
        weights = [sorted(b.weight.items()) for b in table.blocks]
        assert weights == sorted(weights)
    canon.clear_caches()


def test_block_table_reads_column_counts_per_block_not_per_weight(monkeypatch):
    # a block's registry key is the column counts of its first packed member
    calls = {"column_counts": 0, "_packed_block_key": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(canon, "_packed_block_key",
                        counted("_packed_block_key", canon._packed_block_key))
    monkeypatch.setattr(weights_module, "column_counts", counted("column_counts", column_counts))
    context = Interval.finite(0, 3), TypeNC((2, 2, 2, 2), (0, 1, 0, 1))
    canon.clear_caches()
    table = canon.BlockTable(*context)
    # one registry key per block built, which also gives its sl_I weight
    assert calls == {"column_counts": 0, "_packed_block_key": len(table.blocks)}
    assert len(table.blocks) < len(table.monomials) // 10
    calls.update(dict.fromkeys(calls, 0))
    assert canon.BlockTable(*context).blocks == table.blocks
    # warm: one registry key per block
    assert calls == {"column_counts": 0, "_packed_block_key": len(table.blocks)}
    canon.clear_caches()
