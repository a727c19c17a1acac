"""Block identity: ``column_counts`` against an sl_I weight summed entry by entry.

The reference weight reads the 01-entries through ``Matrix01.entry`` and
sums eps_j = w_j - w_(j-1), with w dropped outside I, over the 1-entries.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

import superkl.canonical as canon
from superkl.crystal import same_block
from superkl.weights import Interval, Matrix01, TypeNC, enumerate_weights, weight_of


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
    assert partition(weights, canon._block_key) == partition(
        weights, lambda lam: tuple(sorted(refs[lam].items())))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(finite_context(), st.integers(0, 10**6))
def test_direct_members_are_the_table_block(context, pick):
    table = canon.BlockTable(*context)
    if not table.weights:
        return
    lam = table.weights[pick % len(table.weights)]
    (block,) = [b for b in table.blocks if lam in b.members]
    assert set(canon._block_members_direct(lam)) == set(block.members)
