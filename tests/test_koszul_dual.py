"""Koszul duality: p_{lam,mu}(q) = d_{T(mu),T(lam)}(q) with T = ``koszul_dual``.

The identity is checked on every pair of every block of the two benchmark
contexts (acceptance criterion 13 sweeps the acceptance contexts), and
``dual_canonical``, which reads one d row of the dual block, against the
column of p it replaced.  The plain transpose, without the column
reversal, is the negative control.  The property tests check that T is a
bijection of blocks and that T twice turns a 01-matrix by 180 degrees.
"""

import pytest
from conftest import duality_failures, p_column
from hypothesis import given, settings
from hypothesis import strategies as st

from superkl import canonical as canon
from superkl.errors import TypeMismatch
from superkl.weights import (
    Interval,
    Matrix01,
    TypeNC,
    enumerate_weights,
    koszul_dual,
    koszul_dual_inverse,
    parse_matrix,
    weight_count,
)

BENCH_CONTEXTS = [(Interval.finite(0, 2), TypeNC((2, 2, 2, 2), (0, 1, 0, 1))),
                  (Interval.finite(0, 4), TypeNC((2, 2, 2), (0, 0, 0)))]


def plain_transpose(lam: Matrix01) -> Matrix01:
    """T without the column reversal: the negative control."""
    level = lam.tnc.level
    rows = tuple(tuple(i for i in range(level) if lam.entry(i, j))
                 for j in lam.interval.cols())
    return Matrix01(Interval.finite(0, level - 2),
                    TypeNC(tuple(map(len, rows)), (0,) * len(rows)), rows)


@pytest.mark.parametrize("interval, tnc", BENCH_CONTEXTS,
                         ids=lambda x: x.text() if isinstance(x, Interval) else None)
def test_duality_on_the_benchmark_contexts(interval, tnc):
    canon.clear_caches()
    assert duality_failures(interval, tnc) == []
    for mu in enumerate_weights(interval, tnc):
        assert canon.dual_canonical(mu).terms == p_column(mu), mu.text()
    canon.clear_caches()


def test_the_plain_transpose_fails():
    canon.clear_caches()
    interval, tnc = Interval.finite(0, 3), TypeNC((2, 2), (0, 0))
    assert duality_failures(interval, tnc, plain_transpose)
    assert duality_failures(interval, tnc) == []


def test_level_below_2_reads_the_monomial():
    for tnc in (TypeNC((), ()), TypeNC((2,), (1,))):
        for mu in enumerate_weights(Interval.finite(0, 2), tnc):
            assert canon.dual_canonical(mu).terms == p_column(mu)
            with pytest.raises(ValueError, match="level >= 2"):
                koszul_dual(mu)


def test_the_inverse_refuses_a_weight_outside_the_image():
    interval, tnc = Interval.finite(0, 1), TypeNC((1, 1, 1), (0, 1, 0))
    lam = parse_matrix("001/011/100", interval, tnc)
    nu = koszul_dual(lam)
    assert nu.text() == "@0:110/010/001"
    assert koszul_dual_inverse(nu, interval, tnc) == lam
    with pytest.raises(TypeMismatch):
        koszul_dual_inverse(nu, interval, TypeNC((2, 1, 1), (0, 1, 0)))
    with pytest.raises(TypeMismatch):
        koszul_dual_inverse(nu, Interval.finite(0, 2), tnc)


@st.composite
def random_context(draw):
    """A finite context of level 2 to 4 over 2 to 5 columns, of dimension <= 400."""
    lo = draw(st.integers(-2, 2))
    interval = Interval.finite(lo, lo + draw(st.integers(0, 3)))
    ncols = interval.n_cols()
    level = draw(st.integers(2, 4))
    n = draw(st.lists(st.integers(0, ncols), min_size=level, max_size=level))
    c = draw(st.lists(st.integers(0, 1), min_size=level, max_size=level))
    tnc = TypeNC(tuple(n), tuple(c))
    while weight_count(interval, tnc) > 400:
        n[n.index(max(n, key=lambda ni: min(ni, ncols - ni)))] = 0
        tnc = TypeNC(tuple(n), tuple(c))
    return interval, tnc


def checked(lam: Matrix01) -> Matrix01:
    """lam rebuilt by the validating constructor: T, T^-1 and the direct
    block generator build their weights without it."""
    return Matrix01(lam.interval, lam.tnc, lam.devs)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(random_context())
def test_t_maps_each_block_onto_one_dual_block(context):
    canon.clear_caches()
    for block in canon.BlockTable(*context).blocks:
        images = {koszul_dual(m) for m in block.members}
        dual_block = canon.block_data(koszul_dual(block.members[0]))
        assert len(images) == block.size == dual_block.size
        assert images == set(dual_block.members) == set(map(checked, images))
        assert list(map(checked, dual_block.members)) == list(dual_block.members)
    canon.clear_caches()


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(random_context())
def test_t_inverts_and_twice_turns_the_matrix(context):
    interval, tnc = context
    cols = interval.cols()
    level, ncols = tnc.level, len(cols)
    for lam in enumerate_weights(interval, tnc):
        back = koszul_dual_inverse(koszul_dual(lam), interval, tnc)
        assert back == lam == checked(back)
        turned = koszul_dual(koszul_dual(lam))
        assert turned.interval == Interval.finite(0, ncols - 2)
        assert [[turned.entry(i, j) for j in range(ncols)] for i in range(level)] == \
            [[lam.entry(level - 1 - i, cols[ncols - 1 - j]) for j in range(ncols)]
             for i in range(level)]
