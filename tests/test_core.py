"""Block cores: deleting frozen columns, one solve per core, and its oracles.

Every reduced block is checked against the unreduced solve of the same
block (``BlockData._solve_d``, which reads the unreduced psi matrix) and
against an inverse computed by the plain triple loop below.
"""

import gc
import itertools
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sweep_contexts

import superkl.canonical as canon
from superkl import cli
from superkl.errors import SuperklError
from superkl.laurent import one, zero
from superkl.qmodule import ModuleVec
from superkl.weights import (
    Interval,
    TypeNC,
    equivalent_type,
    parse_matrix,
    weight_count,
)


def reference_inverse(d):
    """The inverse of a unitriangular matrix, entry by entry (O(size^3))."""
    size = len(d)
    inv = [dict() for _ in range(size)]
    for a in range(size - 1, -1, -1):
        inv[a][a] = one
        for b in range(a + 1, size):
            s = zero
            for k in range(a + 1, b + 1):
                dk = d[a].get(k)
                if dk is None:
                    continue
                ik = inv[k].get(b)
                if ik is not None:
                    s = s + dk * ik
            if s:
                inv[a][b] = -s
    return inv


def reduced_members(block):
    """The members with their frozen columns deleted, read off the text form."""
    rows = [m.row_strings() for m in block.members]
    ncols = len(rows[0][0])
    kept = [k for k in range(ncols)
            if len({tuple(r[i][k] for i in range(len(r))) for r in rows}) > 1]
    interval = Interval.finite(0, len(kept) - 2)
    c = block.tnc.c
    cut = [["".join(row[k] for k in kept) for row in r] for r in rows]
    tnc = TypeNC(tuple(sum(ch != str(ci) for ch in row) for row, ci in zip(cut[0], c)), c)
    return [parse_matrix("/".join(r), interval, tnc) for r in cut]


def check_core(block):
    """The core of one block against the unreduced solve; returns the core."""
    core, pos = block.core()
    if block.size > 1:
        reduced = reduced_members(block)
        assert len(reduced) == block.size
        assert [core.members[x] for x in pos] == reduced, block.members[0].text()
        assert set(canon._block_members_direct(reduced[0])) == set(reduced)
    d = block._solve_d()
    assert block.d_matrix() == d, block.members[0].text()
    p = reference_inverse(d)
    assert canon._invert_unitriangular(d) == p
    assert block.p_matrix() == p, block.members[0].text()
    return core


def oracle_contexts():
    yield from sweep_contexts()
    for interval, tnc in ((Interval.finite(0, 0), TypeNC((1, 1), (0, 0))),
                          (Interval.finite(0, 1), TypeNC((2, 1), (0, 1))),
                          (Interval.finite(0, 1), TypeNC((1, 1, 2), (0, 1, 0)))):
        for rsize in range(tnc.level + 1):
            for flips in itertools.combinations(range(tnc.level), rsize):
                yield interval, equivalent_type(tnc, interval, flips)
    yield Interval.finite(0, 4), TypeNC((2, 2, 2), (0, 0, 0))
    yield Interval.finite(0, 5), TypeNC((2, 2, 2), (0, 0, 0))
    yield Interval.finite(0, 2), TypeNC((2, 2, 2, 2), (0, 1, 0, 1))


def test_every_core_matches_the_unreduced_solve():
    t0 = time.time()
    blocks = reduced = 0
    for interval, tnc in oracle_contexts():
        canon.clear_caches()
        for block in canon.block_table(interval, tnc).blocks:
            blocks += 1
            reduced += check_core(block) is not block
    assert reduced > 0
    print(f"{blocks} blocks, {reduced} reduced, checked in {time.time() - t0:.1f}s")


def test_cores_are_shared_through_the_registry(monkeypatch, tmp_path):
    interval, tnc = Interval.finite(0, 4), TypeNC((2, 2, 2), (0, 0, 0))
    canon.clear_caches()
    blocks = canon.block_table(interval, tnc).blocks
    cores = [b.core()[0] for b in blocks]
    by_key = {}
    for block, core in zip(blocks, cores):
        by_key.setdefault(canon._block_key(core.members[0]), []).append(core)
    # two blocks with equal cores share one core object
    shared = next(group for group in by_key.values() if len(group) > 1)
    assert all(core is shared[0] for core in shared)
    # a block with no frozen column is its own core
    assert any(core is b and b.size > 1 for b, core in zip(blocks, cores))
    for block, core in zip(blocks, cores):
        # block_data on a core member returns the registered core object
        assert canon.block_data(core.members[-1]) is core
        assert canon._single_block_cache[canon._block_key(core.members[0])] is core

    # whole-context canonical solves one block per core: 31 of 336
    solved = []
    solve_d = canon.BlockData._solve_d

    def counting(block):
        solved.append(block)
        return solve_d(block)

    canon.clear_caches()
    monkeypatch.setattr(canon.BlockData, "_solve_d", counting)
    assert cli.main(["canonical", "--interval", "0:4", "--n", "2,2,2", "--c", "0,0,0",
                     "--out", str(tmp_path / "out.json")]) == 0
    assert len(blocks) == 336
    assert len(solved) == len({id(b) for b in solved}) == 31
    assert all(b.core()[0] is b for b in solved)
    assert len(canon._single_block_cache) > 336

    # clear_caches drops the cores with the blocks
    canon.clear_caches()
    assert not canon._single_block_cache
    assert canon.block_data(solved[0].members[0]) is not solved[0]


def test_clear_caches_frees_blocks_and_cores_without_a_gc_pass():
    # a fresh CLI process starts with empty caches; a long-lived one must
    # get there by clear_caches alone, or memory grows query by query
    canon.clear_caches()
    blocks = canon.block_table(Interval.finite(0, 2), TypeNC((2, 1, 1), (0, 1, 0))).blocks
    for block in blocks:
        block.p_matrix()
    refs = [weakref.ref(b) for b in canon._single_block_cache.values()]
    assert len(refs) > len(blocks)
    gc.disable()
    try:
        del blocks, block
        canon.clear_caches()
        assert not any(ref() for ref in refs)
    finally:
        gc.enable()


def test_a_registered_core_with_other_members_is_refused():
    interval, tnc = Interval.finite(0, 4), TypeNC((2, 2, 2), (0, 0, 0))
    canon.clear_caches()
    blocks = canon.block_table(interval, tnc).blocks
    block, core = next((b, b.core()[0]) for b in blocks if b.size > 2 and b.core()[0] is not b)
    key = canon._block_key(core.members[0])
    canon.clear_caches()
    canon._single_block_cache[key] = canon.BlockData(core.interval, core.tnc, core.weight,
                                                     core.members[:-1])
    fresh = canon.BlockData(block.interval, block.tnc, block.weight, block.members)
    with pytest.raises(SuperklError, match="and its core differ in members"):
        fresh.d_matrix()


@st.composite
def random_context(draw):
    """A finite context of level <= 4 over <= 6 columns and dimension <= 2000.

    No row is all baseline or all deviation: such a row is frozen in
    every block, a case the oracle sweep covers.
    """
    interval = Interval.finite(0, draw(st.integers(0, 4)))
    ncols = interval.n_cols()
    level = draw(st.integers(1, 4))
    n = draw(st.lists(st.integers(1, ncols - 1), min_size=level, max_size=level))
    c = draw(st.lists(st.integers(0, 1), min_size=level, max_size=level))
    while weight_count(interval, TypeNC(tuple(n), tuple(c))) > 2000:
        n[n.index(max(n, key=lambda ni: min(ni, ncols - ni)))] = 1
    return interval, TypeNC(tuple(n), tuple(c))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(random_context(), st.integers(0, 10**6), st.integers(0, 10**6))
def test_random_block_core_matches_the_unreduced_solve(context, pick_block, pick_member):
    canon.clear_caches()
    blocks = canon.block_table(*context).blocks
    blocks = [b for b in blocks if b.size > 1] or blocks
    block = blocks[pick_block % len(blocks)]
    core = check_core(block)
    assert set(canon._block_members_direct(core.members[0])) == set(core.members)
    member = block.members[pick_member % block.size]
    assert canon.bar_psi(canon.psi_monomial(member)) == ModuleVec.monomial(member)


def test_whole_context_budget_names_the_first_weight_in_enumeration_order(capsys):
    # expected stderr recorded from the per-weight budget check this walk replaced
    cases = [
        (["--interval", "0:2", "--n", "2,1,1", "--c", "0,0,0", "--max-block", "3"],
         "@0:0011/0001/0100", 3),
        (["--interval", "0:2", "--n", "2,2,1", "--c", "0,1,0", "--max-block", "6",
          "--threads", "2"], "@0:0011/0101/1000", 6),
        (["--interval", "0:3", "--n", "2,1", "--c", "0,0", "--max-block", "2"],
         "@0:00011/00100", 2),
    ]
    for argv, first, budget in cases:
        canon.clear_caches()
        code = cli.main(["canonical"] + argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == ('{"error": "budget", "message": "block of '
                       f'{first} exceeds --max-block {budget}"}}\n')
    argv = ["canonical", "--interval", "0:2", "--n", "2,1,1", "--c", "0,0,0"]
    cli.main(argv)
    unlimited = capsys.readouterr()
    cli.main(argv + ["--max-block", "12"])
    assert capsys.readouterr() == unlimited
