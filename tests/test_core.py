"""Block cores: deleting frozen columns, one solve per core, and its oracles.

Every reduced block is checked against the unreduced solve of the same
block (``BlockData._solve_d``, which reads the unreduced psi matrix) and
against an inverse computed by the plain triple loop below.
"""

import gc
import itertools
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from conftest import block_key, sweep_contexts

import superkl.canonical as canon
from superkl import cli
from superkl.errors import NonTriangularBar, SuperklError
from superkl.laurent import LaurentInt, one, render, zero
from superkl.qmodule import ModuleVec
from superkl.weights import (
    Interval,
    TypeNC,
    column_counts,
    enumerate_weights,
    equivalent_type,
    order_leq,
    parse_matrix,
    profile_grid,
    profile_leq,
    signed_profile,
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
        assert set(canon._block_members_direct(reduced[0])) == set(map(canon._monomial, reduced))
    d = block._solve_d()
    assert block.d_matrix() == d, block.members[0].text()
    p = reference_inverse(d)
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
        for block in canon.BlockTable(interval, tnc).blocks:
            blocks += 1
            reduced += check_core(block) is not block
    assert reduced > 0
    print(f"{blocks} blocks, {reduced} reduced, checked in {time.time() - t0:.1f}s")


def test_cores_are_shared_through_the_registry(monkeypatch, tmp_path):
    interval, tnc = Interval.finite(0, 4), TypeNC((2, 2, 2), (0, 0, 0))
    canon.clear_caches()
    blocks = canon.BlockTable(interval, tnc).blocks
    cores = [b.core()[0] for b in blocks]
    by_key = {}
    for block, core in zip(blocks, cores):
        by_key.setdefault(block_key(core.members[0]), []).append(core)
    # two blocks with equal cores share one core object
    shared = next(group for group in by_key.values() if len(group) > 1)
    assert all(core is shared[0] for core in shared)
    # a block with no frozen column is its own core
    assert any(core is b and b.size > 1 for b, core in zip(blocks, cores))
    for block, core in zip(blocks, cores):
        # block_data on a core member returns the registered core object
        assert canon.block_data(core.members[-1]) is core
        assert canon._single_block_cache[block_key(core.members[0])] is core

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


def test_identity_blocks_share_their_cores_rows():
    # a block whose positions are the identity reads the very rows of its
    # core, in d and in p; any other block reads the core's entries at pos
    canon.clear_caches()
    blocks = canon.BlockTable(Interval.finite(0, 2), TypeNC((2, 2, 2), (0, 1, 0))).blocks
    reduced = [(b, *b.core()) for b in blocks if b.core()[0] is not b]
    moved = [pos for _, _, pos in reduced if pos != tuple(range(len(pos)))]
    assert (len(reduced), len(moved)) == (32, 4)
    for block, core, pos in reduced:
        for mine, theirs in ((block.d_matrix(), core.d_matrix()),
                             (block.p_matrix(), core.p_matrix())):
            for a in range(block.size):
                if pos == tuple(range(block.size)):
                    assert mine[a] is theirs[a]
                else:
                    assert {pos[b]: c for b, c in mine[a].items()} == theirs[pos[a]]


def test_clear_caches_frees_blocks_and_cores_without_a_gc_pass():
    # a fresh CLI process starts with empty caches; a long-lived one must
    # get there by clear_caches alone, or memory grows query by query
    canon.clear_caches()
    blocks = canon.BlockTable(Interval.finite(0, 2), TypeNC((2, 1, 1), (0, 1, 0))).blocks
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
    blocks = canon.BlockTable(interval, tnc).blocks
    block, core = next((b, b.core()[0]) for b in blocks if b.size > 2 and b.core()[0] is not b)
    key = block_key(core.members[0])
    canon.clear_caches()
    canon._single_block_cache[key] = canon.BlockData(core.interval, core.tnc, core.weight,
                                                     core.monomials[:-1])
    fresh = canon.BlockData(block.interval, block.tnc, block.weight, block.monomials)
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
@given(random_context(), st.integers(0, 10**6))
def test_random_block_core_matches_the_unreduced_solve(context, pick_block):
    canon.clear_caches()
    blocks = canon.BlockTable(*context).blocks
    blocks = [b for b in blocks if b.size > 1] or blocks
    block = blocks[pick_block % len(blocks)]
    core = check_core(block)
    assert set(canon._block_members_direct(core.members[0])) == set(core.monomials)
    for member in block.members:  # psi is an involution
        assert canon.bar_psi(canon.psi_monomial(member)) == ModuleVec.monomial(member)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(random_context(), st.integers(0, 10**6))
def test_random_direct_members_are_the_column_counts_filter(context, pick):
    # the meet-in-the-middle build, as a list: lam's block in enumeration order
    weights = enumerate_weights(*context)
    lam = weights[pick % len(weights)]
    counts = column_counts(lam)
    members = canon._block_members_direct(lam)
    assert members == [canon._monomial(w) for w in weights if column_counts(w) == counts]
    assert canon.block_size(lam, len(weights)) == len(members)


def packed_order_mismatches(context) -> int:
    """Pairs of members of a block of context where ``BlockData.leq`` and
    ``profile_leq`` on the ``signed_profile`` disagree, over every block."""
    canon.clear_caches()
    bad = 0
    for block in canon.BlockTable(*context).blocks:
        grid = profile_grid(block.members)
        profiles = [signed_profile(m, grid) for m in block.members]
        bad += sum(block.leq(a, b) != profile_leq(pa, pb) for a, pa in enumerate(profiles)
                   for b, pb in enumerate(profiles))
    return bad


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(random_context())
def test_random_packed_order_is_the_profile_order(context):
    assert packed_order_mismatches(context) == 0


def test_packed_order_needs_its_whole_digit_base(monkeypatch):
    # negative control: one bit less per digit and some digit difference wraps
    monkeypatch.setattr(canon, "_profile_bits", lambda spread: max(1, spread.bit_length()))
    find(random_context(), lambda context: packed_order_mismatches(context) > 0,
         settings=settings(derandomize=True, database=None, max_examples=80))


EXTREME_BLOCKS = """
import resource, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from superkl import canonical
from superkl.weights import Interval, TypeNC, kappa
for level in (4, 6):
    lam = kappa(Interval.finite(0, 10), TypeNC((5,) * level, (0,) * level))
    tracemalloc.start()
    members = canonical._block_members_direct(lam)
    print(len(members), tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
"""


def test_an_extreme_weight_of_a_wide_context_builds_in_little_memory():
    # kappa of 0:10 with n_i = 5 is alone in its block; a build that held every
    # choice tuple of half the rows would hold 792^2 (level 4) or 792^3 (level 6)
    # of them, so it runs in a child capped at 1 GB of address space
    src = str(Path(canon.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", EXTREME_BLOCKS], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    for line in done.stdout.splitlines():
        size, peak = map(int, line.split())
        assert size == 1 and peak < 2_000_000


WIDE_PSI = """
import resource, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from superkl import canonical
from superkl.qmodule import ModuleVec
from superkl.weights import Interval, TypeNC, koszul_dual, parse_matrix
lam = parse_matrix("101010101010/010101010101", Interval.finite(0, 10), TypeNC((6, 6), (0, 0)))
dual = koszul_dual(lam)
tracemalloc.start()
v = canonical.psi_monomial(dual)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
print(dual.tnc.level, len(v.terms), len(canonical._f_moves), peak,
      canonical.bar_psi(v) == ModuleVec.monomial(dual))
"""


def test_psi_at_level_twelve_fills_few_lowering_patterns():
    # the Koszul dual of a level-2 weight over 0:10 has level 12: a table of
    # f_j on every two-column pattern would hold 4^12 entries, more than the
    # child's 1 GB of address space, so patterns are filled on first use
    src = str(Path(canon.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", WIDE_PSI], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    level, terms, patterns, peak, involution = done.stdout.split()
    assert (level, involution) == ("12", "True") and int(terms) > 100
    assert int(patterns) < 1000 and int(peak) < 4_000_000


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


# ---------------------------------------------------------------------------
# Row views: d_matrix computes a row the first time it is read; p_matrix solves
# every column, and kl_d and kl_p fill neither.

def eager_d(r):
    """The d-matrix solved row after row over the whole psi matrix r."""
    size = len(r)
    rows = []
    for a in range(size):
        d = {a: one}
        defects = {}
        for b in range(a, size):
            if b > a:
                s = {e: c for e, c in defects.pop(b, {}).items() if c}
                if not s:
                    continue
                assert all(s.get(-e) == -c for e, c in s.items())
                d[b] = LaurentInt({e: c for e, c in s.items() if e > 0})
            for x, rx in r[b].items():
                if x > b:
                    acc = defects.setdefault(x, {})
                    for e1, c1 in d[b].coeffs.items():
                        for e2, c2 in rx.coeffs.items():
                            acc[e2 - e1] = acc.get(e2 - e1, 0) + c1 * c2
        rows.append(d)
    return rows


LARGE = (Interval.finite(0, 2), TypeNC((2, 2, 2, 2), (0, 1, 0, 1)))


def largest_block():
    canon.clear_caches()
    return max(canon.BlockTable(*LARGE).blocks, key=lambda b: b.size)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(random_context(), st.integers(0, 10**6),
       st.lists(st.tuples(st.sampled_from("dp"), st.integers(0, 10**6)), max_size=12))
def test_rows_read_in_any_order_match_the_eager_solve(context, pick_block, reads):
    canon.clear_caches()
    blocks = canon.BlockTable(*context).blocks
    blocks = [b for b in blocks if b.size > 1] or blocks
    block = blocks[pick_block % len(blocks)]
    # an unregistered copy of the block gives the eager reference
    copy = canon.BlockData(block.interval, block.tnc, block.weight, block.monomials)
    want = {"d": eager_d(copy.psi_matrix())}
    want["p"] = reference_inverse(want["d"])
    canon.clear_caches()
    block = canon.block_data(block.members[0])
    views = {"d": block.d_matrix(), "p": block.p_matrix()}
    for kind, pick in reads:
        a = pick % block.size
        assert views[kind][a] == want[kind][a], (kind, a)
    assert views["p"] == want["p"] and views["d"] == want["d"]


def test_one_kl_d_reads_only_the_psi_rows_of_its_d_support(monkeypatch):
    members = largest_block().members
    kernel = canon._psi_kernel
    read = []

    def counting(ncols, level, x):
        read.append(x)
        return kernel(ncols, level, x)

    monkeypatch.setattr(canon, "_psi_kernel", counting)
    narrower = 0
    for a, lam in enumerate(members):
        canon.clear_caches()
        read.clear()
        canon.kl_d(lam, members[-1])
        block = canon.block_data(lam)
        core, pos = block.core()
        support = {pos[b] for b in block.d_matrix()[a]}
        assert sorted(map(core._mask_pos.__getitem__, read)) == sorted(support), lam.text()
        assert sum(row is not None for row in core.d_matrix().rows) == 1
        narrower += len(support) < block.size
    assert narrower > len(members) // 2


def test_one_kl_p_reads_only_its_interval_and_fills_no_view(monkeypatch):
    block = largest_block()
    core, pos = block.core()
    want = block.p_matrix()[0]
    # mu: the last member in the lower half of the core with p_{lam,mu} != 0
    b = max(x for x in want if pos[x] < core.size // 2)
    lam, mu = block.members[0], block.members[b]
    kernel = canon._psi_kernel
    read = []

    def counting(ncols, level, x):
        read.append(x)
        return kernel(ncols, level, x)

    monkeypatch.setattr(canon, "_psi_kernel", counting)
    canon.clear_caches()
    got = canon.kl_p(lam, mu)
    block = canon.block_data(lam)
    core, pos = block.core()
    rows = sorted(map(core._mask_pos.__getitem__, read))
    assert len(rows) > 1 and rows[-1] <= pos[block.position(mu)] < core.size - 1
    for view in (block, core):
        assert view._dmat is None and view._pinv is None
    assert got == want[b].subs_neg_q() != zero


def test_one_cold_klpoly_solves_each_cut_row_once(monkeypatch, capsys):
    # d and p of one finite klpoly come from one set of cut rows: row lam
    # cut at mu is solved for d and read again by the p column, not re-solved
    block = largest_block()
    p = block.p_matrix()
    pairs = [(block.members[a], block.members[b]) for a in range(0, block.size, 7)
             for b in sorted(p[a])[1::3]]
    want = {(lam, mu): (render(canon.kl_d(lam, mu)), render(canon.kl_p(lam, mu)))
            for lam, mu in pairs}
    d_row = canon._d_row
    solved = []

    def counting(r, a, stop=None):
        solved.append((id(r), a, stop))
        return d_row(r, a, stop)

    monkeypatch.setattr(canon, "_d_row", counting)
    interval, tnc = LARGE
    context = ["--interval", interval.text(), "--n", ",".join(map(str, tnc.n)),
               "--c", ",".join(map(str, tnc.c))]
    most = 0
    for lam, mu in pairs:
        canon.clear_caches()
        solved.clear()
        code = cli.main(["klpoly", *context, "--matrix", lam.text(), "--mu", mu.text()])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert (payload["d"], payload["p"]) == want[lam, mu]
        assert solved and len(set(solved)) == len(solved), (lam.text(), mu.text())
        most = max(most, len(solved))
    assert len(pairs) > 20 and most > 1


def test_a_bad_psi_row_that_kl_d_reads_is_refused(monkeypatch):
    block = largest_block()
    core, pos = block.core()
    a = block.size // 2
    lam = block.members[a]
    # mu is the last member of lam's d-support; kl_d(lam, mu) solves row lam
    # up to mu's column and so reads the psi row of mu, made to reach below itself
    mu = block.members[max(block.d_matrix()[a])]
    b = pos[block.position(mu)]
    below = next(x for x in range(b) if not order_leq(core.members[b], core.members[x]))
    bad, extra = canon._monomial(core.members[b]), canon._monomial(core.members[below])
    kernel = canon._psi_kernel

    def skewed(ncols, level, x):  # a packed monomial is its own flat key at q^0
        terms = kernel(ncols, level, x)
        return {**terms, extra: terms.get(extra, 0) + 1} if x == bad else terms

    monkeypatch.setattr(canon, "_psi_kernel", skewed)
    fresh = canon.BlockData(core.interval, core.tnc, core.weight, core.monomials)
    with pytest.raises(NonTriangularBar) as eager:
        fresh.psi_matrix()
    canon.clear_caches()
    with pytest.raises(NonTriangularBar) as lazy:
        canon.kl_d(lam, mu)
    assert str(lazy.value) == str(eager.value)
    assert str(lazy.value) == (f"psi(v[{core.members[b].text()}]) has support at "
                               f"{core.members[below].text()}")


def test_p_row_zero_first_fills_without_recursion():
    block = largest_block()
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        row = block.p_matrix()[0]
    finally:
        sys.setrecursionlimit(limit)
    assert row == reference_inverse(eager_d(block.psi_matrix()))[0]
