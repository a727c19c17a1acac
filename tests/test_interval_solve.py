"""kl_d and kl_p from the order interval [lam, mu] of lam's core, against references.

``kl_d`` solves one d row cut to the order interval [lam, mu] and ``kl_p``
one column of p over the cut d rows reached from lam; an entry with
lam = mu, with mu outside lam's block or with lam not <= mu is read off
the order, with no block built.  Each entry is checked against the
``d_matrix`` entry, the ``p_matrix`` entry, and, for p, against
d_{T(mu),T(lam)} read off the Koszul-dual block (acceptance criterion
13's identity), which reads no p at all.  The sweep covers every pair of
every block of the level >= 2 acceptance contexts, each distinct core and
position map once, seeded pairs of the largest blocks of the kl-queries
benchmark context, and a hypothesis property on random contexts of mixed
polarity, finite and infinite.  The negative controls are a column solve
that drops the k = mu term of its sum and a cut row that drops one
member of [lam, mu].
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import block_key, random_infinite_matrix, sweep_contexts

import superkl.canonical as canon
from superkl.errors import NonTriangularBar
from superkl.laurent import one, zero
from superkl.weights import (
    Interval,
    Matrix01,
    TypeNC,
    koszul_dual,
    order_leq,
    stable_window,
    truncate,
    weight_count,
)

KL_QUERIES = (Interval.finite(0, 2), TypeNC((2, 2, 2, 2), (0, 1, 0, 1)))


class References:
    """The d-matrix, the p-matrix and the Koszul-dual d-matrix of one block."""

    def __init__(self, block):
        self.block = block
        self.d, self.p = block.d_matrix(), block.p_matrix()
        images = [koszul_dual(m) for m in block.members]
        dual = canon.block_data(images[0])
        self.dual_d = dual.d_matrix()
        self.dual_pos = [dual.position(x) for x in images]

    def check(self, a, b):
        lam, mu = self.block.members[a], self.block.members[b]
        p = canon.kl_p(lam, mu)
        assert canon.kl_d(lam, mu) == self.d[a].get(b, zero), (lam.text(), mu.text())
        assert p == self.p[a].get(b, zero).subs_neg_q(), (lam.text(), mu.text())
        assert p == self.dual_d[self.dual_pos[b]].get(self.dual_pos[a], zero), \
            (lam.text(), mu.text())
        return p


def test_every_pair_of_the_acceptance_contexts():
    # kl_d and kl_p read a block's entries off its core through the map of
    # member positions, so a block whose core and map were already swept
    # repeats the same solves; it is skipped
    seen, pairs = set(), 0
    for interval, tnc in sweep_contexts():
        if tnc.level < 2:
            continue
        canon.clear_caches()
        for block in canon.BlockTable(interval, tnc).blocks:
            core, pos = block.core()
            key = (block_key(core.members[0]), pos)
            if key in seen:
                continue
            seen.add(key)
            refs = References(block)
            for a in range(block.size):
                for b in range(block.size):
                    refs.check(a, b)
            pairs += block.size ** 2
    canon.clear_caches()
    assert pairs > 100_000


def dropping_mu(rows, m):
    """The d rows with the entry d[x][m] deleted from every row x != m."""
    return {x: {k: c for k, c in row.items() if k != m or x == m} for x, row in rows.items()}


def test_seeded_pairs_of_the_kl_queries_context_and_the_negative_control():
    rng = random.Random(0)
    canon.clear_caches()
    blocks = sorted(canon.BlockTable(*KL_QUERIES).blocks, key=lambda b: -b.size)[:4]
    nonzero = dropped_differs = 0
    for block in blocks:
        refs = References(block)
        core, pos = block.core()
        for _ in range(150):
            a, b = sorted(rng.randrange(block.size) for _ in range(2))
            nonzero += bool(refs.check(a, b))
            x, m = pos[a], pos[b]
            if core.leq(x, m):
                rows = canon._reach(core._psi_rows, x, canon._between(core, x, m))
                assert canon._p_column(rows, m).get(x, zero) == refs.p[a].get(b, zero)
                wrong = canon._p_column(dropping_mu(rows, m), m).get(x, zero)
                dropped_differs += wrong != refs.p[a].get(b, zero)
    canon.clear_caches()
    assert nonzero > 100 and dropped_differs > 50


@st.composite
def mixed_context(draw):
    """A finite context of level 2 to 4 over 0:0 to 0:3, any polarities, at
    most 700 weights."""
    interval = Interval.finite(0, draw(st.integers(0, 3)))
    ncols = interval.n_cols()
    level = draw(st.integers(2, 4))
    n = draw(st.lists(st.integers(1, ncols - 1), min_size=level, max_size=level))
    c = draw(st.lists(st.integers(0, 1), min_size=level, max_size=level))
    while weight_count(interval, TypeNC(tuple(n), tuple(c))) > 700:
        n[n.index(max(n, key=lambda ni: min(ni, ncols - ni)))] = 1
    return interval, TypeNC(tuple(n), tuple(c))


def swept_pairs(blocks, rng, count):
    """count pairs (lam's block, a, mu's block, b): one of every three with
    lam = mu, one with mu in any block, one with both in lam's block."""
    blocks = [b for b in blocks if b.size > 1] + [b for b in blocks if b.size == 1][:3]
    pairs = []
    for i in range(count):
        block = rng.choice(blocks)
        a = rng.randrange(block.size)
        other = rng.choice(blocks) if i % 3 == 1 else block
        b = a if i % 3 == 0 else rng.randrange(other.size)
        pairs.append((block, a, other, b))
    return pairs


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(mixed_context(), st.integers(0, 10**6))
@example((Interval.finite(0, 2), TypeNC((2, 2, 2), (0, 1, 0))), 0)
@example((Interval.finite(0, 3), TypeNC((2, 1, 2), (1, 0, 1))), 1)
def test_point_entries_match_the_block_solve_on_random_contexts(context, seed):
    canon.clear_caches()
    pairs = swept_pairs(canon.BlockTable(*context).blocks, random.Random(seed), 30)
    canon.clear_caches()
    got = [(canon.kl_d(x.members[a], y.members[b]), canon.kl_p(x.members[a], y.members[b]))
           for x, a, y, b in pairs]
    # whether the order decided the entry, which builds no block
    decided = [x is not y or not order_leq(x.members[a], y.members[b]) or a == b
               for x, a, y, b in pairs]
    assert len(canon._single_block_cache) <= 2 * (len(pairs) - sum(decided))
    kinds = set()
    for (x, a, y, b), (d, p) in zip(pairs, got):
        lam, mu = x.members[a], y.members[b]
        block = canon.block_data(lam)
        if y is not x:
            assert (d, p) == (zero, zero), (lam.text(), mu.text())
            kinds.add("other block")
            continue
        a, b = block.position(lam), block.position(mu)
        assert d == block.d_matrix()[a].get(b, zero), (lam.text(), mu.text())
        assert p == block.p_matrix()[a].get(b, zero).subs_neg_q(), (lam.text(), mu.text())
        # the fact the order cuts rely on: the core's order table, reduced and
        # possibly the omega-image, is the order of the weights
        core, pos = block.core()
        assert order_leq(lam, mu) == core.leq(pos[a], pos[b]), (lam.text(), mu.text())
        kinds.add("equal" if a == b else "below" if order_leq(lam, mu) else "not below")
    assert {"equal", "other block"} <= kinds


def widened(window: Interval, interval: Interval, k: int) -> Interval:
    """window with k more columns on each side, inside interval."""
    lo = window.lo - k if interval.lo is None else max(window.lo - k, interval.lo)
    hi = window.hi + k if interval.hi is None else min(window.hi + k, interval.hi)
    return Interval.finite(lo, hi)


@st.composite
def infinite_pair(draw):
    """(lam, mu) over z or a half line, of level 2 or 3 and any polarities;
    mu is lam, a member of lam's block above it or any member (both read in
    a window one column wider than lam's), or any weight."""
    interval = draw(st.sampled_from([Interval.all_z(), Interval.half_up(-2),
                                     Interval.half_down(3)]))
    level = draw(st.integers(2, 3))
    n = draw(st.lists(st.integers(1, 2 if level == 2 else 1), min_size=level,
                      max_size=level))
    c = draw(st.lists(st.integers(0, 1), min_size=level, max_size=level))
    tnc = TypeNC(tuple(n), tuple(c))
    rng = random.Random(draw(st.integers(0, 10**6)))
    lam = random_infinite_matrix(rng, interval, tnc, span=5)
    kind = draw(st.sampled_from(["equal", "above", "above", "block", "any"]))
    if kind == "equal":
        return lam, lam
    if kind == "any":
        return lam, random_infinite_matrix(rng, interval, tnc, span=5)
    window = widened(stable_window(lam), interval, 1)
    members = [Matrix01(interval, tnc, m.devs)
               for m in canon.block_data(truncate(lam, window)).members]
    others = [m for m in members if m != lam] or members
    above = [m for m in others if order_leq(lam, m)]
    return lam, rng.choice(above if kind == "above" and above else others)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(infinite_pair())
def test_stable_entries_match_a_larger_window(pair):
    # d and p over z and both half lines against a window two columns wider
    # on each side than the base window, where they are read off the whole
    # d row of lam and the dual basis vector of mu
    lam, mu = pair
    big = widened(stable_window(lam, mu), lam.interval, 2)
    lam_big, mu_big = truncate(lam, big), truncate(mu, big)
    canon.clear_caches()
    d, p = canon.kl_d_stable(lam, mu), canon.kl_p_stable(lam, mu)
    assert d == canon.kl_d(lam_big, mu_big) == canon.canonical_basis(lam_big).coeff(mu_big)
    assert p == canon.kl_p(lam_big, mu_big) \
        == canon.dual_canonical(mu_big).coeff(lam_big).subs_neg_q()
    if lam == mu:
        assert (d, p) == (one, one)
    elif not order_leq(lam, mu):
        assert (d, p) == (zero, zero)


def cut_entry(solve):
    """solve(), or the error it raises: a dropped column may leave a defect
    that is not bar-antisymmetric, which the d solve refuses."""
    try:
        return solve()
    except NonTriangularBar as error:
        return error


def test_a_cut_row_that_drops_a_member_of_the_interval_differs():
    # negative control: with one member x of [lam, mu] strictly between them
    # left out of the columns, d and p change at some swept pair
    rng = random.Random(1)
    d_differs = p_differs = pairs = 0
    for context in ((Interval.finite(0, 2), TypeNC((2, 2, 2), (0, 1, 0))),
                    (Interval.finite(0, 3), TypeNC((2, 1, 2), (1, 0, 1)))):
        canon.clear_caches()
        for block in canon.BlockTable(*context).blocks:
            core, _ = block.core()
            d, p = core.d_matrix(), core.p_matrix()
            for _ in range(3):
                a, m = sorted(rng.randrange(core.size) for _ in range(2))
                cols = canon._between(core, a, m)
                for x in sorted(cols - {a, m}):
                    pairs += 1
                    fewer = cols - {x}
                    d_differs += cut_entry(lambda: canon._d_row(core._psi_rows, a, fewer)
                                           .get(m, zero)) != d[a].get(m, zero)
                    p_differs += cut_entry(lambda: canon._p_column(
                        canon._reach(core._psi_rows, a, fewer), m).get(a, zero)) \
                        != p[a].get(m, zero)
    canon.clear_caches()
    assert pairs > 100 and d_differs > 10 and p_differs > 10


MEMORY_CAP = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from superkl import cli
sys.exit(cli.main(["klpoly", "--interval", "z", "--n", "8,8", "--c", "0,1",
                   "--matrix", "@0:11111111/00000000", "--mu", "@0:11111111/00000000"]))
"""


def test_a_diagonal_entry_over_z_is_read_off_the_order_in_little_memory():
    # d_{lam,lam} = 1 with no block built: solving it once read all of
    # psi(v_lam), which ran out of 2 GB of address space at n = (8, 8)
    src = str(Path(canon.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", MEMORY_CAP], capture_output=True,
                          text=True, timeout=20, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert (payload["d"], payload["p"]) == ("1", "1")
