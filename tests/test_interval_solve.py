"""kl_d and kl_p from the interval [lam, mu] of lam's core, against three references.

``kl_d`` solves one d row cut at mu's column and ``kl_p`` one column of p
over the cut d rows reached from lam.  Each entry is checked against the
``d_matrix`` entry, the ``p_matrix`` entry, and, for p, against
d_{T(mu),T(lam)} read off the Koszul-dual block (acceptance criterion
13's identity), which reads no p at all.  The sweep covers every pair of
every block of the level >= 2 acceptance contexts, each distinct core and
position map once, and seeded pairs of the largest blocks of the
kl-queries benchmark context.  The negative
control is a column solve that drops the k = mu term of its sum.
"""

import random

from conftest import block_key, sweep_contexts

import superkl.canonical as canon
from superkl.laurent import zero
from superkl.weights import Interval, TypeNC, koszul_dual

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
            if x <= m:
                rows = canon._reach(core._psi_rows, x, m)
                assert canon._p_column(rows, m).get(x, zero) == refs.p[a].get(b, zero)
                wrong = canon._p_column(dropping_mu(rows, m), m).get(x, zero)
                dropped_differs += wrong != refs.p[a].get(b, zero)
    canon.clear_caches()
    assert nonzero > 100 and dropped_differs > 50
