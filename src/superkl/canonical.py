"""Bar involution, canonical bases and graded decomposition polynomials.

The bar involution psi on a finite-interval module is pinned down by three
facts: it fixes every monomial at level <= 1, it commutes with the f_j, and
stripping a highest last row peels off one tensor factor,
psi(m (x) v_kappa_last) = psi'(m) (x) v_kappa_last.  When the last row w of
a monomial is not highest, write w = f_j(w') for the smallest admissible
color j and use

    m (x) v_w = f_j(m (x) v_w') - q (f_j m) (x) v_w'

to push the computation toward monomials whose last row is closer to the
highest one.

psi runs on packed integers.  A monomial of level l is one column-major
int, ``_monomial``: bit k * l + i is row i's entry at column lo + k.  So
f_j, j = lo + k, is one shift and mask to the 2l-bit pattern of columns
k, k + 1 and a lookup of its moves, (xor, q-exponent) per row it lowers,
in ``_f_moves``, which fills a pattern on first use.  A last row is
kappa's when it shows 0, 1 at no columns k, k + 1, and otherwise the
smallest lowering color is the first such k.  psi(lam) is a flat dict
{(e << S) | x: coefficient}, S = l * |I_+|, so a q-shift is an integer
add and coefficients stay exact ints.  f_j and kappa read only the
entries, so a memo in ``_psi_cache`` is keyed by (|I_+|, level, depth of
the recursion) and shared by shifted intervals and by flipped types.  The
level is in the key because it is the stride: equal ints of two levels
are different monomials.  A block's psi rows keep each entry as an
{exponent: coefficient} map, which the d solve reads as it is; only
``psi_matrix`` and ``psi_monomial`` make Laurent polynomials of psi.

Canonical basis vectors are the unique psi-invariant elements
b = v_lam + (qZ[q]-combination of higher monomials in the block); they are
computed blockwise from the matrix of psi on monomials by solving the
resulting unitriangular congruences.  d- and p-polynomials are the entries
of the transition matrix and of its inverse at q -> -q.

A block is keyed by its context and the ``column_counts`` its members
share, which for one type decide the sl_I weight.  From the moment it is
built, a block holds its members as one tuple of ``_monomial`` ints in a
linear extension; ``members``, the same weights as ``Matrix01``, is made
on first read.  The registry key (``_packed_block_key``) and the position
map ``_mask_pos`` are read off the ints.  Every other per-member quantity
is a sum or a join over rows, read from ``_RowTable``s: one table per row,
keyed by the row's bits x & ones << i, whose entry is made from the row's
deviations the first time the table meets that row.  ``_text_tables``
hold each row's text, which ``row_strings`` gathers and ``texts`` joins
per weight;
``_grid_shares`` hold each row's share of the ``_linear_extension`` sort
key and of the order table of a block whose members deviate at the
columns grid.

Both ways of building blocks read two integers per row choice,
``_choice_keys``: the choice's bits, and its counts packed in a base
larger than four times the level, so equal key sums mean equal counts.
``BlockTable`` sums both row by row over a whole context and groups the
weights by key sum.  A single weight's block, ``_block_members_direct``,
meets in the middle: each half of the rows is enumerated depth first,
dropping a pick once some column's count can no longer reach lam's, the
right half's picks are indexed by key sum, and each left pick looks up
the sum that completes lam's key.  ``block_size`` counts with the same
test and stops one past a cap: ``--max-block`` refuses a block before it
is made, in memory linear in the rows' choices.  A process holds at most
one ``BlockData`` per key, in ``_single_block_cache``, and ``_registered``
is the one place a block is built and added there: ``block_data``,
``BlockTable`` and the core reduction all go through it, so a block's
psi, d and p memos are shared whichever path reaches it first.  Each
hands it the members already in a linear extension, sorted by their
``_grid_shares`` keys: ``block_data`` and the core reduction sort their
one block with ``_linear_extension``, and ``BlockTable`` sorts the blocks
the registry lacks together, one ``_summed`` pass per grid
(``_sort_blocks``), since a member's key depends on its block only
through the block's grid.

A block's one order table, ``_profiles``, holds one int per member: the
signed prefix counts of rows 0..l-2 (``signed_profile``) as signed
digits.  The last prefix row is the block's cumulative column counts,
shared by every member.  ``BlockData.leq``, the psi check and ``poset``
test "every digit >=" with one subtraction and one mask; the table is
built on first read, not at registration, and the oracle does not read it.

A column is frozen in a block when every member has the same entries in
it.  Deleting the frozen columns and renumbering the rest turns the
members into one block of a smaller context, the block's core, with the
same d-matrix entry for entry (at level 2 the classical fact that
vertices labelled o and x take no part in cup diagrams).  The registry
holds the cores too: ``d_matrix`` and ``p_matrix`` are solved once per
core.  A block that reduces to a core whose positions it keeps (pos is
the identity) reads the core's own rows; any other block renames each
row through pos on first read.  A row's column order is not part of its
contract, and no reader depends on it: the outputs sort a row's terms,
and the solves sum exact entries.  ``psi_matrix``
stays unreduced and eager, the oracle path that ``canonical_basis_direct``
reads: it reads the kernel on every row, with no mirror, and checks every
row.

omega, the diagram automorphism i -> -i of sl_I with the tensor factors
taken in reverse order, reverses a weight's columns and its rows and maps
the context of type (n, c) to that of (n, c) reversed, with
d_{omega lam, omega mu} = d_{lam, mu} and psi likewise (Lusztig,
Introduction to Quantum Groups, 1993; Brundan, Dual canonical bases and
Kazhdan-Lusztig polynomials, 2006).  On a packed monomial it is the bit
reversal ``_mirrored``: column k goes to |I_+| - 1 - k and row i to
l - 1 - i.  When the type reads the same reversed, omega maps the context
onto itself, and it is used twice.  A block's core is its reduction or
the omega-image of that, whichever has the smaller registry key, so a
block and its mirror share one core, and a block with no frozen column
reads its mirror when that has the smaller key (``_reduce``).  In a core
that omega maps onto itself (``_mirror``), the psi row and the d row at
the larger position of each pair (a, omega(a)) are the rows at the
smaller one with their columns renamed (``_MirroredRows``), and every psi
row is still checked.  Any other type pays one tuple comparison.

``d_matrix`` is a row view, and a row is solved the first time it is
read.  b_lam involves only members mu >= lam, so row a of d reads the psi
rows b with d[a][b] != 0 and no others, and not that of its last column,
which would push only past it; each psi row is checked for triangularity
and diagonal 1 when a solve first reads it.  ``p_matrix`` holds every row
of the inverse: column m is solved by ``_p_column`` over the d rows 0..m,
and the columns are written into the rows in order.

One entry at (lam, mu) depends only on the order interval [lam, mu]:
d[lam][c] psi[c][b] != 0 needs lam <= c <= b in the order, and p is
triangular in it too.  So the order decides an entry before any block is
built: it is 1 at lam = mu, and 0 when mu lies in another block or is not
>= lam (``_decided``).  Otherwise ``kl_d`` solves row lam of d in lam's
core at the positions of [lam, mu] only, pushing no defect outside them,
and so reads only the psi rows of its support in [lam, mu], less mu's.
``kl_p`` solves column mu of p from the bottom up,
p[x][mu] = delta_{x,mu} - sum_{x < k <= mu} d[x][k] p[k][mu], over the d
rows, cut to [lam, mu], that are reached from lam.  ``kl_dp`` reads both
entries off one such set of rows, the first of which is row lam.  These
solves are local to the call and fill no view; the psi rows they read are
the block's checked ones.  The core's order table is the order of the
weights, as the core reduction and omega keep it.

``dual_canonical`` needs a whole column of p.  Koszul duality gives
p_{lam,mu}(q) = d_{T(mu),T(lam)}(q), where T = ``koszul_dual`` reverses
the columns of the l x N 01-matrix, transposes it and reads the result as
a weight of level N over 0:(l-2).  So column mu of p is row T(mu) of the
d-matrix of the dual block, one row solved on first read, mapped back
through T^-1.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations, islice
from math import prod
from operator import add, and_, or_

from .errors import (
    IntervalInfinite,
    NonTriangularBar,
    StabilityViolation,
    SuperklError,
    TypeMismatch,
)
from .laurent import LaurentInt, one, row_reduce, zero
from .qmodule import ModuleVec, act_e
from .weights import (
    Interval,
    Matrix01,
    TypeNC,
    WeightPI,
    _row_text,
    counts_weight,
    enumerate_weights,
    in_row_order,
    kappa,
    koszul_dual,
    koszul_dual_inverse,
    order_leq,
    stable_window,
    truncate,
    weight_texts,
)

_psi_cache: dict[tuple[int, int, int], dict[int, dict[int, int]]] = {}
_single_block_cache: dict[tuple, "BlockData"] = {}


def clear_caches():
    _psi_cache.clear()
    _f_moves.clear()
    _single_block_cache.clear()
    for memo in (_text_tables, _grid_shares):
        memo.cache_clear()


def _packed_block_key(interval: Interval, tnc: TypeNC, x: int) -> tuple:
    """The registry key of the block of the packed weight x: its context and its
    sorted ``column_counts``, a column's count its ones less the c_i = 1 rows."""
    level, c1 = tnc.level, sum(tnc.c)
    return interval, tnc, tuple((interval.lo + k, v) for k in range(interval.n_cols())
                                if (v := (x >> k * level & (1 << level) - 1).bit_count() - c1))


def _key_ranks(key: tuple) -> tuple[tuple, tuple]:
    """A registry key and its omega-image's key as tuples that order the keys of
    one interval: the type, then the counts.  omega reverses the type and
    takes column j to lo + hi + 1 - j."""
    interval, tnc, counts = key
    end = interval.lo + interval.hi + 1
    return ((tnc.n, tnc.c, counts),
            (tnc.n[::-1], tnc.c[::-1], tuple([(end - j, v) for j, v in reversed(counts)])))


def _registered(key: tuple, build) -> "BlockData":
    """The block under key in the registry; on a miss, build()'s packed weights, added.

    This is the one place a block is made.  build() returns the members
    already in a linear extension, and the block's sl_I weight is read off
    the key's counts.
    """
    block = _single_block_cache.get(key)
    if block is None:
        interval, tnc, counts = key
        block = _single_block_cache[key] = BlockData(
            interval, tnc, counts_weight(dict(counts), interval), tuple(build()))
    return block


def _column_ones(level: int, ncols: int) -> int:
    """Bit k * level for each column k < ncols: row i of a monomial x is x & (this << i)."""
    return ((1 << level * ncols) - 1) // ((1 << level) - 1) if level else 0


def _self_mirror_type(tnc: TypeNC) -> bool:
    """Whether n and c read the same reversed, so that omega maps a context of
    type tnc onto itself: one tuple comparison."""
    return (tnc.n, tnc.c) == (tnc.n[::-1], tnc.c[::-1])


def _mirrored(monomials: Sequence[int], nbits: int) -> list[int]:
    """omega on packed monomials of nbits = level * |I_+| bits: the bit reversal that
    takes bit k * l + i to bit nbits - 1 - (k * l + i), so column k to column
    |I_+| - 1 - k and row i to row l - 1 - i."""
    form = f"0{nbits}b"
    return [int(format(x, form)[::-1], 2) for x in monomials]


def _row_share(interval: Interval, tnc: TypeNC):
    """share(i, row): the bits of row i, given by its deviations, in a ``_monomial``."""
    lo, level = interval.lo, tnc.level
    ones = _column_ones(level, interval.n_cols())

    def share(i: int, row: tuple[int, ...]) -> int:
        bits = sum([1 << (j - lo) * level for j in row])
        return (ones ^ bits if tnc.c[i] else bits) << i
    return share


def _monomial(lam: Matrix01) -> int:
    """lam packed column-major: bit k * l + i is row i's entry at column lo + k, l the level."""
    return sum(map(_row_share(lam.interval, lam.tnc), range(len(lam.devs)), lam.devs))


def _from_monomial(x: int, interval: Interval, tnc: TypeNC) -> Matrix01:
    """The weight of a packed monomial in the context (interval, tnc).

    Row i's deviations are the columns where its bit differs from the
    polarity, read in increasing order: sorted, distinct and inside I_+ by
    construction, so the weight is built without the checked constructor.
    That each row has n_i deviations is the caller's: every monomial here
    is a block member, a psi term of one, or a core member, whose type is
    read off its own rows.
    """
    lo, level = interval.lo, tnc.level
    ks = range(interval.n_cols())
    return Matrix01._trusted(interval, tnc, tuple(
        tuple(lo + k for k in ks if (x >> k * level + i) & 1 != ci)
        for i, ci in enumerate(tnc.c)))


class _RowTable(dict):
    """A quantity of row i of a context's weights, keyed by the row's bits
    x & ones << i and made from its deviations on first read, once per distinct row."""

    __slots__ = ("make", "i", "ci", "bits")

    def __init__(self, interval: Interval, tnc: TypeNC, i: int, make):
        super().__init__()
        self.make, self.i, self.ci = make, i, tnc.c[i]
        self.bits = [(j, 1 << (j - interval.lo) * tnc.level + i) for j in interval.cols()]

    def __missing__(self, r: int):
        ci = self.ci  # a deviation is an entry other than c_i
        self[r] = value = self.make(self.i, ci, tuple([j for j, b in self.bits
                                                       if (not r & b) == ci]))
        return value


# The per-row tables are pure functions of their arguments, so their bounded
# memos can only hand back what those give; callers only read them.

@lru_cache(maxsize=16)
def _text_tables(interval: Interval, tnc: TypeNC) -> list[_RowTable]:
    """Per row: its bits -> its ``_row_text``, the row's part of a weight's text."""
    lo, hi = interval.lo, interval.hi + 1
    return [_RowTable(interval, tnc, i, lambda i, ci, row: _row_text(lo, hi, ci, row))
            for i in range(tnc.level)]


@lru_cache(maxsize=64)
def _grid_shares(interval: Interval, tnc: TypeNC, grid: tuple[int, ...]) -> tuple:
    """(sort, top, order): per row, its share of the ``_linear_extension`` key
    and of the order table ``BlockData._profiles`` of a block whose grid is grid.

    The sum of a weight's ``signed_profile`` over the grid strictly
    decreases upward in the order; ties are broken by text.  Row i (from 0)
    lies in l - i prefix rows and a deviation at j in the grid entries from
    index rank(j) on, so the sum is a block constant minus the key's high
    part.  Over a finite interval every row renders across all of I_+, so
    text order is the order of the rows' bitstrings read one after another,
    as in ``row_choices``: their concatenation, as an integer, is the low
    part of the key, and no text is rendered.

    Order digit k * T + t, base B = 2^``_profile_bits``, is entry [k][t] of
    the ``signed_profile`` over the T grid columns.  Row i counts between 0
    and its n_i deviations, so two members' digits differ by at most the sum
    of n_i over rows 0..l-2, below B/2: with B/2 at each digit of top,
    a - b + top has every digit in [0, B), and its top bits are all set iff
    every digit of a is >= b's.
    """
    level, width = tnc.level, interval.n_cols()
    last, full = interval.lo + width - 1, (1 << width) - 1
    base = 1 << _profile_bits(sum(tnc.n[:-1]))
    digits = base ** len(grid)  # B^T, the weight of the next prefix row
    rank = {j: bisect_left(grid, j) for j in interval.cols()}  # no member deviates off the grid
    # a deviation at grid[r] counts at digits r..T-1 of a prefix row
    upto = {j: (digits - base ** r) // (base - 1) for j, r in rank.items()}
    factors = [(-1) ** ci * sum([digits ** k for k in range(i, level - 1)])
               for i, ci in enumerate(tnc.c)]

    def sort(i, ci, row):  # the profile key above the level * width bits of the text
        bits = sum([1 << last - j for j in row])
        return (((level - i) * (-1) ** ci * sum(map(rank.__getitem__, row)) << width * level)
                + ((full ^ bits if ci else bits) << width * (level - 1 - i)))

    def order(i, ci, row):
        return factors[i] * sum(map(upto.__getitem__, row))
    top = base // 2 * ((digits ** max(level - 1, 0) - 1) // (base - 1))
    return ([_RowTable(interval, tnc, i, sort) for i in range(level)], top,
            [_RowTable(interval, tnc, i, order) for i in range(level)])


def _row_bits(interval: Interval, tnc: TypeNC, monomials: Sequence[int]) -> list[list[int]]:
    """Per row i: each weight's bits of row i, x & ones << i, its key in every per-row table."""
    ones = _column_ones(tnc.level, interval.n_cols())
    return [[x & mask for x in monomials] for mask in [ones << i for i in range(tnc.level)]]


def _summed(interval: Interval, tnc: TypeNC, monomials: Sequence[int],
            tables: list[dict]) -> list[int]:
    """Each weight's sum of its rows' entries in the per-row tables."""
    acc = [0] * len(monomials)
    for table, bits in zip(tables, _row_bits(interval, tnc, monomials)):
        acc = list(map(add, acc, map(table.__getitem__, bits)))
    return acc


def _grid(interval: Interval, tnc: TypeNC, monomials: Sequence[int]) -> tuple[int, ...]:
    """``profile_grid`` of packed weights: the columns where some weight has a
    deviation, a 1 in a row of polarity 0 or a 0 in a row of polarity 1."""
    level = tnc.level
    polar = sum(_column_ones(level, interval.n_cols()) << i for i, ci in enumerate(tnc.c) if ci)
    dev = reduce(or_, monomials) & ~polar | ~reduce(and_, monomials) & polar
    return tuple(interval.lo + k for k in range(interval.n_cols())
                 if dev >> k * level & (1 << level) - 1)


def _linear_extension(interval: Interval, tnc: TypeNC, monomials: Sequence[int]) -> list[int]:
    """A block's packed members sorted by their ``_grid_shares`` keys, no two equal:
    lam < mu puts lam first."""
    members = list(monomials)
    _sort_blocks(interval, tnc, [members])
    return members


def _sort_blocks(interval: Interval, tnc: TypeNC, blocks: list[list[int]]) -> None:
    """Put each block's packed members, in place, in ``_linear_extension`` order.

    A member's key depends on its block only through the block's grid, so
    the blocks are grouped by grid and each group's keys are one
    ``_summed`` call over all its members, then sorted block by block.
    """
    by_grid: dict[tuple[int, ...], list[list[int]]] = {}
    for members in blocks:
        if len(members) > 1:
            by_grid.setdefault(_grid(interval, tnc, members), []).append(members)
    for grid, group in by_grid.items():
        keys = iter(_summed(interval, tnc, [x for members in group for x in members],
                            _grid_shares(interval, tnc, grid)[0]))
        for members in group:
            members[:] = [x for _, x in sorted(zip(islice(keys, len(members)), members))]


class _PackedWeights:
    """Weights of one finite context held as ``_monomial`` ints, rendered
    from the ``_text_tables``: no text is made per weight."""

    interval: Interval
    tnc: TypeNC
    monomials: Sequence[int]

    def row_strings(self):
        """Each weight's ``Matrix01.row_strings``, as a tuple."""
        rows = [list(map(texts.__getitem__, bits)) for texts, bits in zip(
            _text_tables(self.interval, self.tnc),
            _row_bits(self.interval, self.tnc, self.monomials))]
        return zip(*rows) if rows else [()] * len(self.monomials)

    def texts(self) -> list[str]:
        """Each weight's ``Matrix01.text``."""
        return weight_texts(self.interval.lo, self.row_strings())


class _Lowering(dict):
    """f_j on two-column patterns, each filled on first use, never all 4^l up front.

    Key p | 1 << 2l is a pattern p of level l: bit i is row i at column j,
    bit l + i at j + 1.  Its moves are (xor, q-exponent) for each row that
    shows 1, 0 there; the exponent is sum_{r > i} (entry at j - entry at
    j + 1) over the rows below it.
    """

    def __missing__(self, key: int) -> tuple[tuple[int, int], ...]:
        level = (key.bit_length() - 1) // 2
        moves, e = [], 0
        for i in range(level - 1, -1, -1):
            at, after = key >> i & 1, key >> level + i & 1
            if at > after:
                moves.append((1 << i | 1 << level + i, e))
            e += at - after
        self[key] = moves = tuple(moves)
        return moves


_f_moves = _Lowering()


def _psi_kernel(ncols: int, level: int, lam: int) -> dict[int, int]:
    """psi of a packed monomial over |I_+| = ncols columns, memoized, as a flat dict
    {(e << level * ncols) | x: coefficient of q^e x}.

    A monomial of depth d has rows 0..d-1 and zeros below.  Runs the
    recursion of the module docstring as an explicit worklist: an entry is
    computed once everything it reads is in the memo, and otherwise keeps
    its step (k * level, lam', tail) and goes back behind what is missing.
    """
    shift = level * ncols
    ones = _column_ones(level, ncols)
    pair = (1 << 2 * level) - 1
    marker = pair + 1  # the level's mark in a ``_Lowering`` key
    memos = [_psi_cache.setdefault((ncols, level, depth), {}) for depth in range(level + 1)]
    todo = [(lam, level, None)]
    while todo:
        x, depth, step = todo.pop()
        memo = memos[depth]
        if x in memo:
            continue
        if depth <= 1:
            memo[x] = {x: 1}
            continue
        if step is None:
            last = ones << depth - 1
            w = x & last
            # bit k * level + depth - 1 is set where the last row shows 0, 1 at columns k, k + 1
            lowered = ~w & w >> level & last
            if not lowered:  # the last row of kappa
                inner = memos[depth - 1].get(x ^ w)
                if inner is None:
                    todo += [(x, depth, None), (x ^ w, depth - 1, None)]
                else:
                    memo[x] = {key | w: c for key, c in inner.items()}
                continue
            # w = f_j(w') for j = lo + k, k the first such column
            kl = (lowered & -lowered).bit_length() - depth
            x_prime = x ^ (1 | 1 << level) << kl + depth - 1
            above = ((1 << depth - 1) - 1) * (1 | 1 << level)  # rows 0..depth-2, both columns
            moves = _f_moves[x_prime >> kl & above | marker]
            step = kl, x_prime, [(x_prime ^ xr << kl, e) for xr, e in moves]
            missing = [(y, depth, None) for y in [x_prime] + [nu for nu, _ in step[2]]
                       if y not in memo]
            if missing:
                todo += [(x, depth, step), *missing]
                continue
        kl, x_prime, tail = step
        # psi(lam) = f_j psi(lam') - q^-1 sum_nu q^-e psi(nu (x) w')
        acc: dict[int, int] = {}
        shifted: dict[int, list[tuple[int, int]]] = {}
        for key, c in memo[x_prime].items():
            p = key >> kl & pair
            moves = shifted.get(p)
            if moves is None:
                moves = shifted[p] = [(xr << kl, e << shift) for xr, e in _f_moves[p | marker]]
            for xr, e in moves:
                y = (key ^ xr) + e
                acc[y] = acc.get(y, 0) + c
        for nu, e in tail:
            e = 1 + e << shift
            for key, c in memo[nu].items():
                acc[key - e] = acc.get(key - e, 0) - c
        memo[x] = {key: c for key, c in acc.items() if c}
    return memos[-1][lam]


def _grouped(terms: dict[int, int], shift: int) -> dict[int, dict[int, int]]:
    """A flat psi of ``_psi_kernel`` as monomial -> {exponent: coefficient}."""
    full = (1 << shift) - 1
    out: dict[int, dict[int, int]] = {}
    for key, c in terms.items():
        out.setdefault(key & full, {})[key >> shift] = c
    return out


def psi_monomial(lam: Matrix01) -> ModuleVec:
    """psi(v_lam), read off the memoized packed kernel."""
    if not lam.interval.is_finite():
        raise IntervalInfinite("psi requires a finite interval; use the truncation driver")
    ncols, level = lam.interval.n_cols(), lam.tnc.level
    terms = _grouped(_psi_kernel(ncols, level, _monomial(lam)), ncols * level)
    res = ModuleVec(lam.interval, lam.tnc)
    res.terms = {_from_monomial(x, lam.interval, lam.tnc): LaurentInt(c)
                 for x, c in terms.items()}
    return res


def bar_psi(v: ModuleVec) -> ModuleVec:
    """The antilinear bar involution on a finite-interval module."""
    out = ModuleVec(v.interval, v.tnc)
    for lam, c in v.terms.items():
        out = out + psi_monomial(lam).scale(c.bar())
    return out


class BlockData(_PackedWeights):
    """One block: members sharing an sl_I weight, with psi/D/P matrices.
    ``monomials`` ascend in the order; ``members`` are made on first read."""

    def __init__(self, interval: Interval, tnc: TypeNC, weight: WeightPI,
                 monomials: tuple[int, ...]):
        self.interval = interval
        self.tnc = tnc
        self.weight = weight
        self.monomials = monomials
        self._rmat = None
        self._dmat = None
        self._pinv = None
        self._core = None

    @property
    def size(self) -> int:
        return len(self.monomials)

    def member(self, a: int) -> Matrix01:
        return _from_monomial(self.monomials[a], self.interval, self.tnc)

    @cached_property
    def members(self) -> tuple[Matrix01, ...]:
        return tuple(map(self.member, range(self.size)))

    def position(self, lam: Matrix01) -> int:
        """lam's position; KeyError for a weight outside the block.

        ``_monomial`` packs entries, so a weight of another context (a
        polarity-flipped type, say) can pack to a member's int.
        """
        if (lam.interval, lam.tnc) != (self.interval, self.tnc):
            raise KeyError(lam)
        return self._mask_pos[_monomial(lam)]

    @cached_property
    def _mask_pos(self) -> dict[int, int]:
        """The packed ``_monomial`` of each member -> its position."""
        return dict(zip(self.monomials, range(self.size)))

    @cached_property
    def _profiles(self) -> tuple[int, list[int]]:
        """The block's order table, on first read: top, and each member's signed
        prefix counts of rows 0..l-2 packed in one int, as ``_grid_shares`` says."""
        _, top, order = _grid_shares(self.interval, self.tnc, _grid(
            self.interval, self.tnc, self.monomials))
        return top, _summed(self.interval, self.tnc, self.monomials, order)

    def leq(self, a: int, b: int) -> bool:
        """The (TP1) order on the members at positions a and b."""
        top, packed = self._profiles
        return (packed[a] - packed[b] + top) & top == top

    @cached_property
    def _psi_rows(self) -> "_Rows":
        """Row a -> sparse map b -> {exponent: coefficient} of member b in psi(v_a),
        read through ``_mirror`` when omega maps the block onto itself."""
        return _checked_psi(self.interval, self.tnc, self._mask_pos, self._profiles,
                            self._mirror)

    @cached_property
    def _mirror(self) -> tuple[int, ...] | None:
        """Member a -> the position of omega(member a) when omega maps the block
        onto itself, else None.  omega maps the context onto itself when the
        type reads the same reversed; it maps blocks to blocks, so one
        member's image tells whether the block is its own mirror."""
        if not _self_mirror_type(self.tnc):
            return None
        nbits, pos = self.tnc.level * self.interval.n_cols(), self._mask_pos
        if _mirrored(self.monomials[:1], nbits)[0] not in pos:
            return None
        return tuple(map(pos.__getitem__, _mirrored(self.monomials, nbits)))

    def psi_matrix(self) -> list[dict[int, LaurentInt]]:
        """Every row of psi, each read from the kernel, with no mirror, and checked
        for triangularity and diagonal 1."""
        if self._rmat is None:
            rows = _checked_psi(self.interval, self.tnc, self._mask_pos, self._profiles)
            self._rmat = [{b: LaurentInt(c) for b, c in row.items()} for row in rows]
        return self._rmat

    def core(self) -> tuple["BlockData", tuple[int, ...]]:
        """The block's core and the map member position -> core position."""
        if self._core is None:
            self._core = self._reduce()
        # () marks a block that is its own core; storing (self, ...) would
        # make a reference cycle that outlives clear_caches until a GC pass
        return self._core or (self, tuple(range(self.size)))

    def _reduce(self) -> tuple:
        """(core, positions), looked up in or added to the registry; () if none.

        A bit is frozen in row i when no member's row i differs there from
        the first member's; a column is frozen when it is frozen in every
        row.  The k kept columns become I_+ of 0:(k-2), and each row keeps
        its polarity and the deviations left in it.  When the type reads the
        same reversed, the core is this reduction or its omega-image,
        whichever has the smaller registry key (``_key_ranks``), and the
        positions go through omega.  A block of size 1 is its own core, and
        so is one with no frozen column unless its omega-image has the
        smaller key.
        """
        monomials = self.monomials
        if self.size == 1:
            return ()
        moving = reduce(or_, monomials) ^ reduce(and_, monomials)
        level, ncols = self.tnc.level, self.interval.n_cols()
        column = (1 << level) - 1
        kept = [k for k in range(ncols) if moving >> k * level & column]
        interval, tnc, reduced = self.interval, self.tnc, monomials
        if len(kept) < ncols:
            # a lone unfrozen column would be fixed by the row sums
            assert len(kept) >= 2, "a block of size >= 2 keeps at least two columns"
            reduced = [sum([(x >> k * level & column) << i * level for i, k in enumerate(kept)])
                       for x in monomials]
            interval = Interval.finite(0, len(kept) - 2)
            ones = _column_ones(level, len(kept))
            tnc = TypeNC(tuple(len(kept) - m if ci else m for m, ci in zip(
                [(reduced[0] & ones << i).bit_count() for i in range(level)], tnc.c)), tnc.c)
        if _self_mirror_type(self.tnc):
            rank, mirror = _key_ranks(_packed_block_key(interval, tnc, reduced[0]))
            if mirror < rank:
                tnc, reduced = tnc.reversed(), _mirrored(reduced, level * len(kept))
        if reduced is monomials:
            return ()
        core = _registered(_packed_block_key(interval, tnc, reduced[0]),
                           lambda: _linear_extension(interval, tnc, reduced))
        pos = tuple(map(core._mask_pos.get, reduced))
        if core.size != self.size or None in pos:
            raise SuperklError(f"block of {self.member(0).text()} and its core "
                               f"differ in members")
        return core, pos

    def d_matrix(self) -> "_Rows":
        """Unitriangular matrix of d-polynomials: row a, column b.

        Solved on the core only; any other block reads the core's rows
        through ``_translate``.  The core of a type that reads the same
        reversed may be the omega-image of the block's reduction, and a
        core that omega maps onto itself solves one row of each mirror
        pair and reads the other through ``_MirroredRows``.  A row's
        column order is not part of its contract.
        """
        if self._dmat is None:
            core, pos = self.core()
            self._dmat = (self._solve_d() if core is self
                          else _translate(core.d_matrix(), pos))
        return self._dmat

    def _solve_d(self) -> "_Rows":
        """The d-matrix from this block's own psi rows, each row on first read,
        read through ``_mirror`` when omega maps the block onto itself."""
        r, mirror = self._psi_rows, self._mirror

        def fill(a):
            return _d_row(r, a)
        return _Rows(self.size, fill) if mirror is None else _MirroredRows(self.size, fill, mirror)

    def p_matrix(self) -> Sequence[dict[int, LaurentInt]]:
        """Inverse of the d-matrix (entries are p(-q) before substitution).

        Solved on the core only, one ``_p_column`` per column, each over
        the d rows up to it; any other block reads the core's rows through
        ``_translate``.  A row's column order is not part of its contract.
        """
        if self._pinv is None:
            core, pos = self.core()
            if core is self:
                d, rows = self.d_matrix(), {}
                self._pinv = [{} for _ in range(self.size)]
                for m in range(self.size):
                    rows[m] = d[m]
                    for x, c in _p_column(rows, m).items():
                        self._pinv[x][m] = c
            else:
                self._pinv = _translate(core.p_matrix(), pos)
        return self._pinv


class _Rows(Sequence):
    """A matrix as a list of sparse rows, row a computed by fill(a) on first read.

    ``rows[a]`` is None until row a is read.  A fill function must not hold
    the block it belongs to: a view lives on its block, and a reference back
    would make a cycle that outlives ``clear_caches`` until a GC pass.
    """

    __slots__ = ("rows", "fill")

    def __init__(self, size: int, fill):
        self.rows: list[dict | None] = [None] * size
        self.fill = fill

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, a: int) -> dict:
        row = self.rows[a]
        if row is None:
            a %= len(self.rows)
            row = self.rows[a] = self.fill(a)
        return row

    def __iter__(self):
        return map(self.__getitem__, range(len(self.rows)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (_Rows, list)):
            return NotImplemented
        return list(self) == list(other)


def _unchecked(a: int, row: dict) -> dict:
    return row


class _MirroredRows(_Rows):
    """The rows of a block that omega maps onto itself, mirror[a] the position of
    omega(member a): d_{omega lam, omega mu} = d_{lam, mu}, and so for psi.

    Of each pair (a, mirror[a]) only the row at the smaller position is
    fill(a); the other is that row with its columns renamed through mirror,
    handed to check(a, row), which returns it or raises.  Like a fill, check
    must not hold the block or this view.
    """

    __slots__ = ("mirror", "check")

    def __init__(self, size: int, fill, mirror: tuple[int, ...], check=_unchecked):
        super().__init__(size, fill)
        self.mirror, self.check = mirror, check

    def __getitem__(self, a: int) -> dict:
        row = self.rows[a]
        if row is None:
            a %= len(self.rows)
            w = self.mirror
            row = self.rows[a] = (self.check(a, {w[b]: c for b, c in self[w[a]].items()})
                                  if w[a] < a else self.fill(a))
        return row


def _checked_psi(interval: Interval, tnc: TypeNC, mask_pos: dict[int, int],
                 profiles: tuple[int, list[int]], mirror: tuple[int, ...] | None = None) -> _Rows:
    """psi on a block's members, one row per first read.

    Reads the flat psi of the kernel through a monomial -> position map,
    and checks that psi(v_a) is supported on members b >= a in the order,
    read off the block's order table ``profiles``, with coefficient 1 at a
    itself.  Row a maps b to the {exponent: coefficient} map of its entry.
    With a mirror, a ``_MirroredRows`` reads the kernel for half the rows
    and checks every row the same way.
    """
    monomials = list(mask_pos)
    ncols, level = interval.n_cols(), tnc.level
    top, packed = profiles

    def text(x: int) -> str:
        return _from_monomial(x, interval, tnc).text()

    def check(a, row):
        for b in row:
            if (packed[a] - packed[b] + top) & top != top:
                raise NonTriangularBar(f"psi(v[{text(monomials[a])}]) has support at "
                                       f"{text(monomials[b])}")
        if row.get(a) != {0: 1}:
            raise NonTriangularBar(f"psi(v[{text(monomials[a])}]) diagonal coefficient is not 1")
        return row

    def fill(a):
        row: dict[int, dict[int, int]] = {}
        for x, coeffs in _grouped(_psi_kernel(ncols, level, monomials[a]), ncols * level).items():
            b = mask_pos.get(x)
            if b is None:
                raise NonTriangularBar(f"psi(v[{text(monomials[a])}]) has support at {text(x)}")
            row[b] = coeffs
        return check(a, row)
    if mirror is None:
        return _Rows(len(monomials), fill)
    return _MirroredRows(len(monomials), fill, mirror, check)


def _d_row(r: _Rows, a: int, cols: frozenset[int] | None = None) -> dict[int, LaurentInt]:
    """Row a of the d-matrix from the psi rows r, at the columns cols (every one by default).

    Solves sum_{c <= b} bar(d[a][c]) r[c][b] = d[a][b] modulo qZ[q]
    column by column.  Each finished d[a][c] is pushed at once through row
    c of psi into the defects of the later columns of cols, so column b
    reads its defect from one accumulator, and only the psi rows of the
    row's support are read, but for the last column's, which would push
    past it.  cols, when given, is the order interval [a, m] of a column m
    >= a: d[a][c] r[c][b] != 0 needs a <= c <= b in the order, so a column
    of it reads only columns of it, and the row cut to it is exact.
    """
    stop = len(r) - 1 if cols is None else max(cols)
    d: dict[int, LaurentInt] = {a: one}
    defects: dict[int, dict[int, int]] = {}
    for b in range(a, stop + 1):
        if b > a:
            s = {e: c for e, c in defects.pop(b, {}).items() if c}
            if not s:
                continue
            if any(s.get(-e) != -c for e, c in s.items()):
                raise NonTriangularBar("congruence defect is not bar-antisymmetric")
            d[b] = LaurentInt({e: c for e, c in s.items() if e > 0})
        if b == stop:
            break
        db = d[b]
        row = r[b].items() if cols is None else [(x, rx) for x, rx in r[b].items() if x in cols]
        for x, rx in row:
            if x > b:
                acc = defects.setdefault(x, {})
                for e1, c1 in db.coeffs.items():
                    for e2, c2 in rx.items():
                        acc[e2 - e1] = acc.get(e2 - e1, 0) + c1 * c2
    return d


def _translate(rows: Sequence[dict[int, LaurentInt]],
               pos: tuple[int, ...]) -> Sequence[dict[int, LaurentInt]]:
    """A core's matrix read at member positions: entry (a, b) is rows[pos[a]][pos[b]].

    When pos is the identity the block reads the core's own rows.  Otherwise
    a row is renamed on first read; its columns keep the core row's order,
    which is not part of a row's contract.
    """
    if pos == tuple(range(len(pos))):
        return rows
    back = {x: a for a, x in enumerate(pos)}
    return _Rows(len(pos), lambda a: {back[y]: c for y, c in rows[pos[a]].items()})


def _key_base(level: int) -> int:
    """B = 2^(b + 2), b the bit length of the level: the digit base of the packed keys.

    Every count, and every residual count of ``_completable_picks``, lies
    in [-level, level], and level < B/4: key sums are equal iff their counts
    are, and a residual count moved by at most level and then by B/2 stays
    in [0, B).
    """
    return 1 << (level.bit_length() + 2)


def _keyed(lam: Matrix01) -> tuple[int, list[tuple[list[int], list[int]]]]:
    """lam's key sum and the ``_choice_keys`` of its context."""
    interval, tnc = lam.interval, lam.tnc
    if not interval.is_finite():
        raise IntervalInfinite("blocks over infinite intervals can be infinite; truncate first")
    base = _key_base(tnc.level)
    return (sum([(-1 if ci else 1) * base ** (j - interval.lo)
                 for ci, row in zip(tnc.c, lam.devs) for j in row]),
            _choice_keys(interval, tnc))


def _choice_keys(interval: Interval, tnc: TypeNC) -> list[tuple[list[int], list[int]]]:
    """Each row's ``row_choices``, in order, as two lists: the choices' bits in a
    ``_monomial`` and one packed key per choice.

    The key of a choice packs its signed deviation counts: the count v_j at
    column j is the digit of B^(j - lo), B = ``_key_base(level)``, so two
    weights' key sums are equal iff their ``column_counts`` are.  A
    choice's bits and key are sums of per-column values over its columns,
    so a row's lists are the sums over ``combinations`` of those values,
    put in ``row_choices`` order by ``in_row_order``.
    """
    level, ncols, base = tnc.level, interval.n_cols(), _key_base(tnc.level)
    ones, digits = _column_ones(level, ncols), [base ** k for k in range(ncols)]
    rows = []
    for i, (ni, ci) in enumerate(zip(tnc.n, tnc.c)):
        bits = in_row_order(
            list(map(sum, combinations([1 << k * level + i for k in range(ncols)], ni))), ci)
        keys = in_row_order(list(map(sum, combinations(digits, ni))), ci)
        rows.append(([ones << i ^ b for b in bits], [-k for k in keys]) if ci else (bits, keys))
    return rows


def _packed_keys(interval: Interval, tnc: TypeNC) -> tuple[list[int], list[int]]:
    """Each weight's key sum and ``_monomial``, in enumeration order: the
    sums, row by row, of its rows' ``_choice_keys``."""
    keys, monomials = [0], [0]
    for bits, row_keys in _choice_keys(interval, tnc):
        keys = [s + k for s in keys for k in row_keys]
        monomials = [x + b for x in monomials for b in bits]
    return keys, monomials


class BlockTable(_PackedWeights):
    """All blocks of one finite context, from one pass over its row choices.

    ``monomials`` is every weight, packed, in ``enumerate_weights`` order;
    ``weights``, the same as ``Matrix01``, is made on first read.  The
    weights are grouped by their ``_packed_keys``, and each group is looked
    up in or added to the registry under the ``_packed_block_key`` of its
    first member, so ``blocks`` are shared with ``block_data``; they are
    sorted by their sl_I weight.  The groups the registry lacks are put in
    a linear extension together, by ``_sort_blocks``: one sort pass per grid.
    """

    def __init__(self, interval: Interval, tnc: TypeNC):
        self.interval = interval
        self.tnc = tnc
        keys, self.monomials = _packed_keys(interval, tnc)
        groups: dict[int, list[int]] = {}
        for key, x in zip(keys, self.monomials):
            groups.setdefault(key, []).append(x)
        blocks = {_packed_block_key(interval, tnc, group[0]): group for group in groups.values()}
        _sort_blocks(interval, tnc, [group for key, group in blocks.items()
                                     if key not in _single_block_cache])
        self.blocks: list[BlockData] = sorted(
            (_registered(key, group.copy) for key, group in blocks.items()),
            key=lambda b: sorted(b.weight.items()))

    @cached_property
    def weights(self) -> list[Matrix01]:
        return enumerate_weights(self.interval, self.tnc)


def _completable_picks(rows, tnc: TypeNC, cols: range, target: int, span: range):
    """The picks of ``rows[span]`` that lam's key sum target can still complete,
    in enumeration order, each as its summed bits and its residual: target
    minus its key sum.

    Depth first, with feasibility pruning: every row not yet chosen moves a
    column's count by at most one, up for polarity 0 and down for 1, so with
    p and m such rows left each residual count must lie in [-m, p].  All
    columns are checked at once on the packed residual r: the digits of
    r + (m + B/2)·ONES and of (p + B/2)·ONES - r lie in [0, B), and their
    top bits are all set iff every residual count lies in [-m, p].  The
    stack holds at most every row's choices once, so a caller that stops
    early has used memory linear in the rows' choices, not in the picks.
    """
    base = _key_base(tnc.level)
    ones = sum([base ** (j - cols[0]) for j in cols])
    top = base // 2 * ones
    up = [bool(ni) and not ci for ni, ci in zip(tnc.n, tnc.c)]
    down = [bool(ni) and bool(ci) for ni, ci in zip(tnc.n, tnc.c)]
    p, m, bounds = sum(up), sum(down), []
    for i in span:
        p, m = p - up[i], m - down[i]
        bounds.append((m * ones + top, p * ones + top, *rows[i]))
    if not span:
        yield 0, target
    todo = [(0, 0, target)]
    while todo and span:
        d, pick, r = todo.pop()
        low, high, bits, keys = bounds[d]
        picks = [(pick + b, rest) for b, key in zip(bits, keys)
                 if ((rest := r - key) + low) & (high - rest) & top == top]
        if d + 1 == len(span):
            yield from picks
        else:
            todo += [(d + 1, *pick) for pick in reversed(picks)]


def _block_members_direct(lam: Matrix01) -> list[int]:
    """lam's block, packed: the weights of its context whose key sum is lam's.

    Meets in the middle on ``_completable_picks`` of two halves of the rows,
    cut where the halves have the closest numbers of choice tuples (on a
    tie the left half is the larger).  The right half's picks are indexed by
    their residuals, and each left pick, in enumeration order, is joined to
    the right picks whose residual completes its key sum to lam's.  So the
    members come out in enumeration order.
    """
    interval, tnc = lam.interval, lam.tnc
    target, rows = _keyed(lam)
    sizes = [len(bits) for bits, _ in rows]
    cut = min(range(len(rows), -1, -1), key=lambda s: abs(prod(sizes[:s]) - prod(sizes[s:])))
    completions: dict[int, list[int]] = {}
    for pick, rest in _completable_picks(rows, tnc, interval.cols(), target,
                                         range(cut, len(rows))):
        completions.setdefault(rest, []).append(pick)
    return [head + pick for head, rest in _completable_picks(rows, tnc, interval.cols(), target,
                                                             range(cut))
            for pick in completions.get(target - rest, ())]


def block_size(lam: Matrix01, cap: int) -> int:
    """min(the size of lam's block, cap + 1), with no member built.

    Each of the ``_completable_picks`` of all rows but the last adds the
    number of the last row's choices whose key is its residual; the count
    stops as soon as it passes cap, so it takes memory linear in the rows'
    choices however large the block is.
    """
    target, rows = _keyed(lam)
    finals, count = Counter(rows[-1][1] if rows else [0]), 0
    for _, rest in _completable_picks(rows, lam.tnc, lam.interval.cols(), target,
                                      range(len(rows) - 1)):
        count += finals.get(rest, 0)
        if count > cap:
            return cap + 1
    return count


def block_data(lam: Matrix01) -> BlockData:
    """The block of lam: the cached one, or built directly from lam."""
    interval, tnc = lam.interval, lam.tnc
    return _registered(_packed_block_key(interval, tnc, _monomial(lam)),
                       lambda: _linear_extension(interval, tnc, _block_members_direct(lam)))


def _profile_bits(spread: int) -> int:
    """Bits per digit of a packed profile whose digit differences lie in [-spread, spread]."""
    return spread.bit_length() + 1


def _d_row_vec(lam: Matrix01, space: Matrix01, member, coeff) -> ModuleVec:
    """Row lam of the d-matrix of lam's block as a vector of space's module:
    coeff(d_{lam,mu}) at member(mu) for each mu of the row."""
    block = block_data(lam)
    row = block.d_matrix()[block.position(lam)]
    return ModuleVec(space.interval, space.tnc,
                     {member(block.member(b)): coeff(c) for b, c in row.items()})


def _same(x):
    return x


def canonical_basis(lam: Matrix01) -> ModuleVec:
    """b_lam, the psi-invariant unitriangular basis vector."""
    if not lam.interval.is_finite():
        raise IntervalInfinite("canonical basis requires a finite interval")
    return _d_row_vec(lam, lam, _same, _same)


def _check_same_context(lam: Matrix01, mu: Matrix01) -> None:
    if lam.interval != mu.interval or lam.tnc != mu.tnc:
        raise TypeMismatch("weights live over different contexts")


def _decided(lam: Matrix01, mu: Matrix01) -> LaurentInt | None:
    """d_{lam,mu} = p_{lam,mu} when the order decides them, with no block built;
    None otherwise.

    Both are 1 at lam = mu, and 0 when mu lies in another block or is not
    >= lam in the order, since psi is triangular in it.
    """
    _check_same_context(lam, mu)
    if lam == mu:
        return one
    interval, tnc = lam.interval, lam.tnc
    if (_packed_block_key(interval, tnc, _monomial(lam))
            != _packed_block_key(interval, tnc, _monomial(mu)) or not order_leq(lam, mu)):
        return zero
    return None


def _between(block: BlockData, a: int, m: int) -> frozenset[int]:
    """The positions of the order interval [a, m] of the block's members."""
    return frozenset(x for x in range(a, m + 1) if block.leq(a, x) and block.leq(x, m))


def _order_interval(lam: Matrix01, mu: Matrix01) -> tuple[_Rows, int, int, frozenset[int]]:
    """(psi rows of lam's core, pos(lam), pos(mu), the positions of the order
    interval [lam, mu] in the core), for lam < mu in one block."""
    block = block_data(lam)
    core, pos = block.core()
    a, m = pos[block.position(lam)], pos[block.position(mu)]
    return core._psi_rows, a, m, _between(core, a, m)


def _reach(r: _Rows, a: int, cols: frozenset[int]) -> dict[int, dict[int, LaurentInt]]:
    """Row x of the d-matrix cut to cols, for every x reached from a through them."""
    rows: dict[int, dict[int, LaurentInt]] = {}
    todo = [a]
    while todo:
        x = todo.pop()
        if x not in rows:
            rows[x] = _d_row(r, x, cols)
            todo.extend(rows[x])
    return rows


def _p_column(rows: dict[int, dict[int, LaurentInt]], m: int) -> dict[int, LaurentInt]:
    """Column m of the inverse of d at the positions of rows, from the bottom up.

    p[x][m] = delta_{xm} - sum_{x < k <= m} d[x][k] p[k][m]; rows holds the
    rows of d at every position such a sum reaches, and their entries past
    column m add nothing.
    """
    col: dict[int, LaurentInt] = {m: one}
    for x in sorted(rows, reverse=True):
        if x == m:
            continue
        acc: dict[int, int] = {}
        for k, dk in rows[x].items():
            pk = col.get(k)  # None at k = x, which col does not hold yet
            if pk is not None:
                for e1, c1 in dk.coeffs.items():
                    for e2, c2 in pk.coeffs.items():
                        acc[e1 + e2] = acc.get(e1 + e2, 0) - c1 * c2
        entry = LaurentInt(acc)
        if entry:
            col[x] = entry
    return col


def kl_d(lam: Matrix01, mu: Matrix01) -> LaurentInt:
    """The graded decomposition polynomial d_{lam,mu}, from row lam of d cut to [lam, mu]."""
    if not lam.interval.is_finite():
        raise IntervalInfinite("use kl_d_stable for infinite intervals")
    known = _decided(lam, mu)
    if known is not None:
        return known
    r, a, m, cols = _order_interval(lam, mu)
    return _d_row(r, a, cols).get(m, zero)


def kl_p(lam: Matrix01, mu: Matrix01) -> LaurentInt:
    """The inverse-family polynomial p_{lam,mu} (in N[q]), from one column of p.

    Only the d rows reached from lam, cut to [lam, mu], are solved.
    """
    if not lam.interval.is_finite():
        raise IntervalInfinite("use kl_p_stable for infinite intervals")
    return kl_dp(lam, mu)[1]


def kl_dp(lam: Matrix01, mu: Matrix01) -> tuple[LaurentInt, LaurentInt]:
    """(d_{lam,mu}, p_{lam,mu}) over a finite interval, from one ``_reach``.

    Row lam of d cut to [lam, mu] is the first row ``_reach`` solves, so d
    is read off it and each cut row is solved once for both.
    """
    known = _decided(lam, mu)
    if known is not None:
        return known, known
    r, a, m, cols = _order_interval(lam, mu)
    rows = _reach(r, a, cols)
    return rows[a].get(m, zero), _p_column(rows, m).get(a, zero).subs_neg_q()


def dual_canonical(mu: Matrix01) -> ModuleVec:
    """b*_mu = sum_lam p_{lam,mu}(-q) v_lam, read off one row of the Koszul dual.

    p_{lam,mu}(q) = d_{T(mu),T(lam)}(q) with T = ``koszul_dual``, so the
    column of p at mu is row T(mu) of the dual block's d-matrix, mapped
    back through T^-1.  Below level 2 every block is a singleton and
    b*_mu = v_mu.
    """
    if not mu.interval.is_finite():
        raise IntervalInfinite("dual canonical basis requires a finite interval")
    if mu.tnc.level < 2:
        return ModuleVec.monomial(mu)
    return _d_row_vec(koszul_dual(mu), mu,
                      lambda nu: koszul_dual_inverse(nu, mu.interval, mu.tnc),
                      LaurentInt.subs_neg_q)


def _reverse_rows(lam: Matrix01) -> Matrix01:
    return Matrix01(lam.interval, lam.tnc.reversed(), lam.devs[::-1])


def twisted_canonical(lam: Matrix01) -> ModuleVec:
    """The twisted basis vector, from d-polynomials of the row-reversed type."""
    if not lam.interval.is_finite():
        raise IntervalInfinite("twisted basis requires a finite interval")
    return _d_row_vec(_reverse_rows(lam), lam, _reverse_rows, LaurentInt.bar)


def young_word_dim(lam: Matrix01, word) -> LaurentInt:
    """Graded dimension of a word space of the Young module of lam.

    Computed as q^{def(lam)} (v_kappa, e_{i_1} ... e_{i_d} b_lam), the
    rightmost color acting first: the pairing itself is the self-dual
    normalization q^{-def} of the word-space dimension, so the shift
    restores the dimension proper.
    """
    from .weights import defect

    v = canonical_basis(lam)
    for color in reversed(list(word)):
        v = act_e(color, v)
        if not v:
            return zero
    kap = kappa(lam.interval, lam.tnc)
    val = v.coeff(kap)
    if not val:
        return zero
    return val.shift(defect(lam))


def stable_windows(lam: Matrix01, mu: Matrix01) -> list[Interval]:
    """Every window ``_stable`` reads kl(lam, mu) in, the base window first.

    The base is ``stable_window(lam, mu)``; after it come its one-column
    enlargements that lie inside the interval.  A finite interval is its
    own only window.
    """
    window = stable_window(lam, mu)
    bigger = (Interval.finite(window.lo - dlo, window.hi + dhi)
              for dlo, dhi in ((1, 0), (0, 1), (1, 1)))
    return [window] + [w for w in bigger if w.issubset(lam.interval)]


def _stable(kl, lam: Matrix01, mu: Matrix01) -> LaurentInt:
    """kl(lam, mu) over any interval, read in ``stable_windows`` and re-checked.

    The value in the base window must not change in any enlargement.
    """
    _check_same_context(lam, mu)
    window, *bigger = stable_windows(lam, mu)
    base = kl(truncate(lam, window), truncate(mu, window))
    for w in bigger:
        again = kl(truncate(lam, w), truncate(mu, w))
        if again != base:
            raise StabilityViolation(
                f"{kl.__name__} changed from {base} to {again} when enlarging "
                f"{window.text()} to {w.text()}")
    return base


def kl_d_stable(lam: Matrix01, mu: Matrix01) -> LaurentInt:
    """d_{lam,mu} over any interval, window-stable over an infinite one."""
    return _stable(kl_d, lam, mu)


def kl_p_stable(lam: Matrix01, mu: Matrix01) -> LaurentInt:
    """p_{lam,mu} over any interval, window-stable over an infinite one."""
    return _stable(kl_p, lam, mu)


# ---------------------------------------------------------------------------
# Independent oracle: solve psi(x) = x by generic linear algebra.

def canonical_basis_direct(lam: Matrix01) -> ModuleVec:
    """Solve {psi(x) = x, x in v_lam + sum_{mu > lam} qZ[q] v_mu} directly.

    Independent of the triangular algorithm: sets up the integer linear
    system on the polynomial coefficients and solves it by generic sparse
    Gaussian elimination over Q, ``laurent.row_reduce``.  Raises if the
    solution fails to exist or to be unique.
    """
    block = block_data(lam)
    r = block.psi_matrix()
    size = block.size
    pos_lam = block.position(lam)
    upset = [b for b in range(size)
             if b != pos_lam and order_leq(lam, block.members[b])]
    spread = 1
    for row in r:
        for c in row.values():
            if c.coeffs:
                spread = max(spread, abs(c.min_exp()), abs(c.max_exp()))
    for degree_bound in (spread + 2, 2 * spread + size + 4):
        sol = _solve_bar_system(r, size, pos_lam, upset, degree_bound, spread)
        if sol is not None:
            out = ModuleVec(lam.interval, lam.tnc)
            out.terms = {block.members[b]: c for b, c in sol.items() if c}
            return out
    raise NonTriangularBar("oracle system infeasible; degree bound too small")


def _solve_bar_system(r, size, pos_lam, upset, degree_bound, spread):
    """Solve the coefficientwise linear system; None when infeasible.

    Unknown i is column i, and an equation's constant is column nvar, after
    every unknown, which back-substitution reads as -1.  So a row that
    reduces to that column alone reads 0 = b != 0.
    """
    unknowns = [(b, k) for b in upset for k in range(1, degree_bound + 1)]
    index = {u: i for i, u in enumerate(unknowns)}
    nvar = len(unknowns)
    # x = v_lam + sum c_{b,k} q^k v_b with b in the upset;  psi(x) - x = 0.
    # psi(x) = psi(v_lam) + sum c_{b,k} q^{-k} psi(v_b), so the coefficient
    # of q^E at member a reads
    #   r[pos_lam][a][E] + sum_{b,k} c_{b,k} r[b][a][E+k] - x_a[E] = 0.
    exps = range(-degree_bound - spread, max(spread, degree_bound) + 1)
    eqs: list[dict[int, int]] = []
    for a in range(size):
        base = r[pos_lam].get(a, zero)
        contributors = [b for b in upset if a in r[b]]
        for E in exps:
            const = base[E] - (1 if (a == pos_lam and E == 0) else 0)
            entries: dict[int, int] = {nvar: -const}
            for b in contributors:
                rba = r[b][a]
                for k in range(1, degree_bound + 1):
                    entries[index[(b, k)]] = rba[E + k]
            if a in upset and 1 <= E <= degree_bound:
                i = index[(a, E)]
                entries[i] = entries.get(i, 0) - 1
            eqs.append(entries)
    pivots = row_reduce(eqs)
    if any(pc == nvar for pc, _ in pivots):
        return None  # infeasible at this degree bound
    if len(pivots) < nvar:
        raise NonTriangularBar("oracle system is underdetermined")
    assignment: dict[int, Fraction] = {nvar: Fraction(-1)}
    for pc, rest in reversed(pivots):
        assignment[pc] = -sum(v * assignment[k] for k, v in rest.items())
    sol: dict[int, LaurentInt] = {pos_lam: one}
    for (b_mem, k), i in index.items():
        val = assignment.get(i, Fraction(0))
        if val:
            if val.denominator != 1:
                return None
            cur = sol.get(b_mem, zero)
            sol[b_mem] = cur + LaurentInt.monomial(k, int(val))
    return sol
