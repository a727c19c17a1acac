import random
import sys

import pytest

from superkl import canonical as canon
from superkl.laurent import zero
from superkl.weights import Interval, Matrix01, TypeNC, koszul_dual, weight_count


def iter_intervals(max_cols=5):
    """Finite intervals [0, k] with |I_+| between 2 and max_cols."""
    for hi in range(0, max_cols - 1):
        yield Interval.finite(0, hi)


def iter_types(z, max_level=3, polarities=(0,)):
    """All types of level <= max_level over an interval with z columns."""
    ns = range(0, z + 1)
    for level in range(1, max_level + 1):
        stack = [()]
        for _ in range(level):
            stack = [t + (n,) for t in stack for n in ns]
        for n in stack:
            cs = [()]
            for _ in range(level):
                cs = [c + (p,) for c in cs for p in polarities]
            for c in cs:
                yield TypeNC(tuple(n), tuple(c))


def sweep_contexts(max_dim=500, max_cols=5, max_level=3):
    """The acceptance sweep: every (interval, type) with dim <= max_dim.

    Types of level <= 2 run over all polarity patterns; at level 3 only the
    all-zero pattern is kept, since a polarity flip replaces the type by an
    equivalent one indexing the identical set of 01-matrices with the
    identical action formulas (the identification is itself under test in
    the equivalent-type suite).
    """
    for interval in iter_intervals(max_cols):
        z = interval.n_cols()
        for tnc in iter_types(z, min(2, max_level), polarities=(0, 1)):
            if 0 < weight_count(interval, tnc) <= max_dim:
                yield interval, tnc
        if max_level >= 3:
            for tnc in iter_types(z, 3, polarities=(0,)):
                if tnc.level == 3 and 0 < weight_count(interval, tnc) <= max_dim:
                    yield interval, tnc


def random_infinite_matrix(rng, interval, tnc, span=6):
    """A random weight over an infinite interval, deviations within a span."""
    if interval.lo is not None:
        base = interval.lo
    elif interval.hi is not None:
        base = interval.hi + 1 - span
    else:
        base = rng.randint(-4, 0)
    cols = list(range(base, base + span))
    devs = tuple(tuple(sorted(rng.sample(cols, ni))) for ni in tnc.n)
    return Matrix01(interval, tnc, devs)


def block_key(lam: Matrix01) -> tuple:
    """The registry key of lam's block, ``_packed_block_key`` of its ``_monomial``."""
    return canon._packed_block_key(lam.interval, lam.tnc, canon._monomial(lam))


def p_column(mu: Matrix01) -> dict:
    """b*_mu read as the column of p at mu, the reading ``dual_canonical`` replaced."""
    block = canon.block_data(mu)
    p = block.p_matrix()
    b = block.position(mu)
    return {block.members[a]: p[a][b] for a in range(block.size) if b in p[a]}


def duality_failures(interval: Interval, tnc: TypeNC, dual=koszul_dual) -> list:
    """The pairs (lam, mu) of one context with p_{lam,mu} != d_{dual(mu),dual(lam)}.

    Each block's p-matrix is compared column by column with the d rows of
    the block of dual(members[0]); dual must map the block into that one.
    """
    failures = []
    for block in canon.BlockTable(interval, tnc).blocks:
        p = block.p_matrix()
        images = [dual(m) for m in block.members]
        dual_block = canon.block_data(images[0])
        d = dual_block.d_matrix()
        pos = [dual_block.position(x) for x in images]
        back = {x: a for a, x in enumerate(pos)}
        columns = [{} for _ in range(block.size)]
        for a, row in enumerate(p):
            for b, entry in row.items():
                columns[b][a] = entry.subs_neg_q()
        for b, column in enumerate(columns):
            row = {back[x]: c for x, c in d[pos[b]].items()}
            failures += [(block.members[a], block.members[b])
                         for a in column.keys() | row.keys()
                         if column.get(a, zero) != row.get(a, zero)]
    return failures


@pytest.fixture
def rng():
    return random.Random(20240817)


_ACCEPTANCE_LINES = []


def acceptance_line(number, ok, text):
    """Record one pass/fail line per criterion; printed in the summary."""
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {number:2d} {status}: {text}"
    _ACCEPTANCE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
