import random
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superkl.errors import ContextMismatch, NotDivisible
from superkl.klr import AHAElem, KLRContext, KLRElem, NilHeckePoly, perm_identity
from superkl.laurent import (
    LaurentInt,
    bar,
    div_exact,
    one,
    q,
    qfact,
    qint,
    render,
    row_reduce,
    zero,
)
from superkl.qmodule import ModuleVec
from superkl.weights import Interval, Matrix01, TypeNC, enumerate_weights


def L(**kw):
    return LaurentInt({int(k[1:].replace("m", "-")): v for k, v in kw.items()})


def rand_poly(rng, width=5, size=4):
    return LaurentInt({rng.randint(-width, width): rng.randint(-6, 6)
                       for _ in range(size)})


def test_add_examples():
    # (q + 1) + (q^-1 - 1) = q + q^-1
    a = LaurentInt({1: 1, 0: 1})
    b = LaurentInt({-1: 1, 0: -1})
    assert a + b == qint(2)
    p = rand_poly(random.Random(1))
    assert zero + p == p
    assert q + q == LaurentInt({1: 2})


def test_mul_examples():
    assert qint(2) * LaurentInt({1: 1, -1: -1}) == LaurentInt({2: 1, -2: -1})
    p = rand_poly(random.Random(2))
    assert one * p == p
    assert LaurentInt({2: 1}) * LaurentInt({-2: 1}) == one


def test_bar_examples():
    assert LaurentInt({2: 1, 1: 3}).bar() == LaurentInt({-2: 1, -1: 3})
    assert LaurentInt({0: 5}).bar() == LaurentInt({0: 5})
    assert qint(2).bar() == qint(2)


def test_qint_qfact():
    assert qint(2) == LaurentInt({1: 1, -1: 1})
    # hand-expanded [3]! = [3][2]
    assert qfact(3) == LaurentInt({2: 1, 0: 1, -2: 1}) * qint(2)
    assert qfact(0) == one
    for m in range(13):
        assert qint(m).bar() == qint(m)
        assert qfact(m).bar() == qfact(m)


def test_div_exact():
    assert div_exact(LaurentInt({2: 1, -2: -1}), LaurentInt({1: 1, -1: -1})) == qint(2)
    p = rand_poly(random.Random(3))
    assert div_exact(p, one) == p
    with pytest.raises(NotDivisible):
        div_exact(LaurentInt({1: 1, 0: 1}), LaurentInt({1: 1, 0: -1}))
    with pytest.raises(NotDivisible):
        div_exact(one, zero)


def test_ring_axioms_random():
    rng = random.Random(4)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_bar_is_ring_involution():
    rng = random.Random(5)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        assert bar(a * b) == bar(a) * bar(b)
        assert bar(bar(a)) == a


def test_div_inverts_mul():
    rng = random.Random(6)
    for _ in range(100):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero():
            continue
        assert div_exact(a * b, b) == a


laurent = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5).map(LaurentInt)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(laurent, laurent, laurent)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a and a - a == zero and -(-a) == a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * one == a and a * zero == zero
    assert a * (b + c) == a * b + a * c
    assert bar(a * b) == bar(a) * bar(b) and bar(a + b) == bar(a) + bar(b)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(laurent, laurent)
def test_div_exact_inverts_mul(a, b):
    if b:
        assert div_exact(a * b, b) == a
    else:
        with pytest.raises(NotDivisible):
            div_exact(a, b)


def test_render():
    assert render(LaurentInt({2: 3, 0: 1, -2: 1})) == "3*q^2 + 1 + q^-2"
    assert render(zero) == "0"
    assert render(LaurentInt({1: 1, -1: -1})) == "q - q^-1"
    assert render(LaurentInt({1: -2})) == "-2*q"


def test_subs_neg_q():
    p = LaurentInt({2: 1, 1: 1, 0: 1, -1: 2})
    assert p.subs_neg_q() == LaurentInt({2: 1, 1: -1, 0: 1, -1: -2})
    assert p.subs_neg_q().subs_neg_q() == p


# Combination: the arithmetic that module vectors and Hecke-algebra elements share

_I01 = Interval.finite(0, 1)
_SPACES = {
    # kind: (two spaces, the constructor, up to 4 basis keys of a space, a coefficient)
    "module": (((_I01, TypeNC((1, 1), (0, 0))), (_I01, TypeNC((1, 1), (0, 1)))), ModuleVec,
               lambda space: sorted(enumerate_weights(*space), key=Matrix01.text),
               st.dictionaries(st.integers(-2, 2), st.integers(-2, 2), max_size=2).map(LaurentInt)),
    "klr": (((KLRContext((0, 1), 2),), (KLRContext((0, 1), 3),)), KLRElem,
            lambda space: [(w, (0,) * space[0].d, perm_identity(space[0].d))
                           for w in space[0].words()][:4],
            st.integers(-2, 2)),
    "aha": (((2,), (3,)), AHAElem,
            lambda space: [((k,) + (0,) * (space[0] - 1), perm_identity(space[0]))
                           for k in range(4)],
            st.integers(-2, 2)),
    "nilhecke": (((2,), (3,)), NilHeckePoly,
                 lambda space: [(k,) + (0,) * (space[0] - 1) for k in range(4)],
                 st.integers(-2, 2)),
}


@st.composite
def _combinations(draw):
    """(x, y, z, a, b): x and y of one space, z of another, a and b scalars."""
    spaces, cls, keys, coeff = _SPACES[draw(st.sampled_from(sorted(_SPACES)))]
    first, second = draw(st.permutations(spaces))

    def element(space):
        return cls(*space, draw(st.dictionaries(st.sampled_from(keys(space)), coeff, max_size=4)))

    return element(first), element(first), element(second), draw(coeff), draw(coeff)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_combinations())
def test_combination_arithmetic_is_zero_free_and_checks_its_space(case):
    x, y, z, a, b = case
    total, diff = x + y, x - y
    assert total - y == x and diff + y == x
    assert not x - x and (x - x).is_zero()
    assert x.scale(0).is_zero() and x.scale(0).space == x.space
    assert x.scale(a) + x.scale(b) == x.scale(a + b)
    for v in (total, diff, x.scale(a), x.scale(b), x.scale(a) + x.scale(b)):
        assert all(v.terms.values()) and type(v) is type(x) and v.space == x.space
    assert bool(x) == bool(x.terms) == (not x.is_zero())
    with pytest.raises(ContextMismatch):
        x + z
    with pytest.raises(ContextMismatch):
        x - z
    assert x != z and not x == z and x != x.terms
    with pytest.raises(TypeError):
        hash(x)


# row_reduce: the exact row reduction over Q, against Leibniz determinants
# and against back-substitution of a known solution

def _det(m):
    """The Leibniz sum over every permutation of the columns."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


def _minor_rank(m, ncols):
    """The order of the largest nonzero minor of m."""
    for k in range(min(len(m), ncols), 0, -1):
        for rows in combinations(range(len(m)), k):
            for cols in combinations(range(ncols), k):
                if _det([[m[i][j] for j in cols] for i in rows]):
                    return k
    return 0


@st.composite
def _matrices(draw, max_rows=4, max_cols=5):
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(1, max_rows))
    return draw(st.lists(st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows)), ncols


def _sparse(m):
    return [{j: v for j, v in enumerate(row) if v} for row in m]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_matrices())
def test_row_reduce_rank_is_the_largest_nonzero_minor(case):
    m, ncols = case
    pivots = row_reduce(_sparse(m))
    assert len(pivots) == _minor_rank(m, ncols)
    seen = []
    for pc, rest in pivots:
        # a pivot row holds only later columns, none an earlier pivot, no zero
        assert pc not in seen and all(k > pc and k not in seen and v for k, v in rest.items())
        seen.append(pc)
    # zero entries given explicitly change nothing
    assert row_reduce([dict(enumerate(row)) for row in m]) == pivots


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_matrices(max_rows=5, max_cols=4), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_row_reduce_back_substitutes_to_a_known_solution(case, x):
    m, ncols = case
    assume(len(m) >= ncols and _minor_rank(m, ncols) == ncols)
    x = x[:ncols]
    # the right-hand side A x sits in column ncols, after every unknown
    rows = _sparse(m)
    for row, full in zip(rows, m):
        row[ncols] = sum(a * xj for a, xj in zip(full, x))
    pivots = row_reduce(rows)
    assert sorted(pc for pc, _ in pivots) == list(range(ncols))
    got = {ncols: Fraction(-1)}
    for pc, rest in reversed(pivots):
        got[pc] = -sum(v * got[k] for k, v in rest.items())
    assert [got[j] for j in range(ncols)] == x
