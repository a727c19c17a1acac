import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superkl.errors import NotDivisible
from superkl.laurent import LaurentInt, bar, div_exact, one, q, qfact, qint, render, zero


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
