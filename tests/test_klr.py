import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superkl import cli, klr
from superkl.errors import BudgetExceeded, ContextMismatch, SuperklError
from superkl.klr import (
    AHAElem,
    KLRContext,
    KLRElem,
    NilHeckePoly,
    aha_mul,
    aha_one,
    aha_t,
    aha_x,
    act_word_on_colors,
    b_idempotent,
    canonical_word,
    idempotent,
    identity_elem,
    klr_degree,
    klr_mul,
    nilhecke_act,
    nilhecke_apply_elem,
    nilhecke_context,
    nilhecke_graded_rank_check,
    perm_identity,
    perm_length,
    perm_of_word,
    right_word,
    tau,
    verify_relations,
    xi,
)
from superkl.klr import _monomials_of_degree, _normalize, _x_symbols


def test_canonical_word_is_lex_min_reduced():
    import itertools
    for d in (2, 3, 4):
        perms = set(itertools.permutations(range(d)))
        for w in perms:
            word = canonical_word(w)
            assert perm_of_word(word, d) == w
            assert len(word) == perm_length(w)
            # no reduced word of w is lexicographically smaller
            smaller = [u for u in _reduced_words(w, d) if u < word]
            assert not smaller


def _reduced_words(w, d):
    if w == perm_identity(d):
        yield ()
        return
    from superkl.klr import swap_values, perm_inverse
    pos = perm_inverse(w)
    for j in range(1, d):
        if pos[j - 1] > pos[j]:
            for rest in _reduced_words(swap_values(w, j), d):
                yield (j,) + rest


def test_idempotent_products():
    ctx = KLRContext((0, 1), 2)
    e01 = idempotent(ctx, (0, 1))
    e10 = idempotent(ctx, (1, 0))
    assert klr_mul(e01, e01) == e01
    assert klr_mul(e01, e10).is_zero()
    assert klr_mul(identity_elem(ctx), e01) == e01


def test_tau_squared_same_color():
    ctx = KLRContext((0,), 2)
    t1 = tau(ctx, 1)
    assert klr_mul(t1, t1).is_zero()


def test_qh4_example():
    # tau_j xi_{j+1} - xi_j tau_j = 1 on an equal-color idempotent
    ctx = KLRContext((0,), 2)
    e = idempotent(ctx, (0, 0))
    lhs = klr_mul(klr_mul(tau(ctx, 1), xi(ctx, 2)), e) \
        - klr_mul(klr_mul(xi(ctx, 1), tau(ctx, 1)), e)
    assert lhs == e


def test_verify_relations_reports():
    for colors, d in (((0,), 2), ((0, 1), 2), ((0, 1), 3), ((0, 1, 2), 3)):
        report = verify_relations(colors, d)
        assert report["ok"], report["failures"][:5]
    with pytest.raises(BudgetExceeded):
        verify_relations((0, 1), 4)


def test_vacuous_library_inputs_are_refused():
    # each of these used to pass with nothing or almost nothing checked
    for fn, args, message in ((verify_relations, ((0, 1), 0), "d must be at least 1, got 0"),
                              (verify_relations, ((0, 1), -1), "d must be at least 1, got -1"),
                              (nilhecke_graded_rank_check, (0, 4), "m must be at least 1"),
                              (nilhecke_graded_rank_check, (3, -5),
                               "degree_cap must be at least m(m-1) = 6, got -5"),
                              (nilhecke_graded_rank_check, (3, 5), "degree_cap must be")):
        with pytest.raises(SuperklError) as err:
            fn(*args)
        assert str(err.value).startswith(message), args
    with pytest.raises(BudgetExceeded):
        nilhecke_graded_rank_check(klr.MAX_D + 1, -5)
    assert verify_relations((0, 1), 1)["checked"] > 0
    assert nilhecke_graded_rank_check(3, 6)["degrees"] == [0]


def test_degrees():
    ctx = KLRContext((0, 1), 2)
    assert klr_degree(idempotent(ctx, (0, 1))) == 0
    assert klr_degree(klr_mul(xi(ctx, 1), idempotent(ctx, (0, 1)))) == 2
    # tau on an equal-color idempotent has degree -2
    ctx0 = KLRContext((0,), 2)
    assert klr_degree(klr_mul(tau(ctx0, 1), idempotent(ctx0, (0, 0)))) == -2
    # adjacent colors: -alpha_0 . alpha_1 = 1
    t_e = klr_mul(tau(ctx, 1), idempotent(ctx, (0, 1)))
    assert klr_degree(t_e) == 1


def test_degree_additivity_random():
    rng = random.Random(11)
    ctx = KLRContext((0, 1), 3)
    gens = []
    for iword in ctx.words():
        gens.append(idempotent(ctx, tuple(iword)))
    for k in (1, 2, 3):
        gens.append(xi(ctx, k))
    for j in (1, 2):
        gens.append(tau(ctx, j))
    for _ in range(150):
        x = rng.choice(gens)
        y = rng.choice(gens)
        xy = klr_mul(x, y)
        dx, dy, dxy = klr_degree(x), klr_degree(y), klr_degree(xy)
        if not xy.is_zero() and dx is not None and dy is not None:
            assert dxy == dx + dy


def test_associativity_random_monomials():
    rng = random.Random(12)
    ctx = KLRContext((0, 1, 2), 3)
    words = [tuple(w) for w in ctx.words()]

    def rand_monomial():
        iword = rng.choice(words)
        a = tuple(rng.randint(0, 1) for _ in range(3))
        gens = [tau(ctx, rng.randint(1, 2), None) for _ in range(rng.randint(0, 2))]
        elem = KLRElem(ctx, {(iword, a, perm_identity(3)): 1})
        for g in gens:
            elem = klr_mul(elem, g)
        return elem

    for _ in range(200):
        x, y, z = rand_monomial(), rand_monomial(), rand_monomial()
        assert klr_mul(klr_mul(x, y), z) == klr_mul(x, klr_mul(y, z))


def test_b_idempotent():
    for m in (1, 2, 3, 4):
        b = b_idempotent(m)
        assert klr_mul(b, b) == b
        assert klr_degree(b) == 0
    with pytest.raises(BudgetExceeded):
        b_idempotent(5)


def test_b_projects_in_polynomial_rep():
    rng = random.Random(13)
    for m in (2, 3):
        b = b_idempotent(m)
        for _ in range(20):
            exps = tuple(rng.randint(0, 2) for _ in range(m))
            p = NilHeckePoly.monomial(exps, rng.randint(-3, 3))
            once = nilhecke_apply_elem(b, p)
            assert nilhecke_apply_elem(b, once) == once


def test_nilhecke_act_examples():
    # tau_1 is the twisted divided difference (s_1 p - p)/(x_1 - x_2):
    # it kills symmetric input and sends x_2 to 1 (and x_1 to -1)
    p = NilHeckePoly.monomial((0, 1))
    assert nilhecke_act(("tau", 1), p) == NilHeckePoly.constant(2)
    assert nilhecke_act(("tau", 1), NilHeckePoly.constant(2)) == NilHeckePoly(2)
    sym = NilHeckePoly(2, {(1, 1): 4})
    assert nilhecke_act(("tau", 1), sym) == NilHeckePoly(2)


def test_nilhecke_rep_satisfies_relations():
    m = 3
    ctx = nilhecke_context(m)
    e = identity_elem(ctx)

    def agree(e1, e2, deg=4):
        for t in range(deg + 1):
            for mono in _monomials_of_degree(m, t):
                p = NilHeckePoly.monomial(mono)
                if nilhecke_apply_elem(e1, p) != nilhecke_apply_elem(e2, p):
                    return False
        return True

    for j in (1, 2):
        for k in (1, 2, 3):
            tk = j + 1 if k == j else j if k == j + 1 else k
            lhs = klr_mul(tau(ctx, j), xi(ctx, k)) - klr_mul(xi(ctx, tk), tau(ctx, j))
            rhs = e if k == j + 1 else e.scale(-1) if k == j else KLRElem(ctx)
            assert agree(lhs, rhs), ("QH4", j, k)
        assert agree(klr_mul(tau(ctx, j), tau(ctx, j)), KLRElem(ctx))
    assert agree(klr_mul(tau(ctx, 2), klr_mul(tau(ctx, 1), tau(ctx, 2))),
                 klr_mul(tau(ctx, 1), klr_mul(tau(ctx, 2), tau(ctx, 1))))


def test_nilhecke_graded_rank():
    for m, cap in ((1, 6), (2, 8), (3, 12)):
        report = nilhecke_graded_rank_check(m, cap)
        assert report["ok"], report


def test_aha_relations():
    for d in (2, 3, 4):
        one = aha_one(d)
        for j in range(1, d):
            tj = aha_t(d, j)
            # t_j^2 = 1 (group algebra is exact)
            assert aha_mul(tj, tj) == one
            for k in range(1, d + 1):
                lhs = aha_mul(tj, aha_x(d, k))
                tk = j + 1 if k == j else j if k == j + 1 else k
                rhs = aha_mul(aha_x(d, tk), tj)
                diff = lhs - rhs
                if k == j + 1:
                    assert diff == one
                elif k == j:
                    assert diff == one.scale(-1)
                else:
                    assert diff.is_zero()
        for j in range(1, d - 1):
            a = aha_mul(aha_t(d, j), aha_mul(aha_t(d, j + 1), aha_t(d, j)))
            b = aha_mul(aha_t(d, j + 1), aha_mul(aha_t(d, j), aha_t(d, j + 1)))
            assert a == b
        for j in range(1, d - 1):
            for k in range(j + 2, d):
                assert aha_mul(aha_t(d, j), aha_t(d, k)) == aha_mul(aha_t(d, k), aha_t(d, j))


def test_aha_associativity_random():
    rng = random.Random(14)
    d = 3
    gens = [aha_one(d)] + [aha_x(d, k) for k in (1, 2, 3)] + [aha_t(d, j) for j in (1, 2)]
    for _ in range(100):
        x, y, z = (rng.choice(gens) for _ in range(3))
        assert aha_mul(aha_mul(x, y), z) == aha_mul(x, aha_mul(y, z))


def test_aha_budget():
    with pytest.raises(BudgetExceeded):
        AHAElem(5)


def _klr_mul_scan(x, y):
    """klr_mul as a full scan: every term of x against every term of y."""
    if x.ctx != y.ctx:
        raise ContextMismatch("elements live in different algebras")
    out = KLRElem(x.ctx)
    for (i1, a1, w1), c1 in x.terms.items():
        word1 = canonical_word(w1)
        j1 = right_word(i1, w1)
        for (i2, a2, w2), c2 in y.terms.items():
            if j1 != i2:
                continue
            word2 = canonical_word(w2)
            jword = right_word(i2, w2)
            symbols = (tuple(("t", j) for j in word1)
                       + _x_symbols(a2)
                       + tuple(("t", j) for j in word2))
            for (a, w), c in _normalize(symbols, jword).items():
                left = act_word_on_colors(canonical_word(w), jword)
                tot = tuple(p + q for p, q in zip(a1, a))
                key = (left, tot, w)
                n = out.terms.get(key, 0) + c1 * c2 * c
                if n:
                    out.terms[key] = n
                else:
                    del out.terms[key]
    return out


@st.composite
def klr_element(draw, ctx):
    """Zero, a shared or cut generator, or a sum of random normal-form terms."""
    d = ctx.d
    words = [tuple(w) for w in ctx.words()]
    kind = draw(st.sampled_from(("zero", "shared", "cut", "terms", "terms")))
    if kind == "zero":
        return KLRElem(ctx)
    if kind in ("shared", "cut"):
        iword = draw(st.sampled_from(words)) if kind == "cut" else None
        gens = [("xi", k) for k in range(1, d + 1)] + [("tau", j) for j in range(1, d)]
        name, index = draw(st.sampled_from(gens))
        return (xi if name == "xi" else tau)(ctx, index, iword)
    perms = list(itertools.permutations(range(d)))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        key = (draw(st.sampled_from(words)),
               tuple(draw(st.lists(st.integers(0, 2), min_size=d, max_size=d))),
               draw(st.sampled_from(perms)))
        terms[key] = draw(st.integers(-3, 3).filter(bool))
    return KLRElem(ctx, terms)


@st.composite
def klr_operands(draw):
    colors = draw(st.sets(st.integers(0, 4), min_size=1, max_size=3))
    ctx = KLRContext(colors, draw(st.integers(1, 3)))
    return draw(klr_element(ctx)), draw(klr_element(ctx))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(klr_operands())
def test_klr_mul_join_matches_the_full_scan(operands):
    x, y = operands
    before = [list(e.terms.items()) for e in (x, y)]
    assert klr_mul(x, y) == _klr_mul_scan(x, y)
    assert [list(e.terms.items()) for e in (x, y)] == before


def test_shared_generators_stay_equal_to_fresh_ones():
    assert verify_relations((0, 1, 2), 3)["ok"]
    ctx = KLRContext((0, 1, 2), 3)
    assert xi(ctx, 1) is xi(ctx, 1) and tau(ctx, 2) is tau(ctx, 2)
    built = {("xi", ctx, k) for k in (1, 2, 3)} | {("tau", ctx, j) for j in (1, 2)}
    assert built <= set(klr._gen_cache)
    for (name, gctx, index), shared in klr._gen_cache.items():
        cut = xi if name == "xi" else tau
        fresh = KLRElem(gctx)
        for iword in gctx.words():
            fresh = fresh + cut(gctx, index, iword)
        assert shared == fresh, (name, gctx.colors, gctx.d, index)


def test_sabotaged_relations_are_reported(monkeypatch):
    # each sabotage runs on cleared caches: a warm normal-form memo would
    # otherwise answer with the products of the intact code
    honest_mul = klr.klr_mul

    def lossy_mul(x, y):
        terms = dict(honest_mul(x, y).terms)
        if terms:
            del terms[next(iter(terms))]
        return KLRElem(x.ctx, terms)

    try:
        for name, fake in (("_qh7_coeff", lambda j, colors: 0),
                           ("klr_mul", lossy_mul)):
            klr.clear_caches()
            with monkeypatch.context() as patch:
                patch.setattr(klr, name, fake)
                report = verify_relations((0, 1), 3)
            assert not report["ok"] and report["failures"], name
    finally:
        klr.clear_caches()
    assert verify_relations((0, 1), 3)["ok"]


def test_klr_verify_bytes_match_the_benchmark_pin(capsys):
    # the product itself, not only "ok": the sha256 the benchmark pins
    argv = ["klr-verify", "--interval", "0:3", "--d", "3", "--threads", "1"]
    pins = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
    pinned = json.loads(pins.read_text())["full"]["orders"][" ".join(argv)]
    assert pinned.startswith("025a9731")
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and hashlib.sha256(out.encode()).hexdigest() == pinned
