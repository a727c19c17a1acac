import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superkl.canonical import (
    BlockTable,
    bar_psi,
    canonical_basis,
    canonical_basis_direct,
    clear_caches,
    dual_canonical,
    kl_d,
    kl_d_stable,
    kl_p,
    kl_p_stable,
    psi_monomial,
    twisted_canonical,
    young_word_dim,
)
import superkl.canonical as canon
from superkl.errors import (
    IntervalInfinite,
    NonTriangularBar,
    StabilityViolation,
    TypeMismatch,
)
from superkl.laurent import LaurentInt, one, zero
from superkl.qmodule import ModuleVec, act_e, act_f, form
from superkl.weights import (
    Interval,
    Matrix01,
    TypeNC,
    convert_to_type,
    defect,
    enumerate_weights,
    equivalent_type,
    kappa,
    order_leq,
    order_lt,
    parse_matrix,
    profile_grid,
    signed_profile,
    stable_window,
    truncate,
    weight_count,
    weight_of,
)
from conftest import random_infinite_matrix, sweep_contexts

I00 = Interval.finite(0, 0)
I01 = Interval.finite(0, 1)
q = LaurentInt.monomial(1)


def test_psi_level1_identity():
    t = TypeNC((2,), (0,))
    for lam in enumerate_weights(I01, t):
        assert psi_monomial(lam) == ModuleVec.monomial(lam)


def test_psi_fixes_kappa():
    for tnc in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (0, 1)),
                TypeNC((1, 1, 1), (0, 1, 0))):
        kap = kappa(I01, tnc)
        assert psi_monomial(kap) == ModuleVec.monomial(kap)


def test_psi_antilinear():
    t = TypeNC((1, 1), (0, 0))
    lam = enumerate_weights(I01, t)[2]
    v = ModuleVec.monomial(lam, q)
    assert bar_psi(v) == psi_monomial(lam).scale(LaurentInt.monomial(-1))


def test_psi_squared_and_commutation():
    for tnc in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (1, 0)),
                TypeNC((1, 1, 1), (0, 0, 0))):
        for lam in enumerate_weights(I01, tnc):
            v = ModuleVec.monomial(lam)
            pv = bar_psi(v)
            assert bar_psi(pv) == v
            for j in (0, 1):
                assert bar_psi(act_f(j, v)) == act_f(j, pv)
                assert bar_psi(act_e(j, v)) == act_e(j, pv)


def test_psi_preserves_blocks():
    tnc = TypeNC((1, 1), (0, 1))
    for lam in enumerate_weights(I01, tnc):
        wt = weight_of(lam)
        for mu in psi_monomial(lam).support():
            assert weight_of(mu) == wt
            assert order_leq(lam, mu)


def test_psi_matrix_rejects_support_outside_the_order(monkeypatch):
    # give psi(v_lam) extra support at each member mu with not lam <= mu,
    # one at a time: the triangularity check must refuse every one
    interval, tnc = Interval.finite(0, 2), TypeNC((1, 1, 1), (0, 1, 0))
    block = max(BlockTable(interval, tnc).blocks, key=lambda b: b.size)
    real = canon._psi_kernel
    bad_pairs = [(lam, mu) for lam in block.members for mu in block.members
                 if not order_leq(lam, mu)]
    assert len(bad_pairs) > block.size
    # and support outside the block, and a diagonal coefficient of 2
    lam = block.members[0]
    outside = next(w for w in enumerate_weights(interval, tnc) if w not in block.members)
    cases = [(lam, mu, f"has support at {mu.text()}") for lam, mu in bad_pairs]
    cases += [(lam, outside, f"has support at {outside.text()}"),
              (lam, lam, "diagonal coefficient is not 1")]
    for lam, mu, message in cases:
        # a packed monomial is its own flat key at q^0
        def skewed(ncols, level, x, lam=canon._monomial(lam), mu=canon._monomial(mu)):
            terms = real(ncols, level, x)
            if x != lam:
                return terms
            return {**terms, mu: terms.get(mu, 0) + 1}
        monkeypatch.setattr(canon, "_psi_kernel", skewed)
        fresh = canon.BlockData(interval, tnc, block.weight, block.monomials)
        with pytest.raises(NonTriangularBar) as err:
            fresh.psi_matrix()
        assert str(err.value) == f"psi(v[{lam.text()}]) {message}"


def _psi_of_every_weight(contexts):
    return [{lam: psi_monomial(lam) for lam in enumerate_weights(iv, tnc)}
            for iv, tnc in contexts]


def test_shared_psi_memo_never_changes_an_answer():
    # the psi memo is keyed by |I_+|, the level and the depth, so a shifted
    # interval and a flipped type read each other's entries, and a level-2
    # type whose rows start the level-3 one's (same |I_+| and 1s per row)
    # reads none; psi in each context must equal a cold computation in that
    # context alone
    tnc = TypeNC((2, 1, 2), (0, 1, 0))
    I02 = Interval.finite(0, 2)
    flipped = equivalent_type(tnc, I02, {0, 2})
    for pair, shared in ((((I02, tnc), (I02, TypeNC((2, 1), (0, 1)))), False),
                         (((I02, tnc), (Interval.finite(3, 5), tnc)), True),
                         (((I02, tnc), (I02, flipped)), True)):
        cold, keys = [], []
        for context in pair:
            clear_caches()
            cold += _psi_of_every_weight([context])
            keys.append(set(canon._psi_cache))
        # the two contexts share every memo row, or none
        assert keys[0] == keys[1] if shared else keys[0].isdisjoint(keys[1])
        for order in (pair, pair[::-1]):
            clear_caches()
            warm = _psi_of_every_weight(order)
            assert warm == (cold if order == pair else cold[::-1])
    # and the flipped type's psi (the last pair) is the original one, through convert_to_type
    for lam, v in cold[0].items():
        w = cold[1][convert_to_type(lam, flipped)]
        assert w.terms == {convert_to_type(mu, flipped): c for mu, c in v.terms.items()}


def test_position_rejects_a_weight_of_another_context_with_a_members_packed_int():
    # a flipped type and a shifted interval hold the same 01-matrices, so
    # canon._monomial packs them to the members' ints
    tnc = TypeNC((2, 1, 2), (0, 1, 0))
    I02 = Interval.finite(0, 2)
    flipped = equivalent_type(tnc, I02, {0, 2})
    for lam in enumerate_weights(I02, tnc):
        block = canon.block_data(lam)
        assert block.members[block.position(lam)] == lam
        for other in (convert_to_type(lam, flipped),
                      Matrix01(Interval.finite(3, 5), tnc,
                               tuple(tuple(j + 3 for j in row) for row in lam.devs))):
            assert canon._monomial(other) == canon._monomial(lam) and other != lam
            with pytest.raises(KeyError):
                block.position(other)


def test_block_members_are_a_linear_extension():
    for interval, tnc in ((Interval.finite(0, 2), TypeNC((2, 1, 2), (1, 0, 1))),
                          (I01, TypeNC((1, 1, 1, 1), (0, 1, 0, 1))),
                          (I01, TypeNC((2, 1, 1, 1), (0, 0, 0, 0)))):
        clear_caches()
        for block in BlockTable(interval, tnc).blocks:
            members = block.members
            for a, lam in enumerate(members):
                for b, mu in enumerate(members):
                    if order_lt(lam, mu):
                        assert a < b, (lam.text(), mu.text())


def profile_sum_order(members):
    """A block sorted by the sum of each whole ``signed_profile``, then by text."""
    grid = profile_grid(members)
    return sorted(members, key=lambda m: (-sum(map(sum, signed_profile(m, grid))), m.text()))


def raw_column_order(members):
    """The closed-form key with the raw column j where its grid rank belongs."""
    c = members[0].tnc.c
    weights = [(len(c) - i) * (-1 if ci else 1) for i, ci in enumerate(c)]
    return sorted(members, key=lambda m: (
        sum(w * sum(row) for w, row in zip(weights, m.devs)), m.text()))


@pytest.mark.parametrize("interval,tnc,gaps", [
    (Interval.finite(0, 3), TypeNC((2, 2, 2, 2), (0, 1, 0, 1)), False),
    (Interval.finite(0, 4), TypeNC((2, 2, 2), (0, 0, 0)), True),
])
def test_linear_extension_is_the_profile_sum_order(interval, tnc, gaps):
    # a key on raw columns agrees with the rank key only when no block's
    # grid skips a column; over 0:4 (2,2,2) some do, and there it must fail
    clear_caches()
    blocks = BlockTable(interval, tnc).blocks
    assert [list(b.members) for b in blocks] == [profile_sum_order(b.members) for b in blocks]
    raw = [list(b.members) == raw_column_order(b.members) for b in blocks]
    assert all(raw) != gaps


def test_point_query_blocks_and_cores_are_the_profile_sum_order():
    # blocks built from one weight, and their cores, against a key that renders text
    for interval, tnc in [*sweep_contexts(max_dim=300),
                          (Interval.finite(0, 2), TypeNC((2, 2, 2, 2), (0, 1, 0, 1))),
                          (Interval.finite(0, 4), TypeNC((2, 2, 2), (0, 0, 0)))]:
        clear_caches()
        for lam in enumerate_weights(interval, tnc)[::3]:
            block = canon.block_data(lam)
            for b in (block, block.core()[0]):
                assert list(b.members) == profile_sum_order(b.members)


@pytest.mark.parametrize("text,size,own_core", [("1100/1100/0011/0011", 90, True),
                                                ("1100/1100/1010/1001", 12, False)])
def test_a_cold_block_and_its_core_render_no_text(monkeypatch, text, size, own_core):
    interval, tnc = Interval.finite(0, 2), TypeNC((2, 2, 2, 2), (0, 1, 0, 1))
    lam = parse_matrix(text, interval, tnc)
    rendered = []
    monkeypatch.setattr(Matrix01, "text", lambda m: rendered.append(m) or "")
    clear_caches()
    block = canon.block_data(lam)
    core = block.core()[0]
    assert (block.size, core is block) == (size, own_core)
    assert rendered == []


@st.composite
def ordered_context(draw):
    """A finite context of level 2-4, rows of either polarity, dimension <= 1500."""
    interval = Interval.finite(0, draw(st.integers(0, 3)))
    level = draw(st.integers(2, 4))
    n = draw(st.lists(st.integers(1, interval.n_cols() - 1), min_size=level, max_size=level))
    c = tuple(draw(st.lists(st.integers(0, 1), min_size=level, max_size=level)))
    while weight_count(interval, TypeNC(tuple(n), c)) > 1500:
        n[n.index(max(n))] -= 1
    return interval, TypeNC(tuple(n), c)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(ordered_context())
def test_random_linear_extension_is_the_profile_sum_order(context):
    clear_caches()
    for block in BlockTable(*context).blocks:
        assert list(block.members) == profile_sum_order(block.members)


@pytest.mark.parametrize("table_first", [False, True])
def test_block_data_and_block_table_share_one_block(table_first):
    # one BlockData per (interval, type, weight), whichever path comes first
    interval, tnc = Interval.finite(0, 2), TypeNC((2, 1, 1), (0, 1, 0))
    clear_caches()
    if table_first:
        blocks = BlockTable(interval, tnc).blocks
    lams = enumerate_weights(interval, tnc)[::7]
    direct = [canon.block_data(lam) for lam in lams]
    if not table_first:
        blocks = BlockTable(interval, tnc).blocks
    for lam, block in zip(lams, direct):
        assert [b for b in blocks if lam in b.members] == [block]  # by identity
    assert BlockTable(interval, tnc).blocks == blocks
    assert len(canon._single_block_cache) == len(blocks)


def test_canonical_examples():
    t = TypeNC((1, 1), (0, 0))
    kap = kappa(I00, t)
    assert canonical_basis(kap) == ModuleVec.monomial(kap)
    low = parse_matrix("10/01", I00, t)
    high = parse_matrix("01/10", I00, t)
    b = canonical_basis(low)
    assert b.coeff(low) == one and b.coeff(high) == q
    assert len(b.terms) == 2
    assert canonical_basis(high) == ModuleVec.monomial(high)


def test_kl_d_triangular():
    t = TypeNC((1, 1), (0, 0))
    low = parse_matrix("10/01", I00, t)
    high = parse_matrix("01/10", I00, t)
    assert kl_d(low, low) == one
    assert kl_d(high, low) == zero
    assert kl_d(low, high) == q
    # off-block
    assert kl_d(low, kappa(I00, t)) == zero


def test_pairs_from_different_contexts_are_refused():
    # equal sl_I weights over different intervals: no block holds both
    t = TypeNC((1, 1), (0, 0))
    lam = parse_matrix("010/010", I01, t)
    mu = parse_matrix("0100/0100", Interval.finite(0, 2), t)
    assert weight_of(lam) == weight_of(mu)
    other = parse_matrix("10/01", I00, t)
    over_z = parse_matrix("@0:10/01", Interval.all_z(), t)
    over_geq = parse_matrix("@0:10/01", Interval.half_up(0), t)
    cases = [(a, b, fn) for a, b in ((lam, mu), (mu, lam), (lam, other))
             for fn in (kl_d, kl_p, kl_d_stable, kl_p_stable)]
    cases += [(a, b, fn) for a, b in
              ((over_z, over_geq), (over_geq, over_z), (over_z, lam), (lam, over_z))
              for fn in (kl_d_stable, kl_p_stable)]
    for a, b, fn in cases:
        with pytest.raises(TypeMismatch, match="weights live over different contexts"):
            fn(a, b)


def test_kl_p_inverse():
    t = TypeNC((1, 1), (0, 0))
    low = parse_matrix("10/01", I00, t)
    high = parse_matrix("01/10", I00, t)
    assert kl_p(low, low) == one
    assert kl_p(low, high) == q
    table = BlockTable(I01, TypeNC((2, 1), (0, 0)))
    for block in table.blocks:
        d = block.d_matrix()
        p = block.p_matrix()
        size = len(d)
        for a in range(size):
            for b in range(size):
                tot = zero
                for k in range(size):
                    dk = d[a].get(k)
                    pk = p[k].get(b)
                    if dk is not None and pk is not None:
                        tot = tot + dk * pk
                assert tot == (one if a == b else zero)


def test_oracle_equivalence_small():
    for tnc in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (0, 1)),
                TypeNC((1, 1), (1, 1))):
        for lam in enumerate_weights(I01, tnc):
            assert canonical_basis_direct(lam) == canonical_basis(lam)


def test_dual_and_twisted():
    t = TypeNC((1, 1), (0, 0))
    low = parse_matrix("10/01", I00, t)
    high = parse_matrix("01/10", I00, t)
    assert dual_canonical(low) == ModuleVec.monomial(low)
    dh = dual_canonical(high)
    assert dh.coeff(high) == one and dh.coeff(low) == -q
    # duality of the two bases under the form
    for a in (low, high):
        for b in (low, high):
            expect = one if a == b else zero
            assert form(canonical_basis(a), dual_canonical(b)) == expect
    th = twisted_canonical(high)
    assert th.coeff(high) == one
    assert th.coeff(low) == LaurentInt.monomial(-1)
    # twisted vectors live in v + q^{-1}Z[q^{-1}] of lower weights
    for lam in enumerate_weights(I01, TypeNC((2, 1), (0, 1))):
        tv = twisted_canonical(lam)
        assert tv.coeff(lam) == one
        for mu, c in tv.terms.items():
            if mu != lam:
                assert order_lt(mu, lam)
                assert all(e <= -1 for e in c.coeffs)


def test_twisted_singleton_block():
    t = TypeNC((1,), (0,))
    for lam in enumerate_weights(I01, t):
        assert twisted_canonical(lam) == ModuleVec.monomial(lam)
        assert dual_canonical(lam) == ModuleVec.monomial(lam)


def _psi_star(v):
    # adjoint of psi under the orthonormal form:
    # psi*(v_mu) = sum_lam bar(coefficient of v_mu in psi(v_lam)) v_lam
    out = ModuleVec(v.interval, v.tnc)
    from superkl.canonical import block_data
    for mu, c in v.terms.items():
        block = block_data(mu)
        r = block.psi_matrix()
        b = block.position(mu)
        for a, lam in enumerate(block.members):
            entry = r[a].get(b)
            if entry:
                out = out + ModuleVec.monomial(lam, entry.bar() * c.bar())
    return out


def test_twisted_is_psi_star_invariant():
    # the twisted vectors are psi*-fixed and unitriangular downward
    for tnc in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (0, 1)),
                TypeNC((1, 1, 1), (0, 1, 0))):
        for lam in enumerate_weights(I01, tnc):
            tv = twisted_canonical(lam)
            assert _psi_star(tv) == tv, lam.text()


def test_dual_canonical_is_psi_star_invariant():
    for tnc in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (0, 1))):
        for lam in enumerate_weights(I01, tnc):
            dv = dual_canonical(lam)
            assert _psi_star(dv) == dv, lam.text()


def test_kl_p_in_Nq():
    for tnc in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (0, 1)),
                TypeNC((1, 1, 1), (0, 0, 0))):
        for lam in enumerate_weights(I01, tnc):
            for mu in enumerate_weights(I01, tnc):
                assert kl_p(lam, mu).in_Nq()


def test_young_word_dim():
    from superkl.laurent import qint

    t = TypeNC((1, 1), (0, 0))
    kap = kappa(I00, t)
    assert young_word_dim(kap, []) == one
    # word of wrong weight gap gives zero
    low = parse_matrix("10/01", I00, t)
    assert young_word_dim(low, []) == zero
    # e_0(v_low + q v_high) hits kappa as (q + q^-1) v_kappa; def(low) = 1
    assert young_word_dim(low, [0]) == qint(2).shift(1)


def test_young_word_self_duality_sample():
    t = TypeNC((1, 1), (0, 0))
    low = parse_matrix("10/01", I00, t)
    val = young_word_dim(low, [0])
    norm = val.shift(-defect(low))
    assert not norm.is_zero()
    assert norm.is_bar_symmetric()
    assert norm.coefficients_nonnegative()


def test_kl_d_stable():
    t = TypeNC((1, 1), (0, 0))
    z = Interval.all_z()
    high = Matrix01(z, t, ((1,), (0,)))
    low = Matrix01(z, t, ((0,), (1,)))
    assert kl_d_stable(low, low) == one
    assert kl_d_stable(low, high) == q
    assert kl_d_stable(high, low) == zero
    # off-block pair
    nu = Matrix01(z, t, ((5,), (6,)))
    assert kl_d_stable(low, nu) == zero


def test_kl_d_stable_matches_shifted_windows(rng):
    # d and p over Z and both half lines, against a generous window
    cases = ((Interval.all_z(), Interval.finite(-8, 8)),
             (Interval.half_up(-2), Interval.finite(-2, 12)),
             (Interval.half_down(3), Interval.finite(-11, 3)))
    for t in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (0, 1))):
        for interval, big in cases:
            for _ in range(6):
                lam = random_infinite_matrix(rng, interval, t, span=4)
                mu = rng.choice(list(_block_members(lam)))
                lam_big, mu_big = truncate(lam, big), truncate(mu, big)
                assert kl_d_stable(lam, mu) == kl_d(lam_big, mu_big)
                assert kl_p_stable(lam, mu) == kl_p(lam_big, mu_big)


def test_kl_p_stable_refuses_a_p_that_moves_with_the_window(monkeypatch):
    t = TypeNC((1, 1), (0, 0))
    z = Interval.all_z()
    low = Matrix01(z, t, ((0,), (1,)))
    high = Matrix01(z, t, ((1,), (0,)))
    window = stable_window(low, high)
    real = canon.kl_p

    @functools.wraps(real)
    def wider_differs(lam, mu):
        value = real(lam, mu)
        return value if lam.interval == window else value + one

    monkeypatch.setattr(canon, "kl_p", wider_differs)
    with pytest.raises(StabilityViolation, match=r"^kl_p changed from q to q \+ 1 when"):
        kl_p_stable(low, high)
    assert kl_d_stable(low, high) == q


def _block_members(lam):
    """Members of lam's block with deviations within a column of lam's."""
    iv, cols = lam.interval, lam.all_dev_cols()
    lo = cols[0] - 1 if iv.lo is None else max(cols[0] - 1, iv.lo)
    hi = cols[-1] + 1 if iv.hi is None else min(cols[-1] + 1, iv.hi)
    window = Interval.finite(lo, hi)
    cut = truncate(lam, window)
    wt = weight_of(cut)
    for m in enumerate_weights(window, lam.tnc):
        if weight_of(m) == wt:
            yield Matrix01(lam.interval, lam.tnc, m.devs)


def test_level2_d_entries_are_monomial():
    # level-2 blocks are multiplicity-free: every nonzero off-diagonal
    # d-polynomial is a single power of q with coefficient 1
    I02 = Interval.finite(0, 2)
    seen = 0
    for tnc in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (0, 1)),
                TypeNC((2, 2), (0, 0)), TypeNC((1, 2), (1, 0))):
        table = BlockTable(I02, tnc)
        for block in table.blocks:
            d = block.d_matrix()
            for a in range(block.size):
                for b, poly in d[a].items():
                    if b == a:
                        continue
                    assert list(poly.coeffs.values()) == [1]
                    seen += 1
    assert seen > 40


def test_regular_level4_block_matches_classical_table():
    # the 24-member regular block of the four-fold level-1 tensor product:
    # exactly six transition entries are non-monomial, all of shape
    # q^k (1 + q^2), mirroring the six classically nontrivial
    # Kazhdan-Lusztig pairs of the rank-3 symmetric group
    from superkl.canonical import block_data

    iv = Interval.finite(0, 2)
    t = TypeNC((1, 1, 1, 1), (0, 0, 0, 0))
    lam = next(w for w in enumerate_weights(iv, t)
               if sorted(j for row in w.devs for j in row) == [0, 1, 2, 3])
    block = block_data(lam)
    assert block.size == 24
    d = block.d_matrix()
    nonmono = []
    for a in range(block.size):
        for b, poly in d[a].items():
            if b != a and len(poly.coeffs) > 1:
                low = poly.min_exp()
                assert poly == (LaurentInt({0: 1, 2: 1})).shift(low)
                nonmono.append((a, b))
    assert len(nonmono) == 6


def test_equivalent_types_same_d_matrix():
    t = TypeNC((1, 1), (0, 0))
    for flips in ({0}, {1}, {0, 1}):
        t2 = equivalent_type(t, I01, flips)
        for lam in enumerate_weights(I01, t):
            for mu in enumerate_weights(I01, t):
                d1 = kl_d(lam, mu)
                d2 = kl_d(convert_to_type(lam, t2), convert_to_type(mu, t2))
                assert d1 == d2


def test_infinite_interval_rejected():
    t = TypeNC((1,), (0,))
    lam = Matrix01(Interval.all_z(), t, ((0,),))
    with pytest.raises(IntervalInfinite):
        canonical_basis(lam)
    with pytest.raises(IntervalInfinite):
        psi_monomial(lam)


_antisymmetric_or_not = st.dictionaries(st.integers(-3, 3), st.integers(-2, 2), max_size=4)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_antisymmetric_or_not)
def test_the_oracle_system_is_infeasible_exactly_when_no_solution_exists(coeffs):
    # psi(v_0) = v_0 + f v_1 and psi(v_1) = v_1: x = v_0 + c v_1 with c in
    # qZ[q] is psi-invariant iff c - bar(c) = f, which needs f = -bar(f)
    f = LaurentInt(coeffs)
    r = [{0: one, 1: f}, {1: one}]
    spread = max([1] + [abs(e) for e in f.coeffs])
    sol = canon._solve_bar_system(r, 2, 0, [1], spread + 2, spread)
    if f == -f.bar():
        want = LaurentInt({e: c for e, c in f.coeffs.items() if e > 0})
        assert sol == ({0: one, 1: want} if want else {0: one})
    else:
        assert sol is None
    # one member alone: psi(v_0) = f' v_0 is consistent only when f' = 1
    assert canon._solve_bar_system([{0: f + one}], 1, 0, [], spread + 2, spread) == (
        {0: one} if f.is_zero() else None)
