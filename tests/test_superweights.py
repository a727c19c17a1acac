import itertools

import pytest

from superkl.errors import NotDominant, TypeMismatch
from superkl.superweights import (
    SuperWeight,
    bruhat_leq,
    dominance_super,
    from_matrix01,
    linkage_up,
    pair_delta,
    parities,
    rho,
    shifted,
    to_matrix01,
)
from superkl.weights import TypeNC, order_leq


GL11 = TypeNC((1, 1), (0, 1))
GL20 = TypeNC((2,), (0,))
GL21 = TypeNC((2, 1), (0, 1))
GL12 = TypeNC((1, 2), (0, 1))


def test_rho_closed_form():
    assert rho(GL11).coords == (0, 0)
    assert rho(GL20).coords == (0, -1)


def test_rho_pairings():
    for tnc in (GL11, GL20, GL21, GL12, TypeNC((2, 2), (1, 0)),
                TypeNC((1, 1, 1), (0, 1, 0))):
        r = rho(tnc)
        ps = parities(tnc)
        m = len(ps)
        first = pair_delta(r.coords, ps, 0)
        assert first == (0 if ps[0] == 0 else 1)
        for i in range(m - 1):
            val = pair_delta(r.coords, ps, i) - pair_delta(r.coords, ps, i + 1)
            if ps[i] == ps[i + 1]:
                assert val == (-1) ** ps[i]
            else:
                assert val == 0


def test_weight_dictionary_example():
    lam = SuperWeight((0, 0), GL11)
    mat = to_matrix01(lam)
    assert mat.devs == ((0,), (0,))
    assert mat.entry(0, 0) == 1  # polarity-0 row deviates to 1
    assert mat.entry(1, 0) == 0  # polarity-1 row deviates to 0
    assert from_matrix01(mat) == lam


def _dominant_box(tnc, lo=-3, hi=3):
    m = sum(tnc.n)
    for coords in itertools.product(range(lo, hi + 1), repeat=m):
        lam = SuperWeight(coords, tnc)
        sh = shifted(lam)
        pos = 0
        ok = True
        for ni in tnc.n:
            for k in range(pos, pos + ni - 1):
                if not sh[k] > sh[k + 1]:
                    ok = False
            pos += ni
        if ok:
            yield lam


def test_roundtrip_on_dominant_box():
    count = 0
    for lam in _dominant_box(GL21, -2, 2):
        mat = to_matrix01(lam)
        assert all(len(r) == n for r, n in zip(mat.devs, mat.tnc.n))
        assert from_matrix01(mat) == lam
        count += 1
    # lam_1 >= lam_2 within the even block: 15 pairs, odd coordinate free
    assert count == 75


def test_not_dominant():
    # shifted coordinates (0, 0, 1) fail strict decrease in the even block
    with pytest.raises(NotDominant):
        to_matrix01(SuperWeight((0, 1, 0), GL21))


def test_bruhat_reflexive_and_type_guard():
    lam = SuperWeight((1, 0), GL11)
    assert bruhat_leq(lam, lam)
    with pytest.raises(TypeMismatch):
        bruhat_leq(lam, SuperWeight((1, 0), GL20))


def test_bruhat_matches_dominance_for_gl2():
    # purely even level-1 block: Bruhat comparability on the rho-shifted
    # coordinates is plain dominance of the sorted coordinate multisets
    for lam in _dominant_box(GL20, -2, 2):
        for mu in _dominant_box(GL20, -2, 2):
            if bruhat_leq(lam, mu):
                assert dominance_super(mu, lam)


def test_dominance_examples():
    lam = SuperWeight((1, -1), GL11)
    mu = SuperWeight((0, 0), GL11)
    assert dominance_super(lam, lam)
    assert dominance_super(lam, mu)       # lam - mu = delta_1 - delta_2
    assert not dominance_super(mu, lam)


def test_linkage_examples():
    # typical gl(1|1) weight: no links
    assert linkage_up(SuperWeight((1, 1), GL11)) == []
    # atypical: (lam+rho, d1) + (lam+rho, d2) raw-sum zero
    links = linkage_up(SuperWeight((1, -1), GL11))
    assert [x.coords for x in links] == [(0, 0)]
    # even reflection for gl(2)
    links = linkage_up(SuperWeight((1, 1), GL20))  # shifted (1, 0)
    assert [x.coords for x in links] == [(0, 2)]


def test_linkage_chain_lemma():
    # mu up lam implies mu <= lam in Bruhat implies lam dominates mu
    for tnc in (GL11, GL21, GL12):
        for lam in _dominant_box(tnc, -2, 2):
            for mu in linkage_up(lam):
                assert bruhat_leq(mu, lam), (lam.coords, mu.coords)
                assert dominance_super(lam, mu), (lam.coords, mu.coords)


def test_orderdesc_on_boxes():
    # Bruhat order on dominant weights matches the 01-matrix order
    for tnc in (GL11, GL21):
        box = list(_dominant_box(tnc, -2, 2))
        mats = {lam: to_matrix01(lam) for lam in box}
        for lam in box:
            for mu in box:
                assert bruhat_leq(lam, mu) == order_leq(mats[lam], mats[mu])


def test_p_lambda_parity():
    lam = SuperWeight((2, 3), GL11)
    assert lam.p_lambda() == 1
    assert SuperWeight((2, 2), GL11).p_lambda() == 0


def test_rho_matches_its_sum_formula():
    # rho_j = -(-1)^{p_j} sum_{i<j} (-1)^{p_i}, less 1 when p_j = 1
    for m in range(7):
        for ps in itertools.product((0, 1), repeat=m):
            tnc = TypeNC((1,) * m, ps)
            want = tuple(-((-1) ** ps[j]) * sum((-1) ** ps[i] for i in range(j)) - ps[j]
                         for j in range(m))
            assert rho(tnc).coords == want
            lam = SuperWeight(tuple(range(m)), tnc)
            assert shifted(lam) == tuple(a + b for a, b in zip(lam.coords, want))
