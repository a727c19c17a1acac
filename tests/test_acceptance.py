"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything is exact arithmetic; no tolerances.  The bar-involution sweep
(criterion 1) fixes the collection of modules used by criteria 2-4 and 13:
all (interval, type) contexts of level <= 3 over intervals with |I_+| <= 5
and dimension <= 500.
"""

import random
import time

from conftest import (
    acceptance_line,
    duality_failures,
    p_column,
    random_infinite_matrix,
    sweep_contexts,
)

from superkl import canonical as canon
from superkl import crystal as crys
from superkl import klr
from superkl import superweights as sw
from superkl.laurent import LaurentInt, one, zero
from superkl.qmodule import ModuleVec, act_e, act_f
from superkl.weights import (
    Interval,
    Matrix01,
    TypeNC,
    alpha,
    defect,
    defect_in_window,
    enumerate_weights,
    equivalent_type,
    convert_to_type,
    in_Lambda_J,
    kappa,
    minimal_window,
    order_leq,
    truncate,
    weight_count,
    weight_of,
)

_CONTEXTS = None


def contexts():
    global _CONTEXTS
    if _CONTEXTS is None:
        _CONTEXTS = list(sweep_contexts())
    return _CONTEXTS


def test_criterion_01_bar_involution_suite():
    t0 = time.time()
    monomials = 0
    for interval, tnc in contexts():
        colors = list(interval.colors())
        for lam in enumerate_weights(interval, tnc):
            v = ModuleVec.monomial(lam)
            pv = canon.psi_monomial(lam)
            assert canon.bar_psi(pv) == v, lam.text()
            for j in colors:
                assert canon.bar_psi(act_f(j, v)) == act_f(j, pv)
                assert canon.bar_psi(act_e(j, v)) == act_e(j, pv)
            monomials += 1
    # antilinearity on scaled vectors
    interval, tnc = contexts()[5]
    for lam in enumerate_weights(interval, tnc)[:5]:
        p = LaurentInt({2: 3, -1: 1})
        assert canon.bar_psi(ModuleVec.monomial(lam, p)) \
            == canon.psi_monomial(lam).scale(p.bar())
    elapsed = time.time() - t0
    acceptance_line(1, True,
                    f"psi^2=id, f/e-commutation, antilinearity on {monomials} "
                    f"monomials across {len(contexts())} modules ({elapsed:.1f}s)")
    assert elapsed < 60.0


def _small_blocks():
    for interval, tnc in contexts():
        table = canon.BlockTable(interval, tnc)
        for block in table.blocks:
            if block.size <= 20:
                yield block


def test_criterion_02_canonical_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for block in _small_blocks():
        for lam in block.members:
            assert canon.canonical_basis_direct(lam) == canon.canonical_basis(lam), \
                lam.text()
            checked += 1
    acceptance_line(2, True,
                    f"triangular algorithm == direct linear solve on {checked} "
                    f"basis vectors ({time.time()-t0:.1f}s)")


def test_criterion_03_positivity_triangularity():
    checked = 0
    for block in _small_blocks():
        d = block.d_matrix()
        for a, lam in enumerate(block.members):
            assert d[a].get(a) == one
            for b, mu in enumerate(block.members):
                entry = d[a].get(b, zero)
                if b == a:
                    continue
                if lam != mu and order_leq(lam, mu):
                    assert entry.in_qZq() or entry.is_zero()
                    assert entry.coefficients_nonnegative()
                else:
                    assert entry.is_zero()
            checked += 1
    acceptance_line(3, True,
                    f"d_(lam,lam)=1, d_(lam,mu) in qN[q] above, 0 otherwise "
                    f"for {checked} rows")


def test_criterion_04_inverse_matrix_identity():
    blocks = 0
    for block in _small_blocks():
        d = block.d_matrix()
        p = block.p_matrix()  # entries are p_(lam,mu)(-q)
        size = block.size
        for a in range(size):
            for b in range(size):
                tot = zero
                for k in range(size):
                    dk = d[a].get(k)
                    pk = p[k].get(b)
                    if dk is not None and pk is not None:
                        tot = tot + dk * pk
                assert tot == (one if a == b else zero)
        blocks += 1
    acceptance_line(4, True, f"D(q) P(-q) = identity on {blocks} blocks")


def _random_type(rng, max_level=3, max_n=2):
    level = rng.randint(1, max_level)
    n = tuple(rng.randint(1, max_n) for _ in range(level))
    c = tuple(rng.randint(0, 1) for _ in range(level))
    return TypeNC(n, c)


def _same_block_partner(rng, lam):
    devcols = lam.all_dev_cols()
    window = Interval.finite(min(devcols) - 1, max(devcols) + 1)
    cut = truncate(lam, window)
    wt = weight_of(cut)
    members = [m for m in enumerate_weights(window, lam.tnc)
               if weight_of(m) == wt]
    pick = rng.choice(members)
    return Matrix01(lam.interval, lam.tnc, pick.devs)


def test_criterion_05_truncation_stability():
    rng = random.Random(501)
    z = Interval.all_z()
    pairs = 0
    while pairs < 50:
        tnc = _random_type(rng)
        lam = random_infinite_matrix(rng, z, tnc, span=5)
        mu = _same_block_partner(rng, lam) if rng.random() < 0.8 \
            else random_infinite_matrix(rng, z, tnc, span=5)
        window = minimal_window(
            z, tnc, sorted(set(lam.all_dev_cols()) | set(mu.all_dev_cols())))
        base = canon.kl_d(truncate(lam, window), truncate(mu, window))
        for dlo in range(0, 4):
            for dhi in range(0, 4 - dlo):
                bigger = Interval.finite(window.lo - dlo, window.hi + dhi)
                val = canon.kl_d(truncate(lam, bigger), truncate(mu, bigger))
                assert val == base, (lam.text(), mu.text(), bigger.text())
        # the built-in driver agrees
        assert canon.kl_d_stable(lam, mu) == base
        pairs += 1
    acceptance_line(5, True,
                    f"kl_d window-stable for {pairs} random pairs over Z, "
                    f"all enlargements up to +3 columns")


def test_criterion_06_defect_window_independence():
    rng = random.Random(601)
    intervals = [Interval.all_z(), Interval.half_up(-3), Interval.half_down(9)]
    checked = 0
    while checked < 100:
        iv = intervals[checked % 3]
        tnc = _random_type(rng)
        lam = random_infinite_matrix(rng, iv, tnc, span=5)
        base_window = minimal_window(iv, tnc, lam.all_dev_cols())
        values = []
        for pad in (0, 1, 3):
            lo = base_window.lo - pad
            hi = base_window.hi + pad
            if iv.lo is not None:
                lo = max(lo, iv.lo)
            if iv.hi is not None:
                hi = min(hi, iv.hi)
            values.append(defect_in_window(lam, Interval.finite(lo, hi)))
        assert len(set(values)) == 1, lam.text()
        assert values[0] >= 0
        assert values[0] == defect(lam)
        checked += 1
    # defect(kappa) = 0 over finite intervals and for tower kappas
    for interval, tnc in contexts()[:60]:
        assert defect(kappa(interval, tnc)) == 0
    tower = crys.WindowTower(Interval.all_z(), TypeNC((2, 1), (0, 1)))
    for r in (1, 2, 3):
        assert defect(tower.kappa_r(r)) == 0
    acceptance_line(6, True,
                    f"defect equal across 3 windows for {checked} random "
                    f"weights on 3 infinite intervals; defect(kappa)=0; defect>=0")


def _fast_order_keys(ws, interval):
    grid = sorted({j for m in ws for row in m.devs for j in row if j in interval})
    level = ws[0].tnc.level if ws else 0
    keys = {}
    for lam in ws:
        vec = []
        for k in range(1, level + 1):
            run = []
            for h in grid:
                total = 0
                for i in range(k):
                    sign = 1 if lam.tnc.c[i] == 0 else -1
                    total += sign * sum(1 for j in lam.devs[i] if j <= h)
                run.append(total)
            vec.append(tuple(run))
        keys[lam] = vec
    return keys


def _leq_from_keys(keys, level, a, b):
    va, vb = keys[a], keys[b]
    if level and va[level - 1] != vb[level - 1]:
        return False
    for k in range(level - 1):
        if any(x < y for x, y in zip(va[k], vb[k])):
            return False
    return True


def test_criterion_07_order_theory_suite():
    t0 = time.time()
    rng = random.Random(701)
    posets = 0
    in_block_pairs = 0
    for interval, tnc in contexts():
        if not (0 < weight_count(interval, tnc) <= 200):
            continue
        ws = enumerate_weights(interval, tnc)
        keys = _fast_order_keys(ws, interval)
        level = tnc.level
        n = len(ws)
        masks = []
        for a in ws:
            mask = 0
            for i, b in enumerate(ws):
                if _leq_from_keys(keys, level, a, b):
                    mask |= 1 << i
            masks.append(mask)
        # the fast comparator is the public order and the block's order table
        # on every pair inside a block, and the public order never relates
        # two blocks
        blocks = {}
        for i, w in enumerate(ws):
            blocks.setdefault(weight_of(w), []).append(i)
        for block in blocks.values():
            data = canon.block_data(ws[block[0]])
            assert data.size == len(block)
            pos = {a: data.position(ws[a]) for a in block}
            for a in block:
                for b in block:
                    leq = bool(masks[a] >> b & 1)
                    assert leq == order_leq(ws[a], ws[b]) == data.leq(pos[a], pos[b])
            in_block_pairs += len(block) ** 2
        for _ in range(5):
            a, b = rng.randrange(n), rng.randrange(n)
            if weight_of(ws[a]) != weight_of(ws[b]):
                assert not order_leq(ws[a], ws[b])
        for i in range(n):
            assert masks[i] >> i & 1  # reflexive
        for i in range(n):
            for j in range(n):
                if i != j and masks[i] >> j & 1 and masks[j] >> i & 1:
                    raise AssertionError("antisymmetry fails")
        for i in range(n):
            m = masks[i]
            rest = m
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if masks[j] & ~m:
                    raise AssertionError("transitivity fails")
        posets += 1
    canon.clear_caches()

    # Lemma comb chain and orderdesc boxes
    import itertools
    boxes = {"gl(1|1)": TypeNC((1, 1), (0, 1)),
             "gl(2|1)": TypeNC((2, 1), (0, 1)),
             "gl(1|2)": TypeNC((1, 2), (0, 1))}
    comb_checked = 0
    for name, tnc in boxes.items():
        m = sum(tnc.n)
        for coords in itertools.product(range(-3, 4), repeat=m):
            lam = sw.SuperWeight(coords, tnc)
            for mu in sw.linkage_up(lam):
                assert sw.bruhat_leq(mu, lam), (name, coords, mu.coords)
                assert sw.dominance_super(lam, mu), (name, coords, mu.coords)
                comb_checked += 1
    desc_checked = 0
    for name, tnc in boxes.items():
        m = sum(tnc.n)
        dominant = []
        for coords in itertools.product(range(-3, 4), repeat=m):
            lam = sw.SuperWeight(coords, tnc)
            try:
                mat = sw.to_matrix01(lam)
            except Exception:
                continue
            dominant.append((lam, mat))
        for lam, mat_l in dominant:
            for mu, mat_m in dominant:
                assert sw.bruhat_leq(lam, mu) == order_leq(mat_l, mat_m), \
                    (name, lam.coords, mu.coords)
                desc_checked += 1
    acceptance_line(7, True,
                    f"partial-order axioms on {posets} posets; public order == "
                    f"block table == reference on {in_block_pairs} in-block pairs; "
                    f"linkage chain ({comb_checked} links) and Bruhat<->matrix order "
                    f"({desc_checked} pairs) on [-3,3] boxes ({time.time()-t0:.1f}s)")


def test_criterion_08_crystal_suite():
    checked = 0
    for interval, tnc in contexts():
        if weight_count(interval, tnc) > 200:
            continue
        colors = list(interval.colors())
        incoming = {}
        for lam in enumerate_weights(interval, tnc):
            for i in colors:
                mu = crys.crystal_f(lam, i)
                if mu is not None:
                    assert crys.crystal_e(mu, i) == lam
                    assert (mu, i) not in incoming  # in-degree <= 1
                    incoming[(mu, i)] = lam
                    assert weight_of(mu) == weight_of(lam).minus(alpha(i, interval))
                nu = crys.crystal_e(lam, i)
                if nu is not None:
                    assert crys.crystal_f(nu, i) == lam
            checked += 1
    # nesting and the divided-power chain in both growth directions: over Z
    # the tower grows left at odd r, right at even r
    chains = {"left": 0, "right": 0}
    for tnc in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (0, 1)),
                TypeNC((1, 2), (1, 1))):
        tower = crys.WindowTower(Interval.all_z(), tnc)
        assert tower.component_r(1) <= tower.component_r(2) <= tower.component_r(3)
        for r in (1, 2, 3, 4):
            data = tower.shift(r)
            assert tower.bandon_chain(r) == ModuleVec.monomial(tower.kappa_r(r))
            chains[data.grew] += 1
    assert chains["left"] >= 2 and chains["right"] >= 2
    acceptance_line(8, True,
                    f"inverse edges, degree<=1, weight steps on {checked} "
                    f"vertices; nesting r<=3; divided-power chains "
                    f"{chains['left']}x left, {chains['right']}x right")


def _raising_word(lam, interval):
    word = []
    cur = lam
    colors = list(interval.colors())
    while True:
        for i in colors:
            nxt = crys.crystal_e(cur, i)
            if nxt is not None:
                word.append(i)
                cur = nxt
                break
        else:
            break
    return list(reversed(word)), cur


def test_criterion_09_young_word_self_duality():
    rng = random.Random(901)
    samples = 0
    tried = 0
    pool = [ctx for ctx in contexts()
            if ctx[1].level >= 2 and 1 < weight_count(*ctx) <= 60]
    while samples < 30 and tried < 4000:
        tried += 1
        interval, tnc = pool[rng.randrange(len(pool))]
        ws = enumerate_weights(interval, tnc)
        lam = ws[rng.randrange(len(ws))]
        word, top = _raising_word(lam, interval)
        if top != kappa(interval, tnc):
            continue
        if rng.random() < 0.5:
            rng.shuffle(word)
        val = canon.young_word_dim(lam, word)
        if val.is_zero():
            continue
        norm = val.shift(-defect(lam))
        assert norm.is_bar_symmetric(), (lam.text(), word)
        assert norm.coefficients_nonnegative(), (lam.text(), word)
        samples += 1
    assert samples == 30
    acceptance_line(9, True,
                    f"q^(-def) young-word dims bar-symmetric with N "
                    f"coefficients on {samples} nonzero samples")


def test_criterion_10_klr_suite():
    t0 = time.time()
    checked = 0
    for colors in ((0,), (0, 1), (0, 1, 2)):
        for d in (1, 2, 3):
            report = klr.verify_relations(colors, d)
            assert report["ok"], report["failures"][:3]
            checked += report["checked"]
    rng = random.Random(1001)
    ctx = klr.KLRContext((0, 1, 2), 3)
    words = [tuple(w) for w in ctx.words()]

    def rand_monomial():
        iword = rng.choice(words)
        a = tuple(rng.randint(0, 1) for _ in range(3))
        elem = klr.KLRElem(ctx, {(iword, a, klr.perm_identity(3)): 1})
        for _ in range(rng.randint(0, 2)):
            elem = klr.klr_mul(elem, klr.tau(ctx, rng.randint(1, 2)))
        return elem

    for _ in range(200):
        x, y, z = rand_monomial(), rand_monomial(), rand_monomial()
        assert klr.klr_mul(klr.klr_mul(x, y), z) == klr.klr_mul(x, klr.klr_mul(y, z))
    for m in (1, 2, 3, 4):
        b = klr.b_idempotent(m)
        assert klr.klr_mul(b, b) == b
    for m, cap in ((1, 6), (2, 8), (3, 12)):
        report = klr.nilhecke_graded_rank_check(m, cap)
        assert report["ok"], report
    elapsed = time.time() - t0
    acceptance_line(10, True,
                    f"{checked} relation instances; 200 associativity triples; "
                    f"b_m idempotent m<=4; graded ranks m<=3 ({elapsed:.1f}s)")
    assert elapsed < 120.0


def test_criterion_11_aha_suite():
    instances = 0
    for d in (2, 3, 4):
        one_d = klr.aha_one(d)
        for j in range(1, d):
            tj = klr.aha_t(d, j)
            assert klr.aha_mul(tj, tj) == one_d
            for k in range(1, d + 1):
                lhs = klr.aha_mul(tj, klr.aha_x(d, k))
                tk = j + 1 if k == j else j if k == j + 1 else k
                rhs = klr.aha_mul(klr.aha_x(d, tk), tj)
                diff = lhs - rhs
                if k == j + 1:
                    assert diff == one_d
                elif k == j:
                    assert diff == one_d.scale(-1)
                else:
                    assert diff.is_zero()
                instances += 1
        for j in range(1, d - 1):
            a = klr.aha_mul(klr.aha_t(d, j),
                            klr.aha_mul(klr.aha_t(d, j + 1), klr.aha_t(d, j)))
            b = klr.aha_mul(klr.aha_t(d, j + 1),
                            klr.aha_mul(klr.aha_t(d, j), klr.aha_t(d, j + 1)))
            assert a == b
            instances += 1
        for j in range(1, d - 1):
            for k in range(j + 2, d):
                assert klr.aha_mul(klr.aha_t(d, j), klr.aha_t(d, k)) \
                    == klr.aha_mul(klr.aha_t(d, k), klr.aha_t(d, j))
                instances += 1
    acceptance_line(11, True, f"(AH) and braid relations, {instances} instances, d<=4")


def test_criterion_12_equivalent_type_invariance():
    import itertools
    instances = [(Interval.finite(0, 0), TypeNC((1, 1), (0, 0))),
                 (Interval.finite(0, 1), TypeNC((2, 1), (0, 1))),
                 (Interval.finite(0, 1), TypeNC((1, 1, 2), (0, 1, 0)))]
    checked = 0
    for interval, tnc in instances:
        ws = enumerate_weights(interval, tnc)
        raw = {tuple(w.row_strings()) for w in ws}
        level = tnc.level
        for rsize in range(level + 1):
            for flips in itertools.combinations(range(level), rsize):
                t2 = equivalent_type(tnc, interval, flips)
                ws2 = enumerate_weights(interval, t2)
                assert {tuple(w.row_strings()) for w in ws2} == raw
                for a in ws:
                    a2 = convert_to_type(a, t2)
                    for b in ws:
                        b2 = convert_to_type(b, t2)
                        assert order_leq(a, b) == order_leq(a2, b2)
                        assert canon.kl_d(a, b) == canon.kl_d(a2, b2)
                        checked += 1
    acceptance_line(12, True,
                    f"identical weight sets, orders and d-matrices under "
                    f"{checked} flipped-type comparisons")


def test_criterion_13_koszul_duality():
    # runs last, so that the blocks of criteria 2-4 are still registered
    t0 = time.time()
    sweep = [(interval, tnc) for interval, tnc in contexts() if tnc.level >= 2]
    weights = 0
    for interval, tnc in sweep:
        assert duality_failures(interval, tnc) == [], (interval.text(), tnc)
        for mu in enumerate_weights(interval, tnc):
            assert canon.dual_canonical(mu).terms == p_column(mu), mu.text()
            weights += 1
    canon.clear_caches()
    acceptance_line(13, True,
                    f"p_(lam,mu)(q) = d_(T(mu),T(lam))(q) on every block of "
                    f"{len(sweep)} modules of level >= 2; dual_canonical == "
                    f"p column on {weights} weights ({time.time()-t0:.1f}s)")
