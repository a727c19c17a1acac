import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superkl.canonical import (
    _block_members_direct,
    _linear_extension,
    _registered,
    clear_caches,
    psi_monomial,
)
from superkl.crystal import crystal_e, crystal_f
from superkl.errors import (
    DegreeMismatch,
    DeviationOutsideWindow,
    IntervalInfinite,
    TypeMismatch,
)
from superkl.weights import (
    Interval,
    Matrix01,
    TypeNC,
    _row_text,
    convert_to_type,
    defect,
    defect_in_window,
    dominance_leq,
    embed,
    enumerate_weights,
    equivalent_type,
    in_Lambda_J,
    in_leq_J,
    in_lt_J,
    kappa,
    minimal_window,
    order_leq,
    parse_matrix,
    truncate,
    weight_of,
)
from conftest import block_key, random_infinite_matrix, sweep_contexts


I00 = Interval.finite(0, 0)
I01 = Interval.finite(0, 1)


def test_enumerate_counts():
    assert len(enumerate_weights(I00, TypeNC((1,), (0,)))) == 2
    assert len(enumerate_weights(I00, TypeNC((1, 1), (0, 1)))) == 4
    ws = enumerate_weights(I01, TypeNC((3,), (0,)))
    assert [w.text() for w in ws] == ["@0:111"]
    with pytest.raises(IntervalInfinite):
        enumerate_weights(Interval.all_z(), TypeNC((1,), (0,)))


def test_enumeration_deterministic_and_sorted():
    ws = enumerate_weights(I01, TypeNC((1,), (0,)))
    assert [w.text() for w in ws] == ["@0:001", "@0:010", "@0:100"]
    # the order of the JSON forms: whole-context canonical output relies on it
    for interval, tnc in ((I01, TypeNC((2, 1), (0, 1))),
                          (Interval.finite(-2, 0), TypeNC((1, 2, 1), (1, 0, 1))),
                          (Interval.finite(0, 2), TypeNC((2, 2, 1), (0, 0, 1)))):
        keys = [json.dumps(w.to_json(), sort_keys=True)
                for w in enumerate_weights(interval, tnc)]
        assert keys == sorted(keys)


def test_kappa():
    assert kappa(I01, TypeNC((2,), (0,))).text() == "@0:110"
    assert kappa(I01, TypeNC((1,), (1,))).text() == "@0:110"
    assert kappa(I00, TypeNC((1, 1), (0, 1))).text() == "@0:10/10"


def test_weight_of():
    lam = parse_matrix("110", I01, TypeNC((2,), (0,)))
    assert dict(weight_of(lam)) == {1: 1}
    empty = kappa(I01, TypeNC((0,), (0,)))
    assert dict(weight_of(empty)) == {}
    # single 0 at column j in an all-ones row: -eps_j
    lam = Matrix01(Interval.all_z(), TypeNC((1,), (1,)), ((3,),))
    assert dict(weight_of(lam)) == {2: 1, 3: -1}


def test_weight_of_window_stable():
    # the same deviation data read over growing finite windows stabilizes
    t = TypeNC((1, 2), (1, 0))
    lam_inf = Matrix01(Interval.all_z(), t, ((1,), (0, 2)))
    target = dict(weight_of(lam_inf))
    for pad in range(2, 6):
        window = Interval.finite(-pad, pad)
        fin = truncate(lam_inf, window)
        restricted = {k: v for k, v in weight_of(fin).items()}
        assert restricted == target


def test_dominance():
    assert dominance_leq({0: 1, 1: 1}, {0: 1, 1: 1}, I01)
    assert dominance_leq({0: 1, 1: 1}, {0: 1, 2: 1}, I01)
    assert not dominance_leq({0: 1, 2: 1}, {0: 1, 1: 1}, I01)
    with pytest.raises(DegreeMismatch):
        dominance_leq({0: 1}, {0: 2}, I01)
    # a jump outside I still pins the prefix on the segment inside I
    I05 = Interval.finite(0, 5)
    assert dominance_leq({-5: 1}, {2: 1}, I05)
    assert not dominance_leq({2: 1}, {-5: 1}, I05)


def test_order_basics():
    t = TypeNC((1, 1), (0, 0))
    a = parse_matrix("10/01", I00, t)
    b = parse_matrix("01/10", I00, t)
    assert order_leq(a, a)
    assert order_leq(a, b) and not order_leq(b, a)
    # different sl-weight spaces: incomparable both ways
    t1 = TypeNC((1,), (0,))
    x = parse_matrix("10", I00, t1)
    y = parse_matrix("01", I00, t1)
    assert not order_leq(x, y) and not order_leq(y, x)
    with pytest.raises(TypeMismatch):
        order_leq(x, parse_matrix("10/01", I00, t))


def _poset_axioms(ws):
    import superkl.weights as W
    leq = {(a, b): W.order_leq(a, b) for a in ws for b in ws}
    for a in ws:
        assert leq[(a, a)]
    for a in ws:
        for b in ws:
            if a != b and leq[(a, b)] and leq[(b, a)]:
                return False
    for a in ws:
        for b in ws:
            if not leq[(a, b)]:
                continue
            for c in ws:
                if leq[(b, c)] and not leq[(a, c)]:
                    return False
    return True


def test_order_is_partial_order_small():
    for tnc in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (0, 1)),
                TypeNC((1, 1, 1), (0, 1, 0))):
        ws = enumerate_weights(I01, tnc)
        assert _poset_axioms(ws)


def test_kappa_is_unique_maximum_of_its_block():
    for tnc in (TypeNC((1, 1), (0, 0)), TypeNC((2, 2), (0, 0)),
                TypeNC((1, 2), (1, 0))):
        ws = enumerate_weights(I01, tnc)
        kap = kappa(I01, tnc)
        kap_wt = weight_of(kap)
        for w in ws:
            if weight_of(w) == kap_wt:
                assert order_leq(w, kap)
                if order_leq(kap, w):
                    assert w == kap


def test_defect_examples():
    t = TypeNC((1, 1), (0, 0))
    lam = parse_matrix("010/100", I01, t)
    assert defect(lam) == 1
    assert defect(kappa(I01, t)) == 0
    for tnc in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (0, 1))):
        for w in enumerate_weights(I01, tnc):
            assert defect(w) >= 0


def test_defect_window_independence(rng):
    t = TypeNC((2, 1), (0, 1))
    for _ in range(25):
        lam = random_infinite_matrix(rng, Interval.all_z(), t)
        base = minimal_window(Interval.all_z(), t, lam.all_dev_cols())
        vals = {defect_in_window(lam, Interval.finite(base.lo - a, base.hi + b))
                for a in range(3) for b in range(3)}
        assert len(vals) == 1
        assert defect(lam) in vals


def test_truncation_sets():
    t = TypeNC((1, 1), (0, 0))
    iv = Interval.finite(-1, 2)
    window = Interval.finite(0, 1)
    ws = enumerate_weights(iv, t)
    for lam in ws:
        inside = in_Lambda_J(lam, window)
        low = in_leq_J(lam, window)
        strict = in_lt_J(lam, window)
        # Lambda_J = Lambda_{<=J} minus Lambda_{<J}
        assert inside == (low and not strict)
    # kappa of the strictly larger window: in <=J but not in Lambda_J
    kap = kappa(iv, t)
    assert in_leq_J(kap, window)
    assert not in_Lambda_J(kap, window)


def test_truncate_and_embed():
    t = TypeNC((1, 1), (0, 0))
    iv = Interval.finite(-1, 2)
    window = Interval.finite(0, 1)
    lam = parse_matrix("@0:10/01", iv, t)
    cut = truncate(lam, window)
    assert cut.interval == window
    assert cut.devs == lam.devs
    assert embed(cut, iv) == lam
    with pytest.raises(DeviationOutsideWindow):
        truncate(kappa(iv, t), window)


def test_truncation_preserves_order(rng):
    t = TypeNC((1, 1), (0, 0))
    iv = Interval.finite(-1, 2)
    window = Interval.finite(-1, 1)
    ws = [w for w in enumerate_weights(iv, t) if in_Lambda_J(w, window)]
    pairs = [(a, b) for a in ws for b in ws]
    rng.shuffle(pairs)
    for a, b in pairs[:40]:
        assert order_leq(a, b) == order_leq(truncate(a, window), truncate(b, window))


def test_equivalent_type():
    t = TypeNC((1,), (0,))
    assert equivalent_type(t, I00, ()) == t
    flipped = equivalent_type(t, I00, {0})
    assert flipped == TypeNC((1,), (1,))
    rows = {w.row_strings()[0] for w in enumerate_weights(I00, t)}
    rows_f = {w.row_strings()[0] for w in enumerate_weights(I00, flipped)}
    assert rows == rows_f == {"10", "01"}
    assert equivalent_type(flipped, I00, {0}) == t
    with pytest.raises(IntervalInfinite):
        equivalent_type(t, Interval.all_z(), {0})


def test_equivalent_type_preserves_order():
    t = TypeNC((1, 2), (0, 0))
    for flips in ({0}, {1}, {0, 1}):
        t2 = equivalent_type(t, I01, flips)
        ws = enumerate_weights(I01, t)
        raw = {tuple(w.row_strings()) for w in ws}
        raw2 = {tuple(w.row_strings()) for w in enumerate_weights(I01, t2)}
        assert raw == raw2
        for a, b in itertools.product(ws, repeat=2):
            a2, b2 = convert_to_type(a, t2), convert_to_type(b, t2)
            assert order_leq(a, b) == order_leq(a2, b2)


def test_interval_parse_roundtrip():
    for text in ("0:3", "z", "geq:-2", "leq:5"):
        assert Interval.parse(text).text() == text


def test_matrix_text_roundtrip():
    t = TypeNC((2, 1), (0, 1))
    for w in enumerate_weights(I01, t):
        assert parse_matrix(w.text(), I01, t) == w
    lam = Matrix01(Interval.all_z(), t, ((0, 3), (1,)))
    assert parse_matrix(lam.text(), Interval.all_z(), t) == lam


@st.composite
def weights_over_any_interval(draw):
    """A weight over a finite, z, geq or leq interval, of level 1 to 3, rows of
    either polarity, deviations in a span of columns round the anchor."""
    anchor = draw(st.integers(-5, 5))
    interval = draw(st.sampled_from([
        Interval.finite(anchor, anchor + draw(st.integers(0, 4))),
        Interval.all_z(), Interval.half_up(anchor), Interval.half_down(anchor)]))
    cols = [j for j in range(anchor - 6, anchor + 7) if interval.contains_col(j)]
    level = draw(st.integers(1, 3))
    devs = tuple(tuple(sorted(draw(st.sets(st.sampled_from(cols), max_size=3))))
                 for _ in range(level))
    c = tuple(draw(st.lists(st.integers(0, 1), min_size=level, max_size=level)))
    return Matrix01(interval, TypeNC(tuple(map(len, devs)), c), devs)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(weights_over_any_interval())
def test_weight_text_and_json_round_trip(lam):
    text = lam.text()
    assert parse_matrix(text, lam.interval, lam.tnc) == lam
    start, rows = text.removeprefix("@").split(":")
    assert lam.to_json() == {"window_start": int(start), "rows": rows.split("/")}
    assert json.loads(json.dumps(lam.to_json())) == lam.to_json()


def reference_row_strings(lam):
    """The rows built entry by entry over the rendered window."""
    lo, hi = lam.window()
    return ["".join(str(lam.entry(i, j)) for j in range(lo, hi + 1))
            for i in range(lam.tnc.level)]


def test_rendering_matches_entry_by_entry_rows(rng):
    _row_text.cache_clear()  # every row below is rendered, none read from an earlier test
    weights = [w for interval, tnc in sweep_contexts(max_dim=40, max_cols=4)
               for w in enumerate_weights(interval, tnc)]
    weights += enumerate_weights(I01, TypeNC((), ()))  # no rows at all
    for interval in (Interval.all_z(), Interval.parse("geq:-3"), Interval.parse("leq:4")):
        for tnc in (TypeNC((2, 1), (0, 1)), TypeNC((1, 3, 2), (1, 0, 1)),
                    TypeNC((0, 2), (1, 0))):
            weights += [random_infinite_matrix(rng, interval, tnc) for _ in range(20)]
        # without deviations the window is one column at the anchor
        weights.append(Matrix01(interval, TypeNC((0, 0), (0, 1)), ((), ())))
    assert any(1 in w.tnc.c for w in weights)
    for lam in weights:
        fresh = Matrix01(lam.interval, lam.tnc, lam.devs)
        rows = reference_row_strings(lam)
        lo, _ = lam.window()
        assert lam.text() == f"@{lo}:" + "/".join(rows)
        assert lam.row_strings() == rows
        assert lam.to_json() == {"window_start": lo, "rows": rows}
        # the memo is invisible to equality and hashing
        assert "_text" in vars(lam) and "_text" not in vars(fresh)
        assert lam == fresh and hash(lam) == hash(fresh)
        assert {fresh: 1}[lam] == 1
        # every call hands out a new list
        lam.row_strings().append("x")
        lam.to_json()["rows"].append("x")
        assert lam.row_strings() == rows and lam.to_json()["rows"] == rows


def test_row_text_cache_is_bounded():
    assert _row_text.cache_info().maxsize is not None
    assert _row_text(0, 3, 1, (1, 3)) == "1010"


def test_equal_devs_in_other_contexts_stay_apart():
    devs = ((0,), (1,))
    lam = Matrix01(I01, TypeNC((1, 1), (0, 0)), devs)
    others = [Matrix01(Interval.finite(0, 2), lam.tnc, devs),   # another interval
              Matrix01(I01, TypeNC((1, 1), (0, 1)), devs),      # another polarity
              Matrix01(Interval.all_z(), lam.tnc, devs)]
    for other in others:
        assert hash(other) == hash(lam) and other != lam and lam != other
        assert len({lam, other}) == 2 and {lam: 1, other: 2}[other] == 2
    # a weight is not its deviation tuple, though the two hash alike
    assert hash(lam) == hash(devs) and lam != devs and len({lam, devs}) == 2
    assert len({lam, *others, devs}) == 5


def test_parse_matrix_rejects_non_binary_rows():
    t = TypeNC((1, 1), (0, 0))
    for text in ("200/010", "100/0x0", "@0:1 0/010", "100/-10"):
        with pytest.raises(ValueError, match="only 0 and 1"):
            parse_matrix(text, I01, t)
    assert parse_matrix("100/010", I01, t) == Matrix01(I01, t, ((0,), (1,)))


def test_parse_matrix_rows_span_the_finite_interval():
    # a bare row spans exactly I_+; a windowed row lies inside it
    t = TypeNC((1, 1), (0, 0))
    for text in ("10000/010", "10/010", "100/01", "@0:1000/010", "@-1:10/010"):
        with pytest.raises(ValueError, match="covers columns"):
            parse_matrix(text, I01, t)
    assert parse_matrix("@1:1/1", I01, t) == Matrix01(I01, t, ((1,), (1,)))


def test_unchecked_weights_pass_the_checked_constructor():
    # enumerate_weights, flip (so the crystal operators) and the row-bitmask
    # reader (so every block's and core's members, built from the direct
    # generator's packed ints, and the psi terms) build their results
    # without validation; the public constructor re-checks them all
    # (tests/test_koszul_dual.py does the same for koszul_dual and its inverse)
    def assert_valid(lam):
        assert Matrix01(lam.interval, lam.tnc, lam.devs) == lam

    built = cores = 0
    for interval, tnc in sweep_contexts():
        clear_caches()  # every block below is built from the direct generator
        colors = list(interval.colors())
        keys = set()
        for lam in enumerate_weights(interval, tnc):
            assert_valid(lam)
            key = block_key(lam)
            if key not in keys:
                keys.add(key)
                block = _registered(key, lambda: _linear_extension(
                    interval, tnc, _block_members_direct(lam)))
                for member in block.members:
                    assert_valid(member)
                    built += 1
                core = block.core()[0]
                for member in core.members:
                    assert_valid(member)
                    built += 1
                cores += core is not block
            for i in colors:
                for step in (crystal_e(lam, i), crystal_f(lam, i)):
                    if step is not None:
                        assert_valid(step)
                        built += 1
                for row in range(tnc.level):
                    if lam.entry(row, i) != lam.entry(row, i + 1):
                        assert_valid(lam.flip(row, i))
                        built += 1
    for interval, tnc in sweep_contexts(max_dim=40):
        for lam in enumerate_weights(interval, tnc):
            for mu in psi_monomial(lam).terms:
                assert_valid(mu)
                built += 1
    assert built > 0 and cores > 0
    # a flip of equal entries, or one that leaves I_+, is still refused
    lam = Matrix01(I01, TypeNC((1, 1), (0, 0)), ((0,), (2,)))
    for row, col in ((0, 1), (0, -1), (1, 2)):
        with pytest.raises(ValueError):
            lam.flip(row, col)
