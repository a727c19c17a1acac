import itertools

import pytest

from superkl import cli, crystal
from superkl.crystal import (
    WindowTower,
    _signature,
    crystal_dot,
    crystal_e,
    crystal_edges,
    crystal_f,
    is_prinjective,
    lambda_circ,
    same_block,
)
from superkl.errors import ContextMismatch, IntervalInfinite, SuperklError
from superkl.qmodule import ModuleVec
from superkl.weights import (
    Interval,
    Matrix01,
    TypeNC,
    alpha,
    enumerate_weights,
    kappa,
    parse_matrix,
    row_choices,
    weight_count,
    weight_of,
)
from conftest import iter_intervals, iter_types, random_infinite_matrix, sweep_contexts

I00 = Interval.finite(0, 0)
I01 = Interval.finite(0, 1)


def test_crystal_level1():
    t = TypeNC((1,), (0,))
    lam = parse_matrix("10", I00, t)
    assert crystal_f(lam, 0) == parse_matrix("01", I00, t)
    assert crystal_e(parse_matrix("01", I00, t), 0) == lam
    assert crystal_f(parse_matrix("01", I00, t), 0) is None


def test_signature_cancellation():
    # '+' row above '-' row cancels: no edges
    t = TypeNC((1, 1), (0, 0))
    lam = parse_matrix("01/10", I00, t)
    assert crystal_f(lam, 0) is None
    assert crystal_e(lam, 0) is None
    # unlabeled rows give nothing
    t2 = TypeNC((2,), (0,))
    assert crystal_f(parse_matrix("11", I00, t2), 0) is None


def test_lowest_minus_highest_plus():
    # rows -,- : f flips the lowest; e is absent
    t = TypeNC((1, 1), (0, 0))
    lam = parse_matrix("10/10", I00, t)
    assert crystal_f(lam, 0) == parse_matrix("10/01", I00, t)
    assert crystal_e(lam, 0) is None
    mu = parse_matrix("01/01", I00, t)
    assert crystal_e(mu, 0) == parse_matrix("10/01", I00, t)


def test_inverse_edges_and_degree():
    for tnc in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (0, 1)),
                TypeNC((1, 1, 1), (0, 1, 0))):
        ws = enumerate_weights(I01, tnc)
        incoming = {}
        for lam in ws:
            for i in I01.colors():
                mu = crystal_f(lam, i)
                if mu is not None:
                    assert crystal_e(mu, i) == lam
                    key = (mu, i)
                    assert key not in incoming
                    incoming[key] = lam
                nu = crystal_e(lam, i)
                if nu is not None:
                    assert crystal_f(nu, i) == lam


def test_edges_respect_weights():
    tnc = TypeNC((2, 1), (0, 1))
    for lam in enumerate_weights(I01, tnc):
        for i in I01.colors():
            mu = crystal_f(lam, i)
            if mu is not None:
                assert weight_of(mu) == weight_of(lam).minus(alpha(i, I01))


def test_same_block():
    t = TypeNC((1, 1), (0, 0))
    a = parse_matrix("10/01", I00, t)
    b = parse_matrix("01/10", I00, t)
    assert same_block(a, a)
    assert same_block(a, b)
    assert not same_block(a, kappa(I00, t))
    with pytest.raises(ContextMismatch):
        same_block(a, kappa(I01, t))


def test_lambda_circ_level1_connected():
    t = TypeNC((1,), (0,))
    assert lambda_circ(I01, t) == set(enumerate_weights(I01, t))
    t0 = TypeNC((), ())
    assert lambda_circ(I01, t0) == {Matrix01(I01, t0, ())}


def test_lambda_circ_proper_subset():
    t = TypeNC((1, 1), (0, 0))
    circ = lambda_circ(I01, t)
    all_w = set(enumerate_weights(I01, t))
    assert circ < all_w
    # the crystal component misses e.g. the weight with a cancelling pattern
    missing = all_w - circ
    assert missing


def test_tower_windows_and_kappas():
    t = TypeNC((1, 1), (0, 0))
    tower = WindowTower(Interval.all_z(), t)
    w1, w2, w3 = (tower.window(r) for r in (1, 2, 3))
    assert w1.issubset(w2) and w2.issubset(w3)
    assert w2.n_cols() == w1.n_cols() + 1
    # half-infinite towers only grow toward the open side
    up = WindowTower(Interval.half_up(2), t)
    assert up.window(1).lo == 2 and up.window(4).lo == 2
    down = WindowTower(Interval.half_down(0), t)
    assert down.window(1).hi == 0 and down.window(4).hi == 0


def test_each_window_adds_the_column_its_shift_names():
    for tnc in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (0, 1)), TypeNC((1, 3, 3), (1, 0, 1))):
        for interval in (Interval.all_z(), Interval.half_up(-1), Interval.half_down(2)):
            tower = WindowTower(interval, tnc)
            grew = []
            for r in range(1, 9):
                prev, nxt, shift = tower.window(r), tower.window(r + 1), tower.shift(r)
                assert nxt.issubset(interval)
                step = (prev.lo - 1, prev.hi) if shift.grew == "left" else (prev.lo, prev.hi + 1)
                assert (nxt.lo, nxt.hi) == step, (interval, tnc, r)
                assert shift.s == (nxt.lo - 1 if shift.grew == "left" else nxt.hi + 1)
                grew.append(shift.grew)
            expected = {"z": ["left", "right"] * 4, "geq:-1": ["right"] * 8,
                        "leq:2": ["left"] * 8}[interval.text()]
            assert grew == expected


def test_tower_windows_below_one_are_refused_in_either_order():
    t = TypeNC((1, 1), (0, 0))
    for warm_first in (False, True):
        tower = WindowTower(Interval.all_z(), t)
        if warm_first:
            assert tower.window(3).text() == "-1:1" and tower.shift(2).grew == "right"
        for r in (0, -1):
            with pytest.raises(ValueError, match=f"numbered from 1, got {r}"):
                tower.window(r)
            with pytest.raises(ValueError, match=f"numbered from 1, got {r}"):
                tower.shift(r)
        # a refusal leaves the tower as it was
        assert tower.window(1).text() == "0:0" and tower.window(3).text() == "-1:1"
        assert tower.shift(1).grew == "left"


def _width_rule_base_window(interval, tnc):
    """The first tower window as the width formula once placed it."""
    width = max(1, 2 * tnc.max_n() - 1)  # |I_1|, so |I_1+| >= 2 max(n)
    if interval.lo is not None:
        lo = interval.lo
    elif interval.hi is not None:
        lo = interval.hi - width + 1
    else:
        lo = 0
    return Interval.finite(lo, lo + width - 1)


def test_tower_base_window_is_the_width_rule():
    intervals = (Interval.all_z(), Interval.half_up(0), Interval.half_up(3),
                 Interval.half_down(0), Interval.half_down(-2))
    cases = 0
    for tnc in iter_types(4, max_level=3, polarities=(0, 1)):
        for interval in intervals:
            assert WindowTower(interval, tnc).window(1) == \
                _width_rule_base_window(interval, tnc), (interval, tnc)
            cases += 1
    assert cases == 5550


def test_tower_component_nesting():
    t = TypeNC((1, 1), (0, 0))
    for interval in (Interval.all_z(), Interval.half_up(0), Interval.half_down(1)):
        tower = WindowTower(interval, t)
        c1, c2, c3 = (tower.component_r(r) for r in (1, 2, 3))
        assert c1 <= c2 <= c3


def test_bandon_chain_both_directions():
    # growth to the left moves polarity-0 rows, to the right polarity-1 rows;
    # over Z the tower grows left at r = 1 and right at r = 2
    for t in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (0, 1)),
              TypeNC((1, 2), (1, 1)), TypeNC((2, 2), (0, 1))):
        tower = WindowTower(Interval.all_z(), t)
        assert [tower.shift(r).grew for r in (1, 2)] == ["left", "right"]
        for r in (1, 2):
            assert tower.bandon_chain(r) == ModuleVec.monomial(tower.kappa_r(r)), (t, r)


def test_kappa_r_prinjective():
    t = TypeNC((1, 1), (0, 0))
    tower = WindowTower(Interval.all_z(), t)
    for r in (1, 2, 3):
        assert is_prinjective(tower.kappa_r(r), tower, r + 1) is not None


def test_prinjective_unknown_at_budget():
    t = TypeNC((1, 1), (0, 0))
    tower = WindowTower(Interval.all_z(), t)
    # deviations far outside the first windows
    lam = Matrix01(Interval.all_z(), t, ((40,), (41,)))
    assert is_prinjective(lam, tower, 3) is None
    # a budget below one window checks nothing
    for r_max in (0, -3):
        with pytest.raises(SuperklError, match=f"r_max must be at least 1, got {r_max}"):
            is_prinjective(tower.kappa_r(1), tower, r_max)


def component_by_search(start, colors):
    """The component of start under the f- and e-edges of the colors, breadth first.

    The definition of a crystal component, the reference for the
    highest-weight rules.
    """
    seen = {start}
    queue = [start]
    for lam in queue:
        for i in colors:
            for step in (crystal_f, crystal_e):
                nxt = step(lam, i)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


def test_highest_weight_rules_are_the_component_search():
    # every finite context with |I_+| <= 5, level <= 3 and at most 60 weights
    contexts = weights = 0
    for interval in iter_intervals(5):
        for tnc in iter_types(interval.n_cols(), 3, polarities=(0, 1)):
            if not 0 < weight_count(interval, tnc) <= 60:
                continue
            kap, colors = kappa(interval, tnc), interval.colors()
            circ = lambda_circ(interval, tnc)
            assert circ == component_by_search(kap, colors), (interval, tnc)
            for lam in enumerate_weights(interval, tnc):
                assert (crystal._top(lam, colors) == kap) == (lam in circ), lam.text()
                weights += 1
            contexts += 1
    assert (contexts, weights) == (2900, 46328)


def test_is_prinjective_is_the_first_component_holding_lam():
    results = set()
    for interval in (Interval.all_z(), Interval.half_up(0), Interval.half_down(1)):
        for tnc in (TypeNC((1, 1), (0, 0)), TypeNC((2, 1), (0, 1)),
                    TypeNC((1, 2), (1, 1)), TypeNC((2, 2), (0, 1))):
            tower, r_max = WindowTower(interval, tnc), 4
            components = [component_by_search(tower.kappa_r(r), tower.window(r).colors())
                          for r in range(1, r_max + 1)]
            assert [tower.component_r(r) for r in range(1, r_max + 1)] == components
            for lam in {Matrix01(interval, tnc, w.devs) for r in (1, 2, 3)
                        for w in enumerate_weights(tower.window(r), tnc)}:
                first = next((r for r, comp in enumerate(components, 1) if lam in comp), None)
                assert is_prinjective(lam, tower, r_max) == first, (interval, tnc, lam.text())
                results.add(first)
    # members found at the first window and at later ones, and undecided weights
    assert results == {None, 1, 2, 3, 4}


def test_sigma_bookkeeping():
    from fractions import Fraction

    t = TypeNC((2, 1), (0, 1))
    tower = WindowTower(Interval.all_z(), t)
    s1 = tower.shift(1)
    assert s1.grew == "left"
    # polarity-0 rows have n = (2,): p = (1, 1), word (s+2)(s+1)
    assert s1.p == (1, 1)
    assert s1.word == (s1.s + 2, s1.s + 1)
    assert s1.sigma == Fraction(2, 2)
    s2 = tower.shift(2)
    assert s2.grew == "right"
    assert s2.p == (1,)
    assert tower.sigma_total(3) == s1.sigma + s2.sigma


def test_crystal_dot_output():
    t = TypeNC((1,), (0,))
    dot = crystal_dot(I00, t)
    assert dot.startswith("digraph")
    assert '"@0:10" -> "@0:01" [label="0"]' in dot
    with pytest.raises(IntervalInfinite):
        crystal_edges(Interval.all_z(), t)


def signature_by_entries(lam, i):
    """The signature rule read entry by entry, the reference for ``_signature``."""
    minus_rows = []
    plus_stack = []
    for row in range(lam.tnc.level):
        pair = (lam.entry(row, i), lam.entry(row, i + 1))
        if pair == (1, 0):
            if plus_stack:
                plus_stack.pop()
            else:
                minus_rows.append(row)
        elif pair == (0, 1):
            plus_stack.append(row)
    return minus_rows, plus_stack


def test_signature_matches_the_entry_reading(rng):
    cases = [(w, interval.colors()) for interval, tnc in sweep_contexts()
             for w in enumerate_weights(interval, tnc)]
    for interval in (Interval.all_z(), Interval.parse("geq:-3"), Interval.parse("leq:4")):
        for tnc in (TypeNC((2, 1), (0, 1)), TypeNC((1, 3, 2), (1, 0, 1)),
                    TypeNC((2, 2, 1), (1, 1, 0))):
            for _ in range(40):
                lam = random_infinite_matrix(rng, interval, tnc)
                lo, hi = lam.window()
                cases.append((lam, [i for i in range(lo - 1, hi + 1)
                                    if interval.contains_col(i) and interval.contains_col(i + 1)]))
    assert {ci for lam, _ in cases for ci in lam.tnc.c} == {0, 1}
    signatures = [(_signature(lam, i), signature_by_entries(lam, i))
                  for lam, colors in cases for i in colors]
    assert all(new == ref for new, ref in signatures)
    # both kinds of row survive somewhere, so both branches are compared
    assert any(new[0] for new, _ in signatures) and any(new[1] for new, _ in signatures)


def per_weight_edges(interval, weights):
    """The f-edges read off ``crystal_f``, one weight and color at a time."""
    edges = [(lam, i, crystal_f(lam, i)) for lam in weights for i in interval.colors()]
    return [edge for edge in edges if edge[2] is not None]


def test_edge_targets_are_the_enumerated_weights():
    # the per-weight rule gives the same edges in the same order
    for interval, tnc in sweep_contexts():
        weights, edges = crystal_edges(interval, tnc)
        assert edges == per_weight_edges(interval, weights)
        ids = {id(w) for w in weights}
        assert all(id(lam) in ids and id(mu) in ids for lam, _, mu in edges)


def test_json_crystal_builds_no_dot_text(capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("dot_text called for a JSON crystal")
    monkeypatch.setattr(crystal, "dot_text", refuse)
    for fmt in ("json", "tsv"):
        assert cli.main(["crystal", "--interval", "0:2", "--n", "2,1", "--c", "0,1",
                         "--format", fmt]) == 0
    assert capsys.readouterr().out


def scanned_edges(interval, tnc, swap=False, bottom_up=False):
    """``crystal_edges``' scan of its ``_flip_steps``, or a mutant of it.

    ``swap`` reads each '+' as a '-' and each '-' as a '+' (a row's step
    still leads to its own flip); ``bottom_up`` scans the rows upward.
    """
    weights = enumerate_weights(interval, tnc)
    per_row = row_choices(interval, tnc)
    order = range(len(per_row))[::-1] if bottom_up else range(len(per_row))
    tables = list(zip(interval.colors(), crystal._flip_steps(per_row, interval.colors())))
    edges = []
    for n, at in enumerate(itertools.product(*[range(len(c)) for c in per_row])):
        for i, rows in tables:
            plus = step = 0
            for r in order:
                s = rows[r][at[r]]
                if s and (s > 0) != swap:  # a '+'
                    plus += 1
                elif s:
                    if plus:
                        plus -= 1
                    else:
                        step = s
            if step:
                edges.append((weights[n], i, weights[n + step]))
    return edges


def test_swapped_labels_or_a_bottom_up_scan_are_caught():
    swapped = bottom_up = 0
    for interval, tnc in sweep_contexts(max_dim=200, max_cols=4):
        weights, edges = crystal_edges(interval, tnc)
        assert scanned_edges(interval, tnc) == edges == per_weight_edges(interval, weights)
        swapped += scanned_edges(interval, tnc, swap=True) != edges
        bottom_up += scanned_edges(interval, tnc, bottom_up=True) != edges
    assert swapped > 300 and bottom_up > 150  # of 439 contexts


def test_crystal_edges_build_no_weight_beyond_the_enumeration(monkeypatch):
    built = flips = 0
    trusted, checked = Matrix01._trusted.__func__, Matrix01.__post_init__

    def counted_trusted(cls, *args):
        nonlocal built
        built += 1
        return trusted(cls, *args)

    def counted_checked(self):
        nonlocal built
        built += 1
        checked(self)

    def counted_flip(self, i, j):
        nonlocal flips
        flips += 1
    monkeypatch.setattr(Matrix01, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(Matrix01, "__post_init__", counted_checked)
    monkeypatch.setattr(Matrix01, "flip", counted_flip)
    weights, edges = crystal_edges(Interval.finite(0, 4), TypeNC((2, 2, 2), (0, 0, 0)))
    assert len(edges) == 7900
    assert built == len(weights) == 3375 and flips == 0
