import itertools
import json
import random

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


def f_closure_by_search(start, colors):
    """The weights f-edges of the colors reach from start, breadth first on
    ``crystal_f``: the reference for the closure on row-choice digits."""
    seen = {start}
    queue = [start]
    for lam in queue:
        for i in colors:
            nxt = crystal_f(lam, i)
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def test_prinjective_members_are_the_f_closure_of_kappa():
    # finite prinjective and lambda_circ against the search, on windows from
    # 0 and left of 0, rows of both polarities, and levels 0 to 3
    intervals = (I00, I01, Interval.finite(0, 2), Interval.finite(-2, 0),
                 Interval.finite(-3, -3))
    contexts = [(interval, tnc) for interval in intervals
                for tnc in iter_types(interval.n_cols(), 3, polarities=(0, 1))
                if 0 < weight_count(interval, tnc) <= 300]
    contexts += [(I01, TypeNC((), ())), (Interval.finite(-2, -1), TypeNC((), ()))]
    for interval, tnc in contexts:
        reference = f_closure_by_search(kappa(interval, tnc), interval.colors())
        assert lambda_circ(interval, tnc) == reference, (interval, tnc)
        args = cli.build_parser().parse_args(
            ["prinjective", f"--interval={interval.text()}", "--n", ",".join(map(str, tnc.n)),
             "--c", ",".join(map(str, tnc.c))])
        payload, _ = cli.cmd_prinjective(args)
        assert payload == {"members": sorted(lam.text() for lam in reference),
                           "count": len(reference)}, (interval, tnc)
    assert len(contexts) > 1000
    # a tower runs the closure on its window and reads it over its interval
    for interval in (Interval.all_z(), Interval.half_up(-1), Interval.half_down(-2)):
        for tnc in (TypeNC((1,), (1,)), TypeNC((2, 1), (0, 1)), TypeNC((1, 2, 1), (1, 0, 1))):
            tower = WindowTower(interval, tnc)
            for r in (1, 2, 3):
                assert tower.component_r(r) == f_closure_by_search(
                    tower.kappa_r(r), tower.window(r).colors()), (interval, tnc, r)


def test_component_from_any_start_is_the_f_closure():
    # the closure on row-choice digits from random starts, not only from
    # kappa: a scan that lets a '-' survive below a single '+' reaches the
    # same set from kappa, but not from 1,614 of these 5,072 starts
    rng = random.Random(29)
    starts = 0
    for interval in (I01, Interval.finite(0, 2), Interval.finite(-1, 1)):
        for tnc in iter_types(interval.n_cols(), 3, polarities=(0, 1)):
            if tnc.level < 2 or not 1 < weight_count(interval, tnc) <= 300:
                continue
            per_row, colors = row_choices(interval, tnc), interval.colors()
            for lam in rng.sample(enumerate_weights(interval, tnc), 2):
                start = tuple(map(list.index, per_row, lam.devs))
                got = {Matrix01(interval, tnc, tuple(map(list.__getitem__, per_row, at)))
                       for at in crystal._component(per_row, start, colors)}
                assert got == f_closure_by_search(lam, colors), (interval, tnc, lam.text())
                starts += 1
    assert starts == 5072


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


def weight_edges(weights, edges):
    """``crystal_edges``' index edges as (lam, color, mu), read in ``weights``."""
    assert all(0 <= n < len(weights) and 0 <= m < len(weights) for n, _, m in edges)
    return [(weights[n], i, weights[m]) for n, i, m in edges]


def test_edge_targets_are_the_enumerated_weights():
    # the vertices are the enumerated weights' rows, and the per-weight rule
    # gives the same edges in the same order
    for interval, tnc in sweep_contexts():
        vertices, edges = crystal_edges(interval, tnc)
        weights = enumerate_weights(interval, tnc)
        assert vertices == [tuple(w.row_strings()) for w in weights]
        assert weight_edges(weights, edges) == per_weight_edges(interval, weights)


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
                edges.append((n, i, n + step))
    return edges


def test_swapped_labels_or_a_bottom_up_scan_are_caught():
    swapped = bottom_up = 0
    for interval, tnc in sweep_contexts(max_dim=200, max_cols=4):
        _, edges = crystal_edges(interval, tnc)
        weights = enumerate_weights(interval, tnc)
        assert scanned_edges(interval, tnc) == edges
        assert weight_edges(weights, edges) == per_weight_edges(interval, weights)
        swapped += scanned_edges(interval, tnc, swap=True) != edges
        bottom_up += scanned_edges(interval, tnc, bottom_up=True) != edges
    assert swapped > 300 and bottom_up > 150  # of 439 contexts


def test_crystal_edges_build_no_weight_beyond_the_enumeration(monkeypatch):
    built = flips = 0
    trusted, checked = Matrix01._trusted.__func__, Matrix01.__init__

    def counted_trusted(cls, *args):
        nonlocal built
        built += 1
        return trusted(cls, *args)

    def counted_checked(self, *args):
        nonlocal built
        built += 1
        checked(self, *args)

    def counted_flip(self, i, j):
        nonlocal flips
        flips += 1
    monkeypatch.setattr(Matrix01, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(Matrix01, "__init__", counted_checked)
    monkeypatch.setattr(Matrix01, "flip", counted_flip)
    vertices, edges = crystal_edges(Interval.finite(0, 4), TypeNC((2, 2, 2), (0, 0, 0)))
    assert len(edges) == 7900 and len(vertices) == 3375
    assert built == 0 and flips == 0  # not even the enumeration's weights


def crystal_data_form(interval, tnc, fmt):
    """The stdout of ``crystal`` in fmt, from per-weight data: the weights of
    ``enumerate_weights``, their ``to_json`` and ``text``, and the edges of
    ``crystal_f``."""
    weights = enumerate_weights(interval, tnc)
    edges = per_weight_edges(interval, weights)
    if fmt == "json":
        payload = {"command": "crystal", "interval": interval.text(),
                   "vertices": [w.to_json() for w in weights],
                   "edges": [{"from": lam.text(), "color": i, "to": mu.text()}
                             for lam, i, mu in edges]}
        if tnc.level:
            payload["type"] = {"n": list(tnc.n), "c": list(tnc.c)}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if fmt == "dot":
        lines = (["digraph crystal {"] + [f'  "{w.text()}";' for w in weights]
                 + [f'  "{lam.text()}" -> "{mu.text()}" [label="{i}"];' for lam, i, mu in edges]
                 + ["}"])
    else:
        sep = "\t" if fmt == "tsv" else "  "
        lines = [sep.join((lam.text(), str(i), mu.text())) for lam, i, mu in edges]
    return "\n".join(lines) + "\n"


def crystal_argv(interval, tnc, fmt):
    return ["crystal", "--interval", interval.text(), "--n", ",".join(map(str, tnc.n)),
            "--c", ",".join(map(str, tnc.c)), "--format", fmt]


def crystal_output(capsys, interval, tnc, fmt):
    code = cli.main(crystal_argv(interval, tnc, fmt))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


CRYSTAL_FORMATS = ("json", "tsv", "text", "dot")


def test_crystal_output_matches_its_per_weight_data_form(capsys):
    # every acceptance context in every format, plus a type of level 0 and
    # an interval left of 0
    contexts = list(sweep_contexts())
    contexts += [(Interval.finite(0, 1), TypeNC((), ())),
                 (Interval.finite(-2, 0), TypeNC((1, 2), (1, 0)))]
    for interval, tnc in contexts:
        for fmt in CRYSTAL_FORMATS:
            assert crystal_output(capsys, interval, tnc, fmt) == \
                crystal_data_form(interval, tnc, fmt), (interval, tnc, fmt)
    assert len(contexts) > 800


def test_a_swapped_edge_or_a_shifted_indent_is_caught(capsys, monkeypatch):
    # negative controls: the comparison with the data form must see either
    interval, tnc = Interval.finite(0, 2), TypeNC((2, 1), (0, 1))
    want = {fmt: crystal_data_form(interval, tnc, fmt) for fmt in CRYSTAL_FORMATS}
    edges_of = crystal.crystal_edges

    def swap_first(*args):  # one edge's from and to exchanged
        vertices, ((n, i, m), *rest) = edges_of(*args)
        return vertices, [(m, i, n), *rest]
    monkeypatch.setattr(crystal, "crystal_edges", swap_first)
    for fmt in CRYSTAL_FORMATS:
        assert crystal_output(capsys, interval, tnc, fmt) != want[fmt], fmt
    monkeypatch.setattr(crystal, "crystal_edges", edges_of)
    assert crystal_output(capsys, interval, tnc, "json") == want["json"]

    weight_items = cli._weight_items

    def shift_first(lo, vertices, inner):  # one vertex one space deeper
        return weight_items(lo, vertices[:1], inner + " ") + weight_items(lo, vertices[1:], inner)
    monkeypatch.setattr(cli, "_weight_items", shift_first)
    out = crystal_output(capsys, interval, tnc, "json")
    assert out != want["json"]
    assert json.loads(out) == json.loads(want["json"])  # only the bytes differ
