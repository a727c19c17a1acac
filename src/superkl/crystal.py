"""Crystal graph on the weight set, blocks, and the prinjective component.

The edges of color i at a weight come from the signature rule: label each
row '-' when its entries at columns (i, i+1) read (1, 0) and '+' when they
read (0, 1), then cancel +- pairs whenever the + row is above the - row
with only unlabeled rows between (a single top-to-bottom stack scan).  A
surviving '-' gives the f-edge at its lowest such row; a surviving '+'
gives the e-edge at its highest such row.

A label depends on one row only, so ``crystal_edges`` reads it from a
per-row table instead of from each weight, and builds no weight.  The
weights are the product of the ``row_choices``, numbered in
``enumerate_weights`` order, and ``_flip_steps`` holds, for each color,
row and choice, the label and the index step to the weight with that row
flipped; a weight's scan is then a loop over its rows with a '+' counter,
and an edge is (n, color, n + step), two weight indices.  A weight itself
is the tuple of its rows' texts, from one text table per row, so the CLI
renders each weight's text once and every edge from those texts.  The
component of kappa, ``_component``, follows the same tables from kappa's
row-choice digits, so the finite prinjective list is rendered from the
row texts too, and ``lambda_circ`` builds its weights from the digits.
``crystal_f`` and ``crystal_e`` stay the per-weight rule on ``Matrix01``,
which ``is_prinjective`` follows and the tests compare the tables with.

For infinite intervals the prinjective set is the nested union of the
components Lambda^o_r of the highest weights kappa^r of a tower of finite
windows I_1 c I_2 c ...  A half line grows one column per step toward its
open end, and Z grows alternately, left first, so each window is a closed
form in r.  Each component of a window's crystal has exactly one highest
weight (Kashiwara), which every weight of it reaches by e-edges and from
which f-edges reach the whole component: Lambda^o_r is the f-closure of
kappa^r, and a weight lies in it iff raising it by e-edges of the colors
of I_r ends at kappa^r.  The tower also carries the word and shift
bookkeeping attached to each enlargement step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import ContextMismatch, EmptyWeightSet, IntervalInfinite, SuperklError
from .qmodule import ModuleVec, divided_power_f
from .weights import (
    Interval,
    Matrix01,
    TypeNC,
    _row_text,
    column_counts,
    enumerate_weights,  # noqa: F401 (perfbench/tracing.py wraps crystal.enumerate_weights)
    in_Lambda_J,
    kappa,
    kappa_for_window,
    minimal_window,
    row_choices,
    weight_texts,
)


def _signature(lam: Matrix01, i: int):
    """Return (surviving minus rows, surviving plus rows), top to bottom."""
    minus_rows = []
    plus_stack = []
    for row, (devs, ci) in enumerate(zip(lam.devs, lam.tnc.c)):
        at_i = i in devs
        if at_i == (i + 1 in devs):  # equal entries at i and i + 1
            continue
        # entries (1, 0): the deviation is at i in a row of baseline 0, at i + 1
        # in a row of baseline 1
        if at_i != ci:
            if plus_stack:
                plus_stack.pop()
            else:
                minus_rows.append(row)
        else:
            plus_stack.append(row)
    return minus_rows, plus_stack


def crystal_f(lam: Matrix01, i: int) -> Matrix01 | None:
    """Follow the f-edge of color i, or None when there is none."""
    minus_rows, _ = _signature(lam, i)
    if not minus_rows:
        return None
    return lam.flip(minus_rows[-1], i)


def crystal_e(lam: Matrix01, i: int) -> Matrix01 | None:
    """Follow the e-edge of color i, or None when there is none."""
    _, plus_stack = _signature(lam, i)
    if not plus_stack:
        return None
    return lam.flip(plus_stack[0], i)


def same_block(lam: Matrix01, mu: Matrix01) -> bool:
    """Two weights of one context share a block iff their ``column_counts`` agree."""
    if lam.interval != mu.interval or lam.tnc != mu.tnc:
        raise ContextMismatch("weights live over different contexts")
    return column_counts(lam) == column_counts(mu)


def _component(per_row, start: tuple[int, ...], colors) -> set[tuple[int, ...]]:
    """The weights f-edges of the colors reach from start, start included.

    A weight is given by its row-choice digits: its rows' indices in
    ``per_row``, the ``row_choices`` of a finite context.  Each weight is
    scanned as in ``crystal_edges``, over the ``_flip_steps`` taken with
    stride 1, so the step of the lowest surviving '-' row is the change of
    that row's digit.  For a highest weight this is its whole component.
    """
    steps = _flip_steps(per_row, colors, [1] * len(per_row))
    seen = {start}
    stack = [start]
    while stack:
        at = stack.pop()
        for rows in steps:
            plus, lowest = 0, None
            for r, a in enumerate(at):
                s = rows[r][a]
                if s > 0:
                    plus += 1
                elif s:
                    if plus:
                        plus -= 1
                    else:
                        lowest = r, s
            if lowest:
                r, s = lowest
                nxt = at[:r] + (at[r] + s,) + at[r + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return seen


def _kappa_component(window: Interval, tnc: TypeNC):
    """The ``row_choices`` of a finite window and the ``_component`` of its kappa."""
    kap = kappa(window, tnc)
    per_row = row_choices(window, tnc)
    start = tuple(map(list.index, per_row, kap.devs))
    return per_row, _component(per_row, start, window.colors())


def _component_weights(interval: Interval, tnc: TypeNC, window: Interval) -> set[Matrix01]:
    """The component of kappa of the window under its colors, as weights over interval.

    An f-edge of a window color moves deviations only inside the window,
    so the component is the window's, read over the larger interval.
    """
    per_row, component = _kappa_component(window, tnc)
    return {Matrix01._trusted(interval, tnc, tuple(map(list.__getitem__, per_row, at)))
            for at in component}


def _top(lam: Matrix01, colors) -> Matrix01:
    """The highest weight of lam's component: e-edges of the colors until none applies."""
    raised = True
    while raised:
        raised = False
        for i in colors:
            nxt = crystal_e(lam, i)
            if nxt is not None:
                lam, raised = nxt, True
    return lam


def lambda_circ(interval: Interval, tnc: TypeNC) -> set[Matrix01]:
    """The crystal component of kappa over a finite interval."""
    if not interval.is_finite():
        raise IntervalInfinite("use a WindowTower over infinite intervals")
    return _component_weights(interval, tnc, interval)


def lambda_circ_texts(interval: Interval, tnc: TypeNC) -> list[str]:
    """The texts of ``lambda_circ``, sorted, from one text table per row: no weight is built."""
    if not interval.is_finite():
        raise IntervalInfinite("use a WindowTower over infinite intervals")
    per_row, component = _kappa_component(interval, tnc)
    texts = _choice_texts(interval, tnc, per_row)
    return sorted(weight_texts(interval.lo, (map(list.__getitem__, texts, at)
                                             for at in component)))


@dataclass(frozen=True)
class ShiftData:
    """Word and grading-shift bookkeeping for one window enlargement."""

    grew: str                      # "left" or "right"
    p: tuple[int, ...]             # p_1, ..., p_a
    a: int
    s: int
    eps: int                       # +1 when growing left, -1 when growing right
    word: tuple[int, ...]          # (s+eps*a)^{p_a} ... (s+eps*1)^{p_1}
    sigma: Fraction                # (1/2)(p_1 + ... + p_a), kept exact


class WindowTower:
    """Nested finite windows I_1 c I_2 c ... inside an infinite interval.

    I_1 = [a, b] is the minimal window of the interval (``minimal_window``
    with no deviations: |I_1+| >= 2 max(n), pinned at the closed end of a
    half line, starting at 0 over Z), and each step adds one column toward
    an unbounded side: a half line grows toward its open end, and Z grows
    alternately, left first.  So I_r = [a - floor(r/2), b + floor((r-1)/2)]
    over Z, [a, b + r - 1] over geq and [a - r + 1, b] over leq.  The tower
    holds no growth state: every window and shift is read off r, r >= 1.
    """

    def __init__(self, interval: Interval, tnc: TypeNC):
        if interval.is_finite():
            raise IntervalInfinite("a tower needs an infinite interval")
        self.interval = interval
        self.tnc = tnc
        self._first = minimal_window(interval, tnc, [])

    def window(self, r: int) -> Interval:
        """The r-th window I_r (1-based)."""
        if r < 1:
            raise ValueError(f"tower windows are numbered from 1, got {r}")
        a, b = self._first.lo, self._first.hi
        if self.interval.lo is not None:
            return Interval.finite(a, b + r - 1)
        if self.interval.hi is not None:
            return Interval.finite(a - r + 1, b)
        return Interval.finite(a - r // 2, b + (r - 1) // 2)

    def kappa_r(self, r: int) -> Matrix01:
        """kappa^r: the weight restricting to the highest weight of I_r."""
        return kappa_for_window(self.interval, self.tnc, self.window(r))

    def shift(self, r: int) -> ShiftData:
        """Shift data of the step I_r -> I_{r+1}."""
        prev, nxt = self.window(r), self.window(r + 1)
        if nxt.lo < prev.lo:
            # max(I_r) = max(I_{r+1}): rows of polarity 0 shift rightward
            grew, pol, s, eps = "left", 0, nxt.lo - 1, 1
        else:
            grew, pol, s, eps = "right", 1, nxt.hi + 1, -1
        ns = [n for n, c in zip(self.tnc.n, self.tnc.c) if c == pol]
        a = max(ns, default=0)
        p = tuple(sum(1 for n in ns if n >= j) for j in range(1, a + 1))
        word = []
        for k in range(a, 0, -1):
            word.extend([s + eps * k] * p[k - 1])
        sigma = Fraction(sum(p), 2)
        return ShiftData(grew, p, a, s, eps, tuple(word), sigma)

    def sigma_total(self, r: int) -> Fraction:
        """Sigma_r = sigma_1 + ... + sigma_{r-1}."""
        return sum((self.shift(k).sigma for k in range(1, r)), Fraction(0))

    def component_r(self, r: int) -> set[Matrix01]:
        """Lambda^o_r: the crystal component of kappa^r under colors of I_r."""
        return _component_weights(self.interval, self.tnc, self.window(r))

    def bandon_chain(self, r: int) -> ModuleVec:
        """Apply the divided-power chain of step r to v_{kappa^{r+1}}.

        The result equals v_{kappa^r}; tests assert it.
        """
        data = self.shift(r)
        v = ModuleVec.monomial(self.kappa_r(r + 1))
        for k in range(data.a, 0, -1):
            v = divided_power_f(data.s + data.eps * k, data.p[k - 1], v)
        return v


def is_prinjective(lam: Matrix01, tower: WindowTower, r_max: int):
    """Membership of lam in the prinjective set, budgeted at r_max windows.

    Returns the first r with lam in Lambda^o_r, or None when undecided
    within the budget (the nested union only grows, so no finite stage can
    rule membership out).  lam lies in Lambda^o_r iff its top under the
    colors of I_r is kappa^r; no component is built.
    """
    if lam.interval != tower.interval or lam.tnc != tower.tnc:
        raise ContextMismatch("weight does not match the tower")
    if r_max < 1:
        raise SuperklError(f"r_max must be at least 1, got {r_max}")
    top = lam
    for r in range(1, r_max + 1):
        window = tower.window(r)
        if in_Lambda_J(lam, window):
            # e-edges from lam stay in its component of every larger window,
            # so the top of the last window raises on to the top of this one
            top = _top(top, window.colors())
            if top == tower.kappa_r(r):
                return r
    return None


def _flip_steps(per_row, colors, strides=None) -> list[list[list[int]]]:
    """The signature labels of every row choice, with the index step of its flip.

    ``per_row`` is ``row_choices``.  Entry [k][r][a] is for color
    colors[k] and choice a of row r: 0 when the row has no label there,
    else the change of the weight's index when row r moves to the flipped
    choice, strides[r] per choice; the default strides are the
    ``enumerate_weights`` order's.  The choices of a row are sorted by
    bitstring, and a '-' row reads (1, 0) at (i, i + 1), so its flip lies
    below it: the step is negative for '-' and positive for '+'.
    """
    if strides is None:
        strides = [prod(map(len, per_row[r + 1:])) for r in range(len(per_row))]
    index = [{row: a for a, row in enumerate(choices)} for choices in per_row]
    steps = []
    for i in colors:
        pair = {i, i + 1}
        steps.append([
            [(at[tuple(sorted(pair.symmetric_difference(row)))] - a) * stride
             if (i in row) != (i + 1 in row) else 0
             for a, row in enumerate(choices)]
            for choices, at, stride in zip(per_row, index, strides)])
    return steps


def _choice_texts(interval: Interval, tnc: TypeNC, per_row) -> list[list[str]]:
    """Each row's ``row_choices`` as their row texts over a finite interval."""
    lo, hi = interval.lo, interval.hi + 1
    return [[_row_text(lo, hi, ci, row) for row in choices]
            for choices, ci in zip(per_row, tnc.c)]


def crystal_edges(interval: Interval, tnc: TypeNC):
    """All f-edges over a finite interval: the weights' rows and a list of (n, color, m).

    The weights are those of ``enumerate_weights``, in its order; weight n
    is given by its ``Matrix01.row_strings`` as a tuple, read off one text
    table per row, and an edge (n, i, m) joins weight n to weight m.  The
    signature rule of each weight is a top-to-bottom scan of its rows'
    ``_flip_steps``: a '+' is counted, a '-' cancels one counted '+' or,
    when none is left, becomes the lowest surviving '-' so far, whose step
    leads to m.  No weight is built.
    """
    if not interval.is_finite():
        raise IntervalInfinite("crystal enumeration requires a finite interval")
    per_row = row_choices(interval, tnc)
    if not all(per_row):
        raise EmptyWeightSet("no weights for this type")
    vertices = list(itertools.product(*_choice_texts(interval, tnc, per_row)))
    colors = interval.colors()
    by_color = list(zip(colors, _flip_steps(per_row, colors)))
    edges = []
    # the weight at index n has the digits of n as its row choice indices
    digits = itertools.product(*[range(len(choices)) for choices in per_row])
    for n, at in enumerate(digits):
        for i, rows in by_color:
            plus = step = 0
            for row, a in zip(rows, at):
                s = row[a]
                if s > 0:
                    plus += 1
                elif s:
                    if plus:
                        plus -= 1
                    else:
                        step = s
            if step:
                edges.append((n, i, n + step))
    return vertices, edges


def crystal_dot(interval: Interval, tnc: TypeNC) -> str:
    """Emit the crystal graph in DOT format."""
    vertices, edges = crystal_edges(interval, tnc)
    return dot_text(weight_texts(interval.lo, vertices), edges)


def dot_text(texts, edges) -> str:
    """The DOT text of a crystal: each weight's text, and edges that index them."""
    lines = ["digraph crystal {"]
    lines += [f'  "{text}";' for text in texts]
    lines += [f'  "{texts[n]}" -> "{texts[m]}" [label="{i}"];' for n, i, m in edges]
    lines.append("}")
    return "\n".join(lines)
