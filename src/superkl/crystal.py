"""Crystal graph on the weight set, blocks, and the prinjective component.

The edges of color i at a weight come from the signature rule: label each
row '-' when its entries at columns (i, i+1) read (1, 0) and '+' when they
read (0, 1), then cancel +- pairs whenever the + row is above the - row
with only unlabeled rows between (a single top-to-bottom stack scan).  A
surviving '-' gives the f-edge at its lowest such row; a surviving '+'
gives the e-edge at its highest such row.

A label depends on one row only, so ``crystal_edges`` reads it from a
per-row table instead of from each weight.  The weights are the product of
the ``row_choices``, and ``_flip_steps`` holds, for each color, row and
choice, the label and the index step to the weight with that row flipped;
a weight's scan is then a loop over its rows with a '+' counter, and the
f-target is the enumerated weight at the index plus the step.
``crystal_f`` and ``crystal_e`` stay the per-weight rule, which
``_component`` follows and the tests compare the table with.

For infinite intervals the prinjective set is the nested union of the
components of the highest weights of a tower of finite windows growing
toward the unbounded side(s); the tower also carries the word and shift
bookkeeping attached to each enlargement step.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import ContextMismatch, EmptyWeightSet, IntervalInfinite, SuperklError
from .qmodule import ModuleVec, divided_power_f
from .weights import (
    Interval,
    Matrix01,
    TypeNC,
    column_counts,
    enumerate_weights,
    in_Lambda_J,
    kappa,
    kappa_for_window,
    minimal_window,
    row_choices,
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


def _component(start: Matrix01, colors) -> set[Matrix01]:
    seen = {start}
    queue = deque([start])
    while queue:
        lam = queue.popleft()
        for i in colors:
            for step in (crystal_f, crystal_e):
                nxt = step(lam, i)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return seen


def lambda_circ(interval: Interval, tnc: TypeNC) -> set[Matrix01]:
    """The crystal component of kappa over a finite interval."""
    if not interval.is_finite():
        raise IntervalInfinite("use a WindowTower over infinite intervals")
    kap = kappa(interval, tnc)
    return _component(kap, list(interval.colors()))


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


SCHEDULES = ("default", "left", "right", "alternate_lr", "alternate_rl")


class WindowTower:
    """Nested finite windows I_1 c I_2 c ... inside an infinite interval.

    I_1 is the minimal window of the interval (``minimal_window`` with no
    deviations: |I_1+| >= 2 max(n), pinned at the closed end of a half
    line, starting at 0 over Z), and each step adds one column toward an
    unbounded side.  The growth schedule, one of ``SCHEDULES``, is a run
    parameter; the default alternates (starting leftward) over the whole
    line, and a half-infinite interval always grows toward its open end.
    """

    def __init__(self, interval: Interval, tnc: TypeNC, schedule: str = "default"):
        if interval.is_finite():
            raise IntervalInfinite("a tower needs an infinite interval")
        if schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {schedule!r}")
        self.interval = interval
        self.tnc = tnc
        if interval.lo is not None:
            self._dirs = "right"
        elif interval.hi is not None:
            self._dirs = "left"
        else:
            self._dirs = "alternate_lr" if schedule == "default" else schedule
        self._windows = [minimal_window(interval, tnc, [])]
        self._shifts: list[ShiftData] = []

    def _direction(self, r: int) -> str:
        if self._dirs == "alternate_lr":
            return "left" if r % 2 == 1 else "right"
        if self._dirs == "alternate_rl":
            return "right" if r % 2 == 1 else "left"
        return self._dirs

    def _grow(self):
        r = len(self._windows)
        prev = self._windows[-1]
        direction = self._direction(r)
        if direction == "left":
            nxt = Interval.finite(prev.lo - 1, prev.hi)
        else:
            nxt = Interval.finite(prev.lo, prev.hi + 1)
        if not nxt.issubset(self.interval):
            raise ValueError("window escaped the ambient interval")
        self._windows.append(nxt)
        self._shifts.append(self._shift_data(prev, nxt, direction))

    def _shift_data(self, prev: Interval, nxt: Interval, direction: str) -> ShiftData:
        if direction == "left":
            # max(I_r) = max(I_{r+1}): rows of polarity 0 shift rightward
            pol = 0
            s = nxt.lo - 1
            eps = 1
        else:
            pol = 1
            s = nxt.hi + 1
            eps = -1
        ns = [n for n, c in zip(self.tnc.n, self.tnc.c) if c == pol]
        a = max(ns, default=0)
        p = tuple(sum(1 for n in ns if n >= j) for j in range(1, a + 1))
        word = []
        for k in range(a, 0, -1):
            word.extend([s + eps * k] * p[k - 1])
        sigma = Fraction(sum(p), 2)
        return ShiftData(direction, p, a, s, eps, tuple(word), sigma)

    def window(self, r: int) -> Interval:
        """The r-th window I_r (1-based)."""
        while len(self._windows) < r:
            self._grow()
        return self._windows[r - 1]

    def kappa_r(self, r: int) -> Matrix01:
        """kappa^r: the weight restricting to the highest weight of I_r."""
        return kappa_for_window(self.interval, self.tnc, self.window(r))

    def shift(self, r: int) -> ShiftData:
        """Shift data of the step I_r -> I_{r+1}."""
        self.window(r + 1)
        return self._shifts[r - 1]

    def sigma_total(self, r: int) -> Fraction:
        """Sigma_r = sigma_1 + ... + sigma_{r-1}."""
        return sum((self.shift(k).sigma for k in range(1, r)), Fraction(0))

    def component_r(self, r: int) -> set[Matrix01]:
        """Lambda^o_r: the crystal component of kappa^r under colors of I_r."""
        window = self.window(r)
        return _component(self.kappa_r(r), list(window.colors()))

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
    rule membership out).
    """
    if lam.interval != tower.interval or lam.tnc != tower.tnc:
        raise ContextMismatch("weight does not match the tower")
    if r_max < 1:
        raise SuperklError(f"r_max must be at least 1, got {r_max}")
    for r in range(1, r_max + 1):
        if not in_Lambda_J(lam, tower.window(r)):
            continue
        if lam in tower.component_r(r):
            return r
    return None


def _flip_steps(per_row, colors) -> list[list[list[int]]]:
    """The signature labels of every row choice, with the index step of its flip.

    ``per_row`` is ``row_choices``.  Entry [k][r][a] is for color
    colors[k] and choice a of row r: 0 when the row has no label there,
    else the change of the weight's enumeration index when row r moves to
    the flipped choice.  The choices of a row are sorted by bitstring, and
    a '-' row reads (1, 0) at (i, i + 1), so its flip lies below it: the
    step is negative for '-' and positive for '+'.
    """
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


def crystal_edges(interval: Interval, tnc: TypeNC):
    """All f-edges over a finite interval: the weights and a list of (lam, color, mu).

    Both ends of every edge are instances of the returned ``weights``.  The
    signature rule of each weight is a top-to-bottom scan of its rows'
    ``_flip_steps``: a '+' is counted, a '-' cancels one counted '+' or,
    when none is left, becomes the lowest surviving '-' so far, whose step
    leads to mu.  No weight is built for an edge.
    """
    if not interval.is_finite():
        raise IntervalInfinite("crystal enumeration requires a finite interval")
    weights = enumerate_weights(interval, tnc)
    if not weights:
        raise EmptyWeightSet("no weights for this type")
    per_row = row_choices(interval, tnc)
    colors = interval.colors()
    by_color = list(zip(colors, _flip_steps(per_row, colors)))
    edges = []
    # the weight at index n has the digits of n as its row choice indices
    digits = itertools.product(*[range(len(choices)) for choices in per_row])
    for n, (lam, at) in enumerate(zip(weights, digits)):
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
                edges.append((lam, i, weights[n + step]))
    return weights, edges


def crystal_dot(interval: Interval, tnc: TypeNC) -> str:
    """Emit the crystal graph in DOT format."""
    return dot_text(*crystal_edges(interval, tnc))


def dot_text(weights, edges) -> str:
    """The DOT text of the vertices and edges returned by ``crystal_edges``."""
    lines = ["digraph crystal {"]
    for lam in weights:
        lines.append(f'  "{lam.text()}";')
    for lam, i, mu in edges:
        lines.append(f'  "{lam.text()}" -> "{mu.text()}" [label="{i}"];')
    lines.append("}")
    return "\n".join(lines)
