"""Intervals, types, 01-matrix weights, orders, defect and truncation.

A weight is an l-row 01-matrix whose row i agrees with the baseline value
c_i outside a finite set of columns.  We store only the deviations: for
each row, the sorted tuple of columns where the entry differs from c_i.
This makes window normalization automatic; two weights are equal iff their
deviation data agree.

Columns are indexed by I_+ = I u (I+1).  Row entries are read through
``entry(lam, i, j)``; the raw 01-value at (i, j) never depends on how the
window was chosen.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import (
    DegreeMismatch,
    DeviationOutsideWindow,
    EmptyWeightSet,
    IntervalInfinite,
    TypeMismatch,
)


@dataclass(frozen=True)
class Interval:
    """A nonempty integer interval; lo/hi of None mean unbounded."""

    lo: int | None
    hi: int | None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @classmethod
    def finite(cls, lo: int, hi: int) -> "Interval":
        return cls(lo, hi)

    @classmethod
    def half_up(cls, lo: int) -> "Interval":
        return cls(lo, None)

    @classmethod
    def half_down(cls, hi: int) -> "Interval":
        return cls(None, hi)

    @classmethod
    def all_z(cls) -> "Interval":
        return cls(None, None)

    def is_finite(self) -> bool:
        return self.lo is not None and self.hi is not None

    def __contains__(self, j: int) -> bool:
        if self.lo is not None and j < self.lo:
            return False
        if self.hi is not None and j > self.hi:
            return False
        return True

    def contains_col(self, j: int) -> bool:
        """Membership in I_+ = I u (I+1)."""
        return (j in self) or (j - 1 in self)

    def colors(self) -> range:
        """The colors (simple-root indices) of a finite interval."""
        if not self.is_finite():
            raise IntervalInfinite("infinite interval has infinitely many colors")
        return range(self.lo, self.hi + 1)

    def cols(self) -> range:
        """The columns I_+ of a finite interval."""
        if not self.is_finite():
            raise IntervalInfinite("infinite interval has infinitely many columns")
        return range(self.lo, self.hi + 2)

    def n_cols(self) -> int:
        return len(self.cols())

    def issubset(self, other: "Interval") -> bool:
        lo_ok = other.lo is None or (self.lo is not None and self.lo >= other.lo)
        hi_ok = other.hi is None or (self.hi is not None and self.hi <= other.hi)
        return lo_ok and hi_ok

    def text(self) -> str:
        if self.is_finite():
            return f"{self.lo}:{self.hi}"
        if self.lo is not None:
            return f"geq:{self.lo}"
        if self.hi is not None:
            return f"leq:{self.hi}"
        return "z"

    @classmethod
    def parse(cls, text: str) -> "Interval":
        text = text.strip()
        if text == "z":
            return cls.all_z()
        if text.startswith("geq:"):
            return cls.half_up(int(text[4:]))
        if text.startswith("leq:"):
            return cls.half_down(int(text[4:]))
        lo, hi = text.split(":")
        return cls.finite(int(lo), int(hi))


@dataclass(frozen=True)
class TypeNC:
    """A type: exterior-power degrees n and polarities c, one per tensor factor."""

    n: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        if len(self.n) != len(self.c):
            raise ValueError("n and c must have equal length")
        if any(ni < 0 for ni in self.n):
            raise ValueError("n entries must be nonnegative")
        if any(ci not in (0, 1) for ci in self.c):
            raise ValueError("c entries must be 0 or 1")

    @property
    def level(self) -> int:
        return len(self.n)

    def max_n(self) -> int:
        return max(self.n, default=0)

    def reversed(self) -> "TypeNC":
        return TypeNC(self.n[::-1], self.c[::-1])


@lru_cache(maxsize=4096)
def _row_text(lo: int, hi: int, ci: int, row: tuple[int, ...]) -> str:
    """One row over columns lo..hi: baseline ci, flipped at the deviations.

    A pure function of its arguments, so the memo, keyed by their values,
    can only hand back the text those values give: no earlier run can
    change an answer through it.  It is bounded, and the rows of one
    context over one window are few.
    """
    chars = [str(ci)] * (hi - lo + 1)
    for j in row:
        chars[j - lo] = str(1 - ci)
    return "".join(chars)


@dataclass(frozen=True)
class Matrix01:
    """A 01-matrix weight, stored by its per-row deviation columns."""

    interval: Interval
    tnc: TypeNC
    devs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.devs) != self.tnc.level:
            raise ValueError("one deviation tuple per row required")
        for i, (row, ni) in enumerate(zip(self.devs, self.tnc.n)):
            if tuple(sorted(set(row))) != row:
                raise ValueError(f"row {i} deviations must be sorted and distinct")
            if len(row) != ni:
                raise ValueError(
                    f"row {i} has {len(row)} deviations, expected n_{i+1} = {ni}"
                )
            for j in row:
                if not self.interval.contains_col(j):
                    raise ValueError(f"deviation column {j} outside I_+")

    @classmethod
    def _trusted(cls, interval: Interval, tnc: TypeNC, devs) -> "Matrix01":
        """A weight built without the checks of ``__post_init__``.

        Only for callers whose ``devs`` are valid by construction.  The
        fields are set one by one, as the dataclass ``__init__`` does, which
        keeps the instance dict as small as a checked weight's.
        """
        lam = object.__new__(cls)
        object.__setattr__(lam, "interval", interval)
        object.__setattr__(lam, "tnc", tnc)
        object.__setattr__(lam, "devs", devs)
        return lam

    def entry(self, i: int, j: int) -> int:
        """The 01-entry of row i (0-based) at column j in I_+."""
        ci = self.tnc.c[i]
        return (1 - ci) if j in self.devs[i] else ci

    def flip(self, i: int, j: int) -> "Matrix01":
        """Swap the entries of row i at columns j and j+1, which must differ.

        Only the moved deviation is checked; every other one is this
        weight's, valid already.
        """
        row = self.devs[i]
        if (j in row) == (j + 1 in row):
            raise ValueError(f"row {i} has equal entries at columns {j} and {j + 1}")
        moved = j + 1 if j in row else j
        if not self.interval.contains_col(moved):
            raise ValueError(f"deviation column {moved} outside I_+")
        new = list(self.devs)
        new[i] = tuple(sorted(set(row) ^ {j, j + 1}))
        return Matrix01._trusted(self.interval, self.tnc, tuple(new))

    def all_dev_cols(self) -> list[int]:
        return sorted({j for row in self.devs for j in row})

    def window(self) -> tuple[int, int]:
        """Column range rendered in text/JSON output.

        Finite intervals render over all of I_+; infinite ones over the
        minimal window that contains every deviation (a single column
        when there are none).
        """
        iv = self.interval
        if iv.is_finite():
            return iv.lo, iv.hi + 1
        devcols = self.all_dev_cols()
        if not devcols:
            anchor = iv.lo if iv.lo is not None else 0
            return anchor, anchor
        return devcols[0], devcols[-1]

    def __hash__(self) -> int:
        """The hash of ``devs`` alone, not of the interval and type too.

        Equal weights have equal ``devs``, so they hash equal; weights of
        other contexts with the same ``devs`` share the hash but compare
        unequal, so a set or dict keeps them apart.
        """
        return hash(self.devs)

    def text(self) -> str:
        """The text form ``@lo:row/row/...``, rendered once per instance.

        The memo sits in the instance dict under ``_text``, so equality
        and hashing still read the fields alone.  Two threads that render
        one weight at once both store the same string, so it needs no lock.
        """
        text = self.__dict__.get("_text")
        if text is None:
            data = self.to_json()
            text = self.__dict__["_text"] = f"@{data['window_start']}:" + "/".join(data["rows"])
        return text

    def row_strings(self) -> list[str]:
        return self.to_json()["rows"]

    def to_json(self) -> dict:
        lo, hi = self.window()
        return {"window_start": lo,
                "rows": [_row_text(lo, hi, ci, row) for ci, row in zip(self.tnc.c, self.devs)]}

    def __str__(self):
        return self.text()


def koszul_dual(lam: Matrix01) -> Matrix01:
    """T(lam): the l x N 01-matrix of lam, columns reversed, then transposed.

    The N x l result is read as a weight of level N over 0:(l-2), every
    row of polarity 0, so its type n' is its row sums: the column sums of
    lam, right to left.  T maps lam's block onto one block of that dual
    context, and p_{lam,mu}(q) = d_{T(mu),T(lam)}(q) (Koszul duality).
    Twice applied, T turns the 01-matrix by 180 degrees.
    """
    if not lam.interval.is_finite():
        raise IntervalInfinite("the Koszul dual requires a finite interval")
    level = lam.tnc.level
    if level < 2:
        raise ValueError(f"the Koszul dual requires level >= 2, got {level}")
    cols = lam.interval.cols()
    top = cols[-1]
    rows: list[list[int]] = [[] for _ in cols]  # row k of T(lam) is column top - k
    for i, (row, ci) in enumerate(zip(lam.devs, lam.tnc.c)):
        for j in (row if ci == 0 else [j for j in cols if j not in row]):
            rows[top - j].append(i)
    return Matrix01._trusted(Interval.finite(0, level - 2),
                             TypeNC(tuple(map(len, rows)), (0,) * len(rows)),
                             tuple(map(tuple, rows)))


def koszul_dual_inverse(nu: Matrix01, interval: Interval, tnc: TypeNC) -> Matrix01:
    """The weight lam of the context (interval, tnc) with koszul_dual(lam) = nu."""
    cols = interval.cols()
    if len(nu.devs) != len(cols) or (nu.interval.lo, nu.interval.hi) != (0, tnc.level - 2):
        raise TypeMismatch(f"{nu.text()} is not the Koszul dual of a weight over "
                           f"{interval.text()} at level {tnc.level}")
    ones: list[list[int]] = [[] for _ in tnc.c]  # ones[i]: the 1-columns of row i
    for j, row in zip(cols, reversed(nu.devs)):
        for i in row:
            ones[i].append(j)
    devs = tuple(tuple(r) if ci == 0 else tuple(j for j in cols if j not in r)
                 for r, ci in zip(ones, tnc.c))
    # the rows come out sorted and inside I_+; only their lengths can be wrong
    if tuple(map(len, devs)) != tnc.n:
        raise TypeMismatch(f"{nu.text()} is not the Koszul dual of a weight of type "
                           f"n = {tnc.n}, c = {tnc.c}")
    return Matrix01._trusted(interval, tnc, devs)


def parse_matrix(text: str, interval: Interval, tnc: TypeNC) -> Matrix01:
    """Parse the text form ``@start:rows`` (or bare rows for finite I).

    Over a finite interval a bare row spans exactly I_+, and a windowed
    row lies inside I_+ (its missing columns read as the baseline).
    """
    text = text.strip()
    bare = not text.startswith("@")
    if bare:
        if not interval.is_finite():
            raise ValueError("bare row form needs a finite interval")
        start = interval.cols()[0]
        body = text
    else:
        head, _, body = text[1:].partition(":")
        start = int(head)
    rows = body.split("/") if body else []
    if len(rows) != tnc.level:
        raise ValueError(f"expected {tnc.level} rows, got {len(rows)}")
    cols = interval.cols() if interval.is_finite() else None
    devs = []
    for i, row in enumerate(rows):
        if not set(row) <= {"0", "1"}:
            raise ValueError(f"row {i} must contain only 0 and 1, got {row!r}")
        if cols is not None and (
                start < cols[0] or start + len(row) > cols[-1] + 1
                or (bare and len(row) != len(cols))):
            raise ValueError(
                f"row {i} covers columns {start}..{start + len(row) - 1}, "
                f"but I_+ of {interval.text()} is {cols[0]}..{cols[-1]}")
        ci = str(tnc.c[i])
        devs.append(tuple(start + k for k, ch in enumerate(row) if ch != ci))
    return Matrix01(interval, tnc, tuple(devs))


class WeightPI(dict):
    """A weight in the sl_I lattice: finitely supported map i -> coefficient of w_i."""

    def __init__(self, data=None):
        super().__init__()
        if data:
            for k, v in data.items():
                if v:
                    self[k] = v

    def __hash__(self):  # type: ignore[override]
        return hash(tuple(sorted(self.items())))

    def add_into(self, i: int, c: int) -> None:
        n = self.get(i, 0) + c
        if n:
            self[i] = n
        else:
            self.pop(i, None)

    def minus(self, other: "WeightPI") -> "WeightPI":
        out = WeightPI(self)
        for k, v in other.items():
            out.add_into(k, -v)
        return out

    def to_json(self) -> dict:
        return {str(k): v for k, v in sorted(self.items())}


def alpha(i: int, interval: Interval) -> WeightPI:
    """The simple root a_i = 2 w_i - w_(i-1) - w_(i+1), dropping w outside I."""
    out = WeightPI()
    if i in interval:
        out.add_into(i, 2)
    if i - 1 in interval:
        out.add_into(i - 1, -1)
    if i + 1 in interval:
        out.add_into(i + 1, -1)
    return out


def row_choices(interval: Interval, tnc: TypeNC) -> list[list[tuple[int, ...]]]:
    """Each row's deviation tuples over a finite interval, by 01-bitstring over I_+.

    Row i has C(|I_+|, n_i) choices, none when n_i > |I_+|.  The weights
    are their product in this order, so the weight at index n of
    ``enumerate_weights`` has the mixed-radix digits of n, the last row
    varying fastest, as its per-row choice indices.
    """
    if not interval.is_finite():
        raise IntervalInfinite("enumeration requires a finite interval")
    per_row = []
    for ni, ci in zip(tnc.n, tnc.c):
        # the first column where two choices' bitstrings differ is in the one
        # that comes first as a sorted tuple: with 1 at a deviation (polarity
        # 0) its bitstring is the larger, with 0 there (polarity 1) the smaller
        choices = list(itertools.combinations(interval.cols(), ni))
        per_row.append(choices if ci else choices[::-1])
    return per_row


def enumerate_weights(interval: Interval, tnc: TypeNC) -> list[Matrix01]:
    """All weights over a finite interval: the product of the ``row_choices``.

    The count is prod_i C(|I_+|, n_i); the set is empty when some
    n_i > |I_+|.
    """
    # sorted combinations of I_+, n_i per row: valid by construction
    return [Matrix01._trusted(interval, tnc, combo)
            for combo in itertools.product(*row_choices(interval, tnc))]


def weight_count(interval: Interval, tnc: TypeNC) -> int:
    z = interval.n_cols()
    total = 1
    for ni in tnc.n:
        total *= comb(z, ni)
    return total


def kappa(interval: Interval, tnc: TypeNC) -> Matrix01:
    """The order-maximal weight: all 1-entries left-justified in each row."""
    if not interval.is_finite():
        raise IntervalInfinite("kappa requires a finite interval")
    cols = list(interval.cols())
    z = len(cols)
    devs = []
    for ni, ci in zip(tnc.n, tnc.c):
        if ni > z:
            raise EmptyWeightSet(f"n = {ni} exceeds |I_+| = {z}")
        if ci == 0:
            devs.append(tuple(cols[:ni]))  # leading 1s
        else:
            devs.append(tuple(cols[z - ni:]))  # trailing 0s
    return Matrix01(interval, tnc, tuple(devs))


def kappa_for_window(interval: Interval, tnc: TypeNC, window: Interval) -> Matrix01:
    """The weight of Lambda over ``interval`` whose restriction to ``window`` is kappa."""
    kw = kappa(window, tnc)
    return Matrix01(interval, tnc, kw.devs)


def column_counts(lam: Matrix01) -> dict[int, int]:
    """The signed deviation count per column, zeros dropped.

    A row of baseline 0 counts +1 at each deviation (a 1-entry), a row of
    baseline 1 counts -1 (a 0-entry).  Two weights of one context have the
    same sl_I weight, so lie in one block, iff their counts agree.
    """
    out: dict[int, int] = {}
    for row, ci in zip(lam.devs, lam.tnc.c):
        sign = 1 if ci == 0 else -1
        for j in row:
            out[j] = out.get(j, 0) + sign
    return {j: v for j, v in out.items() if v}


def weight_of(lam: Matrix01) -> WeightPI:
    """The sl_I-weight of a monomial, as a w-coefficient map.

    Each 1-entry contributes eps_j = w_j - w_(j-1) with w dropped outside I.
    Rows of baseline 1 are handled through their deviations: the all-ones
    row has weight zero in every interval, so such a row contributes
    -eps_j for each deviation column j, so the weight is sum_j v_j eps_j
    over the ``column_counts`` v, ``counts_weight``.
    """
    return counts_weight(column_counts(lam), lam.interval)


def counts_weight(counts: dict[int, int], interval: Interval) -> WeightPI:
    """sum_j v_j eps_j over the column counts v, eps_j = w_j - w_(j-1) inside I."""
    out = WeightPI()
    for j, v in counts.items():
        if j in interval:
            out.add_into(j, v)
        if j - 1 in interval:
            out.add_into(j - 1, -v)
    return out


def dominance_leq(beta_eps: dict[int, int], gamma_eps: dict[int, int],
                  interval: Interval) -> bool:
    """Test gamma <= beta in dominance order via the prefix-sum criterion.

    Both weights are given in eps-coordinates (column -> coefficient) and
    must have equal total degree.  The prefix sums are step functions, so
    each constancy segment that meets I is tested once.
    """
    if sum(beta_eps.values()) != sum(gamma_eps.values()):
        raise DegreeMismatch("total eps-degrees differ")
    hs = sorted(set(beta_eps) | set(gamma_eps))
    b = g = 0
    for idx, h in enumerate(hs):
        b += beta_eps.get(h, 0)
        g += gamma_eps.get(h, 0)
        # the sums are constant on [h, next jump - 1]; test the segment
        # only when it meets I
        end = hs[idx + 1] - 1 if idx + 1 < len(hs) else None  # None = +inf
        if interval.hi is not None and h > interval.hi:
            continue
        if interval.lo is not None and end is not None and end < interval.lo:
            continue
        if b < g:
            return False
    return True


def profile_grid(weights) -> list[int]:
    """The sorted union of the deviation columns of some weights."""
    return sorted({j for lam in weights for row in lam.devs for j in row})


def signed_profile(lam: Matrix01, grid) -> list[tuple[int, ...]]:
    """The signed prefix counts of lam: entry [k-1][t] is

        sum_{i<=k} (-1)^{c_i} #{deviations of row i at columns <= grid[t]}.

    The matrix order and the truncation ideals read it from here.  A
    block's order table, ``canonical._packed_profiles``, packs the same
    counts into one int per member, and tests check it against this.
    """
    profile = []
    acc = [0] * len(grid)
    for row, ci in zip(lam.devs, lam.tnc.c):
        sign = 1 if ci == 0 else -1
        acc = [a + sign * bisect_right(row, h) for a, h in zip(acc, grid)]
        profile.append(tuple(acc))
    return profile


def profile_leq(lam_profile, mu_profile) -> bool:
    """The (TP1) rule on two profiles over one grid: last row equal, the rest >=."""
    return lam_profile[-1:] == mu_profile[-1:] and all(
        a >= b for ra, rb in zip(lam_profile[:-1], mu_profile[:-1])
        for a, b in zip(ra, rb))


def order_leq(lam: Matrix01, mu: Matrix01) -> bool:
    """The (TP1) order on Lambda: ``profile_leq`` on the signed profiles.

    The profiles are step functions of the column, so comparing them at
    the union of the two weights' deviation columns decides the order.
    """
    if lam.interval != mu.interval or lam.tnc != mu.tnc:
        raise TypeMismatch("weights live over different contexts")
    grid = profile_grid((lam, mu))
    return profile_leq(signed_profile(lam, grid), signed_profile(mu, grid))


def order_lt(lam: Matrix01, mu: Matrix01) -> bool:
    return lam != mu and order_leq(lam, mu)


def defect(lam: Matrix01) -> int:
    """def(lam) = (1/2) sum_j (k_j^2 - l_j^2) over a large-enough window.

    k_j and l_j count the 1-entries in column j of kappa and of lam.  For
    infinite intervals the window must satisfy |J_+| >= 2 max(n) and
    contain every deviation; the result does not depend on the choice.
    """
    return defect_in_window(lam, stable_window(lam))


def stable_window(*lams: Matrix01) -> Interval:
    """The window every infinite-interval answer is read in.

    The interval itself when it is finite; otherwise the minimal window
    covering the deviation columns of all the given weights.
    """
    iv = lams[0].interval
    if iv.is_finite():
        return iv
    cols = sorted({j for lam in lams for j in lam.all_dev_cols()})
    return minimal_window(iv, lams[0].tnc, cols)


def defect_in_window(lam: Matrix01, window: Interval) -> int:
    kap = kappa(window, lam.tnc)
    cols = window.cols()
    total = 0
    for j in cols:
        kj = sum(kap.entry(i, j) for i in range(lam.tnc.level))
        lj = sum(lam.entry(i, j) for i in range(lam.tnc.level))
        total += kj * kj - lj * lj
    if total % 2:
        raise ValueError("defect is not an integer; window too small?")
    return total // 2


def minimal_window(interval: Interval, tnc: TypeNC,
                   dev_cols: list[int]) -> Interval:
    """A smallest finite window J in I with |J_+| >= 2 max(n) covering dev_cols.

    Deterministic: when padding is needed it is added on the right first,
    falling back to the left at the upper end of a bounded interval.
    """
    width = max(2, 2 * tnc.max_n())  # required |J_+|; J = [a, b] has b - a + 2 columns
    if dev_cols:
        a = dev_cols[0]
        b = max(dev_cols[-1] - 1, a)
    else:
        if interval.lo is not None:
            a = interval.lo
        elif interval.hi is not None:
            a = interval.hi
        else:
            a = 0
        b = a
    if interval.hi is not None and b > interval.hi:
        b = interval.hi  # every deviation is in the top column hi + 1, so a > b
    while b - a + 2 < width:
        if interval.hi is None or b < interval.hi:
            b += 1
        elif interval.lo is None or a > interval.lo:
            a -= 1
        else:
            raise ValueError("interval too small for the required window")
    return Interval.finite(a, b)


def in_Lambda_J(lam: Matrix01, window: Interval) -> bool:
    """True when every deviation of lam lies inside J_+."""
    return all(window.contains_col(j) for row in lam.devs for j in row)


def _ineq_values(lam: Matrix01, window: Interval) -> list[int]:
    """The truncation inequalities, read off the signed profile.

    Membership in Lambda_{<=J} needs every value to be >= 0.  The values
    are the prefix counts at h < min(J) and, at h > max(J), the prefix
    count minus the row total, that is minus the suffix count.  Both are
    step functions of h with tails 0, so the columns between the
    outermost deviation and J give every value.
    """
    devcols = lam.all_dev_cols()
    if not devcols:
        return []
    lo_hs = list(range(devcols[0], window.lo))
    hi_hs = list(range(window.hi + 1, devcols[-1] + 1))
    profile = signed_profile(lam, lo_hs + hi_hs + devcols[-1:])
    cut = len(lo_hs)
    return ([v for row in profile for v in row[:cut]]
            + [v - row[-1] for row in profile for v in row[cut:-1]])


def in_leq_J(lam: Matrix01, window: Interval) -> bool:
    """Membership in the ideal Lambda_{<=J}: no ``_ineq_values`` entry < 0."""
    return all(v >= 0 for v in _ineq_values(lam, window))


def in_lt_J(lam: Matrix01, window: Interval) -> bool:
    """Membership in Lambda_{<J}: in Lambda_{<=J} with some strict inequality."""
    values = _ineq_values(lam, window)
    return all(v >= 0 for v in values) and any(values)


def truncate(lam: Matrix01, window: Interval) -> Matrix01:
    """Restrict lam to a finite window J; requires all deviations in J_+."""
    if not window.issubset(lam.interval):
        raise ValueError("window is not a subinterval")
    if not in_Lambda_J(lam, window):
        raise DeviationOutsideWindow(f"{lam.text()} has deviations outside {window.text()}")
    return Matrix01(window, lam.tnc, lam.devs)


def embed(lam: Matrix01, interval: Interval) -> Matrix01:
    """Reinterpret a windowed weight over a larger interval."""
    if not lam.interval.issubset(interval):
        raise ValueError("target interval must contain the window")
    return Matrix01(interval, lam.tnc, lam.devs)


def equivalent_type(tnc: TypeNC, interval: Interval, flips) -> TypeNC:
    """Flip polarity c_i -> 1 - c_i and n_i -> |I_+| - n_i on selected rows.

    The flipped type indexes the same set of 01-matrices.
    """
    flips = set(flips)
    if flips and not interval.is_finite():
        raise IntervalInfinite("type flips require a finite interval")
    z = interval.n_cols() if interval.is_finite() else None
    n = list(tnc.n)
    c = list(tnc.c)
    for i in flips:
        n[i] = z - n[i]
        c[i] = 1 - c[i]
    return TypeNC(tuple(n), tuple(c))


def convert_to_type(lam: Matrix01, tnc: TypeNC) -> Matrix01:
    """Re-express the same 01-matrix relative to an equivalent type."""
    if tnc == lam.tnc:
        return lam
    if not lam.interval.is_finite():
        raise IntervalInfinite("type conversion requires a finite interval")
    cols = lam.interval.cols()
    devs = []
    for i, ci in enumerate(tnc.c):
        devs.append(tuple(j for j in cols if lam.entry(i, j) != ci))
    return Matrix01(lam.interval, tnc, tuple(devs))
