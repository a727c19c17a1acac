"""Integral weights for the general linear Lie superalgebra.

A weight is a vector of m+n integers on the delta basis; the parity of the
k-th coordinate is inherited from the tensor-factor block it belongs to.
Every pairing goes through the signed form (delta_i, delta_j) =
(-1)^{p_i} delta_{ij}, implemented once in ``pair_delta``.

The dictionary to 01-matrices places the deviations of block row i at the
shifted coordinate values (lam + rho, delta_g) of that block; it requires
the strictly-decreasing dominance condition inside each block.
"""

from __future__ import annotations

from .errors import DuplicateCoordinate, NotDominant, TypeMismatch
from .weights import Interval, Matrix01, TypeNC, _set, _Value


def parities(tnc: TypeNC) -> tuple[int, ...]:
    out = []
    for ni, ci in zip(tnc.n, tnc.c):
        out.extend([ci] * ni)
    return tuple(out)


class SuperWeight(_Value):
    """An integral weight: coordinates on delta_1..delta_{m+n} plus its type."""

    coords: tuple[int, ...]
    tnc: TypeNC
    __slots__ = _fields = ("coords", "tnc")

    def __init__(self, coords: tuple[int, ...], tnc: TypeNC):
        if len(coords) != sum(tnc.n):
            raise ValueError("coordinate count must equal sum of n")
        _set(self, "coords", coords)
        _set(self, "tnc", tnc)

    @property
    def parity_pattern(self) -> tuple[int, ...]:
        return parities(self.tnc)

    def p_lambda(self) -> int:
        """sum of odd coordinates mod 2, the parity attached to the weight."""
        ps = self.parity_pattern
        return sum(c for c, p in zip(self.coords, ps) if p == 1) % 2

    def to_json(self) -> dict:
        return {"coords": list(self.coords),
                "type": {"n": list(self.tnc.n), "c": list(self.tnc.c)}}


def pair_delta(coords: tuple[int, ...], ps: tuple[int, ...], i: int) -> int:
    """(w, delta_i) for w with raw coordinates ``coords`` (0-based i)."""
    return coords[i] if ps[i] == 0 else -coords[i]


def _rho_coords(ps: tuple[int, ...]) -> list[int]:
    """The coordinates of rho for the parities ps, with one running sign sum."""
    coords = []
    run = 0  # sum_{i<j} (-1)^{p_i}
    for p in ps:
        coords.append(run - 1 if p else -run)
        run += -1 if p else 1
    return coords


def rho(tnc: TypeNC) -> SuperWeight:
    """The rho-shift: -sum_{i<j} (-1)^{p_i+p_j} delta_j - sum_{p_i=1} delta_i."""
    return SuperWeight(tuple(_rho_coords(parities(tnc))), tnc)


def _shifted(lam: SuperWeight, ps: tuple[int, ...]) -> list[int]:
    return [a + b for a, b in zip(lam.coords, _rho_coords(ps))]


def shifted(lam: SuperWeight) -> tuple[int, ...]:
    """Raw coordinates of lam + rho."""
    return tuple(_shifted(lam, parities(lam.tnc)))


_Z = Interval.all_z()  # the interval of every to_matrix01 weight


def to_matrix01(lam: SuperWeight) -> Matrix01:
    """The 01-matrix of a dominant weight over I = Z.

    Row i deviates from its baseline exactly at the columns
    (lam + rho, delta_g), g running over the block's coordinates.
    """
    ps = parities(lam.tnc)
    sh = _shifted(lam, ps)
    devs = []
    start = 0
    for ni in lam.tnc.n:
        stop = start + ni
        block = sh[start:stop]
        if any(a <= b for a, b in zip(block, block[1:])):
            raise NotDominant(
                f"coordinates {tuple(block)} not strictly decreasing "
                f"in block starting at {start}")
        cols = [pair_delta(sh, ps, g) for g in range(start, stop)]
        if len(set(cols)) != len(cols):
            raise DuplicateCoordinate(f"repeated shifted coordinate in block: {cols}")
        devs.append(tuple(sorted(cols)))
        start = stop
    return Matrix01(_Z, lam.tnc, tuple(devs))


def from_matrix01(mat: Matrix01) -> SuperWeight:
    """Invert the weight dictionary."""
    tnc = mat.tnc
    ps = parities(tnc)
    r = rho(tnc)
    coords = []
    g = 0
    for row, ci in zip(mat.devs, tnc.c):
        # raw shifted coordinates decrease along the block; the pairing
        # values therefore decrease for polarity 0 and increase for 1
        vals = sorted(row, reverse=(ci == 0))
        for v in vals:
            raw_shift = v if ps[g] == 0 else -v
            coords.append(raw_shift - r.coords[g])
            g += 1
    return SuperWeight(tuple(coords), tnc)


def _check_same_type(lam: SuperWeight, mu: SuperWeight):
    if lam.tnc != mu.tnc:
        raise TypeMismatch("weights have different types")


def bruhat_leq(lam: SuperWeight, mu: SuperWeight) -> bool:
    """The Bruhat order via signed counting of shifted coordinates."""
    _check_same_type(lam, mu)
    ps = lam.parity_pattern
    m = len(ps)
    sl = shifted(lam)
    sm = shifted(mu)
    vl = [pair_delta(sl, ps, i) for i in range(m)]
    vm = [pair_delta(sm, ps, i) for i in range(m)]
    hs = sorted(set(vl) | set(vm))
    for j in range(1, m + 1):
        for h in hs:
            a = sum((-1) ** ps[i] for i in range(j) if vl[i] <= h)
            b = sum((-1) ** ps[i] for i in range(j) if vm[i] <= h)
            if a < b:
                return False
            if j == m and a != b:
                return False
    return True


def dominance_super(lam: SuperWeight, mu: SuperWeight) -> bool:
    """True when lam - mu is an N-combination of the positive roots."""
    _check_same_type(lam, mu)
    diff = [a - b for a, b in zip(lam.coords, mu.coords)]
    if sum(diff) != 0:
        return False
    run = 0
    for d in diff:
        run += d
        if run < 0:
            return False
    return True


def linkage_up(lam: SuperWeight) -> list[SuperWeight]:
    """All mu directly below lam in the linkage relation.

    Even positive roots alpha with (lam+rho, alpha_check) > 0 contribute the
    dot-reflection s_alpha . lam (swap of the two shifted coordinates); odd
    positive roots beta with (lam+rho, beta) = 0 contribute lam - beta.
    """
    ps = lam.parity_pattern
    m = len(ps)
    sh = list(shifted(lam))
    out = []
    seen = set()
    for i in range(m):
        for j in range(i + 1, m):
            if ps[i] == ps[j]:
                # even root delta_i - delta_j: pairing with the coroot is
                # the difference of raw shifted coordinates
                if sh[i] - sh[j] > 0:
                    new = list(lam.coords)
                    new[i] -= sh[i] - sh[j]
                    new[j] += sh[i] - sh[j]
                    cand = tuple(new)
                    if cand not in seen:
                        seen.add(cand)
                        out.append(SuperWeight(cand, lam.tnc))
            else:
                # odd root: (lam+rho, delta_i - delta_j) = 0 iff the raw
                # shifted coordinates sum to zero
                if sh[i] + sh[j] == 0:
                    new = list(lam.coords)
                    new[i] -= 1
                    new[j] += 1
                    cand = tuple(new)
                    if cand not in seen:
                        seen.add(cand)
                        out.append(SuperWeight(cand, lam.tnc))
    return out
