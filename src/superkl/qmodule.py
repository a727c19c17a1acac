"""The U_q(sl_I)-module of tensor products of quantum exterior powers.

Vectors are ``laurent.Combination``s: finitely supported maps from
01-matrix weights to Laurent polynomials.  The Chevalley actions come
straight from the tensor-product formulas: f_j flips a (1,0)-pattern in
columns (j, j+1) of some row i and contributes q to the power of the
pairing of the lower rows with the simple root, sum_{r>i} (lam_{rj} -
lam_{r,j+1}); e_j is the mirror image with exponent -sum_{r<i}.  One
function runs both.  All arithmetic is exact.
"""

from __future__ import annotations

from .errors import ColorOutsideInterval, ContextMismatch, NotDivisible
from .laurent import Combination, LaurentInt, div_exact, one, qfact, zero
from .weights import Interval, Matrix01, TypeNC


class ModuleVec(Combination):
    """A vector in the monomial basis of the module over (interval, tnc)."""

    __slots__ = ()
    _zero = zero
    _mismatch = "vectors live in different modules"

    def __init__(self, interval: Interval, tnc: TypeNC, terms=None):
        self.space = (interval, tnc)
        self.terms: dict[Matrix01, LaurentInt] = (
            {lam: c for lam, c in terms.items() if c} if terms else {})

    interval = property(lambda v: v.space[0])
    tnc = property(lambda v: v.space[1])

    @classmethod
    def monomial(cls, lam: Matrix01, coeff: LaurentInt = one) -> "ModuleVec":
        return cls(lam.interval, lam.tnc, {lam: coeff})

    def context(self):
        return self.space

    def coeff(self, lam: Matrix01) -> LaurentInt:
        return self.terms.get(lam, zero)

    def support(self):
        return list(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"({c}) v[{lam.text()}]" for lam, c in sorted(
            self.terms.items(), key=lambda kv: kv[0].text())]
        return " + ".join(bits)


def _check_color(j: int, interval: Interval):
    if j not in interval:
        raise ColorOutsideInterval(f"color {j} outside {interval.text()}")


def _col_pair(lam: Matrix01, i: int, j: int) -> tuple[int, int]:
    return lam.entry(i, j), lam.entry(i, j + 1)


def act_f(j: int, v: ModuleVec) -> ModuleVec:
    """Chevalley lowering operator f_j."""
    return _chevalley(j, v, (1, 0))


def act_e(j: int, v: ModuleVec) -> ModuleVec:
    """Chevalley raising operator e_j."""
    return _chevalley(j, v, (0, 1))


def _chevalley(j: int, v: ModuleVec, pattern: tuple[int, int]) -> ModuleVec:
    """f_j for pattern (1,0), e_j for (0,1), flipped in columns (j, j+1) of a row i.

    f_j pays q to the pairing of the rows below i with a_j, e_j pays q^-1
    to that of the rows above i.
    """
    _check_color(j, v.interval)
    out: dict[Matrix01, LaurentInt] = {}
    level = v.tnc.level
    lowering = pattern == (1, 0)
    for lam, c in v.terms.items():
        for i in range(level):
            if _col_pair(lam, i, j) != pattern:
                continue
            e = 0
            for r in (range(i + 1, level) if lowering else range(i)):
                e += lam.entry(r, j) - lam.entry(r, j + 1)
            target = lam.flip(i, j)
            n = out.get(target, zero) + c.shift(e if lowering else -e)
            if n:
                out[target] = n
            else:
                del out[target]
    res = ModuleVec(*v.space)
    res.terms = out
    return res


def pairing_alpha(lam: Matrix01, j: int) -> int:
    """The weight of v_lam paired with the simple root a_j."""
    return sum(lam.entry(i, j) - lam.entry(i, j + 1)
               for i in range(lam.tnc.level))


def act_k(j: int, sign: int, v: ModuleVec) -> ModuleVec:
    """The torus operator k_j (sign=+1) or its inverse (sign=-1)."""
    _check_color(j, v.interval)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    res = ModuleVec(v.interval, v.tnc)
    res.terms = {lam: c.shift(sign * pairing_alpha(lam, j))
                 for lam, c in v.terms.items()}
    return res


def act_f_star(j: int, v: ModuleVec) -> ModuleVec:
    """f_j^* = q e_j k_j, the form-adjoint of f_j."""
    return act_e(j, act_k(j, +1, v)).scale(LaurentInt.monomial(1))


def act_e_star(j: int, v: ModuleVec) -> ModuleVec:
    """e_j^* = q f_j k_j^{-1}, the form-adjoint of e_j."""
    return act_f(j, act_k(j, -1, v)).scale(LaurentInt.monomial(1))


def divided_power_f(j: int, r: int, v: ModuleVec) -> ModuleVec:
    """f_j^{(r)} = f_j^r / [r]!; the division must be exact."""
    return _divided(act_f, j, r, v)


def divided_power_e(j: int, r: int, v: ModuleVec) -> ModuleVec:
    return _divided(act_e, j, r, v)


def _divided(op, j: int, r: int, v: ModuleVec) -> ModuleVec:
    if r < 0:
        raise ValueError("divided power needs r >= 0")
    w = v
    for _ in range(r):
        w = op(j, w)
    fact = qfact(r)
    res = ModuleVec(v.interval, v.tnc)
    try:
        res.terms = {lam: div_exact(c, fact) for lam, c in w.terms.items()}
    except NotDivisible as exc:
        raise NotDivisible(
            f"f^{r} image not divisible by [{r}]!; "
            "vector is outside the integral form") from exc
    return res


def form(v: ModuleVec, w: ModuleVec) -> LaurentInt:
    """The symmetric bilinear form making the monomial basis orthonormal."""
    if v.context() != w.context():
        raise ContextMismatch("form requires a common module")
    small, big = (v, w) if len(v.terms) <= len(w.terms) else (w, v)
    total = zero
    for lam, c in small.terms.items():
        d = big.terms.get(lam)
        if d:
            total = total + c * d
    return total
