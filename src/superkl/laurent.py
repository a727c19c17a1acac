"""Exact arithmetic: Z[q, q^-1], and finite combinations over one space.

A Laurent polynomial is stored as a dict {exponent: coefficient} with no
zero coefficients (canonical form), so equality is structural.  Coefficients
are Python ints, hence arbitrary precision.  Values are immutable: every
operation returns a fresh object.

``Combination`` is the same idea one level up: a dict {basis key:
coefficient} with no zero, tied to the space it lives in.  Module vectors
(``qmodule.ModuleVec``, Laurent coefficients), quiver Hecke and affine
Hecke elements (``klr.KLRElem``, ``klr.AHAElem``) and nil-Hecke polynomials
(``klr.NilHeckePoly``), all three with int coefficients, share its +, -,
scaling, equality and zero test.  ``add_into`` is the same zero-dropping
addition on a plain dict, for code that fills one in place.

``row_reduce`` is the one exact row reduction over Q: the nil-Hecke rank
check counts its pivots, and the canonical-basis oracle back-substitutes
through them.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ContextMismatch, NotDivisible


class LaurentInt:
    """An element of Z[q, q^-1]."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        self.coeffs = {e: c for e, c in coeffs.items() if c != 0}

    @classmethod
    def const(cls, n: int) -> "LaurentInt":
        return cls({0: n})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "LaurentInt":
        return cls({exp: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentInt.const(other)
        if not isinstance(other, LaurentInt):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentInt.const(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            n = out.get(e, 0) + c
            if n:
                out[e] = n
            else:
                out.pop(e, None)
        res = LaurentInt.__new__(LaurentInt)
        res.coeffs = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = LaurentInt.__new__(LaurentInt)
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentInt.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentInt()
            res = LaurentInt.__new__(LaurentInt)
            res.coeffs = {e: c * other for e, c in self.coeffs.items()}
            return res
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                n = out.get(e, 0) + c1 * c2
                if n:
                    out[e] = n
                else:
                    del out[e]
        res = LaurentInt.__new__(LaurentInt)
        res.coeffs = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of a general element not supported")
        result = one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentInt":
        """Multiply by q^k."""
        res = LaurentInt.__new__(LaurentInt)
        res.coeffs = {e + k: c for e, c in self.coeffs.items()}
        return res

    def bar(self) -> "LaurentInt":
        """The bar involution q -> q^-1."""
        res = LaurentInt.__new__(LaurentInt)
        res.coeffs = {-e: c for e, c in self.coeffs.items()}
        return res

    def subs_neg_q(self) -> "LaurentInt":
        """Substitute q -> -q."""
        res = LaurentInt.__new__(LaurentInt)
        res.coeffs = {e: (c if e % 2 == 0 else -c) for e, c in self.coeffs.items()}
        return res

    def is_bar_symmetric(self) -> bool:
        return all(self.coeffs.get(-e, 0) == c for e, c in self.coeffs.items())

    def coefficients_nonnegative(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def in_qZq(self) -> bool:
        """True if the element lies in qZ[q] (all exponents >= 1)."""
        return all(e >= 1 for e in self.coeffs)

    def in_Nq(self) -> bool:
        """True if the element lies in N[q]."""
        return all(e >= 0 and c >= 0 for e, c in self.coeffs.items())

    def min_exp(self) -> int:
        return min(self.coeffs)

    def max_exp(self) -> int:
        return max(self.coeffs)

    def __getitem__(self, exp: int) -> int:
        return self.coeffs.get(exp, 0)

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"LaurentInt({render(self)!r})"


zero = LaurentInt()
one = LaurentInt({0: 1})
q = LaurentInt({1: 1})
qinv = LaurentInt({-1: 1})


def bar(p: LaurentInt) -> LaurentInt:
    return p.bar()


def qint(m: int) -> LaurentInt:
    """The balanced quantum integer [m] = q^(m-1) + q^(m-3) + ... + q^(1-m)."""
    if m < 0:
        raise ValueError("qint requires m >= 0")
    return LaurentInt({m - 1 - 2 * i: 1 for i in range(m)})


def qfact(m: int) -> LaurentInt:
    """The quantum factorial [m]! = [m][m-1]...[1], with [0]! = 1."""
    if m < 0:
        raise ValueError("qfact requires m >= 0")
    out = one
    for k in range(2, m + 1):
        out = out * qint(k)
    return out


def div_exact(a: LaurentInt, b: LaurentInt) -> LaurentInt:
    """Exact quotient a / b in Z[q, q^-1].

    Raises NotDivisible when b is zero or does not divide a; a failed
    division signals a violated precondition upstream (e.g. a divided
    power applied to a vector outside the integral form).
    """
    if b.is_zero():
        raise NotDivisible("division by zero")
    if a.is_zero():
        return zero
    # Shift both into Z[q] and run ordinary long division over Z.
    sa, sb = a.min_exp(), b.min_exp()
    num = {e - sa: c for e, c in a.coeffs.items()}
    den = {e - sb: c for e, c in b.coeffs.items()}
    dden = max(den)
    lead = den[dden]
    quot: dict[int, int] = {}
    while num:
        dnum = max(num)
        if dnum < dden:
            raise NotDivisible(f"{render(a)} not divisible by {render(b)}")
        c, r = divmod(num[dnum], lead)
        if r != 0:
            raise NotDivisible(f"{render(a)} not divisible by {render(b)}")
        e = dnum - dden
        quot[e] = c
        for de, dc in den.items():
            k = de + e
            n = num.get(k, 0) - dc * c
            if n:
                num[k] = n
            else:
                num.pop(k, None)
    return LaurentInt(quot).shift(sa - sb)


def render(p: LaurentInt) -> str:
    """Text form with descending exponents, e.g. "3*q^2 + 1 + q^-2"."""
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.coeffs, reverse=True):
        c = p.coeffs[e]
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if e == 0:
            body = str(c)
        else:
            power = "q" if e == 1 else f"q^{e}"
            body = power if c == 1 else f"{c}*{power}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


class Combination:
    """A finite combination of basis keys with coefficients in one ring.

    ``terms`` maps each key to its coefficient and never holds a zero, so
    equality is structural and the empty dict is zero.  ``space`` is the
    tuple of a subclass's leading constructor arguments, so ``type(x)(*x.space)``
    is the zero of x's space; elements of different spaces never mix.  A
    subclass sets ``_zero``, its ring's zero, and ``_mismatch``, the message
    of the ``ContextMismatch`` that mixing raises.  Elements are immutable by
    contract: every operation returns a fresh element, and ``terms`` is
    written only on a fresh element before it is returned.  They are
    unhashable.
    """

    __slots__ = ("space", "terms")
    _zero = 0

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (type(other) is type(self) and self.space == other.space
                and self.terms == other.terms)

    def __add__(self, other):
        if self.space != other.space:
            raise ContextMismatch(self._mismatch)
        out = dict(self.terms)
        zero = self._zero
        for key, c in other.terms.items():
            n = out.get(key, zero) + c
            if n:
                out[key] = n
            else:
                del out[key]
        res = type(self)(*self.space)
        res.terms = out
        return res

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        """Every coefficient times c, an int or a ring element."""
        res = type(self)(*self.space)
        if c:
            res.terms = {key: v * c for key, v in self.terms.items()}
        return res


def add_into(terms: dict, key, c) -> None:
    """terms[key] += c in place, dropping the key when the sum is zero."""
    n = terms.get(key, 0) + c
    if n:
        terms[key] = n
    else:
        terms.pop(key, None)


def row_reduce(rows) -> list[tuple[int, dict[int, Fraction]]]:
    """Row echelon form over Q of sparse rows {column: int or Fraction}.

    Each row is cleared at the earlier pivots.  A row that is left nonzero
    pivots at its smallest column and is divided by that entry; rows that
    vanish are dropped.  Returns the (pivot column, rest of the row) pairs
    in the order the pivots were found, so the rank is their number.  The
    rest of a row holds only later columns, none of them an earlier pivot.
    """
    pivots: list[tuple[int, dict[int, Fraction]]] = []
    for row in rows:
        row = {k: Fraction(v) for k, v in row.items() if v}
        for pc, rest in pivots:
            c = row.pop(pc, None)
            if c is not None:
                for k, v in rest.items():
                    add_into(row, k, -c * v)
        if row:
            pc = min(row)
            c = row.pop(pc)
            pivots.append((pc, {k: v / c for k, v in row.items()}))
    return pivots
