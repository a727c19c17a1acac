"""Small-rank quiver Hecke algebras, the nil-Hecke representation, and the
degenerate affine Hecke algebra.

Elements are integer combinations of normal-form words
1_i xi^a tau_w, where i is the left idempotent word, a the exponent vector,
and tau_w the product of crossings along the fixed canonical (lex-smallest)
reduced word of w.  Multiplication rewrites arbitrary crossing/dot
sequences back to this basis:

  * dots move left through crossings, each step paying the straightening
    correction with one crossing and one dot removed;
  * non-reduced words are funneled into a tau^2 at the first failure and
    collapsed; braid moves between reduced words of the same permutation
    contribute sign corrections with three crossings removed.

Every rewrite strictly reduces (#crossings, #dots-right-of-a-crossing,
distance-to-canonical), so the process terminates; associativity and the
defining relations are exercised by the test suite rather than assumed.

``KLRElem``, ``AHAElem`` and ``NilHeckePoly`` take +, -, scaling and
equality from ``laurent.Combination`` and are immutable by its contract:
every operation returns a new element.  That lets the generators
``xi(ctx, k)`` and ``tau(ctx, j)`` be built once per (ctx, index) and
shared, and lets each element cache two indexes of its terms on first use:
by right word (with the crossing word precomputed) and by left word (with
the right word precomputed).  ``klr_mul`` joins the right-word index of x
with the left-word index of y, so it rewrites only pairs of terms whose
idempotents match.  ``clear_caches`` empties every memo of this module.

A nil-Hecke polynomial is a ``Combination`` over its number of variables
m, as an affine Hecke element is one over its number of strands d, so
adding polynomials in different numbers of variables raises
``ContextMismatch``.  Code that fills a dict of terms in place adds
through ``laurent.add_into``, and the nil-Hecke rank check counts the
pivots of ``laurent.row_reduce``.

Budgets are hard caps: word counts grow like |I|^d * d! * (dot monomials),
so d and m stay small.
"""

from __future__ import annotations

from collections import deque
from itertools import product as iproduct

from .errors import BudgetExceeded, ContextMismatch, SuperklError
from .laurent import Combination, add_into, row_reduce

# ---------------------------------------------------------------------------
# permutations (0-based one-line tuples)


def perm_identity(d: int) -> tuple[int, ...]:
    return tuple(range(d))


def perm_compose(u, v):
    """(u o v)(k) = u(v(k))."""
    return tuple(u[vk] for vk in v)


def perm_inverse(u):
    out = [0] * len(u)
    for k, uk in enumerate(u):
        out[uk] = k
    return tuple(out)


def perm_length(u) -> int:
    d = len(u)
    return sum(1 for a in range(d) for b in range(a + 1, d) if u[a] > u[b])


def swap_values(u, j: int):
    """Left multiplication by s_j (generators are 1-based)."""
    return tuple(j if x == j - 1 else j - 1 if x == j else x for x in u)


def swap_positions(u, j: int):
    """Right multiplication by s_j: flip entries j-1 and j (j is 1-based).

    On a color word it is the action t_j that a crossing at j has.
    """
    out = list(u)
    out[j - 1], out[j] = out[j], out[j - 1]
    return tuple(out)


def perm_of_word(word, d: int):
    w = perm_identity(d)
    for j in reversed(word):
        w = swap_values(w, j)  # builds s_{j_1} o ... o s_{j_m}
    return w


_canon_cache: dict[tuple[int, ...], tuple[int, ...]] = {}


def canonical_word(w) -> tuple[int, ...]:
    """The lexicographically smallest reduced word of w."""
    cached = _canon_cache.get(w)
    if cached is not None:
        return cached
    word = []
    cur = w
    d = len(w)
    while True:
        pos = perm_inverse(cur)
        for j in range(1, d):
            if pos[j - 1] > pos[j]:
                word.append(j)
                cur = swap_values(cur, j)
                break
        else:
            break
    out = tuple(word)
    _canon_cache[w] = out
    return out


def act_word_on_colors(word, colors):
    """Push a color word left through the crossings of ``word``."""
    out = colors
    for j in reversed(word):
        out = swap_positions(out, j)
    return out


# ---------------------------------------------------------------------------
# reduced-word graph (for braid-move paths)

_rw_paths: dict[tuple, list] = {}


def _word_neighbors(word):
    """Words one elementary move away, with the move description."""
    out = []
    for m in range(len(word) - 1):
        a, b = word[m], word[m + 1]
        if abs(a - b) > 1:
            out.append((word[:m] + (b, a) + word[m + 2:], ("comm", m)))
    for m in range(len(word) - 2):
        a, b, c = word[m], word[m + 1], word[m + 2]
        if a == c and abs(a - b) == 1:
            out.append((word[:m] + (b, a, b) + word[m + 3:], ("braid", m)))
    return out


def _move_path(src, dst):
    """A sequence of elementary moves from src to dst (reduced words of one w)."""
    key = (src, dst)
    cached = _rw_paths.get(key)
    if cached is not None:
        return cached
    if src == dst:
        _rw_paths[key] = []
        return []
    seen = {src: None}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nxt, move in _word_neighbors(cur):
            if nxt not in seen:
                seen[nxt] = (cur, move)
                if nxt == dst:
                    path = []
                    back = dst
                    while seen[back] is not None:
                        prev, mv = seen[back]
                        path.append((prev, mv, back))
                        back = prev
                    path.reverse()
                    _rw_paths[key] = path
                    return path
                queue.append(nxt)
    raise RuntimeError("reduced words not connected; not a common permutation?")


def _qh7_coeff(j: int, colors) -> int:
    """Correction of the braid relation at strands j, j+1, j+2 (1-based)."""
    a, b, c = colors[j - 1], colors[j], colors[j + 1]
    if a == b - 1 and c == a:
        return 1
    if a == b + 1 and c == a:
        return -1
    return 0


# ---------------------------------------------------------------------------
# rewriting raw crossing/dot sequences to normal form

_norm_cache: dict[tuple, dict] = {}


def _normalize(symbols, jword):
    """Normal form of a raw sequence acting on right color word ``jword``.

    ``symbols`` is a tuple of ("x", k) and ("t", j) entries.  Returns a map
    {(a, w): coeff} with a the dot exponents and w the permutation whose
    canonical word carries the crossings.
    """
    key = (symbols, jword)
    cached = _norm_cache.get(key)
    if cached is not None:
        return cached

    out: dict[tuple, int] = {}

    def accumulate(res, scale):
        for term, c in res.items():
            add_into(out, term, scale * c)

    # move dots left of crossings (QH4)
    spot = None
    for m in range(len(symbols) - 1):
        if symbols[m][0] == "t" and symbols[m + 1][0] == "x":
            spot = m
            break
    if spot is not None:
        j = symbols[spot][1]
        k = symbols[spot + 1][1]
        tail = tuple(s[1] for s in symbols[spot + 2:] if s[0] == "t")
        local = act_word_on_colors(tail, jword)
        knew = j + 1 if k == j else j if k == j + 1 else k
        main = symbols[:spot] + (("x", knew), ("t", j)) + symbols[spot + 2:]
        accumulate(_normalize(main, jword), 1)
        if local[j - 1] == local[j] and k in (j, j + 1):
            corr = symbols[:spot] + symbols[spot + 2:]
            accumulate(_normalize(corr, jword), 1 if k == j + 1 else -1)
        _norm_cache[key] = out
        return out

    exps: dict[int, int] = {}
    word = []
    for s in symbols:
        if s[0] == "x":
            exps[s[1]] = exps.get(s[1], 0) + 1
        else:
            word.append(s[1])
    word = tuple(word)
    d = len(jword)
    a_vec = tuple(exps.get(k, 0) for k in range(1, d + 1))

    if perm_length(perm_of_word(word, d)) == len(word):
        w = perm_of_word(word, d)
        canon = canonical_word(w)
        if word == canon:
            out[(a_vec, w)] = 1
            _norm_cache[key] = out
            return out
        # reduced but not canonical: walk braid/commutation moves
        _, corrections = _walk_moves(word, canon, jword, suffix=())
        out[(a_vec, w)] = 1
        for coeff, corr_word in corrections:
            seq = _x_symbols(a_vec) + tuple(("t", j) for j in corr_word)
            accumulate(_normalize(seq, jword), coeff)
        _norm_cache[key] = out
        return out

    # non-reduced: find the first prefix that drops length, expose tau^2
    t = 1
    while perm_length(perm_of_word(word[: t + 1], d)) == t + 1:
        t += 1
    c_letter = word[t]
    prefix = word[:t]
    u = perm_of_word(prefix, d)
    # reduced word of u ending with c_letter
    target = canonical_word(swap_positions(u, c_letter)) + (c_letter,)
    suffix = word[t + 1:]
    _, corrections = _walk_moves(prefix, target, jword, suffix=(c_letter,) + suffix)
    # main term now carries tau_{c}^2 right after target[:-1]
    gamma = act_word_on_colors(suffix, jword)
    head = _x_symbols(a_vec) + tuple(("t", j) for j in target[:-1])
    tail_syms = tuple(("t", j) for j in suffix)
    cl, cr = gamma[c_letter - 1], gamma[c_letter]
    if cl == cr:
        pass  # tau^2 = 0
    elif cl == cr - 1:
        accumulate(_normalize(head + (("x", c_letter),) + tail_syms, jword), 1)
        accumulate(_normalize(head + (("x", c_letter + 1),) + tail_syms, jword), -1)
    elif cl == cr + 1:
        accumulate(_normalize(head + (("x", c_letter + 1),) + tail_syms, jword), 1)
        accumulate(_normalize(head + (("x", c_letter),) + tail_syms, jword), -1)
    else:
        accumulate(_normalize(head + tail_syms, jword), 1)
    for coeff, corr_word in corrections:
        seq = _x_symbols(a_vec) + tuple(("t", j) for j in corr_word + (c_letter,) + suffix)
        accumulate(_normalize(seq, jword), coeff)
    _norm_cache[key] = out
    return out


def _x_symbols(a_vec):
    syms = []
    for k, e in enumerate(a_vec, 1):
        syms.extend([("x", k)] * e)
    return tuple(syms)


def _walk_moves(src, dst, jword, suffix):
    """Transform src into dst by elementary moves, collecting corrections.

    Both are reduced words for the same permutation; ``suffix`` is the
    crossing word sitting to the right of the transformed segment.  Returns
    (dst, [(coeff, replacement_word_for_segment), ...]); each correction
    word still needs the caller's suffix appended.
    """
    corrections = []
    for cur, (kind, m), nxt in _move_path(src, dst):
        if kind == "comm":
            continue
        a = cur[m]
        b = cur[m + 1]
        gamma = act_word_on_colors(cur[m + 3:] + tuple(suffix), jword)
        if a == b + 1:
            # tau_{b+1} tau_b tau_{b+1} -> tau_b tau_{b+1} tau_b  (+ c)
            c = _qh7_coeff(b, gamma)
        else:
            # tau_a tau_{a+1} tau_a -> tau_{a+1} tau_a tau_{a+1}  (- c)
            c = -_qh7_coeff(a, gamma)
        if c:
            corrections.append((c, cur[:m] + cur[m + 3:]))
    return dst, corrections


# ---------------------------------------------------------------------------
# elements

MAX_D = 4
MAX_I = 4


class KLRContext:
    """The quiver Hecke algebra over colors I with d strands."""

    def __init__(self, colors, d: int):
        colors = tuple(sorted(set(colors)))
        if len(colors) > MAX_I or d > MAX_D:
            raise BudgetExceeded(f"budget is |I| <= {MAX_I}, d <= {MAX_D}")
        self.colors = colors
        self.d = d

    def __eq__(self, other):
        return (isinstance(other, KLRContext)
                and self.colors == other.colors and self.d == other.d)

    def __hash__(self):
        return hash((self.colors, self.d))

    def words(self):
        return iproduct(self.colors, repeat=self.d)


class KLRElem(Combination):
    """An integer combination of normal-form basis words; immutable by contract."""

    __slots__ = ("_by_right", "_by_left")
    _mismatch = "elements live in different algebras"

    def __init__(self, ctx: KLRContext, terms=None):
        self.space = (ctx,)
        self.terms: dict[tuple, int] = (
            {key: c for key, c in terms.items() if c} if terms else {})
        self._by_right = self._by_left = None

    ctx = property(lambda x: x.space[0])

    def _right_index(self) -> dict:
        """{right word: [(crossing symbols, a, coeff)]}, built on first use."""
        if self._by_right is None:
            index: dict[tuple, list] = {}
            for (i, a, w), c in self.terms.items():
                index.setdefault(right_word(i, w), []).append(
                    (tuple(("t", j) for j in canonical_word(w)), a, c))
            self._by_right = index
        return self._by_right

    def _left_index(self) -> dict:
        """{left word: [(dot and crossing symbols, right word, coeff)]}."""
        if self._by_left is None:
            index: dict[tuple, list] = {}
            for (i, a, w), c in self.terms.items():
                symbols = _x_symbols(a) + tuple(("t", j) for j in canonical_word(w))
                index.setdefault(i, []).append((symbols, right_word(i, w), c))
            self._by_left = index
        return self._by_left

    def __mul__(self, other):
        return klr_mul(self, other)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (iword, a, w), c in sorted(self.terms.items()):
            piece = f"e({','.join(map(str, iword))})"
            for k, e in enumerate(a, 1):
                if e:
                    piece += f" xi{k}^{e}" if e > 1 else f" xi{k}"
            word = canonical_word(w)
            if word:
                piece += " tau[" + ",".join(map(str, word)) + "]"
            bits.append(f"{c} * {piece}" if c != 1 else piece)
        return " + ".join(bits)


def idempotent(ctx: KLRContext, iword) -> KLRElem:
    iword = tuple(iword)
    zeros = (0,) * ctx.d
    return KLRElem(ctx, {(iword, zeros, perm_identity(ctx.d)): 1})


def identity_elem(ctx: KLRContext) -> KLRElem:
    out = KLRElem(ctx)
    zeros = (0,) * ctx.d
    ident = perm_identity(ctx.d)
    for w in ctx.words():
        out.terms[(tuple(w), zeros, ident)] = 1
    return out


_gen_cache: dict[tuple, KLRElem] = {}


def xi(ctx: KLRContext, k: int) -> KLRElem:
    """xi_k, built once per (ctx, k) and shared."""
    if not 1 <= k <= ctx.d:
        raise ValueError("dot index out of range")
    key = ("xi", ctx, k)
    out = _gen_cache.get(key)
    if out is None:
        a, ident = tuple(1 if t == k - 1 else 0 for t in range(ctx.d)), perm_identity(ctx.d)
        out = _gen_cache[key] = KLRElem(ctx, {(w, a, ident): 1 for w in ctx.words()})
    return out


def tau(ctx: KLRContext, j: int) -> KLRElem:
    """tau_j, built once per (ctx, j) and shared."""
    if not 1 <= j <= ctx.d - 1:
        raise ValueError("crossing index out of range")
    key = ("tau", ctx, j)
    out = _gen_cache.get(key)
    if out is None:
        zeros, w = (0,) * ctx.d, perm_of_word((j,), ctx.d)
        out = _gen_cache[key] = KLRElem(ctx, {(swap_positions(jw, j), zeros, w): 1
                                              for jw in ctx.words()})
    return out


def clear_caches():
    """Empty every memo of this module, as a fresh process would start."""
    for cache in (_norm_cache, _canon_cache, _rw_paths, _wx_cache, _gen_cache):
        cache.clear()


def right_word(iword, w):
    """The right idempotent word of 1_i tau_w."""
    return tuple(iword[w[k]] for k in range(len(w)))


def klr_mul(x: KLRElem, y: KLRElem) -> KLRElem:
    """x * y, rewriting only the pairs of terms whose idempotents match."""
    if x.space != y.space:
        raise ContextMismatch(x._mismatch)
    rights, lefts = x._right_index(), y._left_index()
    out = KLRElem(*x.space)
    terms = out.terms
    for mid in (rights if len(rights) <= len(lefts) else lefts):
        xs, ys = rights.get(mid), lefts.get(mid)
        if xs is None or ys is None:
            continue
        for sym1, a1, c1 in xs:
            for sym2, jword, c2 in ys:
                for (a, w), c in _normalize(sym1 + sym2, jword).items():
                    left = act_word_on_colors(canonical_word(w), jword)
                    tot = tuple(p + q for p, q in zip(a1, a))
                    add_into(terms, (left, tot, w), c1 * c2 * c)
    return out


CARTAN = {0: 2, 1: -1, -1: -1}


def cartan_pairing(i: int, j: int) -> int:
    return CARTAN.get(i - j, 0)


def klr_degree(x: KLRElem):
    """The common degree of a homogeneous element, else None."""
    deg = None
    for (iword, a, w), _ in x.terms.items():
        d = 2 * sum(a)
        colors = right_word(iword, w)
        for j in reversed(canonical_word(w)):
            d -= cartan_pairing(colors[j - 1], colors[j])
            colors = swap_positions(colors, j)
        if deg is None:
            deg = d
        elif deg != d:
            return None
    return 0 if deg is None else deg


def verify_relations(colors, d: int) -> dict:
    """Check every instance of the defining relations; returns a report.

    Each instance is checked as a difference of products that reduces to
    zero.  Within one idempotent 1_i, the products xi_k 1_i, tau_j 1_i and
    xi_k xi_l 1_i are formed once and read by every relation that needs
    them, and the idempotents are built once for the call.
    """
    if d < 1:
        raise SuperklError(f"d must be at least 1, got {d}")
    if len(set(colors)) > 4 or d > 3:
        raise BudgetExceeded("verify_relations budget is |I| <= 4, d <= 3")
    ctx = KLRContext(colors, d)
    failures = []
    checked = 0

    def expect_zero(tag, elem):
        nonlocal checked
        checked += 1
        if not elem.is_zero():
            failures.append((tag, repr(elem)))

    words = [tuple(w) for w in ctx.words()]
    idem = {w: idempotent(ctx, w) for w in words}
    ident, zero = identity_elem(ctx), KLRElem(ctx)
    dots, crossings = range(1, d + 1), range(1, d)
    xs = {k: xi(ctx, k) for k in dots}
    ts = {j: tau(ctx, j) for j in crossings}
    for iword in words:
        e_i = idem[iword]
        # QH2
        for jword in words:
            expect_zero(("QH2", iword, jword),
                        klr_mul(e_i, idem[jword]) - (e_i if iword == jword else zero))
        expect_zero(("QH2-unit", iword), klr_mul(ident, e_i) - e_i)
        xe = {k: klr_mul(xs[k], e_i) for k in dots}
        te = {j: klr_mul(ts[j], e_i) for j in crossings}
        # QH1
        xxe = {(k1, k2): klr_mul(xs[k1], xe[k2]) for k1 in dots for k2 in dots}
        for k1 in dots:
            expect_zero(("QH1-idem", iword, k1), xe[k1] - klr_mul(e_i, xs[k1]))
            for k2 in dots:
                expect_zero(("QH1", iword, k1, k2), xxe[k1, k2] - xxe[k2, k1])
        for j in crossings:
            tj = ts[j]
            # QH3
            expect_zero(("QH3", iword, j),
                        te[j] - klr_mul(idem[swap_positions(iword, j)], tj))
            # QH4
            for k in dots:
                tk = j + 1 if k == j else j if k == j + 1 else k
                lhs = klr_mul(tj, xe[k]) - klr_mul(xs[tk], te[j])
                if iword[j - 1] == iword[j] and k == j + 1:
                    rhs = e_i
                elif iword[j - 1] == iword[j] and k == j:
                    rhs = e_i.scale(-1)
                else:
                    rhs = zero
                expect_zero(("QH4", iword, j, k), lhs - rhs)
            # QH6
            ci, cj = iword[j - 1], iword[j]
            if ci == cj:
                rhs = zero
            elif ci == cj - 1:
                rhs = xe[j] - xe[j + 1]
            elif ci == cj + 1:
                rhs = xe[j + 1] - xe[j]
            else:
                rhs = e_i
            expect_zero(("QH6", iword, j), klr_mul(tj, te[j]) - rhs)
        # QH7, the braid relation; QH5 (distant crossings commute) needs
        # d >= 4, beyond this budget
        for j in range(1, d - 1):
            t1, t2 = ts[j], ts[j + 1]
            lhs = (klr_mul(t2, klr_mul(t1, te[j + 1]))
                   - klr_mul(t1, klr_mul(t2, te[j])))
            if iword[j - 1] == iword[j] - 1 and iword[j + 1] == iword[j - 1]:
                rhs = e_i
            elif iword[j - 1] == iword[j] + 1 and iword[j + 1] == iword[j - 1]:
                rhs = e_i.scale(-1)
            else:
                rhs = zero
            expect_zero(("QH7", iword, j), lhs - rhs)
    return {"colors": list(ctx.colors), "d": d,
            "checked": checked, "failures": failures,
            "ok": not failures}


# ---------------------------------------------------------------------------
# nil-Hecke: polynomial representation and the distinguished idempotent

class NilHeckePoly(Combination):
    """A polynomial in x_1..x_m with integer coefficients, terms {exps: coeff}."""

    __slots__ = ()
    _mismatch = "polynomials in different numbers of variables"

    def __init__(self, m: int, terms=None):
        self.space = (m,)
        self.terms: dict[tuple, int] = (
            {key: c for key, c in terms.items() if c} if terms else {})

    @classmethod
    def monomial(cls, exps, coeff=1):
        exps = tuple(exps)
        return cls(len(exps), {exps: coeff})

    @classmethod
    def constant(cls, m: int, c: int = 1):
        return cls(m, {(0,) * m: c})


def nilhecke_act(gen, p: NilHeckePoly) -> NilHeckePoly:
    """Apply a generator to a polynomial.

    ``gen`` is ("xi", k) for multiplication by x_k or ("tau", j) for the
    twisted divided difference (s_j p - p)/(x_j - x_{j+1}); the sign is the
    one forced by the straightening relations.
    """
    kind, idx = gen
    out = NilHeckePoly(*p.space)
    if kind == "xi":
        for exps, c in p.terms.items():
            e = list(exps)
            e[idx - 1] += 1
            out.terms[tuple(e)] = c
        return out
    if kind != "tau":
        raise ValueError(f"unknown generator {gen!r}")
    j = idx
    for exps, c in p.terms.items():
        u, v = exps[j - 1], exps[j]
        if u == v:
            continue
        base = list(exps)
        lo = min(u, v)
        base[j - 1] = base[j] = lo
        # (x^v y^u - x^u y^v)/(x - y) = -+ x^lo y^lo * (geometric sum)
        span = abs(u - v)
        sign = -c if u > v else c
        for t in range(span):
            e = list(base)
            e[j - 1] += t
            e[j] += span - 1 - t
            add_into(out.terms, tuple(e), sign)
    return out


def nilhecke_apply_elem(elem: KLRElem, p: NilHeckePoly) -> NilHeckePoly:
    """Apply a one-color KLR element through the polynomial representation."""
    out = NilHeckePoly(*p.space)
    for (_iword, a, w), c in elem.terms.items():
        cur = p
        for j in reversed(canonical_word(w)):
            cur = nilhecke_act(("tau", j), cur)
        for k, e in enumerate(a, 1):
            for _ in range(e):
                cur = nilhecke_act(("xi", k), cur)
        out = out + cur.scale(c)
    return out


def nilhecke_context(m: int) -> KLRContext:
    return KLRContext((0,), m)


def longest_element(d: int):
    return tuple(range(d - 1, -1, -1))


def b_idempotent(m: int) -> KLRElem:
    """The nil-Hecke idempotent tau_{w_0} xi_2 xi_3^2 ... xi_m^{m-1}.

    With the sign conventions of the straightening relations used here, the
    idempotent carries its dot exponents in increasing column order; it
    satisfies b_m * b_m = b_m, which the tests check through klr_mul.
    """
    if m < 1 or m > MAX_D:
        raise BudgetExceeded(f"budget is m <= {MAX_D}")
    ctx = nilhecke_context(m)
    iword = (0,) * m
    zeros = (0,) * m
    w0 = longest_element(m)
    out = KLRElem(ctx, {(iword, zeros, w0): 1})
    dots = KLRElem(ctx, {(iword, tuple(range(m)), perm_identity(m)): 1})
    return klr_mul(out, dots)


def _monomials_of_degree(m: int, t: int):
    if m == 1:
        yield (t,)
        return
    for head in range(t + 1):
        for rest in _monomials_of_degree(m - 1, t - head):
            yield (head,) + rest


def nilhecke_graded_rank_check(m: int, degree_cap: int) -> dict:
    """Compare graded ranks of the idempotent's image with the closed form.

    On polynomials graded with deg x_j = 2, the image of b_m has Hilbert
    series q^{m(m-1)} / prod_{k=1..m} (1 - q^{2k}); equivalently
    q^{m(m-1)/2} / [m]! times the series of the full polynomial module.
    Ranks are computed over exact rationals.  The comparison runs on the
    degrees <= degree_cap - m(m-1), where the truncation cannot interfere.
    """
    if m < 1:
        raise SuperklError(f"m must be at least 1, got {m}")
    if m > MAX_D:
        raise BudgetExceeded(f"budget is m <= {MAX_D}")
    if degree_cap < m * (m - 1):  # no degree would be compared
        raise SuperklError(f"degree_cap must be at least m(m-1) = {m * (m - 1)}, "
                           f"got {degree_cap}")
    # The claim is about right modules M b_m.  Polynomials form a left
    # module, so act by the transpose of b_m (words reversed; exact here
    # since equal-color braid moves have no correction): dots first.
    ctx = nilhecke_context(m)
    iword = (0,) * m
    dots = KLRElem(ctx, {(iword, tuple(range(m)), perm_identity(m)): 1})
    w0 = KLRElem(ctx, {(iword, (0,) * m, longest_element(m)): 1})
    b = klr_mul(dots, w0)
    # expected series q^{m(m-1)} * prod 1/(1 - q^{2k}), coefficients by degree
    exact_cap = degree_cap - m * (m - 1)
    series = {m * (m - 1): 1}
    for k in range(1, m + 1):
        new = {}
        for deg, c in series.items():
            t = 0
            while deg + 2 * k * t <= degree_cap:
                new[deg + 2 * k * t] = new.get(deg + 2 * k * t, 0) + c
                t += 1
        series = new
    degrees = [t for t in range(0, exact_cap + 1, 2)]
    computed = []
    expected = []
    for deg in degrees:
        monos = list(_monomials_of_degree(m, deg // 2))
        index = {mono: i for i, mono in enumerate(monos)}
        rows = []
        for mono in monos:
            img = nilhecke_apply_elem(b, NilHeckePoly.monomial(mono))
            rows.append({index[e]: c for e, c in img.terms.items()})
        computed.append(len(row_reduce(rows)))
        expected.append(series.get(deg, 0))
    return {"m": m, "degree_cap": degree_cap, "degrees": degrees,
            "computed": computed, "expected": expected,
            "ok": computed == expected}


# ---------------------------------------------------------------------------
# degenerate affine Hecke algebra

class AHAElem(Combination):
    """An element of AH_d in the basis {x^a w}."""

    __slots__ = ()
    _mismatch = "different numbers of strands"

    def __init__(self, d: int, terms=None):
        if d > MAX_D:
            raise BudgetExceeded(f"budget is d <= {MAX_D}")
        self.space = (d,)
        self.terms: dict[tuple, int] = (
            {key: c for key, c in terms.items() if c} if terms else {})

    d = property(lambda x: x.space[0])


def aha_one(d: int) -> AHAElem:
    return AHAElem(d, {((0,) * d, perm_identity(d)): 1})


def aha_x(d: int, k: int) -> AHAElem:
    a = tuple(1 if t == k - 1 else 0 for t in range(d))
    return AHAElem(d, {(a, perm_identity(d)): 1})


def aha_t(d: int, j: int) -> AHAElem:
    return AHAElem(d, {((0,) * d, perm_of_word((j,), d)): 1})


_wx_cache: dict[tuple, dict] = {}


def _w_times_x(w, k: int):
    """w x_k as a combination of x^b u with the (AH) straightening rule."""
    key = (w, k)
    cached = _wx_cache.get(key)
    if cached is not None:
        return cached
    d = len(w)
    ident = perm_identity(d)
    if w == ident:
        a = tuple(1 if t == k - 1 else 0 for t in range(d))
        out = {(a, ident): 1}
        _wx_cache[key] = out
        return out
    # peel the last letter of a reduced word: w = w' t_j
    j = next(jj for jj in range(1, d) if w[jj - 1] > w[jj])
    wp = swap_positions(w, j)
    kk = j + 1 if k == j else j if k == j + 1 else k
    # u -> u t_j is a bijection, so the keys stay distinct
    out = {(b, swap_positions(u, j)): c for (b, u), c in _w_times_x(wp, kk).items()}
    corr = 1 if k == j + 1 else -1 if k == j else 0
    if corr:
        add_into(out, ((0,) * d, wp), corr)
    _wx_cache[key] = out
    return out


def aha_mul(x: AHAElem, y: AHAElem) -> AHAElem:
    """Multiply in AH_d by straightening dots through crossings."""
    if x.space != y.space:
        raise ContextMismatch(x._mismatch)
    d = x.d
    out = AHAElem(d)
    for (a1, w1), c1 in x.terms.items():
        for (a2, w2), c2 in y.terms.items():
            # move x^{a2} left through w1 one variable at a time
            partial = {(a1, w1): c1 * c2}
            for k in range(1, d + 1):
                for _ in range(a2[k - 1]):
                    nxt: dict[tuple, int] = {}
                    for (a, w), c in partial.items():
                        for (b, u), cc in _w_times_x(w, k).items():
                            tot = tuple(p + q for p, q in zip(a, b))
                            add_into(nxt, (tot, u), c * cc)
                    partial = nxt
            for (a, w), c in partial.items():
                add_into(out.terms, (a, perm_compose(w, w2)), c)
    return out
