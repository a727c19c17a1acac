"""Small quiver Hecke algebras: rewriting, gradings, the nil-Hecke corner.

Elements are sums of e(i) xi^a tau_w in normal form; products are
rewritten back to the basis, paying the straightening corrections.  The
one-color corner is a nil-Hecke algebra acting faithfully on polynomials
by twisted divided differences, where the distinguished idempotent
projects onto a summand of graded rank q^{m(m-1)/2}/[m]!.
"""

from superkl.klr import (
    KLRContext, KLRElem, aha_mul, aha_one, aha_t, aha_x, b_idempotent,
    idempotent, klr_degree, klr_mul, nilhecke_act, nilhecke_graded_rank_check,
    NilHeckePoly, tau, verify_relations, xi,
)

print("== defining relations hold after rewriting ==")
for colors, d in (((0,), 2), ((0, 1), 3)):
    report = verify_relations(colors, d)
    print(f"  colors {colors}, d={d}: {report['checked']} instances,"
          f" ok={report['ok']}")

ctx = KLRContext((0, 1), 2)
e01 = idempotent(ctx, (0, 1))
t1 = tau(ctx, 1)
print()
print("tau_1 e(0,1)        =", klr_mul(t1, e01))
print("tau_1^2 e(0,1)      =", klr_mul(t1, klr_mul(t1, e01)), "   (adjacent colors)")
print("degree of tau e(0,1):", klr_degree(klr_mul(t1, e01)))
print("degree of xi_1      :", klr_degree(xi(ctx, 1)))

print()
print("== the nil-Hecke idempotent ==")
for m in (2, 3):
    b = b_idempotent(m)
    print(f"b_{m} = {b}")
    print(f"   b_{m}^2 == b_{m}:", klr_mul(b, b) == b)

print()
print("== twisted divided difference action ==")
p = NilHeckePoly.monomial((2, 0))          # x_1^2
print("tau_1 . x_1^2 =", nilhecke_act(("tau", 1), p).terms)

print()
print("== graded rank of the idempotent image ==")
rep = nilhecke_graded_rank_check(2, 10)
print(f"m=2, cap=10: computed {rep['computed']} expected {rep['expected']}"
      f" ok={rep['ok']}")

print()
print("== degenerate affine Hecke algebra ==")
d = 3
lhs = aha_mul(aha_t(d, 1), aha_x(d, 2)) - aha_mul(aha_x(d, 1), aha_t(d, 1))
print("t_1 x_2 - x_1 t_1 =", lhs.terms, " (the unit)")
braid = aha_mul(aha_t(d, 1), aha_mul(aha_t(d, 2), aha_t(d, 1)))
print("t1 t2 t1 == t2 t1 t2:",
      braid == aha_mul(aha_t(d, 2), aha_mul(aha_t(d, 1), aha_t(d, 2))))
