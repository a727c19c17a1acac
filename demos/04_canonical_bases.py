"""The bar involution and canonical bases, blockwise.

psi fixes level-1 monomials, commutes with every f_j and e_j, and is
antilinear; each b_lam is the unique psi-fixed vector of the shape
v_lam + (strictly positive q-combinations of higher monomials).  The
transition matrix D and its inverse give the two families of graded
decomposition polynomials.
"""

from superkl.canonical import (
    BlockTable, bar_psi, canonical_basis, canonical_basis_direct,
    dual_canonical, kl_d, kl_p, twisted_canonical,
)
from superkl.laurent import render
from superkl.qmodule import ModuleVec, form
from superkl.weights import Interval, TypeNC, koszul_dual

I = Interval.finite(0, 1)
t = TypeNC((2, 1), (0, 0))

table = BlockTable(I, t)
big = max(table.blocks, key=lambda b: b.size)
print(f"module has {sum(b.size for b in table.blocks)} monomials "
      f"in {len(table.blocks)} blocks; largest block:")
for m in big.members:
    print("  ", m.text())

print()
print("== psi on the top member of the largest block ==")
lam = big.members[0]
print(f"psi(v[{lam.text()}]) =", bar_psi(ModuleVec.monomial(lam)))

print()
print("== canonical basis of that block ==")
for m in big.members:
    print(f"  b[{m.text()}] =", canonical_basis(m))

print()
print("== d- and p-polynomials ==")
for a in big.members:
    row_d = [render(kl_d(a, b)) for b in big.members]
    row_p = [render(kl_p(a, b)) for b in big.members]
    print(f"  d[{a.text()}] = {row_d}   p = {row_p}")

print()
print("== independent check: generic linear solve gives the same basis ==")
print(all(canonical_basis_direct(m) == canonical_basis(m) for m in big.members))

print()
print("== dual and twisted bases pair correctly ==")
a, b = big.members[0], big.members[-1]
print("(b_a, b*_a) =", form(canonical_basis(a), dual_canonical(a)))
print("(b_a, b*_b) =", form(canonical_basis(a), dual_canonical(b)))
print("twisted b~ of", b.text(), "=", twisted_canonical(b))

print()
print("== Koszul duality: p_(lam,mu) is d_(T(mu),T(lam)) in the dual block ==")
lam, mu = big.members[0], big.members[-1]
print(f"T({lam.text()}) = {koszul_dual(lam).text()}")
print(f"p[{lam.text()}, {mu.text()}] = {render(kl_p(lam, mu))}   "
      f"d[T({mu.text()}), T({lam.text()})] = {render(kl_d(koszul_dual(mu), koszul_dual(lam)))}")
