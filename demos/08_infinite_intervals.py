"""Everything over an infinite interval runs through finite windows.

Defect and the d- and p-polynomials computed in any admissible window
agree with every enlargement; the library reads them in one window,
``stable_window`` (the minimal window covering every deviation), then
re-verifies d and p on one-column enlargements automatically.
"""

from superkl.canonical import kl_d, kl_d_stable, kl_p, kl_p_stable
from superkl.crystal import WindowTower, is_prinjective
from superkl.weights import (
    Interval, Matrix01, TypeNC, defect, defect_in_window, stable_window, truncate,
)

z = Interval.all_z()
t = TypeNC((2, 1), (0, 1))

lam = Matrix01(z, t, ((0, 3), (2,)))
print("lam =", lam.text())
window = stable_window(lam)
print("minimal admissible window:", window.text())
for pad in (0, 1, 2, 3):
    w = Interval.finite(window.lo - pad, window.hi + pad)
    print(f"  defect over {w.text():7} = {defect_in_window(lam, w)}")
print("defect(lam) =", defect(lam))

print()
print("== window-stable decomposition polynomials ==")
nu = Matrix01(z, t, ((0, 3), (0,)))
mu = Matrix01(z, t, ((1, 3), (1,)))
print("nu =", nu.text(), " mu =", mu.text())
pair_window = stable_window(nu, mu)
print("read in", pair_window.text())
print("kl_d_stable(nu, mu) =", kl_d_stable(nu, mu))
print("kl_p_stable(nu, mu) =", kl_p_stable(nu, mu))
for pad in (1, 3):
    w = Interval.finite(pair_window.lo - pad, pair_window.hi + pad)
    nw, mw = truncate(nu, w), truncate(mu, w)
    print(f"  recomputed over {w.text():8}: d = {kl_d(nw, mw)}, p = {kl_p(nw, mw)}")

print()
print("== prinjectivity through the window tower ==")
tower = WindowTower(z, t)
probes = [tower.kappa_r(1), lam, Matrix01(z, t, ((25, 26), (25,)))]
for probe in probes:
    r = is_prinjective(probe, tower, r_max=6)
    verdict = f"in the component at r={r}" if r else "unknown at this budget"
    print(f"  {probe.text():16} -> {verdict}")

print()
print("half-infinite intervals pin their towers at the closed end:")
up = WindowTower(Interval.half_up(0), t)
print("  geq:0 windows:", ", ".join(up.window(r).text() for r in (1, 2, 3)))
