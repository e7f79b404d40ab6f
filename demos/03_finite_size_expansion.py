"""Finite-size expansion of the free energy: f ~ f0 + f2 eps^2 ln eps + f3 eps^2.

Exact free energies on an integer 1/eps grid are compared with the
closed-form expansion; the leftover shrinks like eps^4.  The same data, fed
to the least-squares extractor, recovers the coefficients.
"""
from hexdimer import Scenario, fit, grid_samples, predict_free_energy, residual_slope
from hexdimer.fitting import BASIS_NAMES

a, b, c = 3.0, 2.0, 1.0
box = Scenario("finite", a, b, c)
coeffs = box.coefficients()
print(f"finite box (a,b,c) = ({a:g},{b:g},{c:g}), convention {box.convention}")
print(f"  f0 = {coeffs.f0:+.12f}")
print(f"  f1 = {coeffs.f1:+.12f}")
print(f"  f2 = {coeffs.f2:+.12f}   (equals -1/(24(ab+bc+ca)))")
print(f"  f3 = {coeffs.f3:+.12f}")

print("\nexact vs expansion:")
print(f"{'1/eps':>6} {'exact':>18} {'expansion':>18} {'residual':>12} {'resid/eps^4':>12}")
for t in (10, 20, 50, 100, 200):
    exact = box.free_energy(1.0 / t)
    approx = predict_free_energy(coeffs, 1.0 / t)
    r = exact - approx
    print(f"{t:>6} {exact:>18.12f} {approx:>18.12f} {r:>12.2e} {r * t**4:>12.4f}")

samples = grid_samples(box, 50, 200)
slope = residual_slope(samples, coeffs)
print(f"\nlog-log residual slope on 1/eps in [50, 200]: {slope:.3f}  (expect 4)")

full = fit(grid_samples(box, 2, 200))
print("\nleast-squares recovery from exact samples (grid 2..200):")
for name, fitted, analytic in zip(BASIS_NAMES, full.coefficients, coeffs):
    print(f"  {name:>14}: fitted {fitted:+.9f}   analytic {analytic:+.9f}")
