"""Coordinate-dependent weights: the slice-weighted infinite-height box.

Slice weights q_t = e^{-eps phi(t eps)} generalize the uniform measure.  The
leading coefficient becomes a double integral over the weight profile, the
eps^2 ln eps coefficient keeps its universal 1/(12ab) value, and the eps^2
coefficient assembles Euler-Maclaurin corrections around phi(b-a).  Exact
data fits confirm each of them.
"""
from hexdimer import ConstantPhi, CosinePhi, Scenario, fit, grid_samples

a, b = 2.0, 3.0
box = Scenario("sliced", a, b, phi=CosinePhi())
print(f"phi(z) = (2 + cos z)/3 on [-{a:g}, {b:g}], convention {box.convention}")

analytic = box.coefficients()
print("\nanalytic coefficients:")
print(f"  f0 = {analytic.f0:+.9f}   (double integral of -ln(1 - e^(-int phi)))")
print(f"  f1 = {analytic.f1:+.9f}")
print(f"  f2 = {analytic.f2:+.9f}   (= 1/(12ab))")
print(f"  f3 = {analytic.f3:+.9f}   (rescaled uniform box plus eps-jet sums at eps = 0)")

fitted = fit(grid_samples(box))
f0, f1, f2, f3 = fitted.coefficients[:4]
print("\nfitted on the exact grid 1/eps = 2..200:")
print(f"  f0 = {f0:+.9f}   12ab*f2 = {12 * a * b * f2:.9f}")
print(f"  f1 = {f1:+.9f}   f3      = {f3:+.9f}")

print("\nconstant phi recovers the uniform infinite-height box:")
const = Scenario("sliced", 1.0, 3.0, phi=ConstantPhi(1.0)).coefficients()
uniform = Scenario("infinite", 1.0, 3.0).coefficients()
print(f"  |f0 difference| = {abs(const.f0 - uniform.f0):.2e}")
print(f"  |f3 difference| = {abs(const.f3 - uniform.f3):.2e}")
