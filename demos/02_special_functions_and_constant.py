"""The special functions behind the expansion, and the universal constant.

chi(z) = e^{-z}(z/(1-e^{-z}))^2 controls the resummed free energy; its second
derivative, re-expressed through xi(z) = e^z chi''(z) and the difference
quotient Q(z) = (xi(z) - xi(0))/z, produces a universal integral that enters
the eps^2 coefficient of every scenario; a Mellin transform gives it in closed
form, 1/4 + 2 zeta'(-1).
"""
import math

from hexdimer import chi, li, q_func, universal_constant_detail, zeta3

print("chi is even with chi(0) = 1 and a slow Taylor start:")
for z in (0.0, 0.1, 1.0, 5.0):
    print(f"  chi({z:>4}) = {chi(z):.12f}   chi(-{z}) - chi({z}) = {chi(-z) - chi(z):.1e}")
print(f"  Q(0)     = {q_func(0.0):+.12f}  (exactly xi'(0) = -1/6)")

print("\npolylogarithms assemble the leading coefficient f0 from Li_3(e^{-side}) and zeta(3):")
print(f"  Li_3(e^-1) = {li(3, math.exp(-1.0)):.12f}")
print(f"  zeta(3)    = {zeta3():.12f}  = Li_3(1), held as a literal")
print(f"  Li_1(0.5)  = {li(1, 0.5):.12f}  = ln 2 = {math.log(2):.12f}")

value, err = universal_constant_detail()
glaisher = 1.2824271291006226368753425688697917  # A, the Glaisher-Kinkelin constant
print("\nthe universal constant, int_0^inf e^{-z} Q(z) dz = 1/4 + 2 zeta'(-1):")
print(f"  value         = {value:.12f}")
print(f"  5/12 - 2 ln A = {5 / 12 - 2 * math.log(glaisher):.12f}  (the same closed form)")
print(f"  error bound   = {err:.2e}  (half an ulp)")
print("  (published reference: -0.080842)")
