"""
Evaluating the kernel K_{i tau}(x) by every route the package offers.
"""

from klbessel import (
    EvaluationPoint,
    OrderSpec,
    k_complex_order,
    k_itau_defseries,
    k_itau_keyformula,
    k_itau_oracle,
    k_itau_smallx,
    natural_scale,
)

## One point, four independent evaluators
p = EvaluationPoint(1.0, 1.0)
print("K_{i}(1):")
print("  contour oracle      ", k_itau_oracle(p))
print("  key formula, N = 0  ", k_itau_keyformula(p, 0))
print("  key formula, N = 4  ", k_itau_keyformula(p, 4))
print("  definitional series ", k_itau_defseries(p))

## Agreement across a grid, quoted against the natural magnitude scale
## sqrt(2 pi / tau) e^{-pi tau / 2} (the kernel underflows any fixed
## relative target as tau grows)
print("\nscaled spread of the evaluators:")
for x in (0.1, 1.0, 10.0):
    for tau in (0.5, 2.0, 10.0):
        q = EvaluationPoint(x, tau)
        values = [
            k_itau_oracle(q),
            k_itau_keyformula(q, 2),
            k_itau_defseries(q),
        ]
        spread = (max(values) - min(values)) / natural_scale(tau)
        print(f"  x = {x:5.1f}  tau = {tau:5.1f}  spread = {spread:.2e}")

## The kernel oscillates in tau: sign changes are real, not noise
print("\nsign changes along tau at x = 1:")
for tau in (5.0, 10.0, 20.0, 40.0):
    value = k_itau_oracle(EvaluationPoint(1.0, tau))
    print(f"  tau = {tau:5.1f}  K = {value: .6e}")

## Complex order mu + i tau; the imaginary-order kernel is the mu = 0 slice
z = k_complex_order(OrderSpec(1.0, 1.0), 1.0)
print("\nK_{1+i}(1) =", z)
print("Im K_{1+i}(1) recovers tau K_{i tau}(x) / x:",
      k_itau_oracle(EvaluationPoint(1.0, 1.0)))

## Near x = 0 the kernel is a cosine in log x with slowly varying amplitude
print("\nsmall-x series vs oracle at x = 0.04, tau = 2:")
print("  smallx ", k_itau_smallx(EvaluationPoint(0.04, 2.0)))
print("  oracle ", k_itau_oracle(EvaluationPoint(0.04, 2.0)))
