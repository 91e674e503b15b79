"""Line bundles on the device and the resultant toolkit.

The degree-n bundle is spanned inside R^2 by [x^n; z^n] and [y^n; w^n];
mixed columns reduce to that span by multiplying with (x+w)^n = 1.  The
idempotent presentation, the substitution sigma from homogeneous pairs,
and Sylvester resultants with Bezout extraction all live here.
"""

from jouanolou import (
    Fp,
    QQ,
    bezout_from_unit_resultant,
    mn_matrices,
    mu_product,
    normalize_section,
    resultant_identities,
    resultant_univ,
    sigma,
)
from jouanolou.bundle import expand_sections
from jouanolou.jring import RingElement
from jouanolou.textio import ring_str

print(__doc__)

ONE, ZERO = RingElement.one(QQ), RingElement.zero(QQ)

print("Reducing the mixed column [xy; zw] to the two spanning columns:")
s = normalize_section(2, [ZERO, ONE, ZERO])
sx, sw = expand_sections(2, s)[0]
print(f"  coefficients ({ring_str(s[0])}, {ring_str(s[1])})")
print(f"  expanded pair ({ring_str(sx)}, {ring_str(sw)})")

print()
print("Componentwise products multiply degrees:")
x_col, y_col = (ONE, ZERO), (ZERO, ONE)
prod = mu_product(x_col, 1, y_col, 1)
print(f"  [x;z] * [y;w] -> degree 2, coefficients "
      f"({ring_str(prod[0])}, {ring_str(prod[1])})")

print()
print("Idempotent presentations for n = 1, 2, 3 (x^n A + w^n B = 1):")
for n in (1, 2, 3):
    pair = mn_matrices(QQ, n)
    x, w = RingElement.gen_x(QQ), RingElement.gen_w(QQ)
    check = x**n * pair.A + w**n * pair.B
    print(f"  n={n}: A = {ring_str(pair.A)},  B = {ring_str(pair.B)},  "
          f"x^n A + w^n B = {ring_str(check)}")

print()
print("sigma can collapse different homogeneous pairs to one section pair")
print("while their resultants stay different:")
h1 = ([ZERO, ONE], [ONE, ZERO])                                  # (alpha, beta)
h2 = ([RingElement.gen_z(QQ), RingElement.gen_x(QQ)], [ONE, ZERO])  # (x alpha + z beta, beta)
e1, e2 = (expand_sections(1, *sigma(1, *h)) for h in (h1, h2))
print(f"  same sections: {e1 == e2}")
print(f"  res(alpha, beta) = {ring_str(resultant_univ(*h1, 1, 1))},  "
      f"res(x alpha + z beta, beta) = {ring_str(resultant_univ(*h2, 1, 1))}")

print()
print("Bezout extraction from a unit resultant: (X - 1) U + (X + 1) V = 1")
U, V = bezout_from_unit_resultant([-ONE, ONE], [ONE, ONE])
print(f"  U = {ring_str(U[0])},  V = {ring_str(V[0])}")

print()
print("The four resultant facts on a concrete monic pair over F_101:")
F = Fp(101)
one_f = RingElement.one(F)
A = [RingElement.from_scalar(F.elem(7)), RingElement.from_scalar(F.elem(3)), one_f]
B = [RingElement.from_scalar(F.elem(2)), RingElement.from_scalar(F.elem(5))]
report = resultant_identities(A, B, [one_f], F.elem(4))
print(f"  Bezout re-verifies: {report.bezout_ok}")
print(f"  reversal:     {report.reversal_lhs} == {report.reversal_rhs}")
print(f"  shift:        {report.shift_lhs} == {report.shift_rhs}")
print(f"  conservation: {report.conservation_lhs} == {report.conservation_rhs}")
print(f"  all hold: {report.all_hold}")
