"""Tower calculus and the common-refinement construction.

Works inside the order-8 dihedral closure of Q(4rt2)/Q: builds two
Galois towers of the closure, refines them into equivalent towers with
the explicit index formulas, and shows the marche permutation.

Run:  python demos/02_towers_and_refinements.py
"""

import galtour.dissociation as dis
import galtour.galois as gal
import galtour.towers as tw
from galtour import presets

ctx = presets.load_instance("radical:a=2,n=4")
K, N = ctx.base, ctx.top_closure
s2 = ctx.field_by_name("Q(sqrt2)")
i4 = ctx.field_by_name("Q(zeta4)")
X = gal.compositum(ctx, i4, s2)  # Q(i, sqrt2), the degree-4 abelian subfield

t1 = tw.make_tower(ctx, [K, s2, N])
t2 = tw.make_tower(ctx, [K, i4, X, N])
print("tower 1:", t1.pretty())
print("tower 2:", t2.pretty())
print("both are Galois towers:", tw.is_galois_tower(t1), tw.is_galois_tower(t2))

# refinement predicates
f = tw.make_tower(ctx, [K, N])
print("\ntower 1 refines [K, N] with witness",
      tw.refinement_witness(t1, f))
print("proper refinement:", tw.is_proper_refinement(t1, f))
print("Galois refinement:", tw.is_galois_refinement(t1, f))

# strict associated tower of a padded tower
padded = tw.make_tower(ctx, [K, K, s2, s2, N])
print("\npadded tower:", padded.pretty())
print("strict associated:", tw.strict_associated(padded).pretty())

# the common refinement: heights 2 and 3 produce sigma = 1 3 5 2 4 6
r1, r2, w = dis.schreier_refine(t1, t2)
print("\nrefined 1:", r1.pretty())
print("refined 2:", r2.pretty())
print("marche permutation sigma:", w.sigma_one_line())
print("butterfly parallelograms all check:",
      dis.butterfly_parallelogram_check(t1, t2))

s1, s2b, ws = dis.schreier_refine_strict(t1, t2)
print("\nstrict refinements:", s1.pretty(), "|", s2b.pretty())
print("equivalent with sigma:", ws.sigma_one_line())
