"""The finite Galois correspondence on the biquadratic field Q(sqrt2, sqrt3).

Builds the Klein four-group closure by hand, walks the field lattice,
and exercises parallelograms, the diagonal splitting, the ecartele
exchange laws and the inverse bijections R and S.

Run:  python demos/01_galois_correspondence.py
"""

import galtour.galois as gal
import galtour.permgroup as pg
from galtour.permgroup import Permutation as P

# The closure N = Q(sqrt2, sqrt3) has group C2 x C2: point pairs (1 2)
# swap +-sqrt3 and (3 4) swap +-sqrt2.
g = pg.generate(4, [P.from_cycles("(1 2)", 4), P.from_cycles("(3 4)", 4)])
names = {
    "Q": g.full_subgroup(),
    "Q(sqrt2)": g.generated_subgroup([g.index_of(P.from_cycles("(3 4)", 4))]),
    "Q(sqrt3)": g.generated_subgroup([g.index_of(P.from_cycles("(1 2)", 4))]),
    "Q(sqrt6)": g.generated_subgroup([g.index_of(P.from_cycles("(1 2)(3 4)", 4))]),
    "N": g.trivial_subgroup(),
}
ctx = gal.GaloisContext(g, distinguished=g.trivial_subgroup(), names=names)

print("fields of the closure, largest subgroup first:")
for ref in ctx.all_fields():
    print(f"  {ref.name:10s} degree {gal.degree(ctx, ref, ctx.base)} over Q, "
          f"Galois: {gal.is_galois(ctx, ref, ctx.base)}")

E = ctx.field_by_name("Q(sqrt2)")
F = ctx.field_by_name("Q(sqrt3)")
print("\ncompositum(Q(sqrt2), Q(sqrt3)) =", gal.compositum(ctx, E, F).name)
print("intersection(Q(sqrt2), Q(sqrt3)) =", gal.intersect_fields(ctx, E, F).name)

# the quadrilateral (Q, Q(sqrt2), N, Q(sqrt3)) is a Galois parallelogram
par = gal.Quadrilateral(ctx.base, E, ctx.top_closure, F)
print("\nparallelogram:", gal.is_parallelogram(ctx, par))
print("degree (N:K, K:J):", gal.parallelogram_degree(ctx, par))
print("diagonal splits as a direct product:", gal.diagonal_split_check(ctx, par))
print("ecartele laws for (E, F) = (K, L):",
      gal.ecartele_identities(ctx, E, F, E, F))

# R and S are inverse antitone bijections between sub- and quotient-quadrilaterals
subs = list(gal.sub_quadrilaterals(ctx, par))
quots = list(gal.quotient_quadrilaterals(ctx, par))
print(f"\n{len(subs)} sub-quadrilaterals, {len(quots)} quotient quadrilaterals")
round_trips = all(
    gal.bijection_S(ctx, par, gal.bijection_R(ctx, par, s)) == s for s in subs)
print("S(R(x)) = x for every sub-quadrilateral:", round_trips)

print("\nDOT lattice (pipe into graphviz):\n")
print(gal.to_dot(ctx))
