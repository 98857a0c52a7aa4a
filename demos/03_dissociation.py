"""Dissociating finite extensions: M(L/K), composition and elevation towers.

The running example is Q(6rt2)/Q, the classic separable extension with
no Galois tower: it dissociates through its intourability field Q(sqrt2)
into a galtourable quotient and a galsimple non-Galois top.  The oracle
re-derives every verdict by brute force.

Run:  python demos/03_dissociation.py
"""

import galtour.dissociation as dis
import galtour.oracle as orc
import galtour.towers as tw
from galtour import presets

ctx = presets.load_instance("radical:a=2,n=6")
L, K = ctx.distinguished, ctx.base

print("extension:", L.name, "over", K.name)
print("galtourable:", dis.is_galtourable(ctx, L, K))
print("oracle agrees:", orc.bf_galtourable(ctx, L, K))

rep = dis.intourability_field(ctx, L, K)
print("\nintourability field M(L/K):", rep.M.name)
print("tourability degree:", tuple(rep.degrees))
print("sub-extension kind:", rep.sub_kind)
print("witness tower for M/K:", rep.witness_tower.pretty())
M_bf, count = orc.bf_intourability(ctx, L, K)
print("oracle: unique M =", M_bf.name, "count =", count)

# the general composition tower goes through M(L/K)
comp = dis.composition_tower_general(ctx, L, K)
print("\ncomposition tower:", comp.pretty())
print("is_composition_tower:", dis.is_composition_tower(ctx, comp))

# elevation tower of a naive tower through Q(3rt2)
naive = tw.make_tower(ctx, [K, ctx.field_by_name("Q(3rt2)"), L])
mtower, induced = dis.elevation_tower(ctx, naive)
print("\nnaive tower:   ", naive.pretty())
print("elevation:     ", mtower.pretty())
print("induced to L:  ", induced.pretty())

# galtourable case for contrast: Q(4rt2)/Q
ctx4 = presets.load_instance("radical:a=2,n=4")
L4 = ctx4.distinguished
print("\nQ(4rt2)/Q galtourable:", dis.is_galtourable(ctx4, L4, ctx4.base))
print("witness:", dis.galois_tower_witness(ctx4, L4, ctx4.base).pretty())
print("composition:", dis.composition_tower_galois(ctx4, L4, ctx4.base).pretty())

# a simple non-Galois family: the splitting of X^5 - X - 1
ss5 = presets.load_instance("selmer-serre:n=5")
rep5 = dis.intourability_field(ss5, ss5.distinguished, ss5.base)
print("\nSelmer-Serre n=5: degrees", tuple(rep5.degrees),
      "M =", rep5.M.name)

# the exhaustive agreement matrix over this instance
matrix = orc.run_agreement_suite({"radical:a=2,n=6": ctx})
print("\noracle agreement:", matrix["all_agree"])
