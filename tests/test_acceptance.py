"""Acceptance gate: one test per criterion, exact integer/boolean checks.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.  Every expected value is an exact reproduction of a worked
example or an exhaustively checked law; there are no tolerances.
"""

from __future__ import annotations

import random

import galtour.dissociation as dis
import galtour.galois as gal
import galtour.oracle as orc
import galtour.permgroup as pg
import galtour.towers as tw
from conftest import contexts_up_to_120, get_ctx, random_galois_tower, small_contexts


def _report(n: int, text: str) -> None:
    print(f"criterion {n:2d} PASS: {text}")


def test_criterion_01_sixth_root_of_two():
    ctx = get_ctx("radical:a=2,n=6")
    L, K = ctx.distinguished, ctx.base
    assert not dis.is_galtourable(ctx, L, K)
    rep = dis.intourability_field(ctx, L, K)
    assert rep.M.name == "Q(sqrt2)"
    assert rep.degrees == (2, 3)
    M_bf, count = orc.bf_intourability(ctx, L, K)
    assert count == 1 and M_bf == rep.M
    _report(1, "Q(6rt2)/Q not galtourable; M = Q(sqrt2), degrees (2,3); "
               "bf count = 1")


def test_criterion_02_fourth_root_of_two():
    ctx = get_ctx("radical:a=2,n=4")
    L, K = ctx.distinguished, ctx.base
    assert dis.is_galtourable(ctx, L, K)
    witness = dis.galois_tower_witness(ctx, L, K)
    assert [f.name for f in witness.fields] == ["Q", "Q(sqrt2)", "Q(4rt2)"]
    comp = dis.composition_tower_galois(ctx, L, K)
    assert comp.height == 2
    assert [q.order for q in tw.marche_groups(comp)] == [2, 2]
    assert dis.is_composition_tower(ctx, comp)
    _report(2, "Q(4rt2)/Q galtourable via Q ⊴ Q(sqrt2) ⊴ Q(4rt2); "
               "composition tower of height 2, both marches of order 2")


def test_criterion_03_ninth_root_of_two():
    ctx = get_ctx("radical:a=2,n=9")
    L, K = ctx.distinguished, ctx.base
    assert ctx.group.order == 54
    assert dis.is_galsimple(ctx, L, K)
    assert not dis.is_simple_ext(ctx, L, K)
    assert not gal.is_galois(ctx, L, K)
    rep = dis.intourability_field(ctx, L, K)
    assert rep.M == K and rep.degrees == (1, 9)
    _report(3, "Q(9rt2)/Q galsimple, not simple, not Galois; M = Q, "
               "degrees (1,9)")


def test_criterion_04_selmer_serre():
    for n in (3, 4, 5):
        ctx = get_ctx(f"selmer-serre:n={n}")
        L, K = ctx.distinguished, ctx.base
        assert dis.is_simple_ext(ctx, L, K)
        assert not gal.is_galois(ctx, L, K)
        assert dis.intourability_field(ctx, L, K).degrees == (1, n)
    ss5 = get_ctx("selmer-serre:n=5")
    stab = ss5.distinguished
    assert len(ss5.interval_fields(ss5.base, stab)) == 2
    closure, _ = pg.subnormal_closure(stab.subgroup, ss5.group.full_subgroup())
    assert closure == ss5.group.full_subgroup()
    _report(4, "Selmer-Serre n in {3,4,5} simple and non-Galois; n=5 "
               "stabilizer interval has 2 members, subnormal closure = S5; "
               "degrees (1,n)")


def test_criterion_05_cyclo_radical_2_3():
    ctx = get_ctx("cyclo-radical:n=2,d=3,l=3")
    L, K = ctx.distinguished, ctx.base
    rep = dis.intourability_field(ctx, L, K)
    assert rep.degrees == (2, 3)
    M_bf, count = orc.bf_intourability(ctx, L, K)
    assert count == 1 and M_bf == rep.M
    _report(5, "cyclo-radical (n=2,d=3,l=3) has tourability degree (2,3), "
               "main path and oracle agree")


def test_criterion_06_galschreier_suite():
    assert dis.schreier_sigma(2, 3) == (1, 3, 5, 2, 4, 6)
    rng = random.Random(20260810)
    contexts = small_contexts()
    checked = 0
    pool = []
    for name, ctx in contexts.items():
        fields = ctx.all_fields()
        pairs = [(F, E) for F in fields for E in fields
                 if F < E and dis.is_galtourable(ctx, E, F)]
        pool.extend((ctx, F, E) for F, E in pairs)
    while checked < 200:
        ctx, F, E = pool[rng.randrange(len(pool))]
        t1 = random_galois_tower(ctx, F, E, rng)
        t2 = random_galois_tower(ctx, F, E, rng)
        r1, r2, witness = dis.schreier_refine(t1, t2)
        assert tw.is_galois_tower(r1) and tw.is_galois_tower(r2)
        assert tw.refinement_witness(r1, t1) is not None
        assert tw.refinement_witness(r2, t2) is not None
        assert witness.sigma == dis.schreier_sigma(t1.height, t2.height)
        # EquivalenceWitness verified sigma-indexed marche isomorphisms
        checked += 1
    _report(6, f"{checked} random Galois-tower pairs refined: outputs are "
               "Galois towers, refinements, sigma-equivalent; "
               "sigma(2,3) = (1,3,5,2,4,6)")


def test_criterion_07_jordan_holder_suite():
    pairs = 0
    for name, ctx in small_contexts().items():
        fields = ctx.all_fields()
        for F in fields:
            for E in fields:
                if not F <= E or not dis.is_galtourable(ctx, E, F):
                    continue
                towers = orc.bf_composition_towers(ctx, E, F)
                assert towers, (name, E.name, F.name)
                main = dis.composition_tower_galois(ctx, E, F)
                assert main in towers
                for i, a in enumerate(towers):
                    for b in towers[i + 1:]:
                        assert tw.equivalence_witness(a, b) is not None, \
                            (name, a, b)
                pairs += 1
    _report(7, f"{pairs} galtourable pairs in contexts of order <= 60: all "
               "composition towers pairwise equivalent, main output among them")


def test_criterion_08_theorem_m_sweep():
    checked = 0
    for name, ctx in contexts_up_to_120().items():
        K = ctx.base
        for L in ctx.all_fields():
            M_bf, count = orc.bf_intourability(ctx, L, K)
            assert count == 1, (name, L.name)
            assert M_bf == dis.intourability_field(ctx, L, K).M
            checked += 1
    _report(8, f"{checked} (K, L) choices in contexts of order <= 120: "
               "exactly one field satisfies both Theorem-M conditions and it "
               "matches the main path")


def test_criterion_09_ecartele_and_diagonal_sweeps():
    par_count = 0
    ec_count = 0
    for name, ctx in small_contexts().items():
        fields = ctx.all_fields()
        for K in fields:
            for L in fields:
                J = gal.intersect_fields(ctx, K, L)
                if not (gal.is_galois(ctx, K, J) and gal.is_galois(ctx, L, J)):
                    continue
                N = gal.compositum(ctx, K, L)
                q = gal.Quadrilateral(J, K, N, L)
                assert gal.diagonal_split_check(ctx, q), (name, q)
                par_count += 1
                for E in ctx.interval_fields(J, K):
                    for F in ctx.interval_fields(J, L):
                        assert gal.ecartele_identities(ctx, K, L, E, F)
                        ec_count += 1
                for E in ctx.interval_fields(K, N):
                    for F in ctx.interval_fields(L, N):
                        assert gal.ecartele_identities(ctx, K, L, E, F)
                        ec_count += 1
    _report(9, f"{par_count} parallelograms split along the diagonal; "
               f"{ec_count} admissible (E,F) satisfy the ecartele identities")


def test_criterion_10_general_dissociation():
    ctx = get_ctx("radical:a=2,n=6")
    L, K = ctx.distinguished, ctx.base
    main = dis.composition_tower_general(ctx, L, K)
    assert [f.name for f in main.fields] == ["Q", "Q(sqrt2)", "Q(6rt2)"]
    M = dis.intourability_field(ctx, L, K).M
    others = [tw.induced(t, L) for t in orc.bf_composition_towers(ctx, M, K)]
    assert others
    for a in [main] + others:
        for b in [main] + others:
            equivalent, _ = dis.equivalence_general(ctx, a, b)
            assert equivalent
    _report(10, "composition_tower_general(Q(6rt2)/Q) = [Q, Q(sqrt2), "
                "Q(6rt2)]; all general composition towers pairwise equivalent")


def test_criterion_11_oracle_agreement_matrix():
    instances = contexts_up_to_120()
    matrix = orc.run_agreement_suite(instances, max_height=3, sample=400)
    assert matrix["all_agree"], matrix
    ops = {"is_galtourable", "is_galsimple", "refinement_predicates",
           "intourability"}
    for name in instances:
        cells = matrix["instances"][name]
        assert set(cells) == ops
        for op in ops:
            assert cells[op]["agreement"], (name, op)
    _report(11, f"oracle agreement matrix 100% over {len(instances)} "
                "instances x 4 operations")
