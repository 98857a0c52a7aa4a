"""Theorem layer: galtourability, M(L/K), Galschreier, composition towers."""

from __future__ import annotations

import ast
import pathlib
import random
import sys
import threading

import pytest

import galtour.dissociation as dis
import galtour.galois as gal
import galtour.permgroup as pg
import galtour.towers as tw
from galtour import presets
from galtour.oracle import bf_composition_towers, bf_galtourable, enumerate_towers
from conftest import contexts_up_to_120, get_ctx, random_galois_tower, small_contexts


# ---------------------------------------------------------------------------
# galtourability


def test_is_galtourable_examples(r24, r26):
    assert not dis.is_galtourable(r26, r26.distinguished, r26.base)  # Q(6rt2)/Q
    assert dis.is_galtourable(r24, r24.distinguished, r24.base)      # Q(4rt2)/Q
    s2 = r26.field_by_name("Q(sqrt2)")
    assert dis.is_galtourable(r26, s2, r26.base)  # Galois, hence galtourable
    with pytest.raises(gal.GaloisError):
        dis.is_galtourable(r26, r26.base, r26.distinguished)


def test_galois_tower_witness(r24, r26):
    s2 = r26.field_by_name("Q(sqrt2)")
    t = dis.galois_tower_witness(r26, s2, r26.base)
    assert [f.name for f in t.fields] == ["Q", "Q(sqrt2)"]
    t4 = dis.galois_tower_witness(r24, r24.distinguished, r24.base)
    assert [f.name for f in t4.fields] == ["Q", "Q(sqrt2)", "Q(4rt2)"]
    for lo, hi in t4.marches():
        assert gal.is_galois(r24, hi, lo)
    with pytest.raises(gal.GaloisError):
        dis.galois_tower_witness(r26, r26.distinguished, r26.base)


def test_galtourable_laws():
    # translation, compositum closure, concatenation, sub-extensions
    for name, ctx in small_contexts().items():
        if ctx.group.order > 24:
            continue
        fields = ctx.all_fields()
        for J in fields:
            ups = [F for F in fields if J <= F]
            for K in ups:
                for L in ups:
                    if dis.is_galtourable(ctx, L, J):
                        KL = gal.compositum(ctx, K, L)
                        assert dis.is_galtourable(ctx, KL, K), (name, K, L)
                        if dis.is_galtourable(ctx, K, J):
                            assert dis.is_galtourable(ctx, KL, J)
        for K in fields:
            for L in fields:
                if not K <= L:
                    continue
                for M in ctx.interval_fields(K, L):
                    if dis.is_galtourable(ctx, M, K) and \
                            dis.is_galtourable(ctx, L, M):
                        assert dis.is_galtourable(ctx, L, K)  # concatenation
                    if dis.is_galtourable(ctx, L, K):
                        assert dis.is_galtourable(ctx, L, M)  # sub-extension


def test_quotient_of_galtourable_need_not_be_galtourable(r26):
    # N/Q is Galois hence galtourable, its quotient Q(6rt2)/Q is not
    assert dis.is_galtourable(r26, r26.top_closure, r26.base)
    assert not dis.is_galtourable(r26, r26.distinguished, r26.base)


def test_conjugation_invariance():
    for name in ("radical:a=2,n=6", "selmer-serre:n=4"):
        ctx = get_ctx(name)
        G = ctx.group
        full = G.full_subgroup()
        for sg in ctx.subgroups:
            verdict = dis.is_galtourable(ctx, ctx.field_of(sg), ctx.base)
            for g in range(G.order):
                conj = G.generated_subgroup(
                    [G.table[G.table[g][x]][G.inverses[g]] for x in sg.gens()]
                ) if sg.order > 1 else G.trivial_subgroup()
                got = dis.is_galtourable(ctx, ctx.field_of(conj), ctx.base)
                assert got == verdict, (name, sg.key, g)


# ---------------------------------------------------------------------------
# simplicity and galsimplicity


def test_simple_and_galsimple_examples(r29, ss3):
    # a prime-degree cyclic extension is simple
    theta = ss3.field_by_name("Q(theta)")
    assert dis.is_simple_ext(ss3, theta, ss3.base)
    # Q(9rt2)/Q: galsimple, not simple, not Galois
    L9, K9 = r29.distinguished, r29.base
    assert dis.is_galsimple(r29, L9, K9)
    assert not dis.is_simple_ext(r29, L9, K9)
    assert not gal.is_galois(r29, L9, K9)
    # trivial extension is neither
    assert not dis.is_simple_ext(r29, K9, K9)
    assert not dis.is_galsimple(r29, K9, K9)


def test_galois_galsimple_iff_group_simple():
    for name, ctx in small_contexts().items():
        if ctx.group.order > 24:
            continue
        fields = ctx.all_fields()
        for F in fields:
            for E in fields:
                if F <= E and gal.is_galois(ctx, E, F):
                    lhs = dis.is_galsimple(ctx, E, F)
                    rhs = E != F and pg.is_simple(gal.galois_group(ctx, E, F))
                    assert lhs == rhs, (name, E.name, F.name)


def test_galsimple_laws_check(r26, r29):
    assert dis.galsimple_laws_check(r26).ok
    assert dis.galsimple_laws_check(r29).ok
    assert dis.galsimple_laws_check(get_ctx("c4")).ok
    # the |G| = 1 context passes vacuously
    triv = gal.GaloisContext(pg.generate(1, []))
    rep = dis.galsimple_laws_check(triv)
    assert rep.ok and rep.quotient_checks == 0 and rep.transitivity_checks == 0


def test_verdicts_do_not_test_normality_by_conjugation(monkeypatch):
    # normality, galsimplicity, subnormality and the towers built on them are
    # read from the lattice index; permgroup's conjugation scan is left to
    # the quotient's precondition
    ctx = get_ctx("radical:a=2,n=20")  # 332 fields

    def banned(*args, **kwargs):
        raise AssertionError("the main path called pg.is_normal")
    monkeypatch.setattr(pg, "is_normal", banned)
    fields, K = ctx.all_fields(), ctx.base
    for F in fields:
        for E in ctx.interval_fields(F, ctx.top_closure):
            dis.is_galtourable(ctx, E, F)
            dis.is_galsimple(ctx, E, F)
            gal.is_galois(ctx, E, F)
        dis.intourability_field(ctx, F, K)
        dis.composition_tower_general(ctx, F, K)


# ---------------------------------------------------------------------------
# the intourability field


def test_intourability_examples(r26, r29):
    rep = dis.intourability_field(r26, r26.distinguished, r26.base)
    assert rep.M.name == "Q(sqrt2)"
    assert rep.degrees == (2, 3)
    assert rep.sub_kind == "galsimple_non_galois"
    assert rep.quotient_is_galtourable
    rep9 = dis.intourability_field(r29, r29.distinguished, r29.base)
    assert rep9.M == r29.base and rep9.degrees == (1, 9)


def test_intourability_degenerate(r26):
    rep = dis.intourability_field(r26, r26.base, r26.base)
    assert rep.M == r26.base
    assert rep.degrees == (1, 1)
    assert rep.sub_kind == "trivial"
    assert rep.witness_tower.height == 0


def test_report_records_are_immutable_values(r24):
    rep = dis.intourability_field(r24, r24.distinguished, r24.base)
    assert repr(rep) == (
        "DissociationReport(M=FieldRef(Q(4rt2)), "
        "degrees=TourabilityDegree(gal=4, int=1), quotient_is_galtourable=True, "
        "sub_kind='trivial', witness_tower=Tower[Q <= Q(sqrt2) <= Q(4rt2)])")
    assert rep == dis.intourability_field(r24, r24.distinguished, r24.base)
    laws = dis.galsimple_laws_check(r24)
    assert repr(dis.GalsimpleLawsReport(3, 4, ())) == (
        "GalsimpleLawsReport(quotient_checks=3, transitivity_checks=4, violations=())")
    assert hash(laws) == hash(dis.galsimple_laws_check(r24))
    for record, name in [(rep, "M"), (rep.degrees, "gal"), (laws, "violations")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_intourability_galtourable_case(r24):
    # galtourable extensions are their own M; M(M(L/K)/K) = M(L/K)
    rep = dis.intourability_field(r24, r24.distinguished, r24.base)
    assert rep.M == r24.distinguished and rep.sub_kind == "trivial"
    for name, ctx in small_contexts().items():
        if ctx.group.order > 24:
            continue
        for L in ctx.all_fields():
            M = dis.intourability_field(ctx, L, ctx.base).M
            again = dis.intourability_field(ctx, M, ctx.base).M
            assert again == M, name


def test_intourability_maximality_and_monotonicity():
    for name, ctx in small_contexts().items():
        if ctx.group.order > 24:
            continue
        K = ctx.base
        for L in ctx.all_fields():
            M = dis.intourability_field(ctx, L, K).M
            for F in ctx.interval_fields(K, L):
                # every galtourable quotient sits below M
                if dis.is_galtourable(ctx, F, K):
                    assert F <= M, (name, L.name, F.name)
                # every intourability sub-extension sits above M
                if L == F or (dis.is_galsimple(ctx, L, F)
                              and not gal.is_galois(ctx, L, F)):
                    assert M <= F, (name, L.name, F.name)
                # monotonicity M(F/K) <= F cap M(L/K)
                MF = dis.intourability_field(ctx, F, K).M
                assert MF <= gal.intersect_fields(ctx, F, M)


def test_report_json(r26):
    rep = dis.intourability_field(r26, r26.distinguished, r26.base)
    d = rep.to_dict()
    assert d == {"M": "Q(sqrt2)", "deg_gal": 2, "deg_int": 3,
                 "sub_kind": "galsimple_non_galois",
                 "witness_tower": ["Q", "Q(sqrt2)"]}


# ---------------------------------------------------------------------------
# bridge: towers <-> series


def test_series_tower_round_trip_c4(c4ctx):
    G = c4ctx.group
    half = G.generated_subgroup([G.table[1][1]])  # square of a generator
    chain = [G.full_subgroup(), half, G.trivial_subgroup()]
    t = dis.tower_from_series(c4ctx, chain)
    assert t.height == 2 and tw.is_strict(t)
    assert dis.series_from_tower(t) == chain


def test_series_round_trip_all_normal_series():
    for name in ("klein", "c4", "radical:a=2,n=4", "selmer-serre:n=4"):
        ctx = get_ctx(name)
        G = ctx.group

        def normal_series(top):
            # all descending normal-step chains from `top` to the trivial group
            if top.order == 1:
                yield [top]
                return
            for nxt in ctx.subgroups:
                if (nxt.mask & top.mask == nxt.mask and nxt.key != top.key
                        and ctx.normal_in(nxt, top)):
                    for tail in normal_series(nxt):
                        yield [top] + tail

        for chain in normal_series(G.full_subgroup()):
            t = dis.tower_from_series(ctx, chain)
            assert dis.series_from_tower(t) == chain
            if all(a != b for a, b in zip(chain, chain[1:])):
                assert tw.is_strict(t)


def test_tower_from_series_rejects_non_normal(ss4):
    G = ss4.group
    stab = ss4.distinguished.subgroup
    with pytest.raises(gal.GaloisError):
        dis.tower_from_series(ss4, [G.full_subgroup(), stab])


def test_series_from_tower_requires_galois_extension(r26):
    t = tw.make_tower(r26, [r26.base, r26.field_by_name("Q(sqrt2)")])
    chain = dis.series_from_tower(t)  # Q(sqrt2)/Q is Galois: fine
    assert len(chain) == 2
    bad = tw.make_tower(r26, [r26.base, r26.distinguished])
    with pytest.raises(gal.GaloisError):
        dis.series_from_tower(bad)


# ---------------------------------------------------------------------------
# Galschreier


def test_schreier_sigma_values():
    assert dis.schreier_sigma(1, 5) == (1, 2, 3, 4, 5)
    assert dis.schreier_sigma(4, 1) == (1, 2, 3, 4)
    assert dis.schreier_sigma(2, 3) == (1, 3, 5, 2, 4, 6)


def test_schreier_refine_example(r24):
    K, N = r24.base, r24.top_closure
    s2 = r24.field_by_name("Q(sqrt2)")
    i4 = r24.field_by_name("Q(zeta4)")
    X = gal.compositum(r24, i4, s2)
    t1 = tw.make_tower(r24, [K, s2, N])
    t2 = tw.make_tower(r24, [K, i4, X, N])
    r1, r2, w = dis.schreier_refine(t1, t2)
    assert w.sigma == (1, 3, 5, 2, 4, 6)
    assert r1.height == 6 and r2.height == 6
    assert tw.is_galois_tower(r1) and tw.is_galois_tower(r2)
    assert tw.is_galois_refinement(r1, t1)
    assert tw.is_galois_refinement(r2, t2)
    # the defining index subsequences of the formulas
    assert all(r1.fields[i * t2.height] == t1.fields[i]
               for i in range(t1.height + 1))
    assert all(r2.fields[j * t1.height] == t2.fields[j]
               for j in range(t2.height + 1))


def test_schreier_requires_galois_towers(r26):
    bad = tw.make_tower(r26, [r26.base, r26.field_by_name("Q(3rt2)"),
                              r26.distinguished])
    with pytest.raises(tw.TowerError, match="non-Galois marche"):
        dis.schreier_refine(bad, bad)


def test_schreier_random_pairs():
    rng = random.Random(7)
    checked = 0
    for name, ctx in small_contexts().items():
        fields = ctx.all_fields()
        pairs = [(F, E) for F in fields for E in fields
                 if F < E and dis.is_galtourable(ctx, E, F)]
        rng.shuffle(pairs)
        for F, E in pairs[:3]:
            for _ in range(2):
                t1 = random_galois_tower(ctx, F, E, rng)
                t2 = random_galois_tower(ctx, F, E, rng)
                r1, r2, w = dis.schreier_refine(t1, t2)
                assert tw.is_galois_tower(r1) and tw.is_galois_tower(r2)
                assert tw.is_galois_refinement(r1, t1)
                assert tw.is_galois_refinement(r2, t2)
                assert r1.height == t1.height * t2.height
                checked += 1
    assert checked >= 30


def test_butterfly_parallelograms(r24):
    K, N = r24.base, r24.top_closure
    s2 = r24.field_by_name("Q(sqrt2)")
    i4 = r24.field_by_name("Q(zeta4)")
    X = gal.compositum(r24, i4, s2)
    t1 = tw.make_tower(r24, [K, s2, N])
    t2 = tw.make_tower(r24, [K, i4, X, N])
    assert dis.butterfly_parallelogram_check(t1, t2)


def test_schreier_strict(klein):
    N = klein.top_closure
    t1 = tw.make_tower(klein, [klein.base, klein.field_by_name("Q(sqrt2)"), N])
    s1, s2, w = dis.schreier_refine_strict(t1, t1)
    assert s1 == t1 and s2 == t1
    t2 = tw.make_tower(klein, [klein.base, klein.field_by_name("Q(sqrt3)"), N])
    s1, s2, w = dis.schreier_refine_strict(t1, t2)
    assert s1.height == 2 and s2.height == 2
    assert tw.equivalence_witness(s1, s2) is not None
    with pytest.raises(tw.TowerError):
        dis.schreier_refine_strict(
            tw.make_tower(klein, [klein.base, klein.base, N]), t2)


# ---------------------------------------------------------------------------
# composition towers, Galois case


def test_composition_tower_trivial(r26):
    triv = tw.make_tower(r26, [r26.base])
    assert dis.is_composition_tower_galois(triv)
    assert dis.composition_tower_galois(r26, r26.base, r26.base) == triv


def test_is_composition_tower_galois_examples(r24, c4ctx):
    t = tw.make_tower(r24, [r24.base, r24.field_by_name("Q(sqrt2)"),
                            r24.distinguished])
    assert dis.is_composition_tower_galois(t)
    whole = tw.make_tower(c4ctx, [c4ctx.base, c4ctx.top_closure])
    assert not dis.is_composition_tower_galois(whole)  # C4 marche splits


def test_composition_tower_simple_group(ss3):
    # A Galois extension with simple group: the composition tower is [K, L]
    g = ss3.group
    a3 = next(sg for sg in ss3.subgroups if sg.order == 3)
    F = ss3.field_of(a3)
    t = dis.composition_tower_galois(ss3, F, ss3.base)
    assert t.fields == (ss3.base, F)


def test_composition_tower_klein(klein):
    t = dis.composition_tower_galois(klein, klein.top_closure, klein.base)
    assert t.height == 2
    for q in tw.marche_groups(t):
        assert q.order == 2
    towers = bf_composition_towers(klein, klein.top_closure, klein.base)
    assert t in towers and len(towers) == 3
    for a in towers:
        for b in towers:
            assert tw.equivalence_witness(a, b) is not None


def test_galjordanholder_refine(c4ctx):
    # the C4 tower [Q, zeta5-field] refines through the quadratic subfield
    whole = tw.make_tower(c4ctx, [c4ctx.base, c4ctx.top_closure])
    out = dis.galjordanholder_refine(whole)
    assert out.height == 2
    assert dis.is_composition_tower_galois(out)
    assert tw.refinement_witness(out, whole) is not None
    # already a composition tower: unchanged
    assert dis.galjordanholder_refine(out) == out


def test_composition_outputs_respect_height_bound():
    for name, ctx in small_contexts().items():
        if ctx.group.order > 24:
            continue
        for L in ctx.all_fields():
            if dis.is_galtourable(ctx, L, ctx.base):
                t = dis.composition_tower_galois(ctx, L, ctx.base)
                assert tw.height_bound_check(t), (name, L.name)


# ---------------------------------------------------------------------------
# elevation towers and the general case


def test_elevation_examples(r26):
    K = r26.base
    f = tw.make_tower(r26, [K, r26.field_by_name("Q(3rt2)"),
                            r26.field_by_name("Q(6rt2)")])
    mtower, ind = dis.elevation_tower(r26, f)
    assert [x.name for x in mtower.fields] == ["Q", "Q", "Q(sqrt2)"]
    assert [x.name for x in ind.fields] == ["Q", "Q", "Q(sqrt2)", "Q(6rt2)"]
    assert tw.is_galtourable_tower(mtower)
    two = tw.make_tower(r26, [K, r26.distinguished])
    m2, _ = dis.elevation_tower(r26, two)
    assert m2.fields == (K, dis.intourability_field(
        r26, r26.distinguished, K).M)


def test_elevation_of_galtourable_tower_is_itself(r24):
    t = tw.make_tower(r24, [r24.base, r24.field_by_name("Q(sqrt2)"),
                            r24.distinguished])
    mtower, ind = dis.elevation_tower(r24, t)
    assert mtower == t and ind == t


def test_elevation_characterization(r26):
    # a tower is an elevation tower iff induced by a galtourable tower of M/K
    K, L = r26.base, r26.distinguished
    for t in enumerate_towers(r26, K, L, 3):
        mtower, ind = dis.elevation_tower(r26, t)
        assert dis.is_elevation_tower(r26, ind), t
    assert not dis.is_elevation_tower(
        r26, tw.make_tower(r26, [K, r26.field_by_name("Q(3rt2)"), L]))


def test_elevation_characterization_two_sided(r26):
    # independent re-derivation: collect the set of towers induced by
    # galtourable towers of M(L/K)/K and compare membership verdicts
    K, L = r26.base, r26.distinguished
    M = dis.intourability_field(r26, L, K).M
    induced_set = {
        tw.induced(t, L)
        for t in enumerate_towers(r26, K, M, 3)
        if tw.is_galtourable_tower(t)
    }
    for c in enumerate_towers(r26, K, L, 4):
        assert dis.is_elevation_tower(r26, c) == (c in induced_set), c


def test_composition_sets_coincide_in_galtourable_case(r24):
    # for a galtourable extension the general and the Galois notions give
    # the same set of composition towers
    K, L = r24.base, r24.distinguished
    for c in enumerate_towers(r24, K, L, 3):
        general = dis.is_composition_tower(r24, c)
        galois_notion = tw.is_galois_tower(c) and dis.is_composition_tower_galois(c)
        assert general == galois_notion, c


def test_is_composition_tower_examples(r26, r24):
    K, L = r26.base, r26.distinguished
    good = tw.make_tower(r26, [K, r26.field_by_name("Q(sqrt2)"), L])
    bad = tw.make_tower(r26, [K, r26.field_by_name("Q(3rt2)"), L])
    assert dis.is_composition_tower(r26, good)
    assert not dis.is_composition_tower(r26, bad)
    # galtourable case reduces to the Galois notion
    t4 = tw.make_tower(r24, [r24.base, r24.field_by_name("Q(sqrt2)"),
                             r24.distinguished])
    assert dis.is_composition_tower(r24, t4) == \
        dis.is_composition_tower_galois(t4)


def test_composition_tower_general_examples(r26, r29, ss5):
    t = dis.composition_tower_general(r26, r26.distinguished, r26.base)
    assert [x.name for x in t.fields] == ["Q", "Q(sqrt2)", "Q(6rt2)"]
    # galsimple non-Galois: M = K, so the tower is [K, L]
    t9 = dis.composition_tower_general(r29, r29.distinguished, r29.base)
    assert t9.fields == (r29.base, r29.distinguished)
    t5 = dis.composition_tower_general(ss5, ss5.distinguished, ss5.base)
    assert t5.fields == (ss5.base, ss5.distinguished)


def test_report_witness_is_the_galois_witness():
    # the normal closure of Subgroup(L) and of Subgroup(M(L/K)) in each
    # term of the descent agree, so composition_tower_general may reuse it
    pairs = 0
    for name, ctx in contexts_up_to_120().items():
        for K in ctx.all_fields():
            for L in ctx.interval_fields(K, ctx.top_closure):
                rep = dis.intourability_field(ctx, L, K)
                assert rep.witness_tower == dis.galois_tower_witness(ctx, rep.M, K), \
                    (name, K.name, L.name)
                if rep.M == K:
                    assert rep.witness_tower.height == 0, (name, K.name, L.name)
                pairs += 1
    assert pairs > 1000


def _count_is_galois(monkeypatch):
    calls = []
    is_galois = gal.is_galois

    def counted(ctx, E, F):
        calls.append((F, E))
        return is_galois(ctx, E, F)
    monkeypatch.setattr(gal, "is_galois", counted)
    return calls


def test_composition_tower_general_checks_each_marche_once(monkeypatch):
    ctx = get_ctx("radical:a=2,n=12")
    K, L = ctx.base, ctx.distinguished
    rep = dis.intourability_field(ctx, L, K)
    M = rep.M
    assert K != M != L
    reports, walks = [], []
    intourability_field = dis.intourability_field
    subnormal_closure = gal.GaloisContext.subnormal_closure

    def counted_report(*args):
        reports.append(args)
        return intourability_field(*args)

    def counted_walk(self, E, F):
        walks.append((F, E))
        return subnormal_closure(self, E, F)
    monkeypatch.setattr(dis, "intourability_field", counted_report)
    monkeypatch.setattr(gal.GaloisContext, "subnormal_closure", counted_walk)
    calls = _count_is_galois(monkeypatch)
    out = dis.composition_tower_general(ctx, L, K)
    comp = tw.make_tower(ctx, out.fields[:-1])
    # L/M non-Galois, then the witness and its Jordan-Holder refinement
    assert len(calls) == 5
    assert calls == [(M, L)] + list(rep.witness_tower.marches() + comp.marches())
    assert reports == [(ctx, L, K)]
    # both walks are intourability_field's own: its closure and its
    # galtourability re-check; the witness is not walked a third time
    assert walks == [(K, L), (K, M)]
    assert out.fields[-2:] == (M, L)


def test_is_composition_tower_checks_each_prefix_marche_once(monkeypatch):
    ctx = get_ctx("radical:a=2,n=12")
    K, L = ctx.base, ctx.distinguished
    c = dis.composition_tower_general(ctx, L, K)
    prefix = tw.make_tower(ctx, c.fields[:-1])
    calls = _count_is_galois(monkeypatch)
    assert dis.is_composition_tower(ctx, c)
    assert calls == [(prefix.top, L)] + list(prefix.marches())


def test_composition_tower_general_refusals(monkeypatch):
    r26, r24 = get_ctx("radical:a=2,n=6"), get_ctx("radical:a=2,n=4")
    K, L = r26.base, r26.distinguished
    rep = dis.intourability_field(r26, L, K)
    intourability_field = dis.intourability_field
    for forged in ([K, K, rep.M], [K, r26.field_by_name("Q(3rt2)")]):
        # a witness that is not strict, or not Galois
        monkeypatch.setattr(dis, "intourability_field", lambda *a, w=forged: (
            intourability_field(*a)._replace(witness_tower=tw.make_tower(r26, w))))
        with pytest.raises(tw.TheoremViolation,
                           match="subnormal descent is not a strict Galois tower"):
            dis.composition_tower_general(r26, L, K)
    monkeypatch.setattr(dis, "intourability_field", intourability_field)
    induced_prefix = dis._induced_prefix
    for forge in (lambda p: None, lambda p: tw.make_tower(r26, (K,) + p.fields)):
        # an induced tower whose prefix is missing or differs
        monkeypatch.setattr(dis, "_induced_prefix", lambda *a, f=forge: f(induced_prefix(*a)))
        with pytest.raises(tw.TheoremViolation, match="is not a composition tower"):
            dis.composition_tower_general(r26, L, K)
    monkeypatch.setattr(dis, "_induced_prefix", induced_prefix)
    assert dis.composition_tower_general(r26, L, K).fields[-2:] == (rep.M, L)
    # a Jordan-Holder step that is not galsimple (L/K galtourable, so
    # intourability_field does not ask is_galsimple itself)
    monkeypatch.setattr(dis, "is_galsimple", lambda ctx, E, F: False)
    with pytest.raises(tw.TheoremViolation,
                       match="Jordan-Holder refinement is not a composition tower"):
        dis.composition_tower_general(r24, r24.distinguished, r24.base)


def test_galjordanholder_refine_refuses_non_galois_towers(r26):
    K, L = r26.base, r26.distinguished
    for fields in ([K, r26.field_by_name("Q(3rt2)"), L], [K, K, L]):
        with pytest.raises(tw.TowerError,
                           match="galjordanholder_refine requires a strict Galois tower"):
            dis.galjordanholder_refine(tw.make_tower(r26, fields))


def test_equivalence_general(r26):
    K, L = r26.base, r26.distinguished
    c1 = dis.composition_tower_general(r26, L, K)
    eq, w = dis.equivalence_general(r26, c1, c1)
    assert eq and w.sigma == (1,)
    M = dis.intourability_field(r26, L, K).M
    for alt in bf_composition_towers(r26, M, K):
        eq, _ = dis.equivalence_general(r26, c1, tw.induced(alt, L))
        assert eq
    # different prefix heights: not equivalent
    padded = tw.make_tower(r26, [K, K, M, L])
    eq, w = dis.equivalence_general(r26, c1, padded)
    assert not eq and w is None


def test_equivalence_general_rejects_non_induced(r26):
    K, L = r26.base, r26.distinguished
    c1 = dis.composition_tower_general(r26, L, K)
    with pytest.raises(tw.TowerError):
        dis.equivalence_general(r26, c1, tw.make_tower(
            r26, [K, r26.field_by_name("Q(3rt2)"), L]))


def test_theorem_m_uniqueness_small():
    from galtour.oracle import bf_intourability
    for name, ctx in small_contexts().items():
        if ctx.group.order > 24:
            continue
        for L in ctx.all_fields():
            M, count = bf_intourability(ctx, L, ctx.base)
            assert count == 1
            assert M == dis.intourability_field(ctx, L, ctx.base).M, name


@pytest.mark.parametrize("fn", [
    gal.degree, gal.is_galois, dis.is_galtourable, dis.galois_tower_witness,
    dis.is_simple_ext, dis.is_galsimple, dis.intourability_field,
], ids=lambda fn: fn.__name__)
def test_fields_of_two_contexts_are_rejected(fn):
    spec = gal.to_instance_dict(get_ctx("radical:a=2,n=4"))
    ctx1, ctx2 = presets.from_dict(spec), presets.from_dict(spec)
    with pytest.raises(gal.GaloisError, match="different contexts"):
        fn(ctx1, ctx1.distinguished, ctx2.base)


def test_package_has_no_assert_statements():
    # theorem checks must survive `python -O`, which strips assert
    src = pathlib.Path(dis.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_fresh_context_is_safe_to_share_between_threads():
    # The lazily filled state (the context's quotient cache and the
    # isomorphism memo) starts empty on a context built from a dict; four
    # threads then fill it concurrently.  Group._inv/_orders and
    # Subgroup._gens are already filled when the context is built.
    spec = gal.to_instance_dict(get_ctx("selmer-serre:n=4"))

    def answers(ctx, order):
        K, N = ctx.base, ctx.top_closure
        fields = ctx.all_fields()
        normal = [F for F in fields if gal.is_galois(ctx, F, K)]
        out = {}
        for i in order:
            F = fields[i]
            rep = dis.intourability_field(ctx, F, K)
            out[F.name] = (dis.is_galtourable(ctx, F, K), rep.to_dict(),
                           dis.is_simple_ext(ctx, F, K), dis.is_simple_ext(ctx, N, F))
            if F in normal:
                for F2 in normal:
                    r1, r2, w = dis.schreier_refine(tw.Tower(ctx, [K, F, N]),
                                                    tw.Tower(ctx, [K, F2, N]))
                    out[(F.name, F2.name)] = (repr(r1), repr(r2), w.sigma, w.isos)
        out["dot"] = gal.to_dot(ctx)
        return out

    pg._iso_cached.cache_clear()
    serial_ctx = presets.from_dict(spec)
    n = len(serial_ctx.subgroups)
    expected = answers(serial_ctx, range(n))

    pg._iso_cached.cache_clear()
    shared = presets.from_dict(spec)
    results = [None] * 4

    def work(k):
        results[k] = answers(shared, [(i + 7 * k) % n for i in range(n)])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert got == expected
