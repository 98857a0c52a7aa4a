"""Theorem layer: galtourability, M(L/K), Galschreier, composition towers."""

from __future__ import annotations

import ast
import gc
import pathlib
import random
import sys
import threading

import pytest

import galtour.dissociation as dis
import galtour.galois as gal
import galtour.permgroup as pg
import galtour.towers as tw
from galtour import cli, presets
from galtour.oracle import bf_composition_towers, bf_galtourable, enumerate_towers
from conftest import contexts_up_to_120, get_ctx, is_simple, random_galois_tower, small_contexts


# ---------------------------------------------------------------------------
# galtourability


def test_is_galtourable_examples(r24, r26):
    assert not dis.is_galtourable(r26, r26.distinguished, r26.base)  # Q(6rt2)/Q
    assert dis.is_galtourable(r24, r24.distinguished, r24.base)      # Q(4rt2)/Q
    s2 = r26.field_by_name("Q(sqrt2)")
    assert dis.is_galtourable(r26, s2, r26.base)  # Galois, hence galtourable
    with pytest.raises(gal.GaloisError):
        dis.is_galtourable(r26, r26.base, r26.distinguished)


def test_reach_rows_agree_with_the_subnormal_walk():
    # galtourability is one bit of F's reach row, the nbelow closure from
    # F; it must agree with the subnormal closure walk on every comparable
    # pair, and the lowest bit of reach[K] AND up[L] is the walk's M(L/K)
    rng = random.Random(40)
    contexts = dict(contexts_up_to_120())  # S5 included
    contexts["radical:a=2,n=24"] = get_ctx("radical:a=2,n=24")
    pairs = 0
    for name, ctx in contexts.items():
        fields, N = ctx.all_fields(), ctx.top_closure
        for F in fields:
            for E in ctx.interval_fields(F, N):
                assert dis.is_galtourable(ctx, E, F) == \
                    (ctx.subnormal_closure(E, F)[0] == E), (name, E, F)
                pairs += 1
        for K in [ctx.base] + rng.sample(fields, min(8, len(fields))):
            row = ctx._reach_rows[K]
            for L in ctx.interval_fields(K, N):
                bits = row & ctx._up[L.pos]
                M = ctx._fields[(bits & -bits).bit_length() - 1]
                assert M == dis.intourability_field(ctx, L, K).M, (name, L, K)
        # one row per field asked, of at most one bit per position
        assert set(ctx._reach_rows) <= set(fields)
        assert all(row >> len(fields) == 0 for row in ctx._reach_rows.values())
    assert pairs > 10000


def test_reach_row_is_kept_only_for_the_fields_asked():
    # rows are built on first use, never by the constructor, and a
    # refused pair leaves no row
    ctx = presets.from_dict(gal.to_instance_dict(get_ctx("radical:a=2,n=6")))
    K, L, N = ctx.base, ctx.distinguished, ctx.top_closure
    assert ctx._reach_rows == {}
    with pytest.raises(gal.GaloisError, match="subnormal_closure requires F <= E as fields"):
        dis.is_galtourable(ctx, K, L)
    assert ctx._reach_rows == {}
    assert not dis.is_galtourable(ctx, L, K) and dis.is_galtourable(ctx, N, L)
    assert list(ctx._reach_rows) == [K, L]
    row = ctx._reach_rows[K]
    assert dis.is_galtourable(ctx, N, K) and ctx._reach_rows[K] is row


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
                    rhs = E != F and is_simple(ctx.quotient_group(E, F))
                    assert lhs == rhs, (name, E.name, F.name)


def test_galsimple_laws_check(r26, r29):
    assert dis.galsimple_laws_check(r26).ok
    assert dis.galsimple_laws_check(r29).ok
    assert dis.galsimple_laws_check(get_ctx("c4")).ok
    # the |G| = 1 context passes vacuously
    triv = gal.GaloisContext(pg.generate(1, []))
    rep = dis.galsimple_laws_check(triv)
    assert rep.ok and rep.quotient_checks == 0 and rep.transitivity_checks == 0


def test_galsimplicity_lists_no_minimal_steps(monkeypatch):
    # each verdict is one AND of the up-set of E and the Galois row of F;
    # the minimal Galois steps serve the Jordan-Holder descent alone
    contexts = [get_ctx(name) for name in ("radical:a=2,n=9", "selmer-serre:n=4")]
    pairs = [(ctx, E, F) for ctx in contexts for F in ctx.all_fields()
             for E in ctx.interval_fields(F, ctx.top_closure)]
    expected = ([dis.galsimple_laws_check(ctx) for ctx in contexts],
                [dis.is_galsimple(*pair) for pair in pairs])

    def banned(*args, **kwargs):
        raise AssertionError("galsimplicity listed minimal Galois steps")
    for method in ("galois_steps", "_minimal"):
        monkeypatch.setattr(gal.GaloisContext, method, banned)
    assert ([dis.galsimple_laws_check(ctx) for ctx in contexts],
            [dis.is_galsimple(*pair) for pair in pairs]) == expected
    assert sum(laws.quotient_checks for laws in expected[0]) > 0
    ctx = contexts[0]
    with pytest.raises(gal.GaloisError, match="galois_steps requires F <= E"):
        dis.is_galsimple(ctx, ctx.base, ctx.top_closure)


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
    assert dis.is_galtourable(r26, rep.M, r26.base)
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
        "degrees=TourabilityDegree(gal=4, int=1), sub_kind='trivial', "
        "witness_tower=Tower[Q <= Q(sqrt2) <= Q(4rt2)])")
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


# forgeries of a subnormal descent that keep its closure M
FORGED_WALKS = {
    "repeated-field": lambda chain: chain[:1] + chain,
    "non-galois-step": lambda chain: [chain[0], chain[-1]],
    "cut-short": lambda chain: chain[:-1],
}


@pytest.mark.parametrize("forgery", sorted(FORGED_WALKS))
def test_intourability_field_checks_its_walk(forgery, capsys, monkeypatch):
    # the walk for M(L/K) is its only proof that M/K is galtourable, and
    # its chain is the witness the report returns
    ctx = get_ctx("radical:a=2,n=4")
    K, L = ctx.base, ctx.distinguished
    rep = dis.intourability_field(ctx, L, K)
    assert [f.name for f in rep.witness_tower.fields] == ["Q", "Q(sqrt2)", "Q(4rt2)"]
    subnormal_closure = gal.GaloisContext.subnormal_closure

    def forged(self, E, F):
        M, chain = subnormal_closure(self, E, F)
        return M, FORGED_WALKS[forgery](chain)
    monkeypatch.setattr(gal.GaloisContext, "subnormal_closure", forged)
    ctx._report_cache.clear()  # the memoized report would hide the forged walk
    with pytest.raises(tw.TheoremViolation,
                       match="subnormal descent is not a strict Galois tower"):
        dis.intourability_field(ctx, L, K)
    assert (L, K) not in ctx._report_cache  # a refusal is never kept
    assert cli.main(["m-field", "radical:a=2,n=4"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "theorem violation" in err


def test_intourability_field_is_checked_once_per_pair(monkeypatch):
    # a repeated M(L/K), and the Galois tower witness of the same pair, are
    # read from the context's memo: no walk, no Galois test, the same report
    r12, r24 = get_ctx("radical:a=2,n=12"), get_ctx("radical:a=2,n=4")
    reports = {ctx: dis.intourability_field(ctx, ctx.distinguished, ctx.base)
               for ctx in (r12, r24)}
    walks = []
    subnormal_closure = gal.GaloisContext.subnormal_closure
    monkeypatch.setattr(gal.GaloisContext, "subnormal_closure", lambda self, E, F: (
        walks.append((F, E)) or subnormal_closure(self, E, F)))
    calls = _count_is_galois(monkeypatch)
    for ctx, rep in reports.items():
        assert dis.intourability_field(ctx, ctx.distinguished, ctx.base) is rep
    assert dis.galois_tower_witness(r24, r24.distinguished, r24.base) \
        is reports[r24].witness_tower
    with pytest.raises(gal.GaloisError, match="is not galtourable"):
        dis.galois_tower_witness(r12, r12.distinguished, r12.base)
    assert walks == [] and calls == []
    # a refused pair is refused again, and never kept
    for _ in range(2):
        with pytest.raises(gal.GaloisError, match="requires F <= E"):
            dis.intourability_field(r12, r12.base, r12.distinguished)
    assert (r12.base, r12.distinguished) not in r12._report_cache


def test_memoized_report_refuses_fields_of_another_context():
    # the memo is keyed by refs: those of a second context of the same
    # spec sit at the positions of a stored key, yet miss it and are refused
    spec = gal.to_instance_dict(get_ctx("radical:a=2,n=4"))
    ctx1, ctx2 = presets.from_dict(spec), presets.from_dict(spec)
    rep = dis.intourability_field(ctx1, ctx1.distinguished, ctx1.base)
    assert [(L.pos, K.pos) for L, K in ctx1._report_cache] == \
        [(ctx2.distinguished.pos, ctx2.base.pos)]
    assert (ctx2.distinguished, ctx2.base) not in ctx1._report_cache
    for L, K in [(ctx2.distinguished, ctx2.base), (ctx1.distinguished, ctx2.base),
                 (ctx2.distinguished, ctx1.base)]:
        for fn in (dis.intourability_field, dis.galois_tower_witness):
            with pytest.raises(gal.GaloisError, match="different contexts"):
                fn(ctx1, L, K)
    assert ctx2._report_cache == {}
    assert list(ctx1._report_cache) == [(ctx1.distinguished, ctx1.base)]
    assert dis.intourability_field(ctx1, ctx1.distinguished, ctx1.base) is rep


FIELD_MEMOS = {  # each field-keyed memo of the context, and a call that fills it
    "_report_cache": dis.intourability_field,
    "_composition_cache": dis.composition_tower_general,
    "_quotient_cache": lambda ctx, E, F: ctx.quotient_group(E, F),
    "_iso_cache": lambda ctx, E, F: ctx.isomorphism((F, E), (F, E)),
    "_reach_rows": dis.is_galtourable,
}


@pytest.mark.parametrize("table", sorted(FIELD_MEMOS))
def test_field_memo_refuses_refs_of_another_context(table):
    # a field-keyed memo is keyed by refs: a ref of a second context of the
    # same spec misses it, its computation refuses the ref, and no entry is left
    spec = gal.to_instance_dict(get_ctx("radical:a=2,n=4"))
    ctx1, ctx2 = presets.from_dict(spec), presets.from_dict(spec)
    fill, memo = FIELD_MEMOS[table], getattr(ctx1, table)
    N, K = ctx1.top_closure, ctx1.base
    value = fill(ctx1, N, K)
    kept = dict(memo)
    for E, F in [(ctx2.top_closure, ctx2.base), (N, ctx2.base), (ctx2.top_closure, K)]:
        for _ in range(2):
            with pytest.raises(gal.GaloisError, match="different contexts"):
                fill(ctx1, E, F)
    assert memo == kept and getattr(ctx2, table) == {}
    assert fill(ctx1, N, K) is value


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


def _literal_schreier_fields(ctx, t1, t2):
    """T1[q+1] cap T1[q]T2[r] at l = q*n + r, then the top, through gal."""
    T1, T2, n = t1.fields, t2.fields, t2.height
    return tuple(gal.intersect_fields(ctx, T1[q + 1], gal.compositum(ctx, T1[q], T2[r]))
                 for q, r in (divmod(l, n) for l in range(t1.height * n))) + (t1.top,)


def test_schreier_row_kernel_matches_the_literal_formula():
    # the kernel reads compositum and intersection off the lattice rows;
    # schreier_refine hands back an input tower exactly when the refined
    # fields are that input's, and elevation_tower hands back a
    # galtourable tower as its own M-tower
    rng = random.Random(39)
    contexts = dict(contexts_up_to_120())
    contexts["radical:a=2,n=24"] = get_ctx("radical:a=2,n=24")
    checked, reused = 0, 0
    for name, ctx in contexts.items():
        fields = ctx.all_fields()
        pairs = [(F, E) for F in fields for E in fields
                 if F < E and dis.is_galtourable(ctx, E, F)]
        rng.shuffle(pairs)
        for F, E in pairs[:3]:
            t1 = random_galois_tower(ctx, F, E, rng)
            t2 = random_galois_tower(ctx, F, E, rng)
            seconds = [t2]
            if gal.is_galois(ctx, E, F):
                seconds.append(tw.make_tower(ctx, [F, E]))
            for t2 in seconds:
                r1, r2, _ = dis.schreier_refine(t1, t2)
                for r, a, b in ((r1, t1, t2), (r2, t2, t1)):
                    out = dis._schreier_fields(a, b)
                    assert out == _literal_schreier_fields(ctx, a, b), name
                    assert r.fields == out
                    same = next((t for t in (a, b) if t.fields == out), None)
                    if same is None:
                        assert r is not a and r is not b
                    else:
                        assert r is same
                        reused += 1
                    checked += 1
            assert dis.elevation_tower(ctx, t1)[0] is t1
    assert checked >= 100 and reused > 0 and checked - reused >= 10


def test_height_one_schreier_refinement_is_the_formulas_input_tower(monkeypatch):
    # with a tower of height 1 on either side, or a repeated field on the
    # other, schreier_refine hands back the literal formula's fields as the
    # first input tower that holds them (t1 before t2 for r1, t2 before t1
    # for r2), with the sigma and isos of those towers, and evaluates no
    # formula field
    rng = random.Random(40)
    cases = []
    for ctx in contexts_up_to_120().values():
        fields = ctx.all_fields()
        pairs = [(F, E) for F in fields for E in fields
                 if F < E and gal.is_galois(ctx, E, F)]
        rng.shuffle(pairs)
        for F, E in pairs[:4]:
            h = tw.make_tower(ctx, [F, E])
            t = random_galois_tower(ctx, F, E, rng)
            cases += [(h, t), (t, h), (h, tw.make_tower(ctx, [F, E, E])),
                      (tw.make_tower(ctx, [F, F, E]), h), (h, h)]
    expected = []
    for t1, t2 in cases:
        ctx = t1.ctx
        r1, r2 = (next(t for t in (a, b) if t.fields == _literal_schreier_fields(ctx, a, b))
                  for a, b in ((t1, t2), (t2, t1)))
        sigma = dis.schreier_sigma(t1.height, t2.height)
        isos = tuple(t1.ctx.isomorphism(a, r2.marches()[s - 1])
                     for a, s in zip(r1.marches(), sigma))
        expected.append((r1, r2, sigma, isos))
    formula = []
    schreier_fields = dis._schreier_fields
    monkeypatch.setattr(dis, "_schreier_fields",
                        lambda a, b: formula.append(1) or schreier_fields(a, b))
    for (t1, t2), (e1, e2, sigma, isos) in zip(cases, expected):
        r1, r2, w = dis.schreier_refine(t1, t2)
        assert r1 is e1 and r2 is e2 and r1 in (t1, t2) and r2 in (t1, t2)
        assert w.sigma == sigma == tuple(range(1, len(sigma) + 1))
        assert w.isos == isos
    assert formula == [] and len(cases) >= 150


def test_reused_schreier_tower_still_refines_its_input(monkeypatch):
    # the refinement of this pair is neither input; a kernel that yields
    # the second input's fields builds a tower equal to that input, which
    # must still be refused by the index check
    ctx = get_ctx("radical:a=2,n=12")
    t1, t2 = (tw.make_tower(ctx, [ctx.field_by_name(n) for n in names])
              for names in (["Q", "Q(zeta3)", "N"], ["Q", "Q(sqrt2)", "N"]))
    r1, r2, _ = dis.schreier_refine(t1, t2)
    assert r1 not in (t1, t2) and r2 not in (t1, t2)
    monkeypatch.setattr(dis, "_schreier_fields", lambda a, b: b.fields)
    with pytest.raises(gal.TheoremViolation,
                       match="^refinement formulas did not refine the inputs$"):
        dis.schreier_refine(t1, t2)


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
    assert dis.is_galtourable_tower(mtower)
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
        if dis.is_galtourable_tower(t)
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
    ctx._report_cache.clear()  # count a miss: a memo hit walks and asks nothing
    out = dis.composition_tower_general(ctx, L, K)
    comp = tw.make_tower(ctx, out.fields[:-1])
    # the witness and the Jordan-Holder refinement read their towers'
    # verdicts; only L/M non-Galois is asked
    assert calls == [(M, L)]
    assert tw.is_galois_tower(comp)
    assert tw.refinement_witness(comp, rep.witness_tower) is not None
    assert reports == [(ctx, L, K)]
    # the one walk is intourability_field's closure, whose checked chain
    # is the witness: M/K is not walked again
    assert walks == [(K, L)]
    assert out.fields[-2:] == (M, L)


def test_composition_tower_galois_checks_each_marche_once(monkeypatch):
    ctx = get_ctx("radical:a=2,n=4")
    K, L = ctx.base, ctx.distinguished
    witness = dis.galois_tower_witness(ctx, L, K)
    walks = []
    subnormal_closure = gal.GaloisContext.subnormal_closure

    def counted_walk(self, E, F):
        walks.append((F, E))
        return subnormal_closure(self, E, F)
    monkeypatch.setattr(gal.GaloisContext, "subnormal_closure", counted_walk)
    calls = _count_is_galois(monkeypatch)
    ctx._report_cache.clear()  # count a miss: a memo hit walks and asks nothing
    comp = dis.composition_tower_galois(ctx, L, K)
    # the witness walked once; it and its Jordan-Holder refinement read
    # their towers' verdicts
    assert walks == [(K, L)]
    assert calls == []
    assert tw.refinement_witness(comp, witness) is not None
    assert comp.top == L and comp.height == 2


def test_is_composition_tower_checks_each_prefix_marche_once(monkeypatch):
    ctx = get_ctx("radical:a=2,n=12")
    K, L = ctx.base, ctx.distinguished
    c = dis.composition_tower_general(ctx, L, K)
    prefix = tw.make_tower(ctx, c.fields[:-1])
    witness = dis.intourability_field(ctx, L, K).witness_tower
    calls = _count_is_galois(monkeypatch)
    ctx._report_cache.clear()  # count a miss: a memo hit asks nothing
    assert dis.is_composition_tower(ctx, c)
    # L/M only: M(L/K)'s witness and the prefix read their verdicts
    assert prefix.top == witness.top
    assert calls == [(prefix.top, L)]
    # a second call reads M(L/K)'s report from the memo
    calls.clear()
    assert dis.is_composition_tower(ctx, c)
    assert calls == []


def test_composition_tower_general_is_checked_once_per_pair(monkeypatch):
    # a repeated composition tower is read from the context's memo: the
    # same tower, with no Jordan-Holder step and no Galois test
    ctx = get_ctx("radical:a=2,n=12")
    K, L = ctx.base, ctx.distinguished
    out = dis.composition_tower_general(ctx, L, K)
    assert ctx._composition_cache[(L, K)] is out
    steps = []
    galois_steps = gal.GaloisContext.galois_steps
    monkeypatch.setattr(gal.GaloisContext, "galois_steps", lambda self, F, E: (
        steps.append((F, E)) or galois_steps(self, F, E)))
    calls = _count_is_galois(monkeypatch)
    assert dis.composition_tower_general(ctx, L, K) is out
    assert steps == [] and calls == []
    # refs of another context miss the memo, are refused and are not kept
    other = presets.from_dict(gal.to_instance_dict(ctx))
    with pytest.raises(gal.GaloisError, match="different contexts"):
        dis.composition_tower_general(ctx, other.distinguished, K)
    assert (other.distinguished, K) not in ctx._composition_cache


def test_composition_tower_general_refusals(monkeypatch):
    r26, r24 = get_ctx("radical:a=2,n=6"), get_ctx("radical:a=2,n=4")
    K, L = r26.base, r26.distinguished
    rep = dis.intourability_field(r26, L, K)
    subnormal_closure = gal.GaloisContext.subnormal_closure
    for forged in ([K, K, rep.M], [K, r26.field_by_name("Q(3rt2)")]):
        # a walk whose descent is not strict, or not Galois
        monkeypatch.setattr(gal.GaloisContext, "subnormal_closure",
                            lambda self, E, F, w=forged: (w[-1], w))
        r26._report_cache.clear()  # the memoized report would hide the forged walk
        r26._composition_cache.clear()  # and so would the memoized tower
        with pytest.raises(tw.TheoremViolation,
                           match="subnormal descent is not a strict Galois tower"):
            dis.composition_tower_general(r26, L, K)
        assert (L, K) not in r26._composition_cache  # a refusal is never kept
    monkeypatch.setattr(gal.GaloisContext, "subnormal_closure", subnormal_closure)
    induced_prefix = dis._induced_prefix
    for forge in (lambda p: None, lambda p: tw.make_tower(r26, (K,) + p.fields)):
        # an induced tower whose prefix is missing or differs
        monkeypatch.setattr(dis, "_induced_prefix", lambda *a, f=forge: f(induced_prefix(*a)))
        with pytest.raises(tw.TheoremViolation, match="is not a composition tower"):
            dis.composition_tower_general(r26, L, K)
        assert (L, K) not in r26._composition_cache
    monkeypatch.setattr(dis, "_induced_prefix", induced_prefix)
    assert dis.composition_tower_general(r26, L, K).fields[-2:] == (rep.M, L)
    # a Jordan-Holder step that is not galsimple (L/K galtourable, so
    # intourability_field does not ask is_galsimple itself)
    monkeypatch.setattr(dis, "is_galsimple", lambda ctx, E, F: False)
    r24._composition_cache.clear()  # the memoized tower would hide the forgery
    with pytest.raises(tw.TheoremViolation,
                       match="Jordan-Holder refinement is not a composition tower"):
        dis.composition_tower_general(r24, r24.distinguished, r24.base)
    assert r24._composition_cache == {}


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


def test_context_tables_are_named_only_by_their_memo_calls():
    # each lazily filled table of the context is named where __init__ makes
    # it and otherwise only as the table a _memo call reads: no module reads,
    # writes or aliases one except through GaloisContext._memo
    tables = {"_quotient_cache", "_iso_cache", "_digest_names",
              "_report_cache", "_composition_cache", "_reach_rows", "_literal_rows"}
    made, memoized, stray = [], set(), []
    for path in sorted(pathlib.Path(dis.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "GaloisContext":
                init = next(f for f in node.body if getattr(f, "name", "") == "__init__")
                for stmt in init.body:
                    if isinstance(stmt, ast.AnnAssign) and getattr(stmt.target, "attr", "") in tables:
                        made.append(stmt.target.attr)
                        allowed.add(id(stmt.target))
            elif (isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "_memo"
                    and node.args and getattr(node.args[0], "attr", "") in tables):
                memoized.add(node.args[0].attr)
                allowed.add(id(node.args[0]))
        stray += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in tables
                  and id(node) not in allowed]
    assert sorted(made) == sorted(tables) and memoized == tables
    assert stray == []


def test_freed_contexts_leave_no_group_behind():
    # every quotient, isomorphism and M(L/K) memo lives on its context, so a
    # long-lived process that drops its contexts keeps none of their groups
    specs = [gal.to_instance_dict(get_ctx(s))
             for s in ("radical:a=2,n=6", "radical:a=3,n=4", "selmer-serre:n=4")]

    def live_groups():
        gc.collect()
        return sum(isinstance(o, pg.AbstractGroup) for o in gc.get_objects())

    def query(spec):  # what check-equiv and refine ask of a context
        ctx = presets.from_dict(spec)
        K, N = ctx.base, ctx.top_closure
        normal = [F for F in ctx.all_fields() if gal.is_galois(ctx, F, K)]
        assert all(dis.intourability_field(ctx, F, K).M == F for F in normal)
        for F in normal:
            for F2 in normal:
                t1, t2 = tw.Tower(ctx, [K, F, N]), tw.Tower(ctx, [K, F2, N])
                assert tw.equivalence_witness(t1, t1) is not None
                dis.schreier_refine(t1, t2)
        return len(ctx._quotient_cache)

    before = live_groups()
    assert all(query(spec) > 0 for spec in specs)
    assert live_groups() == before


def test_fresh_context_is_safe_to_share_between_threads():
    # The lazily filled state (the context's quotient cache, its
    # isomorphism memo, reports of M(L/K) and digest names, and the greedy
    # generators of every subgroup that is not its class's representative)
    # starts empty on a context built from a dict; four threads then fill
    # the shared context's memos concurrently.
    # Group._inv/_orders are already filled when the context is built.
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

    serial_ctx = presets.from_dict(spec)
    n = len(serial_ctx.subgroups)
    expected = answers(serial_ctx, range(n))

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


def test_two_threads_fill_one_composition_and_one_isomorphism_key_alike():
    # two threads, started together on a fresh context, miss the same
    # composition key, the same isomorphism key and the same reach row
    # and store what they checked; each gets the serial answer, and the
    # memos keep one
    spec = gal.to_instance_dict(get_ctx("radical:a=2,n=12"))

    def answers(ctx):
        K, L = ctx.base, ctx.distinguished
        m = (K, ctx.field_by_name("Q(zeta12)"))
        comp = dis.composition_tower_general(ctx, L, K)
        galtourable = [dis.is_galtourable(ctx, E, K) for E in ctx.all_fields()]
        return ([f.pos for f in comp.fields], ctx.isomorphism(m, m), galtourable,
                ctx._reach_rows[K])
    expected = answers(presets.from_dict(spec))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared, start, results = presets.from_dict(spec), threading.Barrier(2), [None] * 2

            def work(k):
                start.wait()
                results[k] = answers(shared)
            threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert results == [expected] * 2
            assert len(shared._composition_cache) == len(shared._iso_cache) == 1
            assert list(shared._reach_rows) == [shared.base]
    finally:
        sys.setswitchinterval(old)
