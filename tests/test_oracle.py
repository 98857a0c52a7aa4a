"""Brute-force oracles and the agreement matrix."""

from __future__ import annotations

import gc
import inspect
import weakref

import pytest

import galtour.dissociation as dis
import galtour.galois as gal
import galtour.oracle as orc
import galtour.permgroup as pg
import galtour.towers as tw
from galtour import presets
from galtour.permgroup import Permutation as P
from conftest import get_ctx, is_simple, small_contexts


def test_oracle_report_invariant():
    ok = orc.OracleReport("x", "op", True)
    assert repr(ok) == ("OracleReport(instance='x', operation='op', "
                        "agreement=True, counterexample=None)")
    assert ok == orc.OracleReport("x", "op", True)
    assert ok != orc.OracleReport("x", "op", False, "boom")
    with pytest.raises(AttributeError):
        ok.agreement = False
    with pytest.raises(ValueError):
        ok._replace(agreement=False)
    with pytest.raises(ValueError):
        orc.OracleReport("x", "op", True, "boom")
    with pytest.raises(ValueError):
        orc.OracleReport("x", "op", False)


def test_bf_galtourable_examples(r24, r26):
    assert not orc.bf_galtourable(r26, r26.distinguished, r26.base)
    assert orc.bf_galtourable(r24, r24.distinguished, r24.base)
    # a Galois pair succeeds at depth 1
    s2 = r26.field_by_name("Q(sqrt2)")
    assert orc.bf_galtourable(r26, s2, r26.base)


def test_bf_galtourable_agrees_everywhere():
    for name, ctx in small_contexts().items():
        fields = ctx.all_fields()
        for F in fields:
            for E in fields:
                if F <= E:
                    assert orc.bf_galtourable(ctx, E, F) == \
                        dis.is_galtourable(ctx, E, F), (name, E.name, F.name)


def test_bf_intourability_examples(r26, r24, r29):
    M, count = orc.bf_intourability(r26, r26.distinguished, r26.base)
    assert M.name == "Q(sqrt2)" and count == 1
    M, count = orc.bf_intourability(r24, r24.distinguished, r24.base)
    assert M == r24.distinguished  # galtourable case: M = L
    M, count = orc.bf_intourability(r29, r29.distinguished, r29.base)
    assert M == r29.base  # galsimple non-Galois case: M = K


def test_bf_composition_towers(klein, c4ctx, ss3):
    ts = orc.bf_composition_towers(klein, klein.top_closure, klein.base)
    assert len(ts) == 3
    for a in ts:
        for b in ts:
            assert tw.equivalence_witness(a, b) is not None
    # a simple Galois group gives exactly one tower [K, L]
    a3 = ss3.field_of(next(sg for sg in ss3.subgroups if sg.order == 3))
    ts = orc.bf_composition_towers(ss3, a3, ss3.base)
    assert ts == [tw.make_tower(ss3, [ss3.base, a3])]
    # C4 has a unique composition tower, of height 2
    ts = orc.bf_composition_towers(c4ctx, c4ctx.top_closure, c4ctx.base)
    assert len(ts) == 1 and ts[0].height == 2


def test_enumerate_towers(r24):
    towers = orc.enumerate_towers(r24, r24.base, r24.distinguished, 2)
    assert tw.make_tower(
        r24, [r24.base, r24.field_by_name("Q(sqrt2)"), r24.distinguished]) \
        in towers
    assert all(t.height <= 2 for t in towers)


def test_bf_refinement_predicates_shipped():
    for name, ctx in small_contexts().items():
        if ctx.group.order > 24:
            continue
        rep = orc.bf_refinement_predicates(ctx, 4, sample=400, instance=name)
        assert rep.agreement, rep.counterexample


def test_bf_refinement_predicates_order_24_sample(ss4):
    rep = orc.bf_refinement_predicates(ss4, 3, base=ss4.base,
                                       top=ss4.top_closure,
                                       sample=1000, instance="ss4")
    assert rep.agreement, rep.counterexample


def test_question_scan_trivial_and_small(r26):
    triv = get_ctx("c4")
    rep = orc.quadrilateral_question_scan(triv, "c4")
    assert rep.agreement  # everything abelian: all quadrilaterals parallelograms
    rep12 = orc.quadrilateral_question_scan(r26, "r26")
    assert rep12.operation == "quadrilateral_questions"
    assert isinstance(rep12.agreement, bool)  # empirical content, no gate


def test_question_scan_parallelogram_subcase():
    # over parallelograms the answers are affirmative: re-run the scan
    # restricted to a context whose galtourable quadrilaterals are all
    # parallelograms (abelian closure group)
    ctx = get_ctx("zeta15")
    rep = orc.quadrilateral_question_scan(ctx, "zeta15")
    assert rep.agreement, rep.counterexample


def test_agreement_suite_runs():
    instances = {name: ctx for name, ctx in small_contexts().items()
                 if ctx.group.order <= 24}
    matrix = orc.run_agreement_suite(instances, max_height=3, sample=200)
    assert matrix["all_agree"]
    for name in instances:
        ops = matrix["instances"][name]
        assert set(ops) == {"is_galtourable", "is_galsimple",
                            "refinement_predicates", "intourability"}
        for cell in ops.values():
            assert cell["agreement"]


def test_oracles_do_not_call_the_main_path(monkeypatch):
    # the oracles decide normality and subnormality by their own literal
    # scans, not through permgroup or the context's normalizer positions and
    # subnormal closure; only the contexts (built before patching) come from
    # permgroup
    contexts = small_contexts()

    def banned(*args, **kwargs):
        raise AssertionError("oracle called the main path")
    for fn in ("is_normal", "normal_closure", "subnormal_closure", "all_subgroups"):
        monkeypatch.setattr(pg, fn, banned)
    for method in ("subnormal_closure", "normal_in", "galois_steps", "covers"):
        monkeypatch.setattr(gal.GaloisContext, method, banned)
    monkeypatch.setattr(orc, "_literal_normal_memo", {})
    monkeypatch.setattr(orc, "_literal_subnormal_memo", {})
    for name, ctx in contexts.items():
        K, L = ctx.base, ctx.distinguished
        assert isinstance(orc.bf_galtourable(ctx, L, K), bool), name
        assert orc.bf_intourability(ctx, L, K)[1] == 1, name
        for E in ctx.all_fields():
            assert K <= orc.bf_smallest_subnormal(ctx, E, K) <= E, (name, E.name)
            assert isinstance(orc._literal_galsimple(ctx, E, K), bool), name
        assert orc.bf_composition_towers(ctx, ctx.top_closure, K), name
    # nor do they read the index's normalizer positions or Galois row
    source = inspect.getsource(orc)
    assert "_nbelow" not in source and "_npos" not in source


def test_literal_normal_memo_ignores_freed_groups():
    # D4 and C8 share the subgroup key (0, 4): <(1 3)> is not normal in D4,
    # <r^4> is normal in C8.  A memo keyed by id(group) answered for a C8
    # allocated where a freed D4 had lived with the stale D4 verdict.
    for _ in range(50):
        d4 = pg.generate(4, [P.from_cycles("(1 2 3 4)", 4), P.from_cycles("(1 3)", 4)])
        refl = d4.generated_subgroup([d4.index_of(P.from_cycles("(1 3)", 4))])
        assert refl.key == (0, 4)
        assert not orc.literal_is_normal(refl, d4.full_subgroup())
        del d4, refl
        c8 = pg.generate(8, [P.from_cycles("(1 2 3 4 5 6 7 8)", 8)])
        half = c8.generated_subgroup([4])
        assert half.key == (0, 4)
        assert orc.literal_is_normal(half, c8.full_subgroup())


def test_literal_normal_memo_drops_entries_of_freed_groups():
    # the memo must not keep a group alive, nor its entries once it is freed
    sources = ["klein", "zeta15", "radical:a=2,n=4", "radical:a=2,n=6",
               "selmer-serre:n=3"]
    gc.collect()
    memos = (orc._literal_normal_memo, orc._literal_subnormal_memo)
    before = [set(memo) for memo in memos]  # the groups already in each memo
    refs = []
    for name in sources:
        ctx = presets.from_dict(gal.to_instance_dict(get_ctx(name)))
        assert orc.run_agreement_suite({name: ctx}, sample=50)["all_agree"]
        for memo in memos:
            assert memo.get(ctx.group), name
        refs.append(weakref.ref(ctx.group))
        del ctx
    gc.collect()
    assert [r for r in refs if r() is not None] == []
    for memo, old in zip(memos, before):
        assert set(memo) <= old


def test_normal_closure_is_least_literally_normal_overgroup():
    for name, ctx in small_contexts().items():
        for B in ctx.subgroups:
            # canonical order is by order first, so the first hit is least
            normal = [N for N in ctx.subgroups
                      if N <= B and orc.literal_is_normal(N, B)]
            for H in ctx.subgroups:
                if H <= B:
                    least = next(N for N in normal if H <= N)
                    assert pg.normal_closure(H, B) == least, (name, H.key, B.key)


def test_is_simple_agrees_with_literal_galsimple():
    for name, ctx in small_contexts().items():
        for B in ctx.subgroups:
            for N in ctx.subgroups:
                if N <= B and orc.literal_is_normal(N, B):
                    E, F = ctx.field_of(N), ctx.field_of(B)
                    assert is_simple(pg.quotient(B, N)) == \
                        orc._literal_galsimple(ctx, E, F), (name, E.name, F.name)


def test_interval_fields_and_normal_in_agree_with_literal_scans():
    for name in ("klein", "radical:a=2,n=12", "selmer-serre:n=4"):
        ctx = get_ctx(name)
        fields = ctx.all_fields()
        for E in fields:
            for F in fields:
                lo, hi = E.subgroup, F.subgroup
                if lo <= hi:
                    assert ctx.interval_fields(F, E) == \
                        [M for M in fields if lo <= M.subgroup <= hi], (name, lo.key, hi.key)
                    assert ctx.normal_in(lo, hi) == \
                        orc.literal_is_normal(lo, hi), (name, lo.key, hi.key)
