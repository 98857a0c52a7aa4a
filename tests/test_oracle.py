"""Brute-force oracles and the agreement matrix."""

from __future__ import annotations

import ast
import gc
import inspect
import random
import sys
import threading
import tracemalloc
import weakref
from collections.abc import MutableMapping, MutableSequence, MutableSet

import pytest
from hypothesis import assume, event, given, settings, strategies as st

import galtour.dissociation as dis
import galtour.galois as gal
import galtour.oracle as orc
import galtour.permgroup as pg
import galtour.towers as tw
from galtour import presets
from galtour.permgroup import Permutation as P
from conftest import (contexts_up_to_120, get_ctx, is_simple,
                      literal_chain_search, literal_galsimple_scan,
                      literal_normal_scan, small_contexts)


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
    # N/K of S4: a context of the same group, whose L is N
    rep = orc.bf_refinement_predicates(gal.GaloisContext(ss4.group), 3,
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
    matrix = orc.run_agreement_suite(instances, sample=200)
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
    for ctx in contexts.values():
        ctx._literal_rows.clear()
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
    # <r^4> is normal in C8.  A memo keyed by id(group) answered for a
    # group allocated where a freed one had lived with the rows of the
    # other lattice: D4's row at C8's top position is that of a subgroup
    # of order 2, and C8's rows cover 4 of D4's 10 positions.
    for _ in range(10):
        d4 = pg.generate(4, [P.from_cycles("(1 2 3 4)", 4), P.from_cycles("(1 3)", 4)])
        refl = d4.generated_subgroup([d4.index_of(P.from_cycles("(1 3)", 4))])
        assert refl.key == (0, 4)
        assert not orc.literal_is_normal(refl, d4.full_subgroup())
        ctx = gal.GaloisContext(d4)
        for E in ctx.all_fields():  # fills D4's rows at every position
            assert orc.bf_galtourable(ctx, E, ctx.base)
        assert not orc._rows(ctx)[0][ctx.base.pos] >> ctx.field_of(refl).pos & 1
        del d4, refl, ctx, E
        gc.collect()
        c8 = pg.generate(8, [P.from_cycles("(1 2 3 4 5 6 7 8)", 8)])
        half = c8.generated_subgroup([4])
        assert half.key == (0, 4)
        assert orc.literal_is_normal(half, c8.full_subgroup())
        ctx = gal.GaloisContext(c8)
        assert orc._rows(ctx)[0][ctx.base.pos] >> ctx.field_of(half).pos & 1
        del c8, half, ctx
        gc.collect()


def test_literal_normal_memo_drops_entries_of_freed_groups():
    # the rows live on their context and go with it: nothing keeps a
    # context alive, and the oracle module holds no memo of its own
    sources = ["klein", "zeta15", "radical:a=2,n=4", "radical:a=2,n=6",
               "selmer-serre:n=3"]
    refs = []
    for name in sources:
        ctx = presets.from_dict(gal.to_instance_dict(get_ctx(name)))
        assert orc.run_agreement_suite({name: ctx}, sample=50)["all_agree"]
        assert ctx._literal_rows, name
        refs.append(weakref.ref(ctx))
        del ctx
    gc.collect()
    assert [r for r in refs if r() is not None] == []
    assert [name for name, value in vars(orc).items() if not name.startswith("__")
            and isinstance(value, (MutableMapping, MutableSequence, MutableSet))] == []


def test_agreement_suite_scans_each_position_once(monkeypatch):
    # one pass builds every row: one class scan per position, kept as one
    # entry, for the whole suite and for any later oracle call
    classes, scanned = orc._classes, []

    def counted(B):
        scanned.append(B)
        return classes(B)
    monkeypatch.setattr(orc, "_classes", counted)
    ctx = presets.from_dict(gal.to_instance_dict(get_ctx("radical:a=2,n=12")))
    assert orc.run_agreement_suite({"r12": ctx}, sample=50)["all_agree"]
    assert scanned == ctx.subgroups
    assert list(ctx._literal_rows) == ["rows"]
    assert orc.bf_galtourable(ctx, ctx.distinguished, ctx.base) is False
    assert len(scanned) == len(ctx.subgroups) and len(ctx._literal_rows) == 1


def test_no_oracle_function_calls_itself():
    # the rows are built in one ordered pass and the towers enumerated from
    # an explicit stack, so no depth limit applies
    for fn in ast.walk(ast.parse(inspect.getsource(orc))):
        if isinstance(fn, ast.FunctionDef):
            calls = {node.func.id for node in ast.walk(fn)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
            assert fn.name not in calls, fn.name


def test_agreement_suite_on_one_context_shared_by_four_threads():
    # four threads fill the rows of one fresh context at once; a race may
    # rewrite an entry, never change a verdict
    def fresh():
        return presets.from_dict(gal.to_instance_dict(get_ctx("radical:a=2,n=12")))
    expected = orc.run_agreement_suite({"r12": fresh()}, sample=50)
    ctx, barrier, results = fresh(), threading.Barrier(4), [None] * 4

    def work(i):
        barrier.wait()
        results[i] = orc.run_agreement_suite({"r12": ctx}, sample=50)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    assert expected["all_agree"]
    assert results == [expected] * 4


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


def _reference_intourability(ctx, L, K, seen):
    """The M fields of L/K by the reference scans: K reaches M, and L == M
    or L/M is galsimple and not Galois."""
    return [M for M in ctx.interval_fields(K, L)
            if literal_chain_search(ctx, M, K, seen)
            and (L == M or (literal_galsimple_scan(ctx, L, M)
                            and not literal_normal_scan(L.subgroup, M.subgroup)))]


def test_literal_rows_agree_with_the_reference_scans():
    # every comparable pair of the contexts up to order 120, S4 and S5 included
    for name, ctx in contexts_up_to_120().items():
        seen: dict = {}
        for F in ctx.all_fields():
            above = ctx.interval_fields(F, ctx.top_closure)
            assert orc._rows(ctx)[0][F.pos] == sum(
                1 << M.pos for M in above
                if literal_normal_scan(M.subgroup, F.subgroup)), (name, F.name)
            for E in above:
                where = (name, E.name, F.name)
                assert orc.literal_is_normal(E.subgroup, F.subgroup) == \
                    literal_normal_scan(E.subgroup, F.subgroup), where
                assert orc.bf_galtourable(ctx, E, F) == \
                    literal_chain_search(ctx, E, F, seen), where
                galsimple = literal_galsimple_scan(ctx, E, F)
                assert orc._literal_galsimple(ctx, E, F) == galsimple, where
                assert dis.is_galsimple(ctx, E, F) == galsimple, where
                assert [orc.bf_intourability(ctx, E, F)[0]] == \
                    _reference_intourability(ctx, E, F, seen), where


def test_literal_oracles_refuse_unnested_fields(r26):
    E, F = r26.field_by_name("Q(sqrt2)"), r26.field_by_name("Q(zeta3)")
    for literal in (orc._literal_galsimple, orc.bf_galtourable, orc.bf_intourability):
        with pytest.raises(gal.GaloisError):
            literal(r26, E, F)
    with pytest.raises(gal.GaloisError):
        orc.literal_is_normal(E.subgroup, F.subgroup)


@st.composite
def _small_groups(draw):
    degree = draw(st.integers(min_value=2, max_value=7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    try:
        return pg.generate(degree, [P(g) for g in gens], bound=120)
    except pg.BoundExceeded:
        assume(False)


@settings(max_examples=200)  # the suite profile otherwise, derandomized
@given(_small_groups())
def test_literal_rows_and_nbelow_agree_on_random_groups(group):
    # random generator sets on at most 7 points, |G| <= 120: S5, A5 and
    # other groups that are not solvable come up
    event(f"|G| = {group.order}")
    ctx = gal.GaloisContext(group)
    for F in ctx.all_fields():
        scan = sum(1 << M.pos for M in ctx.interval_fields(F, ctx.top_closure)
                   if literal_normal_scan(M.subgroup, F.subgroup))
        assert orc._rows(ctx)[0][F.pos] == scan
        assert ctx._nbelow[F.pos] == scan


@pytest.mark.parametrize("k", [200, 400, 500])
def test_index_sampling_draws_the_pairs_of_the_list(k):
    # random.sample draws from the population's length alone, so sampling
    # pair indices picks the pairs a sample of the pair list would, both
    # where random.sample copies the population and where it does not
    for n in [*range(15, 40), 300]:
        pairs = [(e, f) for e in range(n) for f in range(n)]
        if len(pairs) <= k:
            continue
        listed = random.Random(orc.SAMPLE_SEED).sample(pairs, k)
        drawn = random.Random(orc.SAMPLE_SEED).sample(range(n * n), k)
        assert listed == [(i // n, i % n) for i in drawn], (n, k)


def test_oracle_on_c2_to_the_5_times_c3_fits_in_memory():
    # 748 subgroups, TOWER_CAP towers: a list of every tower pair held
    # 16 M tuples, over a gigabyte
    ctx = presets.from_dict({
        "degree": 13, "fields": {"L": []}, "distinguished": "L",
        "generators": ["(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)",
                       "(11 12 13)"]})
    assert len(orc.enumerate_towers(ctx, ctx.base, ctx.distinguished, 3)) \
        == orc.TOWER_CAP
    assert orc.run_agreement_suite({"c2^5xc3": ctx})["all_agree"]
    tracemalloc.start()  # the sampled pairs the suite checked, again
    try:
        report = orc.bf_refinement_predicates(ctx, 3, sample=500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.agreement
    assert peak < 100 * 2**20, peak
