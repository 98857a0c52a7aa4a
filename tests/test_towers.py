"""Tower calculus: refinements, strict associated towers, res/rat/inf."""

from __future__ import annotations

import ast
import itertools
import pathlib
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

import galtour.dissociation as dis
import galtour.galois as gal
import galtour.permgroup as pg
import galtour.towers as tw
from galtour import presets
from galtour.oracle import bf_composition_towers, bf_intourability, enumerate_towers
from conftest import contexts_up_to_120, get_ctx


# ---------------------------------------------------------------------------
# construction


def test_make_tower_trivial(r26):
    t = tw.make_tower(r26, [r26.base])
    assert t.height == 0
    assert tw.is_strict(t) and tw.is_galois_tower(t) and dis.is_galtourable_tower(t)


def test_towers_imports_nothing_from_dissociation():
    # dissociation imports towers and owns galtourability: no import cycle
    tree = ast.parse(pathlib.Path(tw.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
    assert names and not any("dissociation" in n for n in names)


def test_make_tower_allows_repetitions(r26):
    L, K = r26.distinguished, r26.base
    t = tw.make_tower(r26, [K, K, L])
    assert t.height == 2 and not tw.is_strict(t)


def test_make_tower_rejects_non_monotone(r26):
    L, K = r26.distinguished, r26.base
    s2 = r26.field_by_name("Q(sqrt2)")
    with pytest.raises(tw.TowerError):
        tw.make_tower(r26, [K, L, s2])


def test_galois_tower_examples(r24, r26):
    K4 = r24.base
    t = tw.make_tower(r24, [K4, r24.field_by_name("Q(sqrt2)"),
                            r24.field_by_name("Q(4rt2)")])
    assert tw.is_galois_tower(t)
    t2 = tw.make_tower(r26, [r26.base, r26.field_by_name("Q(3rt2)"),
                             r26.field_by_name("Q(6rt2)")])
    assert not tw.is_galois_tower(t2)  # neither marche is Galois over the base


def test_height_bound(r24, r26):
    t = tw.make_tower(r24, [r24.base, r24.field_by_name("Q(sqrt2)"),
                            r24.field_by_name("Q(4rt2)")])
    assert tw.height_bound_check(t)  # height 2 <= Omega(4) = 2
    triv = tw.make_tower(r26, [r26.base])
    assert tw.height_bound_check(triv)
    assert tw.big_omega(54) == 4 and tw.big_omega(1) == 0
    with pytest.raises(tw.TowerError):
        tw.height_bound_check(tw.make_tower(r26, [r26.base, r26.base]))


# ---------------------------------------------------------------------------
# refinement witnesses


def test_identity_witness(r26):
    L, K = r26.distinguished, r26.base
    t = tw.make_tower(r26, [K, r26.field_by_name("Q(sqrt2)"), L])
    w = tw.refinement_witness(t, t)
    assert w == (0, 1, 2)


def test_basic_witness(r26):
    L, K = r26.distinguished, r26.base
    e = tw.make_tower(r26, [K, r26.field_by_name("Q(sqrt2)"), L])
    f = tw.make_tower(r26, [K, L])
    assert tw.refinement_witness(e, f) == (0, 2)
    # a shorter tower never refines a taller one (RAF1)
    assert tw.refinement_witness(f, e) is None


def test_witness_requires_same_extension(r26, r24):
    t1 = tw.make_tower(r26, [r26.base, r26.distinguished])
    t2 = tw.make_tower(r26, [r26.base, r26.top_closure])
    with pytest.raises(tw.TowerError):
        tw.refinement_witness(t1, t2)


def test_witness_is_lexicographically_smallest(r26):
    K = r26.base
    e = tw.make_tower(r26, [K, K, K])
    f = tw.make_tower(r26, [K, K])
    # all witnesses: (0,1), (0,2), (1,2); greedy picks (0,1)
    assert tw.refinement_witness(e, f) == (0, 1)


def test_proper_trivial_galois_refinement(r26):
    L, K = r26.distinguished, r26.base
    c = r26.field_by_name("Q(3rt2)")
    f = tw.make_tower(r26, [K, L])
    e = tw.make_tower(r26, [K, c, L])
    assert tw.is_proper_refinement(e, f)
    assert not tw.is_trivial_refinement(e, f)
    assert not tw.is_galois_refinement(e, f)  # Q(3rt2)/Q is not Galois
    # every trivial refinement is Galois
    pad = tw.make_tower(r26, [K, K, L, L])
    assert tw.is_trivial_refinement(pad, f)
    assert tw.is_galois_refinement(pad, f)


def test_galois_tower_refinement_is_galois_refinement(r24):
    # a refinement that is a Galois tower is a Galois refinement
    K, L = r24.base, r24.distinguished
    f = tw.make_tower(r24, [K, L])
    e = tw.make_tower(r24, [K, r24.field_by_name("Q(sqrt2)"), L])
    assert tw.is_galois_tower(e)
    assert tw.is_galois_refinement(e, f)


def test_refinement_transitivity():
    # witnesses compose: r refines e and e refines f imply r refines f;
    # same for the Galois property
    ctx = get_ctx("radical:a=2,n=6")
    towers = enumerate_towers(ctx, ctx.base, ctx.distinguished, 3)
    for f in towers:
        for e in towers:
            if tw.refinement_witness(e, f) is None:
                continue
            for r in towers:
                if tw.refinement_witness(r, e) is None:
                    continue
                assert tw.refinement_witness(r, f) is not None
                if tw.is_galois_refinement(e, f) and tw.is_galois_refinement(r, e):
                    assert tw.is_galois_refinement(r, f)


def test_galois_refinement_of_galois_tower_is_galois_tower():
    for name in ("klein", "radical:a=2,n=4", "radical:a=2,n=6", "selmer-serre:n=3"):
        ctx = get_ctx(name)
        towers = enumerate_towers(ctx, ctx.base, ctx.top_closure, 3)
        galois_towers = [t for t in towers if tw.is_galois_tower(t)]
        for f in galois_towers:
            for e in towers:
                if tw.refinement_witness(e, f) is not None \
                        and tw.is_galois_refinement(e, f):
                    assert tw.is_galois_tower(e), (name, e, f)


def test_galois_verdict_read_at_build_matches_each_marche():
    seen = dict.fromkeys(itertools.product((True, False), repeat=2), 0)
    for name, ctx in contexts_up_to_120().items():
        for t in enumerate_towers(ctx, ctx.base, ctx.top_closure, 3):
            verdict = all(gal.is_galois(ctx, b, a) for a, b in t.marches())
            assert tw.is_galois_tower(t) is verdict, (name, t)
            seen[verdict, tw.is_strict(t)] += 1
    # Galois and non-Galois towers, each with and without repeated fields
    assert min(seen.values()) > 0, seen


# ---------------------------------------------------------------------------
# strict associated towers


def test_strict_associated_examples(r26):
    L, K = r26.distinguished, r26.base
    s2 = r26.field_by_name("Q(sqrt2)")
    strict = tw.make_tower(r26, [K, s2, L])
    assert tw.strict_associated(strict) == strict
    padded = tw.make_tower(r26, [K, K, s2, s2, L])
    assert tw.strict_associated(padded) == strict


def test_strict_associated_reads_one_refinement_witness(r26, monkeypatch):
    padded = tw.make_tower(r26, [r26.base, r26.base, r26.field_by_name("Q(sqrt2)"),
                                 r26.distinguished])
    calls = []
    refinement_witness = tw.refinement_witness
    monkeypatch.setattr(tw, "refinement_witness",
                        lambda e, f: calls.append((e, f)) or refinement_witness(e, f))
    s = tw.strict_associated(padded)
    assert calls == [(padded, s)]


def test_strict_associated_marches_are_marches_of_original():
    ctx = get_ctx("radical:a=2,n=4")
    for t in enumerate_towers(ctx, ctx.base, ctx.top_closure, 5):
        s = tw.strict_associated(t)
        original = set(t.marches())
        for marche in s.marches():
            assert marche in original


def test_strict_associated_commutes_with_refinement():
    ctx = get_ctx("radical:a=2,n=6")
    towers = enumerate_towers(ctx, ctx.base, ctx.distinguished, 3)
    for f in towers:
        for e in towers:
            if tw.refinement_witness(e, f) is None:
                continue
            assert tw.refinement_witness(
                tw.strict_associated(e), tw.strict_associated(f)) is not None
            if tw.is_galois_refinement(e, f):
                assert tw.is_galois_refinement(
                    tw.strict_associated(e), tw.strict_associated(f))


def test_strict_associated_of_galois_tower_is_galois(r24):
    K, L = r24.base, r24.distinguished
    s2 = r24.field_by_name("Q(sqrt2)")
    t = tw.make_tower(r24, [K, K, s2, L, L])
    assert tw.is_galois_tower(t)
    s = tw.strict_associated(t)
    assert tw.is_galois_tower(s) and tw.is_strict(s)


# ---------------------------------------------------------------------------
# res / rat / inf and combine


def _sample_tower(r26):
    return tw.make_tower(r26, [r26.base, r26.field_by_name("Q(sqrt2)"),
                               r26.field_by_name("Q(6rt2)")])


def test_res_rat_identities(r26):
    t = _sample_tower(r26)
    m = t.height
    assert tw.res(t, 0) == t
    assert tw.rat(t, m) == t
    assert tw.rat(t, 0).fields == (t.base,)
    assert tw.res(t, m).fields == (t.top,)
    assert tw.inf_top(t, m) == t  # t already ends at L
    assert tw.inf_top(t, 0).fields == (r26.distinguished,)
    with pytest.raises(tw.TowerError):
        tw.res(t, m + 1)


def test_combine_recovers_original(r26):
    t = _sample_tower(r26)
    for r in range(t.height + 1):
        assert tw.combine(t, r, tw.res(t, r), tw.rat(t, r)) == t


def test_combine_propagates_properness_and_galoisness():
    ctx = get_ctx("radical:a=2,n=4")
    f = tw.make_tower(ctx, [ctx.base, ctx.distinguished])
    subtowers = enumerate_towers(ctx, ctx.base, ctx.distinguished, 3)
    for r in range(f.height + 1):
        resf, ratf = tw.res(f, r), tw.rat(f, r)
        S_opts = [t for t in subtowers if t.base == resf.base and t.top == resf.top
                  and tw.refinement_witness(t, resf) is not None] \
            if resf.height else [resf]
        R_opts = [ratf]
        for S in S_opts:
            for R in R_opts:
                E = tw.combine(f, r, S, R)
                assert tw.refinement_witness(E, f) is not None
                if tw.is_proper_refinement(S, resf) or \
                        (R.height and tw.is_proper_refinement(R, ratf)):
                    assert tw.is_proper_refinement(E, f)
                if tw.is_galois_refinement(S, resf) and \
                        tw.is_galois_refinement(R, ratf):
                    assert tw.is_galois_refinement(E, f)


def test_res_rat_of_refinement_refines_res_rat():
    ctx = get_ctx("radical:a=2,n=6")
    f = tw.make_tower(ctx, [ctx.base, ctx.field_by_name("Q(sqrt2)"),
                            ctx.distinguished])
    towers = enumerate_towers(ctx, ctx.base, ctx.distinguished, 4)
    for e in towers:
        w = tw.refinement_witness(e, f)
        if w is None:
            continue
        for r in range(f.height + 1):
            jr = w[r]
            assert tw.refinement_witness(tw.res(e, jr), tw.res(f, r)) is not None
            assert tw.refinement_witness(tw.rat(e, jr), tw.rat(f, r)) is not None
            if tw.is_galois_refinement(e, f):
                assert tw.is_galois_refinement(tw.res(e, jr), tw.res(f, r))
                assert tw.is_galois_refinement(tw.rat(e, jr), tw.rat(f, r))
            if tw.is_proper_refinement(e, f):
                assert tw.is_proper_refinement(tw.res(e, jr), tw.res(f, r)) or \
                    tw.is_proper_refinement(tw.rat(e, jr), tw.rat(f, r))


# ---------------------------------------------------------------------------
# induced towers


def test_induced_examples(r26):
    L = r26.distinguished
    s2 = r26.field_by_name("Q(sqrt2)")
    t = tw.make_tower(r26, [r26.base, s2])
    ind = tw.induced(t, L)
    assert ind.fields == t.fields + (L,)
    assert tw.induced(ind, L) == ind  # already tops at L
    assert tw.is_strict(t) == tw.is_strict(ind)
    assert tw.rat(ind, t.height) == t
    with pytest.raises(tw.TowerError):
        tw.induced(tw.make_tower(r26, [r26.base, r26.top_closure]), L)


def test_induced_strictness_equivalence(r26):
    L = r26.distinguished
    t = tw.make_tower(r26, [r26.base, r26.base])
    assert not tw.is_strict(t) and not tw.is_strict(tw.induced(t, L))


# ---------------------------------------------------------------------------
# equivalence of Galois towers


def test_equivalence_identity(r24):
    t = tw.make_tower(r24, [r24.base, r24.field_by_name("Q(sqrt2)"),
                            r24.distinguished])
    w = tw.equivalence_witness(t, t)
    assert w.sigma == (1, 2)


def test_equivalence_biquadratic(klein):
    N = klein.top_closure
    t1 = tw.make_tower(klein, [klein.base, klein.field_by_name("Q(sqrt2)"), N])
    t2 = tw.make_tower(klein, [klein.base, klein.field_by_name("Q(sqrt3)"), N])
    w = tw.equivalence_witness(t1, t2)
    assert w is not None
    for q in tw.marche_groups(t1):
        assert q.order == 2


def test_equivalence_height_mismatch(r24):
    K, L = r24.base, r24.distinguished
    s2 = r24.field_by_name("Q(sqrt2)")
    t2 = tw.make_tower(r24, [K, s2, L])
    t3 = tw.make_tower(r24, [K, K, s2, L])
    assert tw.equivalence_witness(t2, t3) is None


def test_equivalence_requires_galois(r26):
    t = tw.make_tower(r26, [r26.base, r26.field_by_name("Q(3rt2)"),
                            r26.distinguished])
    with pytest.raises(tw.TowerError):
        tw.equivalence_witness(t, t)


def test_marche_groups_require_a_galois_tower(r26):
    t = tw.make_tower(r26, [r26.base, r26.field_by_name("Q(3rt2)"),
                            r26.distinguished])
    with pytest.raises(tw.TowerError, match="marche groups require a Galois tower"):
        tw.marche_groups(t)


def test_marche_groups_check_each_marche_once(r26, monkeypatch):
    t = tw.make_tower(r26, [r26.base, r26.field_by_name("Q(zeta3)"), r26.top_closure])
    checked = []

    def counted(ctx, E, F):
        checked.append((F, E))
        return is_galois(ctx, E, F)
    is_galois = gal.is_galois
    monkeypatch.setattr(gal, "is_galois", counted)
    groups = tw.marche_groups(t)
    # the verdict was read when t was built
    assert checked == []
    assert [q.order for q in groups] == [2, 6]


def test_schreier_refine_and_equivalence_check_each_marche_once(r26, monkeypatch):
    t1 = tw.make_tower(r26, [r26.base, r26.field_by_name("Q(zeta3)"), r26.top_closure])
    t2 = tw.make_tower(r26, [r26.base, r26.field_by_name("Q(sqrt2)"), r26.top_closure])
    assert tw.is_galois_tower(t1) and tw.is_galois_tower(t2)
    calls = []

    def counted(ctx, E, F):
        calls.append((F, E))
        return is_galois(ctx, E, F)
    is_galois = gal.is_galois
    monkeypatch.setattr(gal, "is_galois", counted)
    r1, r2, _ = dis.schreier_refine(t1, t2)
    # the input check asks the 2 + 2 input marches, to name a non-Galois
    # one; the refined towers read their verdicts
    assert calls == list(t1.marches() + t2.marches())
    assert r1.height == r2.height == 4
    calls.clear()
    assert tw.equivalence_witness(t1, t1) is not None
    assert calls == []


def test_context_stores_only_verified_isomorphisms(monkeypatch):
    # a found map is verified before it is stored: a forged one is a
    # TheoremViolation and leaves no entry, and a witness reads it unverified
    ctx = presets.from_dict(gal.to_instance_dict(get_ctx("radical:a=2,n=12")))
    m = (ctx.base, ctx.field_by_name("Q(zeta12)"))
    key = m * 2
    are_isomorphic = pg.are_isomorphic

    def forged(*args, **kwargs):  # swap the images of two labels
        phi = are_isomorphic(*args, **kwargs)
        return (phi[1], phi[0]) + phi[2:]
    monkeypatch.setattr(pg, "are_isomorphic", forged)
    with pytest.raises(tw.TheoremViolation, match="marche isomorphism does not verify"):
        ctx.isomorphism(m, m)
    assert key not in ctx._iso_cache
    monkeypatch.setattr(pg, "are_isomorphic", are_isomorphic)
    phi = ctx.isomorphism(m, m)
    assert ctx._iso_cache[key] is phi
    monkeypatch.setattr(pg.AbstractGroup, "is_isomorphism",
                        lambda *a: pytest.fail("a stored isomorphism was verified again"))
    t = tw.make_tower(ctx, m)
    assert tw.equivalence_witness(t, t).isos == (phi,)
    assert ctx.isomorphism(m, m) is phi


def test_non_isomorphic_marches_are_searched_once(monkeypatch):
    # the memo keeps None for two non-isomorphic marches, so a repeat
    # question is a hit, not a second search
    ctx = presets.from_dict(gal.to_instance_dict(get_ctx("radical:a=2,n=4")))
    N = ctx.top_closure
    m1, m2 = (ctx.field_by_name("Q(sqrt2)"), N), (ctx.field_by_name("Q(zeta4)"), N)
    are_isomorphic, searches = pg.are_isomorphic, []

    def counted(*args, **kwargs):
        searches.append(args)
        return are_isomorphic(*args, **kwargs)
    monkeypatch.setattr(pg, "are_isomorphic", counted)
    for _ in range(3):
        assert ctx.isomorphism(m1, m2) is None
    assert len(searches) == 1 and ctx._iso_cache == {m1 + m2: None}


def test_witness_constructor_verifies_every_iso(r24):
    t = tw.make_tower(r24, [r24.base, r24.top_closure])
    good = tw.equivalence_witness(t, t)
    q = tw.marche_groups(t)
    assert tw.EquivalenceWitness(q, q, good.sigma, good.isos).isos == good.isos
    rejected = 0
    for x, y in itertools.combinations(range(1, q[0].order), 2):
        forged = list(good.isos[0])
        forged[x], forged[y] = forged[y], forged[x]
        if not q[0].is_isomorphism(q[0], forged):
            with pytest.raises(tw.TowerError, match="iso 1 is not an isomorphism"):
                tw.EquivalenceWitness(q, q, good.sigma, (forged,))
            rejected += 1
    assert rejected > 0
    with pytest.raises(tw.TowerError, match="sigma is not a permutation"):
        tw.EquivalenceWitness(q, q, (2,), good.isos)
    with pytest.raises(tw.TowerError, match="sigma is not a permutation"):
        tw.EquivalenceWitness(q, q + q, good.sigma, good.isos)


def test_quotients_keep_their_greedy_generators(monkeypatch):
    ctx = get_ctx("radical:a=2,n=12")
    quotients = [ctx.quotient_group(hi, lo) for lo in ctx.all_fields()
                 for hi in ctx.interval_fields(lo, ctx.top_closure)
                 if gal.is_galois(ctx, hi, lo)]
    assert len(quotients) > 100
    for q in quotients:
        assert q.gens() == q.greedy_generators(range(q.order))
        assert len(q.span(q.gens())) == q.order
    spans = []
    greedy = pg.AbstractGroup.greedy_generators
    monkeypatch.setattr(pg.AbstractGroup, "greedy_generators",
                        lambda self, labels: spans.append(self) or greedy(self, labels))
    for q in quotients[:40]:
        phi = pg.are_isomorphic(q, q)
        assert q.is_isomorphism(q, phi)
    assert spans == []  # both read the generators kept above


def test_tower_refusals_are_unchanged(r24, r26):
    K, L, s2 = r26.base, r26.distinguished, r26.field_by_name("Q(sqrt2)")
    with pytest.raises(tw.TowerError, match=r"^a tower has at least one field$"):
        tw.Tower(r26, [])
    message = f"non-monotone tower: {L.name} not contained in {s2.name}"
    with pytest.raises(tw.TowerError, match=f"^{re.escape(message)}$"):
        tw.Tower(r26, [K, L, s2])
    with pytest.raises(tw.TowerError,
                       match=r"^tower fields belong to a different context$"):
        tw.Tower(r26, [K, r24.top_closure])
    with pytest.raises(tw.TowerError,
                       match=r"^tower fields belong to a different context$"):
        tw.Tower(r24, [K])  # every field foreign, even a monotone one
    t = tw.Tower(r26, [K, K, s2, L])
    assert t.marches() == ((K, K), (K, s2), (s2, L)) and t.marches() is t.marches()


def test_equivalence_is_equivalence_relation(klein):
    N = klein.top_closure
    ts = [tw.make_tower(klein, [klein.base, klein.field_by_name(n), N])
          for n in ("Q(sqrt2)", "Q(sqrt3)", "Q(sqrt6)")]
    for a in ts:
        assert tw.equivalence_witness(a, a) is not None  # reflexive
        for b in ts:
            ab = tw.equivalence_witness(a, b)
            ba = tw.equivalence_witness(b, a)
            assert (ab is None) == (ba is None)  # symmetric
            for c in ts:
                if ab is not None and tw.equivalence_witness(b, c) is not None:
                    assert tw.equivalence_witness(a, c) is not None  # transitive


def test_equivalent_towers_have_equivalent_strict_associated(klein):
    N = klein.top_closure
    t1 = tw.make_tower(klein, [klein.base, klein.base,
                               klein.field_by_name("Q(sqrt2)"), N])
    t2 = tw.make_tower(klein, [klein.base, klein.field_by_name("Q(sqrt3)"),
                               N, N])
    assert tw.equivalence_witness(t1, t2) is not None
    s1, s2 = tw.strict_associated(t1), tw.strict_associated(t2)
    assert tw.equivalence_witness(s1, s2) is not None


def test_equivalence_witness_validation(klein):
    N = klein.top_closure
    t1 = tw.make_tower(klein, [klein.base, klein.field_by_name("Q(sqrt2)"), N])
    q1 = tw.marche_groups(t1)
    with pytest.raises(tw.TowerError):
        tw.EquivalenceWitness(q1, q1, (1, 1), ((0, 1), (0, 1)))  # not a bijection
    with pytest.raises(tw.TowerError):
        tw.EquivalenceWitness(q1, q1, (1, 2), ((1, 0), (0, 1)))  # not a hom


def test_equivalence_witness_rejects_a_bijection_that_is_no_hom(r24):
    t = tw.make_tower(r24, [r24.base, r24.top_closure])
    good = tw.equivalence_witness(t, t)
    q = tw.marche_groups(t)[0]
    assert q.order == 8 and not q.is_abelian()
    rejected = 0
    for x, y in itertools.combinations(range(1, q.order), 2):
        bad = list(good.isos[0])
        bad[x], bad[y] = bad[y], bad[x]  # a bijection fixing the identity
        if any(bad[q.table[a][b]] != q.table[bad[a]][bad[b]]
               for a in range(q.order) for b in range(q.order)):
            with pytest.raises(tw.TowerError, match="not an isomorphism"):
                tw.EquivalenceWitness([q], [q], good.sigma, (tuple(bad),))
            rejected += 1
    assert rejected > 0


# ---------------------------------------------------------------------------
# the refusal of each shared precondition, one message per check


def _equivalence_general(c1, c2):
    return dis.equivalence_general(c1.ctx, c1, c2)


def _inf_to_top(t, r):
    return tw.inf_to(t, r, t.top)


_SAME_EXTENSION = [
    (tw.refinement_witness, "refinement requires towers of the same extension"),
    (tw.equivalence_witness, "equivalence requires towers of the same extension"),
    (dis.schreier_refine, "towers must share the same extension"),
    (_equivalence_general, "towers must share the same extension"),
]


def _refusal(call, args, exc, message):
    return pytest.param(call, args, exc, message,
                        id=f"{call.__name__}-{'-'.join(map(str, args))}")


_REFUSALS = (
    [_refusal(f, ("KsL", "other KsL"), tw.TowerError, "towers belong to different contexts")
     for f, _ in _SAME_EXTENSION]
    + [_refusal(f, ("KL", "KN"), tw.TowerError, message) for f, message in _SAME_EXTENSION]
    + [_refusal(f, ("KL", "KsL"), tw.TowerError, "not a refinement")
       for f in (tw.is_proper_refinement, tw.is_trivial_refinement, tw.is_galois_refinement)]
    + [_refusal(f, ("KsL", r), tw.TowerError, f"index {r} out of range 0..2")
       for f in (tw.res, tw.rat, _inf_to_top) for r in (-1, 3)]
    + [_refusal(bf_intourability, ("ctx", "K", "L"), gal.GaloisError,
                "bf_intourability requires F <= E as fields"),
       _refusal(bf_composition_towers, ("ctx", "K", "L"), gal.GaloisError,
                "bf_composition_towers requires F <= E as fields"),
       _refusal(enumerate_towers, ("ctx", "L", "K", 2), gal.GaloisError,
                "enumerate_towers requires F <= E as fields")]
)


@pytest.mark.parametrize("call, args, exc, message", _REFUSALS)
def test_each_precondition_refuses_with_its_message(r26, call, args, exc, message):
    # "other" is a second context of the same instance: equal in every
    # field, but its refs mean nothing in r26
    other = presets.from_dict(gal.to_instance_dict(r26))
    values = {"ctx": r26, "K": r26.base, "L": r26.distinguished}
    for prefix, ctx in (("", r26), ("other ", other)):
        K, L, s2 = ctx.base, ctx.distinguished, ctx.field_by_name("Q(sqrt2)")
        values[prefix + "KsL"] = tw.make_tower(ctx, [K, s2, L])
    values["KL"] = tw.make_tower(r26, [r26.base, r26.distinguished])
    values["KN"] = tw.make_tower(r26, [r26.base, r26.top_closure])
    with pytest.raises(exc) as info:
        call(*(values.get(a, a) for a in args))
    assert str(info.value) == message
