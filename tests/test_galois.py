"""Galois correspondence: degrees, lattice laws, parallelograms, R/S."""

from __future__ import annotations

import functools
import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

import galtour.dissociation as dis
import galtour.galois as gal
import galtour.permgroup as pg
import galtour.towers as tw
from galtour import presets
from conftest import get_ctx, small_contexts
from test_permgroup import random_groups


def fields_of(name):
    return get_ctx(name).all_fields()


# ---------------------------------------------------------------------------
# contexts and degrees


def test_registry_covers_every_subgroup(r26):
    assert len(r26.all_fields()) == len(pg.all_subgroups(r26.group))
    for sg in r26.subgroups:
        assert r26.field_of(sg).subgroup == sg


def test_base_top_distinguished(r26):
    assert r26.base.subgroup == r26.group.full_subgroup()
    assert r26.top_closure.subgroup == r26.group.trivial_subgroup()
    assert r26.distinguished.name == "Q(6rt2)"
    assert r26.field_by_name("K") == r26.base
    assert r26.field_by_name("L") == r26.distinguished
    assert r26.field_by_name("N") == r26.top_closure
    with pytest.raises(gal.GaloisError):
        r26.field_by_name("nope")


def test_degree_examples(r26):
    L, K = r26.distinguished, r26.base
    assert gal.degree(r26, L, L) == 1
    assert gal.degree(r26, L, K) == 6
    assert gal.degree(r26, r26.top_closure, K) == r26.group.order
    with pytest.raises(gal.GaloisError):
        gal.degree(r26, K, L)


def test_degree_multiplicativity(r26):
    fields = r26.all_fields()
    for F in fields:
        for M in fields:
            if not F <= M:
                continue
            for E in fields:
                if not M <= E:
                    continue
                assert gal.degree(r26, E, M) * gal.degree(r26, M, F) == \
                    gal.degree(r26, E, F)


# ---------------------------------------------------------------------------
# compositum / intersection and the lattice laws


def test_compositum_intersection_examples(klein):
    E = klein.field_by_name("Q(sqrt2)")
    F = klein.field_by_name("Q(sqrt3)")
    assert gal.compositum(klein, E, klein.base) == E
    assert gal.intersect_fields(klein, E, klein.top_closure) == E
    assert gal.compositum(klein, E, F) == klein.top_closure
    assert gal.intersect_fields(klein, E, F) == klein.base


def test_krull_antitone(r26):
    fields = r26.all_fields()
    for E in fields:
        for F in fields:
            assert (E <= F) == (F.subgroup <= E.subgroup)


@pytest.mark.parametrize("name", [*small_contexts(), "radical:a=2,n=12",
                                  "selmer-serre:n=5"])
def test_meets_joins_and_intervals_match_the_literal_reference(name):
    ctx = get_ctx(name)
    fields = ctx.all_fields()
    by_key = {E.subgroup.key: E for E in fields}
    for A in fields:
        for B in fields:
            meet = tuple(sorted(set(A.subgroup.key) & set(B.subgroup.key)))
            assert gal.compositum(ctx, A, B) is by_key[meet]
            assert gal.intersect_fields(ctx, A, B) is \
                ctx.field_of(pg.join(A.subgroup, B.subgroup))
            if A <= B:
                lo, hi = B.subgroup.mask, A.subgroup.mask
                assert ctx.interval_fields(A, B) == [
                    M for M in fields if lo & M.subgroup.mask == lo
                    and M.subgroup.mask & hi == M.subgroup.mask]


@pytest.mark.parametrize("name", ["klein", "radical:a=2,n=12"])
def test_meets_joins_and_intervals_build_no_subgroup(name, monkeypatch):
    ctx = get_ctx(name)
    fields = ctx.all_fields()

    def refuse(*a, **k):
        raise AssertionError("the group engine was asked")
    monkeypatch.setattr(pg.Subgroup, "__init__", refuse)
    monkeypatch.setattr(pg.AbstractGroup, "span", refuse)
    monkeypatch.setattr(pg, "join", refuse)
    monkeypatch.setattr(pg, "subnormal_closure", refuse)
    for A in fields:
        for B in fields:
            gal.compositum(ctx, A, B)
            gal.intersect_fields(ctx, A, B)
            if A <= B:
                ctx.interval_fields(A, B)
                dis.intourability_field(ctx, B, A)  # two subnormal closures


@given(st.data())
def test_lattice_laws(data):
    ctx = get_ctx(data.draw(st.sampled_from(
        ["klein", "radical:a=2,n=4", "radical:a=2,n=6", "selmer-serre:n=3"])))
    fields = ctx.all_fields()
    E = data.draw(st.sampled_from(fields))
    F = data.draw(st.sampled_from(fields))
    # commutativity and idempotence
    assert gal.compositum(ctx, E, F) == gal.compositum(ctx, F, E)
    assert gal.intersect_fields(ctx, E, F) == gal.intersect_fields(ctx, F, E)
    assert gal.compositum(ctx, E, E) == E
    assert gal.intersect_fields(ctx, E, E) == E
    # absorption
    assert gal.compositum(ctx, E, gal.intersect_fields(ctx, E, F)) == E
    assert gal.intersect_fields(ctx, E, gal.compositum(ctx, E, F)) == E


# ---------------------------------------------------------------------------
# Galois-ness and quotient groups


def test_is_galois_examples(r24, r26):
    L4 = r24.distinguished
    assert gal.is_galois(r24, L4, L4)
    assert not gal.is_galois(r24, L4, r24.base)  # Q(4rt2)/Q
    s2 = r24.field_by_name("Q(sqrt2)")
    assert gal.is_galois(r24, s2, r24.base)
    assert not gal.is_galois(r26, r26.field_by_name("Q(3rt2)"), r26.base)


def test_sub_extensions_of_galois_are_galois(r26):
    fields = r26.all_fields()
    for F in fields:
        for E in fields:
            if F <= E and gal.is_galois(r26, E, F):
                for M in r26.interval_fields(F, E):
                    assert gal.is_galois(r26, E, M)


def test_galois_group_examples(r26, zeta15):
    K, N = r26.base, r26.top_closure
    assert r26.quotient_group(N, K).order == r26.group.order
    assert r26.quotient_group(K, K).order == 1
    # Gal(Q(zeta15)/Q(sqrt5)) is the Klein four-group
    q = zeta15.quotient_group(zeta15.field_by_name("Q(zeta15)"),
                              zeta15.field_by_name("Q(sqrt5)"))
    vg = pg.generate(4, [pg.Permutation.from_cycles("(1 2)", 4),
                         pg.Permutation.from_cycles("(3 4)", 4)])
    v4 = pg.quotient(vg.full_subgroup(), vg.trivial_subgroup())
    assert pg.are_isomorphic(q, v4) is not None


def test_galois_group_requires_galois():
    # quotient_group refuses a non-Galois pair and a non-nested one by the
    # Galois bit, on every call: the cache holds only Galois pairs
    ctx = gal.GaloisContext(get_ctx("radical:a=2,n=6").group)  # a fresh cache
    K, N = ctx.base, ctx.top_closure
    fields = ctx.all_fields()
    galois = not_nested = 0
    for F in fields:
        for E in fields:
            if F <= E and pg.is_normal(E.subgroup, F.subgroup):
                assert ctx.quotient_group(E, F).order == gal.degree(ctx, E, F)
                galois += 1
                continue
            not_nested += not F <= E
            for _ in range(2):
                with pytest.raises(gal.GaloisError) as refused:
                    ctx.quotient_group(E, F)
                assert str(refused.value) == \
                    f"{E.name}/{F.name} is not Galois; no quotient group"
    assert galois and not_nested
    assert all(pg.is_normal(E.subgroup, F.subgroup) for E, F in ctx._quotient_cache)
    assert ctx.quotient_group(N, K) is ctx.quotient_group(N, K)


# ---------------------------------------------------------------------------
# quadrilaterals


def test_quadrilateral_validation(klein):
    E = klein.field_by_name("Q(sqrt2)")
    F = klein.field_by_name("Q(sqrt3)")
    gal.Quadrilateral(klein.base, E, klein.top_closure, F)
    with pytest.raises(gal.GaloisError):
        gal.Quadrilateral(E, E, klein.top_closure, F)  # K cap L != J
    with pytest.raises(gal.GaloisError):
        gal.Quadrilateral(klein.base, E, E, F)  # KL != N


def test_flat_parallelogram(r24):
    s2 = r24.field_by_name("Q(sqrt2)")
    q = gal.Quadrilateral(r24.base, s2, s2, r24.base)
    assert q.is_flat()
    assert gal.is_parallelogram(r24, q)
    assert gal.diagonal_split_check(r24, q)


def test_cyclotomic_parallelogram(zeta15):
    q = gal.Quadrilateral(zeta15.base,
                          zeta15.field_by_name("Q(zeta3)"),
                          zeta15.field_by_name("Q(zeta15)"),
                          zeta15.field_by_name("Q(zeta5)"))
    assert gal.is_parallelogram(zeta15, q)
    assert gal.parallelogram_degree(zeta15, q) == (4, 2)


def test_non_parallelogram(r26):
    c = r26.field_by_name("Q(3rt2)")
    z = r26.field_by_name("Q(zeta3)")
    q = gal.Quadrilateral(r26.base, c, gal.compositum(r26, c, z), z)
    assert not gal.is_parallelogram(r26, q)  # Q(3rt2)/Q is not Galois


def _parallelograms(ctx):
    fields = ctx.all_fields()
    for K in fields:
        for L in fields:
            J = gal.intersect_fields(ctx, K, L)
            if gal.is_galois(ctx, K, J) and gal.is_galois(ctx, L, J):
                yield gal.Quadrilateral(J, K, gal.compositum(ctx, K, L), L)


def test_diagonal_split_everywhere():
    for name, ctx in small_contexts().items():
        for q in _parallelograms(ctx):
            assert gal.diagonal_split_check(ctx, q), (name, q)


def test_diagonal_split_requires_parallelogram(r26):
    c = r26.field_by_name("Q(3rt2)")
    z = r26.field_by_name("Q(zeta3)")
    q = gal.Quadrilateral(r26.base, c, gal.compositum(r26, c, z), z)
    with pytest.raises(gal.GaloisError):
        gal.diagonal_split_check(r26, q)


# ---------------------------------------------------------------------------
# ecartele identities


def test_ecartele_trivial_cases(klein):
    E = klein.field_by_name("Q(sqrt2)")
    F = klein.field_by_name("Q(sqrt3)")
    # E = K, F = L in identity (1): both sides are KL
    assert gal.ecartele_identities(klein, E, F, E, F)
    # E = F = J
    assert gal.ecartele_identities(klein, E, F, klein.base, klein.base)


def test_ecartele_reports_failing_hypothesis(r26):
    c = r26.field_by_name("Q(3rt2)")
    z = r26.field_by_name("Q(zeta3)")
    with pytest.raises(gal.GaloisError, match="not Galois"):
        gal.ecartele_identities(r26, c, z, r26.base, r26.base)
    E = r26.field_by_name("Q(sqrt2)")
    with pytest.raises(gal.GaloisError, match="neither identity"):
        gal.ecartele_identities(r26, E, z, r26.top_closure, r26.base)


def test_ecartele_exhaustive_small():
    for name, ctx in small_contexts().items():
        if ctx.group.order > 24:
            continue  # the full <= 60 sweep runs in the acceptance suite
        for q in _parallelograms(ctx):
            K, L, J, N = q.K, q.L, q.J, q.N
            for E in ctx.interval_fields(J, K):
                for F in ctx.interval_fields(J, L):
                    assert gal.ecartele_identities(ctx, K, L, E, F), (name, q)
            for E in ctx.interval_fields(K, N):
                for F in ctx.interval_fields(L, N):
                    assert gal.ecartele_identities(ctx, K, L, E, F), (name, q)


# ---------------------------------------------------------------------------
# the R and S bijections


def test_bijection_R_degenerate(klein):
    E = klein.field_by_name("Q(sqrt2)")
    F = klein.field_by_name("Q(sqrt3)")
    par = gal.Quadrilateral(klein.base, E, klein.top_closure, F)
    # the full parallelogram as its own sub-quadrilateral maps to the flat
    # quadrilateral at J
    got = gal.bijection_R(klein, par, par)
    assert got.components() == (klein.base,) * 4


def test_r_s_round_trips_and_cardinality():
    for name, ctx in small_contexts().items():
        if ctx.group.order > 48:
            continue
        for par in _parallelograms(ctx):
            subs = list(gal.sub_quadrilaterals(ctx, par))
            quots = list(gal.quotient_quadrilaterals(ctx, par))
            assert len(subs) == len(quots), (name, par)
            for s in subs:
                assert gal.bijection_S(ctx, par, gal.bijection_R(ctx, par, s)) == s
            for q in quots:
                assert gal.bijection_R(ctx, par, gal.bijection_S(ctx, par, q)) == q


def test_bijection_rejects_foreign_quadrilateral(klein):
    E = klein.field_by_name("Q(sqrt2)")
    F = klein.field_by_name("Q(sqrt3)")
    par = gal.Quadrilateral(klein.base, E, klein.top_closure, F)
    flat = gal.Quadrilateral(F, F, F, F)
    with pytest.raises(gal.GaloisError):
        gal.bijection_R(klein, par, flat)  # not a sub-quadrilateral (top != N)


# ---------------------------------------------------------------------------
# external formats


def test_dot_export(klein):
    dot = gal.to_dot(klein)
    assert dot.startswith("digraph field_lattice {")
    assert '"Q(sqrt2)" [label="Q(sqrt2) [deg 2 over base]"]' in dot
    # Galois covering steps are drawn doubled
    assert '"Q" -> "Q(sqrt2)" [color="black:black"];' in dot
    assert dot == gal.to_dot(klein)  # byte-stable


# SHA-256 of to_dot output, recorded when covering steps were found by
# comparing every pair of field refs
DOT_DIGESTS = {
    "radical:a=2,n=12":
        "aa598f8f76717113aefbe91fd368cb7c4954c82c774186856621fb8b161d71cd",
    "radical:a=2,n=16":
        "0535551ddefb428050f2b192683e4d390d7884a9addb908d8f4eb23280da5f79",
    "radical:a=2,n=20":
        "6846d5e2f9adf7eeefab04b4f88be024b76a408fc1ab0971bb84d083a81e2199",
    "selmer-serre:n=5":
        "22c67b74eb69fd09e6737f99ea095fe082900f72e3dc220acd5d37308aeecdcf",
    "cyclo-radical:n=1,d=13,l=2":
        "b6a1799164a1a3e68d739349fd5acbe7fb5cecd59e702ad51844ab575c9c3c3b",
}


@pytest.mark.parametrize("selector", sorted(DOT_DIGESTS))
def test_dot_export_matches_recorded_digests(selector):
    dot = gal.to_dot(get_ctx(selector))
    assert hashlib.sha256(dot.encode()).hexdigest() == DOT_DIGESTS[selector]


# ---------------------------------------------------------------------------
# the poset index: intervals and covers


@functools.lru_cache(maxsize=None)
def _random_lattice_groups():
    # the seeded random groups of orders 72, 48, 36 and 60 (A5)
    groups = random_groups(seed=2009, count=14)
    return [groups[i] for i in (1, 7, 11, 12)]


def _index_ctx(name):
    if name.startswith("random:"):
        return gal.GaloisContext(_random_lattice_groups()[int(name[len("random:"):])])
    return get_ctx(name)


@pytest.mark.parametrize("name", [
    "klein", "radical:a=2,n=12", "selmer-serre:n=4", "selmer-serre:n=5",
    "random:0", "random:1", "random:2", "random:3"])
def test_poset_index_agrees_with_literal_scans(name):
    ctx = _index_ctx(name)
    subs, fields = ctx.subgroups, ctx.all_fields()
    n = len(subs)
    le = {(a, b) for a in range(n) for b in range(n) if subs[a] <= subs[b]}
    lt = {(a, b) for a, b in le if a != b}
    for s in range(n):
        below = [t for t in range(n) if (t, s) in lt]
        literal = [fields[t] for t in below
                   if not any((t, u) in lt for u in below)]
        assert ctx.covers(fields[s]) == literal, (name, s)
    for lo in range(n):
        for hi in range(n):
            E, F = fields[lo], fields[hi]
            if (lo, hi) in le:  # F <= E
                literal = [fields[m] for m in range(n) if (lo, m) in le and (m, hi) in le]
                assert ctx.interval_fields(F, E) == literal, (name, lo, hi)
                assert dis.is_simple_ext(ctx, E, F) == (len(literal) == 2)
            else:
                with pytest.raises(gal.GaloisError, match="requires F <= E"):
                    ctx.interval_fields(F, E)


def test_interval_size_counts_the_interval():
    ctx = get_ctx("radical:a=2,n=12")
    fields = ctx.all_fields()
    for F in fields:
        for E in fields:
            if F <= E:
                assert ctx.interval_size(F, E) == len(ctx.interval_fields(F, E))
            else:
                with pytest.raises(gal.GaloisError,
                                   match="interval requires F <= E"):
                    ctx.interval_size(F, E)
                with pytest.raises(gal.GaloisError,
                                   match="interval requires F <= E"):
                    dis.is_simple_ext(ctx, E, F)


def test_poset_index_agrees_with_literal_scans_on_a_deep_lattice():
    ctx = get_ctx("radical:a=2,n=24")  # 944 subgroups
    fields = ctx.all_fields()
    K, N = ctx.base, ctx.top_closure
    for E in fields:
        S = E.subgroup.mask
        assert ctx.interval_fields(K, E) == [M for M in fields
                                             if S & M.subgroup.mask == S]
        assert ctx.interval_fields(E, N) == [M for M in fields
                                             if S & M.subgroup.mask == M.subgroup.mask]


@pytest.mark.parametrize("name", ["radical:a=2,n=20", "selmer-serre:n=5"])
def test_field_containment_agrees_with_subgroup_masks(name):
    fields = get_ctx(name).all_fields()
    for E in fields:
        for F in fields:
            contained = F.subgroup.mask & E.subgroup.mask == F.subgroup.mask
            assert (E <= F) is contained, (name, E.name, F.name)


@pytest.mark.parametrize("name", [
    "klein", "radical:a=2,n=12", "selmer-serre:n=4", "selmer-serre:n=5",
    "random:0", "random:1", "random:2", "random:3",
    "radical:a=2,n=20", "cyclo-radical:n=1,d=9,l=2"])
def test_normalizer_index_agrees_with_brute_force(name):
    ctx = _index_ctx(name)
    G, subs, fields = ctx.group, ctx.subgroups, ctx.all_fields()
    tab, inv = G.table, G.inverses
    npos = {i: m for members in G._classes for i, _, m in members}
    for i, A in enumerate(subs):
        # the literal normalizer {g : g A g^-1 = A}
        normalizer = tuple(g for g in range(G.order)
                           if all(A.mask >> tab[tab[g][a]][inv[g]] & 1 for a in A.key))
        assert subs[npos[i]].key == normalizer, (name, i)
    for A, E in zip(subs, fields):
        for F in ctx.interval_fields(ctx.base, E):
            B = F.subgroup
            assert ctx.normal_in(A, B) == pg.is_normal(A, B), (name, A.key, B.key)
            interval = ctx.interval_fields(F, E)
            galois = [M for M in interval if M != F and pg.is_normal(M.subgroup, B)]
            assert ctx.galois_steps(F, E) == [
                M for M in galois
                if not any(X != M and M.subgroup.mask & X.subgroup.mask == M.subgroup.mask
                           for X in galois)], (name, A.key, B.key)
            literal = E != F and not any(
                M not in (E, F) and pg.is_normal(M.subgroup, B) for M in interval)
            assert dis.is_galsimple(ctx, E, F) == literal, (name, A.key, B.key)


def test_normalizer_index_agrees_with_is_normal_on_a_deep_lattice():
    ctx = get_ctx("radical:a=2,n=24")  # 944 subgroups
    for A, E in zip(ctx.subgroups, ctx.all_fields()):
        for F in ctx.interval_fields(ctx.base, E):
            B = F.subgroup
            assert ctx.normal_in(A, B) == pg.is_normal(A, B), (A.key, B.key)


@pytest.mark.parametrize("name", [
    "klein", "radical:a=2,n=12", "selmer-serre:n=4", "selmer-serre:n=5",
    "random:0", "random:1", "random:2", "random:3",
    "radical:a=2,n=20", "cyclo-radical:n=1,d=9,l=2", "radical:a=2,n=24"])
def test_galois_row_agrees_with_is_normal(name):
    # bit j of nbelow[f] is set iff subgroup j <= subgroup f is normal in it,
    # and is_galois and normal_in read that bit for every comparable pair
    ctx = _index_ctx(name)
    subs, fields = ctx.subgroups, ctx.all_fields()
    for f, B in enumerate(subs):
        assert ctx._nbelow[f] & ~ctx._down[f] == 0, (name, f)
        for j in gal._pick(range(f + 1), ctx._down[f]):
            normal = pg.is_normal(subs[j], B)
            assert ctx._nbelow[f] >> j & 1 == normal, (name, j, f)
            assert gal.is_galois(ctx, fields[j], fields[f]) is normal, (name, j, f)
            assert ctx.normal_in(subs[j], B) is normal, (name, j, f)


def test_normal_in_requires_nested_subgroups(r26):
    A, B = r26.field_by_name("Q(sqrt2)").subgroup, r26.field_by_name("Q(3rt2)").subgroup
    with pytest.raises(gal.GaloisError, match="requires A <= B"):
        r26.normal_in(A, B)


@pytest.mark.parametrize("name", [
    "radical:a=2,n=12", "radical:a=2,n=20", "selmer-serre:n=5",
    "cyclo-radical:n=1,d=9,l=2", "random:0", "random:1", "random:2", "random:3"])
def test_subnormal_closure_matches_the_span_reference(name):
    # the lattice walk gives the span-based closure and chain on every pair,
    # as the context's own field refs
    ctx = _index_ctx(name)
    fields = ctx.all_fields()
    for F in fields:
        for E in ctx.interval_fields(F, ctx.top_closure):
            M, chain = ctx.subnormal_closure(E, F)
            assert (M.subgroup, [X.subgroup for X in chain]) == \
                pg.subnormal_closure(E.subgroup, F.subgroup), (name, E.name, F.name)
            assert all(X is fields[X.pos] for X in [M, *chain])


def test_subnormal_closure_requires_nested_subgroups(r26):
    E, F = r26.field_by_name("Q(sqrt2)"), r26.field_by_name("Q(3rt2)")
    with pytest.raises(gal.GaloisError, match="requires F <= E"):
        r26.subnormal_closure(E, F)


def test_digest_names_are_unique_within_a_context():
    # radical:a=2,n=48 has two fields of order 4 whose digests share the
    # six hex digits efeeed; each takes the shortest longer prefix
    ctx = presets.load_instance("radical:a=2,n=48", enumeration_bound=768)
    fields = ctx.all_fields()
    names = [F.name for F in fields]
    assert len(set(names)) == len(names) == 3412
    # field_by_name returns the first field shown by that name, which with
    # distinct names is the field's own; checked on the block that collided
    for F, name in zip(fields, names):
        if F.subgroup.order == 4:
            assert ctx.field_by_name(name) is F
    shared = sorted(n for n in names if n.startswith("H4.efeeed"))
    assert shared == ["H4.efeeed2", "H4.efeeed8"]
    assert sum(len(n.partition(".")[2]) != 6 for n in names
               if n.startswith("H")) == 2


def test_names_table_gives_the_first_name_for_display():
    g = pg.generate(4, [pg.Permutation.from_cycles("(1 2)", 4),
                        pg.Permutation.from_cycles("(3 4)", 4)])
    S = g.generated_subgroup([1])
    ctx = gal.GaloisContext(g, names={"A": S, "B": S})
    assert ctx.field_of(S).name == "A"
    assert ctx.names == {ctx.field_of(S): "A"}
    assert ctx.field_by_name("A") is ctx.field_by_name("B") is ctx.field_of(S)
    assert ctx.field_by_name("K") is ctx.base
    with pytest.raises(gal.GaloisError, match="duplicate field name 'K'"):
        gal.GaloisContext(g, names={"K": S})
    assert gal.GaloisContext(g, names={"K": g.full_subgroup()}).base.name == "K"
    # a name an unnamed field could display as is refused; others are names
    with pytest.raises(gal.GaloisError, match="'H2.0f' has the form of a digest name"):
        gal.GaloisContext(g, names={"H2.0f": S})
    for name in ("H2", "H2.0F", "H2.xyz", "H.0f", "h2.0f"):
        assert gal.GaloisContext(g, names={name: S}).field_of(S).name == name


def test_reserved_name_of_another_field_is_refused_before_the_lattice(monkeypatch):
    g = pg.generate(4, [pg.Permutation.from_cycles("(1 2)", 4),
                        pg.Permutation.from_cycles("(3 4)", 4)])
    S, full, trivial = g.generated_subgroup([1]), g.full_subgroup(), g.trivial_subgroup()
    calls = []
    monkeypatch.setattr(pg, "all_subgroups", lambda *a, **k: calls.append(a))
    for name, sg, distinguished in [("K", S, None), ("N", S, None), ("closure", full, None),
                                    ("L", S, None), ("L", trivial, S)]:
        with pytest.raises(gal.GaloisError, match=f"duplicate field name '{name}'"):
            gal.GaloisContext(g, distinguished=distinguished, names={name: sg})
    assert calls == []


@pytest.mark.parametrize("build,attr", [
    (lambda ctx: pg.Permutation.identity(3), "images"),
    (lambda ctx: pg.AbstractGroup([[0, 1], [1, 0]]), "order"),
    (lambda ctx: ctx.group, "order"),
    (lambda ctx: ctx.group.full_subgroup(), "key"),
    (lambda ctx: ctx.base, "pos"),
    (lambda ctx: gal.Quadrilateral(ctx.base, ctx.top_closure,
                                   ctx.top_closure, ctx.base), "J"),
    (lambda ctx: tw.Tower(ctx, [ctx.base, ctx.top_closure]), "fields"),
    (lambda ctx: tw.equivalence_witness(*[tw.Tower(ctx, [ctx.base, ctx.top_closure])] * 2),
     "sigma"),
    (lambda ctx: ctx, "group"),
], ids=["Permutation", "AbstractGroup", "Group", "Subgroup", "FieldRef",
        "Quadrilateral", "Tower", "EquivalenceWitness", "GaloisContext"])
def test_values_refuse_assignment(r24, build, attr):
    # every value is immutable after construction, so it is safe to share
    value = build(r24)
    before = getattr(value, attr)
    for name in (attr, "extra"):
        with pytest.raises(AttributeError) as info:
            setattr(value, name, None)
        assert str(info.value) == f"{type(value).__name__} is immutable"
    assert getattr(value, attr) is before


def test_index_rejects_subgroups_of_another_group():
    ctx = get_ctx("radical:a=2,n=12")
    G6 = get_ctx("radical:a=2,n=6").group
    own, foreign = ctx.group.full_subgroup(), G6.full_subgroup()
    calls = [lambda: ctx.field_of(foreign),
             lambda: ctx.normal_in(G6.trivial_subgroup(), foreign),
             lambda: ctx.normal_in(ctx.group.trivial_subgroup(), foreign),
             lambda: ctx.normal_in(G6.trivial_subgroup(), own)]
    for call in calls:
        with pytest.raises(gal.GaloisError,
                           match="does not belong to this context's group"):
            call()


@pytest.mark.parametrize("reader, foreign", [
    ("radical:a=2,n=12", "radical:a=2,n=6"),  # read through a larger context
    ("radical:a=2,n=6", "radical:a=2,n=12"),  # through a smaller one
])
def test_field_reads_refuse_refs_of_another_context(reader, foreign):
    # n=6's Q(sqrt2) and Q(3rt2) read by n=12's bitsets gave N for their
    # compositum and an unnamed field for their intersection; n=12's refs
    # read by n=6's bitsets ran off their ends
    ctx, other = get_ctx(reader), get_ctx(foreign)
    E, F = other.field_by_name("Q(sqrt2)"), other.field_by_name("Q(3rt2)")
    K, N, own = other.base, other.top_closure, ctx.field_by_name("Q(sqrt2)")
    calls = {
        "interval_fields": lambda: ctx.interval_fields(K, E),
        "interval_fields, one foreign": lambda: ctx.interval_fields(ctx.base, E),
        "interval_size": lambda: ctx.interval_size(K, E),
        "is_simple_ext": lambda: dis.is_simple_ext(ctx, E, K),
        "covers": lambda: ctx.covers(E),
        "galois_steps": lambda: ctx.galois_steps(K, E),
        "subnormal_closure": lambda: ctx.subnormal_closure(E, K),
        "quotient_group": lambda: ctx.quotient_group(E, K),
        "display_name": lambda: ctx.display_name(E),
        "<=": lambda: own <= N,
        "degree": lambda: gal.degree(ctx, E, K),
        "compositum": lambda: gal.compositum(ctx, E, F),
        "intersect_fields": lambda: gal.intersect_fields(ctx, E, F),
        "is_galois": lambda: gal.is_galois(ctx, E, K),
        "Quadrilateral": lambda: gal.Quadrilateral(ctx.base, own, N, ctx.base),
        "ecartele_identities": lambda: gal.ecartele_identities(ctx, E, F, E, F),
        "is_galtourable": lambda: dis.is_galtourable(ctx, E, K),
        "is_galsimple": lambda: dis.is_galsimple(ctx, E, K),
        "intourability_field": lambda: dis.intourability_field(ctx, E, K),
    }
    answered = []
    for what, call in calls.items():
        try:
            call()
        except gal.GaloisError as exc:
            if "different contexts" in str(exc):
                continue
        answered.append(what)
    assert answered == []


@pytest.mark.parametrize("distinguished", ["(3 4)", None])
def test_unnamed_distinguished_field_round_trips_as_l(distinguished):
    # the field was written under its digest name, with no "fields" entry,
    # and from_dict refused the file
    data = {"degree": 4, "generators": ["(1 2)", "(3 4)"]}
    if distinguished:
        data.update(fields={"E": [distinguished]}, distinguished="E")
    named = presets.from_dict(data)
    g = named.group
    ctx = gal.GaloisContext(g, distinguished=named.distinguished.subgroup)
    assert ctx.names == {}
    out = gal.to_instance_dict(ctx)
    assert out["distinguished"] == "L" and list(out["fields"]) == ["L"]
    back = presets.from_dict(out)
    assert back.distinguished.subgroup.key == ctx.distinguished.subgroup.key
    assert back.distinguished.name == "L"
    assert gal.to_instance_dict(back) == out


def test_instance_json_round_trip(klein):
    blob = gal.to_instance_json(klein)
    data = json.loads(blob)
    assert data["degree"] == 4
    ctx2 = presets.from_dict(data)
    assert ctx2.group.order == klein.group.order
    assert sorted(ctx2.names.values()) == sorted(klein.names.values())
    assert ctx2.distinguished.subgroup.key == klein.distinguished.subgroup.key
    for name in klein.names.values():
        assert ctx2.field_by_name(name).subgroup.key == \
            klein.field_by_name(name).subgroup.key
