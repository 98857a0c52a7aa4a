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
    assert gal.galois_group(r26, N, K).order == r26.group.order
    assert gal.galois_group(r26, K, K).order == 1
    # Gal(Q(zeta15)/Q(sqrt5)) is the Klein four-group
    q = gal.galois_group(zeta15, zeta15.field_by_name("Q(zeta15)"),
                         zeta15.field_by_name("Q(sqrt5)"))
    vg = pg.generate(4, [pg.Permutation.from_cycles("(1 2)", 4),
                         pg.Permutation.from_cycles("(3 4)", 4)])
    v4 = pg.quotient(vg.full_subgroup(), vg.trivial_subgroup())
    assert pg.are_isomorphic(q, v4) is not None


def test_galois_group_requires_galois(r24):
    with pytest.raises(gal.GaloisError):
        gal.galois_group(r24, r24.distinguished, r24.base)


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
    subs = ctx.subgroups
    n = len(subs)
    le = {(a, b) for a in range(n) for b in range(n) if subs[a] <= subs[b]}
    lt = {(a, b) for a, b in le if a != b}
    for s in range(n):
        below = [t for t in range(n) if (t, s) in lt]
        literal = [subs[t] for t in below
                   if not any((t, u) in lt for u in below)]
        assert ctx.maximal_subgroups(subs[s]) == literal, (name, s)
    fields = ctx.all_fields()
    for lo in range(n):
        for hi in range(n):
            literal = [subs[m] for m in range(n) if (lo, m) in le and (m, hi) in le]
            assert ctx.between(subs[lo], subs[hi]) == literal, (name, lo, hi)
            if (lo, hi) in le:  # F = fields[hi] <= E = fields[lo]
                E, F = fields[lo], fields[hi]
                assert ctx.interval_fields(F, E) == [fields[subs.index(sg)]
                                                     for sg in literal]
                assert dis.is_simple_ext(ctx, E, F) == (len(literal) == 2)


def test_index_rejects_subgroups_of_another_group():
    ctx = get_ctx("radical:a=2,n=12")
    G6 = get_ctx("radical:a=2,n=6").group
    own, foreign = ctx.group.full_subgroup(), G6.full_subgroup()
    calls = [lambda: ctx.between(G6.trivial_subgroup(), foreign),
             lambda: ctx.between(ctx.group.trivial_subgroup(), foreign),
             lambda: ctx.between(G6.trivial_subgroup(), own),
             lambda: ctx.maximal_subgroups(foreign),
             lambda: ctx.maximal_among([own, foreign])]
    for call in calls:
        with pytest.raises(gal.GaloisError,
                           match="does not belong to this context's group"):
            call()


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
