"""M(L/K) checked against sympy, a group library written outside this
repository: the subnormal descent of Gal(N/L) in Gal(N/K), step by step,
is the chain of sympy ``normal_closure`` steps down to their fixed point,
compared as element sets (no isomorphism test)."""

from __future__ import annotations

import random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.combinatorics import Permutation, PermutationGroup  # noqa: E402

import galtour.dissociation as dis  # noqa: E402
from conftest import get_ctx  # noqa: E402

INSTANCES = ["radical:a=2,n=12", "selmer-serre:n=5"]
SEEDED_PAIRS = 100  # per instance, K drawn from the fields other than the base


def _elements(ctx, sg) -> set:
    return {ctx.group.elements[x].images for x in sg.key}


def _sympy_group(ctx, sg) -> PermutationGroup:
    """Subgroup sg as a sympy group, checked to have exactly sg's elements."""
    gens = [Permutation(list(ctx.group.elements[x].images)) for x in sg.gens()]
    group = PermutationGroup(gens or [Permutation(list(range(ctx.group.degree)))])
    assert {tuple(p.array_form) for p in group.generate()} == _elements(ctx, sg)
    return group


def _sympy_descent(H: PermutationGroup, B: PermutationGroup) -> list:
    """B, then the normal closure of H in the term before, to a fixed point."""
    chain = [B]
    while True:
        C = chain[-1].normal_closure(H)
        if C.order() == chain[-1].order():
            return chain
        chain.append(C)


def _check_pair(ctx, L, K) -> None:
    rep = dis.intourability_field(ctx, L, K)
    chain = _sympy_descent(_sympy_group(ctx, L.subgroup), _sympy_group(ctx, K.subgroup))
    got = [{tuple(p.array_form) for p in step.generate()} for step in chain]
    want = [_elements(ctx, F.subgroup) for F in rep.witness_tower.fields]
    assert got == want, (L.name, K.name)
    assert want[-1] == _elements(ctx, rep.M.subgroup)


@pytest.mark.parametrize("instance", INSTANCES)
def test_intourability_field_over_the_base_matches_sympy(instance):
    ctx = get_ctx(instance)
    for L in ctx.all_fields():
        _check_pair(ctx, L, ctx.base)


@pytest.mark.parametrize("instance", INSTANCES)
def test_intourability_field_of_seeded_pairs_matches_sympy(instance):
    ctx = get_ctx(instance)
    pairs = [(L, K) for K in ctx.all_fields() if K != ctx.base
             for L in ctx.interval_fields(K, ctx.top_closure)]
    for L, K in random.Random(20090).sample(pairs, SEEDED_PAIRS):
        _check_pair(ctx, L, K)
