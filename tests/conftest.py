"""Shared fixtures: the shipped contexts and hypothesis settings."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

import galtour.galois as gal
import galtour.permgroup as pg
from galtour import presets
from galtour.permgroup import Permutation as P

settings.register_profile(
    "suite", max_examples=40, deadline=None,
    derandomize=True, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def _klein_ctx():
    g = pg.generate(4, [P.from_cycles("(1 2)", 4), P.from_cycles("(3 4)", 4)])
    names = {
        "Q": g.full_subgroup(),
        "Q(sqrt2)": g.generated_subgroup([g.index_of(P.from_cycles("(3 4)", 4))]),
        "Q(sqrt3)": g.generated_subgroup([g.index_of(P.from_cycles("(1 2)", 4))]),
        "Q(sqrt6)": g.generated_subgroup([g.index_of(P.from_cycles("(1 2)(3 4)", 4))]),
        "Q(sqrt2,sqrt3)": g.trivial_subgroup(),
    }
    return gal.GaloisContext(g, distinguished=g.trivial_subgroup(), names=names)


def _c4_ctx():
    # cyclic quartic field, e.g. the degree-4 subfield of Q(zeta5)
    g = pg.generate(4, [P.from_cycles("(1 2 3 4)", 4)])
    return gal.GaloisContext(g, distinguished=g.trivial_subgroup(),
                             names={"Q": g.full_subgroup()})


def _zeta15_ctx():
    # Gal(Q(zeta15)/Q) = (Z/15)* acting on the powers of zeta (0-based exponents)
    def unit_perm(s):
        return P([(k * s) % 15 for k in range(15)])
    g = pg.generate(15, [unit_perm(2), unit_perm(14)])
    assert g.order == 8

    def unit_sub(*ss):
        return g.subgroup(i for i in range(g.order)
                          if g.elements[i].images[1] in ss)
    names = {
        "Q": g.full_subgroup(),
        "Q(zeta15)": g.trivial_subgroup(),
        "Q(zeta3)": unit_sub(1, 4, 7, 13),   # fixes zeta^5: s = 1 mod 3
        "Q(zeta5)": unit_sub(1, 11),         # fixes zeta^3: s = 1 mod 5
        "Q(sqrt5)": unit_sub(1, 4, 11, 14),  # s = +-1 mod 5
    }
    return gal.GaloisContext(g, distinguished=g.trivial_subgroup(), names=names)


_RAW = {
    "klein": _klein_ctx,
    "c4": _c4_ctx,
    "zeta15": _zeta15_ctx,
}

_PRESETS_SMALL = [
    "radical:a=2,n=4",
    "radical:a=2,n=6",
    "radical:a=2,n=9",
    "cyclo-radical:n=1,d=3,l=2",
    "cyclo-radical:n=2,d=3,l=3",
    "cyclo-radical:n=1,d=9,l=2",
    "selmer-serre:n=3",
    "selmer-serre:n=4",
]


def is_simple(A: pg.AbstractGroup) -> bool:
    """Reference: A has no proper nontrivial normal subgroup, i.e. the
    normal closure of every non-identity element is the whole group; the
    trivial group is not simple."""
    if A.order == 1:
        return False
    conjugators = A.gens()
    return all(len(A.normal_closure((g,), conjugators)) == A.order
               for g in range(1, A.order))


def literal_normal_scan(A: pg.Subgroup, B: pg.Subgroup) -> bool:
    """Reference: A normal in B by the full scan, b*a*b^-1 in A for every
    a in A and every b in B (|A|*|B| conjugations)."""
    tab, inv, members = A.parent.table, A.parent.inverses, set(A.key)
    return all(tab[tab[b][a]][inv[b]] in members
               for b in B.key for a in A.key)


def literal_chain_search(ctx, E, F, seen: dict) -> bool:
    """Reference: E is reached from F by literal Galois steps, by recursive
    search: E == F, or some M != F with F <= M <= E has Gal(N/M) normal in
    Gal(N/F) (``literal_normal_scan``) and E is reached from M.  ``seen``
    memoizes verdicts by (E.pos, F.pos) across calls on one context."""
    if E == F:
        return True
    key = (E.pos, F.pos)
    if key not in seen:
        seen[key] = any(
            M != F and literal_normal_scan(M.subgroup, F.subgroup)
            and literal_chain_search(ctx, E, M, seen)
            for M in ctx.interval_fields(F, E))
    return seen[key]


def literal_galsimple_scan(ctx, E, F) -> bool:
    """Reference: E/F galsimple by a per-interval test: E != F and no field
    M strictly between them has Gal(N/M) normal in Gal(N/F)."""
    return E != F and not any(
        M not in (E, F) and literal_normal_scan(M.subgroup, F.subgroup)
        for M in ctx.interval_fields(F, E))


def build_parser():
    """Reference: the argparse parser the CLI used before its verb table,
    for comparing parse results (``verb``, ``instance`` and the options)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="galtour",
        description="Galois tower calculus over explicit finite permutation groups")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, towers=0, field=False):
        p.add_argument("instance",
                       help="preset (radical:a=2,n=6 | cyclo-radical:n=2,d=3,l=3 "
                            "| selmer-serre:n=5 | file:<path>) or instance file path")
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--bound", type=int, default=None,
                       help="override the subgroup enumeration bound")
        if field:
            p.add_argument("--field", default=None, help="field name")
        if towers:
            p.add_argument("--tower", action="append", required=True,
                           help="tower as a JSON list of field names"
                            + (" (give twice)" if towers == 2 else ""))
        return p

    common(sub.add_parser("analyze", help="per-field dissociation report"), field=True)
    common(sub.add_parser("m-field", help="intourability field of L/K"), field=True)
    common(sub.add_parser("tower-check", help="validate and classify a tower"), towers=1)
    p = common(sub.add_parser("refine", help="common Galois refinements"), towers=2)
    p.add_argument("--strict", action="store_true",
                   help="return strict associated refinements")
    common(sub.add_parser("compose", help="composition tower of L/K"), field=True)
    common(sub.add_parser("elevate", help="elevation tower of a tower"), towers=1)
    common(sub.add_parser("check-equiv", help="equivalence of two towers"), towers=2)
    p = common(sub.add_parser("lattice", help="field lattice as DOT"))
    p.add_argument("--dot", default=None, help="write DOT to this path")
    common(sub.add_parser("oracle", help="oracle agreement suite"))
    return parser


_cache: dict = {}


def get_ctx(name: str) -> gal.GaloisContext:
    if name not in _cache:
        _cache[name] = _RAW[name]() if name in _RAW else presets.load_instance(name)
    return _cache[name]


def small_contexts() -> dict:
    """Shipped contexts of order <= 60, by selector."""
    out = {name: get_ctx(name) for name in _RAW}
    out.update({sel: get_ctx(sel) for sel in _PRESETS_SMALL})
    return out


def contexts_up_to_120() -> dict:
    out = small_contexts()
    out["selmer-serre:n=5"] = get_ctx("selmer-serre:n=5")
    return out


def random_galois_tower(ctx, F, E, rng):
    """A random Galois tower from F to E: random normal descents that keep
    the target subnormal-reachable, with occasional repeated fields."""
    import galtour.towers as tw

    chain = [F.subgroup]
    target = E.subgroup
    while chain[-1] != target:
        cands = [sg for sg in ctx.subgroups
                 if target.mask & sg.mask == target.mask
                 and sg.mask & chain[-1].mask == sg.mask
                 and sg.key != chain[-1].key
                 and ctx.normal_in(sg, chain[-1])
                 and pg.subnormal_closure(target, sg)[0] == target]
        chain.append(rng.choice(cands))
    padded = []
    for sg in chain:
        padded.append(ctx.field_of(sg))
        if rng.random() < 0.2:
            padded.append(ctx.field_of(sg))
    return tw.make_tower(ctx, padded)


@pytest.fixture(scope="session")
def klein():
    return get_ctx("klein")


@pytest.fixture(scope="session")
def c4ctx():
    return get_ctx("c4")


@pytest.fixture(scope="session")
def zeta15():
    return get_ctx("zeta15")


@pytest.fixture(scope="session")
def r24():
    return get_ctx("radical:a=2,n=4")


@pytest.fixture(scope="session")
def r26():
    return get_ctx("radical:a=2,n=6")


@pytest.fixture(scope="session")
def r29():
    return get_ctx("radical:a=2,n=9")


@pytest.fixture(scope="session")
def cy233():
    return get_ctx("cyclo-radical:n=2,d=3,l=3")


@pytest.fixture(scope="session")
def ss3():
    return get_ctx("selmer-serre:n=3")


@pytest.fixture(scope="session")
def ss4():
    return get_ctx("selmer-serre:n=4")


@pytest.fixture(scope="session")
def ss5():
    return get_ctx("selmer-serre:n=5")
