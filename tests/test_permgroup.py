"""Permutation-group engine: examples, invariants, and oracle cross-checks."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import galtour.permgroup as pg
from galtour.permgroup import Permutation as P
from conftest import _PRESETS_SMALL, get_ctx, is_simple
from galtour import presets


def S(n):
    cyc = "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"
    return pg.generate(n, [P.from_cycles(cyc, n), P.from_cycles("(1 2)", n)])


def D6():
    r = P.from_cycles("(1 2 3 4 5 6)", 6)
    s = P([0, 5, 4, 3, 2, 1])
    return pg.generate(6, [r, s])


def abstract(G):
    return pg.quotient(G.full_subgroup(), G.trivial_subgroup())


def permutation_group(degree, *cycles):
    return pg.generate(degree, [P.from_cycles(c, degree) for c in cycles])


NON_SOLVABLE = {
    "PSL(2,7) on 7 points":
        lambda: permutation_group(7, "(1 2 3 4 5 6 7)", "(1 2)(3 6)"),
    "A5 on 6 points": lambda: permutation_group(6, "(2 3 4 5 6)", "(1 2)(3 6)"),
    "A5 x S3 on 8 points":
        lambda: permutation_group(8, "(1 2 3)", "(3 4 5)", "(6 7 8)", "(6 7)"),
    "S5 on 7 points": lambda: permutation_group(7, "(1 2 3 4 5)", "(1 2)(6 7)"),
}


# ---------------------------------------------------------------------------
# permutations and composition


def test_compose_identity_is_neutral():
    p = P.from_cycles("(1 3 2)", 3)
    assert pg.compose(P.identity(3), p) == p
    assert pg.compose(p, P.identity(3)) == p


def test_compose_convention_on_three_points():
    # oracle: evaluate (p o q)(x) = p(q(x)) pointwise
    p = P.from_cycles("(1 2)", 3)
    q = P.from_cycles("(2 3)", 3)
    expected = tuple(p.images[q.images[x]] for x in range(3))
    assert expected == (1, 2, 0)  # the 3-cycle 0 -> 1 -> 2 -> 0
    assert pg.compose(p, q) == P(expected)
    assert pg.compose(p, q).cycles() == "(1 2 3)"


def test_compose_with_inverse_gives_identity():
    p = P.from_cycles("(1 4 2)(3 5)", 5)
    assert pg.compose(p, p.inverse()) == P.identity(5)
    assert pg.compose(p.inverse(), p) == P.identity(5)


def test_compose_degree_mismatch():
    with pytest.raises(pg.PermGroupError):
        pg.compose(P.identity(3), P.identity(4))


@given(st.permutations(range(5)), st.permutations(range(5)),
       st.permutations(range(5)))
def test_composition_is_associative(a, b, c):
    pa, pb, pc = P(a), P(b), P(c)
    assert pg.compose(pg.compose(pa, pb), pc) == pg.compose(pa, pg.compose(pb, pc))


@given(st.permutations(range(6)))
def test_inverse_round_trip(imgs):
    p = P(imgs)
    assert p.inverse().inverse() == p


def test_cycle_notation_round_trip():
    for text in ["()", "(1 2)", "(1 2 3)(4 5)", "(2 6)(3 5)"]:
        p = P.from_cycles(text, 6)
        assert P.from_cycles(p.cycles(), 6) == p
    assert P.identity(4).cycles() == "()"
    # whitespace-insensitive
    assert P.from_cycles(" ( 1   2 3 ) ( 4  5 ) ", 6) == \
        P.from_cycles("(1 2 3)(4 5)", 6)


def test_cycle_notation_errors():
    with pytest.raises(pg.PermGroupError):
        P.from_cycles("(1 7)", 6)  # out of range
    with pytest.raises(pg.PermGroupError):
        P.from_cycles("(1 2)(2 3)", 6)  # repeated point
    with pytest.raises(pg.PermGroupError):
        P.from_cycles("1 2 3", 6)


# ---------------------------------------------------------------------------
# closure


def test_generate_s3():
    assert S(3).order == 6


def test_generate_dihedral_order_12():
    # oracle: brute-force closure by repeated pairwise multiplication
    r = P.from_cycles("(1 2 3 4 5 6)", 6)
    s = P([0, 5, 4, 3, 2, 1])
    closed = {P.identity(6), r, s}
    while True:
        nxt = {pg.compose(a, b) for a in closed for b in closed}
        if nxt == closed:
            break
        closed = nxt
    assert len(closed) == 12
    assert D6().order == 12


def test_generate_s5():
    assert S(5).order == 120


def test_generate_bound_exceeded():
    with pytest.raises(pg.BoundExceeded):
        S_gens = [P.from_cycles("(1 2 3 4 5)", 5), P.from_cycles("(1 2)", 5)]
        pg.generate(5, S_gens, bound=50)


def test_identity_is_element_zero():
    g = S(4)
    assert g.elements[0] == P.identity(4)
    assert g.index_of(P.identity(4)) == 0


@given(st.lists(st.permutations(range(4)), min_size=1, max_size=3))
def test_closure_idempotence(img_lists):
    gens = [P(imgs) for imgs in img_lists]
    g1 = pg.generate(4, gens)
    g2 = pg.generate(4, g1.elements)
    assert [p.images for p in g1.elements] == [p.images for p in g2.elements]


def literal_table(g):
    # oracle: one permutation composition per pair of elements
    return [[g.index_of(pg.compose(p, q)) for q in g.elements] for p in g.elements]


C4_GEN, FLIP = P.from_cycles("(1 2 3 4)", 4), P.from_cycles("(1 3)", 4)
TABLE_GROUPS = {
    "trivial": lambda: pg.generate(3, [P.identity(3)]),
    "no generators": lambda: pg.generate(3, []),
    "identity and repeats": lambda: pg.generate(
        4, [P.identity(4), C4_GEN, FLIP, C4_GEN, P.identity(4)]),
    "radical:a=2,n=12": lambda: get_ctx("radical:a=2,n=12").group,
    "radical:a=2,n=24": lambda: get_ctx("radical:a=2,n=24").group,
    "selmer-serre:n=5": lambda: get_ctx("selmer-serre:n=5").group,
    "cyclo-radical:n=1,d=13,l=2":
        lambda: get_ctx("cyclo-radical:n=1,d=13,l=2").group,
}


@pytest.mark.parametrize("name", list(TABLE_GROUPS))
def test_table_agrees_with_compose_on_every_pair(name):
    g = TABLE_GROUPS[name]()
    assert g.table == literal_table(g)


def test_table_agrees_with_compose_on_random_groups():
    for g in random_groups(seed=77, count=10):
        assert g.table == literal_table(g), g.generators


# ---------------------------------------------------------------------------
# subgroup enumeration


def test_all_subgroups_c2():
    g = pg.generate(2, [P.from_cycles("(1 2)", 2)])
    assert len(pg.all_subgroups(g)) == 2


def test_all_subgroups_s3_against_subset_scan():
    # oracle: every identity-containing subset, checked for closure literally
    g = S(3)
    tab = g.table
    count = 0
    for r in range(g.order):
        for combo in itertools.combinations(range(1, g.order), r):
            idx = (0,) + combo
            if all(tab[i][j] in idx for i in idx for j in idx):
                count += 1
    assert count == 6
    assert len(pg.all_subgroups(g)) == 6


def layered_extension_keys(g):
    # oracle: layered cyclic extensions <H, g> to a fixpoint
    found = {g.trivial_subgroup().key: g.trivial_subgroup()}
    frontier = list(found.values())
    while frontier:
        batch, frontier = frontier, []
        for H in batch:
            for x in range(g.order):
                if x in H:
                    continue
                bigger = g.generated_subgroup(H.key + (x,))
                if bigger.key not in found:
                    found[bigger.key] = bigger
                    frontier.append(bigger)
    return set(found)


def test_all_subgroups_s4_against_layered_oracle():
    g = S(4)
    found = layered_extension_keys(g)
    assert len(found) == 30
    assert {sg.key for sg in pg.all_subgroups(g)} == found


@pytest.mark.parametrize("name", ["A5 on 6 points", "S5 on 7 points"])
def test_all_subgroups_non_solvable_against_layered_oracle(name):
    g = NON_SOLVABLE[name]()
    assert not g.is_solvable()
    assert {sg.key for sg in pg.all_subgroups(g)} == layered_extension_keys(g)


def test_all_subgroups_s5_spans_once_per_double_coset(monkeypatch):
    # only one representative per conjugacy class is extended, and each
    # spanned extension <A, c> covers the double cosets A*y*A of the
    # generators y of <c>: 171 spans on S5 for its 19 classes, counting
    # the greedy generators, the normalizers and the solvability test,
    # against 1 280 when every subgroup was extended and 7 628 when every
    # <c> outside the coset unions was spanned
    calls = []
    span = pg.AbstractGroup.span

    def counting_span(self, *args, **kwargs):
        calls.append(args)
        return span(self, *args, **kwargs)

    g = S(5)
    monkeypatch.setattr(pg.AbstractGroup, "span", counting_span)
    assert len(pg.all_subgroups(g)) == 156
    assert len(calls) <= 180


def test_all_subgroups_bound():
    with pytest.raises(pg.BoundExceeded):
        pg.all_subgroups(S(4), bound=10)


def bfs_closure(g, gens):
    # oracle: every product of generators, breadth first from the identity
    tab = g.table
    closed, frontier = {0}, [0]
    while frontier:
        row = tab[frontier.pop()]
        for s in gens:
            y = row[s]
            if y not in closed:
                closed.add(y)
                frontier.append(y)
    return closed


def pairwise_join_keys(g):
    # oracle: every cyclic subgroup, then the join of every pair of found
    # subgroups, to a fixpoint; each join is the closure of the union of
    # the generators its two sides were found with
    found = {frozenset(bfs_closure(g, (i,))): (i,) for i in range(g.order)}
    fresh = dict(found)
    while fresh:
        new = {}
        for a, gens_a in fresh.items():
            for b, gens_b in list(found.items()):
                if a <= b or b <= a:
                    continue
                gens = gens_a + gens_b
                j = frozenset(bfs_closure(g, gens))
                if j not in found and j not in new:
                    new[j] = gens
        found.update(new)
        fresh = new
    return sorted(tuple(sorted(k)) for k in found)


def random_groups(seed, count, max_order=120):
    # seeded permutation groups of degree 3..7, each generator a random
    # permutation of a random set of points; the first group drawn of
    # each order from 4 to max_order
    rng = random.Random(seed)
    out = {}
    while len(out) < count:
        n = rng.randint(3, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            pts = rng.sample(range(n), rng.randint(2, n))
            images = list(range(n))
            for a, b in zip(pts, rng.sample(pts, len(pts))):
                images[a] = b
            gens.append(P(images))
        try:
            g = pg.generate(n, gens, bound=max_order)
        except pg.BoundExceeded:
            continue
        if g.order >= 4:
            out.setdefault(g.order, g)
    return list(out.values())


def test_all_subgroups_agrees_with_pairwise_joins_on_random_groups():
    for g in random_groups(seed=2009, count=14):
        got = [sg.key for sg in pg.all_subgroups(g)]
        assert sorted(got) == pairwise_join_keys(g), g.generators


# SHA-256 of repr([s.key for s in all_subgroups(G)]), as returned by the
# pairwise-join enumeration this package used before cyclic extension
LATTICE_DIGESTS = {
    "radical:a=2,n=12":
        "c84009755afdc33ab759cef917b11644e1a07154a0bd824e5aabdfc476404066",
    "radical:a=2,n=16":
        "9694e88e8b6a1bf8d779d50ac13cb67501e80e5dbe7b94daacaa9652d24213b1",
    "radical:a=2,n=20":
        "76001cd7da84057fcdc826ae4b7ef7e29c4019b354b7c798141f343dff2adb58",
    "radical:a=2,n=24":
        "42471d1407c3b8fad3e1135cfef2505c7f722fcc697d8df9252081e3bd3a6a46",
    "radical:a=2,n=30":
        "4549582057014aed9ce43d709e4f40d3c38ed7673c8dabc7f5de41772678663e",
    "selmer-serre:n=5":
        "a47da0ba8a11a73b4653e06497e9f54c5a6604bf92a8ee87ce36cdc1e9fec131",
    "cyclo-radical:n=1,d=13,l=2":
        "b67ae66c12e63ffa61de3151184f0b6fd5950e680e67319202fbcf47ed6eb884",
}


@pytest.mark.parametrize("selector", sorted(LATTICE_DIGESTS))
def test_all_subgroups_keys_match_recorded_digests(selector):
    keys = [sg.key for sg in pg.all_subgroups(get_ctx(selector).group)]
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    assert digest == LATTICE_DIGESTS[selector]


# SHA-256 of repr(G._classes) after all_subgroups(G): per class, per
# member, (position, generators, normalizer position), as returned by the
# walk that conjugated each label in four index passes
CLASSES_DIGESTS = {
    "radical:a=2,n=12":
        "aa9e1363b37dad5cc5f7e469e842be72f544d6d1a0658e2b2b6bdf30d36013d1",
    "radical:a=2,n=16":
        "804a565ddce377b9b652845e4492b70a30a5b0b5fd42ccd8c18b2f9b4330c40c",
    "radical:a=2,n=20":
        "2acefeec21d01c8e0e238034819927ab08f54aa52ff02b0121cf610f3bee0244",
    "radical:a=2,n=24":
        "c081d9ce5d80f006e5f9de0838bc2739eb3cffe5357191651646491225e18875",
    "selmer-serre:n=5":
        "6e0cb16b19dc7fe13358cc4ea4e46797becc775db49eb4384d4c19280a411a7e",
}


@pytest.mark.parametrize("selector", sorted(CLASSES_DIGESTS))
def test_subgroup_classes_match_recorded_digests(selector):
    g = get_ctx(selector).group
    pg.all_subgroups(g)
    digest = hashlib.sha256(repr(g._classes).encode()).hexdigest()
    assert digest == CLASSES_DIGESTS[selector]


def assert_keys_are_canonical(subgroups):
    for H in subgroups:
        assert all(a < b for a, b in zip(H.key, H.key[1:])), H.key
        assert H.mask == sum(1 << i for i in H.key) and H.order == len(H.key)


@pytest.mark.parametrize("name", sorted(set(LATTICE_DIGESTS) | set(_PRESETS_SMALL))
                         + ["random"])
def test_every_subgroup_the_enumeration_builds_has_a_canonical_key(name, monkeypatch):
    # Subgroup trusts its key: every one that all_subgroups builds, on a
    # fresh copy of the group, class members included, holds a strictly
    # increasing key and that key's mask
    if name == "random":
        groups = random_groups(seed=2009, count=14)
    else:
        groups = [get_ctx(name).group]
    built = []
    init = pg.Subgroup.__init__

    def recording(self, parent, key):
        init(self, parent, key)
        built.append(self)

    monkeypatch.setattr(pg.Subgroup, "__init__", recording)
    for G in groups:
        g = pg.generate(G.degree, G.generators)
        del built[:]
        subs = pg.all_subgroups(g, bound=g.order)
        assert {H.key for H in built} == {H.key for H in subs}
        assert_keys_are_canonical(built)


# (subgroup count, digest as in LATTICE_DIGESTS), as returned when every
# cyclic extension outside the coset unions was spanned
NON_SOLVABLE_LATTICE_DIGESTS = {
    "PSL(2,7) on 7 points": (
        179, "a0039343274cd2ccb2f76100158600f8dc6048363e1137f0984def0835ed13fd"),
    "A5 on 6 points": (
        59, "b24f7fec9a720a635de5e9a8381ddddd94662e63ad44f6772b5729f11b09ff78"),
    "A5 x S3 on 8 points": (
        628, "bf6303617b9a5a14f3a548bc7eebd99fd72ade679d5623dfc5a1833d8f6ef919"),
    "S5 on 7 points": (
        156, "a47da0ba8a11a73b4653e06497e9f54c5a6604bf92a8ee87ce36cdc1e9fec131"),
}


@pytest.mark.parametrize("name", sorted(NON_SOLVABLE_LATTICE_DIGESTS))
def test_non_solvable_lattice_keys_match_recorded_digests(name):
    g = NON_SOLVABLE[name]()
    assert not g.is_solvable()
    keys = [sg.key for sg in pg.all_subgroups(g)]
    count, digest = NON_SOLVABLE_LATTICE_DIGESTS[name]
    assert len(keys) == count
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest


def test_largest_lattice_keys_match_recorded_digest():
    # radical:a=2,n=40, past the default enumeration bound: |G| = 640 and
    # 2 768 subgroups in 548 conjugacy classes; digest as in
    # LATTICE_DIGESTS, recorded from the enumeration that extended every
    # subgroup rather than one per class
    g = presets.load_instance("radical:a=2,n=40", enumeration_bound=640).group
    keys = [sg.key for sg in pg.all_subgroups(g, bound=640)]
    assert (g.order, len(keys), len(g._classes)) == (640, 2768, 548)
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == \
        "05d2395d26ecb1f1f353230e526dc4f72ebdcf71320122dd0fb19c2ab97919aa"


def assert_classes_are_literal(g):
    # oracle: conjugate every member of every class by every element of G
    subs = pg.all_subgroups(g)
    tab, inv = g.table, g.inverses
    conjugations = [[tab[tab[x][a]][inv[x]] for a in range(g.order)]
                    for x in range(g.order)]
    positions = []
    for members in g._classes:
        keys = {subs[i].key for i, _, _ in members}
        normalizers = {k: [] for k in keys}
        for x, conj in enumerate(conjugations):
            for k in keys:
                image = tuple(sorted(map(conj.__getitem__, k)))
                assert image in keys, (g.generators, k, x)
                if image == k:
                    normalizers[k].append(x)
        for i, gens, m in members:
            assert bfs_closure(g, gens) == set(subs[i].key)
            assert subs[m].key == tuple(normalizers[subs[i].key])
        assert len(members) * subs[members[0][2]].order == g.order
        positions += [i for i, _, _ in members]
    assert sorted(positions) == list(range(len(subs)))


@pytest.mark.parametrize("name", sorted(NON_SOLVABLE) + ["radical:a=2,n=20", "random"])
def test_subgroup_classes_are_closed_under_conjugation(name):
    # each class is closed under conjugation by every element of G, and
    # |class| * |N_G(rep)| = |G|, so it is one orbit; every member's
    # normalizer position is its literal normalizer, every member's
    # generators span it, and the classes partition the lattice
    if name == "random":
        groups = random_groups(seed=2009, count=14)
    elif name in NON_SOLVABLE:
        groups = [NON_SOLVABLE[name]()]
    else:
        groups = [get_ctx(name).group]
    for g in groups:
        assert_classes_are_literal(g)


def literal_is_solvable(g):
    # oracle: each derived term is generated by the commutators of every
    # pair of its elements; solvable iff the series reaches {identity}
    tab, inv = g.table, g.inverses
    term = set(range(g.order))
    while len(term) > 1:
        derived = bfs_closure(g, {tab[tab[inv[a]][inv[b]]][tab[a][b]]
                                  for a in term for b in term})
        if derived == term:
            return False
        term = derived
    return True


def test_is_solvable_agrees_with_literal_derived_series():
    a5 = pg.generate(5, [P.from_cycles("(1 2 3)", 5), P.from_cycles("(3 4 5)", 5)])
    named = [S(4), a5, S(5), abstract(S(4)), abstract(a5)]
    radicals = [get_ctx(f"radical:a=2,n={n}").group
                for n in (4, 6, 9, 12, 16, 20, 24, 30)]
    groups = named + radicals + random_groups(seed=2009, count=14)
    verdicts = [g.is_solvable() for g in groups]
    assert verdicts == [literal_is_solvable(g) for g in groups]
    assert verdicts[:5] == [True, False, False, True, False]
    assert all(verdicts[5:5 + len(radicals)])
    assert not all(verdicts[5 + len(radicals):])  # a non-solvable random group


@pytest.mark.parametrize("make", [lambda: S(4), D6,
                                  lambda: get_ctx("radical:a=2,n=12").group])
def test_span_from_a_base_is_the_closure(make):
    g = make()
    rng = random.Random(g.order)

    def random_subgroup():
        return g.subgroup(bfs_closure(g, rng.sample(range(g.order), rng.randint(1, 2))))

    bases = [g.trivial_subgroup(), g.full_subgroup()]
    bases += [random_subgroup() for _ in range(12)]
    for H in bases:
        for _ in range(6):
            extra = tuple(rng.randrange(g.order) for _ in range(rng.randint(0, 3)))
            gens = H.gens() + extra
            assert g.span(gens, H.key) == bfs_closure(g, gens)
        K = random_subgroup()
        assert set(pg.join(H, K).key) == bfs_closure(g, H.gens() + K.gens())


def test_subgroup_rejects_each_bad_set_with_its_reason():
    g = S(3)
    c3 = g.index_of(P.from_cycles("(1 2 3)", 3))
    for indices, message in [([1, 2], "must contain the identity"),
                             ([2, 1, 2], "must contain the identity"),
                             ([0, 6], "index out of range"),
                             ([6, 0, 6], "index out of range"),
                             ([0, -1], "index out of range"),
                             ([0, c3], "not closed under composition"),
                             ([c3, 0, c3], "not closed under composition")]:
        with pytest.raises(pg.PermGroupError, match=message):
            g.subgroup(indices)


@pytest.mark.parametrize("make", [lambda: S(4),
                                  lambda: get_ctx("radical:a=2,n=12").group],
                         ids=["S4", "radical:a=2,n=12"])
def test_subgroup_constructors_sort_and_dedupe_their_labels(make):
    # the checked constructor and generated_subgroup take labels in any
    # order, repeated, from any iterable, and give the key and mask of
    # sorted input; join and normal_closure sort their spans too
    g = make()
    rng = random.Random(g.order)
    lattice = pg.all_subgroups(g)
    full = g.full_subgroup()
    assert_keys_are_canonical([full, g.trivial_subgroup()])
    for H in lattice:
        labels = list(H.key) + rng.choices(H.key, k=3)
        rng.shuffle(labels)
        gens = list(H.gens()[::-1]) * 2
        for got in (g.subgroup(labels), g.subgroup(iter(labels)),
                    g.generated_subgroup(labels), g.generated_subgroup(gens)):
            assert (got.key, got.mask, got.order) == (H.key, H.mask, H.order)
        K = rng.choice(lattice)
        assert_keys_are_canonical([pg.join(H, K), pg.normal_closure(H, full)])


def test_subgroup_membership_is_false_for_every_int_outside_it():
    g = get_ctx("radical:a=2,n=12").group
    full = g.full_subgroup()
    assert -1 not in full and g.order not in full and 2 ** 80 not in full
    for H in pg.all_subgroups(g):
        members = set(H.key)
        for x in range(-3, g.order + 3):
            assert (x in H) == (x in members), (H.key, x)


def literal_is_closed(g, indices):
    # oracle: every pairwise product, looked up in the table
    tab = g.table
    return all(tab[i][j] in indices for i in indices for j in indices)


@pytest.mark.parametrize("make", [lambda: S(4), D6,
                                  lambda: get_ctx("radical:a=2,n=12").group],
                         ids=["S4", "D6", "radical:a=2,n=12"])
def test_subgroup_check_agrees_with_pairwise_closure(make):
    g = make()
    lattice = pg.all_subgroups(g)
    for sg in lattice:
        assert g.subgroup(sg.key) == sg
    rng = random.Random(31)
    verdicts = set()
    for _ in range(300):
        if rng.random() < 0.3:  # a random set
            indices = {0, *rng.sample(range(g.order), rng.randint(1, g.order - 1))}
        else:  # a lattice subgroup with up to two non-identity labels toggled
            indices = set(rng.choice(lattice).key)
            indices ^= set(rng.sample(range(1, g.order), rng.randint(0, 2)))
        closed = literal_is_closed(g, indices)
        verdicts.add(closed)
        if closed:
            assert set(g.subgroup(indices).key) == indices
        else:
            with pytest.raises(pg.PermGroupError, match="not closed"):
                g.subgroup(indices)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# normality and closures


def literal_normal(A, B):
    tab = A.parent.table
    inv = A.parent.inverses
    members = set(A.key)
    return all(tab[tab[b][a]][inv[b]] in members
               for b in B.key for a in A.key)


def test_is_normal_examples():
    g = S(3)
    a3 = g.generated_subgroup([g.index_of(P.from_cycles("(1 2 3)", 3))])
    refl = g.generated_subgroup([g.index_of(P.from_cycles("(1 2)", 3))])
    assert pg.is_normal(g.trivial_subgroup(), g.full_subgroup())
    assert pg.is_normal(a3, g.full_subgroup())
    assert not pg.is_normal(refl, g.full_subgroup())
    # the falsifying conjugator is (0 2) [1-based (1 3)]
    c = g.index_of(P.from_cycles("(1 3)", 3))
    t = g.index_of(P.from_cycles("(1 2)", 3))
    conj = g.table[g.table[c][t]][g.inverses[c]]
    assert conj not in refl


def test_is_normal_requires_nesting():
    g = S(3)
    a = g.generated_subgroup([g.index_of(P.from_cycles("(1 2)", 3))])
    b = g.generated_subgroup([g.index_of(P.from_cycles("(1 3)", 3))])
    with pytest.raises(pg.PermGroupError):
        pg.is_normal(a, b)


def _order54_group():
    from galtour import presets
    return presets.load_instance("radical:a=2,n=9").group


@pytest.mark.parametrize("make", [lambda: S(3), D6, lambda: S(4),
                                  _order54_group])
def test_is_normal_agrees_with_conjugation_scan(make):
    g = make()
    subs = pg.all_subgroups(g)
    for A in subs:
        for B in subs:
            if A.mask & B.mask == A.mask:
                assert pg.is_normal(A, B) == literal_normal(A, B)


def test_normal_closure_examples():
    g = D6()
    full = g.full_subgroup()
    s = g.generated_subgroup([g.index_of(P([0, 5, 4, 3, 2, 1]))])
    nc = pg.normal_closure(s, full)
    assert nc.order == 6
    # oracle: smallest normal subgroup of D6 containing s, by scan
    normals = [A for A in pg.all_subgroups(g)
               if literal_normal(A, full) and s.mask & A.mask == s.mask]
    assert min(a.order for a in normals) == 6
    # H normal in B -> closure is H itself
    rot = g.generated_subgroup([g.index_of(P.from_cycles("(1 2 3 4 5 6)", 6))])
    assert pg.normal_closure(rot, full) == rot


def test_normal_closure_of_stabilizer_in_s5():
    g = S(5)
    stab = g.subgroup(i for i in range(g.order) if g.elements[i].images[4] == 4)
    assert stab.order == 24
    assert pg.normal_closure(stab, g.full_subgroup()) == g.full_subgroup()
    # oracle: the only proper nontrivial normal subgroup is A5, which
    # does not contain the stabilizer
    full = g.full_subgroup()
    normals = [A for A in pg.all_subgroups(g) if literal_normal(A, full)]
    assert sorted(a.order for a in normals) == [1, 60, 120]
    a5 = next(a for a in normals if a.order == 60)
    assert stab.mask & a5.mask != stab.mask


def test_subnormal_closure_examples():
    g = D6()
    full = g.full_subgroup()
    rot = g.generated_subgroup([g.index_of(P.from_cycles("(1 2 3 4 5 6)", 6))])
    got, chain = pg.subnormal_closure(rot, full)
    assert got == rot and chain == [full, rot]
    s = g.generated_subgroup([g.index_of(P([0, 5, 4, 3, 2, 1]))])
    got, chain = pg.subnormal_closure(s, full)
    assert got.order == 6 and len(chain) == 2
    g5 = S(5)
    stab = g5.subgroup(i for i in range(120) if g5.elements[i].images[4] == 4)
    got, chain = pg.subnormal_closure(stab, g5.full_subgroup())
    assert got == g5.full_subgroup() and chain == [g5.full_subgroup()]


def test_subnormal_closure_chain_is_subnormal_and_minimal():
    from galtour.galois import GaloisContext
    from galtour.oracle import bf_smallest_subnormal
    for g in (S(3), D6(), S(4)):
        subs = pg.all_subgroups(g)
        full = g.full_subgroup()
        ctx = GaloisContext(g)
        for H in subs:
            got, chain = pg.subnormal_closure(H, full)
            assert chain[0] == full and chain[-1] == got
            for a, b in zip(chain, chain[1:]):
                assert b.mask & a.mask == b.mask and literal_normal(b, a)
            assert bf_smallest_subnormal(ctx, ctx.field_of(H), ctx.base).subgroup == got


# ---------------------------------------------------------------------------
# intersection and join


def test_intersection_join_examples():
    g = S(3)
    a = g.generated_subgroup([g.index_of(P.from_cycles("(1 2)", 3))])
    b = g.generated_subgroup([g.index_of(P.from_cycles("(1 3)", 3))])
    assert pg.join(a, g.trivial_subgroup()) == a
    assert pg.join(a, b) == g.full_subgroup()
    v = pg.generate(4, [P.from_cycles("(1 2)", 4), P.from_cycles("(3 4)", 4)])
    x = v.generated_subgroup([v.index_of(P.from_cycles("(1 2)", 4))])
    y = v.generated_subgroup([v.index_of(P.from_cycles("(3 4)", 4))])
    assert pg.join(x, y) == v.full_subgroup()


# ---------------------------------------------------------------------------
# quotients


def test_quotient_examples():
    g = S(3)
    full = g.full_subgroup()
    assert pg.quotient(full, full).order == 1
    a3 = g.generated_subgroup([g.index_of(P.from_cycles("(1 2 3)", 3))])
    assert pg.quotient(full, a3).order == 2
    d = D6()
    c6 = d.generated_subgroup([d.index_of(P.from_cycles("(1 2 3 4 5 6)", 6))])
    q = pg.quotient(d.full_subgroup(), c6)
    assert q.order == 2 and q.table == ((0, 1), (1, 0))


def test_quotient_requires_normal():
    g = S(3)
    refl = g.generated_subgroup([g.index_of(P.from_cycles("(1 2)", 3))])
    with pytest.raises(pg.PermGroupError):
        pg.quotient(g.full_subgroup(), refl)


def test_quotient_tables_are_groups():
    # quotient skips the table checks; the public constructor re-runs them
    # (identity, Latin square, inverses, associativity) on every B/N
    groups = [D6()] + [get_ctx(sel).group for sel in (
        "radical:a=2,n=4", "radical:a=2,n=6", "selmer-serre:n=4",
        "cyclo-radical:n=2,d=3,l=3")]
    for G in groups:
        subs = pg.all_subgroups(G)
        checked = 0
        for B in subs:
            for N in subs:
                if N <= B and pg.is_normal(N, B):
                    q = pg.quotient(B, N)
                    assert q.order == B.order // N.order
                    assert pg.AbstractGroup(q.table) == q  # raises on any axiom failure
                    checked += 1
        assert checked > len(subs)


# ---------------------------------------------------------------------------
# abstract groups and isomorphism


def _named_small_groups():
    c4 = pg.generate(4, [P.from_cycles("(1 2 3 4)", 4)])
    v4 = pg.generate(4, [P.from_cycles("(1 2)", 4), P.from_cycles("(3 4)", 4)])
    c6 = pg.generate(6, [P.from_cycles("(1 2 3 4 5 6)", 6)])
    a4 = pg.generate(4, [P.from_cycles("(1 2 3)", 4), P.from_cycles("(2 3 4)", 4)])
    d4 = pg.generate(4, [P.from_cycles("(1 2 3 4)", 4), P.from_cycles("(1 3)", 4)])
    return {
        "C4": abstract(c4), "V4": abstract(v4), "C6": abstract(c6),
        "S3": abstract(S(3)), "A4": abstract(a4), "D4": abstract(d4),
        "S4": abstract(S(4)),
    }


def test_are_isomorphic_examples():
    groups = _named_small_groups()
    ident = pg.are_isomorphic(groups["C4"], groups["C4"])
    assert ident == tuple(range(4))
    assert pg.are_isomorphic(groups["C4"], groups["V4"]) is None
    # S3 vs the dihedral group of order 6: same group realized differently
    d3 = pg.generate(3, [P.from_cycles("(1 2 3)", 3), P.from_cycles("(2 3)", 3)])
    phi = pg.are_isomorphic(groups["S3"], abstract(d3))
    assert phi is not None


def test_are_isomorphic_is_explicit_isomorphism():
    groups = _named_small_groups()
    a = groups["S3"]
    d3 = abstract(pg.generate(3, [P.from_cycles("(1 2 3)", 3),
                                  P.from_cycles("(2 3)", 3)]))
    phi = pg.are_isomorphic(a, d3)
    for x in range(a.order):
        for y in range(a.order):
            assert phi[a.table[x][y]] == d3.table[phi[x]][phi[y]]


def literal_is_isomorphism(a, b, phi):
    # oracle: a bijection that preserves every one of the n*n products
    n = a.order
    return (b.order == n and sorted(phi) == list(range(n))
            and all(phi[a.table[x][y]] == b.table[phi[x]][phi[y]]
                    for x in range(n) for y in range(n)))


def test_is_isomorphism_agrees_with_literal_products():
    rng = random.Random(6)
    quotients = set()
    for G in (S(4), D6(), get_ctx("radical:a=2,n=6").group):
        subs = pg.all_subgroups(G)
        quotients.update(pg.quotient(B, N) for B in subs for N in subs
                         if N <= B and pg.is_normal(N, B))
    quotients = sorted(quotients, key=lambda q: q.table)
    seen = {True: 0, False: 0}
    for a in quotients:
        n = a.order
        for b in quotients:
            maps = []
            if a.iso_invariant() == b.iso_invariant():
                true_iso = pg.are_isomorphic(a, b)
                if true_iso is not None:
                    maps.append(true_iso)
            for _ in range(3):
                rest = list(range(1, n))
                rng.shuffle(rest)
                maps.append([0] + rest)              # a random bijection fixing 0
                if n > 1:
                    moved = [rest[0], 0] + rest[1:]  # a bijection with phi(0) != 0
                    maps.append(moved)
                    maps.append([0] * n)             # not a bijection
            maps.append(list(range(1, n + 1)))       # a label out of range
            for phi in maps:
                verdict = a.is_isomorphism(b, phi)
                assert verdict == literal_is_isomorphism(a, b, phi), (a, b, phi)
                seen[verdict] += 1
    assert seen[True] > len(quotients) and seen[False] > len(quotients)


@given(st.sampled_from(sorted(_named_small_groups())),
       st.sampled_from(sorted(_named_small_groups())))
def test_are_isomorphic_reflexive_symmetric(n1, n2):
    groups = _named_small_groups()
    g1, g2 = groups[n1], groups[n2]
    assert pg.are_isomorphic(g1, g1) is not None
    fwd = pg.are_isomorphic(g1, g2)
    bwd = pg.are_isomorphic(g2, g1)
    assert (fwd is None) == (bwd is None)
    if fwd is None:
        # absent verdicts come with an invariant mismatch on this sample
        assert g1.iso_invariant() != g2.iso_invariant()


def test_are_isomorphic_bound():
    big = abstract(S(5))
    with pytest.raises(pg.BoundExceeded):
        pg.are_isomorphic(big, big, bound=100)


def test_abstract_group_rejects_bad_tables():
    with pytest.raises(pg.PermGroupError):
        pg.AbstractGroup(((0, 1), (0, 1)))  # not a Latin square
    with pytest.raises(pg.PermGroupError):
        pg.AbstractGroup(((1, 0), (0, 1)))  # label 0 not an identity
    loop = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
            (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))  # Latin square with identity
    with pytest.raises(pg.PermGroupError, match="not associative"):
        pg.AbstractGroup(loop)


def test_abstract_group_rejects_the_empty_table():
    with pytest.raises(pg.PermGroupError, match="table is empty"):
        pg.AbstractGroup([])


def _is_group_table(t):
    """Identity 0, a two-sided inverse for every label, associativity."""
    n = range(len(t))
    return (len(t) > 0
            and all(t[0][x] == x == t[x][0] for x in n)
            and all(any(t[x][y] == 0 == t[y][x] for y in n) for x in n)
            and all(t[t[a][b]][c] == t[a][t[b][c]]
                    for a in n for b in n for c in n))


def test_abstract_group_accepts_exactly_the_group_tables_up_to_order_3():
    seen = 0
    for n in range(4):
        for cells in itertools.product(range(n), repeat=n * n):
            t = [cells[i * n:(i + 1) * n] for i in range(n)]
            try:
                pg.AbstractGroup(t)
                accepted = True
            except pg.PermGroupError:
                accepted = False
            assert accepted == _is_group_table(t), t
            seen += 1
    assert seen == 1 + 1 + 2 ** 4 + 3 ** 9


def test_is_simple_examples():
    c5 = abstract(pg.generate(5, [P.from_cycles("(1 2 3 4 5)", 5)]))
    assert is_simple(c5)
    assert not is_simple(abstract(S(3)))
    a5 = pg.generate(5, [P.from_cycles("(1 2 3)", 5), P.from_cycles("(3 4 5)", 5)])
    assert a5.order == 60
    assert is_simple(abstract(a5))
    triv = abstract(pg.generate(1, []))
    assert not is_simple(triv)


def test_conjugate_subgroups():
    g = S(4)
    h = g.generated_subgroup([g.index_of(P.from_cycles("(1 2)", 4))])
    c = g.index_of(P.from_cycles("(1 3)", 4))
    conj = g.generated_subgroup(
        [g.table[g.table[c][x]][g.inverses[c]] for x in h.gens()])
    assert conj.order == h.order and conj != h
