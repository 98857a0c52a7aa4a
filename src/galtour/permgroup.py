"""Finite permutation-group engine.

Everything downstream (field lattices, towers, dissociation) reduces to
explicit computations in small permutation groups: closure, subgroup
enumeration, normality, normal/subnormal closures, quotients and
isomorphism testing.  All values are immutable after construction and can
be shared freely between workers.

Conventions:
  * points are 0-based internally; cycle notation in text I/O is 1-based;
  * the canonical order on group elements is lexicographic on image
    tuples, which puts the identity first;
  * a subgroup's canonical identity is the sorted tuple of element
    indices into its parent's canonical element order.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Iterable, Sequence
from functools import lru_cache

CLOSURE_BOUND = 10_000
SUBGROUP_ENUM_BOUND = 384
ISOMORPHISM_BOUND = 200
ASSOC_CHECK_BOUND = 200


class PermGroupError(Exception):
    """Invalid input to a group operation."""


class BoundExceeded(PermGroupError):
    """A configured size bound was exceeded."""


def factorize(n: int) -> dict:
    """Prime factorization of |n| as {prime: exponent}; {} for 0 and 1."""
    n = abs(n)
    out: dict = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ---------------------------------------------------------------------------
# permutations


class Permutation:
    """A permutation of {0..degree-1}, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise PermGroupError(f"not a bijection on 0..{len(images)-1}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == x for x, i in enumerate(self.images))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycles()!r}, degree={self.degree})"

    # 1-based disjoint-cycle text, identity rendered "()"
    def cycles(self) -> str:
        seen = [False] * self.degree
        parts = []
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
        return "".join(parts) if parts else "()"

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Permutation":
        """Parse 1-based disjoint cycle notation, e.g. ``(1 2 3)(4 5)``."""
        text = text.strip()
        if text in ("()", "", "e", "id"):
            return cls.identity(degree)
        if not re.fullmatch(r"(\s*\(\s*\d+(?:[\s,]+\d+)*\s*\)\s*)+", text):
            raise PermGroupError(f"bad cycle notation: {text!r}")
        images = list(range(degree))
        touched = set()
        for part in re.findall(r"\(([^()]*)\)", text):
            pts = [int(tok) - 1 for tok in re.split(r"[\s,]+", part.strip()) if tok]
            if any(p < 0 or p >= degree for p in pts):
                raise PermGroupError(f"point out of range 1..{degree} in {text!r}")
            if len(set(pts)) != len(pts) or touched & set(pts):
                raise PermGroupError(f"repeated point in {text!r}")
            touched |= set(pts)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
        return cls(images)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(x) = p(q(x))."""
    if p.degree != q.degree:
        raise PermGroupError(f"degree mismatch: {p.degree} != {q.degree}")
    qi = q.images
    pi = p.images
    return Permutation(tuple(pi[qi[x]] for x in range(len(pi))))


# ---------------------------------------------------------------------------
# table groups


class AbstractGroup:
    """A finite group given by its full multiplication table.

    Labels are 0..order-1 with the identity at 0.  A table handed in by a
    caller is checked at construction for identity, inverses and the
    Latin-square property, and for associativity when the order is within
    ``ASSOC_CHECK_BOUND``.  Tables the program derives from a verified
    group (quotients) are passed with ``_checked=True`` and not re-checked.
    Equality and hashing are by table.
    """

    __slots__ = ("order", "_table", "_inv", "_orders")

    def __init__(self, table: Sequence[Sequence[int]], _checked=False):
        table = tuple(tuple(row) for row in table)
        object.__setattr__(self, "order", len(table))
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_inv", None)
        object.__setattr__(self, "_orders", None)
        if not _checked:
            self._validate()

    def _validate(self):
        table, n = self._table, self.order
        full = set(range(n))
        if any(len(row) != n for row in table):
            raise PermGroupError("table is not square")
        if any(table[0][j] != j or table[j][0] != j for j in range(n)):
            raise PermGroupError("label 0 is not an identity")
        for i in range(n):
            if set(table[i]) != full or {table[j][i] for j in range(n)} != full:
                raise PermGroupError("table is not a Latin square")
        for i in range(n):
            if not any(table[i][j] == 0 for j in range(n)):
                raise PermGroupError(f"label {i} has no inverse")
        if n <= ASSOC_CHECK_BOUND:
            for a, b, c in itertools.product(range(n), repeat=3):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise PermGroupError("table is not associative")

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, AbstractGroup) and self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

    def __repr__(self) -> str:
        return f"AbstractGroup(order={self.order})"

    @property
    def table(self):
        return self._table

    @property
    def inverses(self) -> tuple:
        if self._inv is None:
            object.__setattr__(self, "_inv",
                               tuple(row.index(0) for row in self.table))
        return self._inv

    def element_orders(self) -> tuple:
        if self._orders is None:
            out = []
            tab = self.table
            for i in range(self.order):
                n, x = 1, i
                while x != 0:
                    x = tab[x][i]
                    n += 1
                out.append(n)
            object.__setattr__(self, "_orders", tuple(out))
        return self._orders

    def span(self, gens: Iterable[int], base: Sequence[int] = (0,)) -> set:
        """Labels of the subgroup generated by ``gens``, grown from the
        subgroup ``base`` one coset r*base at a time (Dimino).  ``gens``
        must generate ``base`` too, or the result is no subgroup."""
        tab = self.table
        gen_rows = [tab[g] for g in gens]
        closed = set(base)
        reps = [0]
        for x in reps:
            for gen_row in gen_rows:
                r = gen_row[x]
                if r not in closed:
                    reps.append(r)
                    row = tab[r]
                    for h in base:
                        closed.add(row[h])
        return closed

    def greedy_generators(self, labels: Iterable[int]) -> tuple:
        """Generators of the subgroup spanned by ``labels``: each label, in
        the order given, that the ones chosen before it do not span.
        Small and deterministic, not always minimum."""
        chosen: list[int] = []
        spanned = {0}
        for i in labels:
            if i not in spanned:
                chosen.append(i)
                spanned = self.span(chosen, tuple(spanned))
        return tuple(chosen)

    def normal_closure(self, gens: Iterable[int],
                       conjugators: Sequence[int]) -> set:
        """Labels of the smallest subgroup containing ``gens`` that every
        label in ``conjugators`` normalizes.  Each pass conjugates only the
        generators the pass before added; older ones already have theirs."""
        tab, inv = self.table, self.inverses
        gens = list(gens)
        closed = self.span(gens)
        fresh = gens
        while True:
            new = {c for b in conjugators for a in fresh
                   if (c := tab[tab[b][a]][inv[b]]) not in closed}
            if not new:
                return closed
            gens.extend(new)
            closed = self.span(gens, tuple(closed))
            fresh = new

    def iso_invariant(self) -> tuple:
        """(order, sorted element-order multiset): cheap isomorphism filter."""
        return (self.order, tuple(sorted(self.element_orders())))

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[i][j] == t[j][i]
                   for i in range(self.order) for j in range(i + 1, self.order))

    def is_cyclic(self) -> bool:
        return self.order in self.element_orders()

    def is_isomorphism(self, other: "AbstractGroup", phi: Sequence[int]) -> bool:
        """True iff the label map x |-> phi[x] is an isomorphism onto
        ``other``: a bijection that :func:`_close_homomorphism` rebuilds
        from its values on the greedy generators.  The walk checks
        phi[x*g] = phi[x]*phi[g] on every Cayley-graph edge; by induction
        on word length these n*k equations decide what the n*n products
        would."""
        n = self.order
        if other.order != n or sorted(phi) != list(range(n)):
            return False
        gens = self.greedy_generators(range(n))
        images = [phi[g] for g in gens]
        return _close_homomorphism(self, other, gens, images) == tuple(phi)

    def is_solvable(self) -> bool:
        """True iff the derived series reaches the trivial group.  Each
        term is the normal closure, in the term before, of the
        commutators of that term's generators."""
        tab, inv = self.table, self.inverses
        term = range(self.order)
        while len(term) > 1:
            gens = self.greedy_generators(term)
            derived = self.normal_closure(
                {tab[tab[inv[a]][inv[b]]][tab[a][b]] for a in gens for b in gens},
                gens)
            if len(derived) == len(term):
                return False
            term = sorted(derived)
        return True


class Group(AbstractGroup):
    """A finite permutation group with a fixed canonical element order.

    ``Group(degree, generators, bound)`` closes the generators under
    composition, so its elements are exactly what they reach
    (:class:`BoundExceeded` past ``bound``).  Labels index ``elements``,
    sorted by image tuple, so the identity has index 0.  The table and the
    subgroup lattice (:func:`all_subgroups`) are built lazily and cached.
    Equality and hashing are by identity: subgroups, field handles and
    memos key on the group object and never hash its table.
    """

    __slots__ = ("degree", "generators", "elements", "_index", "_gen_rows",
                 "_subgroups", "__weakref__")

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 bound: int = CLOSURE_BOUND):
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise PermGroupError(f"generator degree {g.degree} != {degree}")
        # closure on image tuples, multiplying on the left: products[k][x] is
        # the discovery label of g_k*x for the element with discovery label x
        gen_images = [g.images for g in generators]
        label = {tuple(range(degree)): 0}
        found = list(label)
        products = [[] for _ in gen_images]
        for x in found:
            for g, prods in zip(gen_images, products):
                y = tuple(map(g.__getitem__, x))
                j = label.get(y)
                if j is None:
                    if len(found) >= bound:
                        raise BoundExceeded(
                            f"closure exceeds bound {bound} (degree {degree})")
                    j = label[y] = len(found)
                    found.append(y)
                prods.append(j)
        order = sorted(range(len(found)), key=found.__getitem__)
        index = {found[x]: i for i, x in enumerate(order)}
        rank = list(map(index.__getitem__, found))  # discovery -> canonical
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "elements",
                           tuple(Permutation(found[x]) for x in order))
        object.__setattr__(self, "order", len(order))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_gen_rows",
                           [[rank[prods[x]] for x in order] for prods in products])
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_inv", None)
        object.__setattr__(self, "_orders", None)
        object.__setattr__(self, "_subgroups", None)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Group(degree={self.degree}, order={self.order})"

    def index_of(self, p: Permutation) -> int:
        try:
            return self._index[p.images]
        except KeyError:
            raise PermGroupError(f"{p!r} is not an element of this group") from None

    def __contains__(self, p: Permutation) -> bool:
        return isinstance(p, Permutation) and p.images in self._index

    @property
    def table(self) -> list:
        """Row x lists the labels of x*y for every label y.

        Composes no permutations: each generator's row g*y comes from the
        closure, and every other row is one index pass over a row already
        filled, row(x*g)[y] = row(x)[row(g)[y]], breadth first from row 0.
        """
        if self._table is None:
            tab = [None] * self.order
            tab[0] = list(range(self.order))
            filled = [0]
            for x in filled:
                row = tab[x]
                for gen_row in self._gen_rows:
                    y = row[gen_row[0]]  # gen_row[0] = g*e = g
                    if tab[y] is None:
                        tab[y] = list(map(row.__getitem__, gen_row))
                        filled.append(y)
            object.__setattr__(self, "_table", tab)
        return self._table

    # subgroup constructors ------------------------------------------------

    def subgroup(self, indices: Iterable[int]) -> "Subgroup":
        """The subgroup on a caller's element indices, the one constructor
        that checks its set: :class:`PermGroupError` unless it holds the
        identity, lies in 0..order-1 and is closed under composition (its
        greedy generators span nothing beyond it)."""
        indices = set(indices)
        if 0 not in indices:
            raise PermGroupError("subgroup must contain the identity (index 0)")
        if min(indices) < 0 or max(indices) >= self.order:
            raise PermGroupError("element index out of range")
        sub = Subgroup(self, indices)
        if len(self.span(sub.gens())) != sub.order:
            raise PermGroupError("element set not closed under composition")
        return sub

    def generated_subgroup(self, indices: Iterable[int]) -> "Subgroup":
        """Subgroup generated by the given element indices."""
        return Subgroup(self, self.span(set(indices)))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order))


def generate(degree: int, generators: Sequence[Permutation],
             bound: int = CLOSURE_BOUND) -> Group:
    """``Group(degree, generators, bound)``, whose closure checks the
    generator degrees and raises ``BoundExceeded`` past ``bound``."""
    return Group(degree, generators, bound)


def group_to_text(G: Group) -> str:
    """Serialize in the shared text format: degree line + generator lines."""
    lines = [f"degree: {G.degree}"]
    lines += [g.cycles() for g in G.generators] or ["()"]
    return "\n".join(lines) + "\n"


def group_from_text(text: str, bound: int = CLOSURE_BOUND) -> Group:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].lower().startswith("degree"):
        raise PermGroupError("first line must be 'degree: N'")
    m = re.fullmatch(r"degree\s*:\s*(\d+)", lines[0].lower())
    if not m:
        raise PermGroupError(f"bad degree line: {lines[0]!r}")
    degree = int(m.group(1))
    gens = [Permutation.from_cycles(ln, degree) for ln in lines[1:]]
    return generate(degree, gens or [Permutation.identity(degree)], bound=bound)


# ---------------------------------------------------------------------------
# subgroups


class Subgroup:
    """A subgroup of a :class:`Group`, identified by its canonical key.

    The canonical key is the sorted tuple of element indices into the
    parent's canonical element order; equality and hashing are bit-exact
    on it.  ``mask`` is the same set as a bitmask, for O(1) inclusion
    tests.  The constructor trusts its caller: the library passes only
    sets it has closed, and :meth:`Group.subgroup` checks any other set.
    """

    __slots__ = ("parent", "key", "indices", "mask", "order", "_gens")

    def __init__(self, parent: Group, indices: Iterable[int]):
        key = tuple(sorted(set(indices)))
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "indices", frozenset(key))
        object.__setattr__(self, "mask", sum(1 << i for i in key))
        object.__setattr__(self, "order", len(key))
        object.__setattr__(self, "_gens", None)

    def __setattr__(self, *a):
        raise AttributeError("Subgroup is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and other.key == self.key)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.key))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent!r})"

    def __le__(self, other: "Subgroup") -> bool:
        self._same_parent(other)
        return self.mask & other.mask == self.mask

    def __contains__(self, i: int) -> bool:
        return i in self.indices

    def _same_parent(self, other: "Subgroup"):
        if other.parent is not self.parent:
            raise PermGroupError("subgroups have different parent groups")

    def sort_key(self) -> tuple:
        """Canonical subgroup order: by order, then element-index tuple."""
        return (self.order, self.key)

    def gens(self) -> tuple:
        """A small generating set (greedy, deterministic), as indices."""
        if self._gens is None:
            object.__setattr__(self, "_gens", self.parent.greedy_generators(self.key))
        return self._gens


def intersection(A: Subgroup, B: Subgroup) -> Subgroup:
    A._same_parent(B)
    return Subgroup(A.parent, A.indices & B.indices)


def join(A: Subgroup, B: Subgroup) -> Subgroup:
    """Subgroup generated by A union B."""
    A._same_parent(B)
    if A <= B:
        return B
    if B <= A:
        return A
    if A.order < B.order:
        A, B = B, A
    G = A.parent
    return Subgroup(G, G.span(A.gens() + B.gens(), A.key))


def is_normal(A: Subgroup, B: Subgroup) -> bool:
    """True iff A is normal in B; requires A <= B."""
    A._same_parent(B)
    if not A <= B:
        raise PermGroupError("is_normal requires nested subgroups A <= B")
    tab = A.parent.table
    inv = A.parent.inverses
    for b in B.gens():
        bi = inv[b]
        for a in A.gens():
            if tab[tab[b][a]][bi] not in A.indices:
                return False
    return True


def normal_closure(H: Subgroup, B: Subgroup) -> Subgroup:
    """Smallest N with H <= N <= B and N normal in B."""
    H._same_parent(B)
    if not H <= B:
        raise PermGroupError("normal_closure requires H <= B")
    G = H.parent
    return Subgroup(G, G.normal_closure(H.gens(), B.gens()))


def subnormal_closure(H: Subgroup, B: Subgroup) -> tuple:
    """Iterate normal closures down from B to a fixpoint S.

    Returns ``(S, chain)`` where chain is B = S_0 |> S_1 |> ... |> S_k = S,
    each term normal in the one before; S is the smallest subgroup of B
    containing H that is subnormal in B.
    """
    H._same_parent(B)
    if not H <= B:
        raise PermGroupError("subnormal_closure requires H <= B")
    chain = [B]
    current = B
    while True:
        nxt = normal_closure(H, current)
        if nxt == current:
            return current, chain
        chain.append(nxt)
        current = nxt


def all_subgroups(G: Group, bound: int = SUBGROUP_ENUM_BOUND) -> list:
    """Every subgroup of G, canonically sorted.

    Layered cyclic extension (Neubüser; Holt-Eick-O'Brien, *Handbook of
    Computational Group Theory*, 8.1): from the trivial subgroup, extend
    each found subgroup A by each cyclic subgroup <c> of prime-power
    order p^k not inside A, to a fixpoint.  When c normalizes A and c^p
    lies in A, the extension is the union of the cosets c^i A for
    0 <= i < p, one row pass each.  In a solvable G only those
    extensions are made: every subgroup H > 1 has a normal subgroup A of
    prime index p, and the p-part of any element of H outside A is such
    a c.  When G is not solvable (its derived series stops above 1, as
    for S5 and A5), every other <c> is also tried, by closing A and c
    under products.  The lattice is computed once per group and kept on
    it; the bound is checked on every call.
    """
    if G.order > bound:
        raise BoundExceeded(f"|G| = {G.order} exceeds enumeration bound {bound}")
    if G._subgroups is not None:
        return list(G._subgroups)
    tab, inv = G.table, G.inverses
    # one entry per cyclic subgroup <c> of prime-power order p^k, c its least
    # generator: (c, c^p, conjugation by c, the rows of c .. c^(p-1))
    extensions = []
    listed = set()  # the generators of every <c> listed so far
    for c, n in enumerate(G.element_orders()):
        primes = factorize(n)
        if c in listed or len(primes) != 1:
            continue
        (p,) = primes
        powers = [0, c]
        while len(powers) < n:
            powers.append(tab[powers[-1]][c])
        listed.update(x for j, x in enumerate(powers) if j % p)
        extensions.append((c, powers[p % n], [tab[x][inv[c]] for x in tab[c]],
                           [tab[x] for x in powers[1:p]]))
    solvable = G.is_solvable()
    trivial = G.trivial_subgroup()
    found = {trivial.key: trivial}
    fresh = [trivial]
    for A in fresh:
        members, gens = A.indices, A.gens()
        # A and the coset unions made from it: a prime-power element of such
        # a union H outside A has its p-th power in A, so it extends A to H
        covered = set(members)
        for c, c_p, conj, rows in extensions:
            if c in covered:
                continue
            if c_p in members and members.issuperset(map(conj.__getitem__, gens)):
                key = A.key + tuple(itertools.chain.from_iterable(
                    map(row.__getitem__, A.key) for row in rows))
                covered.update(key)
            elif solvable:
                continue
            else:
                key = G.span(gens + (c,), A.key)
            key = tuple(sorted(key))
            if key not in found:
                found[key] = Subgroup(G, key)
                fresh.append(found[key])
    object.__setattr__(G, "_subgroups",
                       tuple(sorted(found.values(), key=Subgroup.sort_key)))
    return list(G._subgroups)


# ---------------------------------------------------------------------------
# quotients and isomorphism


def quotient(B: Subgroup, N: Subgroup) -> AbstractGroup:
    """B/N as an abstract group on canonical coset representatives.

    The representative of each coset is its minimal element in the
    parent's canonical order; cosets are labeled in increasing order of
    representative, which puts the identity coset at label 0.
    """
    if not is_normal(N, B):
        raise PermGroupError("quotient requires N normal in B")
    G = B.parent
    tab = G.table
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for i in B.key:  # ascending, so the first member seen is the minimum
        if i in coset_of:
            continue
        rep_label = len(reps)
        reps.append(i)
        for n in N.key:
            coset_of[tab[i][n]] = rep_label
    q = len(reps)
    table = [[coset_of[tab[reps[a]][reps[b]]] for b in range(q)] for a in range(q)]
    return AbstractGroup(table, _checked=True)


def _close_homomorphism(A: AbstractGroup, B: AbstractGroup,
                        gens: Sequence[int], images: Sequence[int]) -> tuple | None:
    """Extend gen |-> image to all of A; None on any inconsistency.

    The walk checks phi[x*g] = phi[x]*image(g) on every Cayley-graph edge
    x -> x*g, so a bijective result is an isomorphism, by the argument of
    :meth:`AbstractGroup.is_isomorphism`.
    """
    ta, tb = A.table, B.table
    phi = {0: 0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g, h in zip(gens, images):
            y = ta[x][g]
            w = tb[phi[x]][h]
            if y in phi:
                if phi[y] != w:
                    return None
            else:
                phi[y] = w
                frontier.append(y)
    if len(phi) != A.order:
        return None  # gens do not generate A (cannot happen for our gens)
    out = tuple(phi[i] for i in range(A.order))
    if len(set(out)) != A.order:
        return None
    return out


def are_isomorphic(G1: AbstractGroup, G2: AbstractGroup,
                   bound: int = ISOMORPHISM_BOUND) -> tuple | None:
    """An explicit isomorphism as a label map G1 -> G2, or None.

    Backtracking on images of a greedy generating set of G1, pruned by
    element order.  Deterministic: candidates are tried in label order,
    the first isomorphism found is returned.
    """
    if G1.order > bound or G2.order > bound:
        raise BoundExceeded(f"order exceeds isomorphism bound {bound}")
    if G1.iso_invariant() != G2.iso_invariant():
        return None
    gens = G1.greedy_generators(range(G1.order))
    if not gens:  # trivial group
        return (0,)
    ord1 = G1.element_orders()
    ord2 = G2.element_orders()
    candidates = [
        tuple(j for j in range(G2.order) if ord2[j] == ord1[g]) for g in gens
    ]

    def backtrack(k: int, images: list) -> tuple | None:
        if k == len(gens):
            return _close_homomorphism(G1, G2, gens, images)
        for j in candidates[k]:
            images.append(j)
            found = backtrack(k + 1, images)
            if found is not None:
                return found
            images.pop()
        return None

    return backtrack(0, [])


def is_simple(A: AbstractGroup, bound: int = ISOMORPHISM_BOUND) -> bool:
    """True iff A has no proper nontrivial normal subgroup.

    Checks that the normal closure of every non-identity element is the
    whole group; the trivial group is not simple.
    """
    if A.order > bound:
        raise BoundExceeded(f"order exceeds bound {bound}")
    if A.order == 1:
        return False
    conjugators = A.greedy_generators(range(A.order))
    return all(len(A.normal_closure((g,), conjugators)) == A.order
               for g in range(1, A.order))


@lru_cache(maxsize=4096)
def _iso_cached(G1: AbstractGroup, G2: AbstractGroup) -> tuple | None:
    return are_isomorphic(G1, G2, bound=math.inf)


def isomorphism(G1: AbstractGroup, G2: AbstractGroup) -> tuple | None:
    """Memoized :func:`are_isomorphic` with no order cap.

    Memo keys are the groups themselves, which hash and compare by table.
    Callers pass quotients of a context's group, and that group already
    passed the subgroup enumeration bound the caller chose.
    """
    return _iso_cached(G1, G2)
