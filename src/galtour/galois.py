"""The finite Galois correspondence over an explicit closure group.

A :class:`GaloisContext` fixes a finite group G, read as the Galois group
of a closure N/K, and materializes the antitone bijection between the
subgroups of G and the intermediate fields of N/K.  Fields are opaque
handles (:class:`FieldRef`) whose identity is the canonical form of the
corresponding subgroup; the distinguished field L marks the extension
under study.

Compositum corresponds to subgroup intersection, field intersection to
subgroup join, and E/F is Galois exactly when Gal(N/E) is normal in
Gal(N/F).  The context's lattice queries take and return fields:
composita, field intersections, intervals, covers, Galois steps,
subnormal closures and reach rows (the positions subnormal in a field's
subgroup) are read by position from its lattice index (up- and
down-sets, and the Galois relation as one more row: the positions normal
in each), and its memos are keyed by the refs themselves.  E/F is
Galois iff bit E of ``nbelow[F]`` is set; the fields of an interval
Galois over its bottom, and a normal closure, are one AND of two rows,
with no per-position test.  Only
:meth:`GaloisContext.field_of` and :meth:`GaloisContext.normal_in` take
subgroups.  :mod:`permgroup` only builds the group, its lattice with the
conjugacy classes and normalizers, forms quotients and tests them for
isomorphism.
On top of that sit quadrilaterals (J,K,N,L) with K cap L = J and KL = N,
parallelograms (all four sides Galois), the diagonal splitting and
"ecartele" exchange laws, and the inverse antitone bijections R and S
between sub- and quotient-quadrilaterals.

Contexts are immutable after construction and safe to share between
workers.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence

from . import permgroup as pg
from .permgroup import AbstractGroup, Group, Subgroup


class GaloisError(Exception):
    """Invalid input to a Galois-correspondence operation."""


class TheoremViolation(Exception):
    """A check guaranteed by a theorem failed, or a value the library
    computed was refused: a tower or witness (``towers._computed``) or a
    marche isomorphism (:meth:`GaloisContext.isomorphism`).  Seeing this
    is always a bug report, never a user error."""


class FieldRef(pg._Immutable):
    """Handle for an intermediate field of the context's closure.

    Refs are made only by :class:`GaloisContext`, one per lattice position
    ``pos``, so two refs are equal iff they are the same object.  Field
    containment E <= F holds iff Subgroup(F) <= Subgroup(E): bit ``E.pos``
    of F's up-set.  Every lattice read is by ``pos`` in the index of the
    ref's own context; a context refuses refs of another.
    """

    __slots__ = ("ctx", "subgroup", "pos")

    def __init__(self, ctx: "GaloisContext", subgroup: Subgroup, pos: int):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "subgroup", subgroup)
        object.__setattr__(self, "pos", pos)

    def __le__(self, other: "FieldRef") -> bool:
        """self is a subfield of other: its position is in other's up-set."""
        self.ctx._own(other)
        return self.ctx._up[other.pos] >> self.pos & 1 == 1

    def __lt__(self, other: "FieldRef") -> bool:
        return self <= other and self != other

    @property
    def name(self) -> str:
        return self.ctx.display_name(self)

    def __repr__(self) -> str:
        return f"FieldRef({self.name})"


class GaloisContext:
    """G = Gal(N/K) plus the full registry of intermediate fields.

    The registry is populated eagerly from :func:`permgroup.all_subgroups`
    at construction; construction fails if |G| exceeds the enumeration
    bound.  ``base`` is K (subgroup G), ``top_closure`` is N (trivial
    subgroup), ``distinguished`` is the studied extension's summit L.

    ``names`` maps field names to the subgroups fixing them, in order; the
    first name given to a field is its display name (``self.names`` maps
    field -> display name), and every name resolves by :meth:`field_by_name`.
    A name of the digest form ``H<order>.<hex>`` is refused, since an
    unnamed field may display as it.

    Built at construction: the lattice index, i.e. per position in
    ``subgroups`` the up- and down-set bitmasks and the ``nbelow`` bitmask
    of the positions below it that are normal in it, the one stored form
    of the Galois relation.  It is read from the conjugacy classes that
    :func:`permgroup.all_subgroups` keeps on the group (each member's
    generators and the position of its normalizer), with no conjugation
    or span of its own.  Normality of one pair is a bit test; the fields
    of an interval Galois over its bottom are an AND.
    Lazily filled through the one helper :meth:`_memo`, and dropped with
    the context: the quotient cache, which holds only Galois pairs; the
    isomorphism memo, holding each verified isomorphism of two marches
    and None for non-isomorphic ones; the digest names, one block per
    subgroup order; the checked M(L/K) reports and composition towers,
    which only :mod:`dissociation` fills; the reach rows of
    :meth:`_reach_row`, one per field asked, which only
    :mod:`dissociation` fills as well; and the literal oracle's rows,
    one entry that only :mod:`oracle` fills.  A value is stored only once
    its computation returned, so a refusal is never kept.  Field-keyed
    memos are keyed by the refs, not their positions, so a ref of another
    context misses and is refused.  Concurrent filling is safe: each entry
    is a deterministic value, written once (a race at most rewrites it).
    """

    def __init__(self, group: Group, *, distinguished: Subgroup | None = None,
                 names: dict | None = None, notes: dict | None = None,
                 enumeration_bound: int = pg.SUBGROUP_ENUM_BOUND):
        full, trivial = group.full_subgroup(), group.trivial_subgroup()
        # the reserved names; a caller may bind them only to the same fields
        reserved = {"K": full, "N": trivial, "closure": trivial,
                    "L": trivial if distinguished is None else distinguished}
        for name, sg in (names or {}).items():  # before the lattice, which may be large
            if re.fullmatch(r"H\d+\.[0-9a-f]+", name):
                raise GaloisError(f"field name {name!r} has the form of a digest name")
            if name in reserved and sg.mask != reserved[name].mask:
                raise GaloisError(f"duplicate field name {name!r}")
        self.group = group
        self.subgroups = pg.all_subgroups(group, bound=enumeration_bound)
        self._fields = [FieldRef(self, sg, i) for i, sg in enumerate(self.subgroups)]
        self._pos = {sg.mask: i for i, sg in enumerate(self.subgroups)}
        self.base = self.field_of(full)
        self.top_closure = self.field_of(trivial)
        self.distinguished = (self.top_closure if distinguished is None
                              else self.field_of(distinguished))
        self.names: dict = {}
        self._name_to_field: dict = {"K": self.base, "L": self.distinguished,
                                     "N": self.top_closure,
                                     "closure": self.top_closure}
        for name, sg in (names or {}).items():
            ref = self.field_of(sg)
            self._name_to_field.setdefault(name, ref)  # a reserved name is ref already
            self.names.setdefault(ref, name)
        self.notes = dict(notes or {})
        self._quotient_cache: dict = {}
        self._iso_cache: dict = {}
        self._digest_names: dict = {}
        self._report_cache: dict = {}  # filled and read by dissociation alone
        self._composition_cache: dict = {}  # likewise
        self._reach_rows: dict = {}  # likewise
        self._literal_rows: dict = {}  # filled and read by oracle alone
        self._up, self._down, self._nbelow = _lattice_index(
            group, self.subgroups)
        self._frozen = True

    def __setattr__(self, name, value):
        if getattr(self, "_frozen", False):
            raise AttributeError("GaloisContext is immutable")
        super().__setattr__(name, value)

    def __repr__(self) -> str:
        return (f"GaloisContext(|G|={self.group.order}, "
                f"fields={len(self.subgroups)}, L={self.distinguished.name})")

    # registry lookups -------------------------------------------------------

    def _position(self, sg: Subgroup) -> int:
        if sg.parent is not self.group:
            raise GaloisError("subgroup does not belong to this context's group")
        return self._pos[sg.mask]  # the registry holds every subgroup

    def field_of(self, sg: Subgroup) -> FieldRef:
        return self._fields[self._position(sg)]

    def all_fields(self) -> list:
        """Every intermediate field, in canonical subgroup order."""
        return list(self._fields)

    def display_name(self, ref: FieldRef) -> str:
        """The field's first given name, else its digest name
        ``H<order>.<hex>``: the first 6 hex digits of the md5 of its
        subgroup key, or, where another unnamed field shares those, the
        shortest longer prefix that none shares."""
        self._own(ref)
        if ref in self.names:
            return self.names[ref]
        order = ref.subgroup.order
        return self._memo(self._digest_names, order, self._name_order, order)[ref]

    def _name_order(self, order: int) -> dict:
        """Digest names for the unnamed fields of one order, by ref: only
        those can share a name."""
        import hashlib  # on first use: a CLI call that shows no digest name skips it
        digests = {F: hashlib.md5(repr(F.subgroup.key).encode()).hexdigest()
                   for F in self._fields
                   if F.subgroup.order == order and F not in self.names}
        sharing: dict = {}
        for d in digests.values():
            sharing.setdefault(d[:6], []).append(d)
        block = {}
        for F, d in digests.items():
            k = 6
            while any(e != d and e[:k] == d[:k] for e in sharing[d[:6]]):
                k += 1
            block[F] = f"H{order}.{d[:k]}"
        return block

    def field_by_name(self, name: str) -> FieldRef:
        if name in self._name_to_field:
            return self._name_to_field[name]
        for ref in self.all_fields():
            if self.display_name(ref) == name:
                return ref
        raise GaloisError(f"unknown field name {name!r}")

    def _own(self, *refs: FieldRef) -> None:
        """Refuse refs of another context, whose positions mean nothing here."""
        for ref in refs:
            if ref.ctx is not self:
                raise GaloisError("field refs belong to different contexts")

    def _nested(self, F: FieldRef, E: FieldRef, what: str) -> None:
        if F.ctx is not self or E.ctx is not self:  # inline: the hottest check
            self._own(F, E)
        if not self._up[E.pos] >> F.pos & 1:
            raise GaloisError(f"{what} requires F <= E as fields")

    def _interval(self, F: FieldRef, E: FieldRef) -> int:
        """The positions of the fields M with F <= M <= E; requires F <= E."""
        self._nested(F, E, "interval")
        return self._up[E.pos] & self._down[F.pos]

    def interval_fields(self, F: FieldRef, E: FieldRef) -> list:
        """Fields M with F <= M <= E, canonical order; requires F <= E."""
        return _pick(self._fields, self._interval(F, E))

    def interval_size(self, F: FieldRef, E: FieldRef) -> int:
        """The number of fields M with F <= M <= E, counted without building
        them; requires F <= E."""
        return self._interval(F, E).bit_count()

    def covers(self, F: FieldRef) -> list:
        """The minimal fields strictly above F, canonical order: the fields
        of the maximal proper subgroups of Subgroup(F)."""
        self._own(F)
        return self._minimal(self._down[F.pos] & ~(1 << F.pos))

    def _minimal(self, bits: int) -> list:
        """The minimal fields among the positions ``bits``, canonical order:
        the positions j whose up-set meets ``bits`` in j alone."""
        up = self._up
        return [self._fields[j] for j in _pick(range(len(up)), bits)
                if up[j] & bits == 1 << j]

    def normal_in(self, A: Subgroup, B: Subgroup) -> bool:
        """A normal in B, bit A of ``nbelow[B]``; requires A <= B."""
        a, b = self._position(A), self._position(B)
        if not self._up[a] >> b & 1:
            raise GaloisError("normal_in requires A <= B")
        return self._nbelow[b] >> a & 1 == 1

    def galois_steps(self, F: FieldRef, E: FieldRef) -> list:
        """The minimal fields M with F < M <= E and M/F Galois, canonical
        order; requires F <= E.  M/F is Galois iff bit M of ``nbelow[F]``
        is set.  Minimal is not covering: S5's Galois step from
        A5's field to the closure passes many fields.
        """
        self._nested(F, E, "galois_steps")
        return self._minimal(self._up[E.pos] & self._nbelow[F.pos] & ~(1 << F.pos))

    def subnormal_closure(self, E: FieldRef, F: FieldRef) -> tuple:
        """Iterate normal closures of Subgroup(E) down from Subgroup(F) to a
        fixpoint; requires F <= E.

        Returns ``(M, chain)``, chain the fields F = M_0 < ... < M_k = M
        with Subgroup(M_{i+1}) the normal closure of Subgroup(E) in
        Subgroup(M_i): M is the largest field of [F, E] galtourable over
        F, and the chain is the witness of an M(L/K) report (a yes/no
        verdict reads :meth:`_reach_row` instead).  Each normal closure
        is the lowest set bit of E's up-set AND ``nbelow[b]``, the
        positions normal in the current term b: those are closed under
        intersection and canonical order is by order first
        (Holt-Eick-O'Brien, *Handbook of Computational Group Theory*,
        8.1).
        """
        self._nested(F, E, "subnormal_closure")
        up_e, b = self._up[E.pos], F.pos
        fields, nbelow = self._fields, self._nbelow
        chain = [fields[b]]
        while True:
            bits = up_e & nbelow[b]  # b itself is one of them
            j = (bits & -bits).bit_length() - 1
            if j == b:
                return fields[b], chain
            chain.append(fields[j])
            b = j

    def _reach_row(self, F: FieldRef) -> int:
        """The positions whose subgroup is subnormal in Subgroup(F): the
        closure of ``nbelow`` from F, each reached position's row ORed in
        once.  E/F is galtourable iff bit E is set."""
        self._own(F)
        nbelow = self._nbelow
        row = todo = 1 << F.pos
        while todo:
            j = todo.bit_length() - 1
            new = nbelow[j] & ~row
            row |= new
            todo = (todo ^ 1 << j) | new
        return row

    def quotient_group(self, E: FieldRef, F: FieldRef) -> AbstractGroup:
        """Gal(E/F) = Subgroup(F)/Subgroup(E), kept by (E, F).  Refuses E/F
        not Galois, or not an extension: bit E of ``nbelow[F]`` clear."""
        return self._memo(self._quotient_cache, (E, F), self._quotient, E, F)

    def _quotient(self, E: FieldRef, F: FieldRef) -> AbstractGroup:
        self._own(E, F)
        if not self._nbelow[F.pos] >> E.pos & 1:
            raise GaloisError(f"{E.name}/{F.name} is not Galois; no quotient group")
        return pg.quotient(F.subgroup, E.subgroup)

    def isomorphism(self, m1: tuple, m2: tuple) -> tuple | None:
        """An isomorphism Gal(hi1/lo1) -> Gal(hi2/lo2) of two marches
        ``(lo, hi)`` as a label map of their quotient groups, or None;
        kept by the four refs, None included.  A found map is verified
        with ``is_isomorphism`` before it is stored, so a memo entry needs
        no second check; one that does not verify is a
        :class:`TheoremViolation` and is not kept.  Refuses what
        :meth:`quotient_group` refuses.  No quotient is larger than G."""
        return self._memo(self._iso_cache, (*m1, *m2), self._isomorphism, m1, m2)

    def _isomorphism(self, m1: tuple, m2: tuple) -> tuple | None:
        (lo1, hi1), (lo2, hi2) = m1, m2
        q1, q2 = self.quotient_group(hi1, lo1), self.quotient_group(hi2, lo2)
        phi = pg.are_isomorphic(q1, q2, bound=self.group.order)
        if phi is not None and not q1.is_isomorphism(q2, phi):
            raise TheoremViolation("marche isomorphism does not verify")
        return phi

    def _memo(self, table: dict, key, compute, *args):
        """``table[key]``, else ``compute(*args)``, stored once it returned
        (a refusal is never kept): the one reader and writer of each memo."""
        try:
            return table[key]
        except KeyError:
            pass
        value = table[key] = compute(*args)
        return value


def _lattice_index(group: Group, subgroups: Sequence[Subgroup]) -> tuple:
    """(up, down, nbelow) over the positions of ``subgroups``, the lattice
    :func:`permgroup.all_subgroups` returned for ``group``, read from its
    classes (``group._classes``: per member, generators and the position
    of its normalizer) and from ``holds``: holds[x] marks the positions
    whose subgroup contains element x.

    up[i] marks the subgroups containing subgroup i, the AND over i's
    generators of the positions holding each; down is up transposed
    (up[i] has no bit below i).  nbelow[f] marks the positions j <= f
    normal in f, i.e. with f in N_G(j): down[f] AND the OR, over the
    normalizer positions m in up[f], of the positions whose normalizer is
    m.  Distinct normalizers are few (96 of 5712 subgroups at radical
    n=60), and the sets of them above a position fewer still (175), so
    each such OR is formed once.  Nothing is conjugated or spanned here.
    """
    n = len(subgroups)
    holds = [0] * group.order
    for i, sg in enumerate(subgroups):
        for x in sg.key:
            holds[x] |= 1 << i
    up, down = [0] * n, [0] * n
    same = [0] * n  # same[m]: the positions whose normalizer is m, disjoint
    for members in group._classes:
        for i, gens, m in members:
            bits = holds[0]  # the identity: every position
            for x in gens:
                bits &= holds[x]
            up[i] = bits
            same[m] |= 1 << i
    for i, bits in enumerate(up):
        bit, s = 1 << i, bin(bits)[:1:-1]
        j = i  # bit i is the lowest
        while j >= 0:
            down[j] |= bit
            j = s.find("1", j + 1)
    normalizers = sum(1 << m for m, bits in enumerate(same) if bits)
    normal_under: dict = {}  # keyed by the normalizers above f: few distinct
    nbelow = []
    for f in range(n):
        key = up[f] & normalizers
        if key not in normal_under:
            normal_under[key] = sum(_pick(same, key))
        nbelow.append(down[f] & normal_under[key])
    return up, down, nbelow


def _pick(seq: Sequence, bits: int) -> list:
    """The items of seq at the set bits of ``bits``, in ascending order."""
    s = bin(bits)[:1:-1]
    out = []
    i = s.find("1")
    while i >= 0:
        out.append(seq[i])
        i = s.find("1", i + 1)
    return out


# ---------------------------------------------------------------------------
# basic operations of the correspondence


def degree(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> int:
    """[E:F] = index of Subgroup(E) in Subgroup(F); requires F <= E."""
    ctx._nested(F, E, "degree")
    return F.subgroup.order // E.subgroup.order


def compositum(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> FieldRef:
    """EF: the largest common subgroup of E and F, last in canonical order."""
    ctx._own(E, F)
    bits = ctx._down[E.pos] & ctx._down[F.pos]
    return ctx._fields[bits.bit_length() - 1]


def intersect_fields(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> FieldRef:
    """E cap F: the least subgroup containing both, first in canonical order."""
    ctx._own(E, F)
    bits = ctx._up[E.pos] & ctx._up[F.pos]
    return ctx._fields[(bits & -bits).bit_length() - 1]


def is_galois(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> bool:
    """E/F Galois iff Subgroup(E) is normal in Subgroup(F), bit E of
    ``nbelow[F]``; requires F <= E."""
    ctx._nested(F, E, "is_galois")
    return ctx._nbelow[F.pos] >> E.pos & 1 == 1


# ---------------------------------------------------------------------------
# quadrilaterals and parallelograms


class Quadrilateral(pg._Immutable):
    """(J, K, N, L) with K cap L = J and KL = N, checked at construction.

    Flat quadrilaterals (K = J or L = J) are accepted; every extension E/F
    identifies with the flat quadrilateral (F, E, E, F).
    """

    __slots__ = ("J", "K", "N", "L")

    def __init__(self, J: FieldRef, K: FieldRef, N: FieldRef, L: FieldRef):
        ctx = J.ctx
        ctx._own(K, N, L)
        if intersect_fields(ctx, K, L) != J:
            raise GaloisError("(Q1) failed: K cap L != J")
        if compositum(ctx, K, L) != N:
            raise GaloisError("(Q2) failed: KL != N")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "L", L)

    @property
    def ctx(self) -> GaloisContext:
        return self.J.ctx

    def is_flat(self) -> bool:
        return self.K == self.J or self.L == self.J

    def components(self) -> tuple:
        return (self.J, self.K, self.N, self.L)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Quadrilateral)
                and self.components() == other.components())

    def __hash__(self) -> int:
        return hash(self.components())

    def __repr__(self) -> str:
        return (f"Quadrilateral[{self.J.name}, {self.K.name}, "
                f"{self.N.name}, {self.L.name}]")


def is_parallelogram(ctx: GaloisContext, q: Quadrilateral) -> bool:
    """All four sides Galois; K/J and L/J Galois suffices."""
    return is_galois(ctx, q.K, q.J) and is_galois(ctx, q.L, q.J)


def parallelogram_degree(ctx: GaloisContext, q: Quadrilateral) -> tuple:
    """deg[J,K,N,L] = ([N:K], [K:J])."""
    return (degree(ctx, q.N, q.K), degree(ctx, q.K, q.J))


def diagonal_split_check(ctx: GaloisContext, q: Quadrilateral) -> bool:
    """Verify Gal(N/J) = Gal(N/K) x Gal(N/L) inside the quadrilateral.

    Internal direct product, checked literally: elementwise commuting
    modulo Gal(N/N) and product cardinality equal to |Gal(N/J)|.  The
    trivial intersection modulo Gal(N/N) is (Q2), checked when the
    quadrilateral was built.
    """
    if not is_parallelogram(ctx, q):
        raise GaloisError("diagonal_split_check requires a parallelogram")
    SJ, SK, SN, SL = (q.J.subgroup, q.K.subgroup, q.N.subgroup, q.L.subgroup)
    tab, inv = ctx.group.table, ctx.group.inverses
    members = set(SN.key)
    for a in SK.key:
        ai = inv[a]
        for b in SL.key:
            comm = tab[tab[tab[a][b]][ai]][inv[b]]
            if comm not in members:
                return False
    return SK.order * SL.order // SN.order == SJ.order


def ecartele_identities(ctx: GaloisContext, K: FieldRef, L: FieldRef,
                        E: FieldRef, F: FieldRef) -> bool:
    """The compositum/intersection exchange laws of the split theorem.

    With J = K cap L and K/J, L/J Galois:
      (1) for J <= E <= K, J <= F <= L:   KF cap EL = EF;
      (2) for K <= E <= KL, L <= F <= KL: (K cap F)(E cap L) = E cap F.
    Evaluates every applicable identity and returns the conjunction;
    raises naming the failing hypothesis if none applies.
    """
    ctx._own(K, L, E, F)
    J = intersect_fields(ctx, K, L)
    if not is_galois(ctx, K, J):
        raise GaloisError(f"hypothesis failed: {K.name}/{J.name} not Galois")
    if not is_galois(ctx, L, J):
        raise GaloisError(f"hypothesis failed: {L.name}/{J.name} not Galois")
    N = compositum(ctx, K, L)
    verdicts = []
    if J <= E <= K and J <= F <= L:
        lhs = intersect_fields(ctx, compositum(ctx, K, F), compositum(ctx, E, L))
        verdicts.append(lhs == compositum(ctx, E, F))
    if K <= E <= N and L <= F <= N:
        lhs = compositum(ctx, intersect_fields(ctx, K, F),
                         intersect_fields(ctx, E, L))
        verdicts.append(lhs == intersect_fields(ctx, E, F))
    if not verdicts:
        raise GaloisError(
            "hypothesis failed: (E, F) fits neither identity "
            f"(E={E.name}, F={F.name} relative to K={K.name}, L={L.name})")
    return all(verdicts)


# sub- and quotient-quadrilaterals of a fixed parallelogram -------------------


def sub_quadrilaterals(ctx: GaloisContext, par: Quadrilateral) -> Iterator[Quadrilateral]:
    """All (E cap F, E, N, F) with K <= E <= N and L <= F <= N."""
    for E in ctx.interval_fields(par.K, par.N):
        for F in ctx.interval_fields(par.L, par.N):
            yield Quadrilateral(intersect_fields(ctx, E, F), E, par.N, F)


def quotient_quadrilaterals(ctx: GaloisContext, par: Quadrilateral) -> Iterator[Quadrilateral]:
    """All (J, E, EF, F) with J <= E <= K and J <= F <= L."""
    for E in ctx.interval_fields(par.J, par.K):
        for F in ctx.interval_fields(par.J, par.L):
            yield Quadrilateral(par.J, E, compositum(ctx, E, F), F)


def _check_sub_quadrilateral(par, sub):
    if sub.N != par.N or not (par.K <= sub.K <= par.N) or not (par.L <= sub.L <= par.N):
        raise GaloisError("not a sub-quadrilateral of the given parallelogram")


def _check_quotient_quadrilateral(par, quot):
    if quot.J != par.J or not (par.J <= quot.K <= par.K) or not (par.J <= quot.L <= par.L):
        raise GaloisError("not a quotient quadrilateral of the given parallelogram")


def bijection_R(ctx: GaloisContext, par: Quadrilateral,
                sub: Quadrilateral) -> Quadrilateral:
    """R: (M,E,N,F) |-> (J, K cap F, M, E cap L); inverse of :func:`bijection_S`."""
    _check_sub_quadrilateral(par, sub)
    E, F = sub.K, sub.L
    return Quadrilateral(par.J,
                         intersect_fields(ctx, par.K, F),
                         sub.J,
                         intersect_fields(ctx, E, par.L))


def bijection_S(ctx: GaloisContext, par: Quadrilateral,
                quot: Quadrilateral) -> Quadrilateral:
    """S: (J,E,C,F) |-> (C, KF, N, EL); inverse of :func:`bijection_R`."""
    _check_quotient_quadrilateral(par, quot)
    E, F = quot.K, quot.L
    return Quadrilateral(quot.N,
                         compositum(ctx, par.K, F),
                         par.N,
                         compositum(ctx, E, par.L))


# ---------------------------------------------------------------------------
# external formats


def to_dot(ctx: GaloisContext) -> str:
    """DOT graph of the field lattice: covering edges, doubled when Galois."""
    fields = ctx.all_fields()
    names = [ref.name for ref in fields]  # by position, each computed once
    lines = ["digraph field_lattice {", "  rankdir=BT;"]
    for ref, name in zip(fields, names):
        d = degree(ctx, ref, ctx.base)
        lines.append(f'  "{name}" [label="{name} [deg {d} over base]"];')
    for lower in fields:
        for upper in ctx.covers(lower):
            attr = ' [color="black:black"]' if is_galois(ctx, upper, lower) else ""
            lines.append(f'  "{names[lower.pos]}" -> "{names[upper.pos]}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_instance_dict(ctx: GaloisContext) -> dict:
    """The JSON instance-file form of this context (named fields only).
    An unnamed distinguished field is written under its reserved name
    ``L``, so that :func:`presets.from_dict` reads the file back."""
    named = dict(ctx.names)
    named.setdefault(ctx.distinguished, "L")
    fields = {}
    for ref, name in sorted(named.items(), key=lambda kv: kv[1]):
        gens = [ctx.group.elements[i].cycles() for i in ref.subgroup.gens()]
        fields[name] = gens or ["()"]
    return {
        "degree": ctx.group.degree,
        "generators": [g.cycles() for g in ctx.group.generators],
        "fields": fields,
        "distinguished": named[ctx.distinguished],
    }


def to_instance_json(ctx: GaloisContext) -> str:
    import json  # on use: no CLI verb writes an instance file
    return json.dumps(to_instance_dict(ctx), indent=2, sort_keys=True) + "\n"
