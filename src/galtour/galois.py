"""The finite Galois correspondence over an explicit closure group.

A :class:`GaloisContext` fixes a finite group G, read as the Galois group
of a closure N/K, and materializes the antitone bijection between the
subgroups of G and the intermediate fields of N/K.  Fields are opaque
handles (:class:`FieldRef`) whose identity is the canonical form of the
corresponding subgroup; the distinguished field L marks the extension
under study.

Compositum corresponds to subgroup intersection, field intersection to
subgroup join, and E/F is Galois exactly when Gal(N/E) is normal in
Gal(N/F).  On top of that sit quadrilaterals (J,K,N,L) with K cap L = J
and KL = N, parallelograms (all four sides Galois), the diagonal
splitting and "ecartele" exchange laws, and the inverse antitone
bijections R and S between sub- and quotient-quadrilaterals.

Contexts are immutable after construction and safe to share between
workers.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence

from . import permgroup as pg
from .permgroup import AbstractGroup, Group, Subgroup


class GaloisError(Exception):
    """Invalid input to a Galois-correspondence operation."""


class FieldRef:
    """Handle for an intermediate field of the context's closure.

    Refs are made only by :class:`GaloisContext`, one per lattice
    position, so two refs are equal iff they are the same object.
    Field containment E <= F holds iff Subgroup(F) <= Subgroup(E).
    """

    __slots__ = ("ctx", "subgroup")

    def __init__(self, ctx: "GaloisContext", subgroup: Subgroup):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "subgroup", subgroup)

    def __setattr__(self, *a):
        raise AttributeError("FieldRef is immutable")

    def __le__(self, other: "FieldRef") -> bool:
        """self is a subfield of other."""
        _same_ctx(self, other)
        return other.subgroup <= self.subgroup

    def __lt__(self, other: "FieldRef") -> bool:
        return self <= other and self != other

    @property
    def name(self) -> str:
        return self.ctx.display_name(self)

    def __repr__(self) -> str:
        return f"FieldRef({self.name})"


def _same_ctx(*refs: FieldRef) -> "GaloisContext":
    ctx = refs[0].ctx
    for r in refs[1:]:
        if r.ctx is not ctx:
            raise GaloisError("field refs belong to different contexts")
    return ctx


class GaloisContext:
    """G = Gal(N/K) plus the full registry of intermediate fields.

    The registry is populated eagerly from :func:`permgroup.all_subgroups`
    at construction; construction fails if |G| exceeds the enumeration
    bound.  ``base`` is K (subgroup G), ``top_closure`` is N (trivial
    subgroup), ``distinguished`` is the studied extension's summit L.

    Lazily filled state: the quotient cache, and the poset index over
    positions in ``subgroups`` (up-set, down-set and maximal-subgroup
    bitmasks per position).  Concurrent filling is safe: each entry is a
    deterministic value, written once (a race at most rewrites it).
    """

    def __init__(self, group: Group, *, distinguished: Subgroup | None = None,
                 names: dict | None = None, aliases: dict | None = None,
                 notes: dict | None = None,
                 enumeration_bound: int = pg.SUBGROUP_ENUM_BOUND):
        self.group = group
        self.subgroups = pg.all_subgroups(group, bound=enumeration_bound)
        self._fields = [FieldRef(self, sg) for sg in self.subgroups]
        self._pos = {sg.key: i for i, sg in enumerate(self.subgroups)}
        self.base = self.field_of(group.full_subgroup())
        self.top_closure = self.field_of(group.trivial_subgroup())
        self.distinguished = (self.top_closure if distinguished is None
                              else self.field_of(distinguished))
        self.names = {self.field_of(sg): name for sg, name in (names or {}).items()}
        # the reserved names; a caller may bind them only to the same fields
        self._name_to_field: dict = {"K": self.base, "L": self.distinguished,
                                     "N": self.top_closure,
                                     "closure": self.top_closure}
        bindings = [(name, ref) for ref, name in self.names.items()]
        bindings += [(name, self.field_of(sg)) for name, sg in (aliases or {}).items()]
        for name, ref in bindings:
            if self._name_to_field.setdefault(name, ref) is not ref:
                raise GaloisError(f"duplicate field name {name!r}")
        self.notes = dict(notes or {})
        self._quotient_cache: dict = {}
        self._up: dict = {}
        self._down: dict = {}
        self._maximal: dict = {}
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
        try:
            return self._pos[sg.key]
        except KeyError:  # cannot happen: registry covers every subgroup
            raise GaloisError("subgroup missing from registry") from None

    def field_of(self, sg: Subgroup) -> FieldRef:
        return self._fields[self._position(sg)]

    def all_fields(self) -> list:
        """Every intermediate field, in canonical subgroup order."""
        return list(self._fields)

    def display_name(self, ref: FieldRef) -> str:
        if ref in self.names:
            return self.names[ref]
        import hashlib  # on first use: a CLI call that shows no digest name skips it
        digest = hashlib.md5(repr(ref.subgroup.key).encode()).hexdigest()[:6]
        return f"H{ref.subgroup.order}.{digest}"

    def field_by_name(self, name: str) -> FieldRef:
        if name in self._name_to_field:
            return self._name_to_field[name]
        for ref in self.all_fields():
            if self.display_name(ref) == name:
                return ref
        raise GaloisError(f"unknown field name {name!r}")

    def _up_bits(self, i: int) -> int:
        """Positions of the subgroups containing subgroup i (all at positions >= i)."""
        if i not in self._up:
            m = self.subgroups[i].mask
            self._up[i] = sum(1 << j for j, sg in enumerate(self.subgroups[i:], i)
                              if sg.mask & m == m)
        return self._up[i]

    def _down_bits(self, i: int) -> int:
        """Positions of the subgroups contained in subgroup i (all at positions <= i)."""
        if i not in self._down:
            m = self.subgroups[i].mask
            self._down[i] = sum(1 << j for j, sg in enumerate(self.subgroups[:i + 1])
                                if sg.mask & m == sg.mask)
        return self._down[i]

    def _maximal_bits(self, i: int) -> int:
        """Positions j of the maximal subgroups of subgroup i: down & up = {i, j}."""
        if i not in self._maximal:
            down = self._down_bits(i)
            self._maximal[i] = sum(1 << j for j in _pick(range(i), down & ~(1 << i))
                                   if down & self._up_bits(j) == 1 << i | 1 << j)
        return self._maximal[i]

    def _interval_bits(self, lo: Subgroup, hi: Subgroup) -> int:
        return self._up_bits(self._position(lo)) & self._down_bits(self._position(hi))

    def between(self, lo: Subgroup, hi: Subgroup) -> list:
        """Lattice subgroups S with lo <= S <= hi, in canonical order."""
        return _pick(self.subgroups, self._interval_bits(lo, hi))

    def interval_fields(self, F: FieldRef, E: FieldRef) -> list:
        """Fields M with F <= M <= E, canonical order; requires F <= E."""
        if not F <= E:
            raise GaloisError("interval requires F <= E as fields")
        return _pick(self._fields, self._interval_bits(E.subgroup, F.subgroup))

    def maximal_subgroups(self, S: Subgroup) -> list:
        """The maximal proper subgroups of S (its lower covers), canonical order."""
        return _pick(self.subgroups, self._maximal_bits(self._position(S)))

    def maximal_among(self, sgs: Sequence[Subgroup]) -> list:
        """The members of sgs contained in no other member, in the given order."""
        pos = [self._position(sg) for sg in sgs]
        bits = sum(1 << i for i in pos)
        return [sg for sg, i in zip(sgs, pos) if self._up_bits(i) & bits == 1 << i]

    def normal_in(self, A: Subgroup, B: Subgroup) -> bool:
        """A normal in B; requires A <= B."""
        return pg.is_normal(A, B)

    def quotient_group(self, B: Subgroup, N: Subgroup) -> AbstractGroup:
        key = (B.key, N.key)
        q = self._quotient_cache.get(key)
        if q is None:
            q = pg.quotient(B, N)
            self._quotient_cache[key] = q
        return q


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
    if not F <= E:
        raise GaloisError("degree requires F <= E as fields")
    return F.subgroup.order // E.subgroup.order


def compositum(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> FieldRef:
    _same_ctx(E, F)
    return ctx.field_of(pg.intersection(E.subgroup, F.subgroup))


def intersect_fields(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> FieldRef:
    _same_ctx(E, F)
    return ctx.field_of(pg.join(E.subgroup, F.subgroup))


def is_galois(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> bool:
    """E/F Galois iff Subgroup(E) is normal in Subgroup(F); requires F <= E."""
    if not F <= E:
        raise GaloisError("is_galois requires F <= E as fields")
    return ctx.normal_in(E.subgroup, F.subgroup)


def galois_group(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> AbstractGroup:
    """Gal(E/F) = Subgroup(F)/Subgroup(E); requires E/F Galois."""
    if not is_galois(ctx, E, F):
        raise GaloisError(
            f"{E.name}/{F.name} is not Galois; no quotient group")
    return ctx.quotient_group(F.subgroup, E.subgroup)


# ---------------------------------------------------------------------------
# quadrilaterals and parallelograms


class Quadrilateral:
    """(J, K, N, L) with K cap L = J and KL = N, checked at construction.

    Flat quadrilaterals (K = J or L = J) are accepted; every extension E/F
    identifies with the flat quadrilateral (F, E, E, F).
    """

    __slots__ = ("J", "K", "N", "L")

    def __init__(self, J: FieldRef, K: FieldRef, N: FieldRef, L: FieldRef):
        ctx = _same_ctx(J, K, N, L)
        if intersect_fields(ctx, K, L) != J:
            raise GaloisError("(Q1) failed: K cap L != J")
        if compositum(ctx, K, L) != N:
            raise GaloisError("(Q2) failed: KL != N")
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "L", L)

    def __setattr__(self, *a):
        raise AttributeError("Quadrilateral is immutable")

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

    Internal direct product, all three conditions literal: trivial
    intersection modulo Gal(N/N), elementwise commuting modulo it, and
    product cardinality equal to |Gal(N/J)|.
    """
    if not is_parallelogram(ctx, q):
        raise GaloisError("diagonal_split_check requires a parallelogram")
    SJ, SK, SN, SL = (q.J.subgroup, q.K.subgroup, q.N.subgroup, q.L.subgroup)
    if pg.intersection(SK, SL) != SN:
        return False
    tab = ctx.group.table
    inv = ctx.group.inverses
    for a in SK.key:
        ai = inv[a]
        for b in SL.key:
            comm = tab[tab[tab[a][b]][ai]][inv[b]]
            if comm not in SN.indices:
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
    _same_ctx(K, L, E, F)
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


def _check_sub_quadrilateral(ctx, par, sub):
    if sub.N != par.N or not (par.K <= sub.K <= par.N) or not (par.L <= sub.L <= par.N):
        raise GaloisError("not a sub-quadrilateral of the given parallelogram")


def _check_quotient_quadrilateral(ctx, par, quot):
    if quot.J != par.J or not (par.J <= quot.K <= par.K) or not (par.J <= quot.L <= par.L):
        raise GaloisError("not a quotient quadrilateral of the given parallelogram")


def bijection_R(ctx: GaloisContext, par: Quadrilateral,
                sub: Quadrilateral) -> Quadrilateral:
    """R: (M,E,N,F) |-> (J, K cap F, M, E cap L); inverse of :func:`bijection_S`."""
    _check_sub_quadrilateral(ctx, par, sub)
    E, F = sub.K, sub.L
    return Quadrilateral(par.J,
                         intersect_fields(ctx, par.K, F),
                         sub.J,
                         intersect_fields(ctx, E, par.L))


def bijection_S(ctx: GaloisContext, par: Quadrilateral,
                quot: Quadrilateral) -> Quadrilateral:
    """S: (J,E,C,F) |-> (C, KF, N, EL); inverse of :func:`bijection_R`."""
    _check_quotient_quadrilateral(ctx, par, quot)
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
    lines = ["digraph field_lattice {", "  rankdir=BT;"]
    for ref in fields:
        d = degree(ctx, ref, ctx.base)
        lines.append(f'  "{ref.name}" [label="{ref.name} [deg {d} over base]"];')
    for lower in fields:
        # covering steps: Subgroup(upper) is maximal in Subgroup(lower)
        for sg in ctx.maximal_subgroups(lower.subgroup):
            upper = ctx.field_of(sg)
            attr = ' [color="black:black"]' if is_galois(ctx, upper, lower) else ""
            lines.append(f'  "{lower.name}" -> "{upper.name}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_instance_dict(ctx: GaloisContext) -> dict:
    """The JSON instance-file form of this context (named fields only)."""
    fields = {}
    for ref, name in sorted(ctx.names.items(), key=lambda kv: kv[1]):
        gens = [ctx.group.elements[i].cycles() for i in ref.subgroup.gens()]
        fields[name] = gens or ["()"]
    return {
        "degree": ctx.group.degree,
        "generators": [g.cycles() for g in ctx.group.generators],
        "fields": fields,
        "distinguished": ctx.distinguished.name,
    }


def to_instance_json(ctx: GaloisContext) -> str:
    return json.dumps(to_instance_dict(ctx), indent=2, sort_keys=True) + "\n"
