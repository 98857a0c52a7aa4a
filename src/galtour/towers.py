"""Towers of intermediate fields and their refinement calculus.

A tower is a finite non-decreasing sequence of fields from a base to a
top, repetitions allowed; a marche is one step.  Refinements keep every
repetition of the coarser tower (RAF1/RAF2), are proper when they insert
a genuinely new field (RAF3), trivial otherwise (RAFT), and Galois when
every new interior field is Galois over its predecessor (RAFG).  On top
of that: the unique strict associated tower, the res/rat/inf
fragmentations with their unique recombination, towers induced into a
larger extension, and equivalence of Galois towers (same number of
marches, marche Galois groups isomorphic up to a permutation).

Each precondition is checked in one place: two compared towers are of
one extension in one context (``_same_extension``, also for
:mod:`dissociation`), e refines f (``_new_field_positions``), and an
index of res, rat or inf is in 0..m (``_index``).

Towers are immutable values over a shared immutable context; everything
here is pure.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import galois as gal
from . import permgroup as pg
from .galois import FieldRef, GaloisContext, TheoremViolation


class TowerError(Exception):
    """Invalid tower or refinement input."""


def _computed(build, *args, message: str):
    """``build(*args)`` on values the library computed: a TowerError
    there is a broken guarantee, raised as ``TheoremViolation(message)``."""
    try:
        return build(*args)
    except TowerError as exc:
        raise TheoremViolation(message) from exc


def _same_extension(t1: Tower, t2: Tower, message: str) -> None:
    """Refuse two towers unless both are of one extension of one context;
    ``message`` is the refusal of towers of two extensions."""
    if t1.ctx is not t2.ctx:
        raise TowerError("towers belong to different contexts")
    if t1.base != t2.base or t1.top != t2.top:
        raise TowerError(message)


class Tower(pg._Immutable):
    """Non-decreasing field sequence F_0 <= ... <= F_m in one context.

    Each containment is one bit of the context's up-sets, the bit
    ``FieldRef.__le__`` reads, and each Galois verdict the bit of ``nbelow``
    that ``gal.is_galois`` reads; the marches and their AND are built here.
    """

    __slots__ = ("ctx", "fields", "_marches", "_galois")

    def __init__(self, ctx: GaloisContext, fields: Sequence[FieldRef]):
        fields = tuple(fields)
        if not fields:
            raise TowerError("a tower has at least one field")
        for f in fields:
            if f.ctx is not ctx:
                raise TowerError("tower fields belong to a different context")
        marches = tuple(zip(fields, fields[1:]))
        up, nbelow, galois = ctx._up, ctx._nbelow, True
        for a, b in marches:
            if not up[b.pos] >> a.pos & 1:
                raise TowerError(
                    f"non-monotone tower: {a.name} not contained in {b.name}")
            galois = galois and nbelow[a.pos] >> b.pos & 1 == 1
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "_marches", marches)
        object.__setattr__(self, "_galois", galois)

    @property
    def base(self) -> FieldRef:
        return self.fields[0]

    @property
    def top(self) -> FieldRef:
        return self.fields[-1]

    @property
    def height(self) -> int:
        return len(self.fields) - 1

    def marches(self) -> tuple:
        """(F_i, F_{i+1}) pairs, one per marche."""
        return self._marches

    def __eq__(self, other) -> bool:
        # componentwise: equal sets of fields are not enough
        return (isinstance(other, Tower) and other.ctx is self.ctx
                and other.fields == self.fields)

    def __hash__(self) -> int:
        return hash(tuple(f.subgroup.key for f in self.fields))

    def __repr__(self) -> str:
        return "Tower[" + " <= ".join(f.name for f in self.fields) + "]"

    def pretty(self) -> str:
        """Render marches with degrees and Galois markers."""
        if self.height == 0:
            return self.base.name
        out = [self.base.name]
        for lo, hi in self.marches():
            d = gal.degree(self.ctx, hi, lo)
            mark = "⊴" if gal.is_galois(self.ctx, hi, lo) else "≤"
            out.append(f" {mark}[{d}] {hi.name}")
        return "".join(out)


def make_tower(ctx: GaloisContext, fields: Sequence[FieldRef]) -> Tower:
    """The tower of ``fields`` in ``ctx``, validated as :class:`Tower` does."""
    return Tower(ctx, fields)


def is_strict(t: Tower) -> bool:
    # fields are non-decreasing, so a repeated field is a repeated marche
    return len(set(t.fields)) == len(t.fields)


def is_galois_tower(t: Tower) -> bool:
    return t._galois  # every marche Galois, read when t was built


def big_omega(n: int) -> int:
    """Number of prime divisors of n, counted with multiplicity."""
    return sum(pg.factorize(n).values())


def height_bound_check(t: Tower) -> bool:
    """Strict towers are no taller than Omega of the extension degree."""
    if not is_strict(t):
        raise TowerError("height bound applies to strict towers")
    return t.height <= big_omega(gal.degree(t.ctx, t.top, t.base))


# ---------------------------------------------------------------------------
# refinements


def refinement_witness(e: Tower, f: Tower) -> tuple | None:
    """The lexicographically smallest witness that e refines f, the
    indices j_0 < ... < j_m with E_{j_i} = F_i, else None.

    Greedy earliest-match: map F_i to the smallest admissible index.  If
    any witness exists the greedy one does too (choosing an earlier
    admissible index never blocks later matches in a non-decreasing
    sequence), so failure of the greedy search is a definitive no.
    """
    _same_extension(e, f, "refinement requires towers of the same extension")
    if f.height > e.height:  # (RAF1), a cheap preselection
        return None
    indices = []
    j = 0
    n = len(e.fields)
    for i, fi in enumerate(f.fields):
        while j < n and e.fields[j] != fi:
            j += 1
        if j == n:
            return None
        indices.append(j)
        j += 1
    return tuple(indices)


def _new_field_positions(e: Tower, f: Tower) -> list:
    """Interior indices j of e with E_j distinct from every field of f;
    requires e to refine f."""
    if refinement_witness(e, f) is None:
        raise TowerError("not a refinement")
    fset = set(f.fields)
    return [j for j in range(1, len(e.fields) - 1) if e.fields[j] not in fset]


def is_proper_refinement(e: Tower, f: Tower) -> bool:
    """(RAF3): some interior E_j differs from every F_i."""
    return bool(_new_field_positions(e, f))


def is_trivial_refinement(e: Tower, f: Tower) -> bool:
    """(RAFT): the negation of proper."""
    return not is_proper_refinement(e, f)


def is_galois_refinement(e: Tower, f: Tower) -> bool:
    """(RAFG): every new interior E_j is Galois over E_{j-1}.

    Fields of e that coincide with some field of f are unconstrained,
    exactly as (RAFG) quantifies; so a Galois refinement of a non-Galois
    tower need not be a Galois tower.
    """
    return all(gal.is_galois(e.ctx, e.fields[j], e.fields[j - 1])
               for j in _new_field_positions(e, f))


def strict_associated(f: Tower) -> Tower:
    """The unique strict tower that f refines trivially.

    Deduplication with order preserved; equal fields in a monotone
    sequence are necessarily consecutive.
    """
    kept = [f.fields[0]]
    for x in f.fields[1:]:
        if x != kept[-1]:
            kept.append(x)
    s = Tower(f.ctx, kept)
    message = "tower does not refine its strict associate trivially"
    if _computed(_new_field_positions, f, s, message=message):
        raise TheoremViolation(message)
    return s


# res / rat / inf fragmentation ----------------------------------------------


def _index(t: Tower, r: int) -> int:
    """r, refused unless it indexes a field of t."""
    if not 0 <= r <= t.height:
        raise TowerError(f"index {r} out of range 0..{t.height}")
    return r


def res(t: Tower, r: int) -> Tower:
    """Drop the first r fields."""
    return Tower(t.ctx, t.fields[_index(t, r):])


def rat(t: Tower, r: int) -> Tower:
    """Drop the last m - r fields."""
    return Tower(t.ctx, t.fields[:_index(t, r) + 1])


def inf_to(t: Tower, r: int, upper: FieldRef) -> Tower:
    """Keep fields up to index r-1, then append ``upper``."""
    return Tower(t.ctx, t.fields[:_index(t, r)] + (upper,))


def inf_top(t: Tower, r: int) -> Tower:
    """inf_to with the context's distinguished field L."""
    return inf_to(t, r, t.ctx.distinguished)


def combine(f: Tower, r: int, S: Tower, R: Tower) -> Tower:
    """The unique refinement E of f with res(E, q) = S and rat(E, q) = R.

    Requires S to refine res(f, r) and R to refine rat(f, r); the towers
    are concatenated at F_r and q is the height of R.  The defining
    equalities are re-checked on the result.
    """
    if refinement_witness(S, res(f, r)) is None:
        raise TowerError("S does not refine res(f, r)")
    if refinement_witness(R, rat(f, r)) is None:
        raise TowerError("R does not refine rat(f, r)")
    E = Tower(f.ctx, R.fields + S.fields[1:])
    q = R.height
    if res(E, q) != S or rat(E, q) != R:
        raise TheoremViolation("combined tower does not split back into S and R")
    if refinement_witness(E, f) is None:
        raise TheoremViolation("combined tower does not refine f")
    return E


def induced(t: Tower, L: FieldRef) -> Tower:
    """t itself when it already tops at L, else t with L appended."""
    if not t.top <= L:
        raise TowerError(f"top {t.top.name} is not contained in {L.name}")
    if t.top == L:
        return t
    return Tower(t.ctx, t.fields + (L,))


# ---------------------------------------------------------------------------
# equivalence of Galois towers


class EquivalenceWitness(pg._Immutable):
    """sigma in S_m plus, per marche, an explicit quotient isomorphism.

    Built over the marche groups q1, q2 of two Galois towers, as
    :func:`marche_groups` reads them.  ``sigma`` is 1-based: marche i of
    the first tower corresponds to marche sigma[i-1] of the second;
    ``isos[i-1]`` maps element labels of q1[i-1] = Gal(F_i/F_{i-1}) to
    labels of q2[sigma[i-1]-1] = Gal(E_{sigma(i)}/E_{sigma(i)-1}).  Both
    are verified at construction, each iso once against the quotient
    tables.  The library's own witnesses are built by :meth:`_of_context`
    from isomorphisms the context verified when it stored them.
    """

    __slots__ = ("sigma", "isos")

    def __init__(self, q1: Sequence[pg.AbstractGroup],
                 q2: Sequence[pg.AbstractGroup], sigma: Sequence[int],
                 isos: Sequence[tuple]):
        sigma = _permutation(sigma, len(q1), len(q2))
        isos = tuple(tuple(i) for i in isos)
        for i, a in enumerate(q1):
            if not a.is_isomorphism(q2[sigma[i] - 1], isos[i]):
                raise TowerError(f"iso {i + 1} is not an isomorphism")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "isos", isos)

    @classmethod
    def _of_context(cls, sigma: Sequence[int], isos: Sequence[tuple],
                    n: int) -> "EquivalenceWitness":
        """The witness of ``isos``, each returned by
        :meth:`GaloisContext.isomorphism` and so verified once already, for
        towers of len(isos) and n marches: sigma is checked, no iso again."""
        w = object.__new__(cls)
        object.__setattr__(w, "sigma", _permutation(sigma, len(isos), n))
        object.__setattr__(w, "isos", tuple(isos))
        return w

    def sigma_one_line(self) -> str:
        return " ".join(str(s) for s in self.sigma)

    def __repr__(self) -> str:
        return f"EquivalenceWitness(sigma=({self.sigma_one_line()}))"


def _permutation(sigma: Sequence[int], m: int, n: int) -> tuple:
    """sigma as a tuple; it must permute 1..m, and the heights m, n agree."""
    sigma = tuple(sigma)
    if n != m or sorted(sigma) != list(range(1, m + 1)):
        raise TowerError("sigma is not a permutation of 1..m")
    return sigma


def _galois_marches(t: Tower) -> tuple:
    """The marches of t, refused unless t is a Galois tower."""
    if not is_galois_tower(t):
        raise TowerError("marche groups require a Galois tower")
    return t.marches()


def marche_groups(t: Tower) -> list:
    """Gal(F_i / F_{i-1}) for each marche; requires a Galois tower."""
    return [t.ctx.quotient_group(hi, lo) for lo, hi in _galois_marches(t)]


def equivalence_witness(t1: Tower, t2: Tower) -> EquivalenceWitness | None:
    """Match marches into isomorphism classes; None when impossible.

    Deterministic: marches are matched in ascending index order to the
    first available isomorphic partner, each pair tested once per context
    by :meth:`GaloisContext.isomorphism`, which turns down a pair of
    different orders or element-order multisets before any search and
    verifies each isomorphism it stores.
    """
    _same_extension(t1, t2, "equivalence requires towers of the same extension")
    if t1.height != t2.height:
        return None
    m1, m2 = _galois_marches(t1), _galois_marches(t2)
    sigma, isos, taken = [], [], set()
    for a in m1:
        for j, b in enumerate(m2):
            if j not in taken and (phi := t1.ctx.isomorphism(a, b)) is not None:
                break
        else:
            return None
        taken.add(j)
        sigma.append(j + 1)
        isos.append(phi)
    return _computed(EquivalenceWitness._of_context, sigma, isos, len(m2),
                     message="equivalence witness does not verify")
