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

Towers are immutable values over a shared immutable context; everything
here is pure.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import galois as gal
from . import permgroup as pg
from .galois import FieldRef, GaloisContext


class TowerError(Exception):
    """Invalid tower or refinement input."""


class TheoremViolation(Exception):
    """An internal consistency check guaranteed by a theorem failed.

    Seeing this is always a bug report, never a user error.
    """


class Tower:
    """Non-decreasing field sequence F_0 <= ... <= F_m in one context."""

    __slots__ = ("ctx", "fields")

    def __init__(self, ctx: GaloisContext, fields: Sequence[FieldRef]):
        fields = tuple(fields)
        if not fields:
            raise TowerError("a tower has at least one field")
        for f in fields:
            if f.ctx is not ctx:
                raise TowerError("tower fields belong to a different context")
        for a, b in zip(fields, fields[1:]):
            if not a <= b:
                raise TowerError(
                    f"non-monotone tower: {a.name} not contained in {b.name}")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "fields", fields)

    def __setattr__(self, *a):
        raise AttributeError("Tower is immutable")

    @property
    def base(self) -> FieldRef:
        return self.fields[0]

    @property
    def top(self) -> FieldRef:
        return self.fields[-1]

    @property
    def height(self) -> int:
        return len(self.fields) - 1

    def marches(self):
        """(F_i, F_{i+1}) pairs, one per marche."""
        return list(zip(self.fields, self.fields[1:]))

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


def make_tower(ctx: GaloisContext, fields: Sequence[FieldRef],
               base: FieldRef | None = None,
               top: FieldRef | None = None) -> Tower:
    """Validated tower; endpoints checked against ``base``/``top`` if given."""
    t = Tower(ctx, fields)
    if base is not None and t.base != base:
        raise TowerError(f"tower starts at {t.base.name}, expected {base.name}")
    if top is not None and t.top != top:
        raise TowerError(f"tower ends at {t.top.name}, expected {top.name}")
    return t


def is_strict(t: Tower) -> bool:
    return all(a != b for a, b in t.marches())


def is_galois_tower(t: Tower) -> bool:
    return all(gal.is_galois(t.ctx, b, a) for a, b in t.marches())


def is_galtourable_tower(t: Tower) -> bool:
    from . import dissociation  # one source of truth for the decision
    return all(dissociation.is_galtourable(t.ctx, b, a) for a, b in t.marches())


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


class RefinementWitness:
    """Strictly increasing indices j_0 < ... < j_m with E_{j_i} = F_i."""

    __slots__ = ("indices",)

    def __init__(self, indices: Sequence[int]):
        indices = tuple(indices)
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise TowerError("witness indices must be strictly increasing")
        object.__setattr__(self, "indices", indices)

    def __setattr__(self, *a):
        raise AttributeError("RefinementWitness is immutable")

    def __eq__(self, other):
        return isinstance(other, RefinementWitness) and other.indices == self.indices

    def __repr__(self) -> str:
        return f"RefinementWitness{self.indices}"


def refinement_witness(e: Tower, f: Tower) -> RefinementWitness | None:
    """The lexicographically smallest witness that e refines f, else None.

    Greedy earliest-match: map F_i to the smallest admissible index.  If
    any witness exists the greedy one does too (choosing an earlier
    admissible index never blocks later matches in a non-decreasing
    sequence), so failure of the greedy search is a definitive no.
    """
    if e.ctx is not f.ctx:
        raise TowerError("towers belong to different contexts")
    if e.base != f.base or e.top != f.top:
        raise TowerError("refinement requires towers of the same extension")
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
    return RefinementWitness(indices)


def _new_field_positions(e: Tower, f: Tower) -> list:
    """Interior indices j of e with E_j distinct from every field of f."""
    fset = set(f.fields)
    return [j for j in range(1, len(e.fields) - 1) if e.fields[j] not in fset]


def is_proper_refinement(e: Tower, f: Tower) -> bool:
    """(RAF3): some interior E_j differs from every F_i."""
    if refinement_witness(e, f) is None:
        raise TowerError("not a refinement")
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
    if refinement_witness(e, f) is None:
        raise TowerError("not a refinement")
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
    if refinement_witness(f, s) is None or not is_trivial_refinement(f, s):
        raise TheoremViolation("tower does not refine its strict associate trivially")
    return s


# res / rat / inf fragmentation ----------------------------------------------


def res(t: Tower, r: int) -> Tower:
    """Drop the first r fields."""
    if not 0 <= r <= t.height:
        raise TowerError(f"index {r} out of range 0..{t.height}")
    return Tower(t.ctx, t.fields[r:])


def rat(t: Tower, r: int) -> Tower:
    """Drop the last m - r fields."""
    if not 0 <= r <= t.height:
        raise TowerError(f"index {r} out of range 0..{t.height}")
    return Tower(t.ctx, t.fields[:r + 1])


def inf_to(t: Tower, r: int, upper: FieldRef) -> Tower:
    """Keep fields up to index r-1, then append ``upper``."""
    if not 0 <= r <= t.height:
        raise TowerError(f"index {r} out of range 0..{t.height}")
    return Tower(t.ctx, t.fields[:r] + (upper,))


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

EQUIVALENCE_HEIGHT_CAP = 12


class EquivalenceWitness:
    """sigma in S_m plus, per marche, an explicit quotient isomorphism.

    ``sigma`` is 1-based: marche i of the first tower corresponds to
    marche sigma[i-1] of the second; ``isos[i-1]`` maps element labels of
    Gal(F_i/F_{i-1}) to labels of Gal(E_{sigma(i)}/E_{sigma(i)-1}).  Both
    are verified against the quotient tables at construction.
    """

    __slots__ = ("sigma", "isos")

    def __init__(self, t1: Tower, t2: Tower, sigma: Sequence[int],
                 isos: Sequence[tuple]):
        sigma = tuple(sigma)
        isos = tuple(tuple(i) for i in isos)
        m = t1.height
        if t2.height != m or sorted(sigma) != list(range(1, m + 1)):
            raise TowerError("sigma is not a permutation of 1..m")
        q1 = marche_groups(t1)
        q2 = marche_groups(t2)
        for i in range(m):
            a, b = q1[i], q2[sigma[i] - 1]
            if not a.is_isomorphism(b, isos[i]):
                raise TowerError(f"iso {i + 1} is not an isomorphism")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "isos", isos)

    def __setattr__(self, *a):
        raise AttributeError("EquivalenceWitness is immutable")

    def sigma_one_line(self) -> str:
        return " ".join(str(s) for s in self.sigma)

    def __repr__(self) -> str:
        return f"EquivalenceWitness(sigma=({self.sigma_one_line()}))"


def marche_groups(t: Tower) -> list:
    """Gal(F_i / F_{i-1}) for each marche; requires a Galois tower."""
    if not is_galois_tower(t):
        raise TowerError("marche groups require a Galois tower")
    return [gal.galois_group(t.ctx, hi, lo) for lo, hi in t.marches()]


def equivalence_witness(t1: Tower, t2: Tower,
                        height_cap: int = EQUIVALENCE_HEIGHT_CAP
                        ) -> EquivalenceWitness | None:
    """Match marches into isomorphism classes; None when impossible.

    Marches are bucketed by (order, element-order multiset) first;
    exhaustive isomorphism tests run only inside buckets.  Deterministic:
    marches are matched in ascending index order to the first available
    isomorphic partner.
    """
    if t1.ctx is not t2.ctx:
        raise TowerError("towers belong to different contexts")
    if t1.base != t2.base or t1.top != t2.top:
        raise TowerError("equivalence requires towers of the same extension")
    if t1.height != t2.height:
        return None
    if t1.height > height_cap:
        raise pg.BoundExceeded(f"height {t1.height} exceeds cap {height_cap}")
    q1 = marche_groups(t1)
    q2 = marche_groups(t2)
    m = t1.height
    buckets: dict = {}
    for j, g2 in enumerate(q2):
        buckets.setdefault(g2.iso_invariant(), []).append(j)
    sigma = [0] * m
    isos: list = [None] * m
    taken = set()
    for i, g1 in enumerate(q1):
        found = False
        for j in buckets.get(g1.iso_invariant(), ()):
            if j in taken:
                continue
            phi = pg.isomorphism(g1, q2[j])
            if phi is not None:
                sigma[i] = j + 1
                isos[i] = phi
                taken.add(j)
                found = True
                break
        if not found:
            return None
    return EquivalenceWitness(t1, t2, sigma, isos)
