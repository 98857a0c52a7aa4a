"""Decision procedures and constructions for the tower theorems.

Galtourability of E/F (existence of a Galois tower) is decided through
the group bridge: inside the closure, a Galois tower from F to E is the
same thing as a chain Gal(N/F) |> ... |> Gal(N/E) with each step normal
in the previous one, so E/F is galtourable exactly when Gal(N/E) is
subnormal in Gal(N/F): bit E of F's reach row, the closure of
``nbelow`` from F (:meth:`GaloisContext._reach_row`), built on first
use and kept on the context by the ref F.  The subnormal closure's
descent chain doubles as an explicit witness tower.  M(L/K) is walked,
and its witness checked a strict Galois tower, once per (L, K) per
context: the checked report is kept on the context, and the Galois
tower witness of a galtourable L/K is that report's witness.  The
checked composition tower of L/K is kept the same way, both through
``GaloisContext._memo`` keyed by the refs (L, K).  Every lattice read
speaks fields, by position in the context's lattice index: the
subnormal closure (:meth:`GaloisContext.subnormal_closure`) walks
intervals of the index and returns its chain as fields, galtourability
is one bit of a reach row, galsimplicity is one AND of two rows,
and the Jordan-Holder descent reads the minimal Galois steps of an
interval (:meth:`GaloisContext.galois_steps`).  No subgroup is spanned
anew and no field is converted to a subgroup and back.

On top of the bridge sit the executable theorems: the unique
intourability field M(L/K) (maximal galtourable quotient, with L/M(L/K)
trivial or galsimple non-Galois), tourability degrees, the Galschreier
common refinement with its explicit index formulas and marche
permutation, Galois composition towers and their Jordan-Holder style
equivalence, elevation towers, and the general composition towers of an
arbitrary finite extension obtained by inducing from M(L/K)/K.

Each construction checks what its theorem guarantees; a tower or witness
it computed is built through ``towers._computed``, so a refusal is a
:class:`TheoremViolation`, never the caller's :class:`TowerError`.

Everything is a pure function over immutable contexts.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from . import galois as gal
from . import towers as tw
from .galois import FieldRef, GaloisContext, TheoremViolation
from .permgroup import Subgroup
from .towers import Tower


# ---------------------------------------------------------------------------
# galtourability and galsimplicity


def is_galtourable(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> bool:
    """E/F admits a Galois tower iff Subgroup(E) is subnormal in Subgroup(F):
    bit E of F's reach row, built on first use and kept on the context by
    the ref F.  Refuses F not below E as ``subnormal_closure`` does."""
    ctx._nested(F, E, "subnormal_closure")
    return ctx._memo(ctx._reach_rows, F, ctx._reach_row, F) >> E.pos & 1 == 1


def is_galtourable_tower(t: Tower) -> bool:
    """Every marche of t is galtourable."""
    return all(is_galtourable(t.ctx, b, a) for a, b in t.marches())


def galois_tower_witness(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> Tower:
    """A strict Galois tower from F to E: the witness of M(E/F) = E."""
    rep = intourability_field(ctx, E, F)
    if rep.M != E:
        raise gal.GaloisError(f"{E.name}/{F.name} is not galtourable")
    return rep.witness_tower


def is_simple_ext(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> bool:
    """No proper intermediate field: Subgroup(E) is maximal in Subgroup(F)."""
    return ctx.interval_size(F, E) == 2


def is_galsimple(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> bool:
    """No proper Galois quotient: M/F Galois and F <= M <= E force M in {F, E},
    so E's up-set AND ``nbelow[F]`` has no bit but E's and F's.  Refuses F
    not below E as ``galois_steps`` does."""
    ctx._nested(F, E, "galois_steps")
    return E != F and not ctx._up[E.pos] & ctx._nbelow[F.pos] & ~(1 << E.pos | 1 << F.pos)


# ---------------------------------------------------------------------------
# the intourability field M(L/K)


class TourabilityDegree(namedtuple("TourabilityDegree", "gal int")):
    """([M(L/K):K], [L:M(L/K)]); the product is [L:K]."""
    __slots__ = ()


class DissociationReport(namedtuple(
        "DissociationReport",
        "M degrees sub_kind witness_tower")):
    """M(L/K) with its degrees; sub_kind is "trivial" or "galsimple_non_galois"."""
    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "M": self.M.name,
            "deg_gal": self.degrees.gal,
            "deg_int": self.degrees.int,
            "sub_kind": self.sub_kind,
            "witness_tower": [f.name for f in self.witness_tower.fields],
        }


def intourability_field(ctx: GaloisContext, L: FieldRef, K: FieldRef) -> DissociationReport:
    """The unique M with M/K galtourable and L/M trivial or galsimple non-Galois.

    Computed as the field of the subnormal closure of Subgroup(L) in
    Subgroup(K).  Its descent, checked a strict Galois tower from K to M,
    proves M/K galtourable and is the report's witness; L/M is checked
    trivial or galsimple non-Galois.  Failures raise :class:`TheoremViolation`.
    The checked report is kept on the context by the refs (L, K), and a
    repeated call returns it; a refusal is never kept.
    """
    return ctx._memo(ctx._report_cache, (L, K), _report, ctx, L, K)


def _report(ctx: GaloisContext, L: FieldRef, K: FieldRef) -> DissociationReport:
    M, chain = ctx.subnormal_closure(L, K)
    message = "subnormal descent is not a strict Galois tower"
    witness = tw._computed(Tower, ctx, chain, message=message)
    if not (witness.base == K and witness.top == M and tw.is_strict(witness)
            and tw.is_galois_tower(witness)):
        raise TheoremViolation(message)
    if L == M:
        sub_kind = "trivial"
    elif not M <= L:
        raise TheoremViolation(f"M = {M.name} is not contained in L = {L.name}")
    elif is_galsimple(ctx, L, M) and not gal.is_galois(ctx, L, M):
        sub_kind = "galsimple_non_galois"
    else:
        raise TheoremViolation(
            f"L/M = {L.name}/{M.name} is neither trivial nor galsimple non-Galois")
    degrees = TourabilityDegree(gal.degree(ctx, M, K), gal.degree(ctx, L, M))
    return DissociationReport(M, degrees, sub_kind, witness)


# ---------------------------------------------------------------------------
# bridge between Galois towers and normal series


def series_from_tower(t: Tower) -> list:
    """The normal subgroup chain Gal(N/F_i) induced by a Galois tower.

    Requires t.top/t.base Galois; the quotients of the chain by
    Subgroup(t.top) realize the normal series of Gal(top/base).
    """
    if not gal.is_galois(t.ctx, t.top, t.base):
        raise gal.GaloisError("series_from_tower requires a Galois extension")
    for lo, hi in t.marches():
        if not gal.is_galois(t.ctx, hi, lo):
            raise gal.GaloisError(f"non-Galois marche {hi.name}/{lo.name}")
    return [f.subgroup for f in t.fields]


def tower_from_series(ctx: GaloisContext, chain: Sequence[Subgroup]) -> Tower:
    """The Galois tower of fixed fields of a normal subgroup series."""
    chain = list(chain)
    if not chain:
        raise gal.GaloisError("empty series")
    for a, b in zip(chain, chain[1:]):
        if not b <= a:
            raise gal.GaloisError("series is not descending")
        if not ctx.normal_in(b, a):
            raise gal.GaloisError("non-normal step in series")
    return Tower(ctx, [ctx.field_of(sg) for sg in chain])


# ---------------------------------------------------------------------------
# Galschreier refinement


def _schreier_fields(t1: Tower, t2: Tower) -> tuple:
    """The fields of the refinement of t1 by t2: field l = q*n + r
    (0 <= r < n, n the height of t2) is T1[q+1] cap T1[q]T2[r], then the
    common top.  Read from the lattice rows: the compositum is the top bit
    of the two down-sets' AND, the intersection the lowest bit of the two
    up-sets' AND.  ``Tower`` and ``_same_extension`` have tied every field
    to the context, so no field is checked again."""
    up, down, fields = t1.ctx._up, t1.ctx._down, t1.ctx._fields
    rows2 = [down[c.pos] for c in t2.fields[:-1]]
    out = []
    for lo, hi in t1.marches():
        down_lo, up_hi = down[lo.pos], up[hi.pos]
        for row in rows2:
            bits = up_hi & up[(down_lo & row).bit_length() - 1]
            out.append(fields[(bits & -bits).bit_length() - 1])
    out.append(t1.top)
    return tuple(out)


def _schreier_tower(t1: Tower, t2: Tower) -> Tower:
    """The refinement of t1 by t2.  With a height of 1 on either side it is
    an input tower, returned without evaluating the formula: t1 when n = 1,
    t2 when m = 1 (L cap K*T2[r] = T2[r]).  Otherwise it has m*n + 1
    fields, more than either input, and :func:`_schreier_fields` is built
    into a tower checked monotone."""
    if t2.height == 1:
        return t1
    if t1.height == 1:
        return t2
    return tw._computed(Tower, t1.ctx, _schreier_fields(t1, t2),
                        message="refinement formulas built a non-monotone chain")


def schreier_sigma(m: int, n: int) -> tuple:
    """The marche permutation of the refined towers, 1-based images.

    sigma(l) = r*m + q + 1 where l - 1 = q*n + r with 0 <= r < n; the
    identity whenever m = 1 or n = 1.
    """
    out = []
    for l in range(1, m * n + 1):
        q, r = divmod(l - 1, n)
        out.append(r * m + q + 1)
    return tuple(out)


def schreier_refine(t1: Tower, t2: Tower) -> tuple:
    """Equivalent Galois refinements of two Galois towers of L/K.

    Returns ``(r1, r2, witness)``: r1 refines t1 (indices i*n), r2
    refines t2 (indices j*m), both of height m*n, and the witness carries
    the explicit marche permutation together with an isomorphism per
    marche, each verified once, when the context stored it.  When m = 1
    or n = 1 the refinements are input towers and no formula field is
    evaluated (:func:`_schreier_tower`); the index, Galois and isomorphism
    checks run either way.
    The theorem guarantees each isomorphism exists; a failed search is
    raised as :class:`TheoremViolation`.
    """
    tw._same_extension(t1, t2, "towers must share the same extension")
    for t in (t1, t2):
        for lo, hi in t.marches():
            if not gal.is_galois(t.ctx, hi, lo):
                raise tw.TowerError(f"non-Galois marche {hi.name}/{lo.name}")
    m, n = t1.height, t2.height
    if m < 1 or n < 1:
        raise tw.TowerError("schreier_refine requires heights >= 1")
    r1, r2 = _schreier_tower(t1, t2), _schreier_tower(t2, t1)
    if r1.fields[::n] != t1.fields or r2.fields[::m] != t2.fields:
        raise TheoremViolation("refinement formulas did not refine the inputs")
    if not (tw.is_galois_tower(r1) and tw.is_galois_tower(r2)):
        raise TheoremViolation("refinement formulas produced a non-Galois tower")
    sigma = schreier_sigma(m, n)
    m1, m2 = r1.marches(), r2.marches()
    isos = []
    for l in range(1, m * n + 1):
        phi = r1.ctx.isomorphism(m1[l - 1], m2[sigma[l - 1] - 1])
        if phi is None:
            raise TheoremViolation(f"marche {l} has no isomorphic partner")
        isos.append(phi)
    witness = tw._computed(tw.EquivalenceWitness._of_context, sigma, isos, len(m2),
                           message="refinement witness does not verify")
    return r1, r2, witness


def schreier_refine_strict(t1: Tower, t2: Tower) -> tuple:
    """Strict variant: strict associated towers, equivalence recomputed."""
    if not (tw.is_strict(t1) and tw.is_strict(t2)):
        raise tw.TowerError("schreier_refine_strict requires strict towers")
    r1, r2, _ = schreier_refine(t1, t2)
    s1 = tw.strict_associated(r1)
    s2 = tw.strict_associated(r2)
    witness = tw.equivalence_witness(s1, s2)
    if witness is None:
        raise TheoremViolation("strict associated refinements are not equivalent")
    return s1, s2, witness


def butterfly_parallelogram_check(t1: Tower, t2: Tower) -> bool:
    """The quadrilaterals behind the refinement are all parallelograms.

    For 0 <= i <= m-1 and 0 <= k < j <= n-1 the quadruple
    (T1_{i+1}T2_k cap T1_i T2_j, T1_{i+1}T2_{k+1} cap T1_i T2_j,
     T1_{i+1}T2_{k+1} cap T1_i T2_{j+1}, T1_{i+1}T2_k cap T1_i T2_{j+1})
    must form a Galois parallelogram.
    """
    ctx = t1.ctx
    T1, T2 = t1.fields, t2.fields
    m, n = t1.height, t2.height

    def mix(i, j):
        return gal.compositum(ctx, T1[i], T2[j])

    for i in range(m):
        for j in range(1, n):
            for k in range(j):
                J = gal.intersect_fields(ctx, mix(i + 1, k), mix(i, j))
                K = gal.intersect_fields(ctx, mix(i + 1, k + 1), mix(i, j))
                N = gal.intersect_fields(ctx, mix(i + 1, k + 1), mix(i, j + 1))
                L = gal.intersect_fields(ctx, mix(i + 1, k), mix(i, j + 1))
                try:
                    quad = gal.Quadrilateral(J, K, N, L)
                except gal.GaloisError:
                    return False
                if not gal.is_parallelogram(ctx, quad):
                    return False
    return True


# ---------------------------------------------------------------------------
# composition towers (Galois case)


def is_composition_tower_galois(t: Tower) -> bool:
    """Strict Galois tower with every marche galsimple."""
    if not tw.is_galois_tower(t):
        raise tw.TowerError("not a Galois tower")
    return tw.is_strict(t) and all(is_galsimple(t.ctx, hi, lo) for lo, hi in t.marches())


def galjordanholder_refine(t: Tower) -> Tower:
    """Refine a strict Galois tower into a Galois composition tower.

    Each marche is refined independently by pulling back a composition
    series of its quotient group: repeatedly step to the first minimal
    Galois step inside the marche, whose subgroup is the least maximal
    proper normal subgroup still containing the marche's top subgroup.
    Raises :class:`~galtour.towers.TowerError` unless t is a strict Galois
    tower; the refinement is then checked to be a Galois tower, to refine
    t and to be a composition tower, each once.
    """
    if not tw.is_strict(t) or not tw.is_galois_tower(t):
        raise tw.TowerError("galjordanholder_refine requires a strict Galois tower")
    ctx = t.ctx
    fields = [t.base]
    for lo, hi in t.marches():
        while fields[-1] != hi:
            steps = ctx.galois_steps(fields[-1], hi)
            if not steps or not steps[0] <= hi:
                raise TheoremViolation("Jordan-Holder found no Galois step inside a marche")
            fields.append(steps[0])
    out = tw._computed(Tower, ctx, fields,
                       message="Jordan-Holder refinement is not monotone")
    if not tw.is_galois_tower(out):
        raise TheoremViolation("Jordan-Holder refinement is not a Galois tower")
    if tw.refinement_witness(out, t) is None:
        raise TheoremViolation("Jordan-Holder refinement does not refine its input")
    if not is_composition_tower_galois(out):
        raise TheoremViolation("Jordan-Holder refinement is not a composition tower")
    return out


def composition_tower_galois(ctx: GaloisContext, L: FieldRef, K: FieldRef) -> Tower:
    """A Galois composition tower of a galtourable extension L/K."""
    return galjordanholder_refine(galois_tower_witness(ctx, L, K))


# ---------------------------------------------------------------------------
# elevation towers and the general case


def elevation_tower(ctx: GaloisContext, f: Tower) -> tuple:
    """The tower of intourability fields of f, and its induced tower to L.

    First output: M_i = M(F_i/K), a galtourable tower ending at M(L/K);
    second output: the induced tower of L/K (first output itself when L/K
    is galtourable).  The first output is f itself when the M_i are f's
    fields: f was checked when it was built and is immutable.
    """
    mfields = tuple(intourability_field(ctx, Fi, f.base).M for Fi in f.fields)
    mtower = f if mfields == f.fields else tw._computed(
        Tower, ctx, mfields, message="elevation fields are not non-decreasing")
    if not is_galtourable_tower(mtower):
        raise TheoremViolation("elevation marche is not galtourable")
    return mtower, tw.induced(mtower, f.top)


def _induced_prefix(ctx: GaloisContext, c: Tower, M: FieldRef) -> Tower | None:
    """The tower of M(L/K)/K that c is induced from, or None: c itself
    when L = M(L/K), else c less its final marche M(L/K) < L."""
    if c.top == M:
        return c
    if c.height < 1 or c.fields[-2] != M:
        return None
    return Tower(ctx, c.fields[:-1])


def is_elevation_tower(ctx: GaloisContext, e: Tower) -> bool:
    """e is an elevation tower iff induced by a galtourable tower of M(L/K)/K."""
    prefix = _induced_prefix(ctx, e, intourability_field(ctx, e.top, e.base).M)
    return prefix is not None and is_galtourable_tower(prefix)


def is_composition_tower(ctx: GaloisContext, c: Tower) -> bool:
    """c is induced by a Galois composition tower of M(L/K)/K.

    The prefix below M(L/K) must be a Galois tower, strict with every
    marche galsimple.
    """
    prefix = _induced_prefix(ctx, c, intourability_field(ctx, c.top, c.base).M)
    return (prefix is not None and tw.is_galois_tower(prefix)
            and is_composition_tower_galois(prefix))


def composition_tower_general(ctx: GaloisContext, L: FieldRef, K: FieldRef) -> Tower:
    """A composition tower of any finite L/K, via its galtourable quotient.

    M(L/K) is computed once.  Its report's witness, the subnormal descent
    of Subgroup(L) in Subgroup(K), is the descent of Subgroup(M(L/K)) too
    (the normal closure of either in each term is the same), and
    :func:`intourability_field` has checked it a strict Galois tower from
    K to M(L/K).  It is refined by Jordan-Holder, whose output is checked
    a composition tower, and the result is then checked to be induced
    from exactly that tower: each theorem check runs once per value.  The
    checked tower is kept on the context by the refs (L, K), as the report
    is, and a repeated call returns it; a refusal is never kept.
    """
    return ctx._memo(ctx._composition_cache, (L, K), _composition, ctx, L, K)


def _composition(ctx: GaloisContext, L: FieldRef, K: FieldRef) -> Tower:
    rep = intourability_field(ctx, L, K)
    comp = galjordanholder_refine(rep.witness_tower)
    out = tw.induced(comp, L)
    prefix = _induced_prefix(ctx, out, rep.M)
    if prefix is None or prefix.fields != comp.fields:
        raise TheoremViolation(f"induced tower {out!r} is not a composition tower")
    return out


def equivalence_general(ctx: GaloisContext, c1: Tower, c2: Tower) -> tuple:
    """Equivalence of towers induced by Galois towers of M(L/K)/K.

    Returns ``(equivalent, witness)``; the comparison strips both inputs
    to their M(L/K) prefixes and delegates to the Galois-tower notion.
    The final non-Galois marche carries no group and is not compared.
    """
    tw._same_extension(c1, c2, "towers must share the same extension")
    M = intourability_field(ctx, c1.top, c1.base).M
    prefixes = []
    for c in (c1, c2):
        prefix = _induced_prefix(ctx, c, M)
        if prefix is None or not tw.is_galois_tower(prefix):
            raise tw.TowerError(f"not a tower induced from {M.name}: {c!r}")
        prefixes.append(prefix)
    witness = tw.equivalence_witness(*prefixes)
    return witness is not None, witness


# ---------------------------------------------------------------------------
# exhaustive law checks


class GalsimpleLawsReport(namedtuple(
        "GalsimpleLawsReport", "quotient_checks transitivity_checks violations")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def galsimple_laws_check(ctx: GaloisContext) -> GalsimpleLawsReport:
    """Exhaustively verify the two galsimplicity laws over the context.

    Law 1: every proper quotient of a galsimple extension is galsimple
    non-Galois.  Law 2: galsimple non-Galois extensions stack: F1/F0 and
    F2/F1 galsimple non-Galois imply F2/F0 galsimple non-Galois.
    """
    fields, N = ctx.all_fields(), ctx.top_closure
    gns: dict = {}  # (lo, hi) -> galsimple-and-non-Galois
    gs: dict = {}
    for lo in fields:
        for hi in ctx.interval_fields(lo, N):
            g = is_galsimple(ctx, hi, lo)
            gs[(lo, hi)] = g
            gns[(lo, hi)] = g and not gal.is_galois(ctx, hi, lo)
    violations = []
    quotient_checks = 0
    for lo in fields:
        for hi in ctx.interval_fields(lo, N):
            if not gs[(lo, hi)]:
                continue
            for mid in ctx.interval_fields(lo, hi):
                if mid in (lo, hi):
                    continue
                quotient_checks += 1
                if not gns[(lo, mid)]:
                    violations.append(
                        ("quotient", lo.name, mid.name, hi.name))
    transitivity_checks = 0
    for f0 in fields:
        for f1 in ctx.interval_fields(f0, N):
            if not gns[(f0, f1)]:
                continue
            for f2 in ctx.interval_fields(f1, N):
                if not gns[(f1, f2)]:
                    continue
                transitivity_checks += 1
                if not gns[(f0, f2)]:
                    violations.append(
                        ("transitivity", f0.name, f1.name, f2.name))
    return GalsimpleLawsReport(quotient_checks, transitivity_checks,
                               tuple(violations))
