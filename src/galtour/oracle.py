"""Independent brute-force reference implementations.

Every decision procedure in the main path has a literal counterpart
here: galtourability by a search for a chain of normal steps,
intourability by checking both defining conditions over every
intermediate field, composition towers by exhaustive chain enumeration,
and the refinement predicates by direct quantifier evaluation.  The
literal functions take fields ``(ctx, E, F)`` like the main path and
share with it only the group's table and inverses, field containment
(the up- and down-set rows, and ``ctx._nested``, which refuses F not
below E) and the interval enumeration ``interval_fields``, never the
decision logic under test.

Normality is literal: the conjugacy classes of Subgroup(F) are the
orbits of its elements under conjugation by every b in Subgroup(F), and
a subgroup M of it is normal iff every class M meets lies inside M.
Each field's verdicts are one row, a bitmask over lattice positions:
``normal[f]``, the positions m >= f (as fields) whose subgroup is
literally normal in Subgroup(f), from one class scan of Subgroup(f);
and ``reach[f]``, the positions reached from f by literally normal
steps, {f} with the reach of each m != f in ``normal[f]``.  Subnormality
is a bit of ``reach``, galsimplicity one AND of ``normal[f]`` with an
open interval.  ``literal_is_normal(A, B)`` is the same class test on
two subgroups with no context.  (The quadrilateral scan is empirical
output, not an oracle, and calls the main path.)

The rows live on the context they describe, as the one entry of its
memo ``ctx._literal_rows``, which only this module fills and reads,
through the context's one memo helper ``GaloisContext._memo``: on first
use, one pass over the positions in ascending order builds both lists
(``_scan``), and the helper stores them once the pass returned.  They
are freed with the context.

Oracles favour clarity over speed and may be exponential; the agreement
suite aggregates their verdicts into a machine-readable matrix.
"""

from __future__ import annotations

import itertools
import random
from collections import namedtuple

from . import dissociation as dis
from . import galois as gal
from . import permgroup as pg
from . import towers as tw
from .dissociation import TheoremViolation
from .galois import FieldRef, GaloisContext, _pick
from .permgroup import Subgroup
from .towers import Tower

BF_MAX_INTERVAL = 200  # fields in an interval bf_composition_towers searches
TOWER_CAP = 4000  # towers enumerate_towers returns at most
MAX_HEIGHT = 3  # the height of the towers run_agreement_suite compares
SAMPLE_SEED = 1729  # bf_refinement_predicates' draw of tower pairs


class OracleReport(namedtuple(
        "OracleReport", "instance operation agreement counterexample")):
    __slots__ = ()

    def __new__(cls, instance: str, operation: str, agreement: bool,
                counterexample: str | None = None):
        if agreement == (counterexample is not None):
            raise ValueError("counterexample present iff agreement is false")
        return super().__new__(cls, instance, operation, agreement,
                               counterexample)

    @classmethod
    def _make(cls, iterable):
        # through __new__, so _make and _replace run the checks too
        return cls(*iterable)

    def to_dict(self) -> dict:
        out = {"instance": self.instance, "operation": self.operation,
               "agreement": self.agreement}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


# ---------------------------------------------------------------------------
# literal normality and subnormality, one row per field


def _classes(B: Subgroup) -> list:
    """B's conjugacy classes: the orbit of each element under conjugation
    by every b in B (no generator shortcut)."""
    tab, inv = B.parent.table, B.parent.inverses
    conj = [(tab[b], inv[b]) for b in B.key]
    left = set(B.key)
    out = []
    for x in B.key:
        if x in left:
            cls = {tab[row[x]][b_inv] for row, b_inv in conj}
            left -= cls
            out.append(cls)
    return out


def literal_is_normal(A: Subgroup, B: Subgroup) -> bool:
    """A normal in B: every conjugacy class of B that meets A lies inside
    A; requires A <= B."""
    if not A <= B:
        raise gal.GaloisError("literal_is_normal requires A <= B")
    members = set(A.key)
    return all(cls <= members or members.isdisjoint(cls) for cls in _classes(B))


def _rows(ctx: GaloisContext) -> tuple:
    """``(normal, reach)``, the context's one ``_literal_rows`` entry."""
    return ctx._memo(ctx._literal_rows, "rows", _scan, ctx)


def _scan(ctx: GaloisContext) -> tuple:
    """One row per lattice position, in one pass.  ``normal[f]`` is the
    positions m >= f (as fields) whose subgroup is literally normal in
    Subgroup(f): those of its subgroups that meet no class of it without
    containing the class.  ``reach[f]`` is {f} with the reach row of each
    other position of ``normal[f]``, a proper subgroup, so earlier in
    canonical order and already built."""
    holds = [0] * ctx.group.order  # the positions whose subgroup holds x
    for i, sg in enumerate(ctx.subgroups):
        for x in sg.key:
            holds[x] |= 1 << i
    normal, reach = [], []
    for f, sg in enumerate(ctx.subgroups):
        split = 0  # the positions meeting some class they do not contain
        for cls in _classes(sg):
            if len(cls) > 1:  # a class of one is never split
                meets, within = 0, -1
                for x in cls:
                    meets |= holds[x]
                    within &= holds[x]
                split |= meets & ~within
        normal.append(ctx._down[f] & ~split)
        row = 1 << f
        for r in _pick(reach, normal[f] & ~row):
            row |= r
        reach.append(row)
    return normal, reach


# ---------------------------------------------------------------------------
# galtourability by literal chain search


def bf_galtourable(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> bool:
    """A chain of literally normal steps from Gal(N/F) down to Gal(N/E):
    E is in the reach row of F; requires F <= E."""
    ctx._nested(F, E, "bf_galtourable")
    return _rows(ctx)[1][F.pos] >> E.pos & 1 == 1


def bf_smallest_subnormal(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> FieldRef:
    """The largest field M with F <= M <= E that is galtourable over F:
    Gal(N/M) is the smallest subnormal subgroup of Gal(N/F) containing
    Gal(N/E).

    The first member of ``ctx.interval_fields(F, E)`` (canonical order,
    so smallest subgroup first) that F reaches by literal Galois steps;
    F itself is reached.
    """
    reach = _rows(ctx)[1][F.pos]
    return next(M for M in ctx.interval_fields(F, E) if reach >> M.pos & 1)


# ---------------------------------------------------------------------------
# intourability by literal double condition


def _literal_galsimple(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> bool:
    """E/F galsimple: E != F and no field M strictly between them has
    Gal(N/M) literally normal in Gal(N/F)."""
    inner = ctx._interval(F, E) & ~(1 << E.pos | 1 << F.pos)
    return E != F and not _rows(ctx)[0][F.pos] & inner


def bf_intourability(ctx: GaloisContext, L: FieldRef, K: FieldRef) -> tuple:
    """All fields satisfying both defining conditions of the M field.

    Returns ``(M, count)``; any count other than one is a theorem
    violation and raised as such.
    """
    ctx._nested(K, L, "bf_intourability")
    normal, reach = _rows(ctx)
    hits = [M for M in ctx.interval_fields(K, L) if reach[K.pos] >> M.pos & 1
            and (L == M or (_literal_galsimple(ctx, L, M)
                            and not normal[M.pos] >> L.pos & 1))]
    if len(hits) != 1:
        raise TheoremViolation(
            f"intourability count = {len(hits)} for {L.name}/{K.name}: "
            f"{[m.name for m in hits]}")
    return hits[0], 1


# ---------------------------------------------------------------------------
# composition towers by exhaustive chain enumeration


def bf_composition_towers(ctx: GaloisContext, L: FieldRef, K: FieldRef) -> list:
    """Every strict Galois tower of L/K whose marches are all galsimple."""
    ctx._nested(K, L, "bf_composition_towers")
    interval = ctx.interval_fields(K, L)
    if len(interval) > BF_MAX_INTERVAL:
        raise pg.BoundExceeded(
            f"interval has {len(interval)} subgroups > {BF_MAX_INTERVAL}")

    normal = _rows(ctx)[0]

    def steps(F: FieldRef) -> list:
        row = normal[F.pos] & ~(1 << F.pos)
        return [M for M in interval
                if row >> M.pos & 1 and _literal_galsimple(ctx, M, F)]

    towers, stack = [], [[K]]  # chains still to extend, the next one last
    while stack:
        chain = stack.pop()
        if chain[-1] == L:
            towers.append(Tower(ctx, chain))
        else:
            stack.extend(chain + [M] for M in reversed(steps(chain[-1])))
    return towers


# ---------------------------------------------------------------------------
# refinement predicates by literal quantifier evaluation


def _literal_refines(e: Tower, f: Tower) -> bool:
    m, n = f.height, e.height
    if m > n:  # (RAF1)
        return False
    return any(all(e.fields[j] == f.fields[i] for i, j in enumerate(combo))
               for combo in itertools.combinations(range(n + 1), m + 1))


def _literal_proper(e: Tower, f: Tower) -> bool:
    return any(all(e.fields[j] != fi for fi in f.fields)
               for j in range(1, len(e.fields) - 1))


def _literal_galois_refinement(e: Tower, f: Tower) -> bool:
    for j in range(1, len(e.fields) - 1):
        if all(e.fields[j] != fi for fi in f.fields):
            if not _rows(e.ctx)[0][e.fields[j - 1].pos] >> e.fields[j].pos & 1:
                return False
    return True


def enumerate_towers(ctx: GaloisContext, K: FieldRef, L: FieldRef,
                     max_height: int) -> list:
    """All towers of L/K with height <= max_height, in DFS order."""
    ctx._nested(K, L, "enumerate_towers")
    fields, bits = ctx.all_fields(), ctx._interval(K, L)
    # the fields of the interval above each of its fields, in its order
    above = {F: _pick(fields, ctx._down[F.pos] & bits) for F in _pick(fields, bits)}
    out, stack = [], [[K]]  # prefixes still to extend, the next one last
    while stack and len(out) < TOWER_CAP:
        prefix = stack.pop()
        if prefix[-1] == L:  # and it may still grow by repeating L
            out.append(Tower(ctx, prefix))
        if len(prefix) <= max_height:
            stack.extend(prefix + [nxt] for nxt in reversed(above[prefix[-1]]))
    return out


def bf_refinement_predicates(ctx: GaloisContext, max_height: int,
                             sample: int = 500,
                             instance: str = "?") -> OracleReport:
    """Compare literal RAF evaluation with the towers-module predicates
    on the towers of L/K, the context's distinguished field over its base.

    Pair i of the |towers|^2 ordered pairs is (towers[i // n],
    towers[i % n]); when there are more than ``sample`` pairs, ``sample``
    indices are drawn, so no pair list is built.
    """
    towers = enumerate_towers(ctx, ctx.base, ctx.distinguished, max_height)
    n = len(towers)
    picks = range(n * n)
    if n * n > sample:
        picks = random.Random(SAMPLE_SEED).sample(picks, sample)
    for i in picks:
        e, f = towers[i // n], towers[i % n]
        lit = _literal_refines(e, f)
        main = tw.refinement_witness(e, f) is not None
        if lit != main:
            return OracleReport(instance, "refinement_predicates", False,
                                f"RAF1/RAF2 mismatch: e={e!r} f={f!r}")
        if not lit:
            continue
        checks = [
            ("RAF3", _literal_proper(e, f), tw.is_proper_refinement(e, f)),
            ("RAFT", not _literal_proper(e, f), tw.is_trivial_refinement(e, f)),
            ("RAFG", _literal_galois_refinement(e, f), tw.is_galois_refinement(e, f)),
        ]
        for tag, a, b in checks:
            if a != b:
                return OracleReport(instance, "refinement_predicates", False,
                                    f"{tag} mismatch: e={e!r} f={f!r}")
    return OracleReport(instance, "refinement_predicates", True)


# ---------------------------------------------------------------------------
# the open questions on galtourable quadrilaterals (empirical scan)


def quadrilateral_question_scan(ctx: GaloisContext,
                                instance: str = "?") -> OracleReport:
    """Scan the open questions over all galtourable quadrilaterals.

    Empirical research output, not a correctness gate: any counterexample
    found is recorded in the report.  In the Galois parallelogram
    sub-case all answers are affirmative.
    """
    fields = ctx.all_fields()
    counterexamples = []
    for Kf in fields:
        for Lf in fields:
            J = gal.intersect_fields(ctx, Kf, Lf)
            N = gal.compositum(ctx, Kf, Lf)
            if not (dis.is_galtourable(ctx, Kf, J) and dis.is_galtourable(ctx, Lf, J)
                    and dis.is_galtourable(ctx, N, Kf)
                    and dis.is_galtourable(ctx, N, Lf)):
                continue
            for F in ctx.interval_fields(J, Lf):
                if gal.intersect_fields(ctx, gal.compositum(ctx, Kf, F), Lf) != F:
                    counterexamples.append(
                        f"Q1: KF cap L != F at (K={Kf.name}, L={Lf.name}, F={F.name})")
            for E in ctx.interval_fields(Kf, N):
                EL = gal.intersect_fields(ctx, E, Lf)
                if not dis.is_galtourable(ctx, E, EL):
                    counterexamples.append(
                        f"Q2-1: E not galtourable over E cap L at "
                        f"(K={Kf.name}, L={Lf.name}, E={E.name})")
                if dis.is_galtourable(ctx, E, Kf):
                    if gal.compositum(ctx, Kf, EL) != E:
                        counterexamples.append(
                            f"Q2-2-1: K(E cap L) != E at "
                            f"(K={Kf.name}, L={Lf.name}, E={E.name})")
                    if not dis.is_galtourable(ctx, EL, J):
                        counterexamples.append(
                            f"Q2-2-2: E cap L not galtourable over J at "
                            f"(K={Kf.name}, L={Lf.name}, E={E.name})")
    if counterexamples:
        return OracleReport(instance, "quadrilateral_questions", False,
                            "; ".join(counterexamples[:5]))
    return OracleReport(instance, "quadrilateral_questions", True)


# ---------------------------------------------------------------------------
# the agreement suite


def _agree_pairwise(ctx, instance, operation, main, literal) -> OracleReport:
    """Compare main(ctx, E, F) with literal(ctx, E, F) over every F <= E."""
    for F in ctx.all_fields():
        for E in ctx.interval_fields(F, ctx.top_closure):
            if main(ctx, E, F) != literal(ctx, E, F):
                return OracleReport(instance, operation, False,
                                    f"({E.name}, {F.name})")
    return OracleReport(instance, operation, True)


def _agree_intourability(ctx, instance) -> OracleReport:
    K = ctx.base
    for L in ctx.all_fields():
        try:
            M, count = bf_intourability(ctx, L, K)
        except TheoremViolation as exc:
            return OracleReport(instance, "intourability", False, str(exc))
        main = dis.intourability_field(ctx, L, K)
        if main.M != M:
            return OracleReport(instance, "intourability", False,
                                f"L={L.name}: main {main.M.name} != oracle {M.name}")
    return OracleReport(instance, "intourability", True)


def run_agreement_suite(instances: dict, sample: int = 500) -> dict:
    """Oracle-vs-main agreement matrix over named contexts.

    Returns a JSON-ready dict; ``all_agree`` is the CI gate.
    """
    matrix = {}
    for name in sorted(instances):
        ctx = instances[name]
        reports = [
            _agree_pairwise(ctx, name, "is_galtourable",
                            dis.is_galtourable, bf_galtourable),
            _agree_pairwise(ctx, name, "is_galsimple",
                            dis.is_galsimple, _literal_galsimple),
            bf_refinement_predicates(ctx, MAX_HEIGHT, sample=sample,
                                     instance=name),
            _agree_intourability(ctx, name),
        ]
        matrix[name] = {r.operation: r.to_dict() for r in reports}
    all_agree = all(cell["agreement"]
                    for inst in matrix.values() for cell in inst.values())
    return {"instances": matrix, "all_agree": all_agree}
