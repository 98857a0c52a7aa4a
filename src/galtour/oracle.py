"""Independent brute-force reference implementations.

Every decision procedure in the main path has a literal counterpart
here: galtourability by a search for a chain of normal steps,
intourability by checking both defining conditions over every
intermediate field, composition towers by exhaustive chain enumeration,
and the refinement predicates by direct quantifier evaluation.  The
literal functions take fields ``(ctx, E, F)`` like the main path and
share with it only the group's table and inverses, field containment and
the interval enumeration ``interval_fields``, never the decision logic
under test: normality is the subgroup-level conjugation scan
``literal_is_normal`` and subnormality the chain search
``literal_is_subnormal`` over it.  (The quadrilateral scan is empirical
output, not an oracle, and calls the main path.)

Both keep their verdicts in a module memo (``_literal_normal_memo``,
``_literal_subnormal_memo``): a ``WeakKeyDictionary`` from the group to
``{(A.key, B.key): verdict}`` (field positions ``(E.pos, F.pos)`` for
the latter).  A group's entries go when the group is freed, so the memos
neither keep groups alive nor answer for a later group created at the
same address.

Oracles favour clarity over speed and may be exponential; the agreement
suite aggregates their verdicts into a machine-readable matrix.
"""

from __future__ import annotations

import itertools
import random
import weakref
from collections import namedtuple

from . import dissociation as dis
from . import galois as gal
from . import permgroup as pg
from . import towers as tw
from .dissociation import TheoremViolation
from .galois import FieldRef, GaloisContext
from .permgroup import Subgroup
from .towers import Tower

BF_MAX_INTERVAL = 200  # fields in an interval bf_composition_towers searches
TOWER_CAP = 4000  # towers enumerate_towers returns at most
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


# read with get and insert only on a miss: setdefault would build a weak
# reference to the group on every call
_literal_normal_memo = weakref.WeakKeyDictionary()
_literal_subnormal_memo = weakref.WeakKeyDictionary()


def literal_is_normal(A: Subgroup, B: Subgroup) -> bool:
    """Direct conjugation scan over all of A and B (no generator shortcut)."""
    verdicts = _literal_normal_memo.get(A.parent)
    if verdicts is None:
        verdicts = _literal_normal_memo[A.parent] = {}
    key = (A.key, B.key)
    hit = verdicts.get(key)
    if hit is None:
        tab, inv, members = A.parent.table, A.parent.inverses, set(A.key)
        hit = all(tab[tab[b][a]][inv[b]] in members
                  for b in B.key for a in A.key)
        verdicts[key] = hit
    return hit


def literal_is_subnormal(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> bool:
    """E is reached from F by literal Galois steps: E == F, or some M with
    F < M <= E has Gal(N/M) literally normal in Gal(N/F) and E is reached
    from M."""
    if E == F:
        return True
    verdicts = _literal_subnormal_memo.get(ctx.group)
    if verdicts is None:
        verdicts = _literal_subnormal_memo[ctx.group] = {}
    key = (E.pos, F.pos)
    hit = verdicts.get(key)
    if hit is None:
        hit = any(M != F and literal_is_normal(M.subgroup, F.subgroup)
                  and literal_is_subnormal(ctx, E, M)
                  for M in ctx.interval_fields(F, E))
        verdicts[key] = hit
    return hit


# ---------------------------------------------------------------------------
# galtourability by literal chain search


def bf_galtourable(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> bool:
    """A chain of normal steps from Gal(N/F) down to Gal(N/E)."""
    if not F <= E:
        raise gal.GaloisError("bf_galtourable requires F <= E")
    return literal_is_subnormal(ctx, E, F)


def bf_smallest_subnormal(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> FieldRef:
    """The largest field M with F <= M <= E that is galtourable over F:
    Gal(N/M) is the smallest subnormal subgroup of Gal(N/F) containing
    Gal(N/E).

    The first member of ``ctx.interval_fields(F, E)`` (canonical order,
    so smallest subgroup first) that passes the chain search; F passes.
    """
    return next(M for M in ctx.interval_fields(F, E)
                if literal_is_subnormal(ctx, M, F))


# ---------------------------------------------------------------------------
# intourability by literal double condition


def _literal_galsimple(ctx: GaloisContext, E: FieldRef, F: FieldRef) -> bool:
    """E/F galsimple: E != F and no field M strictly between them has
    Gal(N/M) literally normal in Gal(N/F)."""
    return E != F and not any(
        M not in (E, F) and literal_is_normal(M.subgroup, F.subgroup)
        for M in ctx.interval_fields(F, E))


def bf_intourability(ctx: GaloisContext, L: FieldRef, K: FieldRef) -> tuple:
    """All fields satisfying both defining conditions of the M field.

    Returns ``(M, count)``; any count other than one is a theorem
    violation and raised as such.
    """
    if not K <= L:
        raise gal.GaloisError("bf_intourability requires K <= L")
    hits = []
    for M in ctx.interval_fields(K, L):
        if not bf_galtourable(ctx, M, K):
            continue
        sub_ok = (L == M) or (_literal_galsimple(ctx, L, M)
                              and not literal_is_normal(L.subgroup, M.subgroup))
        if sub_ok:
            hits.append(M)
    if len(hits) != 1:
        raise TheoremViolation(
            f"intourability count = {len(hits)} for {L.name}/{K.name}: "
            f"{[m.name for m in hits]}")
    return hits[0], 1


# ---------------------------------------------------------------------------
# composition towers by exhaustive chain enumeration


def bf_composition_towers(ctx: GaloisContext, L: FieldRef, K: FieldRef) -> list:
    """Every strict Galois tower of L/K whose marches are all galsimple."""
    if not K <= L:
        raise gal.GaloisError("bf_composition_towers requires K <= L")
    interval = ctx.interval_fields(K, L)
    if len(interval) > BF_MAX_INTERVAL:
        raise pg.BoundExceeded(
            f"interval has {len(interval)} subgroups > {BF_MAX_INTERVAL}")

    def steps(F: FieldRef) -> list:
        return [M for M in ctx.interval_fields(F, L)
                if literal_is_normal(M.subgroup, F.subgroup)
                and _literal_galsimple(ctx, M, F)]

    towers: list = []

    def ascend(chain: list):
        if chain[-1] == L:
            towers.append(Tower(ctx, chain))
            return
        for M in steps(chain[-1]):
            ascend(chain + [M])

    ascend([K])
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
            if not literal_is_normal(e.fields[j].subgroup, e.fields[j - 1].subgroup):
                return False
    return True


def enumerate_towers(ctx: GaloisContext, K: FieldRef, L: FieldRef,
                     max_height: int) -> list:
    """All towers of L/K with height <= max_height, in DFS order."""
    if not K <= L:
        raise gal.GaloisError("enumerate_towers requires K <= L")
    interval = ctx.interval_fields(K, L)
    out: list = []

    def extend(prefix: list):
        if len(out) >= TOWER_CAP:
            return
        if prefix[-1] == L:
            out.append(Tower(ctx, prefix))
            # may still grow by repeating L
        if len(prefix) == max_height + 1:
            return
        for nxt in interval:
            if prefix[-1] <= nxt:
                extend(prefix + [nxt])

    extend([K])
    return out[:TOWER_CAP]


def bf_refinement_predicates(ctx: GaloisContext, max_height: int,
                             base: FieldRef | None = None,
                             top: FieldRef | None = None,
                             sample: int | None = 1000,
                             instance: str = "?") -> OracleReport:
    """Compare literal RAF evaluation with the towers-module predicates."""
    K = base if base is not None else ctx.base
    L = top if top is not None else ctx.distinguished
    towers = enumerate_towers(ctx, K, L, max_height)
    pairs = [(e, f) for e in towers for f in towers]
    if sample is not None and len(pairs) > sample:
        rng = random.Random(SAMPLE_SEED)
        pairs = rng.sample(pairs, sample)
    for e, f in pairs:
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


def run_agreement_suite(instances: dict, max_height: int = 3,
                        sample: int = 500) -> dict:
    """Oracle-vs-main agreement matrix over named contexts.

    Returns a JSON-ready dict; ``all_agree`` is the CI gate.
    """
    matrix = {}
    for name in sorted(instances):
        ctx = instances[name]
        reports = [
            _agree_pairwise(ctx, name, "is_galtourable",
                            dis.is_galtourable, literal_is_subnormal),
            _agree_pairwise(ctx, name, "is_galsimple",
                            dis.is_galsimple, _literal_galsimple),
            bf_refinement_predicates(ctx, max_height, sample=sample,
                                     instance=name),
            _agree_intourability(ctx, name),
        ]
        matrix[name] = {r.operation: r.to_dict() for r in reports}
    all_agree = all(cell["agreement"]
                    for inst in matrix.values() for cell in inst.values())
    return {"instances": matrix, "all_agree": all_agree}
