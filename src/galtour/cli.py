"""Command-line surface over instance files and presets.

Verbs: analyze, m-field, tower-check, refine, compose, elevate,
check-equiv, lattice, oracle.  Outputs are byte-identical across runs
for fixed inputs.  Exit codes: 0 ok, 2 user/input error, 3 internal
theorem violation (always a bug report, never user error), 141 when the
reader of stdout closed it early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import dissociation as dis
from . import galois as gal
from . import permgroup as pg
from . import presets
from . import towers as tw
from .dissociation import TheoremViolation

# not KeyError, ValueError or IndexError: a library bug ends in a traceback
USER_ERRORS = (presets.PresetError, gal.GaloisError, tw.TowerError,
               pg.PermGroupError, OSError)


TOWER_QUOTE = 40  # characters of a bad --tower text its error quotes


def _parse_tower(ctx, text: str) -> tw.Tower:
    try:
        names = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # not JSON, an integer past the digit limit, or nested too deep
        shown = (repr(text) if len(text) <= TOWER_QUOTE else
                 f"{text[:TOWER_QUOTE]!r}... ({len(text)} characters)")
        raise tw.TowerError(f"bad tower JSON {shown}: {exc}") from exc
    if not isinstance(names, list) or not all(isinstance(x, str) for x in names):
        raise tw.TowerError("tower must be a JSON list of field names")
    return tw.make_tower(ctx, [ctx.field_by_name(n) for n in names])


def _emit(args, payload: dict, text_lines: list) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def _group_class(a: pg.AbstractGroup) -> str:
    if a.is_cyclic():
        return f"C{a.order}"
    kind = "abelian" if a.is_abelian() else "nonabelian"
    return f"order {a.order} ({kind})"


# ---------------------------------------------------------------------------
# verbs


def _field_report(ctx, F) -> dict:
    K = ctx.base
    rep = dis.intourability_field(ctx, F, K)
    return {
        "field": F.name,
        "degree": gal.degree(ctx, F, K),
        "galois": gal.is_galois(ctx, F, K),
        "galtourable": rep.M == F,
        "simple": dis.is_simple_ext(ctx, F, K),
        "galsimple": dis.is_galsimple(ctx, F, K),
        "M": rep.M.name,
        "tour_degree": list(rep.degrees),
    }


def cmd_analyze(args, ctx) -> int:
    fields = [ctx.field_by_name(args.field)] if args.field else ctx.all_fields()
    reports = [_field_report(ctx, F) for F in fields]
    lines = [f"instance: {args.instance}  |G|={ctx.group.order}  "
             f"fields={len(ctx.subgroups)}  L={ctx.distinguished.name}"]
    for note in sorted(ctx.notes):
        if note != "preset":
            lines.append(f"note: {note}: {ctx.notes[note]}")
    for r in reports:
        lines.append(
            f"field {r['field']}: degree {r['degree']}, "
            f"galois: {_yesno(r['galois'])}, "
            f"galtourable: {_yesno(r['galtourable'])}, "
            f"simple: {_yesno(r['simple'])}, "
            f"galsimple: {_yesno(r['galsimple'])}, "
            f"M: {r['M']}, "
            f"tour-degree: ({r['tour_degree'][0]},{r['tour_degree'][1]})")
    _emit(args, {"instance": args.instance, "order": ctx.group.order,
                 "fields": reports}, lines)
    return 0


def cmd_m_field(args, ctx) -> int:
    L = ctx.field_by_name(args.field) if args.field else ctx.distinguished
    rep = dis.intourability_field(ctx, L, ctx.base)
    payload = rep.to_dict()
    lines = [f"M: {payload['M']}",
             f"tour-degree: ({payload['deg_gal']},{payload['deg_int']})",
             f"sub-kind: {payload['sub_kind']}",
             f"witness: {rep.witness_tower.pretty()}"]
    _emit(args, payload, lines)
    return 0


def cmd_tower_check(args, ctx) -> int:
    t = _parse_tower(ctx, args.tower[0])
    strict = tw.is_strict(t)
    payload = {
        "tower": [f.name for f in t.fields],
        "height": t.height,
        "strict": strict,
        "galois_tower": tw.is_galois_tower(t),
        "galtourable_tower": tw.is_galtourable_tower(t),
        "height_bound_ok": tw.height_bound_check(t) if strict else None,
        "composition_tower": dis.is_composition_tower(ctx, t),
    }
    lines = [t.pretty(),
             f"height: {t.height}",
             f"strict: {_yesno(strict)}",
             f"galois tower: {_yesno(payload['galois_tower'])}",
             f"galtourable tower: {_yesno(payload['galtourable_tower'])}"]
    if strict:
        lines.append(f"height bound: {_yesno(payload['height_bound_ok'])}")
    lines.append(f"composition tower: {_yesno(payload['composition_tower'])}")
    _emit(args, payload, lines)
    return 0


def cmd_refine(args, ctx) -> int:
    t1 = _parse_tower(ctx, args.tower[0])
    t2 = _parse_tower(ctx, args.tower[1])
    refine = dis.schreier_refine_strict if args.strict else dis.schreier_refine
    r1, r2, witness = refine(t1, t2)
    # the refinement has checked r1 Galois: read its quotients directly
    q1 = [ctx.quotient_group(hi, lo) for lo, hi in r1.marches()]
    marches = [{"marche": i + 1, "to": witness.sigma[i],
                "group": _group_class(q1[i])}
               for i in range(r1.height)]
    payload = {"refined1": [f.name for f in r1.fields],
               "refined2": [f.name for f in r2.fields],
               "sigma": list(witness.sigma),
               "marches": marches}
    lines = [f"refined 1: {r1.pretty()}",
             f"refined 2: {r2.pretty()}",
             f"sigma: {witness.sigma_one_line()}"]
    for m in marches:
        lines.append(f"marche {m['marche']} ~ marche {m['to']}: {m['group']}")
    _emit(args, payload, lines)
    return 0


def cmd_compose(args, ctx) -> int:
    L = ctx.field_by_name(args.field) if args.field else ctx.distinguished
    t = dis.composition_tower_general(ctx, L, ctx.base)
    payload = {"tower": [f.name for f in t.fields], "height": t.height}
    _emit(args, payload, [t.pretty()])
    return 0


def cmd_elevate(args, ctx) -> int:
    f = _parse_tower(ctx, args.tower[0])
    mtower, ind = dis.elevation_tower(ctx, f)
    payload = {"m_tower": [x.name for x in mtower.fields],
               "induced": [x.name for x in ind.fields]}
    _emit(args, payload, [f"M-tower: {mtower.pretty()}",
                          f"induced: {ind.pretty()}"])
    return 0


def cmd_check_equiv(args, ctx) -> int:
    c1 = _parse_tower(ctx, args.tower[0])
    c2 = _parse_tower(ctx, args.tower[1])
    equivalent, witness = dis.equivalence_general(ctx, c1, c2)
    payload = {"equivalent": equivalent,
               "sigma": list(witness.sigma) if witness else None}
    lines = [f"equivalent: {_yesno(equivalent)}"]
    if witness is not None:
        lines.append(f"sigma: {witness.sigma_one_line()}")
    _emit(args, payload, lines)
    return 0


def cmd_lattice(args, ctx) -> int:
    dot = gal.to_dot(ctx)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
        print(f"wrote {args.dot}")
    else:
        print(dot, end="")
    return 0


def cmd_oracle(args, ctx) -> int:
    from . import oracle as orc  # only this verb needs it
    matrix = orc.run_agreement_suite({args.instance: ctx})
    if args.json:
        print(json.dumps(matrix, indent=2, sort_keys=True))
    else:
        for inst in sorted(matrix["instances"]):
            for op, cell in matrix["instances"][inst].items():
                status = "agree" if cell["agreement"] else "DISAGREE"
                line = f"{inst} {op}: {status}"
                if not cell["agreement"]:
                    line += f"  [{cell['counterexample']}]"
                print(line)
        print(f"all_agree: {_yesno(matrix['all_agree'])}")
    return 0 if matrix["all_agree"] else 3


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
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

    common(sub.add_parser("analyze", help="per-field dissociation report"),
           field=True).set_defaults(func=cmd_analyze)
    common(sub.add_parser("m-field", help="intourability field of L/K"),
           field=True).set_defaults(func=cmd_m_field)
    common(sub.add_parser("tower-check", help="validate and classify a tower"),
           towers=1).set_defaults(func=cmd_tower_check, nt=1)
    p = common(sub.add_parser("refine", help="common Galois refinements"),
               towers=2)
    p.add_argument("--strict", action="store_true",
                   help="return strict associated refinements")
    p.set_defaults(func=cmd_refine, nt=2)
    common(sub.add_parser("compose", help="composition tower of L/K"),
           field=True).set_defaults(func=cmd_compose)
    common(sub.add_parser("elevate", help="elevation tower of a tower"),
           towers=1).set_defaults(func=cmd_elevate, nt=1)
    common(sub.add_parser("check-equiv", help="equivalence of two towers"),
           towers=2).set_defaults(func=cmd_check_equiv, nt=2)
    p = common(sub.add_parser("lattice", help="field lattice as DOT"))
    p.add_argument("--dot", default=None, help="write DOT to this path")
    p.set_defaults(func=cmd_lattice)
    common(sub.add_parser("oracle", help="oracle agreement suite")
           ).set_defaults(func=cmd_oracle)
    return parser


def main(argv: list | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    nt = getattr(args, "nt", None)
    if nt is not None and len(args.tower) != nt:
        print(f"error: expected --tower given {nt} time(s), got {len(args.tower)}",
              file=sys.stderr)
        return 2
    try:
        ctx = presets.load_instance(args.instance, enumeration_bound=args.bound)
        code = args.func(args, ctx)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away (`galtour ... | head -1`): not an input error;
        # stdout goes to devnull so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process it killed
    except TheoremViolation as exc:
        print(f"theorem violation (internal bug): {exc}", file=sys.stderr)
        return 3
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
