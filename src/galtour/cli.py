"""Command-line surface over instance files and presets.

Verbs: analyze, m-field, tower-check, refine, compose, elevate,
check-equiv, lattice, oracle.  Outputs are byte-identical across runs
for fixed inputs.  Exit codes: 0 ok, 2 user/input error, 3 internal
theorem violation (always a bug report, never user error), 141 when the
reader of stdout closed it early.  ``main`` returns the code; the
``galtour`` script and ``python -m galtour.cli`` end through ``run``.
"""

from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace

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
    import json  # on use: the verbs without a tower never load it
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
        import json
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
        "galtourable_tower": dis.is_galtourable_tower(t),
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
    marches = [{"marche": i + 1, "to": witness.sigma[i], "group": _group_class(q)}
               for i, q in enumerate(tw.marche_groups(r1))]
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
    lines = []
    for inst in sorted(matrix["instances"]):
        for op, cell in matrix["instances"][inst].items():
            status = "agree" if cell["agreement"] else f"DISAGREE  [{cell['counterexample']}]"
            lines.append(f"{inst} {op}: {status}")
    lines.append(f"all_agree: {_yesno(matrix['all_agree'])}")
    _emit(args, matrix, lines)
    return 0 if matrix["all_agree"] else 3


# ---------------------------------------------------------------------------
# argv

INSTANCE_HELP = ("preset (radical:a=2,n=6 | cyclo-radical:n=2,d=3,l=3 "
                 "| selmer-serre:n=5 | file:<path>) or instance file path")

# option -> (type of its value, None for a flag; help line)
OPTIONS = {
    "help": (None, "show this help message and exit"),
    "json": (None, "JSON output"),
    "bound": (int, "override the subgroup enumeration bound"),
    "field": (str, "field name"),
    "tower": (str, "tower as a JSON list of field names"),
    "strict": (None, "return strict associated refinements"),
    "dot": (str, "write DOT to this path"),
}

# verb -> (handler, help line, options in usage order, times --tower is given)
VERBS = {
    "analyze": (cmd_analyze, "per-field dissociation report",
                ("json", "bound", "field"), 0),
    "m-field": (cmd_m_field, "intourability field of L/K",
                ("json", "bound", "field"), 0),
    "tower-check": (cmd_tower_check, "validate and classify a tower",
                    ("json", "bound", "tower"), 1),
    "refine": (cmd_refine, "common Galois refinements",
               ("json", "bound", "tower", "strict"), 2),
    "compose": (cmd_compose, "composition tower of L/K",
                ("json", "bound", "field"), 0),
    "elevate": (cmd_elevate, "elevation tower of a tower",
                ("json", "bound", "tower"), 1),
    "check-equiv": (cmd_check_equiv, "equivalence of two towers",
                    ("json", "bound", "tower"), 2),
    "lattice": (cmd_lattice, "field lattice as DOT", ("json", "bound", "dot"), 0),
    "oracle": (cmd_oracle, "oracle agreement suite", ("json", "bound"), 0),
}


def _usage(verb: str | None) -> str:
    if verb is None:
        return f"usage: galtour [-h] {{{','.join(VERBS)}}} ..."
    words = []
    for name in VERBS[verb][2]:
        word = f"--{name}" if OPTIONS[name][0] is None else f"--{name} {name.upper()}"
        words.append(word if name == "tower" else f"[{word}]")
    return f"usage: galtour {verb} [-h] {' '.join(words)} instance"


def _help(verb: str | None):
    """Print the usage and a line for each verb, or for each argument of
    ``verb``, on stdout, and exit 0."""
    if verb is None:
        title = "Galois tower calculus over explicit finite permutation groups"
        rows = [("verbs:", "")] + [(v, VERBS[v][1]) for v in VERBS]
    else:
        _, title, options, towers = VERBS[verb]
        rows = [("arguments:", ""), ("instance", INSTANCE_HELP)]
        for name in ("help",) + options:
            kind, text = OPTIONS[name]
            head = "-h, --help" if name == "help" else f"--{name}"
            if kind is not None:
                head += f" {name.upper()}"
            if name == "tower" and towers == 2:
                text += " (give twice)"
            rows.append((head, text))
    lines = [_usage(verb), "", title, "", rows[0][0]]
    lines += [f"  {head:<15} {text}" for head, text in rows[1:]]
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()  # a closed stdout raises here, inside main's try
    raise SystemExit(0)


def _fail(verb: str | None, reason: str):
    sys.stderr.write(f"{_usage(verb)}\ngaltour: error: {reason}\n")
    raise SystemExit(2)


def _is_option(word: str) -> bool:
    return word.startswith("-") and word != "-"


def _option(word: str, names: tuple, verb: str | None) -> str:
    """The name in ``names`` that the long option ``word`` spells out, or
    the only one that it begins."""
    stem = word[2:]
    hits = [stem] if stem in names else [n for n in names if stem and n.startswith(stem)]
    if len(hits) != 1:
        _fail(verb, f"unrecognized arguments: {word}")
    return hits[0]


def parse_args(argv: list) -> SimpleNamespace:
    """The verb, instance and options of one command line, read against
    VERBS and OPTIONS.

    An option is ``--name value`` or ``--name=value``, its name cut to any
    unique prefix; options go before or after the instance, and ``--``
    ends them.  A repeated option keeps its last value, except ``--tower``,
    which collects each.  A value given as the next word may not begin
    with ``-``.  ``-h``/``--help`` prints help and exits 0; bad input
    prints the usage and the reason on stderr and exits 2.
    """
    if not argv:
        _fail(None, "the following arguments are required: verb")
    verb = argv[0]
    if verb == "-h" or verb.startswith("--") and _option(verb, ("help",), None):
        _help(None)  # _option exits 2 on any option but --help
    if verb not in VERBS:
        _fail(None, f"argument verb: invalid choice: {verb!r} "
                    f"(choose from {', '.join(VERBS)})")
    options, towers = ("help",) + VERBS[verb][2], VERBS[verb][3]
    args = SimpleNamespace(verb=verb, instance=None, json=False, bound=None,
                           field=None, tower=None, strict=False, dot=None)
    words, positional = iter(argv[1:]), []
    for word in words:
        if word == "--":
            positional.extend(words)
        elif not _is_option(word):
            positional.append(word)
        elif word == "-h":
            _help(verb)
        elif not word.startswith("--"):
            _fail(verb, f"unrecognized arguments: {word}")
        else:
            key, given, value = word.partition("=")
            name = _option(key, options, verb)
            kind = OPTIONS[name][0]
            if kind is None:
                if given:
                    _fail(verb, f"argument --{name}: ignored explicit argument {value!r}")
                if name == "help":
                    _help(verb)
                setattr(args, name, True)
                continue
            if not given:
                value = next(words, None)
                if value is None or _is_option(value):
                    _fail(verb, f"argument --{name}: expected one argument")
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _fail(verb, f"argument --{name}: invalid int value: {value!r}")
            if name == "tower":
                value = (args.tower or []) + [value]
            setattr(args, name, value)
    missing = [what for what, absent in (("instance", not positional),
                                         ("--tower", towers and args.tower is None))
               if absent]
    if missing:
        _fail(verb, f"the following arguments are required: {', '.join(missing)}")
    if len(positional) > 1:
        _fail(verb, f"unrecognized arguments: {' '.join(positional[1:])}")
    args.instance = positional[0]
    return args


def main(argv: list | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        handler, _, _, towers = VERBS[args.verb]
        if towers and len(args.tower) != towers:
            print(f"error: expected --tower given {towers} time(s), "
                  f"got {len(args.tower)}", file=sys.stderr)
            return 2
        ctx = presets.load_instance(args.instance, enumeration_bound=args.bound)
        code = handler(args, ctx)
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


def run():
    """End the process with the exit code of ``main()`` on this process's
    argv, once the ``atexit`` handlers have run and the output is flushed.

    ``os._exit`` skips the interpreter's teardown, which frees the
    context, its lattice and every module one object at a time and costs
    more than a typical verb.  The handlers run before the final flush,
    as in Python's own shutdown, so what they print is not lost.  A final
    flush that fails is mapped as ``main`` maps it, with one error line
    at most: a full stdout keeps its bytes, so it fails in ``main`` and
    again here.  An exception that ``main`` does not catch takes Python's
    own path, a traceback and exit 1.
    """
    try:
        code = main()
    except SystemExit as exc:  # help, or a bad command line
        code = exc.code
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = 141
    except OSError as exc:
        if code == 0:  # else main has reported its error, often this one
            print(f"error: {exc}", file=sys.stderr)
            code = 2
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
