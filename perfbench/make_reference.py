"""Regenerate the reference answers in perfbench/reference/.

Usage (from the repository root):

    python3 perfbench/make_reference.py

For every workload it lists the operations the runner may draw, runs each
once against the code in ``src/`` and records the expected result: exit
code and stdout digest for CLI operations, the canonical answer for
session operations.  CLI operations run in-process through
``galtour.cli.main``; the runner compares them with fresh processes, so
any difference between the two shows up as a failed operation.

A reference is written only if the oracle agreement suite reports
agreement on every instance in it, and every session ``is_galtourable``
and ``intourability_field`` answer agrees with the brute-force oracles.
Run it again only when outputs are meant to change; a change that claims
a speed-up must leave these files alone.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from galtour import cli, dissociation, oracle, presets, towers  # noqa: E402

REF_DIR = HERE / "reference"
TOWER_POOL = 8          # Galois towers K -> N kept per cli_towers instance
SESSION_PER_KIND = 40   # session operations per kind and instance


def run_cli(argv: list) -> tuple:
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    out.flush()
    digest = hashlib.sha256(buf.getvalue()).hexdigest()
    out.detach()
    return code, digest


def oracle_gate(instances: list) -> dict:
    verdicts = {}
    for inst in instances:
        matrix = oracle.run_agreement_suite({inst: presets.load_instance(inst)})
        verdicts[inst] = matrix["all_agree"]
        if not matrix["all_agree"]:
            sys.exit(f"oracle disagrees on {inst}; reference not written")
    return verdicts


def names(ctx, subgroups) -> list:
    return [ctx.display_name(ctx.field_of(s)) for s in subgroups]


def max_marche(chain) -> int:
    return max(a.order // b.order for a, b in zip(chain, chain[1:]))


# ---------------------------------------------------------------------------
# cli_lattice


def cli_lattice_ops() -> list:
    ops = []
    for inst in wl.CLI_LATTICE_INSTANCES:
        ctx = presets.load_instance(inst)
        fields = sorted(set(ctx.names.values()))
        for verb in wl.CLI_LATTICE_VERBS:
            variants = [[]]
            if verb in ("analyze", "m-field", "compose"):
                variants += [["--field", f] for f in fields]
            for extra in variants:
                ops.append({"instance": inst, "verb": verb,
                            "argv": [verb, inst, *extra]})
    return ops


# ---------------------------------------------------------------------------
# cli_towers


def galois_towers(ctx, max_height: int = 3) -> list:
    """Every chain G = S_0 |> S_1 |> ... |> S_h = 1 with h <= max_height."""
    one = ctx.group.trivial_subgroup()
    out = []

    def extend(chain):
        top = chain[-1]
        if top == one:
            out.append(chain)
            return
        for s in ctx.subgroups:
            if s.mask & top.mask == s.mask and s != top \
                    and (s == one or len(chain) < max_height) \
                    and ctx.normal_in(s, top):
                extend(chain + [s])

    extend([ctx.group.full_subgroup()])
    return out


def tower_pool(ctx, inst: str) -> list:
    towers = galois_towers(ctx)
    big = [t for t in towers if max_marche(t) >= wl.BIG_MARCHE]
    rest = [t for t in towers if max_marche(t) < wl.BIG_MARCHE]
    random.Random(inst).shuffle(rest)
    return (big + rest)[:TOWER_POOL]


def cli_towers_ops() -> list:
    """Per (instance, verb) pair, the big ops if it has any, else all."""
    ops = []
    for inst in wl.CLI_TOWERS_INSTANCES:
        ctx = presets.load_instance(inst)
        pool = tower_pool(ctx, inst)
        for verb in wl.CLI_TOWERS_VERBS:
            words = verb.split()
            if verb in ("tower-check", "elevate"):
                combos = [(t,) for t in pool]
            elif verb == "check-equiv":
                combos = [(a, b) for a in pool for b in pool if len(a) == len(b)]
            else:
                combos = [(a, b) for a in pool for b in pool]
            big = [c for c in combos
                   if quotient_order(ctx, verb, c) >= wl.BIG_MARCHE]
            for combo in big or combos:
                argv = [words[0], inst, *words[1:]]
                for t in combo:
                    argv += ["--tower", json.dumps(names(ctx, t))]
                ops.append({"instance": inst, "verb": verb, "argv": argv})
    return ops


def quotient_order(ctx, verb: str, combo: tuple) -> int:
    """Largest marche group the verb builds: the marches of both towers
    for check-equiv, of the refined towers for refine; none otherwise."""
    if verb == "check-equiv":
        return max(max_marche(t) for t in combo)
    if verb.startswith("refine"):
        t1, t2 = (towers.make_tower(ctx, [ctx.field_of(s) for s in t])
                  for t in combo)
        r1, r2, _ = dissociation.schreier_refine(t1, t2)
        return max(max_marche([f.subgroup for f in r.fields]) for r in (r1, r2))
    return 0


def run_cli_ops(ops: list) -> list:
    for op in ops:
        op["exit"], op["stdout_sha256"] = run_cli(op["argv"])
        if op["exit"] != 0:
            sys.exit(f"operation {op['argv']} exits {op['exit']}")
    return ops


# ---------------------------------------------------------------------------
# session_queries


def random_pair(rng, ctx):
    """Subgroups A < B, read as fields E = Fix(A) over F = Fix(B)."""
    while True:
        a, b = rng.choice(ctx.subgroups), rng.choice(ctx.subgroups)
        if a != b and a <= b:
            return a, b


def random_descent(rng, ctx, top, bottom, height: int, normal: bool) -> list:
    """A strictly descending chain top > ... > bottom of at most ``height``
    steps; with ``normal`` each step is normal in the one before."""
    chain = [top]
    while len(chain) < height:
        cur = chain[-1]
        inner = [s for s in ctx.subgroups
                 if bottom <= s and s <= cur and s != cur and s != bottom
                 and (not normal or ctx.normal_in(s, cur))]
        if not inner:
            break
        chain.append(rng.choice(inner))
    chain.append(bottom)
    return chain


def session_args(rng, ctx, kind: str) -> list:
    field = ctx.field_of
    if kind == "galois_tower_witness":
        while True:
            a, b = random_pair(rng, ctx)
            if dissociation.is_galtourable(ctx, field(a), field(b)):
                return names(ctx, [a, b])
    if kind == "elevation_tower":
        a, b = random_pair(rng, ctx)
        chain = random_descent(rng, ctx, b, a, rng.randint(1, 3), normal=False)
        return [names(ctx, chain)]
    if kind == "schreier_refine":
        while True:
            a, b = random_pair(rng, ctx)
            if ctx.normal_in(a, b):
                break
        return [names(ctx, random_descent(rng, ctx, b, a, rng.randint(1, 3), True))
                for _ in range(2)]
    a, b = random_pair(rng, ctx)
    return names(ctx, [a, b])


def session_ops() -> list:
    ops = []
    for inst in wl.SESSION_INSTANCES:
        ctx = presets.load_instance(inst)
        rng = random.Random(inst)
        for kind in wl.SESSION_KINDS:
            for _ in range(SESSION_PER_KIND):
                args = session_args(rng, ctx, kind)
                resolved = [towers.make_tower(ctx, [ctx.field_by_name(n) for n in a])
                            if isinstance(a, list) else ctx.field_by_name(a)
                            for a in args]
                result = wl.call_session_op(dissociation, ctx, kind, resolved)
                cross_check(ctx, kind, resolved, result)
                ops.append({"instance": inst, "kind": kind, "args": args,
                            "answer": wl.render_answer(kind, result)})
    return ops


def cross_check(ctx, kind: str, args: list, result) -> None:
    if kind == "is_galtourable" and result != oracle.bf_galtourable(ctx, *args):
        sys.exit(f"is_galtourable disagrees with the oracle on {args}")
    if kind == "intourability_field" \
            and result.M != oracle.bf_intourability(ctx, *args)[0]:
        sys.exit(f"intourability_field disagrees with the oracle on {args}")


def main() -> int:
    REF_DIR.mkdir(exist_ok=True)
    specs = [
        ("cli_lattice", wl.CLI_LATTICE_INSTANCES,
         lambda: run_cli_ops(cli_lattice_ops())),
        ("cli_towers", wl.CLI_TOWERS_INSTANCES,
         lambda: run_cli_ops(cli_towers_ops())),
        ("session_queries", wl.SESSION_INSTANCES, session_ops),
    ]
    for name, instances, make in specs:
        verdicts = oracle_gate(instances)
        ops = make()
        ref = {"workload": name, "instances": instances,
               "oracle_all_agree": verdicts, "ops": ops}
        path = REF_DIR / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1, ensure_ascii=False) + "\n",
                        encoding="utf-8")
        print(f"wrote {path.relative_to(HERE.parent)}: {len(ops)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
