"""What the workloads run.

The instance lists, verbs and session kinds are expanded by
``make_reference.py`` into the reference files the runner draws from.
``call_session_op`` and ``render_answer`` are shared by both: they say
what a session operation calls and how its answer is rendered for
comparison.  Rendering reads names and subgroup orders only, so it never
calls back into a layer that the traced run measures.
"""

import hashlib

CLI_LATTICE_INSTANCES = [
    "radical:a=2,n=12", "radical:a=2,n=15", "radical:a=2,n=16",
    "radical:a=2,n=18", "radical:a=2,n=20", "selmer-serre:n=5",
]
CLI_LATTICE_VERBS = ["analyze", "m-field", "compose", "lattice", "oracle"]

CLI_TOWERS_INSTANCES = [
    "radical:a=2,n=11", "radical:a=3,n=11", "radical:a=2,n=13",
    "radical:a=2,n=14", "cyclo-radical:n=1,d=13,l=2",
]
CLI_TOWERS_VERBS = ["check-equiv", "refine", "refine --strict",
                    "tower-check", "elevate"]
# A tower op is "big" when a marche group it builds has order >= BIG_MARCHE.
# Where an (instance, verb) pair has big ops, only those are drawable, so
# every draw of such a pair loads the quotient and isomorphism path.
BIG_MARCHE = 40

SESSION_INSTANCES = [
    "radical:a=2,n=12", "radical:a=2,n=16", "radical:a=2,n=18",
    "radical:a=2,n=20", "selmer-serre:n=5",
]
SESSION_KINDS = [
    "intourability_field", "is_galtourable", "is_galsimple",
    "galois_tower_witness", "composition_tower_general",
    "elevation_tower", "schreier_refine",
]


def clear_preset_caches(presets) -> None:
    """Forget every cached preset context, so the next load builds it from
    scratch.  A preset function without a cache is left alone."""
    for fn in ("radical_context", "cyclo_radical_context", "selmer_serre_context"):
        clear = getattr(getattr(presets, fn, None), "cache_clear", None)
        if clear:
            clear()


def render_tower(t) -> str:
    """Field names with marche degrees, e.g. ``Q [2] Q(sqrt2) [3] L``."""
    out = [t.fields[0].name]
    for lo, hi in zip(t.fields, t.fields[1:]):
        out.append(f"[{lo.subgroup.order // hi.subgroup.order}] {hi.name}")
    return " ".join(out)


def call_session_op(dis, ctx, kind, args):
    """Run one session operation through the ``dissociation`` module
    ``dis``; ``args`` are resolved fields or towers."""
    if kind == "intourability_field":
        return dis.intourability_field(ctx, *args)
    if kind == "is_galtourable":
        return dis.is_galtourable(ctx, *args)
    if kind == "is_galsimple":
        return dis.is_galsimple(ctx, *args)
    if kind == "galois_tower_witness":
        return dis.galois_tower_witness(ctx, *args)
    if kind == "composition_tower_general":
        return dis.composition_tower_general(ctx, *args)
    if kind == "elevation_tower":
        return dis.elevation_tower(ctx, *args)
    if kind == "schreier_refine":
        return dis.schreier_refine(*args)
    raise ValueError(f"unknown session operation {kind!r}")


def render_answer(kind, result) -> str:
    """Canonical text of a session answer, compared with the reference."""
    if kind in ("is_galtourable", "is_galsimple"):
        return "yes" if result else "no"
    if kind == "intourability_field":
        return (f"M={result.M.name} deg={result.degrees.gal},"
                f"{result.degrees.int} sub={result.sub_kind} "
                f"witness={render_tower(result.witness_tower)}")
    if kind in ("galois_tower_witness", "composition_tower_general"):
        return render_tower(result)
    if kind == "elevation_tower":
        return " | ".join(render_tower(t) for t in result)
    if kind == "schreier_refine":
        r1, r2, w = result
        isos = hashlib.sha256(repr(w.isos).encode()).hexdigest()[:16]
        return (f"{render_tower(r1)} | {render_tower(r2)} | "
                f"sigma={w.sigma_one_line()} isos={isos}")
    raise ValueError(f"unknown session operation {kind!r}")
