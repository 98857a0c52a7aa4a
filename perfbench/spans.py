"""Span recorder for the traced run.

``install`` wraps public functions of the galtour modules from outside
the package, by replacing module and class attributes; ``uninstall``
puts the originals back.  Calls are looked up through those attributes
at run time, so internal calls are wrapped too.

Two kinds of wrapper:

* a *span* records (name, start, end, parent, operation) for one call.
  A span's self time is its duration minus the time its child spans
  cover.
* a *count* only counts calls (and, for caches, whether the call grew
  the cache).  Count wrappers sit on the hot inner functions (``join``,
  ``generated_subgroup``, ``normal_in`` ...), where a span per call would
  cost more than the call; their time stays in the caller's self time.

Spans are kept in flat arrays in memory and written out by ``dump``.
"""

import functools
import json
import time
from array import array
from collections import Counter

# span name -> layer, for the self-time shares
LAYERS = {
    "permgroup.all_subgroups": "permgroup.lattice",
    "permgroup.generate": "permgroup.closure_table",
    "permgroup.table": "permgroup.closure_table",
    "permgroup.subnormal_closure": "permgroup.closures",
    "permgroup.quotient": "permgroup.quotient_iso",
    "permgroup.AbstractGroup.init": "permgroup.quotient_iso",
    "permgroup.are_isomorphic": "permgroup.quotient_iso",
}
SHARE_LAYERS = [
    "permgroup.lattice", "permgroup.closure_table", "permgroup.closures",
    "permgroup.quotient_iso", "galois", "towers", "dissociation", "oracle",
    "presets", "cli",
]

# dissociation functions reported one by one
DISSOCIATION_FNS = [
    "is_galtourable", "galois_tower_witness", "is_simple_ext",
    "is_galsimple", "intourability_field", "schreier_refine",
    "schreier_refine_strict", "is_composition_tower_galois",
    "galjordanholder_refine", "composition_tower_galois", "elevation_tower",
    "is_composition_tower", "composition_tower_general",
    "equivalence_general",
]


def layer_of(name: str) -> str:
    return LAYERS.get(name) or name.split(".", 1)[0]


class Recorder:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack = [-1]
        self.op = -1
        self.counts: Counter = Counter()
        self.misses: Counter = Counter()   # cache-growing calls per count name
        self.extra: Counter = Counter()    # other sums (subgroups found ...)
        self.lattices: list = []           # (G, subgroups found) to settle

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self._stack[-1])
        self.s_op.append(self.op)
        self.s_end.append(0.0)
        self._stack.append(i)
        self.s_start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.s_end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return wrapper

    def count(self, name: str, fn, cache_size=None):
        counts, misses = self.counts, self.misses
        if cache_size is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        @functools.wraps(fn)
        def cached_wrapper(*args, **kwargs):
            counts[name] += 1
            before = cache_size(args)
            try:
                return fn(*args, **kwargs)
            finally:
                if cache_size(args) != before:
                    misses[name] += 1
        return cached_wrapper

    # -- export ------------------------------------------------------------

    def settle(self) -> None:
        """Add the pending lattices to ``extra``: subgroups found, and joins
        that found a new one.  Runs outside every span.

        Every subgroup that is not cyclic is first found by exactly one
        join, so new joins = found - cyclic.
        """
        for G, found in self.lattices:
            orders = _element_orders(G.table)
            self.extra["all_subgroups.found"] += len(found)
            self.extra["all_subgroups.new"] += sum(
                1 for s in found if max(orders[i] for i in s.key) != s.order)
        self.lattices.clear()

    def to_dict(self) -> dict:
        self.settle()
        return {"names": self.names, "name": list(self.s_name),
                "parent": list(self.s_parent),
                "start": list(self.s_start), "end": list(self.s_end),
                "counts": dict(self.counts), "misses": dict(self.misses),
                "extra": dict(self.extra)}

    def merge(self, data: dict, op: int) -> None:
        """Append a child process's spans, tagged with operation ``op``."""
        base = len(self.s_name)
        ids = [self.name_id(n) for n in data["names"]]
        self.s_name.extend(ids[n] for n in data["name"])
        self.s_parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.s_op.extend(op for _ in data["name"])
        self.s_start.extend(data["start"])
        self.s_end.extend(data["end"])
        self.counts.update(data["counts"])
        self.misses.update(data["misses"])
        self.extra.update(data["extra"])

    def dump(self, path) -> None:
        """Write every span as a tab-separated line, with a header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.s_name)):
                fh.write(f"{i}\t{self.names[self.s_name[i]]}\t"
                         f"{self.s_start[i]:.9f}\t{self.s_end[i]:.9f}\t"
                         f"{self.s_parent[i]}\t{self.s_op[i]}\n")
            fh.write("# counts " + json.dumps(dict(self.counts), sort_keys=True)
                     + "\n# misses " + json.dumps(dict(self.misses), sort_keys=True)
                     + "\n")

    def self_times(self) -> tuple:
        """Total self time in seconds, and call count, per span name."""
        child = [0.0] * len(self.s_name)
        for i in range(len(self.s_name)):
            if self.s_parent[i] >= 0:
                child[self.s_parent[i]] += self.s_end[i] - self.s_start[i]
        out: Counter = Counter()
        calls: Counter = Counter()
        for i in range(len(self.s_name)):
            name = self.names[self.s_name[i]]
            out[name] += self.s_end[i] - self.s_start[i] - child[i]
            calls[name] += 1
        return out, calls


def install(rec: Recorder) -> list:
    """Wrap the measured functions; returns the list ``uninstall`` needs."""
    from galtour import (cli, dissociation, galois, oracle, permgroup,
                         presets, towers)
    undo = []

    def patch(owner, attr, wrapped):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    pg = permgroup
    for attr in ("generate", "subnormal_closure", "quotient", "are_isomorphic"):
        patch(pg, attr, rec.span(f"permgroup.{attr}", getattr(pg, attr)))
    patch(pg, "all_subgroups", _count_lattice(
        rec, rec.span("permgroup.all_subgroups", pg.all_subgroups)))
    patch(pg.AbstractGroup, "__init__",
          rec.span("permgroup.AbstractGroup.init", pg.AbstractGroup.__init__))
    patch(pg, "join", rec.count("permgroup.join", pg.join))
    patch(pg, "normal_closure",
          rec.count("permgroup.normal_closure", pg.normal_closure))
    patch(pg.Group, "generated_subgroup",
          rec.count("permgroup.generated_subgroup", pg.Group.generated_subgroup))
    patch(pg.Group, "table", _first_fill_span(rec, pg.Group.__dict__["table"]))

    gc_cls = galois.GaloisContext
    patch(gc_cls, "__init__", rec.span("galois.GaloisContext.init", gc_cls.__init__))
    patch(galois, "to_dot", rec.span("galois.to_dot", galois.to_dot))
    patch(gc_cls, "normal_in", rec.count(
        "galois.normal_in", gc_cls.normal_in,
        lambda a: len(getattr(a[0], "_normalizer_mask", ()))))
    patch(gc_cls, "quotient_group", rec.count(
        "galois.quotient_group", gc_cls.quotient_group,
        lambda a: len(getattr(a[0], "_quotient_cache", ()))))

    for attr in DISSOCIATION_FNS:
        if hasattr(dissociation, attr):
            patch(dissociation, attr,
                  rec.span(f"dissociation.{attr}", getattr(dissociation, attr)))
    for attr in ("marche_groups", "equivalence_witness"):
        patch(towers, attr, rec.span(f"towers.{attr}", getattr(towers, attr)))
    patch(oracle, "run_agreement_suite",
          rec.span("oracle.run_agreement_suite", oracle.run_agreement_suite))
    patch(oracle, "literal_is_normal", rec.count(
        "oracle.literal_is_normal", oracle.literal_is_normal,
        lambda a: len(getattr(oracle, "_literal_normal_memo", ()))))
    patch(presets, "load_instance",
          rec.span("presets.load_instance", presets.load_instance))
    patch(cli, "main", rec.span("cli.main", cli.main))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def iso_cache_info():
    """(hits, misses) of the isomorphism memo, or None if it has none."""
    from galtour import permgroup
    info = getattr(getattr(permgroup, "_iso_cached", None), "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def _first_fill_span(rec: Recorder, prop: property) -> property:
    """Time ``Group.table`` only on the call that builds the table."""
    getter = prop.fget
    timed = rec.span("permgroup.table", getter)

    def fget(self):
        if getattr(self, "_table", None) is None:
            return timed(self)
        return getter(self)
    return property(fget, doc=prop.__doc__)


def _count_lattice(rec: Recorder, fn):
    """Count the joins made while the enumeration runs, and keep what it
    found for ``Recorder.settle``, so that no counting runs inside a span."""
    @functools.wraps(fn)
    def wrapper(G, *args, **kwargs):
        joins_before = rec.counts["permgroup.join"]
        found = fn(G, *args, **kwargs)
        rec.extra["all_subgroups.joins"] += rec.counts["permgroup.join"] - joins_before
        rec.lattices.append((G, found))
        return found
    return wrapper


def _element_orders(tab) -> list:
    out = []
    for i in range(len(tab)):
        n, x = 1, i
        while x != 0:
            x = tab[x][i]
            n += 1
        out.append(n)
    return out
