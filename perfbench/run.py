#!/usr/bin/env python3
"""galtour benchmark: whole CLI verb runs and a warm library session.

Usage, from the repository root:

    python3 perfbench/run.py --workload cli_lattice --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

Workloads (see perfbench/README.md for why each was chosen):

* ``cli_lattice``      fresh ``python -m galtour.cli`` per operation, on
                       instances with dense subgroup lattices;
* ``cli_towers``       the same with the tower verbs, on large groups with
                       sparse lattices;
* ``session_queries``  one long-lived process: contexts built in set-up,
                       then a stream of library calls against them.

Each is a closed loop with one caller and at most one child process at a
time.  A session run measures for ``--seconds``; a CLI run does a fixed
number of whole rounds set by ``--seconds`` (ROUNDS_PER_S), so that every
run holds the same instance and verb mix.  The seed draws the operations;
the program receives only instance selectors, field names and tower JSON.
Every answer is compared with ``perfbench/reference/<workload>.json``; a
non-zero or unexpected exit, an exception, a timeout or a differing
output counts as failed.

Every time is scaled to a fixed machine speed by the factor ``calib``
measures next to it (perfbench/README.md says why); the report lines
give the measured figures as well.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans recorded around the calls into each
module, from this directory's code).  The last line of output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

import calib  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("cli_lattice", "cli_towers", "session_queries")
SETUP_MIN_REPEATS = 3    # set-ups per run; setup_s is their median
SETUP_MIN_S = 2.0        # cheap set-ups repeat until they have taken this long
CHILD_TIMEOUT_S = 60
CAL_EVERY_S = 0.2        # session ops between two speed calibrations
CLI_ELASTICITY = 0.8     # share of the speed factor a CLI child's time follows (calib)
# CLI rounds per second of --seconds.  At --seconds 10 a run does 5 rounds
# (one whole Latin square, 30 ops) of cli_lattice and 10 rounds (two whole
# squares, 50 ops) of cli_towers, so every run holds each (instance, verb)
# pair equally often.  They take 26-53 s on the reference machine
# (perfbench/README.md); a traced run does half as many.
ROUNDS_PER_S = {"cli_lattice": 5 / 10, "cli_towers": 10 / 10}
TAIL_CAP = 99            # beyond p99, a few ms-long pauses per run set the session tail
HD_POINTS = 20000        # integration points of the Harrell-Davis weights
TRACE_BLOCK = 256        # session ops per traced or untraced block
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "peak_rss_mb": "MB"}
EXPECTED_DOMINANT = {"cli_lattice": "permgroup.lattice",
                     "cli_towers": "permgroup.quotient_iso"}


class BenchError(Exception):
    """The benchmark cannot run here (missing program or reference)."""


def set_up(fn, once: bool) -> tuple:
    """Call ``fn``, which returns (scaled seconds, measured seconds,
    state), once or else at least SETUP_MIN_REPEATS times and for
    SETUP_MIN_S; returns the lists of scaled and of measured set-up times
    and the last state."""
    setups, raw = [], []
    while not setups or not once and (len(setups) < SETUP_MIN_REPEATS
                                      or sum(raw) < SETUP_MIN_S):
        scaled, dt, state = fn()
        setups.append(scaled)
        raw.append(dt)
    return setups, raw, state


def load_reference(workload: str) -> dict:
    path = HERE / "reference" / f"{workload}.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise BenchError(f"cannot read reference {path}: {exc}") from exc


def child_env() -> dict:
    """Environment of CLI children: the package from ``src/``, UTF-8
    output, and a byte-code cache, as an installed package has."""
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten of ``n`` samples beyond it,
    capped at TAIL_CAP; the median when ``n`` is too small for one above
    it."""
    return min(TAIL_CAP, max(50.0, 100 * (1 - 10 / n)))


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of quantile ``q`` (0..1) of ascending values:
    a Beta((n+1)q, (n+1)(1-q))-weighted mean of every order statistic.
    CLI op costs form steps, one per instance and verb; a single order
    statistic at or next to a step jumps with the op mix and the
    machine's noise, and the weighted mean much less."""
    n = len(values)
    if n == 1:
        return values[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    mean = a / (a + b)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    lo, hi = max(0.0, mean - 12 * sd), min(1.0, mean + 12 * sd)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = [0.0] * n
    for k in range(HD_POINTS):
        t = lo + (hi - lo) * (k + 0.5) / HD_POINTS
        weights[min(n - 1, int(t * n))] += math.exp(
            (a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
    return sum(w * v for w, v in zip(weights, values)) / sum(weights)


class Tally:
    """Latencies and failures of one measured loop.  Times are scaled to
    the reference speed (``calib``) by the factor measured next to the
    op; ``raw_busy`` is the measured time."""

    def __init__(self):
        self.latencies = array("d")  # scaled seconds, successful ops only
        self.busy = 0.0             # scaled seconds inside all attempted ops
        self.raw_busy = 0.0         # measured seconds inside all attempted ops
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def add(self, seconds: float, factor: float, ok: bool, what) -> None:
        self.attempted += 1
        self.busy += seconds * factor
        self.raw_busy += seconds
        if ok:
            self.latencies.append(seconds * factor)
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = what

    def mark_failed(self, count: int, what) -> None:
        """Count ``count`` already attempted ops as failed after all."""
        self.failed += count
        if self.first_failure is None:
            self.first_failure = what

    def p50_ms(self) -> float:
        return quantile(sorted(self.latencies), 0.5) * 1e3 if self.latencies else 0.0


# ---------------------------------------------------------------------------
# CLI workloads


def cli_rounds(ref: dict, seed: int):
    """Endless rounds of CLI ops; a round runs every instance once.

    Instance i takes verb (i + r) mod #verbs in round r, a fixed Latin
    square: every round holds each instance once, and each square of
    #verbs rounds holds every (instance, verb) pair once.  The seed
    orders the rounds of each square and the ops within a round, and
    deals each pair's ops (its fields or towers) from a shuffled deck,
    so a pair repeats an op only after it has run all of them.

    In ``cli_towers`` every other deal of a pair is its anchor, the op on
    the towers ``["Q", "N"]`` (whose marche is the whole group, the
    pair's dearest op by a factor of 2-3), and the deals in between come
    from the deck of its other ops.  Every run then holds the same number
    of anchors; drawn at random, they moved a run's median by a quarter.
    """
    rng = random.Random(f"{ref['workload']}:{seed}")
    pools: dict = {}
    for op in ref["ops"]:
        pools.setdefault((op["instance"], op["verb"]), []).append(op)
    anchors: dict = {}
    if ref["workload"] == "cli_towers":
        for pair, pool in pools.items():
            anchors[pair] = next(op for op in pool if is_anchor(op))
            pool.remove(anchors[pair])
    dealt = dict.fromkeys(pools, 0)
    decks: dict = {pair: [] for pair in pools}
    verbs = sorted({op["verb"] for op in ref["ops"]})
    instances = ref["instances"]

    def deal(pair):
        dealt[pair] += 1
        if pair in anchors and dealt[pair] % 2:
            return anchors[pair]
        if not decks[pair]:
            decks[pair] = rng.sample(pools[pair], len(pools[pair]))
        return decks[pair].pop()

    while True:
        for r in rng.sample(range(len(verbs)), len(verbs)):
            yield [deal((instances[i], verbs[(i + r) % len(verbs)]))
                   for i in rng.sample(range(len(instances)), len(instances))]


def is_anchor(op: dict) -> bool:
    """Every tower of the op is ``["Q", "N"]``."""
    argv = op["argv"]
    return all(argv[i + 1] == '["Q", "N"]'
               for i, word in enumerate(argv) if word == "--tower")


def run_child(cmd: list, op: dict, env: dict) -> tuple:
    """Run one CLI process; (seconds, ok)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, False
    dt = time.perf_counter() - t0
    ok = (proc.returncode == op["exit"]
          and hashlib.sha256(proc.stdout).hexdigest() == op["stdout_sha256"])
    return dt, ok


def cli_setup(workload: str, env: dict) -> tuple:
    """Read the reference and start the interpreter with the package
    imported once (this also leaves the byte-code cache warm)."""
    factor = calib.speed_factor(CLI_ELASTICITY)
    t0 = time.perf_counter()
    ref = load_reference(workload)
    proc = subprocess.run([sys.executable, "-c", "import galtour.cli"], cwd=ROOT,
                          env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("cannot import galtour.cli: "
                         + proc.stderr.decode(errors="replace").strip())
    dt = time.perf_counter() - t0
    return dt * factor, dt, ref


def run_cli(workload: str, seed: int, seconds: float, trace: bool,
            short: bool) -> dict:
    """A number of whole rounds set by ``seconds``; one if short.

    The number of rounds, not a deadline, ends the run, so every run and
    every version of the program does the same work; the report gives
    the loop's length.
    """
    env = child_env()
    setups, raw_setups, ref = set_up(lambda: cli_setup(workload, env), once=trace)
    rounds = cli_rounds(ref, seed)
    plain = Tally()
    factors = array("d")   # measured before each op and after the last
    out = {"setups": setups, "raw_setups": raw_setups, "tally": plain,
           "factors": factors,
           "rounds": 1 if short else max(1, round(
               seconds * ROUNDS_PER_S[workload] / (2 if trace else 1)))}
    if trace:
        traced = Tally()
        rec = spans.Recorder()
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{workload}-{os.getpid()}.json"
        startup, walls, iso = [], [], [0, 0]
        out.update(traced=traced, rec=rec, startup=startup, walls=walls, iso=iso)

    def timed(cmd, op, tally):
        """Run one child; its time is scaled by the mean of the speed
        factors measured just before and just after it."""
        dt, ok = run_child(cmd, op, env)
        factors.append(calib.speed_factor(CLI_ELASTICITY))
        tally.add(dt, (factors[-2] + factors[-1]) / 2, ok, op["argv"])
        return dt, ok

    start = time.perf_counter()
    factors.append(calib.speed_factor(CLI_ELASTICITY))
    for _ in range(out["rounds"]):
        for op in next(rounds):
            timed([sys.executable, "-m", "galtour.cli", *op["argv"]], op, plain)
            if not trace:
                continue
            opid = traced.attempted
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(span_file),
                   str(time.time_ns()), *op["argv"]]
            dt, ok = timed(cmd, op, traced)
            walls.append(dt)
            try:
                data = json.loads(span_file.read_text(encoding="utf-8"))
                span_file.unlink()
            except (OSError, ValueError):
                continue    # the child failed before writing; counted above
            rec.merge(data, opid)
            startup.append(data["startup_ms"])
            if data["iso_cache"]:
                iso[0] += data["iso_cache"][0]
                iso[1] += data["iso_cache"][1]
    out["elapsed"] = time.perf_counter() - start
    out["peak_rss_mb"] = peak_rss_mb()
    return out


# ---------------------------------------------------------------------------
# session workload


def session_setup(ref: dict) -> tuple:
    """Build every context from scratch and resolve the operation pool.
    Each context build is scaled by its own speed factor, as is the pool
    resolution."""
    from galtour import presets, towers
    wl.clear_preset_caches(presets)
    gc.collect()
    scaled = raw = 0.0
    ctxs = {}
    for inst in ref["instances"]:
        factor = calib.speed_factor()
        t0 = time.perf_counter()
        ctxs[inst] = presets.load_instance(inst)
        dt = time.perf_counter() - t0
        scaled += dt * factor
        raw += dt
    factor = calib.speed_factor()
    t0 = time.perf_counter()
    by_name = {inst: {ctx.display_name(f): f for f in ctx.all_fields()}
               for inst, ctx in ctxs.items()}

    def field(inst, name):
        return by_name[inst].get(name) or ctxs[inst].field_by_name(name)

    ops = []
    for op in ref["ops"]:
        inst = op["instance"]
        args = [towers.make_tower(ctxs[inst], [field(inst, n) for n in a])
                if isinstance(a, list) else field(inst, a) for a in op["args"]]
        ops.append((ctxs[inst], op["kind"], args, op["answer"]))
    dt = time.perf_counter() - t0
    return scaled + dt * factor, raw + dt, ops


def session_stream(n: int, seed: int):
    """Endless seeded permutations of the pool, one after another."""
    rng = random.Random(f"session_queries:{seed}")
    order = list(range(n))
    while True:
        rng.shuffle(order)
        yield from order


def run_session(seed: int, seconds: float, trace: bool, short: bool) -> dict:
    sys.path.insert(0, str(SRC))
    try:
        from galtour import dissociation
    except ImportError as exc:
        raise BenchError(f"cannot import galtour from {SRC}: {exc}") from exc
    ref = load_reference("session_queries")
    setups, raw_setups, ops = set_up(lambda: session_setup(ref), once=trace or short)
    plain, traced = Tally(), Tally()
    seen: dict = {}
    factors = array("d")
    out = {"setups": setups, "raw_setups": raw_setups, "tally": plain,
           "factors": factors}
    if trace:
        rec = spans.Recorder()
        walls, iso = [], [0, 0]
        out.update(traced=traced, rec=rec, startup=[], walls=walls, iso=iso)
    undo = None
    tally = plain
    start = time.perf_counter()
    deadline = start + seconds
    next_cal = start
    for k, i in enumerate(session_stream(len(ops), seed)):
        now = time.perf_counter()
        if now >= deadline:
            break
        if now >= next_cal:
            factor = calib.speed_factor()
            factors.append(factor)
            next_cal = time.perf_counter() + CAL_EVERY_S
        if trace and k % TRACE_BLOCK == 0:
            if undo is None:
                iso_before = spans.iso_cache_info()
                undo = spans.install(rec)
                tally = traced
            else:
                spans.uninstall(undo)
                undo = None
                _add_iso(iso, iso_before)
                tally = plain
        ctx, kind, args, answer = ops[i]
        if tally is traced:
            rec.op = traced.attempted
        t0 = time.perf_counter()
        try:
            result = wl.call_session_op(dissociation, ctx, kind, args)
            dt = time.perf_counter() - t0
            ok = wl.render_answer(kind, result) == answer
            what = ref["ops"][i]
        except Exception as exc:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            ok = False
            what = (ref["ops"][i], repr(exc))
        tally.add(dt, factor, ok, what)
        if tally is traced:
            walls.append(dt)
        seen[i] = seen.get(i, 0) + 1
    if undo is not None:
        spans.uninstall(undo)
        _add_iso(iso, iso_before)
    out["elapsed"] = time.perf_counter() - start
    out["peak_rss_mb"] = peak_rss_mb()
    # the brute-force cross-check runs outside the timed section
    for i, times in seen.items():
        if not oracle_agrees(*ops[i]):
            plain.mark_failed(times, ("oracle disagrees", ref["ops"][i]))
    return out


def _add_iso(iso: list, before) -> None:
    after = spans.iso_cache_info()
    if before and after:
        iso[0] += after[0] - before[0]
        iso[1] += after[1] - before[1]


def oracle_agrees(ctx, kind: str, args: list, answer: str) -> bool:
    """The brute-force oracle's verdict matches the reference answer."""
    from galtour import oracle
    try:
        if kind == "is_galtourable":
            return (answer == "yes") == oracle.bf_galtourable(ctx, *args)
        if kind == "intourability_field":
            M, _ = oracle.bf_intourability(ctx, *args)
            return answer.startswith(f"M={M.name} ")
    except Exception:  # an oracle that cannot decide does not agree
        return False
    return True


# ---------------------------------------------------------------------------
# metrics


def end_to_end(res: dict) -> tuple:
    t = res["tally"]
    lat = sorted(t.latencies)
    n = len(lat)
    tail_p = tail_percentile(n) if n else 50.0
    metrics = {
        "setup_s": statistics.median(res["setups"]),
        "ops_per_s": n / t.busy if t.busy else 0.0,
        "op_p50_ms": quantile(lat, 0.5) * 1e3 if lat else 0.0,
        "op_tail_ms": quantile(lat, tail_p / 100) * 1e3 if lat else 0.0,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(res['setups'])} set-ups "
                   f"(measured: {statistics.median(res['raw_setups']):.4g} s)",
        "ops_per_s": f"{n} ops completed in {t.busy:.3f} s inside ops "
                     f"(measured: {t.raw_busy:.3f} s; {res['elapsed']:.1f} s loop"
                     + (f", rounds: {res['rounds']})" if "rounds" in res else ")")
                     + f"; speed factor median {statistics.median(res['factors']):.4f} "
                       f"of {len(res['factors'])}",
        "op_p50_ms": f"p50 of n={n}",
        "op_tail_ms": f"p{tail_p:.4g} of n={n}",
        "peak_rss_mb": "largest of this process and its children, "
                       "at the end of the measured loop",
    }
    return metrics, notes


def per_layer(res: dict) -> tuple:
    rec, traced, plain = res["rec"], res["traced"], res["tally"]
    rec.settle()
    n = max(1, traced.attempted)
    self_s, calls = rec.self_times()
    wall = sum(res["walls"])

    def ms(name):
        return self_s.get(name, 0.0) * 1e3 / n

    def per_op(count):
        return count / n

    def hit_ratio(name):
        tries = rec.counts.get(name, 0)
        return 1 - rec.misses.get(name, 0) / tries if tries else 0.0

    ex = rec.extra
    iso_hits, iso_misses = res["iso"]
    m = {
        "permgroup.all_subgroups.self_ms": ms("permgroup.all_subgroups"),
        "permgroup.all_subgroups.calls": per_op(calls.get("permgroup.all_subgroups", 0)),
        "permgroup.all_subgroups.subgroups":
            ex["all_subgroups.found"] / calls["permgroup.all_subgroups"]
            if calls.get("permgroup.all_subgroups") else 0.0,
        "permgroup.join.calls": per_op(rec.counts.get("permgroup.join", 0)),
        "permgroup.join.new_ratio":
            ex["all_subgroups.new"] / ex["all_subgroups.joins"]
            if ex.get("all_subgroups.joins") else 0.0,
        "permgroup.generate.self_ms": ms("permgroup.generate"),
        "permgroup.table.self_ms": ms("permgroup.table"),
        "permgroup.generated_subgroup.calls":
            per_op(rec.counts.get("permgroup.generated_subgroup", 0)),
        "permgroup.normal_closure.calls":
            per_op(rec.counts.get("permgroup.normal_closure", 0)),
        "permgroup.subnormal_closure.self_ms": ms("permgroup.subnormal_closure"),
        "permgroup.quotient.calls": per_op(calls.get("permgroup.quotient", 0)),
        "permgroup.quotient.self_ms": ms("permgroup.quotient"),
        "permgroup.AbstractGroup.init.calls":
            per_op(calls.get("permgroup.AbstractGroup.init", 0)),
        "permgroup.AbstractGroup.init.self_ms": ms("permgroup.AbstractGroup.init"),
        "permgroup.are_isomorphic.self_ms": ms("permgroup.are_isomorphic"),
        "permgroup.isomorphism.hit_ratio":
            iso_hits / (iso_hits + iso_misses) if iso_hits + iso_misses else 0.0,
        "galois.GaloisContext.init.self_ms": ms("galois.GaloisContext.init"),
        "galois.normal_in.calls": per_op(rec.counts.get("galois.normal_in", 0)),
        "galois.normalizer.hit_ratio": hit_ratio("galois.normal_in"),
        "galois.quotient_group.hit_ratio": hit_ratio("galois.quotient_group"),
        "galois.to_dot.self_ms": ms("galois.to_dot"),
    }
    for fn in spans.DISSOCIATION_FNS:
        m[f"dissociation.{fn}.self_ms"] = ms(f"dissociation.{fn}")
    m.update({
        "towers.marche_groups.self_ms": ms("towers.marche_groups"),
        "towers.equivalence_witness.self_ms": ms("towers.equivalence_witness"),
        "oracle.run_agreement_suite.self_ms": ms("oracle.run_agreement_suite"),
        "oracle.literal_is_normal.hit_ratio": hit_ratio("oracle.literal_is_normal"),
        "presets.load_instance.self_ms": ms("presets.load_instance"),
        "cli.main.self_ms": ms("cli.main"),
        "cli.process.startup_ms":
            statistics.median(res["startup"]) if res["startup"] else 0.0,
        "trace.overhead_ratio":
            traced.p50_ms() / plain.p50_ms() if plain.p50_ms() else 0.0,
        "trace.ops": float(traced.attempted),
    })
    by_layer: dict = {}
    for name, s in self_s.items():
        layer = spans.layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + s
    by_layer["untraced"] = wall - sum(by_layer.values())
    for layer in spans.SHARE_LAYERS + ["untraced"]:
        m[f"share.{layer}"] = by_layer.get(layer, 0.0) / wall if wall else 0.0
    units = {k: ("ms/op" if k.endswith("self_ms") else
                 "ms" if k.endswith("_ms") else
                 "calls/op" if k.endswith(".calls") else
                 "count" if k.endswith((".subgroups", ".ops")) else "ratio")
             for k in m}
    return m, units, wall


def dominance(workload: str, m: dict) -> list:
    shares = {k[len("share."):]: v for k, v in m.items() if k.startswith("share.")}
    top = max(shares, key=shares.get)
    lines = [f"  largest self-time share: {top} ({shares[top]:.3f} of traced op wall time)"]
    expected = EXPECTED_DOMINANT.get(workload)
    if expected:
        verdict = "ok" if top == expected else "NOT MET"
        lines.append(f"  intended layer {expected}: share {shares[expected]:.3f}: {verdict}")
    else:
        calls = m["permgroup.all_subgroups.calls"]
        verdict = "ok" if calls == 0 else "NOT MET"
        lines.append(f"  lattice enumeration in timed ops: {calls:g} calls/op: {verdict}")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 short: bool = False) -> tuple:
    """Run one workload; returns (report lines, result object)."""
    if workload == "session_queries":
        res = run_session(seed, seconds, trace, short)
    else:
        res = run_cli(workload, seed, seconds, trace, short)
    tallies = [res["tally"]] + ([res["traced"]] if trace else [])
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    lines = [f"workload {workload}  seed {seed}  seconds {seconds:g}  "
             f"trace {int(trace)}"]
    if trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{workload}.tsv"
        res["rec"].dump(trace_path)
        metrics, units, wall = per_layer(res)
        lines.append(f"  spans written to {trace_path.relative_to(ROOT)}")
        lines.append(f"  traced ops {res['traced'].attempted} "
                     f"({wall:.2f} s), untraced ops {res['tally'].attempted}")
        for k, v in metrics.items():
            lines.append(f"  {k:<44} {v:14.6f} {units[k]}")
        lines += dominance(workload, metrics)
    else:
        metrics, notes = end_to_end(res)
        units = E2E_UNITS
        for k, v in metrics.items():
            lines.append(f"  {k:<14} {v:14.6f} {units[k]:<4} {notes[k]}")
    lines.append(f"  failed_ratio   {failed / attempted if attempted else 0.0:14.6f} "
                 f"ratio ({failed} of {attempted} attempted)")
    for t in tallies:
        if t.first_failure is not None:
            lines.append(f"  first failure: {t.first_failure!r}")
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return lines, result


# ---------------------------------------------------------------------------
# self-check


def selfcheck() -> int:
    """Short runs of every workload, traced and untraced, plus draw checks."""
    problems = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {0: {m["name"] for m in declared["end_to_end"]},
            1: {m["name"] for m in declared["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            lines, result = run_workload(workload, 1, 1.0, bool(trace), short=True)
            print("\n".join(lines), flush=True)
            got = result["metrics"]
            if set(got) != want[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ want[trace])}")
            if not all(v.get("unit") for v in got.values()):
                problems.append(f"{workload} trace {trace}: a metric has no unit")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace {trace}: "
                                f"{result['failed']} of {result['attempted']} failed")
    for workload in ("cli_lattice", "cli_towers"):
        ref = load_reference(workload)
        ra, rb = ([op for _, rnd in zip(range(5), cli_rounds(ref, s)) for op in rnd]
                  for s in (1, 2))
        if [op["argv"] for op in ra] == [op["argv"] for op in rb]:
            problems.append(f"{workload}: seeds 1 and 2 draw the same operations")
        if sorted(op["instance"] for op in ra) != sorted(op["instance"] for op in rb):
            problems.append(f"{workload}: seeds 1 and 2 draw different instance mixes")
    pool = len(load_reference("session_queries")["ops"])
    sa, sb = (session_stream(pool, s) for s in (1, 2))
    if [next(sa) for _ in range(100)] == [next(sb) for _ in range(100)]:
        problems.append("session_queries: seeds 1 and 2 draw the same operations")
    for p in problems:
        print("SELFCHECK FAILED:", p)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="short runs of every workload; checks the report itself")
    args = ap.parse_args()
    if not (SRC / "galtour" / "cli.py").is_file():
        print(f"error: no galtour sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            ap.error("--workload is required")
        lines, result = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
