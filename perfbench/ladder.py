"""One-shot context-construction ladder; not a timed workload.

Usage, from the repository root:

    python3 perfbench/ladder.py            # prints a table, writes perfbench/ladder.json

Builds each context once, from scratch, and records the construction
time and the share of it spent in ``permgroup.all_subgroups``.  The
results are compared with the baseline in ROADMAP.md; every disagreement
beyond ``TOLERANCE`` is flagged in the output, not dropped.  Radical
n = 24 and n = 30 stay out of the timed workloads because one operation
on them takes tens of seconds.
"""

import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from galtour import permgroup, presets  # noqa: E402

LADDER = [f"radical:a=2,n={n}" for n in (6, 9, 12, 16, 20, 24, 30)] + [
    "selmer-serre:n=5", "cyclo-radical:n=2,d=3,l=3", "cyclo-radical:n=1,d=9,l=2",
]
# ROADMAP.md "Recent": context construction measured at the re-anchor
BASELINE_S = {"selmer-serre:n=5": 0.61, "radical:a=2,n=16": 0.77,
              "radical:a=2,n=20": 3.2, "radical:a=2,n=30": 10.3,
              "radical:a=2,n=24": 34.8}
TOLERANCE = 0.25


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def build(selector: str) -> dict:
    wl.clear_preset_caches(presets)
    rec = spans.Recorder()
    original = permgroup.all_subgroups
    permgroup.all_subgroups = rec.span("permgroup.all_subgroups", original)
    try:
        t0 = time.perf_counter()
        ctx = presets.load_instance(selector)
        total = time.perf_counter() - t0
    finally:
        permgroup.all_subgroups = original
    lattice = rec.self_times()[0]["permgroup.all_subgroups"]
    row = {"instance": selector, "order": ctx.group.order,
           "subgroups": len(ctx.subgroups), "build_s": total,
           "all_subgroups_s": lattice,
           "all_subgroups_share": lattice / total}
    base = BASELINE_S.get(selector)
    if base is not None:
        row["baseline_s"] = base
        row["vs_baseline"] = total / base
        row["agrees"] = abs(total / base - 1) <= TOLERANCE
    return row


def main() -> int:
    rows = []
    print(f"{'instance':30} {'|G|':>5} {'subgr':>6} {'build_s':>9} "
          f"{'lattice':>8} {'baseline':>9}  note")
    for selector in LADDER:
        r = build(selector)
        rows.append(r)
        note = ""
        if "baseline_s" in r:
            note = (f"x{r['vs_baseline']:.2f} of baseline"
                    + ("" if r["agrees"] else "  DISAGREES"))
        print(f"{selector:30} {r['order']:5d} {r['subgroups']:6d} "
              f"{r['build_s']:9.3f} {r['all_subgroups_share']:8.1%} "
              f"{r.get('baseline_s', float('nan')):9.2f}  {note}", flush=True)
    out = {"cpu": cpu_model(), "python": platform.python_version(),
           "tolerance": TOLERANCE, "rows": rows}
    (HERE / "ladder.json").write_text(json.dumps(out, indent=1) + "\n",
                                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
