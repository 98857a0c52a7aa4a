"""The benchmark's tracing hooks still find every name they wrap, and the
CLI still gives the benchmark's reference answers."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import galtour.dissociation as dis
import galtour.towers as tw
from galtour import cli, presets
from conftest import get_ctx

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load(PERFBENCH / "workloads.py")


def test_perfbench_spans_install_and_uninstall():
    spans = _load(SPANS)
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        ctx = get_ctx("klein")
        assert ctx.normal_in(ctx.group.trivial_subgroup(), ctx.group.full_subgroup())
        assert rec.counts["galois.normal_in"] == 1
    finally:
        spans.uninstall(undo)
    assert all(owner.__dict__[attr] is original for owner, attr, original in undo)


def _one_reference_op_per_pair():
    # the first op of each (instance, verb) pair of the two CLI workloads
    ops = {}
    for workload in ("cli_towers", "cli_lattice"):
        ref = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())
        for op in ref["ops"]:
            ops.setdefault((op["instance"], op["verb"]), op)
    return list(ops.values())


@pytest.mark.parametrize("op", _one_reference_op_per_pair(),
                         ids=lambda op: f"{op['instance']}-{op['verb']}")
def test_cli_matches_benchmark_reference(op, capsys):
    # each op starts from a cold context, as a fresh CLI process does
    WORKLOADS.clear_preset_caches(presets)
    code = cli.main(op["argv"])
    out = capsys.readouterr().out.encode("utf-8")
    assert (code, hashlib.sha256(out).hexdigest()) == (op["exit"], op["stdout_sha256"])


def _session_replay():
    # the session_queries reference and a replay of its ops on the loaded
    # contexts, names resolved as the benchmark's set-up does: display names
    # first, then field_by_name
    ref = json.loads((PERFBENCH / "reference" / "session_queries.json").read_text())
    ctxs = {inst: presets.load_instance(inst) for inst in ref["instances"]}
    by_name = {inst: {ctx.display_name(f): f for f in ctx.all_fields()}
               for inst, ctx in ctxs.items()}

    def field(inst, name):
        return by_name[inst].get(name) or ctxs[inst].field_by_name(name)

    def wrong_answers(ops):
        wrong = []
        for op in ops:
            inst, kind = op["instance"], op["kind"]
            args = [tw.make_tower(ctxs[inst], [field(inst, n) for n in a])
                    if isinstance(a, list) else field(inst, a) for a in op["args"]]
            got = WORKLOADS.render_answer(
                kind, WORKLOADS.call_session_op(dis, ctxs[inst], kind, args))
            if got != op["answer"]:
                wrong.append((inst, kind, op["args"], got))
        return wrong
    return ref["ops"], wrong_answers


def test_session_answers_match_benchmark_reference():
    ops, wrong_answers = _session_replay()
    assert ops and wrong_answers(ops) == []


def test_session_answers_match_twice_in_one_process():
    # the second replay on the same contexts is served from their memos of
    # M(L/K), which the first filled from empty and the second leaves as is
    WORKLOADS.clear_preset_caches(presets)
    ops, wrong_answers = _session_replay()
    ctxs = [presets.load_instance(inst) for inst in sorted({op["instance"] for op in ops})]
    assert all(ctx._report_cache == {} for ctx in ctxs)
    assert ops and wrong_answers(ops) == []
    memos = [dict(ctx._report_cache) for ctx in ctxs]
    assert all(memos)
    assert wrong_answers(ops) == []
    assert [ctx._report_cache for ctx in ctxs] == memos


def test_shared_contexts_answer_every_thread_alike():
    # four threads, started together, replay the session ops in the same
    # order on freshly built contexts they share, so they race for the same
    # lazy quotient, table and generator fills; a short switch interval
    # interleaves them finely, and a second round on new contexts races again
    start, interval = threading.Barrier(4), sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(2):
            WORKLOADS.clear_preset_caches(presets)
            ops, wrong_answers = _session_replay()

            def replay(_):
                start.wait()
                return wrong_answers(ops)
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert ops and list(pool.map(replay, range(4))) == [[]] * 4
    finally:
        sys.setswitchinterval(interval)
