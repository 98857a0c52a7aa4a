"""The benchmark's tracing hooks still find every name they wrap, and the
CLI still gives the benchmark's reference answers."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import pathlib

import pytest

import galtour.galois as gal
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
        assert gal.is_galois(ctx, ctx.top_closure, ctx.base)
        assert rec.counts["galois.normal_in"] == 1
    finally:
        spans.uninstall(undo)
    assert all(owner.__dict__[attr] is original for owner, attr, original in undo)


SLOW_ORACLE = ("radical:a=2,n=16", "radical:a=2,n=20")


def _one_reference_op_per_pair():
    # the first op of each (instance, verb) pair of the two CLI workloads;
    # `oracle` on radical n=16 and n=20, the two largest lattices (196 and
    # 332 subgroups), is left out: in process on a 2-vCPU machine each takes
    # 0.3-0.6 s, the other oracle ops 0.1-0.2 s
    ops = {}
    for workload in ("cli_towers", "cli_lattice"):
        ref = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())
        for op in ref["ops"]:
            if op["verb"] != "oracle" or op["instance"] not in SLOW_ORACLE:
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
