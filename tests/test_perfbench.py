"""The benchmark's tracing hooks still find every name they wrap."""

from __future__ import annotations

import importlib.util
import pathlib

import galtour.galois as gal
from conftest import get_ctx

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_perfbench_spans_install_and_uninstall():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        ctx = get_ctx("klein")
        assert gal.is_galois(ctx, ctx.top_closure, ctx.base)
        assert rec.counts["galois.normal_in"] == 1
    finally:
        spans.uninstall(undo)
    assert all(owner.__dict__[attr] is original for owner, attr, original in undo)
