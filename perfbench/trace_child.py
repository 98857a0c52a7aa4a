"""Traced CLI child: ``trace_child.py SPANS_PATH SPAWN_NS CLI-ARGS...``.

Installs the span wrappers, runs ``galtour.cli.main`` on CLI-ARGS and,
when it returns, writes its spans to SPANS_PATH as JSON.  SPAWN_NS is
the parent's ``time.time_ns()`` just before it started this process;
the gap to entering ``cli.main`` is reported as the process start-up.
"""

import json
import sys
import time

import spans


def main() -> int:
    path, spawn_ns = sys.argv[1], int(sys.argv[2])
    from galtour import cli
    rec = spans.Recorder()
    undo = spans.install(rec)
    entered_ns = time.time_ns()
    try:
        return cli.main(sys.argv[3:])
    finally:
        sys.stdout.flush()
        spans.uninstall(undo)
        data = rec.to_dict()
        data["startup_ms"] = (entered_ns - spawn_ns) / 1e6
        data["iso_cache"] = spans.iso_cache_info()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


if __name__ == "__main__":
    sys.exit(main())
