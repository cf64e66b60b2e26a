"""Start ``repro serve`` with every benchmark layer wrapped in a span recorder.

Usage: ``python3 perfbench/launcher.py SPANS.json serve --store DIR --port 0``

Everything after the spans path is passed to ``repro.cli.main``.  Spans
stay in memory as ``[id, parent, layer, start, end, thread, note]`` lists
(``time.monotonic`` seconds; the thread is the request key, because the
stdlib server handles one keep-alive connection per thread) and are
written to SPANS.json when the process receives SIGTERM.  No code under
``src/`` changes: the wrappers replace the attributes callers look up.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import LAYERS  # noqa: E402


def _dispatch_path(args, result):
    # PlannerService.dispatch(self, method, path, body)
    return args[2].partition("?")[0].rstrip("/")


def _store_hit(args, result):
    return result is not None


def _engine_tasks(args, result):
    return args[0].num_tasks


#: Extra fact each span records, keyed by layer name.
NOTES = {
    "serve.dispatch": _dispatch_path,
    "store.get": _store_hit,
    "engine.run": _engine_tasks,
}


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn):
        note = NOTES.get(name)
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                spans.append([
                    span_id, parent, name, start, end, threading.get_ident(),
                    note(args, result) if note else None,
                ])

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(list(self.spans), handle)


def install(recorder: SpanRecorder) -> None:
    """Replace every layer's target with a recording wrapper."""
    for layer in LAYERS:
        if layer.target is None:
            continue
        module = importlib.import_module(layer.module)
        owner_name, _, attr = layer.target.rpartition(".")
        if owner_name == "REGISTRY":
            owners = {type(module.REGISTRY.get(name)) for name in module.REGISTRY.names()}
        elif owner_name:
            owners = {getattr(module, owner_name)}
        else:
            owners = {module}
        for owner in owners:
            setattr(owner, attr, recorder.wrap(layer.name, getattr(owner, attr)))


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)

    def stop(signum, frame):
        recorder.dump(spans_path)
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    from repro.cli import main as repro_main

    return repro_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
