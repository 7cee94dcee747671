"""Run one specreason CLI command with a span around every call into the package.

Usage: tracer.py SPANS_JSON TRACE_ID -- <specreason arguments>

Every public function of the package modules, plus ``Graph.__init__``
and ``Graph.adjacency``, is wrapped from here, so the program's source is
untouched. A span records name, start, end and parent; all spans of one
command share TRACE_ID. Spans stay in memory and are written to
SPANS_JSON when the command returns. Some spans also record a count read
off the call's arguments or result (iterations, matvecs, facts, ...).
The exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("graph", "filters", "rules", "training", "analysis", "taskgen", "cli")


def _counts(name: str, args: tuple, result) -> dict:
    if name == "graph.estimate_lambda_max":
        return {"iterations": result.iterations, "fallbacks": int(not result.converged)}
    if name == "filters.cheb_apply":
        return {"matvecs": args[0].order}
    if name == "rules.forward_chain":
        return {"closure_atoms": len(result)}
    if name == "rules.project_predicates":
        return {"facts": int(result.hard.sum())}
    if name == "training.train":
        return {"epochs": len(result.history)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, counts]
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self.stack[-1] if self.stack else None, name,
                    time.perf_counter(), None, {}]
            self.spans.append(span)
            self.stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self.stack.pop()
            span[5] = _counts(name, args, result)
            return result
        return traced

    def install(self, package: str = "specreason") -> None:
        """Wrap public functions everywhere a module namespace holds them."""
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__ and attr != "main"):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        graph_cls = importlib.import_module(f"{package}.graph").Graph
        graph_cls.__init__ = self.wrap("graph.Graph.init", graph_cls.__init__)
        graph_cls.adjacency = self.wrap("graph.adjacency", graph_cls.adjacency)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_JSON TRACE_ID -- <specreason arguments>", file=sys.stderr)
        return 2
    spans_path, trace_id, cli_args = argv[0], argv[1], argv[3:]
    start = time.perf_counter()
    cli = importlib.import_module("specreason.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap("cli.main", cli.main)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"trace_id": trace_id, "import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
