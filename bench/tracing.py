"""Spans recorded from outside flowsra, and the per-layer figures derived
from them.

Calls into the benchmark's own gateway and transport objects are wrapped
directly (``begin``/``end``). Every other span comes from a profile hook
(``sys.setprofile`` and ``threading.setprofile``) keyed on the code objects
of flowsra's public functions, so a span lands wherever a later change
moves the call. A function that no longer exists is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """One traced function: the span name, where to find the function, and
    optional hooks that read attributes from its arguments or result."""

    name: str
    module: str
    qualname: str
    on_call: Callable | None = None      # frame -> attrs dict
    on_return: Callable | None = None    # (result, attrs) -> None


def _upgrade_attrs(frame) -> dict:
    return {"nodes": len(frame.f_locals["graph"].nodes),
            "backend": type(frame.f_locals["backend"]).__name__}


def _emit_attrs(frame) -> dict:
    return {"nodes": len(frame.f_locals["graph"].nodes),
            "dialect": frame.f_locals["dialect"].value}


def _upgraded_attrs(frame) -> dict:
    return {"nodes": len(frame.f_locals["ug"].base.nodes),
            "dialect": frame.f_locals["dialect"].value}


def _mark_ok(result, attrs: dict) -> None:
    if result is not None:
        attrs["ok"] = True


def _parsed_nodes(result, attrs: dict) -> None:
    if result is not None:
        attrs["nodes"] = len(result.graph.nodes)


def _upgrade_result(result, attrs: dict) -> None:
    if result is not None:
        attrs["triples"] = len(result.triples)
        attrs["fallbacks"] = result.fallback_count()


def _class_result(result, attrs: dict) -> None:
    if result is not None:
        attrs["class"] = result.value


def _judge_result(result, attrs: dict) -> None:
    if result is not None:
        attrs["tier"] = result.tier


PROBES = (
    Probe("parsing.parse_text", "flowsra.parsing", "parse_text"),
    Probe("parsing.mermaid", "flowsra.parsing", "parse_mermaid", on_return=_parsed_nodes),
    Probe("parsing.dot", "flowsra.parsing", "parse_dot", on_return=_parsed_nodes),
    Probe("parsing.plantuml", "flowsra.parsing", "parse_plantuml", on_return=_parsed_nodes),
    Probe("ir.validate", "flowsra.ir", "validate"),
    Probe("emitting.emit", "flowsra.emitting", "emit", on_call=_emit_attrs,
          on_return=_mark_ok),
    Probe("emitting.emit_upgraded", "flowsra.emitting", "emit_upgraded",
          on_call=_upgraded_attrs),
    Probe("emitting.emit_triples", "flowsra.emitting", "emit_triples"),
    Probe("relations.upgrade_graph", "flowsra.relations", "upgrade_graph",
          on_call=_upgrade_attrs, on_return=_upgrade_result),
    Probe("relations.recognize", "flowsra.relations", "HeuristicRelationBackend.recognize"),
    Probe("relations.recognize", "flowsra.relations", "LlmRelationBackend.recognize"),
    Probe("routing.classify", "flowsra.routing", "classify", on_return=_class_result),
    Probe("engine.answer_shallow", "flowsra.engine", "answer_shallow"),
    Probe("engine.answer_deep", "flowsra.engine", "answer_deep"),
    Probe("prompts.load_template", "flowsra.prompts", "load_template"),
    Probe("harness.run_eval", "flowsra.harness", "run_eval"),
    Probe("harness.judge", "flowsra.harness", "judge", on_return=_judge_result),
    Probe("harness.load_dataset", "flowsra.harness", "load_dataset"),
    Probe("harness.report_render", "flowsra.harness", "report_render"),
)

# Spans opened by the benchmark's own gateway and transport wrappers. The
# transport stands in for a remote endpoint, a layer of its own, so that
# gateway.complete's self time excludes it.
DIRECT_SPANS = ("gateway.complete", "transport")


def _resolve(probe: Probe):
    try:
        target = importlib.import_module(probe.module)
        for part in probe.qualname.split("."):
            target = getattr(target, part)
        return target.__code__
    except (ImportError, AttributeError):
        return None


# Span record fields, kept as lists to stay small.
NAME, START, END, PARENT, THREAD, ITEM, ATTRS = range(7)


class Tracer:
    """Collects spans in memory; ``write`` saves them when the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = None              # tag of the item being processed
        self._stacks: dict[int, list] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._watched: dict[int, Probe] = {}
        self._codes = []              # keeps the watched code objects alive
        self.present: set[str] = set(DIRECT_SPANS)
        for probe in PROBES:
            code = _resolve(probe)
            if code is not None:
                self._codes.append(code)
                self._watched[id(code)] = probe
                self.present.add(probe.name)

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, frame, attrs) -> None:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        if stack:
            parent = stack[-1][1]
        else:
            # a worker thread's first span belongs to whatever the main
            # thread is waiting in (e.g. upgrade_graph's thread pool)
            main = self._stacks.get(self._main)
            parent = main[-1][1] if main and tid != self._main else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, tid,
                               self.item, attrs])
        stack.append((frame, index))

    def _close(self, stack: list) -> int:
        index = stack.pop()[1]
        self.spans[index][END] = time.perf_counter()
        return index

    def begin(self, name: str) -> None:
        """Open a span for a call the benchmark wraps itself."""
        self._open(name, None, None)

    def end(self) -> list:
        """Close the innermost direct span of this thread; returns it."""
        stack = self._stacks[threading.get_ident()]
        return self.spans[self._close(stack)]

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            probe = self._watched.get(id(frame.f_code))
            if probe is not None:
                attrs = probe.on_call(frame) if probe.on_call else None
                self._open(probe.name, frame, attrs)
        elif event == "return":
            stack = self._stacks.get(threading.get_ident())
            if stack and stack[-1][0] is frame:
                index = self._close(stack)
                probe = self._watched[id(frame.f_code)]
                if probe.on_return is not None:
                    span = self.spans[index]
                    if span[ATTRS] is None:
                        span[ATTRS] = {}
                    probe.on_return(arg, span[ATTRS])

    def settle(self) -> None:
        """Call between items: close the spans a failed call left open and
        re-install the hook. The interpreter removes a profile hook that
        raises, as any Python code does at the recursion limit."""
        stack = self._stacks.get(threading.get_ident())
        now = time.perf_counter()
        while stack:
            span = self.spans[stack.pop()[1]]
            span[END] = now
            span[ATTRS] = {**(span[ATTRS] or {}), "unclosed": True}
        if sys.getprofile() is None:
            sys.setprofile(self._hook)

    def install(self) -> None:
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def uninstall(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {"id": index, "name": span[NAME],
                          "start_us": round((span[START] - origin) * 1e6, 1),
                          "end_us": round((span[END] - origin) * 1e6, 1),
                          "parent": span[PARENT], "thread": span[THREAD],
                          "item": span[ITEM]}
                if span[ATTRS]:
                    record["attrs"] = span[ATTRS]
                handle.write(json.dumps(record) + "\n")


# --- analysis -------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time that spans of other layers below
    it cover; the layer is the part of the name before the first dot. A
    same-layer child is the parent layer's own work: upgrade_graph keeps the
    recognizer's prompt building and reply parsing and loses the gateway
    time under it. Children on worker threads may overlap, so the union of
    their intervals counts."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(index)
    # a child opens after its parent, so it has the higher index
    foreign: list[list] = [[] for _ in spans]
    out = [0.0] * len(spans)
    for index in range(len(spans) - 1, -1, -1):
        span = spans[index]
        layer = span[NAME].split(".")[0]
        for child in children.get(index, ()):
            if spans[child][NAME].split(".")[0] == layer:
                foreign[index] += foreign[child]
            else:
                foreign[index].append((spans[child][START], spans[child][END]))
        covered = 0.0
        kids = sorted(foreign[index])
        if kids:
            cur_start, cur_end = kids[0]
            for start, end in kids[1:]:
                if start > cur_end:
                    covered += cur_end - cur_start
                    cur_start, cur_end = start, end
                else:
                    cur_end = max(cur_end, end)
            covered += cur_end - cur_start
        out[index] = span[END] - span[START] - covered
    return out


def growth_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size); 0.0 when the
    sizes do not vary."""
    import math

    logs = [(math.log(n), math.log(t)) for n, t in points if n > 0 and t > 0]
    if len(logs) < 2:
        return 0.0
    mx = sum(x for x, _ in logs) / len(logs)
    my = sum(y for _, y in logs) / len(logs)
    sxx = sum((x - mx) ** 2 for x, _ in logs)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in logs) / sxx
