"""Per-layer metrics, computed from the spans of traced passes.

Names, units and directions are listed in BENCHMARK.json. Times are
milliseconds per item (a chart conversion or a QA instance) and include the
profile hook's overhead; ``trace.overhead_ratio`` says how much. A
``self_ms`` excludes the time spent in other layers below the function.
A ratio whose base is zero reads 0.0, as does a growth exponent over fewer
than two sizes. A metric that needs a function flowsra no longer has reads
null (absent).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import charts
import evalset
from tracing import ATTRS, END, ITEM, NAME, START, THREAD, growth_exponent, self_times

ROUTES = ("shallow", "deep")

# Metrics that need a traced function: its span name, by metric name prefix.
_NEEDS = {
    "parsing.parse_text": "parsing.parse_text",
    "parsing.mermaid": "parsing.mermaid",
    "parsing.dot": "parsing.dot",
    "parsing.plantuml": "parsing.plantuml",
    "ir.validate": "ir.validate",
    "emitting.emit_upgraded": "emitting.emit_upgraded",
    "emitting.emit_triples": "emitting.emit_triples",
    "emitting.": "emitting.emit",
    "relations.upgrade_graph": "relations.upgrade_graph",
    "relations.fallback_ratio": "relations.upgrade_graph",
    "relations.heuristic": "relations.upgrade_graph",
    "relations.recognize": "relations.recognize",
    "routing.": "routing.classify",
    "engine.answer_shallow": "engine.answer_shallow",
    "engine.answer_deep": "engine.answer_deep",
    "cost.shallow": "engine.answer_shallow",
    "cost.deep": "engine.answer_deep",
    "prompts.": "prompts.load_template",
    "harness.run_eval": "harness.run_eval",
    "harness.judge": "harness.judge",
    "harness.load_dataset": "harness.load_dataset",
    "harness.report_render": "harness.report_render",
}


def _needed(metric: str) -> str | None:
    for prefix, span in _NEEDS.items():
        if metric.startswith(prefix):
            return span
    return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _growth(points) -> float:
    """Fit over the median (nodes, seconds) of each size group."""
    groups: dict[object, list] = defaultdict(list)
    for key, nodes, seconds in points:
        groups[key].append((nodes, seconds))
    medians = [(statistics.median(n for n, _ in g), statistics.median(t for _, t in g))
               for g in groups.values()]
    return growth_exponent(medians)


def compute(spans: list[list], items: int, present: set[str], *, overhead_ratio: float,
            failed_ratio: float, cache_writes: int) -> dict[str, float | None]:
    """``items`` is the number of items processed in the traced passes and
    ``cache_writes`` the gateway cache files they created or replaced; each
    span's ITEM field is None or an (index, size group, deep) tag."""
    selfs = self_times(spans)
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    nodes_done: dict[str, list] = defaultdict(lambda: [0, 0.0])  # "parsing.dot" -> [nodes, s]
    growth: dict[str, list] = defaultdict(list)  # -> [(size group, nodes, seconds)]
    heuristic: list[tuple] = []  # (size group, nodes, self seconds) of each upgrade
    kind_requests: dict[str, int] = defaultdict(int)
    kind_tokens: dict[str, int] = defaultdict(int)
    hits = billed = billed_tokens = 0
    triples = fallbacks = complicated = tier2 = 0
    for index, span in enumerate(spans):
        name, attrs = span[NAME], span[ATTRS] or {}
        seconds = span[END] - span[START]
        count[name] += 1
        total[name] += seconds
        own[name] += selfs[index]
        tag = span[ITEM]
        group = tag[1] if tag else attrs.get("nodes")
        fits = not (tag and tag[2])  # deep-nested charts are another shape
        layer = None
        if name in ("parsing.mermaid", "parsing.dot", "parsing.plantuml") and "nodes" in attrs:
            layer = name
        elif name == "emitting.emit" and attrs.get("ok"):
            layer = f"emitting.{attrs['dialect']}"
        elif name == "relations.upgrade_graph" and "triples" in attrs:
            triples += attrs["triples"]
            fallbacks += attrs["fallbacks"]
            if attrs["backend"] == "HeuristicRelationBackend" and fits:
                heuristic.append((group, attrs["nodes"], selfs[index]))
        elif name == "routing.classify" and "class" in attrs:
            complicated += attrs["class"] == "Complicated"
        elif name == "harness.judge" and "tier" in attrs:
            tier2 += attrs["tier"] == 2
        elif name == "gateway.complete" and attrs:
            kind_requests[attrs["kind"]] += 1
            kind_tokens[attrs["kind"]] += attrs["tokens"]
            hits += attrs["cached"]
            if not attrs["cached"]:
                billed += 1
                billed_tokens += attrs["tokens"]
        if layer is not None:
            nodes_done[layer][0] += attrs["nodes"]
            nodes_done[layer][1] += seconds
            if fits:
                growth[layer].append((group, attrs["nodes"], seconds))

    per = lambda value: _ratio(value, items)  # noqa: E731
    ms = lambda name: per(total[name]) * 1e3  # noqa: E731
    self_ms = lambda name: per(own[name]) * 1e3  # noqa: E731
    requests = count["gateway.complete"]
    values: dict[str, float] = {
        "failed_ratio": failed_ratio,
        "llm_calls_per_item": per(billed),
        "prompt_tokens_per_item": per(billed_tokens),
        "parsing.parse_text.calls_per_item": per(count["parsing.parse_text"]),
        "parsing.parse_text.ms": ms("parsing.parse_text"),
        "ir.validate.calls_per_item": per(count["ir.validate"]),
        "ir.validate.ms": ms("ir.validate"),
        "emitting.emit_upgraded.ms": ms("emitting.emit_upgraded"),
        "emitting.emit_triples.ms": ms("emitting.emit_triples"),
        "relations.upgrade_graph.calls_per_item": per(count["relations.upgrade_graph"]),
        "relations.upgrade_graph.self_ms": self_ms("relations.upgrade_graph"),
        "relations.recognize.calls_per_item": per(count["relations.recognize"]),
        "relations.retry_ratio": _ratio(kind_requests[evalset.RELATION_RETRY],
                                        kind_requests[evalset.RELATION]),
        "relations.fallback_ratio": _ratio(fallbacks, triples),
        "relations.heuristic.growth_exp": _growth(heuristic),
        "routing.classify.calls_per_item": per(count["routing.classify"]),
        "routing.classify.self_ms": self_ms("routing.classify"),
        "routing.complicated_ratio": _ratio(complicated, count["routing.classify"]),
        "engine.answer_shallow.self_ms": self_ms("engine.answer_shallow"),
        "engine.answer_deep.self_ms": self_ms("engine.answer_deep"),
        "engine.shallow.prompt_tokens_per_call": _ratio(kind_tokens[evalset.SHALLOW],
                                                        kind_requests[evalset.SHALLOW]),
        "engine.deep.prompt_tokens_per_call": _ratio(kind_tokens[evalset.DEEP],
                                                     kind_requests[evalset.DEEP]),
        "prompts.load_template.calls_per_item": per(count["prompts.load_template"]),
        "prompts.load_template.ms": ms("prompts.load_template"),
        "gateway.requests_per_item": per(requests),
        "gateway.complete.self_ms": self_ms("gateway.complete"),
        "gateway.cache_hit_ratio": _ratio(hits, requests),
        "gateway.cache_writes_per_item": per(cache_writes),
        "gateway.transport.calls_per_item": per(count["transport"]),
        "gateway.transport.wait_ms": ms("transport"),
        "harness.run_eval.self_ms": self_ms("harness.run_eval"),
        "harness.judge.tier2_ratio": _ratio(tier2, count["harness.judge"]),
        "harness.load_dataset.ms": ms("harness.load_dataset"),
        "harness.report_render.ms": ms("harness.report_render"),
        "trace.overhead_ratio": overhead_ratio,
    }
    for dialect in charts.DIALECTS:
        for layer in (f"parsing.{dialect}", f"emitting.{dialect}"):
            nodes, seconds = nodes_done[layer]
            values[f"{layer}.us_per_node"] = _ratio(seconds, nodes) * 1e6
            values[f"{layer}.growth_exp"] = _growth(growth[layer])
    for kind in evalset.PROMPT_KINDS:
        values[f"cost.{kind}.requests_per_item"] = per(kind_requests[kind])
        values[f"cost.{kind}.prompt_tokens_per_item"] = per(kind_tokens[kind])
    for route, (questions, reqs, calls, tokens) in _route_costs(spans).items():
        values[f"cost.{route}.requests_per_question"] = _ratio(reqs, questions)
        values[f"cost.{route}.llm_calls_per_question"] = _ratio(calls, questions)
        values[f"cost.{route}.prompt_tokens_per_question"] = _ratio(tokens, questions)
    return {metric: None if _needed(metric) not in present | {None} else value
            for metric, value in values.items()}


def _route_costs(spans: list[list]) -> dict[str, list]:
    """Requests by the route of the question that made them.

    Per thread, in time order: router, relation and reasoner requests belong
    to the next answer to finish; judge requests to the last one finished.
    Returns route -> [questions, requests, transport calls, prompt tokens].
    """
    events: dict[int, list] = defaultdict(list)
    for span in spans:
        name = span[NAME]
        if name == "engine.answer_shallow":
            events[span[THREAD]].append((span[END], 1, "shallow"))
        elif name == "engine.answer_deep":
            events[span[THREAD]].append((span[END], 1, "deep"))
        elif name == "gateway.complete":
            events[span[THREAD]].append((span[START], 0, span[ATTRS] or {}))
    out = {route: [0, 0, 0, 0] for route in ROUTES}
    for thread_events in events.values():
        thread_events.sort(key=lambda e: (e[0], e[1]))
        pending: list[dict] = []
        last = None
        for _, is_answer, payload in thread_events:
            if is_answer:
                out[payload][0] += 1
                for attrs in pending:
                    _charge(out[payload], attrs)
                pending = []
                last = payload
            elif payload.get("kind") in (evalset.JUDGE, evalset.JUDGE_RETRY):
                if last is not None:
                    _charge(out[last], payload)
            else:
                pending.append(payload)
    return out


def _charge(bucket: list, attrs: dict) -> None:
    bucket[1] += 1
    bucket[2] += not attrs.get("cached")
    bucket[3] += attrs.get("tokens", 0)
