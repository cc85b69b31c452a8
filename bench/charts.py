"""Seeded structured flowcharts, rendered in all three dialects by the
benchmark's own code, plus the reference graph each rendering must parse to.

The charts come from the PlantUML-representable class: sequences of
actions, binary if/else blocks (a then-branch may stop) and bottom-tested
repeat loops, properly nested. Inputs are rendered here rather than with
flowsra's emitters so that a change to the emitters cannot change the
benchmark's inputs.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

SHALLOW_DEPTH = 2  # if/else and loop nesting levels of the sized charts
PROCESS_TEXTS = (
    "Mix the flour and water",
    "Knead the mixture",
    "Preheat the oven",
    "Wash the fruit (twice)",
    "Log the value",
    "Save the file",
    "Apply the glue",
    "Update the counter",
    "Obtain a new photograph",
    "Select the best candidate",
)
DECISION_TEXTS = (
    "Finished?",
    "Is the dough smooth?",
    "Approved?",
    "More items?",
    "Value above threshold?",
)


@dataclass
class Action:
    text: str


@dataclass
class IfElse:
    cond: str
    then: list = field(default_factory=list)
    els: list = field(default_factory=list)
    then_stops: bool = False


@dataclass
class Repeat:
    body: list
    cond: str


@dataclass
class Chart:
    """A structured program and the graph that parsing any rendering of it
    must produce: nodes as (id, kind, text), edges as (src, dst, label) with
    label one of "yes", "no" or None."""

    name: str
    items: list
    nodes: list[tuple[str, str, str]]
    edges: list[tuple[str, str, str | None]]
    deep: bool = False


class _Texts:
    """Node texts made unique with a counter, so a text names one node."""

    def __init__(self, rng: random.Random, prefix: str):
        self.rng = rng
        self.prefix = prefix
        self.count = 0

    def __call__(self, pool: tuple[str, ...]) -> str:
        self.count += 1
        return f"{self.rng.choice(pool)} {self.prefix}{self.count}"


def _rand_items(rng: random.Random, depth: int, texts: _Texts) -> list:
    """One nesting level, in the shape tests/gen.py draws from."""
    items: list = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if depth > 0 and roll < 0.3:
            then = _rand_items(rng, depth - 1, texts) if rng.random() < 0.8 else []
            els = _rand_items(rng, depth - 1, texts) if rng.random() < 0.6 else []
            items.append(IfElse(texts(DECISION_TEXTS), then, els,
                                then_stops=bool(then) and rng.random() < 0.2))
        elif depth > 0 and roll < 0.45:
            items.append(Repeat(_rand_items(rng, depth - 1, texts),
                                texts(DECISION_TEXTS)))
        else:
            items.append(Action(texts(PROCESS_TEXTS)))
    return items


class _GraphBuilder:
    """Builds the reference graph with the PlantUML parser's semantics:
    nodes get ids n0, n1, ... in creation order and dangling outlets
    ("tips") connect to the next node created."""

    def __init__(self) -> None:
        self.nodes: list[tuple[str, str, str]] = []
        self.edges: list[tuple[str, str, str | None]] = []

    def node(self, kind: str, text: str, tips: list) -> str:
        nid = f"n{len(self.nodes)}"
        self.nodes.append((nid, kind, text))
        for src, label in tips:
            self.edges.append((src, nid, label))
        return nid

    def items(self, items: list, tips: list) -> list:
        for item in items:
            if isinstance(item, Action):
                tips = [(self.node("Process", item.text, tips), None)]
            elif isinstance(item, IfElse):
                decision = self.node("Decision", item.cond, tips)
                then_tips = self.items(item.then, [(decision, "yes")])
                if item.then_stops:
                    self.node("End", "", then_tips)
                    then_tips = []
                tips = then_tips + self.items(item.els, [(decision, "no")])
            else:
                head_index = len(self.nodes)
                body_tips = self.items(item.body, tips)
                decision = self.node("Decision", item.cond, body_tips)
                self.edges.append((decision, self.nodes[head_index][0], "yes"))
                tips = [(decision, "no")]
        return tips


def build_chart(name: str, items: list, deep: bool = False) -> Chart:
    builder = _GraphBuilder()
    start = builder.node("Start", "", [])
    tips = builder.items(items, [(start, None)])
    builder.node("End", "", tips)
    return Chart(name, items, builder.nodes, builder.edges, deep)


def _count(items: list) -> int:
    total = 0
    for item in items:
        if isinstance(item, Action):
            total += 1
        elif isinstance(item, IfElse):
            total += 1 + _count(item.then) + _count(item.els) + item.then_stops
        else:
            total += 1 + _count(item.body)
    return total


def sized_chart(rng: random.Random, name: str, target_nodes: int) -> Chart:
    """A chart of exactly ``target_nodes`` nodes with shallow nesting."""
    texts = _Texts(rng, name + "-")
    items: list = []
    count = 2  # start and end
    while True:
        block = _rand_items(rng, SHALLOW_DEPTH, texts)
        if count + _count(block) > target_nodes:
            break
        items.extend(block)
        count += _count(block)
    items += [Action(texts(PROCESS_TEXTS)) for _ in range(target_nodes - count)]
    return build_chart(name, items)


def deep_chart(rng: random.Random, name: str, depth: int) -> Chart:
    """If/else nested ``depth`` levels deep, one action on each side."""
    texts = _Texts(rng, name + "-")
    inner: list = [Action(texts(PROCESS_TEXTS))]
    for _ in range(depth):
        inner = [Action(texts(PROCESS_TEXTS)),
                 IfElse(texts(DECISION_TEXTS), inner, [Action(texts(PROCESS_TEXTS))])]
    return build_chart(name, inner, deep=True)


# --- renderers ---------------------------------------------------------------

def _plantuml_items(items: list, out: list[str]) -> None:
    for item in items:
        if isinstance(item, Action):
            out.append(f":{item.text};")
        elif isinstance(item, IfElse):
            out.append(f"if ({item.cond}) then (yes)")
            _plantuml_items(item.then, out)
            if item.then_stops:
                out.append("stop")
            out.append("else (no)")
            _plantuml_items(item.els, out)
            out.append("endif")
        else:
            out.append("repeat")
            _plantuml_items(item.body, out)
            out.append(f"repeat while ({item.cond})")


def render_plantuml(chart: Chart) -> str:
    lines = ["@startuml", "start"]
    _plantuml_items(chart.items, lines)
    lines += ["stop", "@enduml"]
    return "\n".join(lines) + "\n"


_MERMAID_SHAPES = {
    "Start": ('(["', '"])'),
    "End": ('(["', '"])'),
    "Process": ('["', '"]'),
    "Decision": ('{"', '"}'),
}
_DOT_SHAPES = {"Start": "oval", "End": "oval", "Process": "box", "Decision": "diamond"}
_LABEL_TEXT = {"yes": "Yes", "no": "No"}


def render_mermaid(chart: Chart) -> str:
    lines = ["flowchart TD"]
    for nid, kind, text in chart.nodes:
        left, right = _MERMAID_SHAPES[kind]
        lines.append(f"{nid}{left}{text}{right}")
    for src, dst, label in chart.edges:
        arrow = "-->" if label is None else f"-->|{_LABEL_TEXT[label]}|"
        lines.append(f"{src} {arrow} {dst}")
    return "\n".join(lines) + "\n"


def render_dot(chart: Chart) -> str:
    lines = ["digraph G {"]
    for nid, kind, text in chart.nodes:
        lines.append(f'  {nid} [shape={_DOT_SHAPES[kind]}, label="{text}"];')
    for src, dst, label in chart.edges:
        attrs = "" if label is None else f' [label="{_LABEL_TEXT[label]}"]'
        lines.append(f"  {src} -> {dst}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


RENDERERS = {"mermaid": render_mermaid, "dot": render_dot, "plantuml": render_plantuml}
DIALECTS = tuple(RENDERERS)


# --- comparison up to node ids -----------------------------------------------

def _canonical(nodes, edges):
    """Node and edge multisets keyed by content instead of ids.

    Non-terminal texts are unique by construction, so (kind, text) names a
    node; terminals are told apart by their neighbours' keys. Returns None
    when keys collide, which the callers treat as a mismatch.
    """
    by_id = {nid: (kind, text) for nid, kind, text in nodes}
    preds: dict[str, list] = {nid: [] for nid in by_id}
    succs: dict[str, list] = {nid: [] for nid in by_id}
    for src, dst, _ in edges:
        if src not in by_id or dst not in by_id:
            return None
        succs[src].append(by_id[dst])
        preds[dst].append(by_id[src])
    keys = {}
    for nid, (kind, text) in by_id.items():
        if kind in ("Start", "End"):
            keys[nid] = (kind, text, tuple(sorted(preds[nid])), tuple(sorted(succs[nid])))
        else:
            keys[nid] = (kind, text)
    if len(set(keys.values())) != len(keys):
        return None
    return (sorted(keys.values()),
            sorted((keys[s], keys[d], label or "") for s, d, label in edges))


def graph_tuples(graph, relabel=None):
    """A flowsra FlowGraph as (nodes, edges) tuples; ``relabel`` maps each
    edge label's text to the label compared (default: its Yes/No kind)."""
    nodes = [(n.id, n.kind.value, n.text) for n in graph.nodes]
    edges = []
    for e in graph.edges:
        text = e.label.render()
        label = relabel(text) if relabel else (None if text is None else text.casefold())
        edges.append((e.src, e.dst, label))
    return nodes, edges


def same_graph(chart: Chart, nodes, edges) -> bool:
    expected = _canonical(chart.nodes, chart.edges)
    return expected is not None and expected == _canonical(nodes, edges)


_RELATION_LABEL = re.compile(
    r"^(Conditionality|Causality|Instantiation|Sequentiality)(?: \((.*)\))?$")


def split_relation_label(text: str | None):
    """(relation, original label) of an upgraded edge label, or None."""
    m = _RELATION_LABEL.match(text or "")
    if not m:
        return None
    original = m.group(2)
    return m.group(1), None if original is None else original.casefold()
