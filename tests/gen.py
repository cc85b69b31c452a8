"""Shared test utilities: random graph generators, the isomorphism oracle,
the topology oracle, an edge-keyed upgrade builder, the outcome of an enum
lookup for comparing it with a referee, a referee that reads an upgraded
edge label back, and a transport wrapper that records every request.

The isomorphism check deliberately uses no package code, so round-trip
tests have an independent referee.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field

import networkx as nx
from networkx.algorithms import isomorphism as nxiso

from flowsra.engine import Question
from flowsra.gateway import MockRule, MockTransport
from flowsra.ir import (NO, UNLABELED, YES, Edge, EdgeLabel, FlowGraph, LabelKind, Node, NodeKind,
                        RelationTriple, RelationType, UpgradedGraph, topology_stats, validate)


def to_nx(graph: FlowGraph) -> nx.MultiDiGraph:
    g = nx.MultiDiGraph()
    for node in graph.nodes:
        g.add_node(node.id, kind=node.kind.value, text=node.text)
    for edge in graph.edges:
        g.add_edge(edge.src, edge.dst, label=(edge.label.kind.value, edge.label.text))
    return g


def _labeled_edges(graph: FlowGraph) -> Counter:
    key = {n.id: (n.kind, n.text) for n in graph.nodes}
    return Counter((key[e.src], key[e.dst], e.label) for e in graph.edges)


def _sink_signature(graph: FlowGraph, repeated: set) -> Counter | None:
    """When every node whose kind and text repeat is a sink, the graph up to
    permuting those sinks: the labeled edges, with each repeated sink named
    by its key and the multiset of its in-edges. None otherwise."""
    key = {n.id: (n.kind, n.text) for n in graph.nodes}
    if any(key[e.src] in repeated for e in graph.edges):
        return None
    into: dict[str, Counter] = {n.id: Counter() for n in graph.nodes
                                if key[n.id] in repeated}
    signature: Counter = Counter()
    for e in graph.edges:
        if e.dst in into:
            into[e.dst][(key[e.src], e.label)] += 1
        else:
            signature[(key[e.src], key[e.dst], e.label)] += 1
    signature.update((key[nid], frozenset(ins.items())) for nid, ins in into.items())
    return signature


def isomorphic(a: FlowGraph, b: FlowGraph) -> bool:
    """Kind/text-preserving node bijection with equal labeled edge multisets."""
    keys = Counter((n.kind, n.text) for n in a.nodes)
    if keys != Counter((n.kind, n.text) for n in b.nodes):
        return False
    if all(count == 1 for count in keys.values()):
        # every node is the only one of its kind and text, so that pairing
        # is the only candidate bijection: compare edges through it (this
        # keeps charts of thousands of nodes cheap, where networkx is not)
        return _labeled_edges(a) == _labeled_edges(b)
    # repeated sinks (the stops of a structured chart) may be paired in any
    # order that keeps their in-edges, and every other pairing is forced
    repeated = {k for k, count in keys.items() if count > 1}
    signature = _sink_signature(a, repeated)
    if signature is not None and (other := _sink_signature(b, repeated)) is not None:
        return signature == other
    node_match = nxiso.categorical_node_match(["kind", "text"], [None, None])
    edge_match = nxiso.categorical_multiedge_match("label", None)
    return nx.is_isomorphic(to_nx(a), to_nx(b),
                            node_match=node_match, edge_match=edge_match)


_START_TEXTS = ["Start", "Begin", ""]
_END_TEXTS = ["End", "Stop", "Done", ""]
_PROCESS_TEXTS = [
    "Mix the flour and water",
    "Knead the mixture",
    "Preheat the oven",
    "Wash the fruit (twice)",
    "Log the value",
    "Save the file",
    "Apply the glue",
    "Update the counter",
]
_DECISION_TEXTS = [
    "Finished?",
    "Is the dough smooth?",
    "Approved?",
    "More items?",
    "Value above threshold?",
]
_IO_TEXTS = [
    "Read the sensor",
    "Print the report",
    "Enter the password",
    "Display the total",
]


def rand_flow_graph(rng: random.Random, *, with_terminals: bool | None = None,
                    max_middle: int = 6) -> FlowGraph:
    """Random flowchart-shaped digraph, valid by construction.

    Suitable for Mermaid and DOT round-trips: when terminals are present
    there is exactly one start node declared first, so oval/stadium
    disambiguation is stable under re-parsing.
    """
    if with_terminals is None:
        with_terminals = rng.random() < 0.8
    nodes: list[Node] = []
    counter = 0

    def fresh(kind: NodeKind, text: str) -> Node:
        nonlocal counter
        node = Node(f"N{counter}", kind, text)
        counter += 1
        nodes.append(node)
        return node

    if with_terminals:
        fresh(NodeKind.START, rng.choice(_START_TEXTS))
    n_middle = rng.randint(1, max_middle)
    for i in range(n_middle):
        kind = rng.choice([NodeKind.PROCESS, NodeKind.PROCESS,
                           NodeKind.DECISION, NodeKind.INPUT_OUTPUT])
        pool = {NodeKind.PROCESS: _PROCESS_TEXTS,
                NodeKind.DECISION: _DECISION_TEXTS,
                NodeKind.INPUT_OUTPUT: _IO_TEXTS}[kind]
        fresh(kind, f"{rng.choice(pool)} {i + 1}")
    ends: list[Node] = []
    if with_terminals:
        for _ in range(rng.randint(1, 2)):
            ends.append(fresh(NodeKind.END, rng.choice(_END_TEXTS)))

    edges: list[Edge] = []
    used: set[tuple[str, str, object]] = set()

    def add_edge(src: Node, dst: Node, label: EdgeLabel) -> None:
        key = (src.id, dst.id, (label.kind, label.text))
        if key in used:
            return
        used.add(key)
        edges.append(Edge(src.id, dst.id, label))

    end_ids = {n.id for n in ends}
    sources = [n for n in nodes if n.id not in end_ids]
    targets = [n for n in nodes if n.kind is not NodeKind.START]
    for node in sources:
        if not targets:
            break
        if node.kind is NodeKind.DECISION:
            picks = rng.sample(targets, k=min(len(targets), 2))
            labels = [YES, NO]
            for dst, label in zip(picks, labels):
                add_edge(node, dst, label)
            if len(targets) > 2 and rng.random() < 0.3:
                add_edge(node, rng.choice(targets),
                         EdgeLabel(LabelKind.OTHER, f"otherwise {node.id}"))
        else:
            for _ in range(rng.randint(1, 2) if rng.random() < 0.4 else 1):
                label = UNLABELED
                if rng.random() < 0.15:
                    label = EdgeLabel(LabelKind.OTHER, f"then {node.id}")
                add_edge(node, rng.choice(targets), label)
    graph = FlowGraph(nodes=tuple(nodes), edges=tuple(edges))
    assert validate(graph) == []
    return graph



def drop_out_edges(graph: FlowGraph, rng: random.Random) -> FlowGraph:
    """``graph`` with every out-edge of one Process node that has some
    removed, which makes that node a dead end; ``graph`` itself if it has
    no such node."""
    sources = sorted({e.src for e in graph.edges})
    kinds = {n.id: n.kind for n in graph.nodes}
    candidates = [nid for nid in sources if kinds[nid] is NodeKind.PROCESS]
    if not candidates:
        return graph
    dead = rng.choice(candidates)
    return FlowGraph(graph.nodes, tuple(e for e in graph.edges if e.src != dead), graph.title)


def side_by_side(first: FlowGraph, second: FlowGraph) -> FlowGraph:
    """Both graphs as two components of one, ``first``'s nodes first. The
    second's ids take a ``B`` prefix and its non-empty texts a `` b``
    suffix. Its Start nodes become Process nodes when ``first`` has one, so
    that the only Start is the first terminal declared, which is how Mermaid
    and DOT read a terminal's kind back."""
    has_start = any(n.kind is NodeKind.START for n in first.nodes)

    def renamed(node: Node) -> Node:
        kind, text = node.kind, node.text
        if kind is NodeKind.START and has_start:
            kind, text = NodeKind.PROCESS, text or "Enter"
        return Node("B" + node.id, kind, f"{text} b" if text else text)

    return FlowGraph(
        first.nodes + tuple(map(renamed, second.nodes)),
        first.edges + tuple(Edge("B" + e.src, "B" + e.dst, e.label) for e in second.edges))


def plantuml_view(graph: FlowGraph) -> FlowGraph:
    """``graph`` as PlantUML carries it: Start and End nodes lose their text,
    and Input/Output nodes are Process nodes."""
    def view(node: Node) -> Node:
        if node.kind.is_terminal:
            return Node(node.id, node.kind, "")
        if node.kind is NodeKind.INPUT_OUTPUT:
            return Node(node.id, NodeKind.PROCESS, node.text)
        return node

    return FlowGraph(tuple(map(view, graph.nodes)), graph.edges, graph.title)


# --- structured programs for the PlantUML round-trip -------------------------


@dataclass
class _Action:
    text: str


@dataclass
class _IfElse:
    cond: str
    then: list = field(default_factory=list)
    els: list = field(default_factory=list)
    then_stops: bool = False


@dataclass
class _Repeat:
    body: list = field(default_factory=list)
    cond: str = "More?"


def _rand_items(rng: random.Random, depth: int, counter: list[int]) -> list:
    items = []
    for _ in range(rng.randint(1, 3)):
        counter[0] += 1
        roll = rng.random()
        if depth > 0 and roll < 0.3:
            then = _rand_items(rng, depth - 1, counter) if rng.random() < 0.8 else []
            els = _rand_items(rng, depth - 1, counter) if rng.random() < 0.6 else []
            items.append(_IfElse(
                cond=f"{rng.choice(_DECISION_TEXTS)} {counter[0]}",
                then=then, els=els,
                then_stops=bool(then) and rng.random() < 0.2,
            ))
        elif depth > 0 and roll < 0.45:
            items.append(_Repeat(
                body=_rand_items(rng, depth - 1, counter),
                cond=f"{rng.choice(_DECISION_TEXTS)} {counter[0]}",
            ))
        else:
            items.append(_Action(f"{rng.choice(_PROCESS_TEXTS)} {counter[0]}"))
    return items


def _render_items(items: list, out: list[str]) -> None:
    for item in items:
        if isinstance(item, _Action):
            out.append(f":{item.text};")
        elif isinstance(item, _IfElse):
            out.append(f"if ({item.cond}) then (yes)")
            _render_items(item.then, out)
            if item.then_stops:
                out.append("stop")
            out.append("else (no)")
            _render_items(item.els, out)
            out.append("endif")
        else:
            out.append("repeat")
            _render_items(item.body, out)
            out.append(f"repeat while ({item.cond})")


def rand_activity_text(rng: random.Random) -> str:
    """Random structured activity program as PlantUML text."""
    counter = [0]
    lines = ["@startuml", "start"]
    _render_items(_rand_items(rng, depth=2, counter=counter), lines)
    lines.append("stop")
    lines.append("@enduml")
    return "\n".join(lines) + "\n"


def rand_deep_activity_text(rng: random.Random, depth: int, width: int) -> str:
    """Random structured activity program: ``depth`` ifs and repeats nested
    inside each other, each level holding ``width`` random programs before
    and after the level it encloses. Rendered with loops, not recursion, so
    any depth can be built."""
    counter = [0]
    lines = ["@startuml", "start"]

    def filler() -> None:
        for _ in range(width):
            _render_items(_rand_items(rng, depth=1, counter=counter), lines)

    closers = []
    for level in range(depth):
        filler()
        if rng.random() < 0.5:
            lines.append(f"if (Level {level}?) then (yes)")
            closers.append(["else (no)", f":skip {level};", "endif"]
                           if rng.random() < 0.7 else ["endif"])
        else:
            lines += ["repeat", f":enter {level};"]
            closers.append([f"repeat while (Again {level}?)"])
    lines.append(":innermost;")
    for closer in reversed(closers):
        filler()
        lines += closer
    lines += ["stop", "@enduml"]
    return "\n".join(lines) + "\n"


def rand_structured_graph(rng: random.Random) -> FlowGraph:
    """Random graph from the PlantUML-representable class."""
    from flowsra.parsing import parse_plantuml

    result = parse_plantuml(rand_activity_text(rng))
    assert result.ok, [str(d) for d in result.diagnostics]
    assert validate(result.graph) == []
    return result.graph


def deep_if_text(depth: int) -> str:
    """PlantUML chart with if/else nested ``depth`` deep in the then-arms.

    Rendered with loops, not recursion, so any depth can be built.
    """
    lines = ["@startuml", "start"]
    for level in range(depth):
        lines += [f":step {level};", f"if (Check {level}?) then (yes)"]
    lines.append(":innermost;")
    for level in reversed(range(depth)):
        lines += ["else (no)", f":skip {level};", "endif"]
    lines += ["stop", "@enduml"]
    return "\n".join(lines) + "\n"


def deep_repeat_text(depth: int) -> str:
    """PlantUML chart with ``repeat`` loops nested ``depth`` deep."""
    lines = ["@startuml", "start"]
    for level in range(depth):
        lines += ["repeat", f":enter {level};"]
    lines.append(":innermost;")
    for level in reversed(range(depth)):
        lines += [f":leave {level};", f"repeat while (Again {level}?)"]
    lines += ["stop", "@enduml"]
    return "\n".join(lines) + "\n"


def upgrade_by_edge(graph: FlowGraph, relations: dict[Edge, RelationType],
                    rationales: dict[Edge, str] | None = None) -> UpgradedGraph:
    """The upgrade tagging each edge ``relations[edge]``: one triple per edge,
    in edge order, with ``rationales.get(edge)`` as its rationale."""
    rationales = rationales or {}
    return UpgradedGraph(graph, tuple(
        RelationTriple(e.src, relations[e], e.dst, rationales.get(e))
        for e in graph.edges))


# --- topology oracle ---------------------------------------------------------

_COUNT_LEAD = r"(?:how many|number of|count(?: of| the number of)?|total count of)"
_DECISION_Q = re.compile(_COUNT_LEAD + r"\b.*\bdecision", re.IGNORECASE)
_EDGE_Q = re.compile(_COUNT_LEAD + r"\b.*\b(edges?|arrows?|connections?|links?)\b",
                     re.IGNORECASE)
_KIND_Q = re.compile(_COUNT_LEAD + r"\s+(?:the\s+)?(start|end)\s+(?:nodes?|steps?)\b",
                     re.IGNORECASE)
_NODE_Q = re.compile(_COUNT_LEAD + r"\b.*\b(nodes?|steps?|boxes)\b", re.IGNORECASE)


def topology_oracle(graph: FlowGraph, question: Question) -> str | None:
    """Deterministic answers for structural count questions; None when the
    question does not match a recognized pattern."""
    stats = topology_stats(graph)
    text = question.text
    if _DECISION_Q.search(text):
        return str(stats.decision_count)
    if _EDGE_Q.search(text):
        return str(stats.edge_count)
    kind_q = _KIND_Q.search(text)
    if kind_q:
        kind = NodeKind(kind_q.group(1).capitalize())
        return str(sum(1 for node in graph.nodes if node.kind is kind))
    if _NODE_Q.search(text):
        return str(stats.node_count)
    return None


def lookup_outcome(lookup, text):
    """The member ``lookup`` returns for ``text``, or the message of the
    ValueError it raises."""
    try:
        return lookup(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


_RELATION_LABEL = re.compile(
    "^(" + "|".join(r.value for r in RelationType) + r")(?:\s*\((.*)\))?$")


def split_relation_label(text: str) -> tuple[RelationType, EdgeLabel] | None:
    """Recover (relation, original label) from an upgraded edge label: the
    referee for ``emitting.relation_edge_label``."""
    m = _RELATION_LABEL.match(text.strip())
    if not m:
        return None
    return RelationType(m.group(1)), EdgeLabel.from_text(m.group(2))


class Recording:
    """A transport that records every request, then defers to ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list = []

    def __call__(self, req):
        self.calls.append(req)
        return self.inner(req)


def mock_backend(script) -> Recording:
    """A recorded mock transport of (substring, response) pairs or MockRules."""
    return Recording(MockTransport([
        entry if isinstance(entry, MockRule) else MockRule("contains", *entry)
        for entry in script]))
