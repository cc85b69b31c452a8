"""Serializers from the graph representation back to dialect text.

All emitters are deterministic: nodes in graph order, then edges in graph
order, UTF-8 with LF line endings, bit-exact for identical input. Upgraded
emission keeps the host dialect syntactically valid by carrying relation
names in each edge's label slot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import count
from typing import Generator, Iterable

from .ir import (
    Edge,
    EdgeLabel,
    FlowGraph,
    LabelKind,
    Node,
    NodeKind,
    RelationType,
    UpgradedGraph,
    derived,
    relation_definitions_block,
    require_valid,
)
from .parsing import MERMAID_ID, Dialect


@dataclass(frozen=True)
class InterlanguageDoc:
    """Serialized flowchart text tagged with its dialect."""

    dialect: Dialect
    text: str


class EmitError(RuntimeError):
    """The graph cannot be expressed in the target dialect's grammar subset."""


def relation_edge_label(relation: RelationType, original: EdgeLabel) -> str:
    """Label text for an upgraded edge: relation name, original label in parens."""
    rendered = original.render()
    if rendered is None:
        return relation.value
    return f"{relation.value} ({rendered})"


_RELATION_LABEL = re.compile(
    "^(" + "|".join(r.value for r in RelationType) + r")(?:\s*\((.*)\))?$")


def split_relation_label(text: str) -> tuple[RelationType, EdgeLabel] | None:
    """Recover (relation, original label) from an upgraded edge label."""
    m = _RELATION_LABEL.match(text.strip())
    if not m:
        return None
    return RelationType(m.group(1)), EdgeLabel.from_text(m.group(2))


def _clean(text: str) -> str:
    """Single-line form of node text (the dialects here are line oriented)."""
    return " ".join(text.split()) if ("\n" in text or "\r" in text) else text


def _taxonomy_comment(marker: str) -> list[str]:
    lines = [f"{marker} Relation taxonomy:"]
    lines += [f"{marker} {line}" for line in relation_definitions_block().splitlines()]
    return lines


# --- Mermaid ---------------------------------------------------------------

_MERMAID_BARE = re.compile(r"[^\[\]{}()|\"/]*$")


def _mermaid_text(text: str) -> str:
    """Node text, quoted unless it holds nothing the parser would read
    otherwise: a delimiter, outer whitespace, or a ``%%`` comment marker."""
    text = _clean(text)
    if text and _MERMAID_BARE.match(text) and text == text.strip() and "%%" not in text:
        return text
    return '"' + text.replace('"', "#quot;") + '"'


_MERMAID_BRACKETS = {
    NodeKind.START: ("([", "])"),
    NodeKind.END: ("([", "])"),
    NodeKind.PROCESS: ("[", "]"),
    NodeKind.DECISION: ("{", "}"),
    NodeKind.INPUT_OUTPUT: ("[/", "/]"),
}


def _edge_labels(graph: FlowGraph, upgraded: list[str] | None) -> Iterable[str | None]:
    """Label text per edge, in edge order: the upgraded labels if given,
    else each edge's own."""
    if upgraded is not None:
        return upgraded
    return (edge.label.render() for edge in graph.edges)


_MERMAID_ID = re.compile(MERMAID_ID)


def _with_mermaid_ids(graph: FlowGraph) -> FlowGraph:
    """``graph``, with each node id that the Mermaid parser does not read as
    an id (DOT allows ``1`` or ``"a b"``) renamed to the first ``n<k>`` that
    no kept id uses."""
    kept = {n.id for n in graph.nodes if _MERMAID_ID.fullmatch(n.id)}
    if len(kept) == len(graph.nodes):
        return graph
    fresh = (nid for nid in map("n{}".format, count()) if nid not in kept)
    ids = {n.id: n.id if n.id in kept else next(fresh) for n in graph.nodes}
    return FlowGraph(tuple(Node(ids[n.id], n.kind, n.text) for n in graph.nodes),
                     tuple(Edge(ids[e.src], ids[e.dst], e.label) for e in graph.edges))


def _emit_mermaid(graph: FlowGraph, upgraded: list[str] | None) -> str:
    lines = ["flowchart TD"]
    if upgraded is not None:
        lines += _taxonomy_comment("%%")
    graph = _with_mermaid_ids(graph)
    for node in graph.nodes:
        left, right = _MERMAID_BRACKETS[node.kind]
        lines.append(f"{node.id}{left}{_mermaid_text(node.text)}{right}")
    for edge, label in zip(graph.edges, _edge_labels(graph, upgraded)):
        if label is None:
            lines.append(f"{edge.src} --> {edge.dst}")
        else:
            lines.append(f"{edge.src} -->|{label.replace('|', '/')}| {edge.dst}")
    return "\n".join(lines) + "\n"


# --- DOT -------------------------------------------------------------------

_DOT_BARE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_DOT_KEYWORDS = {"graph", "digraph", "node", "edge", "strict", "subgraph"}


def _dot_id(value: str) -> str:
    if _DOT_BARE.match(value) and value not in _DOT_KEYWORDS:
        return value
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_str(value: str) -> str:
    return '"' + _clean(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


_DOT_SHAPES = {
    NodeKind.START: "oval",
    NodeKind.END: "oval",
    NodeKind.PROCESS: "box",
    NodeKind.DECISION: "diamond",
    NodeKind.INPUT_OUTPUT: "parallelogram",
}


def _emit_dot(graph: FlowGraph, upgraded: list[str] | None) -> str:
    lines = ["digraph G {"]
    if upgraded is not None:
        lines += ["  " + line for line in _taxonomy_comment("//")]
    for node in graph.nodes:
        lines.append(
            f"  {_dot_id(node.id)} [shape={_DOT_SHAPES[node.kind]}, "
            f"label={_dot_str(node.text)}];")
    for edge, label in zip(graph.edges, _edge_labels(graph, upgraded)):
        stmt = f"  {_dot_id(edge.src)} -> {_dot_id(edge.dst)}"
        if label is not None:
            stmt += f" [label={_dot_str(label)}]"
        lines.append(stmt + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- PlantUML --------------------------------------------------------------


def _pu_text(text: str) -> str:
    return _clean(text).replace(";", ",")


def _forward_reach(fwd_succs: dict[str, list[str]],
                   bit: dict[str, int]) -> dict[str, int]:
    """Nodes reachable from each node along forward edges, as bitsets.

    Bit ``i`` stands for the node at graph position ``i``. One iterative DFS
    fills the sets in postorder, each node ORing in its successors' sets.
    The forward edges among nodes reachable from an entry form a DAG, so
    their sets are exact; a node on a forward cycle (unreachable from every
    entry, hence never walked) may get a subset.
    """
    reach: dict[str, int] = {}
    for root in fwd_succs:
        if root in reach:
            continue
        reach[root] = 0
        stack = [(root, iter(fwd_succs[root]))]
        while stack:
            nid, pending = stack[-1]
            for nxt in pending:
                if nxt not in reach:
                    reach[nxt] = 0
                    stack.append((nxt, iter(fwd_succs[nxt])))
                    break
            else:
                stack.pop()
                found = 0
                for nxt in fwd_succs[nid]:
                    found |= bit[nxt] | reach[nxt]
                reach[nid] = found
    return reach


def _back_edges(outs: dict[str, list[Edge]], entries: list[str]) -> dict[int, Edge]:
    """DFS back edges (edge order respected), which mark loop latches.

    Keyed by ``id(edge)``: the edges of a valid graph are distinct objects,
    and an id hashes without calling into Python as an ``Edge`` does. The
    dict keeps discovery order, so iteration does not depend on hashes."""
    color: dict[str, int] = {}
    back: dict[int, Edge] = {}
    for entry in entries:
        if color.get(entry):
            continue
        stack: list[tuple[str, int]] = [(entry, 0)]
        color[entry] = 1
        while stack:
            node, idx = stack[-1]
            if idx < len(outs[node]):
                stack[-1] = (node, idx + 1)
                edge = outs[node][idx]
                state = color.get(edge.dst, 0)
                if state == 1:
                    back[id(edge)] = edge
                elif state == 0:
                    color[edge.dst] = 1
                    stack.append((edge.dst, 0))
            else:
                color[node] = 2
                stack.pop()
    return back


# A walk over one region of the chart. It yields the walk of each nested
# region (a branch arm, a loop body) and is sent back that walk's result.
_Walk = Generator["_Walk", "str | None", "str | None"]


def _run(walk: _Walk) -> None:
    """Drive a walk and the walks nested in it on an explicit stack, so
    nesting depth is bounded by memory, not by the recursion limit."""
    stack = [walk]
    result: str | None = None
    while stack:
        try:
            nested = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            result = done.value
        else:
            stack.append(nested)
            result = None


class _PlantUmlEmitter:
    """Recover structured activity syntax (if/else, repeat) from graph shape.

    Only graphs built from properly nested sequences, binary branches with a
    common join, and bottom-tested loops are representable; anything else
    raises :class:`EmitError`. ``upgraded`` is as for the other emitters;
    when it is given, the taxonomy comment follows ``@startuml`` and labels
    that cannot ride the structured syntax are dropped instead of raising.
    """

    def __init__(self, graph: FlowGraph, upgraded: list[str] | None):
        self.graph = graph
        self.upgraded = upgraded is not None
        # keyed by id(edge), as the back edges are
        self.labels = {id(edge): label
                       for edge, label in zip(graph.edges, _edge_labels(graph, upgraded))}
        self.by_id = {n.id: n for n in graph.nodes}
        self.order = [n.id for n in graph.nodes]
        self.pos = {nid: index for index, nid in enumerate(self.order)}
        self.outs: dict[str, list[Edge]] = {nid: [] for nid in self.order}
        self.in_counts = dict.fromkeys(self.order, 0)
        for edge in graph.edges:
            self.outs[edge.src].append(edge)
            self.in_counts[edge.dst] += 1
        self.lines: list[str] = []
        self.visited: set[str] = set()
        self.entries = [nid for nid in self.order if self.in_counts[nid] == 0]
        if not self.entries and graph.nodes:
            # every node has a predecessor (e.g. a loop back into the start
            # node): fall back to the first start-kind node, then first node
            starts = [n.id for n in graph.nodes if n.kind is NodeKind.START]
            self.entries = [starts[0] if starts else self.order[0]]
        self.back = _back_edges(self.outs, self.entries)
        # joins are computed over forward edges only: flow that wraps around a
        # loop's back edge must not count as branch reconvergence
        self.fwd_succs = {
            nid: [e.dst for e in outs if id(e) not in self.back]
            for nid, outs in self.outs.items()
        }
        self.fwd_reach = _forward_reach(
            self.fwd_succs, {nid: 1 << index for nid, index in self.pos.items()})
        self.loop_latches: dict[str, list[Edge]] = {}
        # the sort is stable: back edges from one node keep their edge order,
        # so the error below always names the same edge
        for edge in sorted(self.back.values(), key=lambda e: self.pos[e.src]):
            if self.by_id[edge.src].kind is not NodeKind.DECISION:
                raise EmitError(
                    f"back edge {edge.src} -> {edge.dst} does not come from a "
                    "decision; the loop cannot be expressed")
            self.loop_latches.setdefault(edge.dst, []).append(edge)
        # number of forward (non-back) incoming edges, used to decide whether
        # an arrow-label line would unambiguously apply to a single edge
        self.fwd_in: dict[str, int] = {n.id: 0 for n in graph.nodes}
        for edge in graph.edges:
            if id(edge) not in self.back:
                self.fwd_in[edge.dst] += 1

    def emit(self) -> str:
        self.lines.append("@startuml")
        if self.upgraded:
            self.lines += _taxonomy_comment("'")
        if self.graph.title:
            self.lines.append(f"title {_clean(self.graph.title)}")
        for entry in self.entries:
            if entry not in self.visited:
                _run(self.walk(entry, None, None))
        leftover = [nid for nid in self.order if nid not in self.visited]
        if leftover:
            raise EmitError(
                f"nodes unreachable from any entry cannot be emitted: {leftover}")
        self.lines.append("@enduml")
        return "\n".join(self.lines) + "\n"

    def follow(self, edge: Edge) -> str:
        """Emit the arrow-label line for a traversed sequential edge."""
        text = self.labels[id(edge)]
        if text is not None:
            if self.fwd_in[edge.dst] == 1:
                self.lines.append(f"-> {_pu_text(text)};")
            elif not self.upgraded:
                raise EmitError(
                    f"label on converging edge {edge.src} -> {edge.dst} "
                    "cannot be expressed")
        return edge.dst

    def single_successor(self, nid: str) -> Edge | None:
        outs = self.outs[nid]
        if len(outs) > 1:
            raise EmitError(
                f"node {nid!r} fans out to {len(outs)} successors outside a decision")
        return outs[0] if outs else None

    def branch_clause(self, edge: Edge) -> str:
        text = self.labels[id(edge)]
        return "" if text is None else _pu_text(text)

    def join_of(self, decision: str, left: str, right: str) -> str | None:
        """The nearest node forward-reachable from both branches: the first
        breadth-first level that holds one, ties broken by graph order."""
        pos, reach = self.pos, self.fwd_reach
        common = ((1 << pos[left] | reach[left])
                  & (1 << pos[right] | reach[right]))
        if not common:
            return None
        seen = {decision}
        frontier = [left, right]
        while frontier:
            hits = [nid for nid in frontier if common >> pos[nid] & 1]
            if hits:
                return min(hits, key=pos.__getitem__)
            nxt: list[str] = []
            for nid in frontier:
                if nid in seen:
                    continue
                seen.add(nid)
                nxt.extend(self.fwd_succs[nid])
            frontier = nxt
        return None

    def walk(self, nid: str | None, until: str | None, loop_head: str | None) -> _Walk:
        while nid is not None and nid != until:
            if nid in self.visited:
                raise EmitError(
                    f"node {nid!r} is reached by more than one flow; "
                    "the graph is not structured")
            if nid in self.loop_latches and nid != loop_head:
                nid = yield self.emit_loop(nid)
                continue
            node = self.by_id[nid]
            self.visited.add(nid)
            if node.kind is NodeKind.END:
                if self.outs[nid]:
                    raise EmitError(f"end node {nid!r} has outgoing edges")
                self.lines.append("stop")
                return
            if node.kind is NodeKind.DECISION:
                nid = yield self.emit_branch(node, until)
                if nid is None:
                    return
                continue
            if node.kind is NodeKind.START:
                self.lines.append("start")
            else:
                self.lines.append(f":{_pu_text(node.text)};")
            edge = self.single_successor(nid)
            if edge is None:
                return
            nid = self.follow(edge)

    def _nested_latches(self, latches: list[Edge]) -> list[Edge]:
        """Innermost first; each latch must forward-reach all latches that
        enclose it, otherwise the loops are not properly nested."""

        def rank(edge: Edge) -> int:
            reach = self.fwd_reach[edge.src]
            return sum(1 for other in latches
                       if other is not edge and reach >> self.pos[other.src] & 1)

        ordered = sorted(latches, key=lambda e: (-rank(e), self.pos[e.src]))
        if [rank(e) for e in ordered] != list(range(len(latches) - 1, -1, -1)):
            raise EmitError(
                f"loops closing at {ordered[0].dst!r} are not properly nested")
        return ordered

    def emit_loop(self, head: str) -> _Walk:
        latches = self._nested_latches(self.loop_latches[head])
        for _ in latches:
            self.lines.append("repeat")
        yield self.walk(head, latches[0].src, head)
        nid: str | None = None
        for index, back_edge in enumerate(latches):
            latch = back_edge.src
            if latch in self.visited:
                raise EmitError(f"loop at {head!r} is not properly nested")
            self.visited.add(latch)
            outs = self.outs[latch]
            if len(outs) != 2:
                raise EmitError(
                    f"loop decision {latch!r} must have exactly 2 branches, "
                    f"has {len(outs)}")
            exit_edge = next(e for e in outs if e != back_edge)
            clause = f"repeat while ({_pu_text(self.by_id[latch].text)})"
            back_text = self.labels[id(back_edge)]
            if back_text != "Yes":
                clause += f" is ({_pu_text(back_text) if back_text is not None else ''})"
            exit_text = self.labels[id(exit_edge)]
            if exit_text != "No":
                clause += f" not ({_pu_text(exit_text) if exit_text is not None else ''})"
            self.lines.append(clause)
            nid = exit_edge.dst
            if index + 1 < len(latches):
                next_latch = latches[index + 1].src
                if nid != next_latch:
                    yield self.walk(nid, next_latch, None)
                nid = None
        return nid

    def emit_branch(self, node, until: str | None) -> _Walk:
        outs = self.outs[node.id]
        if len(outs) != 2:
            raise EmitError(
                f"decision {node.id!r} has {len(outs)} branches; "
                "only binary decisions are representable")
        first, second = outs
        if second.label.kind is LabelKind.YES or first.label.kind is LabelKind.NO:
            then_edge, else_edge = second, first
        else:
            then_edge, else_edge = first, second
        join = self.join_of(node.id, then_edge.dst, else_edge.dst)
        # branches that never reconverge still stop at the enclosing region
        # boundary (e.g. the latch of a surrounding loop)
        stop_at = join if join is not None else until
        self.lines.append(
            f"if ({_pu_text(node.text)}) then ({self.branch_clause(then_edge)})")
        if then_edge.dst != stop_at:
            yield self.walk(then_edge.dst, stop_at, None)
        self.lines.append(f"else ({self.branch_clause(else_edge)})")
        if else_edge.dst != stop_at:
            yield self.walk(else_edge.dst, stop_at, None)
        self.lines.append("endif")
        return join


def _emit_plantuml(graph: FlowGraph, upgraded: list[str] | None) -> str:
    return _PlantUmlEmitter(graph, upgraded).emit()


# --- public operations -------------------------------------------------------

_EMITTERS = {
    Dialect.MERMAID: _emit_mermaid,
    Dialect.DOT: _emit_dot,
    Dialect.PLANTUML: _emit_plantuml,
}


def emit(graph: FlowGraph, dialect: Dialect) -> InterlanguageDoc:
    """Serialize a validated graph to dialect text.

    Raises GraphValidationError for invalid graphs, EmitError when the graph
    falls outside what the dialect subset can express (PlantUML only). The
    text is computed once per graph and dialect (see :func:`flowsra.ir.derived`).
    """
    def compute() -> InterlanguageDoc:
        require_valid(graph)
        return InterlanguageDoc(dialect, _EMITTERS[dialect](graph, None))

    return derived(graph, ("emit", dialect), compute)


def emit_upgraded(ug: UpgradedGraph, dialect: Dialect) -> InterlanguageDoc:
    """Serialize the relation-annotated form of a graph.

    Every edge's label slot carries its relation name, with the original
    Yes/No label kept in parentheses; a comment header lists the four
    relation definitions. Computed once per upgraded graph and dialect.
    """
    def compute() -> InterlanguageDoc:
        labels = [relation_edge_label(triple.relation, edge.label)
                  for edge, triple in zip(ug.base.edges, ug.triples)]
        return InterlanguageDoc(dialect, _EMITTERS[dialect](ug.base, labels))

    return derived(ug, ("emit_upgraded", dialect), compute)


def emit_triples(ug: UpgradedGraph) -> str:
    """Plain triple listing, one line per edge in edge order. Computed once
    per upgraded graph."""
    def compute() -> str:
        by_id = {n.id: n for n in ug.base.nodes}
        lines = [
            f"({_clean(by_id[t.src].text)}) -[{t.relation.value}]-> ({_clean(by_id[t.dst].text)})"
            for t in ug.triples
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    return derived(ug, "emit_triples", compute)
