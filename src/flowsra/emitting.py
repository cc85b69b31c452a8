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
    """Label text for an upgraded edge: relation name, original label in
    parens. ``_value_`` is the relation's ``value``, read without the
    property call."""
    rendered = original.render()
    if rendered is None:
        return relation._value_
    return f"{relation._value_} ({rendered})"


# the line breaks of str.splitlines, by which the Mermaid and PlantUML
# parsers split their input
_LINE_BREAK = re.compile("[\n\r\v\f\x1c-\x1e\x85\u2028\u2029]")


def _clean(text: str) -> str:
    """Single-line form of node or label text (the dialects here are line
    oriented): with every run of whitespace one space if the text holds a
    line break. No line break is printable, so most texts take the first test."""
    if text.isprintable() or not _LINE_BREAK.search(text):
        return text
    return " ".join(text.split())


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


# the shape tables are keyed by a kind's ``_value_``: a str hashes in C, a
# NodeKind through the Python-level Enum.__hash__
_MERMAID_BRACKETS = {
    NodeKind.START._value_: ("([", "])"),
    NodeKind.END._value_: ("([", "])"),
    NodeKind.PROCESS._value_: ("[", "]"),
    NodeKind.DECISION._value_: ("{", "}"),
    NodeKind.INPUT_OUTPUT._value_: ("[/", "/]"),
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
        left, right = _MERMAID_BRACKETS[node.kind._value_]
        lines.append(f"{node.id}{left}{_mermaid_text(node.text)}{right}")
    for edge, label in zip(graph.edges, _edge_labels(graph, upgraded)):
        if label is None:
            lines.append(f"{edge.src} --> {edge.dst}")
        else:
            lines.append(f"{edge.src} -->|{_clean(label).replace('|', '/')}| {edge.dst}")
    return "\n".join(lines) + "\n"


# --- DOT -------------------------------------------------------------------

_DOT_BARE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOT_KEYWORDS = {"graph", "digraph", "node", "edge", "strict", "subgraph"}


def _dot_id(value: str) -> str:
    if _DOT_BARE.fullmatch(value) and value not in _DOT_KEYWORDS:
        return value
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _dot_str(value: str) -> str:
    return '"' + _clean(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


_DOT_SHAPES = {
    NodeKind.START._value_: "oval",
    NodeKind.END._value_: "oval",
    NodeKind.PROCESS._value_: "box",
    NodeKind.DECISION._value_: "diamond",
    NodeKind.INPUT_OUTPUT._value_: "parallelogram",
}


def _emit_dot(graph: FlowGraph, upgraded: list[str] | None) -> str:
    lines = ["digraph G {"]
    if upgraded is not None:
        lines += ["  " + line for line in _taxonomy_comment("//")]
    # each node's id is quoted once, and looked up for the edges
    ids: dict[str, str] = {}
    for node in graph.nodes:
        ids[node.id] = quoted = _dot_id(node.id)
        lines.append(
            f"  {quoted} [shape={_DOT_SHAPES[node.kind._value_]}, "
            f"label={_dot_str(node.text)}];")
    for edge, label in zip(graph.edges, _edge_labels(graph, upgraded)):
        stmt = f"  {ids[edge.src]} -> {ids[edge.dst]}"
        if label is not None:
            stmt += f" [label={_dot_str(label)}]"
        lines.append(stmt + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- PlantUML --------------------------------------------------------------


# the kinds the walk tests per node or decision, as module names: reading a
# member off an Enum class (``NodeKind.END``) goes through EnumType's
# __getattr__ hook on Python 3.11, about 100 ns a read
_START, _END, _DECISION = NodeKind.START, NodeKind.END, NodeKind.DECISION
_YES, _NO = LabelKind.YES, LabelKind.NO


def _pu_text(text: str) -> str:
    return _clean(text).replace(";", ",")


def _layout(outs: dict[str, list[Edge]], entries: list[str], pos: dict[str, int],
            ) -> tuple[list[Edge], dict[str, list[str]], dict[str, int]]:
    """One depth-first search from the entries, following edges in
    declaration order: its back edges (which mark loop latches) in discovery
    order, and for every node it reaches, the forward successors (along the
    other edges) and the nodes forward-reachable from it, as a bitset in
    which bit ``i`` stands for the node at graph position ``i``.

    A node's set is filled when the node finishes: every forward successor
    finishes first, since an edge to a node still on the stack is a back
    edge.
    """
    back: list[Edge] = []
    fwd_succs: dict[str, list[str]] = {}
    reach: dict[str, int] = {}
    for entry in entries:
        if entry in fwd_succs:
            continue
        fwd_succs[entry] = []
        stack = [(entry, iter(outs[entry]))]
        while stack:
            nid, pending = stack[-1]
            for edge in pending:
                dst = edge.dst
                if dst not in fwd_succs:  # a tree edge
                    fwd_succs[nid].append(dst)
                    fwd_succs[dst] = []
                    stack.append((dst, iter(outs[dst])))
                    break
                if dst in reach:  # the target has finished
                    fwd_succs[nid].append(dst)
                else:  # the target is still on the stack
                    back.append(edge)
            else:
                stack.pop()
                found = 0
                for nxt in fwd_succs[nid]:
                    found |= 1 << pos[nxt] | reach[nxt]
                reach[nid] = found
    return back, fwd_succs, reach


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
    raises :class:`EmitError`. So does a flow that ends, with no ``stop``, at
    a node other than an End node, once a node is emitted after it (nodes of
    the else branch of a decision whose then branch holds that end do not
    count). ``upgraded`` is as for the other emitters; when it is given, the
    taxonomy comment follows ``@startuml`` and labels that cannot ride the
    structured syntax are dropped instead of raising.
    """

    def __init__(self, graph: FlowGraph, upgraded: list[str] | None):
        self.graph = graph
        # the upgraded labels keyed by id(edge), None for plain emission: the
        # edges of a valid graph are distinct objects, and an id hashes
        # without calling into Python as an Edge does
        self.upgraded = (None if upgraded is None
                         else dict(zip(map(id, graph.edges), upgraded)))
        self.by_id = {n.id: n for n in graph.nodes}
        self.pos = dict(zip(self.by_id, count()))
        self.outs: dict[str, list[Edge]] = {nid: [] for nid in self.by_id}
        # in-degrees, then forward in-degrees once the back edges are out:
        # whether an arrow-label line would unambiguously apply to one edge
        self.fwd_in = dict.fromkeys(self.by_id, 0)
        for edge in graph.edges:
            self.outs[edge.src].append(edge)
            self.fwd_in[edge.dst] += 1
        self.lines: list[str] = []
        self.visited: set[str] = set()
        # the first node that ends a flow but is not an end node, while no
        # statement closes that flow: the parser would read the next node
        # emitted as its successor
        self.open_end: str | None = None
        self.entries = [nid for nid, ins in self.fwd_in.items() if ins == 0]
        if not self.entries and graph.nodes:
            # every node has a predecessor (e.g. a loop back into the start
            # node): fall back to the first start-kind node, then first node
            starts = [n.id for n in graph.nodes if n.kind is NodeKind.START]
            self.entries = [starts[0] if starts else graph.nodes[0].id]
        # joins are computed over forward edges only: flow that wraps around a
        # loop's back edge must not count as branch reconvergence
        back, self.fwd_succs, self.fwd_reach = _layout(self.outs, self.entries, self.pos)
        self.loop_latches: dict[str, list[Edge]] = {}
        # the sort is stable: back edges from one node keep their edge order,
        # so the error below always names the same edge
        for edge in sorted(back, key=lambda e: self.pos[e.src]):
            if self.by_id[edge.src].kind is not NodeKind.DECISION:
                raise EmitError(
                    f"back edge {edge.src} -> {edge.dst} does not come from a "
                    "decision; the loop cannot be expressed")
            self.loop_latches.setdefault(edge.dst, []).append(edge)
            self.fwd_in[edge.dst] -= 1

    def label(self, edge: Edge) -> str | None:
        """The text in the edge's label slot, or None for none."""
        if self.upgraded is None:
            return edge.label.render()
        return self.upgraded[id(edge)]

    def emit(self) -> str:
        self.lines.append("@startuml")
        if self.upgraded is not None:
            self.lines += _taxonomy_comment("'")
        if self.graph.title:
            self.lines.append(f"title {_clean(self.graph.title)}")
        for entry in self.entries:
            if entry not in self.visited:
                _run(self.walk(entry, None, None))
        leftover = [nid for nid in self.by_id if nid not in self.visited]
        if leftover:
            raise EmitError(
                f"nodes unreachable from any entry cannot be emitted: {leftover}")
        self.lines.append("@enduml")
        return "\n".join(self.lines) + "\n"

    def open_end_error(self) -> EmitError:
        return EmitError(
            f"node {self.open_end!r} ends a flow but is not an end node, "
            "so the next node emitted would read as its successor")

    def follow(self, edge: Edge) -> str:
        """Emit the arrow-label line for a traversed sequential edge."""
        text = self.label(edge)
        if text is not None:
            if self.fwd_in[edge.dst] == 1:
                self.lines.append(f"-> {_pu_text(text)};")
            elif self.upgraded is None:
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
        text = self.label(edge)
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
            if self.open_end is not None:
                raise self.open_end_error()
            if nid in self.loop_latches and nid != loop_head:
                nid = yield self.emit_loop(nid)
                continue
            node = self.by_id[nid]
            self.visited.add(nid)
            if node.kind is _END:
                if self.outs[nid]:
                    raise EmitError(f"end node {nid!r} has outgoing edges")
                self.lines.append("stop")
                return
            if node.kind is _DECISION:
                nid = yield self.emit_branch(node, until)
                if nid is None:
                    return
                continue
            if node.kind is _START:
                self.lines.append("start")
            else:
                self.lines.append(f":{_pu_text(node.text)};")
            edge = self.single_successor(nid)
            if edge is None:
                self.open_end = nid
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
            back_text = self.label(back_edge)
            if back_text != "Yes":
                clause += f" is ({_pu_text(back_text) if back_text is not None else ''})"
            exit_text = self.label(exit_edge)
            if exit_text != "No":
                clause += f" not ({_pu_text(exit_text) if exit_text is not None else ''})"
            if self.open_end is not None:
                raise self.open_end_error()
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
        if second.label.kind is _YES or first.label.kind is _NO:
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
        # 'else' sets the flows that end in the then branch aside until 'endif'
        then_end, self.open_end = self.open_end, None
        self.lines.append(f"else ({self.branch_clause(else_edge)})")
        if else_edge.dst != stop_at:
            yield self.walk(else_edge.dst, stop_at, None)
        self.lines.append("endif")
        self.open_end = then_end or self.open_end
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
        texts = {n.id: _clean(n.text) for n in ug.base.nodes}
        lines = [f"({texts[t.src]}) -[{t.relation._value_}]-> ({texts[t.dst]})"
                 for t in ug.triples]
        return "\n".join(lines) + ("\n" if lines else "")

    return derived(ug, "emit_triples", compute)
