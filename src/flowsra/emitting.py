"""Serializers from the graph representation back to dialect text.

All emitters are deterministic: nodes in graph order, then edges in graph
order, UTF-8 with LF line endings, bit-exact for identical input. Upgraded
emission keeps the host dialect syntactically valid by carrying relation
names in each edge's label slot.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import count
from operator import attrgetter
from typing import Callable, Generator

from .ir import (
    RELATION_DEFINITIONS_BLOCK,
    Edge,
    EdgeLabel,
    FlowGraph,
    Node,
    NodeKind,
    RelationType,
    UpgradedGraph,
    _Memoized,
    derived,
    require_valid,
)
from .parsing import MERMAID_ID, Dialect, _pu_if, _pu_repeat_while


@dataclass(frozen=True)
class InterlanguageDoc(_Memoized):
    """Serialized flowchart text tagged with its dialect; what is derived
    from it is kept on it (see :func:`flowsra.ir.derived`)."""

    dialect: Dialect
    text: str


class EmitError(RuntimeError):
    """The graph cannot be expressed in the target dialect's grammar subset."""


def relation_edge_label(relation: RelationType, original: EdgeLabel) -> str:
    """Label text for an upgraded edge: relation name, original label in
    parens. ``_value_`` is the relation's ``value``, read without the
    property call."""
    if original.text is None:
        return relation._value_
    return f"{relation._value_} ({original.text})"


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


def _clean_texts(graph: FlowGraph) -> dict[str, str]:
    """Each node's text in single-line form, by node id in node order, once
    per graph: all of the graph's emissions and its listing read them."""
    return derived(graph, "clean_texts", lambda: {n.id: _clean(n.text) for n in graph.nodes})


@cache
def _taxonomy_comment(marker: str) -> tuple[str, ...]:
    """The relation taxonomy as comment lines that start with ``marker``,
    built once per marker."""
    lines = ("Relation taxonomy:", *RELATION_DEFINITIONS_BLOCK.splitlines())
    return tuple(f"{marker} {line}" for line in lines)


# --- Mermaid ---------------------------------------------------------------

# the characters the parser would read as a shape's delimiter; a set tests a
# text for them faster than a regex match does
_MERMAID_DELIMITERS = frozenset('[]{}()|"/')
# the '#' of a literal entity that the parser decodes in quoted text
_MERMAID_ENTITY_HASH = re.compile("#(?=quot;|35;)")


def _mermaid_text(text: str) -> str:
    """Single-line node text, quoted unless it holds nothing the parser would
    read otherwise: a delimiter, outer whitespace, or a ``%%`` comment marker.
    Quoted text writes the ``#`` of a literal ``#quot;`` or ``#35;`` as
    ``#35;``, then each ``"`` as ``#quot;``."""
    if (text and _MERMAID_DELIMITERS.isdisjoint(text) and text == text.strip()
            and "%%" not in text):
        return text
    if "#" in text:
        text = _MERMAID_ENTITY_HASH.sub("#35;", text)
    return '"' + text.replace('"', "#quot;") + '"'


_MERMAID_BRACKETS = {
    NodeKind.START: ("([", "])"),
    NodeKind.END: ("([", "])"),
    NodeKind.PROCESS: ("[", "]"),
    NodeKind.DECISION: ("{", "}"),
    NodeKind.INPUT_OUTPUT: ("[/", "/]"),
}


def _edge_labels(graph: FlowGraph, upgraded: list[str] | None) -> list[str | None]:
    """Label text per edge, in edge order: the upgraded labels if given,
    else each edge's own."""
    return [edge.label.text for edge in graph.edges] if upgraded is None else upgraded


def _line_per_id(id_pattern: str) -> Callable[[dict[str, str]], bool]:
    """A test of whether every key of a dict matches ``id_pattern`` whole,
    by one match over the keys joined by line breaks; a key that holds one
    (so matches no id pattern here) shows in their count."""
    joined = re.compile(f"{id_pattern}(?:\n{id_pattern})*")

    def test(ids: dict[str, str]) -> bool:
        text = "\n".join(ids)
        return text.count("\n") == len(ids) - 1 and joined.fullmatch(text) is not None
    return test


_MERMAID_ID = re.compile(MERMAID_ID)
_all_mermaid_ids = _line_per_id(MERMAID_ID)


def _with_mermaid_ids(graph: FlowGraph) -> FlowGraph:
    """``graph``, with each node id that the Mermaid parser does not read as
    an id (DOT allows ``1`` or ``"a b"``) renamed to the first ``n<k>`` that
    no kept id uses."""
    if _all_mermaid_ids(_clean_texts(graph)):
        return graph
    kept = {n.id for n in graph.nodes if _MERMAID_ID.fullmatch(n.id)}
    fresh = (nid for nid in map("n{}".format, count()) if nid not in kept)
    ids = {n.id: n.id if n.id in kept else next(fresh) for n in graph.nodes}
    return FlowGraph(tuple(Node(ids[n.id], n.kind, n.text) for n in graph.nodes),
                     tuple(Edge(ids[e.src], ids[e.dst], e.label) for e in graph.edges))


def _emit_mermaid(graph: FlowGraph, upgraded: list[str] | None) -> str:
    lines = ["flowchart TD"]
    if upgraded is not None:
        lines += _taxonomy_comment("%%")
    labels = _edge_labels(graph, upgraded)
    texts = _clean_texts(graph).values()
    graph = _with_mermaid_ids(graph)
    for node, text in zip(graph.nodes, texts):
        left, right = _MERMAID_BRACKETS[node.kind]
        lines.append(f"{node.id}{left}{_mermaid_text(text)}{right}")
    # the arrow per distinct label text: a chart holds a handful of them
    arrows: dict[str | None, str] = {None: "-->"}
    for edge, label in zip(graph.edges, labels):
        arrow = arrows.get(label)
        if arrow is None:
            arrows[label] = arrow = f"-->|{_clean(label).replace('|', '/')}|"
        lines.append(f"{edge.src} {arrow} {edge.dst}")
    return "\n".join(lines) + "\n"


# --- DOT -------------------------------------------------------------------

_DOT_BARE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_all_dot_bare = _line_per_id(_DOT_BARE.pattern)
_DOT_KEYWORDS = {"graph", "digraph", "node", "edge", "strict", "subgraph"}


def _dot_id(value: str) -> str:
    if _DOT_BARE.fullmatch(value) and value not in _DOT_KEYWORDS:
        return value
    return _dot_str(value)


def _dot_str(text: str) -> str:
    """A single-line text as a quoted string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


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
        lines += _taxonomy_comment("  //")
    # each node's id as written, looked up for the edges; most charts'
    # ids are all bare, which one match tells
    texts = _clean_texts(graph)
    if _all_dot_bare(texts) and _DOT_KEYWORDS.isdisjoint(texts):
        ids = dict(zip(texts, texts))
    else:
        ids = {nid: _dot_id(nid) for nid in texts}
    for node, quoted, text in zip(graph.nodes, ids.values(), texts.values()):
        lines.append(
            f"  {quoted} [shape={_DOT_SHAPES[node.kind]}, "
            f"label={_dot_str(text)}];")
    # the statement's end per distinct label text, as for Mermaid's arrows
    ends: dict[str | None, str] = {None: ";"}
    for edge, label in zip(graph.edges, _edge_labels(graph, upgraded)):
        end = ends.get(label)
        if end is None:
            ends[label] = end = f" [label={_dot_str(_clean(label))}];"
        lines.append(f"  {ids[edge.src]} -> {ids[edge.dst]}{end}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- PlantUML --------------------------------------------------------------


# the kinds the walk tests per node or decision, as module names: reading a
# member off an Enum class (``NodeKind.END``) goes through EnumType's
# __getattr__ hook on Python 3.11, about 100 ns a read
_START, _END, _DECISION = NodeKind.START, NodeKind.END, NodeKind.DECISION
_DST = attrgetter("dst")
# an edge and the text in its label slot, None for none
_Out = tuple[Edge, "str | None"]


def _pu_text(text: str) -> str:
    """A single-line text as the activity syntax carries it."""
    return text.replace(";", ",")


def _repeat_while(cond: str, back: str | None, exit_text: str | None) -> str:
    """The loop clause; a None label is left out, and reads as the default."""
    clause = f"repeat while ({cond})"
    if back is not None:
        clause += f" is ({back})"
    if exit_text is not None:
        clause += f" not ({exit_text})"
    return clause


def _split_error(decision: str, clause: str) -> EmitError:
    return EmitError(f"decision {decision!r} cannot be expressed: "
                     f"the parser would split {clause!r} another way")


def _layout(outs: dict[str, list[_Out]], entries: list[str], pos: dict[str, int],
            ) -> tuple[list[_Out], dict[str, list[str]], dict[str, int]]:
    """One depth-first search from the entries, following edges in
    declaration order: its back edges (which mark loop latches), with their
    labels, in discovery order, and for every node it reaches, the forward
    successors (along the other edges) and the nodes forward-reachable from
    it, itself included, as a bitset in which bit ``i`` stands for the node
    at graph position ``i``.

    A node's set is filled when the node finishes: every forward successor
    finishes first, since an edge to a node still on the stack is a back
    edge.
    """
    back: list[_Out] = []
    fwd_succs: dict[str, list[str]] = {}
    reach: dict[str, int] = {}
    for entry in entries:
        fwd_succs[entry] = succs = []
        stack = [(entry, succs, iter(outs[entry]))]
        while stack:
            nid, succs, pending = stack[-1]
            for out in pending:
                dst = out[0].dst
                if dst not in fwd_succs:  # a tree edge
                    succs.append(dst)
                    fwd_succs[dst] = dst_succs = []
                    stack.append((dst, dst_succs, iter(outs[dst])))
                    break
                if dst in reach:  # the target has finished
                    succs.append(dst)
                else:  # the target is still on the stack
                    back.append(out)
            else:
                stack.pop()
                found = 1 << pos[nid]
                for nxt in succs:
                    found |= reach[nxt]
                reach[nid] = found
    return back, fwd_succs, reach


# A walk over one region of the chart. It yields the walk of each nested
# region (a branch arm, a loop body); a walk with a result leaves it in
# ``_PlantUmlEmitter.result`` as it ends. None is what a generator returns
# without raising StopIteration, so ``next`` ends a walk cheaply.
_Walk = Generator["_Walk", None, None]


def _run(walk: _Walk) -> None:
    """Drive a walk and the walks nested in it on an explicit stack, so
    nesting depth is bounded by memory, not by the recursion limit."""
    stack = [walk]
    while stack:
        nested = next(stack[-1], None)
        if nested is None:
            stack.pop()
        else:
            stack.append(nested)


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
        self.upgraded = upgraded is not None
        edges = graph.edges
        labels = _edge_labels(graph, upgraded)
        # the activity syntax's text per distinct label text, '' for none
        self.label_texts = {text: _pu_text(_clean(text)) for text in set(labels)
                            if text is not None}
        self.label_texts[None] = ""
        self.by_id = by_id = {n.id: n for n in graph.nodes}
        self.texts = _clean_texts(graph)
        self.pos = pos = dict(zip(by_id, count()))
        # each node's outgoing edges with their label texts, in edge order
        self.outs = outs = {nid: [] for nid in by_id}
        for out in zip(edges, labels):
            outs[out[0].src].append(out)
        # in-degrees, then forward in-degrees once the back edges are out:
        # whether an arrow-label line would unambiguously apply to one edge
        self.fwd_in = fwd_in = Counter(map(_DST, edges))
        self.lines: list[str] = []
        self.visited: set[str] = set()
        # the first node that ends a flow but is not an end node, while no
        # statement closes that flow: the parser would read the next node
        # emitted as its successor
        self.open_end: str | None = None
        # where the walk around the branch or loop emitted last goes on next;
        # None when no flow leaves it
        self.result: str | None = None
        self.entries = [nid for nid in by_id if nid not in fwd_in]
        if not self.entries and graph.nodes:
            # every node has a predecessor (e.g. a loop back into the start
            # node): fall back to the first start-kind node, then first node
            starts = [n.id for n in graph.nodes if n.kind is _START]
            self.entries = [starts[0] if starts else graph.nodes[0].id]
        # joins are computed over forward edges only: flow that wraps around a
        # loop's back edge must not count as branch reconvergence
        back, self.fwd_succs, self.fwd_reach = _layout(outs, self.entries, pos)
        self.loop_latches: dict[str, list[_Out]] = {}
        # the sort is stable: back edges from one node keep their edge order,
        # so the error below always names the same edge
        for out in sorted(back, key=lambda out: pos[out[0].src]):
            edge = out[0]
            if by_id[edge.src].kind is not _DECISION:
                raise EmitError(
                    f"back edge {edge.src} -> {edge.dst} does not come from a "
                    "decision; the loop cannot be expressed")
            self.loop_latches.setdefault(edge.dst, []).append(out)
            fwd_in[edge.dst] -= 1

    def emit(self) -> str:
        self.lines.append("@startuml")
        if self.upgraded:
            self.lines += _taxonomy_comment("'")
        # the parser strips the title, and reads a bare ``title`` as no statement
        title = _clean(self.graph.title or "")
        if title.strip():
            self.lines.append(f"title {title}")
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

    def join_of(self, decision: str, left: str, right: str) -> str | None:
        """The nearest node forward-reachable from both branches: the first
        breadth-first level that holds one, ties broken by graph order."""
        pos, succs = self.pos, self.fwd_succs
        common = self.fwd_reach[left] & self.fwd_reach[right]
        if not common:
            return None
        # some level hits: a branch along a forward edge reaches all it
        # forward-reaches without passing ``decision`` (forward edges make no
        # cycle), common nodes included; if both are back edges, both targets
        # were on the search's stack, so one forward-reaches the other, which
        # is common and in the first level
        seen = {decision}
        frontier = [left, right]
        while True:
            join = None
            for nid in frontier:
                if common >> pos[nid] & 1 and (join is None or pos[nid] < pos[join]):
                    join = nid
            if join is not None:
                return join
            nxt: list[str] = []
            for nid in frontier:
                if nid not in seen:
                    seen.add(nid)
                    nxt += succs[nid]
            frontier = nxt

    def walk(self, nid: str | None, until: str | None, loop_head: str | None) -> _Walk:
        visited, by_id, texts, outs_of = self.visited, self.by_id, self.texts, self.outs
        loop_latches, append = self.loop_latches, self.lines.append
        while nid is not None and nid != until:
            if nid in visited:
                raise EmitError(
                    f"node {nid!r} is reached by more than one flow; "
                    "the graph is not structured")
            if self.open_end is not None:
                raise self.open_end_error()
            if nid in loop_latches and nid != loop_head:
                yield self.emit_loop(nid)
                nid = self.result
                continue
            kind = by_id[nid].kind
            visited.add(nid)
            if kind is _END:
                if outs_of[nid]:
                    raise EmitError(f"end node {nid!r} has outgoing edges")
                append("stop")
                return
            if kind is _DECISION:
                yield self.emit_branch(nid, until)
                nid = self.result
                if nid is None:
                    return
                continue
            append("start" if kind is _START else f":{_pu_text(texts[nid])};")
            outs = outs_of[nid]
            if len(outs) != 1:
                if outs:
                    raise EmitError(
                        f"node {nid!r} fans out to {len(outs)} successors outside a decision")
                self.open_end = nid
                return
            edge, text = outs[0]
            nid = edge.dst
            if text is None:
                continue
            # a labeled step writes an arrow-label line, which the parser
            # reads onto the one edge into the next node
            if self.fwd_in[nid] == 1:
                append(f"-> {self.label_texts[text]};")
            elif not self.upgraded:
                raise EmitError(
                    f"label on converging edge {edge.src} -> {nid} cannot be expressed")

    def _nested_latches(self, latches: list[_Out]) -> list[_Out]:
        """Innermost first; each latch must forward-reach all latches that
        enclose it, otherwise the loops are not properly nested. So the
        latch whose source forward-reaches the sources of ``k`` latches, its
        own included, goes ``k``-th from the end, and every place is filled
        once."""
        pos, reach = self.pos, self.fwd_reach
        sources = 0
        for out in latches:
            sources |= 1 << pos[out[0].src]
        ordered: list[_Out | None] = [None] * len(latches)
        for out in latches:
            ordered[-(reach[out[0].src] & sources).bit_count()] = out
        if None in ordered:
            raise EmitError(
                f"loops closing at {latches[0][0].dst!r} are not properly nested")
        return ordered  # type: ignore[return-value]

    def emit_loop(self, head: str) -> _Walk:
        latches = self._nested_latches(self.loop_latches[head])
        for _ in latches:
            self.lines.append("repeat")
        yield self.walk(head, latches[0][0].src, head)
        label_texts = self.label_texts
        nid: str | None = None
        for index, back in enumerate(latches):
            latch = back[0].src
            if latch in self.visited:
                raise EmitError(f"loop at {head!r} is not properly nested")
            self.visited.add(latch)
            outs = self.outs[latch]
            if len(outs) != 2:
                raise EmitError(
                    f"loop decision {latch!r} must have exactly 2 branches, "
                    f"has {len(outs)}")
            exit_edge, exit_text = next(out for out in outs if out is not back)
            cond = _pu_text(self.texts[latch])
            back_label = None if back[1] == "Yes" else label_texts[back[1]]
            parts = (cond, back_label, None if exit_text == "No" else label_texts[exit_text])
            clause = _repeat_while(*parts)
            # each marker opens at a ``)`` that blanks follow, and the clause
            # writes a ``)`` after each of these parts, so only a part that
            # holds one before its closing run of ``)`` can move a part
            if ((")" in cond.rstrip(")") or ")" in (back_label or "").rstrip(")"))
                    and _pu_repeat_while(clause) != parts):
                # upgraded emission drops the back label (it may hold ``) not (``)
                parts = (cond, "", parts[2])
                if not self.upgraded or _pu_repeat_while(_repeat_while(*parts)) != parts:
                    raise _split_error(latch, clause)
                clause = _repeat_while(*parts)
            if self.open_end is not None:
                raise self.open_end_error()
            self.lines.append(clause)
            nid = exit_edge.dst
            if index + 1 < len(latches):
                next_latch = latches[index + 1][0].src
                if nid != next_latch:
                    yield self.walk(nid, next_latch, None)
                nid = None
        self.result = nid

    def emit_branch(self, nid: str, until: str | None) -> _Walk:
        outs = self.outs[nid]
        if len(outs) != 2:
            raise EmitError(
                f"decision {nid!r} has {len(outs)} branches; "
                "only binary decisions are representable")
        (then_edge, then_text), (else_edge, else_text) = outs
        if else_edge.label.text == "Yes" or then_edge.label.text == "No":
            then_edge, then_text, else_edge, else_text = else_edge, else_text, then_edge, then_text
        then_dst, else_dst = then_edge.dst, else_edge.dst
        join = self.join_of(nid, then_dst, else_dst)
        # branches that never reconverge still stop at the enclosing region
        # boundary (e.g. the latch of a surrounding loop)
        stop_at = join if join is not None else until
        label_texts, lines = self.label_texts, self.lines
        cond, label = _pu_text(self.texts[nid]), label_texts[then_text]
        clause = f"if ({cond}) then ({label})"
        # the condition closes at the last ``) then``, so only a label that
        # holds one can move a part, and an empty label always fits
        if "then" in label and _pu_if(clause) != (cond, label):
            if not self.upgraded:
                raise _split_error(nid, clause)
            clause = f"if ({cond}) then ()"
        lines.append(clause)
        if then_dst != stop_at:
            yield self.walk(then_dst, stop_at, None)
        # 'else' sets the flows that end in the then branch aside until 'endif'
        then_end, self.open_end = self.open_end, None
        lines.append(f"else ({label_texts[else_text]})")
        if else_dst != stop_at:
            yield self.walk(else_dst, stop_at, None)
        lines.append("endif")
        self.open_end = then_end or self.open_end
        self.result = join


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
        # one label per distinct (relation, label text): all that
        # relation_edge_label reads, and a chart holds a handful of them
        built: dict[tuple[RelationType, str | None], str] = {}
        labels = []
        for edge, (relation, _) in zip(ug.base.edges, ug.relations):
            key = relation, edge.label.text
            label = built.get(key)
            if label is None:
                built[key] = label = relation_edge_label(relation, edge.label)
            labels.append(label)
        return InterlanguageDoc(dialect, _EMITTERS[dialect](ug.base, labels))

    return derived(ug, ("emit_upgraded", dialect), compute)


def emit_triples(ug: UpgradedGraph) -> str:
    """Plain triple listing, one line per edge in edge order. Computed once
    per upgraded graph."""
    def compute() -> str:
        texts = _clean_texts(ug.base)
        lines = [f"({texts[edge.src]}) -[{relation._value_}]-> ({texts[edge.dst]})"
                 for edge, (relation, _) in zip(ug.base.edges, ug.relations)]
        return "\n".join(lines) + ("\n" if lines else "")

    return derived(ug, "emit_triples", compute)
