"""The PlantUML emitter as it was before its walk and layout were made
cheaper per node: the referee for the emitter's text and errors. It does
not check that a clause splits back (the charts it referees have plain
texts); ``TestTextContract`` covers that."""

from __future__ import annotations

from itertools import count
from typing import Generator

from flowsra.emitting import EmitError, _clean, _clean_texts, _edge_labels, _taxonomy_comment
from flowsra.ir import Edge, FlowGraph, NodeKind

# the kinds the walk tests per node or decision, as module names: reading a
# member off an Enum class (``NodeKind.END``) goes through EnumType's
# __getattr__ hook on Python 3.11, about 100 ns a read
_START, _END, _DECISION = NodeKind.START, NodeKind.END, NodeKind.DECISION


def _pu_text(text: str) -> str:
    """A single-line text as the activity syntax carries it."""
    return text.replace(";", ",")


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


class ReferencePlantUmlEmitter:
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
        # the text in each edge's label slot, None for none, keyed by
        # id(edge): the edges of a valid graph are distinct objects, and an
        # id hashes without calling into Python as an Edge does
        self.labels = dict(zip(map(id, graph.edges), _edge_labels(graph, upgraded)))
        # the activity syntax's text per distinct label text, '' for none
        self.label_texts: dict[str | None, str] = {None: ""}
        self.by_id = {n.id: n for n in graph.nodes}
        self.texts = _clean_texts(graph)
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

    def label_text(self, text: str | None) -> str:
        """A label's text as the activity syntax carries it; '' for none."""
        escaped = self.label_texts.get(text)
        if escaped is None:
            self.label_texts[text] = escaped = _pu_text(_clean(text))
        return escaped

    def emit(self) -> str:
        self.lines.append("@startuml")
        if self.upgraded:
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
        text = self.labels[id(edge)]
        if text is not None:
            if self.fwd_in[edge.dst] == 1:
                self.lines.append(f"-> {self.label_text(text)};")
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

    def join_of(self, decision: str, left: str, right: str) -> str | None:
        """The nearest node forward-reachable from both branches: the first
        breadth-first level that holds one, ties broken by graph order."""
        pos, reach = self.pos, self.fwd_reach
        common = ((1 << pos[left] | reach[left])
                  & (1 << pos[right] | reach[right]))
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
                self.lines.append(f":{_pu_text(self.texts[nid])};")
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
            clause = f"repeat while ({_pu_text(self.texts[latch])})"
            back_text = self.labels[id(back_edge)]
            if back_text != "Yes":
                clause += f" is ({self.label_text(back_text)})"
            exit_text = self.labels[id(exit_edge)]
            if exit_text != "No":
                clause += f" not ({self.label_text(exit_text)})"
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
        if second.label.text == "Yes" or first.label.text == "No":
            then_edge, else_edge = second, first
        else:
            then_edge, else_edge = first, second
        join = self.join_of(node.id, then_edge.dst, else_edge.dst)
        # branches that never reconverge still stop at the enclosing region
        # boundary (e.g. the latch of a surrounding loop)
        stop_at = join if join is not None else until
        then_text = self.label_text(self.labels[id(then_edge)])
        self.lines.append(f"if ({_pu_text(self.texts[node.id])}) then ({then_text})")
        if then_edge.dst != stop_at:
            yield self.walk(then_edge.dst, stop_at, None)
        # 'else' sets the flows that end in the then branch aside until 'endif'
        then_end, self.open_end = self.open_end, None
        self.lines.append(f"else ({self.label_text(self.labels[id(else_edge)])})")
        if else_edge.dst != stop_at:
            yield self.walk(else_edge.dst, stop_at, None)
        self.lines.append("endif")
        self.open_end = then_end or self.open_end
        return join


def reference_emit_plantuml(graph: FlowGraph, upgraded: list[str] | None) -> str:
    return ReferencePlantUmlEmitter(graph, upgraded).emit()
