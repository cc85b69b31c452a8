"""Emission: determinism, round-trips, and the upgraded interlanguage."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from flowsra.emitting import (
    EmitError,
    _PlantUmlEmitter,
    emit,
    emit_triples,
    emit_upgraded,
    relation_edge_label,
)
from flowsra.ir import (
    NO,
    UNLABELED,
    YES,
    Edge,
    EdgeLabel,
    FlowGraph,
    GraphValidationError,
    LabelKind,
    Node,
    NodeKind,
    RelationType,
)
from flowsra.parsing import Dialect, parse_text

from gen import (
    deep_if_text,
    deep_repeat_text,
    drop_out_edges,
    isomorphic,
    plantuml_view,
    rand_deep_activity_text,
    rand_flow_graph,
    rand_structured_graph,
    side_by_side,
    split_relation_label,
    upgrade_by_edge,
)


def sample_graph():
    return FlowGraph(
        nodes=(
            Node("S", NodeKind.START, "Start"),
            Node("W", NodeKind.PROCESS, "Do the work"),
            Node("E", NodeKind.END, "End"),
        ),
        edges=(Edge("S", "W"), Edge("W", "E", YES)),
    )


def upgraded_sample():
    graph = FlowGraph(
        nodes=(
            Node("H", NodeKind.DECISION, "Finish your homework?"),
            Node("B", NodeKind.PROCESS, "Break"),
        ),
        edges=(Edge("H", "B", YES),),
    )
    return upgrade_by_edge(graph, {graph.edges[0]: RelationType.CONDITIONALITY})


class TestEmitBasics:
    def test_empty_mermaid_is_header_only(self):
        assert emit(FlowGraph(), Dialect.MERMAID).text == "flowchart TD\n"

    def test_three_node_dot_round_trips(self):
        doc = emit(sample_graph(), Dialect.DOT)
        _, result = parse_text(doc.text)
        assert result.ok
        assert isomorphic(result.graph, sample_graph())

    def test_emission_is_deterministic(self):
        for dialect in Dialect:
            a = emit(sample_graph(), dialect).text
            b = emit(sample_graph(), dialect).text
            assert a == b

    def test_invalid_graph_raises(self):
        bad = FlowGraph(nodes=(Node("A", NodeKind.PROCESS, "x"),),
                        edges=(Edge("A", "missing"),))
        with pytest.raises(GraphValidationError):
            emit(bad, Dialect.MERMAID)

    def test_lf_endings_only(self):
        for dialect in Dialect:
            text = emit(sample_graph(), dialect).text
            assert "\r" not in text
            assert text.endswith("\n")


@st.composite
def seeds(draw):
    return draw(st.integers(min_value=0, max_value=2**32 - 1))


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(seeds())
    def test_mermaid_round_trip(self, seed):
        graph = rand_flow_graph(random.Random(seed))
        doc = emit(graph, Dialect.MERMAID)
        _, result = parse_text(doc.text)
        assert result.ok, [str(d) for d in result.diagnostics]
        assert isomorphic(result.graph, graph)

    @settings(max_examples=60, deadline=None)
    @given(seeds())
    def test_dot_round_trip(self, seed):
        graph = rand_flow_graph(random.Random(seed))
        doc = emit(graph, Dialect.DOT)
        _, result = parse_text(doc.text)
        assert result.ok, [str(d) for d in result.diagnostics]
        assert isomorphic(result.graph, graph)

    @settings(max_examples=60, deadline=None)
    @given(seeds())
    def test_plantuml_round_trip(self, seed):
        graph = rand_structured_graph(random.Random(seed))
        doc = emit(graph, Dialect.PLANTUML)
        _, result = parse_text(doc.text)
        assert result.ok, [str(d) for d in result.diagnostics]
        assert isomorphic(result.graph, graph)

    def test_cross_dialect_conversion_chain(self):
        # mermaid -> dot -> mermaid preserves the graph up to id renaming
        for seed in range(20):
            graph = rand_flow_graph(random.Random(seed))
            _, via_dot = parse_text(emit(graph, Dialect.DOT).text)
            assert via_dot.ok
            _, back = parse_text(emit(via_dot.graph, Dialect.MERMAID).text)
            assert back.ok
            assert isomorphic(back.graph, graph)

    def test_structured_graph_survives_all_dialects(self):
        # plantuml-born graphs are representable everywhere
        for seed in range(20):
            graph = rand_structured_graph(random.Random(seed))
            for dialect in Dialect:
                _, result = parse_text(emit(graph, dialect).text)
                assert result.ok
                assert isomorphic(result.graph, graph)

    def test_quoted_texts_survive(self):
        graph = FlowGraph(nodes=(
            Node("A", NodeKind.PROCESS, "Wash (twice)"),
            Node("B", NodeKind.PROCESS, "a [b] {c} | d"),
        ), edges=(Edge("A", "B"),))
        for dialect in (Dialect.MERMAID, Dialect.DOT):
            _, result = parse_text(emit(graph, dialect).text)
            assert result.ok
            assert isomorphic(result.graph, graph)


class TestPlantUmlLimits:
    def test_three_way_decision_is_rejected(self):
        graph = FlowGraph(
            nodes=(Node("D", NodeKind.DECISION, "pick?"),
                   Node("A", NodeKind.PROCESS, "a"),
                   Node("B", NodeKind.PROCESS, "b"),
                   Node("C", NodeKind.PROCESS, "c")),
            edges=(Edge("D", "A", YES),
                   Edge("D", "B", NO),
                   Edge("D", "C", EdgeLabel(LabelKind.OTHER, "maybe"))),
        )
        with pytest.raises(EmitError):
            emit(graph, Dialect.PLANTUML)

    def test_end_node_with_an_outgoing_edge_is_rejected(self):
        _, result = parse_text('digraph G { s [shape=oval, label="Start"]; '
                               'e [shape=oval, label="End"]; a [label="Work"]; '
                               's -> e; e -> a; }')
        assert result.ok and result.graph.nodes[1].kind is NodeKind.END
        with pytest.raises(EmitError, match="^end node 'e' has outgoing edges$"):
            emit(result.graph, Dialect.PLANTUML)

    def test_pure_cycle_is_rejected(self):
        graph = FlowGraph(
            nodes=(Node("A", NodeKind.PROCESS, "a"), Node("B", NodeKind.PROCESS, "b")),
            edges=(Edge("A", "B"), Edge("B", "A")),
        )
        with pytest.raises(EmitError):
            emit(graph, Dialect.PLANTUML)

    @pytest.mark.parametrize("self_loop_first", [True, False])
    def test_back_edge_error_names_the_first_in_edge_order(self, self_loop_first):
        # L has two back edges; the error must name the one listed first
        # whatever the hash order of the edges (ids vary it between charts)
        for variant in range(40):
            s, h, l, e = (f"{name}{variant}" for name in "SHLE")
            loops = [Edge(l, l), Edge(l, h)]
            if not self_loop_first:
                loops.reverse()
            graph = FlowGraph(
                nodes=(Node(s, NodeKind.START, "Start"),
                       Node(h, NodeKind.PROCESS, "head"),
                       Node(l, NodeKind.PROCESS, "latch"),
                       Node(e, NodeKind.END, "End")),
                edges=(Edge(s, h), Edge(h, l), *loops, Edge(h, e)),
            )
            first = loops[0]
            with pytest.raises(EmitError,
                               match=f"back edge {first.src} -> {first.dst} "):
                emit(graph, Dialect.PLANTUML)

    def test_loop_back_into_start_round_trips(self):
        # no in-degree-0 node: the start node itself sits on the loop
        graph = FlowGraph(
            nodes=(Node("A", NodeKind.START, ""),
                   Node("B", NodeKind.DECISION, "OK?"),
                   Node("C", NodeKind.END, "")),
            edges=(Edge("A", "B"),
                   Edge("B", "C", YES),
                   Edge("B", "A", NO)),
        )
        doc = emit(graph, Dialect.PLANTUML)
        _, result = parse_text(doc.text)
        assert result.ok
        assert isomorphic(result.graph, graph)


def mermaid_graph(text: str) -> FlowGraph:
    _, result = parse_text(text)
    assert result.ok
    return result.graph


def sequential_upgrade(graph: FlowGraph):
    return upgrade_by_edge(graph, dict.fromkeys(graph.edges, RelationType.SEQUENTIALITY))


class TestDeadEnds:
    """A flow that ends at a node other than an End node has no ``stop``, so
    the PlantUML parser reads the next node emitted as that node's
    successor: emission refuses such a chart unless nothing follows."""

    TWO_FLOWS = "flowchart TD\nA[Load] --> B[Save]\nC[Open] --> D[Close]\n"
    ARM_ENDS = ("flowchart TD\nA{c1} -->|Yes| B{c2}\nA -->|No| E[e]\n"
                "B -->|Yes| X[x]\nB -->|No| Y[y]\nY --> J[j]\nE --> J\n"
                "J --> Z([End])\n")

    BODY_ENDS = ("flowchart TD\nS([Start]) --> H[h] --> D{d}\nD -->|Yes| X[x]\n"
                 "D -->|No| L{l}\nL -->|Yes| H\nL -->|No| E([End])\n")

    # the loop decision is refused too, before its exit is followed
    LATCH_FOLLOWS = ("flowchart TD\nS([Begin]) --> A[a] --> H{h}\nH -->|Yes| L{l}\n"
                     "H -->|No| X[x]\nL -->|Yes| L\nL -->|No| H\n")

    @pytest.mark.parametrize("text, node", [(TWO_FLOWS, "B"), (ARM_ENDS, "X"),
                                            (BODY_ENDS, "X"), (LATCH_FOLLOWS, "X")])
    def test_a_flow_followed_by_another_node_is_refused(self, text, node):
        graph = mermaid_graph(text)
        message = f"node '{node}' ends a flow but is not an end node"
        with pytest.raises(EmitError, match=message):
            emit(graph, Dialect.PLANTUML)
        with pytest.raises(EmitError, match=message):
            emit_upgraded(sequential_upgrade(graph), Dialect.PLANTUML)

    @pytest.mark.parametrize("text", [
        # the last flow
        "flowchart TD\nA([Start]) --> B[Save]\n",
        # both branches end, and nothing follows the decision
        "flowchart TD\nA{c} -->|Yes| B[b]\nA -->|No| C[c]\n",
        # the else branch is not read as following the then branch
        "flowchart TD\nA{c} -->|Yes| B[b]\nA -->|No| C[c]\nC --> D([End])\n",
        # every earlier flow ends in stop
        "flowchart TD\nA([Start]) --> B[b] --> C([End])\nD[d] --> E([Stop])\nF[f]\n",
    ])
    def test_flows_that_nothing_follows_round_trip(self, text):
        graph = mermaid_graph(text)
        _, result = parse_text(emit(graph, Dialect.PLANTUML).text)
        assert result.ok
        assert isomorphic(result.graph, plantuml_view(graph))
        _, result = parse_text(emit_upgraded(sequential_upgrade(graph), Dialect.PLANTUML).text)
        assert result.ok
        assert isomorphic(strip_relations(result.graph), plantuml_view(graph))

    @settings(max_examples=150, deadline=None)
    @given(seeds())
    def test_dead_ends_and_components(self, seed):
        rng = random.Random(seed)

        def pick() -> FlowGraph:
            if rng.random() < 0.7:
                return rand_structured_graph(rng)
            return rand_flow_graph(rng)

        graph = pick()
        if rng.random() < 0.5:
            graph = side_by_side(graph, pick())
        if rng.random() < 0.7:
            graph = drop_out_edges(graph, rng)
        for dialect in (Dialect.MERMAID, Dialect.DOT):
            _, result = parse_text(emit(graph, dialect).text)
            assert result.ok, dialect
            assert isomorphic(result.graph, graph), dialect
        try:
            text = emit(graph, Dialect.PLANTUML).text
        except EmitError:
            return
        _, result = parse_text(text)
        assert result.ok, [str(d) for d in result.diagnostics]
        assert isomorphic(result.graph, plantuml_view(graph))


# every line break of str.splitlines, alone or with spaces around it
_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
           "\u2029", " \u2028 ", "\n\n"]
# words, each followed by a line break
_broken_text = st.lists(
    st.tuples(st.sampled_from(["load", "the", "file", "again"]), st.sampled_from(_BREAKS)),
    min_size=1, max_size=4).map(lambda parts: "".join(word + brk for word, brk in parts))


class TestLineBreaks:
    """The Mermaid and PlantUML parsers split lines as ``str.splitlines``
    does, so emission writes every such line break in a text as a space."""

    def test_texts_are_collapsed_exactly_at_the_breaks_of_splitlines(self):
        for code in range(0x2100):
            text = f"a{chr(code)}b"
            expected = "a b" if len(text.splitlines()) == 2 else text
            assert emit_triples(sequential_upgrade(FlowGraph(
                (Node("A", NodeKind.PROCESS, text), Node("B", NodeKind.PROCESS, "x")),
                (Edge("A", "B"),)))) == f"({expected}) -[Sequentiality]-> (x)\n", hex(code)

    @settings(max_examples=60, deadline=None)
    @given(_broken_text, _broken_text, _broken_text, _broken_text)
    def test_broken_texts_and_labels_round_trip(self, action, cond, step_label, arm_label):
        graph = FlowGraph(
            nodes=(Node("S", NodeKind.START, ""), Node("A", NodeKind.PROCESS, action),
                   Node("D", NodeKind.DECISION, cond), Node("B", NodeKind.PROCESS, "b"),
                   Node("C", NodeKind.INPUT_OUTPUT, "c"), Node("E", NodeKind.END, "")),
            edges=(Edge("S", "A"), Edge("A", "D", EdgeLabel.from_text(step_label)),
                   Edge("D", "B", YES), Edge("D", "C", EdgeLabel.from_text(arm_label)),
                   Edge("B", "E"), Edge("C", "E")))

        def collapsed(text: str) -> str:
            return " ".join(text.split())

        expected = FlowGraph(
            tuple(Node(n.id, n.kind, collapsed(n.text)) for n in graph.nodes),
            tuple(Edge(e.src, e.dst, EdgeLabel.from_text(collapsed(str(e.label))))
                  for e in graph.edges))
        ug = sequential_upgrade(graph)
        for dialect in Dialect:
            for text in (emit(graph, dialect).text, emit_upgraded(ug, dialect).text):
                assert text.splitlines() == text.split("\n")[:-1], dialect
            _, result = parse_text(emit(graph, dialect).text)
            assert result.ok, dialect
            view = plantuml_view(expected) if dialect is Dialect.PLANTUML else expected
            assert isomorphic(result.graph, view), dialect
        triples = emit_triples(ug)
        assert triples.splitlines() == triples.split("\n")[:-1]


def strip_relations(graph: FlowGraph) -> FlowGraph:
    """The graph with each relation label replaced by the original label."""

    def original(label: EdgeLabel) -> EdgeLabel:
        pair = split_relation_label(label.render() or "")
        return label if pair is None else pair[1]

    return FlowGraph(graph.nodes, tuple(Edge(e.src, e.dst, original(e.label))
                                        for e in graph.edges))


class TestDeepNesting:
    """Nesting far past the interpreter's recursion limit."""

    DEEP = [pytest.param(deep_if_text(1200), id="if-else-1200"),
            pytest.param(deep_repeat_text(300), id="repeat-300")]

    @pytest.mark.parametrize("text", DEEP)
    def test_emit_round_trips_in_every_dialect(self, text):
        _, parsed = parse_text(text)
        assert parsed.ok
        for dialect in Dialect:
            _, result = parse_text(emit(parsed.graph, dialect).text)
            assert result.ok, dialect
            assert isomorphic(result.graph, parsed.graph), dialect

    @pytest.mark.parametrize("text", DEEP)
    def test_emit_upgraded_round_trips_in_every_dialect(self, text):
        _, parsed = parse_text(text)
        graph = parsed.graph
        kinds = {n.id: n.kind for n in graph.nodes}
        ug = upgrade_by_edge(graph, {
            e: RelationType.CONDITIONALITY if kinds[e.src] is NodeKind.DECISION
            else RelationType.SEQUENTIALITY
            for e in graph.edges})
        for dialect in Dialect:
            _, result = parse_text(emit_upgraded(ug, dialect).text)
            assert result.ok, dialect
            assert isomorphic(strip_relations(result.graph), graph), dialect


class TestDeepAndLargeRoundTrips:
    """Random structured charts up to 120 levels deep and ~2000 nodes."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=120), st.integers(min_value=0, max_value=2))
    def test_every_dialect_and_a_chain_through_all_three(self, seed, depth, width):
        _, parsed = parse_text(rand_deep_activity_text(random.Random(seed), depth, width))
        assert parsed.ok, [str(d) for d in parsed.diagnostics]
        graph = parsed.graph
        for dialect in Dialect:
            _, result = parse_text(emit(graph, dialect).text)
            assert result.ok, dialect
            assert isomorphic(result.graph, graph), dialect
        chained = graph
        for dialect in (Dialect.MERMAID, Dialect.DOT, Dialect.PLANTUML):
            _, result = parse_text(emit(chained, dialect).text)
            assert result.ok, dialect
            chained = result.graph
        assert isomorphic(chained, graph)


# The set-based reachability and breadth-first join search the emitter used
# before it kept reachability as bitsets; the referee for the joins it picks.

def reference_reachable(succs: dict[str, list[str]]) -> dict[str, set[str]]:
    reach: dict[str, set[str]] = {}
    for nid in succs:
        seen: set[str] = set()
        stack = list(succs[nid])
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(succs[cur])
        reach[nid] = seen
    return reach


def reference_join(succs, reach, order, decision, left, right):
    common = ({left} | reach[left]) & ({right} | reach[right])
    if not common:
        return None
    seen = {decision}
    frontier = [left, right]
    while frontier:
        hits = [nid for nid in frontier if nid in common]
        if hits:
            return min(hits, key=order.index)
        nxt: list[str] = []
        for nid in frontier:
            if nid in seen:
                continue
            seen.add(nid)
            nxt.extend(succs[nid])
        frontier = nxt
    return None


def check_joins_against_reference(graph: FlowGraph) -> int:
    """Compare the emitter's forward reachability and every decision's join
    with the reference, over the nodes reachable from an entry; returns the
    number of decisions compared."""
    try:
        emitter = _PlantUmlEmitter(graph, None)
    except EmitError:  # a back edge that no decision closes
        return 0
    order = [n.id for n in graph.nodes]
    reach = reference_reachable(emitter.fwd_succs)
    reachable = set(emitter.entries)
    stack = list(emitter.entries)
    while stack:
        for edge in emitter.outs[stack.pop()]:
            if edge.dst not in reachable:
                reachable.add(edge.dst)
                stack.append(edge.dst)
    compared = 0
    for nid in reachable:
        bits = emitter.fwd_reach[nid]
        assert {order[i] for i in range(len(order)) if bits >> i & 1} == reach[nid]
        outs = emitter.outs[nid]
        if emitter.by_id[nid].kind is NodeKind.DECISION and len(outs) == 2:
            left, right = outs[0].dst, outs[1].dst
            assert emitter.join_of(nid, left, right) == reference_join(
                emitter.fwd_succs, reach, order, nid, left, right), nid
            compared += 1
    return compared


NESTED_STOP = """@startuml
start
if (Outer?) then (yes)
  if (Inner?) then (yes)
    :x;
    stop
  else (no)
    :y;
  endif
else (no)
  :b;
endif
:z;
stop
@enduml
"""


class TestJoinReferee:
    @settings(max_examples=80, deadline=None)
    @given(seeds())
    def test_structured_charts(self, seed):
        check_joins_against_reference(rand_structured_graph(random.Random(seed)))

    @settings(max_examples=80, deadline=None)
    @given(seeds())
    def test_unstructured_graphs(self, seed):
        # several candidate joins at one level exercise the tie-break
        check_joins_against_reference(rand_flow_graph(random.Random(seed), max_middle=8))

    def test_nested_stop_joins_after_the_outer_branch(self):
        # an immediate post-dominator rule finds no join for Outer? (its then
        # branch can stop), which would leave :z reached by two flows
        _, parsed = parse_text(NESTED_STOP)
        graph = parsed.graph
        assert check_joins_against_reference(graph) == 2
        emitter = _PlantUmlEmitter(graph, None)
        by_text = {n.text: n.id for n in graph.nodes}
        then_edge, else_edge = emitter.outs[by_text["Outer?"]]
        assert emitter.by_id[emitter.join_of(
            by_text["Outer?"], then_edge.dst, else_edge.dst)].text == "z"
        _, result = parse_text(emit(graph, Dialect.PLANTUML).text)
        assert result.ok
        assert isomorphic(result.graph, graph)

    def test_tie_at_one_level_goes_to_the_node_declared_first(self):
        # C and E both join the branches one step past A and B; the edges
        # reach C first, but E is declared first
        graph = FlowGraph(
            nodes=(Node("D", NodeKind.DECISION, "pick?"),
                   Node("A", NodeKind.PROCESS, "a"),
                   Node("B", NodeKind.PROCESS, "b"),
                   Node("E", NodeKind.PROCESS, "e"),
                   Node("C", NodeKind.PROCESS, "c")),
            edges=(Edge("D", "A", YES), Edge("D", "B", NO),
                   Edge("A", "C"), Edge("A", "E"), Edge("B", "C"), Edge("B", "E")),
        )
        assert check_joins_against_reference(graph) == 1
        emitter = _PlantUmlEmitter(graph, None)
        assert emitter.join_of("D", "A", "B") == "E"


class TestMermaidIds:
    """DOT allows node ids that the Mermaid grammar does not: Mermaid
    emission keeps the ids that fit it and gives the others fresh ones."""

    DOT = ('digraph G { 1 -> 2; -3.5 -> "a b"; "a-b" -> "a.b"; "\u00e9" -> node_x; '
           '"node" -> "edge"; n0 -> 1; "\u0663" -> 2 }')

    def test_plain_and_upgraded_emission_parse_back(self):
        _, parsed = parse_text(self.DOT)
        assert parsed.ok
        graph = parsed.graph
        _, result = parse_text(emit(graph, Dialect.MERMAID).text)
        assert result.ok and isomorphic(result.graph, graph)
        ug = upgrade_by_edge(graph, dict.fromkeys(graph.edges, RelationType.CAUSALITY))
        _, result = parse_text(emit_upgraded(ug, Dialect.MERMAID).text)
        assert result.ok and isomorphic(strip_relations(result.graph), graph)

    def test_fitting_ids_are_kept_and_fresh_ids_avoid_them(self):
        _, parsed = parse_text(self.DOT)
        _, result = parse_text(emit(parsed.graph, Dialect.MERMAID).text)
        assert [n.id for n in result.graph.nodes] == [
            "n1", "n2", "n3", "n4", "n5", "n6", "n7", "node_x", "node", "edge", "n0", "n8"]
        assert [n.text for n in result.graph.nodes] == [n.text for n in parsed.graph.nodes]


class TestDotIds:
    """A DOT id is written bare only when all of it is a bare id: ``$``
    also matches before a final newline, so an id that ends in one must be
    quoted, or it reads back without it."""

    @pytest.mark.parametrize("node_id", ["go\n", "go\n\n", "a\nb", "\n", "go\r\n", "node\n"])
    def test_ids_with_line_breaks_round_trip(self, node_id):
        quoted = '"' + node_id + '"'
        _, parsed = parse_text(f'digraph {{ {quoted} [shape=box, label="Go"]; '
                               f'b [shape=box, label="B"]; {quoted} -> b; }}')
        assert parsed.ok
        graph = parsed.graph
        assert [n.id for n in graph.nodes] == [node_id, "b"]
        ug = upgrade_by_edge(graph, dict.fromkeys(graph.edges, RelationType.CAUSALITY))
        _, result = parse_text(emit(graph, Dialect.DOT).text)
        assert result.ok and result.graph == graph
        _, result = parse_text(emit_upgraded(ug, Dialect.DOT).text)
        assert result.ok and strip_relations(result.graph) == graph
        _, result = parse_text(emit(graph, Dialect.MERMAID).text)
        assert result.ok and isomorphic(result.graph, graph)


class TestEmitUpgraded:
    def test_zero_edges_has_taxonomy_only(self):
        ug = upgrade_by_edge(FlowGraph(nodes=(Node("S", NodeKind.START, "Start"),)), {})
        text = emit_upgraded(ug, Dialect.MERMAID).text
        assert text.startswith("flowchart TD\n")
        for relation in RelationType:
            assert text.count(relation.definition) == 1
        assert "-->" not in text

    def test_edge_label_carries_relation_and_original(self):
        text = emit_upgraded(upgraded_sample(), Dialect.MERMAID).text
        assert "|Conditionality (Yes)|" in text

    def test_relation_labeled_line_per_edge(self):
        graph = sample_graph()
        ug = upgrade_by_edge(graph, {edge: RelationType.SEQUENTIALITY for edge in graph.edges})
        for dialect in (Dialect.MERMAID, Dialect.DOT):
            text = emit_upgraded(ug, dialect).text
            labeled = [line for line in text.splitlines()
                       if "Sequentiality" in line and "taxonomy" not in line
                       and not line.strip().startswith(("%%", "//", "'"))]
            assert len(labeled) == len(graph.edges)

    def test_reparse_recovers_relations(self):
        graph = sample_graph()
        relations = {graph.edges[0]: RelationType.SEQUENTIALITY,
                     graph.edges[1]: RelationType.CONDITIONALITY}
        ug = upgrade_by_edge(graph, relations)
        for dialect in Dialect:
            doc = emit_upgraded(ug, dialect)
            _, result = parse_text(doc.text)
            assert result.ok, (dialect, [str(d) for d in result.diagnostics])
            recovered = []
            for edge in result.graph.edges:
                rendered = edge.label.render()
                assert rendered is not None
                pair = split_relation_label(rendered)
                assert pair is not None
                recovered.append(pair)
            assert sorted(r.value for r, _ in recovered) == sorted(
                r.value for r in relations.values())
            # original yes/no polarity rides along in parentheses
            assert (RelationType.CONDITIONALITY, YES) in recovered

    def test_upgraded_plantuml_reparses_cleanly(self):
        graph = rand_structured_graph(random.Random(7))
        ug = upgrade_by_edge(graph, {e: RelationType.SEQUENTIALITY for e in graph.edges})
        doc = emit_upgraded(ug, Dialect.PLANTUML)
        _, result = parse_text(doc.text)
        assert result.ok, [str(d) for d in result.diagnostics]
        for relation in RelationType:
            assert doc.text.count(relation.definition) == 1

    def test_upgraded_plantuml_puts_the_taxonomy_before_the_title(self):
        graph = FlowGraph(
            nodes=(Node("S", NodeKind.START, "Start"), Node("W", NodeKind.PROCESS, "Work"),
                   Node("D", NodeKind.DECISION, "Done?"), Node("E", NodeKind.END, "End")),
            edges=(Edge("S", "W"), Edge("W", "D"), Edge("D", "W", NO),
                   Edge("D", "E", YES)),
            title="Homework")
        ug = upgrade_by_edge(graph, dict(zip(graph.edges, (
            RelationType.SEQUENTIALITY, RelationType.CAUSALITY,
            RelationType.CONDITIONALITY, RelationType.CONDITIONALITY))))
        assert emit_upgraded(ug, Dialect.PLANTUML).text == (
            "@startuml\n"
            "' Relation taxonomy:\n"
            + "".join(f"' {r.value}: {r.definition}\n" for r in RelationType)
            + "title Homework\n"
            "start\n"
            "-> Sequentiality;\n"
            "repeat\n"
            ":Work;\n"
            "-> Causality;\n"
            "repeat while (Done?) is (Conditionality (No)) not (Conditionality (Yes))\n"
            "stop\n"
            "@enduml\n")


class TestEmitTriples:
    def test_empty(self):
        ug = upgrade_by_edge(FlowGraph(nodes=(Node("S", NodeKind.START, ""),)), {})
        assert emit_triples(ug) == ""

    def test_conditionality_pair_format(self):
        assert emit_triples(upgraded_sample()) == (
            "(Finish your homework?) -[Conditionality]-> (Break)\n")

    def test_two_triples_in_edge_order(self):
        graph = sample_graph()
        ug = upgrade_by_edge(graph, {graph.edges[0]: RelationType.SEQUENTIALITY,
                                     graph.edges[1]: RelationType.CONDITIONALITY})
        lines = emit_triples(ug).splitlines()
        assert lines == [
            "(Start) -[Sequentiality]-> (Do the work)",
            "(Do the work) -[Conditionality]-> (End)",
        ]


class TestRelationLabelHelpers:
    def test_render_and_split(self):
        label = relation_edge_label(RelationType.CAUSALITY, NO)
        assert label == "Causality (No)"
        assert split_relation_label(label) == (RelationType.CAUSALITY, NO)
        assert split_relation_label("Sequentiality") == (
            RelationType.SEQUENTIALITY, UNLABELED)
        assert split_relation_label("not a relation") is None
