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
    split_relation_label,
)
from flowsra.ir import (
    Edge,
    EdgeLabel,
    FlowGraph,
    GraphValidationError,
    Node,
    NodeKind,
    RelationType,
    upgrade,
)
from flowsra.parsing import Dialect, parse_text

from gen import (
    deep_if_text,
    deep_repeat_text,
    isomorphic,
    rand_flow_graph,
    rand_structured_graph,
)


def sample_graph():
    return FlowGraph(
        nodes=(
            Node("S", NodeKind.START, "Start"),
            Node("W", NodeKind.PROCESS, "Do the work"),
            Node("E", NodeKind.END, "End"),
        ),
        edges=(Edge("S", "W"), Edge("W", "E", EdgeLabel.yes())),
    )


def upgraded_sample():
    graph = FlowGraph(
        nodes=(
            Node("H", NodeKind.DECISION, "Finish your homework?"),
            Node("B", NodeKind.PROCESS, "Break"),
        ),
        edges=(Edge("H", "B", EdgeLabel.yes()),),
    )
    return upgrade(graph, {graph.edges[0]: RelationType.CONDITIONALITY})


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
            edges=(Edge("D", "A", EdgeLabel.yes()),
                   Edge("D", "B", EdgeLabel.no()),
                   Edge("D", "C", EdgeLabel.other("maybe"))),
        )
        with pytest.raises(EmitError):
            emit(graph, Dialect.PLANTUML)

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
                   Edge("B", "C", EdgeLabel.yes()),
                   Edge("B", "A", EdgeLabel.no())),
        )
        doc = emit(graph, Dialect.PLANTUML)
        _, result = parse_text(doc.text)
        assert result.ok
        assert isomorphic(result.graph, graph)


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
        ug = upgrade(graph, {
            e: RelationType.CONDITIONALITY if kinds[e.src] is NodeKind.DECISION
            else RelationType.SEQUENTIALITY
            for e in graph.edges})
        for dialect in Dialect:
            _, result = parse_text(emit_upgraded(ug, dialect).text)
            assert result.ok, dialect
            assert isomorphic(strip_relations(result.graph), graph), dialect


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
            edges=(Edge("D", "A", EdgeLabel.yes()), Edge("D", "B", EdgeLabel.no()),
                   Edge("A", "C"), Edge("A", "E"), Edge("B", "C"), Edge("B", "E")),
        )
        assert check_joins_against_reference(graph) == 1
        emitter = _PlantUmlEmitter(graph, None)
        assert emitter.join_of("D", "A", "B") == "E"


class TestEmitUpgraded:
    def test_zero_edges_has_taxonomy_only(self):
        ug = upgrade(FlowGraph(nodes=(Node("S", NodeKind.START, "Start"),)), {})
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
        ug = upgrade(graph, {edge: RelationType.SEQUENTIALITY for edge in graph.edges})
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
        ug = upgrade(graph, relations)
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
            assert (RelationType.CONDITIONALITY, EdgeLabel.yes()) in recovered

    def test_upgraded_plantuml_reparses_cleanly(self):
        graph = rand_structured_graph(random.Random(7))
        ug = upgrade(graph, {e: RelationType.SEQUENTIALITY for e in graph.edges})
        doc = emit_upgraded(ug, Dialect.PLANTUML)
        _, result = parse_text(doc.text)
        assert result.ok, [str(d) for d in result.diagnostics]
        for relation in RelationType:
            assert doc.text.count(relation.definition) == 1

    def test_upgraded_plantuml_puts_the_taxonomy_before_the_title(self):
        graph = FlowGraph(
            nodes=(Node("S", NodeKind.START, "Start"), Node("W", NodeKind.PROCESS, "Work"),
                   Node("D", NodeKind.DECISION, "Done?"), Node("E", NodeKind.END, "End")),
            edges=(Edge("S", "W"), Edge("W", "D"), Edge("D", "W", EdgeLabel.no()),
                   Edge("D", "E", EdgeLabel.yes())),
            title="Homework")
        ug = upgrade(graph, dict(zip(graph.edges, (
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
        ug = upgrade(FlowGraph(nodes=(Node("S", NodeKind.START, ""),)), {})
        assert emit_triples(ug) == ""

    def test_conditionality_pair_format(self):
        assert emit_triples(upgraded_sample()) == (
            "(Finish your homework?) -[Conditionality]-> (Break)\n")

    def test_two_triples_in_edge_order(self):
        graph = sample_graph()
        ug = upgrade(graph, {graph.edges[0]: RelationType.SEQUENTIALITY,
                             graph.edges[1]: RelationType.CONDITIONALITY})
        lines = emit_triples(ug).splitlines()
        assert lines == [
            "(Start) -[Sequentiality]-> (Do the work)",
            "(Do the work) -[Conditionality]-> (End)",
        ]


class TestRelationLabelHelpers:
    def test_render_and_split(self):
        label = relation_edge_label(RelationType.CAUSALITY, EdgeLabel.no())
        assert label == "Causality (No)"
        assert split_relation_label(label) == (RelationType.CAUSALITY, EdgeLabel.no())
        assert split_relation_label("Sequentiality") == (
            RelationType.SEQUENTIALITY, EdgeLabel.none())
        assert split_relation_label("not a relation") is None
