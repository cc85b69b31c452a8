"""Relation recognition: prompts, response parsing, heuristic, upgrading."""

import random
import re
import threading
import time

import pytest

from flowsra.emitting import emit
from flowsra.gateway import CacheError, ChatGateway, PermanentError, mock_backend
from flowsra.ir import (
    Edge,
    EdgeLabel,
    FlowGraph,
    Node,
    NodeKind,
    RelationType,
)
from flowsra.parsing import Dialect
from flowsra.relations import (
    HeuristicRelationBackend,
    LlmRelationBackend,
    UnparseableRelationError,
    UpgradeError,
    build_relation_prompt,
    heuristic_recognize,
    parse_relation_response,
    upgrade_graph,
)

from gen import rand_flow_graph


def node(text, kind=NodeKind.PROCESS, node_id="x"):
    return Node(node_id, kind, text)


def context_doc():
    graph = FlowGraph(nodes=(Node("A", NodeKind.PROCESS, "one"),
                             Node("B", NodeKind.PROCESS, "two")),
                      edges=(Edge("A", "B"),))
    return emit(graph, Dialect.MERMAID)


class TestBuildRelationPrompt:
    def test_contains_all_four_definitions(self):
        prompt = build_relation_prompt(node("a"), node("b"), EdgeLabel.none(),
                                       context_doc())
        for relation in RelationType:
            assert relation.definition in prompt
        assert "RELATION:" in prompt

    def test_yes_label_mentions_branch_polarity(self):
        prompt = build_relation_prompt(node("a"), node("b"), EdgeLabel.yes(),
                                       context_doc())
        assert "Yes" in prompt
        assert "condition holds" in prompt

    def test_embeds_the_node_pair(self):
        prompt = build_relation_prompt(
            node("Obtain a new photograph"), node("Selecting the Photograph"),
            EdgeLabel.none(), context_doc())
        assert "Obtain a new photograph" in prompt
        assert "Selecting the Photograph" in prompt

    def test_embeds_the_chart_context(self):
        doc = context_doc()
        prompt = build_relation_prompt(node("a"), node("b"), EdgeLabel.none(), doc)
        assert doc.text.rstrip("\n") in prompt


class TestParseRelationResponse:
    def test_plain_final_line(self):
        relation, rationale = parse_relation_response(
            "Some analysis here.\nRELATION: Causality")
        assert relation is RelationType.CAUSALITY
        assert rationale == "Some analysis here."

    def test_out_of_taxonomy_tag_is_rejected(self):
        with pytest.raises(UnparseableRelationError):
            parse_relation_response("RELATION: Contrast")

    def test_missing_tag_is_rejected(self):
        with pytest.raises(UnparseableRelationError):
            parse_relation_response("no tag anywhere")

    @pytest.mark.parametrize("text,expected", [
        ("relation: sequentiality.", RelationType.SEQUENTIALITY),
        ("**RELATION: Conditionality**", RelationType.CONDITIONALITY),
        ("`RELATION - Instantiation`", RelationType.INSTANTIATION),
        ("thoughts\n> RELATION:   causality  ", RelationType.CAUSALITY),
        ("RELATION: Causality\nwait no\nRELATION: Sequentiality",
         RelationType.SEQUENTIALITY),
    ])
    def test_tolerant_extraction_corpus(self, text, expected):
        relation, _ = parse_relation_response(text)
        assert relation is expected


class TestHeuristicRecognize:
    def test_conditionality_from_decision_source(self):
        relation, _ = heuristic_recognize(
            node("Finish your homework?", NodeKind.DECISION), node("Break"),
            EdgeLabel.yes())
        assert relation is RelationType.CONDITIONALITY

    def test_conditionality_from_yes_no_label_alone(self):
        relation, _ = heuristic_recognize(node("step"), node("next"),
                                          EdgeLabel.no())
        assert relation is RelationType.CONDITIONALITY

    def test_instantiation_from_category_list(self):
        relation, _ = heuristic_recognize(
            node("Citrus Fruits"), node("Orange and Grapefruit"),
            EdgeLabel.none())
        assert relation is RelationType.INSTANTIATION

    def test_instantiation_from_cue_words(self):
        relation, _ = heuristic_recognize(
            node("Pick a tool"), node("for example a hammer"), EdgeLabel.none())
        assert relation is RelationType.INSTANTIATION

    def test_causality_from_acquisition_then_selection(self):
        relation, _ = heuristic_recognize(
            node("Obtain a new photograph"), node("Selecting the Photograph"),
            EdgeLabel.none())
        assert relation is RelationType.CAUSALITY

    def test_causality_from_causal_cue(self):
        relation, _ = heuristic_recognize(
            node("Heating causes expansion"), node("Measure the rod"),
            EdgeLabel.none())
        assert relation is RelationType.CAUSALITY

    def test_sequentiality_default(self):
        relation, _ = heuristic_recognize(
            node("Mix the flour and water"), node("Knead the mixture into a dough"),
            EdgeLabel.none())
        assert relation is RelationType.SEQUENTIALITY

    def test_rule_order_decision_beats_instantiation(self):
        relation, _ = heuristic_recognize(
            node("Citrus Fruits", NodeKind.DECISION),
            node("Orange and Grapefruit"), EdgeLabel.none())
        assert relation is RelationType.CONDITIONALITY


def three_edge_graph():
    return FlowGraph(
        nodes=(
            Node("S", NodeKind.START, "Start"),
            Node("A", NodeKind.PROCESS, "Mix the flour and water"),
            Node("D", NodeKind.DECISION, "Smooth?"),
            Node("E", NodeKind.END, "End"),
        ),
        edges=(Edge("S", "A"), Edge("A", "D"), Edge("D", "E", EdgeLabel.yes())),
    )


def chain_graph(steps):
    """Start, steps P0..P{steps-1} in a chain, End."""
    nodes = ([Node("S", NodeKind.START, "Start")]
             + [Node(f"P{i}", NodeKind.PROCESS, f"Step {i}") for i in range(steps)]
             + [Node("E", NodeKind.END, "End")])
    ids = [n.id for n in nodes]
    return FlowGraph(nodes=tuple(nodes),
                     edges=tuple(Edge(a, b) for a, b in zip(ids, ids[1:])))


class SlowFirstTransport:
    """Answers a relation prompt on a chain_graph from its edge's index,
    sleeping longer for earlier edges so that concurrent calls finish in
    reverse edge order; records the peak number of calls in flight."""

    is_network = False
    TAGS = (RelationType.SEQUENTIALITY, RelationType.CAUSALITY,
            RelationType.INSTANTIATION)

    def __init__(self):
        self.peak = 0
        self._in_flight = 0
        self._lock = threading.Lock()

    @staticmethod
    def edge_index(request):
        m = re.search(r"Node A \(source\): (?:Step (\d+)|Start)", request.rendered())
        return int(m.group(1)) + 1 if m.group(1) else 0

    def __call__(self, request):
        index = self.edge_index(request)
        with self._lock:
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
        time.sleep(0.001 * (14 - index))
        with self._lock:
            self._in_flight -= 1
        tag = self.TAGS[index % 3].value
        return {"choices": [{"message": {"content": f"RELATION: {tag}"}}]}


class TestUpgradeGraph:
    def test_zero_edges_zero_calls(self):
        calls = []

        class Spy:
            def recognize(self, src, dst, label, context):
                calls.append(1)
                return RelationType.SEQUENTIALITY, ""

        ug = upgrade_graph(FlowGraph(nodes=(Node("S", NodeKind.START, ""),)), Spy())
        assert ug.triples == ()
        assert calls == []

    def test_heuristic_backend_matches_per_edge_oracle(self):
        graph = three_edge_graph()
        ug = upgrade_graph(graph, HeuristicRelationBackend())
        by_id = {n.id: n for n in graph.nodes}
        for edge, triple in zip(graph.edges, ug.triples):
            expected, _ = heuristic_recognize(by_id[edge.src], by_id[edge.dst],
                                              edge.label)
            assert triple.relation is expected

    def test_scripted_mock_backend_matches_script(self):
        graph = three_edge_graph()
        transport = mock_backend([
            ("Node A (source): Start", "RELATION: Sequentiality"),
            ("Node A (source): Mix the flour and water", "RELATION: Causality"),
            ("Node A (source): Smooth?", "RELATION: Conditionality"),
        ])
        backend = LlmRelationBackend(ChatGateway(transport), model="recognizer")
        ug = upgrade_graph(graph, backend)
        assert [t.relation for t in ug.triples] == [
            RelationType.SEQUENTIALITY,
            RelationType.CAUSALITY,
            RelationType.CONDITIONALITY,
        ]
        assert ug.fallback_count() == 0

    def test_garbage_responses_fall_back_without_leaking(self):
        graph = three_edge_graph()
        transport = mock_backend([
            ("Node A (source): Start", "RELATION: Contrast"),  # out of taxonomy
            ("", "RELATION: Sequentiality"),
        ])
        backend = LlmRelationBackend(ChatGateway(transport), model="recognizer")
        ug = upgrade_graph(graph, backend)
        assert len(ug.triples) == 3
        assert all(t.relation in RelationType for t in ug.triples)
        assert ug.fallback_count() == 1
        assert ug.triples[0].rationale.startswith("fallback:")
        # retry happened before falling back: initial+retry for edge 1, one each after
        assert len(transport.calls) == 4

    def test_backend_exception_names_the_edge(self):
        class Exploding:
            def recognize(self, src, dst, label, context):
                raise RuntimeError("boom")

        with pytest.raises(UpgradeError) as excinfo:
            upgrade_graph(three_edge_graph(), Exploding())
        assert "S -> A" in str(excinfo.value)

    def test_totality_on_random_graphs(self):
        for seed in range(25):
            graph = rand_flow_graph(random.Random(seed))
            ug = upgrade_graph(graph, HeuristicRelationBackend())
            assert len(ug.triples) == len(graph.edges)

    def test_parallel_assembly_is_edge_ordered(self):
        graph = chain_graph(12)
        sequential = SlowFirstTransport()
        parallel = SlowFirstTransport()
        one = upgrade_graph(graph, LlmRelationBackend(
            ChatGateway(sequential, parallelism=1), model="recognizer"))
        four = upgrade_graph(graph, LlmRelationBackend(
            ChatGateway(parallel, parallelism=4), model="recognizer"))
        assert one.triples == four.triples
        assert [t.relation for t in four.triples] == [
            SlowFirstTransport.TAGS[i % 3] for i in range(len(graph.edges))]
        assert sequential.peak == 1
        assert 1 < parallel.peak <= 4

    def test_first_failing_edge_in_edge_order_aborts(self):
        # edge 7 fails at once, edge 3 only after a wait
        def transport(request):
            index = SlowFirstTransport.edge_index(request)
            if index in (3, 7):
                time.sleep(0.03 if index == 3 else 0.0)
                raise PermanentError(f"HTTP 400 for edge {index}")
            return SlowFirstTransport()(request)

        backend = LlmRelationBackend(ChatGateway(transport, parallelism=8),
                                     model="recognizer")
        with pytest.raises(UpgradeError) as excinfo:
            upgrade_graph(chain_graph(12), backend)
        assert excinfo.value.edge == Edge("P2", "P3")

    def test_cache_error_passes_through_unwrapped(self, tmp_path):
        def transport(request):
            return {"choices": [{"message": {"content": "RELATION: Sequentiality"}}]}

        backend = LlmRelationBackend(ChatGateway(transport, cache_dir=tmp_path),
                                     model="recognizer")
        upgrade_graph(three_edge_graph(), backend)
        entry = sorted(tmp_path.glob("*.json"))[1]
        entry.unlink()
        entry.mkdir()  # a miss, whose reply then cannot be written
        with pytest.raises(CacheError, match=re.escape(str(entry))):
            upgrade_graph(three_edge_graph(), backend)

    def test_upgrading_never_alters_base_emission(self):
        for seed in range(10):
            graph = rand_flow_graph(random.Random(seed))
            before = emit(graph, Dialect.MERMAID).text
            ug = upgrade_graph(graph, HeuristicRelationBackend())
            after = emit(ug.base, Dialect.MERMAID).text
            assert before == after
