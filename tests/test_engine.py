"""Reasoning engine: shallow/deep prompts and the controlled dispatch."""

import pytest

from flowsra.emitting import emit, emit_triples
from flowsra.engine import (
    Question,
    Route,
    answer_controlled,
    answer_deep,
    answer_shallow,
)
from flowsra.gateway import ChatGateway
from flowsra.ir import (
    NO,
    YES,
    Edge,
    FlowGraph,
    Node,
    NodeKind,
    RelationType,
    relation_definitions_block,
)
from flowsra.parsing import Dialect
from flowsra.relations import HeuristicRelationBackend, upgrade_graph
from flowsra.routing import ClassificationError, QuestionType, make_router

from gen import mock_backend, upgrade_by_edge


def homework_graph():
    return FlowGraph(
        nodes=(
            Node("S", NodeKind.START, "Start"),
            Node("H", NodeKind.PROCESS, "Do your homework"),
            Node("D", NodeKind.DECISION, "Finish your homework?"),
            Node("B", NodeKind.PROCESS, "Take a break"),
            Node("E", NodeKind.END, "End"),
        ),
        edges=(
            Edge("S", "H"),
            Edge("H", "D"),
            Edge("D", "B", YES),
            Edge("D", "H", NO),
            Edge("B", "E"),
        ),
    )


def catchall_gateway(answer="7"):
    transport = mock_backend([("", answer)])
    return ChatGateway(transport), transport


class CountingRecognizer:
    def __init__(self):
        self.calls = 0
        self.inner = HeuristicRelationBackend()

    def recognize(self, graph, dialect):
        self.calls += len(graph.edges)
        return self.inner.recognize(graph, dialect)


class TestAnswerShallow:
    def test_scripted_answer_and_route(self):
        gateway, _ = catchall_gateway("7")
        doc = emit(homework_graph(), Dialect.MERMAID)
        answer = answer_shallow(doc, Question("How many nodes?"), gateway, model="m")
        assert answer.text == "7"
        assert answer.route is Route.SHALLOW
        assert answer.fallbacks_used == 0

    def test_prompt_contains_chart_and_question_not_cot(self):
        gateway, transport = catchall_gateway()
        doc = emit(homework_graph(), Dialect.MERMAID)
        answer_shallow(doc, Question("What comes after the break?"), gateway, model="m")
        prompt = transport.calls[0].rendered()
        assert doc.text.rstrip("\n") in prompt
        assert "What comes after the break?" in prompt
        assert "step by step" not in prompt.lower()

    def test_fingerprint_stable_across_runs(self):
        doc = emit(homework_graph(), Dialect.MERMAID)
        question = Question("How many nodes?")
        gateway1, _ = catchall_gateway()
        gateway2, _ = catchall_gateway()
        first = answer_shallow(doc, question, gateway1, model="m")
        second = answer_shallow(doc, question, gateway2, model="m")
        assert first.prompt_fingerprint == second.prompt_fingerprint


class TestAnswerDeep:
    def test_zero_edge_graph_has_taxonomy_but_no_triples(self):
        graph = FlowGraph(nodes=(Node("S", NodeKind.START, "Start"),))
        ug = upgrade_by_edge(graph, {})
        gateway, transport = catchall_gateway("nothing")
        answer_deep(ug, Question("What happens?"), gateway, model="m")
        prompt = transport.calls[0].rendered()
        for relation in RelationType:
            assert relation.definition in prompt
        assert "(none)" in prompt

    def test_scripted_deep_answer(self):
        ug = upgrade_graph(homework_graph(), HeuristicRelationBackend())
        gateway, _ = catchall_gateway("Take a break")
        answer = answer_deep(ug, Question("What do I do when finished?"),
                             gateway, model="m")
        assert answer.text == "Take a break"
        assert answer.route is Route.DEEP

    def test_prompt_contains_every_triple_line(self):
        ug = upgrade_graph(homework_graph(), HeuristicRelationBackend())
        assert len(ug.triples) == 5
        gateway, transport = catchall_gateway()
        answer_deep(ug, Question("q?"), gateway, model="m")
        prompt = transport.calls[0].rendered()
        for line in emit_triples(ug).splitlines():
            assert line in prompt

    def test_taxonomy_and_constraints_present(self):
        ug = upgrade_graph(homework_graph(), HeuristicRelationBackend())
        gateway, transport = catchall_gateway()
        answer_deep(ug, Question("q?"), gateway, model="m")
        prompt = transport.calls[0].rendered()
        assert relation_definitions_block() in prompt
        assert "fully take in every triple" in prompt


class TestAnswerControlled:
    def test_straight_path_makes_zero_recognizer_calls(self):
        recognizer = CountingRecognizer()
        gateway, _ = catchall_gateway("5")
        answer = answer_controlled(
            homework_graph(), Question("How many nodes are in the flowchart?"),
            make_router("heuristic"), recognizer, gateway, model="m")
        assert answer.route is Route.SHALLOW
        assert recognizer.calls == 0

    def test_complicated_path_calls_recognizer_once_per_edge(self):
        recognizer = CountingRecognizer()
        gateway, _ = catchall_gateway("Do your homework")
        answer = answer_controlled(
            homework_graph(), Question("If the homework is not finished, what next?"),
            make_router("heuristic"), recognizer, gateway, model="m")
        assert answer.route is Route.DEEP
        assert recognizer.calls == len(homework_graph().edges)

    def test_oracle_router_sends_topology_to_shallow(self):
        recognizer = CountingRecognizer()
        gateway, _ = catchall_gateway("5")
        answer = answer_controlled(
            homework_graph(),
            Question("how many nodes in the chart?", gold_type=QuestionType.TOPOLOGY),
            make_router("oracle"), recognizer, gateway, model="m")
        assert answer.route is Route.SHALLOW
        assert recognizer.calls == 0

    def test_router_failure_defaults_to_deep(self):
        def failing(question):
            raise ClassificationError("no idea")

        recognizer = CountingRecognizer()
        gateway, _ = catchall_gateway("x")
        answer = answer_controlled(homework_graph(), Question("odd question"),
                                   failing, recognizer, gateway, model="m")
        assert answer.route is Route.DEEP
        assert recognizer.calls == len(homework_graph().edges)

    def test_route_always_matches_router_class(self):
        gateway, _ = catchall_gateway("x")
        for question, expected in [
            ("How many nodes are there?", Route.SHALLOW),
            ("Suppose it fails, what then?", Route.DEEP),
        ]:
            answer = answer_controlled(
                homework_graph(), Question(question), make_router("heuristic"),
                CountingRecognizer(), gateway, model="m")
            assert answer.route is expected

    def test_byte_deterministic_with_mock(self):
        def run():
            gateway, _ = catchall_gateway("Take a break")
            return answer_controlled(
                homework_graph(), Question("If unfinished, what should I do?"),
                make_router("heuristic"), HeuristicRelationBackend(), gateway, model="m")

        first, second = run(), run()
        assert first == second


class TestQuestion:
    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            Question("   ")


class TestOnePath:
    """route + answer_routed, the path answer_controlled and run_eval share."""

    def test_upgrade_is_called_on_the_deep_path_only(self):
        from flowsra.engine import answer_routed
        from flowsra.routing import QuestionClass

        graph = homework_graph()
        upgrades = []

        def upgrade():
            upgrades.append(graph)
            return upgrade_graph(graph, HeuristicRelationBackend())

        gateway, _ = catchall_gateway("x")
        shallow = answer_routed(graph, Question("q?"), QuestionClass.STRAIGHT, upgrade,
                                gateway, model="m")
        assert shallow.route is Route.SHALLOW and upgrades == []
        deep = answer_routed(graph, Question("q?"), QuestionClass.COMPLICATED, upgrade,
                             gateway, model="m")
        assert deep.route is Route.DEEP and len(upgrades) == 1

    def test_route_falls_back_to_complicated_and_passes_the_gold_type(self):
        from flowsra.engine import route
        from flowsra.routing import QuestionClass

        def failing(question):
            raise ClassificationError("no idea")

        assert route(failing, Question("odd?")) is QuestionClass.COMPLICATED
        scenario = Question("how many nodes?", gold_type=QuestionType.APPLIED_SCENARIO)
        assert route(make_router("oracle"), scenario) is QuestionClass.COMPLICATED

    def test_other_router_errors_propagate(self):
        from flowsra.engine import route

        with pytest.raises(ValueError):
            route(make_router("oracle"), Question("no gold type?"))
