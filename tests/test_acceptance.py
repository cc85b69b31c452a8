"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion. Each criterion is a test; tolerances are pinned here, not
calibrated elsewhere.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from flowsra.emitting import emit
from flowsra.engine import Question, Route, answer_controlled
from flowsra.gateway import ChatGateway, load_mock_script
from flowsra.harness import (
    EvalConfig,
    EvalInstance,
    judge,
    load_dataset,
    report_render,
    run_eval,
)
from flowsra.ir import (
    NO,
    UNLABELED,
    YES,
    Edge,
    FlowGraph,
    Node,
    NodeKind,
    RelationType,
)
from flowsra.parsing import Dialect, parse_text
from flowsra.relations import (
    HeuristicRelationBackend,
    LlmRelationBackend,
    heuristic_recognize,
    upgrade_graph,
)
from flowsra.routing import QuestionType, heuristic_classify, make_router, type_to_class

import random

from gen import (isomorphic, mock_backend, rand_flow_graph, rand_structured_graph,
                 reply_gateway, topology_oracle)

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS — {description}")


def provider_payload(content: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": content}}],
            "usage": {"prompt_tokens": 0, "completion_tokens": 0}}


HOMEWORK = FlowGraph(
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


def test_criterion_1_round_trip_100_graphs_per_dialect():
    with criterion(1, "parse(emit(g)) isomorphic for 100 graphs per dialect in <10s"):
        started = time.perf_counter()
        failures = []
        for index in range(100):
            graph = rand_flow_graph(random.Random(1000 + index))
            for dialect in (Dialect.MERMAID, Dialect.DOT):
                _, result = parse_text(emit(graph, dialect).text)
                if not result.ok or not isomorphic(result.graph, graph):
                    failures.append((dialect, index))
        for index in range(100):
            graph = rand_structured_graph(random.Random(5000 + index))
            _, result = parse_text(emit(graph, Dialect.PLANTUML).text)
            if not result.ok or not isomorphic(result.graph, graph):
                failures.append((Dialect.PLANTUML, index))
        elapsed = time.perf_counter() - started
        assert failures == []
        assert elapsed < 10.0, f"round-trip suite took {elapsed:.1f}s"


def test_criterion_2_heuristic_reproduces_all_cited_tags():
    with criterion(2, "heuristic reproduces the four cited relation tags 4/4"):
        cases = [
            (Node("a", NodeKind.DECISION, "Finish your homework?"),
             Node("b", NodeKind.PROCESS, "Break"),
             YES, RelationType.CONDITIONALITY),
            (Node("a", NodeKind.PROCESS, "Obtain a new photograph"),
             Node("b", NodeKind.PROCESS, "Selecting the Photograph"),
             UNLABELED, RelationType.CAUSALITY),
            (Node("a", NodeKind.PROCESS, "Citrus Fruits"),
             Node("b", NodeKind.PROCESS, "Orange and Grapefruit"),
             UNLABELED, RelationType.INSTANTIATION),
            (Node("a", NodeKind.PROCESS, "Mix the flour and water"),
             Node("b", NodeKind.PROCESS, "Knead the mixture into a dough"),
             UNLABELED, RelationType.SEQUENTIALITY),
        ]
        hits = sum(1 for src, dst, label, expected in cases
                   if heuristic_recognize(src, dst, label)[0] is expected)
        assert hits == 4


class _RelationAwareTransport:
    """Scripted recognizer stand-in: a deterministic tenth of node pairs get
    an out-of-taxonomy response (on the retry too); everything else is valid."""

    _PAIR = re.compile(r"Node A \(source\): (.*)\nNode B \(target\): (.*)")

    def __init__(self, garbage_all: bool = False):
        self.garbage_all = garbage_all

    def is_garbage_pair(self, src: str, dst: str) -> bool:
        if self.garbage_all:
            return True
        digest = hashlib.sha256(f"{src}|{dst}".encode()).digest()
        return digest[0] % 10 == 0

    def __call__(self, req):
        text = req.rendered()
        match = self._PAIR.search(text)
        if match is None:
            return provider_payload("ok")  # reasoner/judge traffic
        if self.is_garbage_pair(*match.groups()):
            return provider_payload("RELATION: Contrast")
        return provider_payload("analyzed.\nRELATION: Sequentiality")


def test_criterion_3_upgrade_totality_and_garbage_fallback():
    with criterion(3, "upgrade totality, closed taxonomy, fallback on garbage"):
        for index in range(100):
            graph = rand_flow_graph(random.Random(2000 + index))
            upgraded = upgrade_graph(graph, HeuristicRelationBackend())
            assert len(upgraded.triples) == len(graph.edges)
            assert all(t.relation in RelationType for t in upgraded.triples)

        transport = _RelationAwareTransport()
        backend = LlmRelationBackend(ChatGateway(transport), model="recognizer")
        total_fallbacks = 0
        expected_fallbacks = 0
        for index in range(10):
            graph = rand_flow_graph(random.Random(3000 + index))
            by_id = {n.id: n for n in graph.nodes}
            expected_fallbacks += sum(
                1 for e in graph.edges
                if transport.is_garbage_pair(by_id[e.src].text, by_id[e.dst].text))
            upgraded = upgrade_graph(graph, backend)
            assert len(upgraded.triples) == len(graph.edges)
            assert all(t.relation in RelationType for t in upgraded.triples)
            total_fallbacks += upgraded.fallback_count()
        assert expected_fallbacks > 0, "fixture must exercise the garbage path"
        assert total_fallbacks == expected_fallbacks

        # the fallback rate surfaces in an eval report
        dataset = [EvalInstance(
            flowchart_id="hw", dialect=Dialect.MERMAID,
            source=emit(HOMEWORK, Dialect.MERMAID).text,
            question=Question("If the homework is not finished, what next?",
                              gold_type=QuestionType.APPLIED_SCENARIO),
            gold_answer="Do your homework",
            gold_type=QuestionType.APPLIED_SCENARIO)]
        gateway = ChatGateway(_RelationAwareTransport(garbage_all=True))
        run = run_eval(dataset, EvalConfig(router_mode="always-deep",
                                           relation_backend="llm"), gateway)
        assert run.report.fallback_rate > 0


class _CountingRecognizer:
    def __init__(self):
        self.calls = 0
        self.inner = HeuristicRelationBackend()

    def recognize(self, graph, dialect):
        self.calls += len(graph.edges)
        return self.inner.recognize(graph, dialect)


def load_desk_instances() -> list[tuple[Question, QuestionType]]:
    rows = [json.loads(line)
            for line in (DATA / "desk_set.jsonl").read_text().splitlines()]
    assert len(rows) == 40
    return [(Question(r["question"], gold_type=QuestionType.from_code(r["type"])),
             QuestionType.from_code(r["type"])) for r in rows]


def test_criterion_4_oracle_routing_fidelity_and_lazy_recognition():
    with criterion(4, "oracle router: exactly TP2 deep, zero recognizer calls on straight"):
        gateway = ChatGateway(mock_backend([("", "an answer")]))
        router = make_router("oracle")
        edge_count = len(HOMEWORK.edges)
        for question, gold_type in load_desk_instances():
            recognizer = _CountingRecognizer()
            answer = answer_controlled(HOMEWORK, question, router, recognizer,
                                       gateway, model="reasoner")
            if gold_type is QuestionType.APPLIED_SCENARIO:
                assert answer.route is Route.DEEP
                assert recognizer.calls == edge_count
            else:
                assert answer.route is Route.SHALLOW
                assert recognizer.calls == 0


def test_criterion_5_heuristic_discriminator_agreement():
    with criterion(5, "heuristic discriminator >=80% agreement on the desk set"):
        rows = load_desk_instances()
        hits = sum(1 for question, gold_type in rows
                   if heuristic_classify(question.text) is type_to_class(gold_type))
        assert hits / len(rows) >= 0.80, f"agreement {hits}/{len(rows)}"


def test_criterion_6_deterministic_end_to_end(tmp_path):
    with criterion(6, "byte-identical reports over 3 runs and offline cache replay"):
        instances = load_dataset(DATA / "eval10.jsonl").instances
        renders = []
        for _ in range(3):
            gateway = ChatGateway(load_mock_script(DATA / "mock10.json"))
            run = run_eval(instances, EvalConfig(), gateway)
            renders.append(report_render(run.report, "json"))
        assert renders[0] == renders[1] == renders[2]

        cache_dir = tmp_path / "cache"
        recorded = run_eval(
            instances, EvalConfig(),
            ChatGateway(load_mock_script(DATA / "mock10.json"), cache_dir=cache_dir))
        replayed = run_eval(
            instances, EvalConfig(),
            ChatGateway(None, cache_dir=cache_dir))
        assert (report_render(recorded.report, "json")
                == report_render(replayed.report, "json"))


def test_criterion_7_topology_oracle_equivalence():
    with criterion(7, "topology oracle matches brute-force counts on 50 graphs"):
        for index in range(50):
            graph = rand_flow_graph(random.Random(4000 + index))
            node_count = sum(1 for _ in graph.nodes)
            edge_count = sum(1 for _ in graph.edges)
            decision_count = sum(1 for n in graph.nodes
                                 if n.kind is NodeKind.DECISION)
            assert topology_oracle(
                graph, Question("How many nodes are in the chart?")) == str(node_count)
            assert topology_oracle(
                graph, Question("How many edges does the chart contain?")) == str(edge_count)
            assert topology_oracle(
                graph, Question("How many decision nodes are there?")) == str(decision_count)


JUDGE_FIXTURE = [
    # (prediction, gold, tier-1 resolvable, scripted verdict when tier 2)
    ("7", "7", True, None),
    ("Seven", "7", True, None),
    ("  take a break  ", "Take a break", True, None),
    ("Take a break.", "take a break", True, None),
    ("twenty", "20", True, None),
    ("Mix the flour!", "mix the flour", True, None),
    ("THREE", "three", True, None),
    ("zero", "0", True, None),
    ("Add tea leaves?", "add tea leaves", True, None),
    ("nineteen steps", "19 steps", True, None),
    ("Yes", "yes.", True, None),
    ("Five nodes", "5 nodes", True, None),
    ("take a break", "Break", False, "CORRECT"),
    ("the break step", "Take a break", False, "CORRECT"),
    ("Obtain a photograph", "Obtain a new photograph", False, "CORRECT"),
    ("go back to start", "Do your homework", False, "INCORRECT"),
    ("4", "5", False, "INCORRECT"),
    ("blue", "red", False, "INCORRECT"),
    ("stop the machine", "halt the machine", False, "CORRECT"),
    ("nothing happens", "the loop exits", False, "INCORRECT"),
]


def test_criterion_8_judge_tiering():
    with criterion(8, "tier-1 pairs need zero judge-LLM calls; scripted verdicts honored"):
        assert len(JUDGE_FIXTURE) == 20
        tier1_calls = []

        def tripwire(prompt: str) -> str:
            tier1_calls.append(prompt)
            raise AssertionError("judge backend must not run for tier-1 pairs")

        for prediction, gold, tier1, _ in JUDGE_FIXTURE:
            if tier1:
                result = judge(prediction, gold, reply_gateway(tripwire))
                assert result.correct and result.tier == 1
        assert tier1_calls == []

        for prediction, gold, tier1, verdict in JUDGE_FIXTURE:
            if not tier1:
                result = judge(prediction, gold, reply_gateway(lambda p: f"VERDICT: {verdict}"))
                assert result.tier == 2
                assert result.correct is (verdict == "CORRECT")


# read at import: conftest.py removes every FLOWSRA_ variable before each test
LIVE = {name: os.environ.get("FLOWSRA_" + name) for name in ("ENDPOINT", "API_KEY", "MODEL")}


@pytest.mark.skipif(not LIVE["ENDPOINT"],
                    reason="criterion 9 is network-gated (set FLOWSRA_ENDPOINT)")
def test_criterion_9_network_smoke(tmp_path):
    with criterion(9, "live endpoint: eval completes, grid renders, recognizer economy"):
        from flowsra.gateway import HttpTransport

        class CountingTransport:
            def __init__(self, inner):
                self.inner = inner
                self.relation_calls = 0

            def __call__(self, req):
                if "RELATION:" in req.rendered():
                    self.relation_calls += 1
                return self.inner(req)

        transport = CountingTransport(HttpTransport(LIVE["ENDPOINT"], LIVE["API_KEY"]))
        model = LIVE["MODEL"] or "default"
        gateway = ChatGateway(transport, cache_dir=tmp_path / "cache")
        instances = load_dataset(DATA / "flowvqa_like_20.jsonl").instances
        assert len(instances) >= 20
        config = EvalConfig(router_mode="heuristic", relation_backend="llm",
                            judge_mode="exact", reasoner_model=model,
                            recognizer_model=model, router_model=model)
        run = run_eval(instances, config, gateway)
        grid = report_render(run.report, "markdown")
        assert grid.splitlines()[0] == "| Run | Overall | TP1 | TP2 | TP3 | TP4 |"
        deep_edges = sum(log.edge_count for log in run.logs
                         if log.route is Route.DEEP)
        assert transport.relation_calls == deep_edges
