"""Results derived from an immutable graph: computed once per graph object,
and always equal to a fresh computation on an equal graph."""

import random
import sys
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from flowsra import emitting, ir
from flowsra.emitting import EmitError, emit, emit_triples, emit_upgraded
from flowsra.engine import Question, Route
from flowsra.gateway import ChatGateway
from flowsra.harness import EvalConfig, EvalInstance, run_eval
from flowsra.ir import (
    Edge,
    FlowGraph,
    GraphValidationError,
    Node,
    NodeKind,
    UpgradedGraph,
    validate,
)
from flowsra.parsing import Dialect, parse_text
from flowsra.relations import HeuristicRelationBackend, heuristic_recognize, upgrade_graph
from flowsra.routing import QuestionType

from gen import mock_backend, rand_flow_graph, rand_structured_graph, upgrade_by_edge

GENERATORS = {"flow": rand_flow_graph, "structured": rand_structured_graph}


def copy_of(graph: FlowGraph) -> FlowGraph:
    """An equal graph that is a distinct object, so it has memoised nothing."""
    return FlowGraph(graph.nodes, graph.edges, graph.title)


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the EmitError it raises as data."""
    try:
        return fn(*args)
    except EmitError as exc:
        return "EmitError", str(exc)


def counting(monkeypatch, owner, name, where=None):
    """Replace ``owner.name`` (or ``owner[name]`` for a dict) with a wrapper
    that records its first argument; returns the record."""
    calls = []
    real = owner[name] if isinstance(owner, dict) else getattr(owner, name)

    def wrapper(*args):
        if where is None or where(*args):
            calls.append(args[0])
        return real(*args)

    if isinstance(owner, dict):
        monkeypatch.setitem(owner, name, wrapper)
    else:
        monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestReferee:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(sorted(GENERATORS)))
    def test_memoised_results_equal_fresh_ones(self, seed, kind):
        rng = random.Random(seed)
        graph = GENERATORS[kind](rng)
        triples = upgrade_graph(copy_of(graph), HeuristicRelationBackend()).triples
        ug = UpgradedGraph(graph, triples)

        def fresh_ug() -> UpgradedGraph:
            return UpgradedGraph(copy_of(graph), triples)

        checks = [lambda: validate(graph) == validate(copy_of(graph)),
                  lambda: emit_triples(ug) == emit_triples(fresh_ug()),
                  lambda: ug.fallback_count() == fresh_ug().fallback_count()]
        for dialect in Dialect:
            checks.append(lambda d=dialect: (outcome(emit, graph, d)
                                             == outcome(emit, copy_of(graph), d)))
            checks.append(lambda d=dialect: (outcome(emit_upgraded, ug, d)
                                             == outcome(emit_upgraded, fresh_ug(), d)))
        # twice each, in a random order: the second pass reads the memo
        for check in rng.sample(checks, len(checks)) + rng.sample(checks, len(checks)):
            assert check()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(sorted(GENERATORS)))
    def test_positional_triples_equal_the_edge_keyed_upgrade(self, seed, kind):
        graph = GENERATORS[kind](random.Random(seed))
        by_id = {n.id: n for n in graph.nodes}
        results = {e: heuristic_recognize(by_id[e.src], by_id[e.dst], e.label)
                   for e in graph.edges}
        expected = upgrade_by_edge(graph, {e: r for e, (r, _) in results.items()},
                                   {e: why for e, (_, why) in results.items()})
        assert upgrade_graph(graph, HeuristicRelationBackend()) == expected


class TestCounts:
    def test_one_conversion_validates_once(self, monkeypatch):
        text = emit(rand_structured_graph(random.Random(5)), Dialect.PLANTUML).text
        calls = counting(monkeypatch, ir, "_violations")
        # what `flowsra convert` and `flowsra upgrade` do for one chart
        dialect, result = parse_text(text)
        graph = result.graph
        assert validate(graph) == []
        for other in Dialect:
            if other is not dialect:
                emit(graph, other)
        ug = upgrade_graph(graph, HeuristicRelationBackend(), dialect=dialect)
        emit_upgraded(ug, dialect)
        emit_triples(ug)
        assert len(calls) == 1 and calls[0] is graph

    def test_five_deep_questions_on_one_chart_render_it_once(self, monkeypatch):
        source = emit(rand_structured_graph(random.Random(8)), Dialect.MERMAID).text
        instances = [
            EvalInstance(flowchart_id="c", dialect=Dialect.MERMAID, source=source,
                         question=Question(f"What happens after step {i}?"),
                         gold_answer="x", gold_type=QuestionType.FLOW_REFERENCE)
            for i in range(5)
        ]
        gateway = ChatGateway(mock_backend([("", "x")]), parallelism=4)
        renders = counting(monkeypatch, emitting._EMITTERS, Dialect.MERMAID,
                           where=lambda graph, upgraded: upgraded is not None)
        run = run_eval(instances, EvalConfig(router_mode="always-deep"), gateway)
        assert [log.route for log in run.logs] == [Route.DEEP] * 5
        assert [log.error for log in run.logs] == [None] * 5
        assert len(renders) == 1

    def test_fallbacks_are_counted_once_per_graph(self, monkeypatch):
        graph = rand_structured_graph(random.Random(3))
        triples = list(upgrade_graph(graph, HeuristicRelationBackend()).triples)
        triples[0] = replace(triples[0], rationale="fallback: no answer")
        ug = UpgradedGraph(graph, triples)
        reads = []
        is_fallback = ir.RelationTriple.is_fallback
        monkeypatch.setattr(ir.RelationTriple, "is_fallback",
                            property(lambda t: reads.append(t) or is_fallback.fget(t)))
        assert ug.fallback_count() == ug.fallback_count() == 1
        assert len(reads) == len(triples)


class TestFailuresAndCopies:
    FAN_OUT = FlowGraph(
        nodes=(Node("S", NodeKind.START, "Start"), Node("P", NodeKind.PROCESS, "a"),
               Node("Q", NodeKind.PROCESS, "b"), Node("R", NodeKind.PROCESS, "c")),
        edges=(Edge("S", "P"), Edge("P", "Q"), Edge("P", "R")),
    )

    def test_emit_error_is_raised_again(self, monkeypatch):
        graph = copy_of(self.FAN_OUT)
        runs = counting(monkeypatch, emitting._EMITTERS, Dialect.PLANTUML)
        messages = []
        for _ in range(2):
            with pytest.raises(EmitError) as caught:
                emit(graph, Dialect.PLANTUML)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert "fans out" in messages[0]
        assert len(runs) == 2

    def test_validation_error_is_raised_again(self):
        graph = FlowGraph(nodes=(Node("A", NodeKind.PROCESS, "a"),), edges=(Edge("A", "X"),))
        for _ in range(2):
            with pytest.raises(GraphValidationError, match="unknown node 'X'"):
                emit(graph, Dialect.MERMAID)

    def test_validate_returns_a_fresh_list(self):
        graph = FlowGraph(nodes=(Node("A", NodeKind.PROCESS, ""), Node("A", NodeKind.END)))
        first = validate(graph)
        assert [v.invariant for v in first] == ["node-text-required", "unique-node-id"]
        expected = list(first)
        first.clear()
        second = validate(graph)
        assert second == expected
        second.append(expected[0])
        assert validate(graph) == expected


def test_threads_sharing_one_graph_get_equal_results():
    """Many threads make the first calls on one graph at once, with the
    interpreter switching threads as often as it can."""
    base = rand_structured_graph(random.Random(11))
    triples = upgrade_graph(copy_of(base), HeuristicRelationBackend()).triples

    def snapshot(graph: FlowGraph, ug: UpgradedGraph) -> tuple:
        return (
            validate(graph),
            [emit(graph, d) for d in Dialect],
            [emit_upgraded(ug, d) for d in Dialect],
            emit_triples(ug),
        )

    expected = snapshot(copy_of(base), UpgradedGraph(copy_of(base), triples))
    threads_n = 8
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 1.0
        rounds = 0
        while rounds < 3 or time.monotonic() < deadline:
            graph = copy_of(base)
            ug = UpgradedGraph(graph, triples)
            barrier = threading.Barrier(threads_n, timeout=30)
            results: list = [None] * threads_n

            def work(index: int) -> None:
                barrier.wait()
                results[index] = snapshot(graph, ug)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert results == [expected] * threads_n
            rounds += 1
    finally:
        sys.setswitchinterval(old_interval)
