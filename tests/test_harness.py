"""Evaluation harness: loading, judging, running, and report rendering."""

import hashlib
import json
import random
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from flowsra.engine import Question, Route
from flowsra import gateway as gateway_mod
from flowsra import harness
from flowsra.gateway import ChatGateway, PermanentError, load_mock_script
from flowsra.harness import (
    JUDGE_MODES,
    REPORT_FORMATS,
    EvalConfig,
    judge,
    load_dataset,
    normalize_answer,
    report_render,
    run_eval,
)
from flowsra.ir import NodeKind
from flowsra.parsing import Dialect
from flowsra.prompts import ANCHORS
from flowsra.routing import ROUTE_MODES, QuestionClass, QuestionType, type_to_class

from gen import Recording, mock_backend, rand_flow_graph, reply_gateway, topology_oracle

DATA = Path(__file__).parent / "data"


def eval10_gateway():
    return ChatGateway(load_mock_script(DATA / "mock10.json"))


class TestLoadDataset:
    def test_empty_file_gives_an_empty_load(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        load = load_dataset(path)
        assert (load.instances, load.diagnostics) == ([], [])

    def test_no_valid_record_gives_every_diagnostic(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{not json}\n"text"\n{"id": "a"}\n')
        load = load_dataset(path)
        assert load.instances == []
        assert [d.line for d in load.diagnostics] == [1, 2, 3]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(tmp_path / "absent.jsonl")

    def test_malformed_records_become_diagnostics(self, tmp_path):
        path = tmp_path / "three.jsonl"
        good = {"id": "a", "dialect": "mermaid", "source": "flowchart TD\nA-->B",
                "question": "q?", "answer": "x", "type": "TP1"}
        # fields that are not text: a null question would be asked as "None",
        # and a null answer would make a reply of "None" correct
        not_text = [(name, value, kind) for name in good for value, kind in (
            (None, "null"), (True, "boolean"), (["x"], "array"), ({"x": 1}, "object"))]
        path.write_text(
            json.dumps(good) + "\n" + "{not json}\n" + json.dumps(
                {**good, "id": "b"}) + "\n"
            + "".join(json.dumps({**good, name: value}) + "\n" for name, value, _ in not_text)
            + json.dumps({**good, "id": 7, "answer": 2.5}) + "\n")
        load = load_dataset(path)
        assert len(load.instances) == 3
        assert len(load.diagnostics) == 1 + len(not_text)
        assert load.diagnostics[0].line == 2
        assert [str(d) for d in load.diagnostics[1:]] == [
            f"record {line}: field {name!r} must be a string, not {kind}"
            for line, (name, _, kind) in enumerate(not_text, start=4)]
        # numbers still read as their text
        assert (load.instances[2].flowchart_id, load.instances[2].gold_answer) == ("7", "2.5")

    @pytest.mark.parametrize("field", ["id", "dialect", "source", "question", "answer", "type"])
    @pytest.mark.parametrize("escape", ["\\ud800", "a\\uDC80b"])
    def test_lone_surrogate_is_a_diagnostic(self, tmp_path, field, escape):
        # a pair of escapes is one character, and an escaped backslash no escape
        good = {"id": "a", "dialect": "mermaid", "source": "flowchart TD\nA-->B",
                "question": "q \U0001f600?", "answer": "x", "type": "TP1"}
        path = tmp_path / "surrogates.jsonl"
        lines = [json.dumps(good), json.dumps(good).replace("\\u", "\\\\u"),
                 json.dumps({**good, field: "@"}).replace("@", escape)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        load = load_dataset(path)
        assert [instance.question.text for instance in load.instances] == [
            "q \U0001f600?", "q \\ud83d\\ude00?"]
        assert [str(d) for d in load.diagnostics] == [
            f"record 3: field {field!r} is not UTF-8 text"]

    def test_records_that_are_not_objects_become_diagnostics(self, tmp_path):
        path = tmp_path / "shapes.jsonl"
        good = {"id": "a", "dialect": "mermaid", "source": "flowchart TD\nA-->B",
                "question": "q?", "answer": "x", "type": "TP1"}
        path.write_text("5\n" + json.dumps(" ".join(good)) + "\n[]\n" + json.dumps(good))
        load = load_dataset(path)
        assert [instance.flowchart_id for instance in load.instances] == ["a"]
        assert [str(d) for d in load.diagnostics] == [
            f"record {line}: not a JSON object" for line in (1, 2, 3)]

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029"])
    @pytest.mark.parametrize("field", ["question", "source"])
    def test_unicode_line_separator_inside_a_record_does_not_end_it(self, tmp_path,
                                                                     separator, field):
        good = {"id": "a", "dialect": "mermaid", "source": "flowchart TD\nA-->B",
                "question": "q?", "answer": "x", "type": "TP1"}
        odd = {**good, "id": "b", field: f"{good[field]} {separator}tail"}
        path = tmp_path / "separators.jsonl"
        # ensure_ascii=False writes the separator unescaped, as JSON allows
        path.write_text("".join(json.dumps(record, ensure_ascii=False) + "\n"
                                for record in (odd, good, {"id": "c"})), encoding="utf-8")
        assert separator in path.read_text(encoding="utf-8")
        load = load_dataset(path)
        assert [instance.flowchart_id for instance in load.instances] == ["b", "a"]
        first = load.instances[0]
        assert (first.question.text if field == "question" else first.source) == odd[field]
        assert [str(d) for d in load.diagnostics] == [
            "record 3: missing fields: ['dialect', 'source', 'question', 'answer', 'type']"]

    def test_crlf_records_read_as_lines(self, tmp_path):
        good = {"id": "a", "dialect": "mermaid", "source": "flowchart TD\nA-->B",
                "question": "q?", "answer": "x", "type": "TP1"}
        path = tmp_path / "crlf.jsonl"
        path.write_bytes(b"\r\n".join([json.dumps(good).encode(), b"{not json}",
                                       json.dumps({**good, "id": "b"}).encode(), b""]))
        load = load_dataset(path)
        assert [instance.flowchart_id for instance in load.instances] == ["a", "b"]
        assert [d.line for d in load.diagnostics] == [2]

    def test_files_joined_with_their_byte_order_marks_keep_every_record(self, tmp_path):
        good = {"id": "a", "dialect": "mermaid", "source": "flowchart TD\nA-->B",
                "question": "q?", "answer": "x", "type": "TP1"}
        # two UTF-8-with-BOM files of one record each, joined, then a record
        # with two marks, which stays malformed, and one more
        files = [json.dumps(good), json.dumps({**good, "id": "b"})]
        path = tmp_path / "joined.jsonl"
        path.write_bytes(b"\xef\xbb\xbf" + b"\n\xef\xbb\xbf".join(f.encode() for f in files)
                         + b"\n\xef\xbb\xbf\xef\xbb\xbf" + json.dumps({**good, "id": "c"}).encode()
                         + b"\n" + json.dumps({**good, "id": "d"}).encode() + b"\n")
        load = load_dataset(path)
        assert [instance.flowchart_id for instance in load.instances] == ["a", "b", "d"]
        assert [d.line for d in load.diagnostics] == [3]
        assert str(load.diagnostics[0]).startswith("record 3: invalid JSON: ")

    def test_twenty_record_fixture_histogram(self):
        # hand count for the committed fixture: 6/5/5/4
        load = load_dataset(DATA / "flowvqa_like_20.jsonl")
        assert len(load.instances) == 20
        assert not load.diagnostics
        histogram = {t: 0 for t in QuestionType}
        for instance in load.instances:
            histogram[instance.gold_type] += 1
        assert histogram == {
            QuestionType.FACT_RETRIEVAL: 6,
            QuestionType.APPLIED_SCENARIO: 5,
            QuestionType.FLOW_REFERENCE: 5,
            QuestionType.TOPOLOGY: 4,
        }

    def test_unknown_type_code_is_a_diagnostic(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(
            {"id": "a", "dialect": "mermaid", "source": "flowchart TD",
             "question": "q?", "answer": "x", "type": "TP9"}) + "\n" + json.dumps(
            {"id": "b", "dialect": "mermaid", "source": "flowchart TD\nA-->B",
             "question": "q?", "answer": "x", "type": "TP2"}))
        load = load_dataset(path)
        assert len(load.instances) == 1
        assert len(load.diagnostics) == 1


class TestJudge:
    def test_exact_match_without_llm(self):
        tripwire = lambda prompt: (_ for _ in ()).throw(AssertionError("called"))
        result = judge("7", "7", reply_gateway(tripwire))
        assert result.correct and result.tier == 1

    def test_number_word_normalization(self):
        result = judge("Seven", "7", None)
        assert result.correct and result.tier == 1

    def test_terminal_punctuation_and_case(self):
        assert judge("Take a break.", "take a break", None).correct

    def test_scripted_llm_verdict(self):
        result = judge("take a break", "Break", reply_gateway(lambda p: "VERDICT: CORRECT"))
        assert result.correct and result.tier == 2

    def test_incorrect_verdict(self):
        result = judge("apples", "oranges", reply_gateway(lambda p: "VERDICT: INCORRECT"))
        assert not result.correct and result.tier == 2

    def test_unparseable_verdict_counts_as_judge_failure(self):
        attempts = []

        def mute(prompt):
            attempts.append(prompt)
            return "shrug"

        result = judge("a", "b", reply_gateway(mute))
        assert not result.correct
        assert result.judge_failed
        assert len(attempts) == 2

    def test_no_backend_in_exact_mode(self):
        result = judge("a", "b", None)
        assert not result.correct and result.tier == 1

    def test_normalize_answer(self):
        assert normalize_answer("  Twenty  apples!  ") == "20 apples"
        assert normalize_answer("Five.") == "5"


class TestTopologyOracle:
    def test_node_count(self):
        graph = rand_flow_graph(random.Random(1))
        expected = str(len(graph.nodes))
        assert topology_oracle(graph, Question("How many nodes are in the chart?")) == expected

    def test_empty_graph_counts_zero(self):
        from flowsra.ir import FlowGraph
        assert topology_oracle(FlowGraph(), Question("how many nodes?")) == "0"

    def test_unrecognized_pattern_is_none(self):
        graph = rand_flow_graph(random.Random(2))
        assert topology_oracle(graph, Question("What should I do if X?")) is None

    def test_agrees_with_brute_force_on_random_graphs(self):
        for seed in range(50):
            graph = rand_flow_graph(random.Random(seed))
            nodes = sum(1 for _ in graph.nodes)
            edges = sum(1 for _ in graph.edges)
            decisions = sum(1 for n in graph.nodes if n.kind is NodeKind.DECISION)
            assert topology_oracle(graph, Question("How many nodes are there?")) == str(nodes)
            assert topology_oracle(graph, Question("How many edges are there?")) == str(edges)
            assert topology_oracle(
                graph, Question("How many decision nodes are there?")) == str(decisions)


class TestRunEval:
    def test_all_correct_mock_run(self):
        load = load_dataset(DATA / "eval10.jsonl")
        run = run_eval(load.instances, EvalConfig(), eval10_gateway())
        assert run.report.total == 10
        assert run.report.skipped_count == 0
        assert run.report.failed_count == 0
        assert run.report.overall_acc == 1.0
        assert all(v == 1.0 for v in run.report.per_type_acc.values())

    def test_llm_mock_run_asks_every_prompt_kind(self):
        # so a run with this script reads every prompt template, as the
        # installed package's run in CI must
        gateway = ChatGateway(load_mock_script(DATA / "mock10_llm.json"))
        config = EvalConfig(router_mode="llm", relation_backend="llm", judge_mode="llm")
        run = run_eval(load_dataset(DATA / "eval10.jsonl").instances, config, gateway)
        assert {kind.value for kind in gateway.requests} == set(ANCHORS)
        assert (run.report.failed_count, run.report.overall_acc) == (0, 1.0)

    def test_byte_identical_reports_across_runs(self):
        load = load_dataset(DATA / "eval10.jsonl")
        renders = []
        for _ in range(3):
            run = run_eval(load.instances, EvalConfig(), eval10_gateway())
            renders.append(report_render(run.report, "json"))
        assert renders[0] == renders[1] == renders[2]

    def test_oracle_router_routes_only_tp2_deep(self):
        load = load_dataset(DATA / "eval10.jsonl")
        run = run_eval(load.instances, EvalConfig(router_mode="oracle"),
                       eval10_gateway())
        for (gold_type, route), count in run.report.route_counts.items():
            if count == 0:
                continue
            if route is Route.DEEP:
                assert gold_type is QuestionType.APPLIED_SCENARIO
            else:
                assert gold_type is not QuestionType.APPLIED_SCENARIO

    def test_accuracy_identity_against_logs(self):
        load = load_dataset(DATA / "eval10.jsonl")
        run = run_eval(load.instances, EvalConfig(), eval10_gateway())
        scored = [log for log in run.logs if not log.skipped]
        recomputed = sum(1 for log in scored if log.correct) / len(scored)
        assert run.report.overall_acc == recomputed

    def test_filter_type_restricts_instances(self):
        load = load_dataset(DATA / "eval10.jsonl")
        run = run_eval(load.instances,
                       EvalConfig(filter_type=QuestionType.TOPOLOGY),
                       eval10_gateway())
        assert run.report.total == 3
        assert all(log.gold_type is QuestionType.TOPOLOGY for log in run.logs)

    def test_unparseable_source_is_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        rows = [
            {"id": "bad", "dialect": "mermaid", "source": "flowchart TD\nA-->",
             "question": "How many nodes?", "answer": "1", "type": "TP4"},
            {"id": "ok", "dialect": "mermaid", "source": "flowchart TD\nA-->B",
             "question": "How many nodes?", "answer": "2", "type": "TP4"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows))
        load = load_dataset(path)
        gateway = ChatGateway(mock_backend([("", "2")]))
        run = run_eval(load.instances, EvalConfig(), gateway)
        assert run.report.skipped_count == 1
        assert run.report.total == 2
        assert run.report.overall_acc == 1.0  # 1 correct / 1 scored

    def test_forced_modes(self):
        load = load_dataset(DATA / "eval10.jsonl")
        shallow_run = run_eval(load.instances,
                               EvalConfig(router_mode="always-shallow"),
                               eval10_gateway())
        assert all(log.route is Route.SHALLOW for log in shallow_run.logs)
        deep_run = run_eval(load.instances,
                            EvalConfig(router_mode="always-deep"),
                            eval10_gateway())
        assert all(log.route is Route.DEEP for log in deep_run.logs)

    def test_warm_cache_replays_offline_byte_identically(self, tmp_path):
        load = load_dataset(DATA / "eval10.jsonl")
        live = ChatGateway(load_mock_script(DATA / "mock10.json"),
                           cache_dir=tmp_path)
        first = run_eval(load.instances, EvalConfig(), live)
        offline = ChatGateway(None, cache_dir=tmp_path)
        second = run_eval(load.instances, EvalConfig(), offline)
        assert report_render(first.report, "json") == report_render(second.report, "json")

    def test_llm_router_mode_over_mock(self):
        load = load_dataset(DATA / "eval10.jsonl")
        gateway = ChatGateway(mock_backend([
            ("CLASS:", "CLASS: Straight"),     # router traffic
            ("", "whatever"),                  # reasoner traffic
        ]))
        run = run_eval(load.instances, EvalConfig(router_mode="llm"), gateway)
        assert all(log.route is Route.SHALLOW for log in run.logs)

    def test_llm_judge_tier2_accepts_paraphrase(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text(json.dumps({
            "id": "hw", "dialect": "mermaid",
            "source": "flowchart TD\nA([Start])-->B[Work]\nB-->C([End])",
            "question": "What comes after the start?",
            "answer": "Work", "type": "TP1"}))
        load = load_dataset(path)
        gateway = ChatGateway(mock_backend([
            ("Gold answer:", "VERDICT: CORRECT"),   # judge traffic
            ("", "the work step"),                  # reasoner traffic
        ]))
        run = run_eval(load.instances, EvalConfig(judge_mode="llm"), gateway)
        assert run.report.overall_acc == 1.0
        assert run.logs[0].judge_tier == 2

    def test_dialect_override_reasons_in_that_dialect(self):
        load = load_dataset(DATA / "eval10.jsonl")
        from flowsra.parsing import Dialect
        run = run_eval(load.instances[:2], EvalConfig(dialect=Dialect.DOT),
                       eval10_gateway())
        assert run.report.total == 2
        assert run.report.failed_count == 0


def payload(content):
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


class PromptHashTransport:
    """Answers every prompt kind from a hash of the prompt, so a response
    depends on nothing but the request. A quarter of relation prompts get an
    out-of-taxonomy tag, which exercises the retry and the fallback."""

    TAGS = ("Contrast", "Conditionality", "Causality", "Sequentiality")

    def __init__(self):
        self.prompts: list[str] = []

    def __call__(self, req):
        text = req.rendered()
        self.prompts.append(text)
        digest = hashlib.sha256(text.encode()).digest()[0]
        if "Node A (source):" in text:
            return payload(f"analysis\nRELATION: {self.TAGS[digest % 4]}")
        if "Straight or Complicated" in text:
            return payload("CLASS: " + ("Straight" if digest % 2 else "Complicated"))
        if "Gold answer:" in text:
            return payload("VERDICT: " + ("CORRECT" if digest % 2 else "INCORRECT"))
        return payload(f"answer {digest % 3}")


def flowvqa_like_instances():
    return load_dataset(DATA / "flowvqa_like_20.jsonl").instances


class TestPerChartMemo:
    """run_eval does each chart's parse, emit and upgrade once per run; the
    referee is running every instance on its own."""

    @pytest.mark.parametrize("dialect", [None, Dialect.DOT])
    @pytest.mark.parametrize("router_mode", ROUTE_MODES)
    def test_logs_equal_one_instance_at_a_time(self, router_mode, dialect):
        instances = flowvqa_like_instances()
        config = EvalConfig(router_mode=router_mode, relation_backend="llm",
                            judge_mode="llm", dialect=dialect)
        run = run_eval(instances, config, ChatGateway(PromptHashTransport()))
        alone = [log.to_dict() for instance in instances
                 for log in run_eval([instance], config,
                                     ChatGateway(PromptHashTransport())).logs]
        assert [log.to_dict() for log in run.logs] == alone
        deep = [log for log in run.logs if log.route is Route.DEEP]
        triples = sum(log.edge_count for log in deep)
        fallbacks = sum(log.fallbacks_used for log in deep)
        assert run.report.fallback_rate == (fallbacks / triples if triples else 0.0)

    def test_each_chart_parsed_once(self, monkeypatch):
        calls = []
        real = harness.parse_text

        def counting(source, dialect=None):
            calls.append((source, dialect))
            return real(source, dialect)

        monkeypatch.setattr(harness, "parse_text", counting)
        instances = flowvqa_like_instances()
        run_eval(instances, EvalConfig(), ChatGateway(PromptHashTransport()))
        distinct = {(i.source, i.dialect) for i in instances}
        assert len(distinct) < len(instances)
        assert sorted(calls, key=repr) == sorted(distinct, key=repr)

    def test_uncached_relation_prompts_sent_once_per_chart(self):
        instances = flowvqa_like_instances()
        transport = PromptHashTransport()
        run = run_eval(instances,
                       EvalConfig(router_mode="always-deep", relation_backend="llm"),
                       ChatGateway(transport, cache_dir=None))
        assert run.report.failed_count == 0
        relation = Counter(p for p in transport.prompts if "Node A (source):" in p)
        assert set(relation.values()) == {1}
        first_asks = [p for p in relation if "could not be parsed" not in p]
        edges = {i.source: log.edge_count for i, log in zip(instances, run.logs)}
        assert len(first_asks) == sum(edges.values())

    def test_failed_upgrade_is_recorded_and_retried(self):
        # the first relation call fails, so the first deep question on that
        # chart fails; the next question on it upgrades afresh
        inner = PromptHashTransport()
        failed = []

        def transport(req):
            if not failed and "Node A (source):" in req.rendered():
                failed.append(req)
                raise PermanentError("HTTP 400")
            return inner(req)

        instances = [i for i in flowvqa_like_instances()
                     if i.flowchart_id.startswith("hw-")][:2]
        run = run_eval(instances,
                       EvalConfig(router_mode="always-deep", relation_backend="llm"),
                       ChatGateway(transport))
        first, second = run.logs
        assert first.error.startswith("UpgradeError: ")
        assert first.route is None
        assert second.error is None and second.route is Route.DEEP
        assert run.report.failed_count == 1


class DelayedTransport(PromptHashTransport):
    """PromptHashTransport that waits 1 ms per call, like a remote endpoint,
    and records the peak number of calls in flight."""

    def __init__(self):
        super().__init__()
        self.peak = 0
        self._in_flight = 0
        self._lock = threading.Lock()

    def __call__(self, req):
        with self._lock:
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
        time.sleep(0.001)
        with self._lock:
            self._in_flight -= 1
        return super().__call__(req)


# desk_set.jsonl holds router questions only, no eval records
EVAL_SETS = ("eval10.jsonl", "flowvqa_like_20.jsonl")
ALL_LLM = EvalConfig(router_mode="llm", relation_backend="llm", judge_mode="llm")


@pytest.mark.usefixtures("fast_thread_switches")
class TestConcurrentEval:
    """Instances overlap once a run reaches the transport; what a run
    reports must not depend on it."""

    @staticmethod
    def cold_run(instances, parallelism, cache_dir):
        transport = DelayedTransport()
        gateway = ChatGateway(transport, cache_dir=cache_dir, parallelism=parallelism)
        run = run_eval(instances, ALL_LLM, gateway)
        return run, transport

    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("dataset", EVAL_SETS)
    def test_parallelism_changes_no_log_report_or_call_count(
            self, tmp_path, dataset, cached):
        instances = load_dataset(DATA / dataset).instances
        runs = {}
        for parallelism in (1, 8):
            cache = tmp_path / f"cache{parallelism}" if cached else None
            runs[parallelism] = self.cold_run(instances, parallelism, cache)
        (one, one_transport), (eight, eight_transport) = runs[1], runs[8]
        assert [log.to_dict() for log in eight.logs] == [log.to_dict() for log in one.logs]
        for fmt in ("json", "csv", "markdown"):
            assert report_render(eight.report, fmt) == report_render(one.report, fmt)
        assert len(eight_transport.prompts) == len(one_transport.prompts)
        assert Counter(eight_transport.prompts) == Counter(one_transport.prompts)
        assert one_transport.peak == 1
        assert eight_transport.peak > 1

    @pytest.mark.parametrize("parallelism", [2, 8])
    def test_transport_calls_in_flight_stay_within_parallelism(self, parallelism):
        _, transport = self.cold_run(flowvqa_like_instances(), parallelism, None)
        assert 0 < transport.peak <= parallelism

    @pytest.mark.parametrize("parallelism", [1, 2, 8])
    def test_cold_run_leaves_no_thread_behind(self, parallelism):
        before = threading.active_count()
        run, transport = self.cold_run(flowvqa_like_instances(), parallelism, None)
        assert run.report.failed_count == 0 and transport.prompts
        assert threading.active_count() == before

    def test_warm_cache_run_starts_no_worker_thread(self, tmp_path, monkeypatch):
        instances = flowvqa_like_instances()
        cold, _ = self.cold_run(instances, 8, tmp_path)
        monkeypatch.setattr(gateway_mod, "ThreadPoolExecutor", None)
        before = threading.active_count()
        warm = run_eval(instances, ALL_LLM,
                        ChatGateway(None, cache_dir=tmp_path, parallelism=8))
        assert threading.active_count() == before
        assert [log.to_dict() for log in warm.logs] == [log.to_dict() for log in cold.logs]
        assert report_render(warm.report) == report_render(cold.report)

    def test_each_chart_upgraded_once_under_concurrency(self, tmp_path):
        instances = flowvqa_like_instances()
        transport = DelayedTransport()
        run = run_eval(instances,
                       EvalConfig(router_mode="always-deep", relation_backend="llm"),
                       ChatGateway(transport, parallelism=8))
        assert run.report.failed_count == 0
        relation = Counter(p for p in transport.prompts if "Node A (source):" in p)
        assert set(relation.values()) == {1}


class TestFingerprint:
    # every field, each enum by its value, as sorted JSON
    def test_pinned_digests(self):
        assert EvalConfig().fingerprint() == (
            "f9b9c451fad62d7a560753b2bee62cb400683fcb8671fc093f4ac0c0ab959620")
        assert EvalConfig(
            router_mode="llm", relation_backend="llm", judge_mode="llm",
            dialect=Dialect.PLANTUML,
            filter_type=QuestionType.APPLIED_SCENARIO).fingerprint() == (
            "2dc65efa35d6e96f7a87301ab5f42c43f8eed6aec6d593bdaa31004b9faaddac")
        assert EvalConfig(
            dialect=Dialect.DOT, reasoner_model="r2", recognizer_model="c2",
            router_model="o2", judge_model="j2").fingerprint() == (
            "c8bf5462cab5c9e66449e9324331c6c6df4e9d54a53a504ebb0cfc8d06a90903")


class TestDiscriminatorConfusion:
    """``EvalReport.discriminator_confusion``: gold type against the class
    each question was routed to."""

    @staticmethod
    def off_diagonal(confusion):
        return {key: count for key, count in confusion.items()
                if key[1] is not type_to_class(key[0])}

    def test_oracle_router_has_zero_errors(self):
        load = load_dataset(DATA / "eval10.jsonl")
        report = run_eval(load.instances, EvalConfig(router_mode="oracle"),
                          eval10_gateway()).report
        assert sum(report.discriminator_confusion.values()) == len(load.instances)
        assert self.off_diagonal(report.discriminator_confusion) == {}

    def test_scripted_router_flipping_tp1(self, monkeypatch):
        def flipper(question):
            if question.gold_type is QuestionType.FACT_RETRIEVAL:
                return QuestionClass.COMPLICATED
            return type_to_class(question.gold_type)

        monkeypatch.setattr(harness, "make_router", lambda *args: flipper)
        load = load_dataset(DATA / "eval10.jsonl")
        tp1_total = sum(1 for i in load.instances
                        if i.gold_type is QuestionType.FACT_RETRIEVAL)
        assert tp1_total > 0
        report = run_eval(load.instances, EvalConfig(), eval10_gateway()).report
        assert self.off_diagonal(report.discriminator_confusion) == {
            (QuestionType.FACT_RETRIEVAL, QuestionClass.COMPLICATED): tp1_total}

    def test_heuristic_router_on_desk_set_matches_hand_labels(self):
        # the desk set was labeled by hand before the heuristic was written;
        # the confusion matrix must match a per-question recount
        from flowsra.harness import EvalInstance
        rows = [json.loads(line) for line in
                (DATA / "desk_set.jsonl").read_text().splitlines()]
        chart = "flowchart TD\n  A([Start]) --> B([End])\n"
        instances = [
            EvalInstance(flowchart_id=f"q{i}", dialect=Dialect.MERMAID, source=chart,
                         question=Question(r["question"]),
                         gold_answer="", gold_type=QuestionType.from_code(r["type"]))
            for i, r in enumerate(rows)
        ]
        report = run_eval(instances, EvalConfig(router_mode="heuristic"),
                          ChatGateway(mock_backend([("", "7")]))).report
        from flowsra.routing import heuristic_classify
        expected = Counter((QuestionType.from_code(r["type"]),
                            heuristic_classify(r["question"])) for r in rows)
        assert report.skipped_count == 0
        assert report.discriminator_confusion == expected

    def test_llm_router_without_a_class_line_counts_as_complicated(self):
        # engine.route falls back to Complicated when the router's replies
        # (first ask and retry) carry no CLASS: line
        load = load_dataset(DATA / "eval10.jsonl")
        transport = mock_backend([("", "I cannot tell.")])
        report = run_eval(load.instances, EvalConfig(router_mode="llm"),
                          ChatGateway(transport)).report
        assert report.discriminator_confusion == Counter(
            (i.gold_type, QuestionClass.COMPLICATED) for i in load.instances)
        assert report.route_counts == Counter(
            (i.gold_type, Route.DEEP) for i in load.instances)


class TestReportRender:
    def make_report(self):
        load = load_dataset(DATA / "eval10.jsonl")
        return run_eval(load.instances, EvalConfig(), eval10_gateway()).report

    def test_rendering_is_deterministic(self):
        report = self.make_report()
        for fmt in REPORT_FORMATS:
            assert report_render(report, fmt) == report_render(report, fmt)

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_every_format_names_the_run(self, fmt):
        report = self.make_report()
        rendered = report_render(report, fmt)
        assert rendered.endswith("\n")
        assert report.run_config_fingerprint[:12] in rendered

    def test_csv_rows_in_tp_order(self):
        lines = report_render(self.make_report(), "csv").splitlines()
        acc_rows = [line for line in lines if line.startswith("acc_")]
        assert [row.split(",")[0] for row in acc_rows] == [
            "acc_TP1", "acc_TP2", "acc_TP3", "acc_TP4"]

    # the CSV name of each nested group of ``EvalReport.to_dict``
    CSV_GROUPS = {"per_type_acc": "acc", "route_counts": "route",
                  "discriminator_confusion": "confusion"}

    @staticmethod
    def empty_report():
        # a filter that matches none of the instances
        load = load_dataset(DATA / "eval10.jsonl")
        topology = [i for i in load.instances if i.gold_type is QuestionType.TOPOLOGY]
        return run_eval(topology, EvalConfig(filter_type=QuestionType.FACT_RETRIEVAL),
                        eval10_gateway()).report

    @staticmethod
    def all_skipped_report(tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text("\n".join(json.dumps(
            {"id": f"bad{i}", "dialect": "mermaid", "source": "flowchart TD\nA-->",
             "question": "How many nodes?", "answer": "1", "type": f"TP{i}"})
            for i in (1, 2)))
        return run_eval(load_dataset(path).instances, EvalConfig(),
                        ChatGateway(mock_backend([]))).report

    @pytest.mark.parametrize("skipped", [0, 2])
    def test_nothing_scored_has_no_accuracy_in_any_format(self, skipped, tmp_path):
        report = self.all_skipped_report(tmp_path) if skipped else self.empty_report()
        assert (report.total, report.skipped_count) == (skipped, skipped)
        assert report.overall_acc is None
        values = json.loads(report_render(report, "json"))
        assert values["overall_acc"] is None
        assert set(values["per_type_acc"].values()) == {None}
        rows = dict(line.split(",") for line in report_render(report, "csv").splitlines())
        assert [rows[name] for name in ("overall_acc", "acc_TP1", "acc_TP4")] == ["", "", ""]
        grid = report_render(report, "markdown").splitlines()[2]
        assert grid == f"| {report.run_config_fingerprint[:12]} | - | - | - | - | - |"

    @pytest.mark.parametrize("empty", [False, True])
    def test_every_value_of_to_dict_is_one_csv_row(self, empty):
        report = self.empty_report() if empty else self.make_report()
        lines = report_render(report, "csv").splitlines()
        assert lines[0] == "metric,value"
        rows = [line.split(",") for line in lines[1:]]
        want = []
        for key, value in report.to_dict().items():
            if isinstance(value, dict):
                group = self.CSV_GROUPS[key]
                want += [(f"{group}_{name.replace('/', '_')}", v) for name, v in value.items()]
            else:
                want.append((key, value))
        assert [name for name, _ in rows] == [name for name, _ in want]
        for (name, cell), (_, value) in zip(rows, want):
            if value is None:
                assert cell == "", name
            elif isinstance(value, float):
                assert float(cell) == pytest.approx(value, abs=5e-7), name
            else:
                assert cell == str(value), name

    def test_a_value_added_to_to_dict_is_a_csv_row(self, monkeypatch):
        report = self.make_report()
        to_dict = harness.EvalReport.to_dict
        monkeypatch.setattr(harness.EvalReport, "to_dict",
                            lambda self: {**to_dict(self), "charts_upgraded": 4, "spare": None})
        assert report_render(report, "csv").endswith("\ncharts_upgraded,4\nspare,\n")

    def test_markdown_matches_golden_file(self):
        rendered = report_render(self.make_report(), "markdown")
        golden = (DATA / "report_golden.md").read_text()
        assert rendered == golden

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            report_render(self.make_report(), "yaml")


class TestUnknownModes:
    """An unknown mode is the run's error, raised before any instance runs."""

    @staticmethod
    def drawn_instances(drawn):
        for instance in load_dataset(DATA / "eval10.jsonl").instances:
            drawn.append(instance)
            yield instance

    @pytest.mark.parametrize("mode", JUDGE_MODES)
    def test_every_judge_mode_runs(self, mode):
        # eval10's answers all match at tier 1, so neither judge asks the LLM
        transport = load_mock_script(DATA / "mock10.json")
        run = run_eval(load_dataset(DATA / "eval10.jsonl").instances,
                       EvalConfig(judge_mode=mode), ChatGateway(transport))
        assert (run.report.correct, run.report.failed_count) == (10, 0)

    @pytest.mark.parametrize("config", [EvalConfig(router_mode="always-sideways"),
                                        EvalConfig(judge_mode="lenient")])
    def test_unknown_mode_raises_before_any_instance(self, config):
        transport = Recording(load_mock_script(DATA / "mock10.json"))
        drawn = []
        with pytest.raises(ValueError, match="unknown"):
            run_eval(self.drawn_instances(drawn), config, ChatGateway(transport))
        assert drawn == []
        assert transport.calls == []


class TestTopologyOracleKinds:
    def test_end_node_count_on_flowvqa_like(self):
        # the chart of "How many end nodes are there?" has five nodes, one End
        from flowsra.parsing import parse_text

        instance = next(i for i in flowvqa_like_instances()
                        if i.question.text == "How many end nodes are there?")
        graph = parse_text(instance.source, instance.dialect)[1].graph
        assert len(graph.nodes) == 5
        assert topology_oracle(graph, instance.question) == "1"

    def test_kind_counts_on_random_graphs(self):
        for seed in range(20):
            graph = rand_flow_graph(random.Random(seed))
            for word, kind in (("start", NodeKind.START), ("end", NodeKind.END)):
                expected = str(sum(1 for n in graph.nodes if n.kind is kind))
                question = Question(f"How many {word} nodes are there?")
                assert topology_oracle(graph, question) == expected


class TestInstanceLogFields:
    def test_to_dict_keys_are_the_field_names_in_order(self):
        from dataclasses import fields

        from flowsra.harness import InstanceLog

        log = InstanceLog("c", "q?", "a", QuestionType.TOPOLOGY, route=Route.DEEP)
        record = log.to_dict()
        assert list(record) == [f.name for f in fields(InstanceLog)]
        assert record["gold_type"] == "TP4" and record["route"] == "deep"
        assert InstanceLog("c", "q?", "a", QuestionType.TOPOLOGY).to_dict()["route"] is None
