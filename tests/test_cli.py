"""Command-line behavior: payload on stdout, diagnostics on stderr, exit codes."""

import contextlib
import io
import json
import sys
import tempfile
import threading
from dataclasses import fields
from pathlib import Path

import pytest
import requests
from hypothesis import example, given, settings, strategies as st

import flowsra.cli as cli_mod
from flowsra.cli import main
from flowsra import harness, relations, routing
from flowsra.gateway import (
    PermanentError,
    ProtocolError,
    ScriptedMissError,
    TransientError,
    load_mock_script,
)
from flowsra.parsing import parse_text

from gen import Recording, deep_if_text, isomorphic

DATA = Path(__file__).parent / "data"

MERMAID_FIXTURE = """flowchart TD
S([Start])
H[Do your homework]
D{Finished?}
B[Take a break]
E([End])
S --> H
H --> D
D -->|Yes| B
D -->|No| H
B --> E
"""


@pytest.fixture
def chart(tmp_path):
    path = tmp_path / "chart.mmd"
    path.write_text(MERMAID_FIXTURE)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConvert:
    def test_mermaid_to_dot_round_trips(self, capsys, chart):
        code, out, err = run_cli(capsys, "convert", chart, "--to", "dot")
        assert code == 0
        _, original = parse_text(MERMAID_FIXTURE)
        _, converted = parse_text(out)
        assert converted.ok
        assert isomorphic(converted.graph, original.graph)

    def test_empty_mermaid_gives_dot_header(self, capsys, tmp_path):
        path = tmp_path / "empty.mmd"
        path.write_text("flowchart TD\n")
        code, out, _ = run_cli(capsys, "convert", str(path), "--to", "dot")
        assert code == 0
        assert out == "digraph G {\n}\n"

    def test_deeply_nested_plantuml_converts(self, capsys, tmp_path):
        text = deep_if_text(1200)
        path = tmp_path / "deep.puml"
        path.write_text(text)
        code, out, err = run_cli(capsys, "convert", str(path), "--to", "plantuml")
        assert code == 0
        assert "Traceback" not in err
        _, original = parse_text(text)
        _, converted = parse_text(out)
        assert converted.ok
        assert isomorphic(converted.graph, original.graph)

    def test_malformed_input_exits_1_with_diagnostics_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "bad.mmd"
        path.write_text("flowchart TD\nA-->\n")
        code, out, err = run_cli(capsys, "convert", str(path), "--to", "dot")
        assert code == 1
        assert out == ""
        assert "line 2" in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "convert", str(tmp_path / "nope.mmd"),
                               "--to", "dot")
        assert code == 1
        assert "error" in err

    def test_percent_signs_round_trip_mermaid_to_dot_and_back(self, capsys, tmp_path):
        source = tmp_path / "sale.mmd"
        source.write_text('flowchart TD\nA["Save 50%% now"] -->|50%% off| B[Done] %% note\n')
        code, dot, err = run_cli(capsys, "convert", str(source), "--to", "dot")
        assert (code, err) == (0, "")
        dot_path = tmp_path / "sale.dot"
        dot_path.write_text(dot)
        code, mermaid, err = run_cli(capsys, "convert", str(dot_path), "--to", "mermaid")
        assert (code, err) == (0, "")
        _, original = parse_text(source.read_text())
        _, back = parse_text(mermaid)
        assert back.ok and back.graph == original.graph
        assert [n.text for n in back.graph.nodes] == ["Save 50%% now", "Done"]
        assert [e.label.render() for e in back.graph.edges] == ["50%% off"]

    def test_dot_ids_mermaid_cannot_carry_round_trip(self, capsys, tmp_path):
        source = tmp_path / "ids.dot"
        source.write_text('digraph G { 1 -> 2; "a b" -> c; "\u00e9" -> 2 }')
        code, mermaid, err = run_cli(capsys, "convert", str(source), "--to", "mermaid")
        assert (code, err) == (0, "")
        mermaid_path = tmp_path / "ids.mmd"
        mermaid_path.write_text(mermaid)
        code, dot, err = run_cli(capsys, "convert", str(mermaid_path), "--to", "dot")
        assert (code, err) == (0, "")
        _, original = parse_text(source.read_text())
        _, back = parse_text(dot)
        assert back.ok and isomorphic(back.graph, original.graph)

    def test_non_utf8_chart_exits_1_naming_it(self, capsys, tmp_path):
        path = tmp_path / "bad.mmd"
        path.write_bytes(b"flowchart TD\nA-->B\xff\n")
        code, out, err = run_cli(capsys, "convert", str(path), "--to", "dot")
        assert code == 1
        assert out == ""
        assert err == f"error: {path} is not UTF-8 text (byte 18: invalid start byte)\n"


# chart bytes: anything, or pieces of every dialect with bytes that are not UTF-8
_chart_bytes = st.binary(max_size=120) | st.lists(st.sampled_from(
    [b"flowchart TD\n", b"A-->B\n", b"B{x}\n", b"digraph G {", b"A -> B;", b"}",
     b"@startuml\n", b"start\n", b":a;\n", b"stop\n", b"@enduml\n", b"\xff", b"\xc3",
     b"\xe9", b"\xed\xa0\x80", b"\n"]), max_size=12).map(b"".join)


@settings(max_examples=50, deadline=None)
@given(_chart_bytes)
def test_chart_bytes_exit_0_or_1(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chart"
        path.write_bytes(data)
        for argv in ([["convert", str(path), "--to", d] for d in ("mermaid", "dot", "plantuml")]
                     + [["stats", str(path)]]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in (0, 1), (argv, err.getvalue())


# a reply per prompt kind: tagged lines (in and out of format) among free text,
# or None for no script rule, so that prompt kind misses the script
_REPLY = st.none() | st.lists(st.text(max_size=20) | st.sampled_from(
    ["CLASS: Straight", "**class - complicated**", "CLASS: Maybe", "RELATION: Causality",
     "relation: instantiation.", "RELATION: Contrast", "VERDICT: CORRECT",
     "VERDICT: incorrect", "VERDICT:", "Five", "End"]), max_size=4).map("\n".join)
_PROMPT_OPENINGS = ("You classify a question", "You label the semantic relation",
                    "You verify answers", "You answer questions")


@pytest.mark.parametrize("argv", [
    ["route", "--router", "llm", "--question", "What if it rains?"],
    ["ask", "{chart}", "--router", "llm", "--relation-backend", "llm",
     "--question", "If the homework is not finished, what should I do next?"],
    ["eval", "--dataset", str(DATA / "eval10.jsonl"), "--router", "llm",
     "--relation-backend", "llm", "--judge", "llm"],
])
@settings(max_examples=30, deadline=None)
@given(replies=st.tuples(*[_REPLY] * len(_PROMPT_OPENINGS)))
def test_mock_replies_exit_0_to_3(argv, replies):
    with tempfile.TemporaryDirectory() as tmp:
        chart, script = Path(tmp) / "chart.mmd", Path(tmp) / "script.json"
        chart.write_text(MERMAID_FIXTURE)
        script.write_text(json.dumps([
            {"pattern": opening, "response": reply}
            for opening, reply in zip(_PROMPT_OPENINGS, replies) if reply is not None]))
        argv = [arg.format(chart=chart) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--parallelism", "2", "--mock-script", str(script)])
        assert code in (0, 1, 2, 3), (argv, err.getvalue())


# bytes of a dataset, config or mock-script file: a valid file, anything, or
# pieces of those files' JSON, valid and not, among bytes that are not UTF-8
_RECORD = (DATA / "eval10.jsonl").read_bytes().splitlines()[0]
_RULE = b'{"pattern": "", "response": "CLASS: Straight"}'
_pieces = st.binary(max_size=60) | st.lists(st.sampled_from(
    [_RECORD, _RULE, b"\n", b"{", b"}", b"[", b"]", b",", b":", b"null", b"1e999",
     b"9" * 5000, b'"\\ud800"', b"\xef\xbb\xbf", b"\xff", b"\xc3", b'{"id": 1',
     b'"offline": true', b'"parallelism": "2"', b'"cache_dir": null', b'"pattern"',
     b'"response"', b'{"match": "hash", "pattern": "", "response": ""}',
     b'{"match": "regex", "pattern": "", "response": ""}']), max_size=8).map(b"".join)


def _file(*valid):
    return st.sampled_from(valid) | _pieces


@settings(max_examples=60, deadline=None)
@given(dataset=_file(_RECORD, _RECORD + b"\n" + b"9" * 5000),
       config=_file(b"{}", b'{"offline": true}'),
       script=_file(b"[]", b"[" + _RULE + b"]"))
@example(dataset=b"9" * 5000 + b"\n", config=b"{}", script=b"[]")
def test_file_bytes_exit_0_to_3(dataset, config, script):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in (("dataset", dataset), ("config", config), ("script", script)):
            (tmp / name).write_bytes(data)
        # flags win over the config file, so no generated file moves the cache
        # out of tmp or starts more threads
        common = ["--config", str(tmp / "config"), "--mock-script", str(tmp / "script"),
                  "--cache-dir", str(tmp / "cache"), "--parallelism", "2"]
        for argv in (["eval", "--dataset", str(tmp / "dataset"), "--router", "llm"],
                     ["route", "--router", "llm", "--question", "Why?"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv + common)
            assert code in (0, 1, 2, 3), (argv, err.getvalue())


class TestUpgrade:
    def test_heuristic_upgrade_emits_labels_and_triples(self, capsys, chart):
        code, out, _ = run_cli(capsys, "upgrade", chart,
                               "--relation-backend", "heuristic")
        assert code == 0
        assert "Conditionality (Yes)" in out
        assert "(Finished?) -[Conditionality]-> (Take a break)" in out

    def test_zero_edge_chart_prints_taxonomy_only(self, capsys, tmp_path):
        path = tmp_path / "solo.mmd"
        path.write_text("flowchart TD\nS([Start])\n")
        code, out, _ = run_cli(capsys, "upgrade", str(path))
        assert code == 0
        assert "Relation taxonomy" in out
        assert "-[" not in out

    def test_llm_backend_offline_without_cache_exits_3(self, capsys, chart, tmp_path):
        code, _, err = run_cli(capsys, "upgrade", chart,
                               "--relation-backend", "llm", "--offline",
                               "--cache-dir", str(tmp_path / "cache"))
        assert code == 3
        assert "backend error" in err


class TestAsk:
    def test_scripted_mock_controlled_straight(self, capsys, chart, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(
            [{"match": "contains", "pattern": "How many nodes", "response": "5"}]))
        code, out, _ = run_cli(
            capsys, "ask", chart, "--question", "How many nodes are there?",
            "--mode", "controlled", "--mock-script", str(script))
        assert code == 0
        payload = json.loads(out)
        assert payload["answer"] == "5"
        assert payload["route"] == "shallow"

    def test_scenario_question_routes_deep_and_logs_calls(self, capsys, chart, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(
            [{"match": "contains", "pattern": "", "response": "Do your homework"}]))
        code, out, err = run_cli(
            capsys, "ask", chart, "--question",
            "If the homework is not finished, what should I do next?",
            "--mode", "controlled", "--mock-script", str(script))
        assert code == 0
        payload = json.loads(out)
        assert payload["route"] == "deep"
        # the heuristic recognizer upgrades the chart without a request
        assert "recognizer calls: 0" in err

    def test_concurrent_llm_recognition_counts_every_edge(self, capsys, chart, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(
            [{"match": "contains", "pattern": "", "response": "RELATION: Sequentiality"}]))
        code, out, err = run_cli(
            capsys, "ask", chart, "--question", "What then?", "--mode", "deep",
            "--relation-backend", "llm", "--parallelism", "8",
            "--mock-script", str(script))
        assert code == 0
        assert "recognizer calls: 5" in err

    def test_llm_recognizer_calls_count_re_asks(self, capsys, chart, tmp_path):
        # the first reply about edge B --> E names no relation, so it is asked again
        script = tmp_path / "script.json"
        script.write_text(json.dumps([
            {"match": "contains", "pattern": "could not be parsed",
             "response": "RELATION: Sequentiality"},
            {"match": "contains", "pattern": "Node A (source): Take a break",
             "response": "no idea"},
            {"match": "contains", "pattern": "", "response": "RELATION: Sequentiality"}]))
        code, out, err = run_cli(
            capsys, "ask", chart, "--question", "What then?", "--mode", "deep",
            "--relation-backend", "llm", "--mock-script", str(script))
        assert code == 0
        assert json.loads(out)["fallbacks_used"] == 0
        assert "recognizer calls: 6" in err

    def test_only_relation_requests_count_as_recognizer_calls(self, capsys, chart, tmp_path):
        # the router is asked twice and the deep answer once, on the same
        # gateway as the five relation requests and one relation re-ask
        script = tmp_path / "script.json"
        script.write_text(json.dumps([
            {"pattern": "Answer again with exactly one line: CLASS",
             "response": "CLASS: Complicated"},
            {"pattern": "You classify a question", "response": "no idea"},
            {"pattern": "could not be parsed", "response": "RELATION: Sequentiality"},
            {"pattern": "Node A (source): Take a break", "response": "no idea"},
            {"pattern": "You label the semantic relation", "response": "RELATION: Sequentiality"},
            {"pattern": "", "response": "Do your homework"}]))
        code, out, err = run_cli(
            capsys, "ask", chart, "--question", "What then?", "--mode", "controlled",
            "--router", "llm", "--relation-backend", "llm", "--mock-script", str(script))
        assert code == 0
        assert json.loads(out)["route"] == "deep"
        assert "recognizer calls: 6" in err

    def test_concurrent_deep_ask_leaves_no_thread_behind(self, capsys, chart, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(
            [{"match": "contains", "pattern": "", "response": "RELATION: Sequentiality"}]))
        before = threading.active_count()
        code, _, _ = run_cli(
            capsys, "ask", chart, "--question", "What then?", "--mode", "deep",
            "--relation-backend", "llm", "--parallelism", "8",
            "--mock-script", str(script))
        assert code == 0
        assert threading.active_count() == before

    def test_straight_question_logs_zero_recognizer_calls(self, capsys, chart, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(
            [{"match": "contains", "pattern": "", "response": "5"}]))
        code, _, err = run_cli(
            capsys, "ask", chart, "--question", "How many nodes are there?",
            "--mode", "controlled", "--mock-script", str(script))
        assert code == 0
        assert "recognizer calls: 0" in err

    def test_explicit_shallow_mode(self, capsys, chart, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(
            [{"match": "contains", "pattern": "", "response": "ok"}]))
        code, out, _ = run_cli(capsys, "ask", chart, "--question", "anything?",
                               "--mode", "shallow", "--mock-script", str(script))
        assert json.loads(out)["route"] == "shallow"


class TestRoute:
    def test_straight(self, capsys):
        code, out, _ = run_cli(capsys, "route", "--question",
                               "How many nodes are there?")
        assert code == 0
        assert json.loads(out) == {"class": "Straight"}

    def test_complicated(self, capsys):
        code, out, _ = run_cli(capsys, "route", "--question",
                               "Suppose it breaks, what then?")
        assert json.loads(out) == {"class": "Complicated"}

    def test_llm_replies_without_class_line_exit_3(self, capsys, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"pattern": "", "response": "Hard to say."}]))
        code, out, err = run_cli(capsys, "route", "--router", "llm", "--question", "Why?",
                                 "--mock-script", str(script))
        assert code == 3
        assert out == ""
        assert err == "backend error: unparseable class for question 'Why?'\n"


class TestStats:
    def test_counts(self, capsys, chart):
        code, out, _ = run_cli(capsys, "stats", chart)
        assert code == 0
        assert json.loads(out) == {
            "node_count": 5, "edge_count": 5,
            "decision_count": 1, "max_out_degree": 2}

    def test_empty_chart_zeros(self, capsys, tmp_path):
        path = tmp_path / "empty.mmd"
        path.write_text("flowchart TD\n")
        code, out, _ = run_cli(capsys, "stats", str(path))
        assert json.loads(out) == {
            "node_count": 0, "edge_count": 0,
            "decision_count": 0, "max_out_degree": 0}

    def test_invalid_input_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.mmd"
        path.write_text("flowchart TD\nA[oops\n")
        code, _, _ = run_cli(capsys, "stats", str(path))
        assert code == 1


class TestEval:
    def test_mock_eval_report_on_stdout_logs_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--dataset", str(DATA / "eval10.jsonl"),
            "--mock-script", str(DATA / "mock10.json"))
        assert code == 0
        report = json.loads(out)
        assert report["overall_acc"] == 1.0
        log_lines = [line for line in err.splitlines() if line.startswith("{")]
        assert len(log_lines) == 10

    def test_markdown_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--dataset", str(DATA / "eval10.jsonl"),
            "--mock-script", str(DATA / "mock10.json"),
            "--report", "markdown")
        assert code == 0
        assert out.splitlines()[0] == "| Run | Overall | TP1 | TP2 | TP3 | TP4 |"

    def test_eval_is_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            _, out, _ = run_cli(
                capsys, "eval", "--dataset", str(DATA / "eval10.jsonl"),
                "--mock-script", str(DATA / "mock10.json"))
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_filter_type(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--dataset", str(DATA / "eval10.jsonl"),
            "--mock-script", str(DATA / "mock10.json"),
            "--filter-type", "TP2")
        assert json.loads(out)["total"] == 3

    def test_log_file_option(self, capsys, tmp_path):
        log_path = tmp_path / "logs.jsonl"
        code, _, err = run_cli(
            capsys, "eval", "--dataset", str(DATA / "eval10.jsonl"),
            "--mock-script", str(DATA / "mock10.json"),
            "--log-file", str(log_path))
        assert code == 0
        assert len(log_path.read_text().splitlines()) == 10
        assert not [line for line in err.splitlines() if line.startswith("{")]

    def test_unopenable_log_file_exits_1_before_any_transport_call(
            self, capsys, tmp_path, monkeypatch):
        transports = []

        def load(path):
            transports.append(Recording(load_mock_script(path)))
            return transports[-1]

        monkeypatch.setattr(cli_mod, "load_mock_script", load)
        log_path = tmp_path / "missing" / "logs.jsonl"
        code, out, err = run_cli(
            capsys, "eval", "--dataset", str(DATA / "eval10.jsonl"),
            "--mock-script", str(DATA / "mock10.json"), "--log-file", str(log_path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot open log file {log_path}: ")
        assert [transport.calls for transport in transports] == [[]]

    def test_truncated_cache_entry_is_healed(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = ("eval", "--dataset", str(DATA / "eval10.jsonl"),
                "--mock-script", str(DATA / "mock10.json"), "--cache-dir", str(cache))
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        entry = sorted(cache.glob("*.json"))[0]
        entry.write_text(entry.read_text()[:20])
        code, second, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert second == first
        json.loads(entry.read_text())

    def test_judge_error_fails_only_its_instance(self, capsys):
        # mock10.json scripts no judge prompt, so every tier-2 verdict raises
        code, out, err = run_cli(
            capsys, "eval", "--dataset", str(DATA / "flowvqa_like_20.jsonl"),
            "--mock-script", str(DATA / "mock10.json"), "--judge", "llm")
        assert code == 0, err
        report = json.loads(out)
        assert report["total"] == 20
        assert report["failed_count"] > 0
        logs = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert len(logs) == 20
        assert any(log["predicted"] is not None and "You verify answers" in log["error"]
                   for log in logs)

    def test_empty_dataset_exits_1(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code, _, _ = run_cli(capsys, "eval", "--dataset", str(path))
        assert code == 1

    def test_non_utf8_dataset_exits_1_naming_it(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes((DATA / "eval10.jsonl").read_bytes() + b"\xff\n")
        code, out, err = run_cli(capsys, "eval", "--dataset", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path} is not UTF-8 text (byte ")

    def test_non_utf8_config_file_stays_a_config_error(self, capsys, tmp_path, chart):
        config = tmp_path / "flowsra.json"
        config.write_bytes(b'{"reasoner_model": "\xff"}')
        code, _, err = run_cli(capsys, "stats", chart, "--config", str(config))
        assert code == 2
        assert err.startswith("config error: ")


class TestByteOrderMark:
    """One leading U+FEFF, as editors on some platforms write it, is not
    part of a chart, dataset, config file or mock script."""

    BOM = "\ufeff"

    @pytest.mark.parametrize("dialect", [[], ["--dialect", "mermaid"]])
    def test_chart_file(self, capsys, tmp_path, chart, dialect):
        path = tmp_path / "bom.mmd"
        path.write_text(self.BOM + MERMAID_FIXTURE, encoding="utf-8")
        expected = run_cli(capsys, "convert", chart, "--to", "dot", *dialect)
        assert run_cli(capsys, "convert", str(path), "--to", "dot", *dialect) == expected
        assert expected[0] == 0

    def test_chart_on_stdin(self, capsys, monkeypatch, chart):
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.BOM + MERMAID_FIXTURE))
        got = run_cli(capsys, "stats", "-")
        assert got == run_cli(capsys, "stats", chart)
        assert got[0] == 0

    def test_only_one_mark_is_dropped(self, capsys, tmp_path):
        path = tmp_path / "twice.mmd"
        path.write_text(2 * self.BOM + MERMAID_FIXTURE, encoding="utf-8")
        code, _, err = run_cli(capsys, "convert", str(path), "--to", "dot")
        assert code == 1 and "no dialect marker" in err

    def test_dataset_keeps_its_first_record(self, capsys, tmp_path):
        path = tmp_path / "bom.jsonl"
        path.write_text(self.BOM + (DATA / "eval10.jsonl").read_text(), encoding="utf-8")
        argv = ("--mock-script", str(DATA / "mock10.json"))
        code, out, err = run_cli(capsys, "eval", "--dataset", str(path), *argv)
        assert (code, json.loads(out)["total"]) == (0, 10)
        assert "record 1" not in err
        assert out == run_cli(capsys, "eval", "--dataset", str(DATA / "eval10.jsonl"),
                              *argv)[1]

    def test_config_file_and_mock_script(self, capsys, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(self.BOM + json.dumps(
            [{"pattern": "", "response": "CLASS: Complicated"}]), encoding="utf-8")
        config = tmp_path / "flowsra.json"
        config.write_text(self.BOM + json.dumps({"mock_script": str(script)}),
                          encoding="utf-8")
        for argv in (["--mock-script", str(script)], ["--config", str(config)]):
            code, out, err = run_cli(capsys, "route", "--router", "llm",
                                     "--question", "Why?", *argv)
            assert (code, out, err) == (0, '{"class": "Complicated"}\n', "")


class TestOptionsHaveCallers:
    def test_eval_flags_set_every_eval_config_field(self, capsys, monkeypatch):
        configs = []

        def recording_run_eval(instances, config, gateway):
            configs.append(config)
            return harness.run_eval(instances, config, gateway)

        monkeypatch.setattr(cli_mod, "run_eval", recording_run_eval)
        code, _, err = run_cli(
            capsys, "eval", "--dataset", str(DATA / "eval10.jsonl"),
            "--mock-script", str(DATA / "mock10.json"),
            "--router", "llm", "--relation-backend", "llm", "--judge", "llm",
            "--dialect", "dot", "--filter-type", "TP2",
            "--model-reasoner", "r2", "--model-recognizer", "c2",
            "--model-router", "o2", "--model-judge", "j2")
        assert code == 0, err
        [config] = configs
        assert [f.name for f in fields(config) if getattr(config, f.name) == f.default] == []

    @pytest.mark.parametrize("command, flag, table", [
        ("upgrade", "--relation-backend", relations.RELATION_BACKENDS),
        ("ask", "--relation-backend", relations.RELATION_BACKENDS),
        ("eval", "--relation-backend", relations.RELATION_BACKENDS),
        ("ask", "--router", routing.TEXT_ROUTE_MODES),
        ("route", "--router", routing.TEXT_ROUTE_MODES),
        ("eval", "--router", routing.ROUTE_MODES),
        ("eval", "--judge", harness.JUDGE_MODES),
        ("eval", "--report", harness.REPORT_FORMATS),
    ])
    def test_choices_are_read_from_their_selectors_tables(self, command, flag, table):
        subparsers = next(action for action in cli_mod.build_parser()._actions
                          if action.dest == "command")
        [action] = [action for action in subparsers.choices[command]._actions
                    if flag in action.option_strings]
        assert action.choices is table


class TestInputShapes:
    """A config file or mock script of the wrong shape is a configuration
    error (exit 2), a path that cannot be read an input error (exit 1)."""

    @pytest.mark.parametrize("content,message", [
        ("5", " is not a JSON object"),
        ('{"cache_dir": 5}', ": cache_dir must be of type str, not 5"),
        ('{"offline": "false"}', ': offline must be of type bool, not "false"'),
        ('{"parallelism": true}', ": parallelism must be of type int, not true"),
    ])
    def test_config_file_value_of_wrong_type_exits_2(self, capsys, tmp_path, chart,
                                                     content, message):
        config = tmp_path / "flowsra.json"
        config.write_text(content)
        code, out, err = run_cli(capsys, "stats", chart, "--config", str(config))
        assert (code, out) == (2, "")
        assert err == f"config error: config file {config}{message}\n"

    @pytest.mark.parametrize("name,value", [("OFFLINE", "maybe"), ("PARALLELISM", "x")])
    def test_environment_value_of_wrong_type_exits_2(self, capsys, monkeypatch, chart,
                                                     name, value):
        monkeypatch.setenv("FLOWSRA_" + name, value)
        code, out, err = run_cli(capsys, "stats", chart)
        assert (code, out) == (2, "")
        assert err == (f"config error: FLOWSRA_{name}={value!r} is not of type "
                       f"{'bool' if name == 'OFFLINE' else 'int'}\n")

    @pytest.mark.parametrize("entries,message", [
        (["x"], "entry 0: not an object with a string pattern and a string response"),
        ([{"pattern": "Five"}], "entry 0: not an object with a string pattern and a "
                                "string response"),
        ([{"match": "regex", "pattern": "", "response": "5"}],
         "entry 0: unknown mock matcher 'regex'"),
        ([{"pattern": "", "response": "5"}, {"match": "hash", "pattern": "AB12", "response": "5"}],
         "entry 1: a hash pattern must be 64 hex digits, the sha256 of the rendered prompt"),
    ])
    def test_mock_script_entry_of_wrong_shape_exits_2(self, capsys, tmp_path,
                                                      entries, message):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(entries))
        code, out, err = run_cli(capsys, "eval", "--dataset", str(DATA / "eval10.jsonl"),
                                 "--mock-script", str(script))
        assert (code, out) == (2, "")
        assert err == f"config error: mock script {script}, {message}\n"

    @pytest.mark.parametrize("argv", [
        ["stats", "{chart}/x"],
        ["eval", "--dataset", "{chart}/x"],
        ["route", "--router", "llm", "--question", "Why?", "--mock-script", "{chart}/x"],
    ])
    def test_path_under_a_regular_file_exits_1(self, capsys, chart, argv):
        code, out, err = run_cli(capsys, *(arg.format(chart=chart) for arg in argv))
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 20] Not a directory: '{chart}/x'\n"


class TestCacheIo:
    """A cache entry that cannot be read is a miss; one that cannot be
    written is a configuration error."""

    @pytest.fixture
    def llm_route(self, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(
            [{"match": "contains", "pattern": "", "response": "CLASS: Complicated"}]))
        cache = tmp_path / "cache"
        return cache, ("route", "--router", "llm", "--question", "What then?",
                       "--mock-script", str(script), "--cache-dir", str(cache))

    def test_unreadable_entry_is_a_miss_and_heals(self, capsys, llm_route):
        cache, argv = llm_route
        code, first, _ = run_cli(capsys, *argv)
        assert code == 0
        [entry] = cache.glob("*.json")
        entry.unlink()
        entry.symlink_to(entry.name)  # reading it fails with ELOOP
        code, second, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert second == first
        assert not entry.is_symlink()
        json.loads(entry.read_text())

    def test_unwritable_entry_exits_2_naming_it(self, capsys, llm_route):
        cache, argv = llm_route
        run_cli(capsys, *argv)
        [entry] = cache.glob("*.json")
        entry.unlink()
        entry.mkdir()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "config error" in err and str(entry) in err
        assert "Traceback" not in err

    def test_eval_unwritable_entry_exits_2_naming_it(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = ("eval", "--dataset", str(DATA / "eval10.jsonl"),
                "--mock-script", str(DATA / "mock10.json"), "--cache-dir", str(cache))
        assert run_cli(capsys, *argv)[0] == 0
        entries = sorted(cache.glob("*.json"))
        assert entries
        for entry in entries:
            entry.unlink()
            entry.mkdir()
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, err
            assert out == ""
            assert "config error" in err and str(entry) in err
            assert "Traceback" not in err
            entry.rmdir()
            assert run_cli(capsys, *argv)[0] == 0

    def test_eval_cache_error_leaves_no_thread_behind(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        argv = ("eval", "--dataset", str(DATA / "eval10.jsonl"),
                "--mock-script", str(DATA / "mock10.json"), "--cache-dir", str(cache))
        assert run_cli(capsys, *argv)[0] == 0
        entry = max(cache.glob("*.json"))
        entry.unlink()
        entry.mkdir()
        before = threading.active_count()
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and str(entry) in err
        assert threading.active_count() == before

    def test_upgrade_unwritable_entry_exits_2_naming_it(self, capsys, tmp_path, chart):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(
            [{"match": "contains", "pattern": "", "response": "RELATION: Sequentiality"}]))
        cache = tmp_path / "cache"
        argv = ("upgrade", chart, "--relation-backend", "llm",
                "--mock-script", str(script), "--cache-dir", str(cache))
        assert run_cli(capsys, *argv)[0] == 0
        entry = sorted(cache.glob("*.json"))[0]
        entry.unlink()
        entry.mkdir()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, err
        assert out == ""
        assert "config error" in err and str(entry) in err


class TestDeeplyNestedJson:
    """JSON nested deeper than the decoder can follow fails where it is read
    as other invalid JSON does there, without a traceback (a cache entry:
    see test_gateway.py)."""

    DEEP = "[" * 200_000

    def test_dataset_line_is_an_invalid_record(self, capsys, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text(self.DEEP + "\n")
        code, out, err = run_cli(capsys, "eval", "--dataset", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == ["record 1: invalid JSON: nested too deeply",
                                    f"error: no valid records in {path}"]

    def test_config_file_exits_2(self, capsys, tmp_path, chart):
        config = tmp_path / "flowsra.json"
        config.write_text(self.DEEP)
        code, out, err = run_cli(capsys, "stats", chart, "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: cannot read config file {config}: ")
        assert "Traceback" not in err

    def test_mock_script_exits_2(self, capsys, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(self.DEEP)
        code, out, err = run_cli(capsys, "route", "--router", "llm", "--question", "Why?",
                                 "--mock-script", str(script))
        assert (code, out) == (2, "")
        assert err == f"config error: mock script {script}: JSON nested too deeply\n"


class FailingTransport:
    """Answers its first ``answered`` requests, then raises a fresh
    ``error`` on every later one."""

    def __init__(self, error, answered):
        self.error = error
        self.answered = answered
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, req):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call > self.answered:
            raise self.error(f"call {call} failed")
        return {"choices": [{"message": {"role": "assistant",
                                         "content": "RELATION: Sequentiality"}}]}


@pytest.mark.parametrize("error", [TransientError, PermanentError, ProtocolError,
                                   ScriptedMissError])
class TestTransportFailures:
    """Every transport failure, on worker threads too, ends in the command's
    documented exit code, never an escaped exception."""

    @pytest.fixture
    def install(self, monkeypatch):
        sleeps = []

        def install(error, answered):
            transport = FailingTransport(error, answered)
            monkeypatch.setattr(cli_mod, "load_mock_script", lambda path: transport)
            real_gateway = cli_mod._gateway

            def gateway(config):
                gw = real_gateway(config)
                gw._sleep = sleeps.append  # retry backoff without the wait
                return gw

            monkeypatch.setattr(cli_mod, "_gateway", gateway)
            return transport

        return install

    def test_ask_exits_3(self, capsys, chart, install, error):
        # the first edge is recognized inline, the rest fail on worker threads
        transport = install(error, answered=1)
        code, out, err = run_cli(
            capsys, "ask", chart, "--question", "What then?", "--mode", "deep",
            "--relation-backend", "llm", "--parallelism", "2", "--mock-script", "-")
        assert code == 3, err
        assert out == ""
        assert err.startswith("backend error: ")
        assert transport.calls > 1

    def test_eval_exits_0_counting_every_instance_failed(self, capsys, install, error):
        transport = install(error, answered=0)
        code, out, err = run_cli(
            capsys, "eval", "--dataset", str(DATA / "flowvqa_like_20.jsonl"),
            "--router", "llm", "--relation-backend", "llm", "--judge", "llm",
            "--parallelism", "2", "--mock-script", "-")
        assert code == 0, err
        report = json.loads(out)
        assert report["total"] == report["failed_count"] == 20
        logs = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert all(log["error"].startswith(("TransportError", error.__name__))
                   for log in logs)
        assert transport.calls >= 20


class TestEndpoint:
    """A malformed endpoint is a config error before any call; a
    ``Retry-After`` wait the host cannot sleep is a backend error."""

    BAD = "localhost:9/v1/chat/completions"

    class Reply:
        def __init__(self, status_code, headers):
            self.status_code = status_code
            self.headers = headers
            self.text = ""

    @pytest.fixture
    def posted(self, monkeypatch):
        posted = []

        def post(url, **kwargs):
            posted.append(url)
            return self.Reply(429, {"Retry-After": "9300000000"})

        monkeypatch.setattr(requests, "post", post)
        return posted

    @pytest.mark.parametrize("argv", [
        ("ask", "{chart}", "--question", "What then?"),
        ("route", "--router", "llm", "--question", "Why?"),
        ("eval", "--dataset", str(DATA / "flowvqa_like_20.jsonl"), "--router", "llm")])
    def test_malformed_endpoint_exits_2_before_any_call(self, capsys, chart, posted, argv):
        argv = [arg.format(chart=chart) for arg in argv]
        code, out, err = run_cli(capsys, *argv, "--endpoint", self.BAD)
        assert (code, out, posted) == (2, "", [])
        assert err == (f"config error: endpoint {self.BAD!r} is not an http or https "
                       "URL with a host\n")

    def test_offline_still_ignores_the_endpoint(self, capsys, posted):
        code, out, err = run_cli(capsys, "route", "--router", "llm", "--question", "Why?",
                                 "--endpoint", self.BAD, "--offline")
        assert (code, out, posted) == (3, "", [])
        assert err == "backend error: request not in cache and no transport is configured\n"

    def test_ask_with_a_wait_the_host_cannot_sleep_exits_3(self, capsys, chart, posted):
        code, out, err = run_cli(capsys, "ask", chart, "--question", "What then?",
                                 "--mode", "shallow", "--endpoint", "http://x/v1")
        assert (code, out, posted) == (3, "", ["http://x/v1"])
        assert err.startswith("backend error: provider asked to wait 9300000000 s, ")

    def test_eval_with_a_wait_the_host_cannot_sleep_fails_each_instance(
            self, capsys, posted):
        code, out, err = run_cli(capsys, "eval", "--dataset", str(DATA / "eval10.jsonl"),
                                 "--endpoint", "http://x/v1")
        assert code == 0, err
        assert json.loads(out)["failed_count"] == 10
        logs = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert len(logs) == 10
        assert all(log["error"].startswith("TransportError: provider asked to wait")
                   for log in logs)


class TestApiKey:
    """An API key that no HTTP header can carry (a line break, or a
    character outside latin-1) is a config error before any call."""

    @pytest.mark.parametrize("api_key", ["a\nb", "\u043a\u043b\u044e\u0447"])
    @pytest.mark.parametrize("argv", [
        ("ask", "{chart}", "--question", "What then?"),
        ("eval", "--dataset", str(DATA / "eval10.jsonl"))])
    def test_exits_2_before_any_call(self, capsys, chart, monkeypatch, api_key, argv):
        posted = []
        monkeypatch.setattr(requests, "post", lambda url, **kwargs: posted.append(url))
        argv = [arg.format(chart=chart) for arg in argv]
        code, out, err = run_cli(capsys, *argv, "--endpoint", "http://x/v1",
                                 "--api-key", api_key)
        assert (code, out, posted) == (2, "", [])
        assert err == ("config error: API key holds a line break or a character outside "
                       "latin-1, which an HTTP header cannot carry\n")


class TestRetryAfterBeyondTheTimeout:
    """A ``Retry-After`` longer than the request timeout ends the request at
    once, with no wait: ``ask`` exits 3, ``eval`` fails each instance."""

    @pytest.fixture
    def slept(self, monkeypatch):
        monkeypatch.setattr(requests, "post", lambda url, **kwargs: TestEndpoint.Reply(
            429, {"Retry-After": "3600"}))
        slept = []
        real_gateway = cli_mod._gateway

        def gateway(config):
            gw = real_gateway(config)
            gw._sleep = slept.append
            return gw

        monkeypatch.setattr(cli_mod, "_gateway", gateway)
        return slept

    MESSAGE = "provider asked to wait 3600 s, longer than the 120 s request timeout (HTTP 429)"

    def test_ask_exits_3(self, capsys, chart, slept):
        code, out, err = run_cli(capsys, "ask", chart, "--question", "What then?",
                                 "--mode", "shallow", "--endpoint", "http://x/v1")
        assert (code, out, slept) == (3, "", [])
        assert err == f"backend error: {self.MESSAGE}\n"

    def test_eval_fails_each_instance(self, capsys, slept):
        code, out, err = run_cli(capsys, "eval", "--dataset", str(DATA / "eval10.jsonl"),
                                 "--endpoint", "http://x/v1")
        assert (code, slept) == (0, [])
        assert json.loads(out)["failed_count"] == 10
        logs = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
        assert [log["error"] for log in logs] == [f"TransportError: {self.MESSAGE}"] * 10


class TestUnpreparableRequest:
    """A request that ``requests`` cannot prepare (here, for a host with an
    empty label) is a config error naming the endpoint: never retried, and
    it ends an ``eval`` run."""

    ENDPOINT = "http://.example/v1"

    @pytest.fixture
    def slept(self, monkeypatch):
        def send(session, request, **kwargs):  # a prepared request would connect here
            raise AssertionError(f"a connection to {request.url} was attempted")

        monkeypatch.setattr(requests.Session, "send", send)
        slept = []
        real_gateway = cli_mod._gateway

        def gateway(config):
            gw = real_gateway(config)
            gw._sleep = slept.append
            return gw

        monkeypatch.setattr(cli_mod, "_gateway", gateway)
        return slept

    @pytest.mark.parametrize("argv", [
        ("ask", "{chart}", "--question", "What then?"),
        ("route", "--router", "llm", "--question", "Why?"),
        ("eval", "--dataset", str(DATA / "eval10.jsonl"), "--router", "llm")])
    def test_exits_2_without_a_retry(self, capsys, chart, slept, argv):
        argv = [arg.format(chart=chart) for arg in argv]
        code, out, err = run_cli(capsys, *argv, "--endpoint", self.ENDPOINT)
        assert (code, out, slept) == (2, "", [])
        assert err.startswith(f"config error: endpoint {self.ENDPOINT!r}: ")
        assert err.count("\n") == 1


class TestConfigPrecedence:
    def test_config_file_then_env_then_flags(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "flowsra.json"
        config.write_text(json.dumps({"parallelism": 2, "reasoner_model": "from-file"}))
        monkeypatch.setenv("FLOWSRA_PARALLELISM", "4")

        seen = {}

        def fake_stats(args, cfg):
            seen["cfg"] = cfg
            return 0

        import flowsra.cli as cli_mod
        monkeypatch.setattr(cli_mod, "cmd_stats", fake_stats)
        chart = tmp_path / "c.mmd"
        chart.write_text("flowchart TD\n")
        code = main(["stats", str(chart), "--config", str(config),
                     "--parallelism", "6"])
        assert code == 0
        cfg = seen["cfg"]
        assert cfg.parallelism == 6           # flag wins
        assert cfg.reasoner_model == "from-file"

    def test_stats_func_dispatch_unaffected(self, capsys, tmp_path):
        chart = tmp_path / "c.mmd"
        chart.write_text("flowchart TD\nA-->B\n")
        code, out, _ = run_cli(capsys, "stats", str(chart))
        assert code == 0
        assert json.loads(out)["node_count"] == 2


class TestHomeInPaths:
    """A leading ``~`` in the cache directory or the mock script path is the
    home directory, wherever the path is set."""

    @pytest.mark.parametrize("source", ["config", "environment"])
    def test_tilde_is_the_home_directory(self, capsys, tmp_path, monkeypatch, source):
        monkeypatch.setenv("HOME", str(tmp_path))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        (tmp_path / "script.json").write_text(
            json.dumps([{"pattern": "", "response": "CLASS: Straight"}]))
        paths = {"cache_dir": "~/.cache/flowsra", "mock_script": "~/script.json"}
        argv = ["route", "--router", "llm", "--question", "Why?"]
        if source == "config":
            (work / "flowsra.json").write_text(json.dumps(paths))
            argv += ["--config", "flowsra.json"]
        else:
            for name, value in paths.items():
                monkeypatch.setenv("FLOWSRA_" + name.upper(), value)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, '{"class": "Straight"}\n', "")
        assert len(list((tmp_path / ".cache" / "flowsra").glob("*.json"))) == 1
        assert sorted(path.name for path in work.iterdir()) == (
            ["flowsra.json"] if source == "config" else [])


class TestRunConfigFields:
    def test_resolve_reads_every_field_from_a_config_file(self, tmp_path, monkeypatch):
        from argparse import Namespace
        from dataclasses import fields

        from flowsra.cli import RunConfig

        names = [f.name for f in fields(RunConfig)]
        for name in names + ["config"]:
            monkeypatch.delenv("FLOWSRA_" + name.upper(), raising=False)
        values = {name: f"from-file-{name}" for name in names}
        values.update(parallelism=3, offline=True)
        path = tmp_path / "flowsra.json"
        path.write_text(json.dumps(values))
        config = RunConfig.resolve(Namespace(config=str(path)))
        assert {name: getattr(config, name) for name in names} == values

    def test_resolve_converts_environment_values_by_type(self, monkeypatch):
        from argparse import Namespace

        from flowsra.cli import ConfigError, RunConfig

        monkeypatch.delenv("FLOWSRA_CONFIG", raising=False)
        monkeypatch.setenv("FLOWSRA_PARALLELISM", "3")
        monkeypatch.setenv("FLOWSRA_CACHE_DIR", "7")
        for value, offline in (("Yes", True), ("TRUE", True), ("0", False), ("", False)):
            monkeypatch.setenv("FLOWSRA_OFFLINE", value)
            config = RunConfig.resolve(Namespace())
            assert (config.offline, config.parallelism, config.cache_dir) == (offline, 3, "7")
        monkeypatch.setenv("FLOWSRA_OFFLINE", "on")
        with pytest.raises(ConfigError, match="^FLOWSRA_OFFLINE='on' is not of type bool$"):
            RunConfig.resolve(Namespace())


class TestNarrowExitCodes:
    """Only configuration failures exit 2; what a reply or a record holds is
    never reported as one."""

    @pytest.fixture
    def surrogate_script(self, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"pattern": "", "response": "a\ud800b é"}]))
        return str(script)

    def test_ask_reply_with_a_lone_surrogate_prints_escaped_json(self, capsys, chart,
                                                                 surrogate_script):
        code, out, err = run_cli(capsys, "ask", chart, "--question", "What then?",
                                 "--mode", "shallow", "--mock-script", surrogate_script)
        assert code == 0, err
        assert out.count("\n") == 1
        assert '"answer": "a\\ud800b é"' in out  # non-ASCII verbatim, the surrogate escaped
        assert json.loads(out)["answer"] == "a\ud800b é"

    def test_eval_log_file_escapes_a_lone_surrogate(self, capsys, tmp_path,
                                                     surrogate_script):
        log_path = tmp_path / "logs.jsonl"
        code, out, err = run_cli(capsys, "eval", "--dataset", str(DATA / "eval10.jsonl"),
                                 "--mock-script", surrogate_script,
                                 "--log-file", str(log_path))
        assert code == 0, err
        logs = [json.loads(line) for line in log_path.read_text("utf-8").splitlines()]
        assert len(logs) == 10
        assert all(log["predicted"] == "a\ud800b é" for log in logs)

    def test_encode_error_in_a_command_is_not_a_config_error(self, capsys, chart,
                                                             monkeypatch):
        def stats(graph):
            raise UnicodeEncodeError("utf-8", "\ud800", 0, 1, "surrogates not allowed")

        monkeypatch.setattr(cli_mod, "topology_stats", stats)
        code, out, err = run_cli(capsys, "stats", chart)
        assert (code, out) == (1, "")
        assert err == ("error: 'utf-8' codec can't encode character '\\ud800' in "
                       "position 0: surrogates not allowed\n")

    @pytest.mark.parametrize("content", [b"[{", b'[{"pattern": "\xff"}]'])
    def test_mock_script_that_is_not_json_or_not_utf8_exits_2(self, capsys, tmp_path,
                                                              content):
        script = tmp_path / "script.json"
        script.write_bytes(content)
        code, out, err = run_cli(capsys, "route", "--router", "llm", "--question", "Why?",
                                 "--mock-script", str(script))
        assert (code, out) == (2, "")
        assert err.startswith("config error: ")

    @pytest.mark.parametrize("argv", [["ask", "{chart}", "--question", " "],
                                      ["route", "--question", ""]])
    def test_empty_question_exits_1(self, capsys, chart, argv):
        code, out, err = run_cli(capsys, *(arg.format(chart=chart) for arg in argv))
        assert (code, out) == (1, "")
        assert err == "error: question text must be non-empty\n"

    @pytest.mark.parametrize("argv", [["ask", "{chart}", "--router", "llm"],
                                      ["route", "--router", "llm"]])
    def test_question_that_is_not_utf8_exits_1(self, capsys, chart, tmp_path, argv):
        # how argv carries the bytes of `--question $'why \xff?'`
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"pattern": "", "response": "CLASS: Straight"}]))
        code, out, err = run_cli(capsys, *(arg.format(chart=chart) for arg in argv),
                                 "--question", "why \udcff?", "--mock-script", str(script))
        assert (code, out, err) == (1, "", "error: question is not UTF-8 text\n")

    def test_dataset_without_a_valid_record_says_why(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 1\n\n{"id": "x"}\n[1]\n')
        code, out, err = run_cli(capsys, "eval", "--dataset", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "record 1: invalid JSON: Expecting ',' delimiter",
            "record 3: missing fields: ['dialect', 'source', 'question', 'answer', 'type']",
            "record 4: not a JSON object",
            f"error: no valid records in {path}",
        ]

    def test_dataset_integer_too_long_to_convert_is_an_invalid_record(self, capsys, tmp_path):
        path = tmp_path / "big.jsonl"
        path.write_text("9" * 5000 + "\n")
        code, out, err = run_cli(capsys, "eval", "--dataset", str(path))
        assert (code, out) == (1, "")
        first, last = err.splitlines()
        assert first.startswith("record 1: invalid JSON: Exceeds the limit (4300 digits) ")
        assert last == f"error: no valid records in {path}"
