"""Command-line behavior: payload on stdout, diagnostics on stderr, exit codes."""

import contextlib
import io
import json
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import flowsra.cli as cli_mod
from flowsra.cli import main
from flowsra.gateway import (
    PermanentError,
    ProtocolError,
    ScriptedMissError,
    TransientError,
    load_mock_script,
)
from flowsra.parsing import parse_text

from gen import deep_if_text, isomorphic

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
        # the fixture chart has 5 edges, one recognizer call each
        assert "recognizer calls: 5" in err

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
            transports.append(load_mock_script(path))
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


class FailingTransport:
    """Answers its first ``answered`` requests, then raises a fresh
    ``error`` on every later one."""

    is_network = False

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

