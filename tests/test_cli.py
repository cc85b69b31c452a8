"""Command-line behavior: payload on stdout, diagnostics on stderr, exit codes."""

import json
import sys
import threading
from pathlib import Path

import pytest

from flowsra.cli import _CountingBackend, main
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


    def test_recognizer_count_is_exact_under_contention(self):
        class Inner:
            gateway = None

            def recognize(self, src, dst, label, context):
                return None

        backend = _CountingBackend(Inner())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(
                target=lambda: [backend.recognize(None, None, None, None)
                                for _ in range(2000)]) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert backend.calls == 8 * 2000


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

    def test_empty_dataset_exits_1(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code, _, _ = run_cli(capsys, "eval", "--dataset", str(path))
        assert code == 1


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
