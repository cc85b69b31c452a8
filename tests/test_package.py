"""The package's public surface, import footprint and request paths."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import flowsra

_ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves_and_the_list_is_sorted_and_unique():
    assert [name for name in flowsra.__all__ if not hasattr(flowsra, name)] == []
    assert flowsra.__all__ == sorted(set(flowsra.__all__))


def test_the_exported_names_are_the_imported_ones_written_once():
    """``__all__`` is every name that ``__init__.py`` imports from the
    package's modules, and no name is spelled a second time as a string."""
    tree = ast.parse((_ROOT / "src" / "flowsra" / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]
    assert flowsra.__all__ == sorted(imported)
    assert [node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in imported] == []


def test_only_the_gateway_builds_requests_and_only_it_and_the_engine_send_them():
    """Every request is built by ``gateway.prompt_request`` (or re-asked by
    ``gateway.ask_twice``), and every stage but the engine's answers sends
    through ``ask_twice``: in ``src/flowsra`` only gateway.py calls
    ``ChatRequest``, and only gateway.py and engine.py call ``.complete(``."""
    builders, senders = set(), set()
    for path in (_ROOT / "src" / "flowsra").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "ChatRequest":
                builders.add(path.name)
            elif name == "complete" and isinstance(node.func, ast.Attribute):
                senders.add(path.name)
    assert builders == {"gateway.py"}
    assert senders == {"engine.py", "gateway.py"}


def test_only_ir_builds_edge_labels():
    """A label is built by ``EdgeLabel.from_text`` or is one of the shared
    ``YES``, ``NO`` and ``UNLABELED``: in ``src/flowsra`` only ir.py calls
    ``EdgeLabel(``, for those three, and only ``from_text`` calls ``cls(``.
    So a parsed graph's labels are in normal form, and the parser may store
    its clean ``validate`` result, label-normal-form included."""
    owners = set()
    for path in (_ROOT / "src" / "flowsra").glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            scopes, names = [stmt], {"EdgeLabel"}
            if isinstance(stmt, ast.ClassDef) and stmt.name == "EdgeLabel":
                scopes, names = stmt.body, {"EdgeLabel", "cls"}
            for scope in scopes:
                if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) in names
                       for node in ast.walk(scope)):
                    name = getattr(scope, "name", None) or scope.targets[0].id
                    owners.add(f"{path.name}:{name}")
    assert owners == {"ir.py:from_text", "ir.py:YES", "ir.py:NO", "ir.py:UNLABELED"}


def test_only_the_parse_builder_and_the_dot_lexer_record_diagnostics():
    """Each parser records its findings through ``_Builder.error`` and
    ``_Builder.warn``; the DOT lexer's are the only others."""
    owners = set()
    for path in (_ROOT / "src" / "flowsra").glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "ParseDiagnostic"
                   for node in ast.walk(stmt)):
                owners.add(f"{path.name}:{getattr(stmt, 'name', None)}")
    assert owners == {"parsing.py:_Builder", "parsing.py:_DotTokens"}


_FOOTPRINT_SCRIPT = r"""
import contextlib, io, json, sys
import flowsra, flowsra.cli

data, tmp = sys.argv[1], sys.argv[2]
chart = data + "/eval10.jsonl"
with open(chart, encoding="utf-8") as handle:
    with open(tmp + "/chart.mmd", "w", encoding="utf-8") as out:
        out.write(json.loads(handle.readline())["source"])
run = ["eval", "--dataset", chart, "--cache-dir", tmp + "/cache",
       "--log-file", tmp + "/logs.jsonl"]
commands = [
    ["convert", tmp + "/chart.mmd", "--to", "dot"],
    ["stats", tmp + "/chart.mmd"],
    run + ["--mock-script", data + "/mock10.json"],
    run + ["--endpoint", "http://127.0.0.1:9"],  # every request a cache hit
]
results = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        results.append([flowsra.cli.main(argv), out.getvalue()])
loaded = [m for m in ("requests", "urllib3", "email.utils") if m in sys.modules]
print(json.dumps({"results": results, "loaded": loaded}))
"""


def test_no_http_client_is_loaded_without_a_call_to_an_endpoint(tmp_path):
    """Import, convert, stats, a mock eval and its cached replay with an
    endpoint configured load neither the HTTP client nor the mail parser
    it brings, in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT, str(_ROOT / "tests" / "data"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    codes = [code for code, _ in result["results"]]
    assert codes == [0, 0, 0, 0], proc.stderr
    assert result["results"][3][1] == result["results"][2][1]  # replay gives the same report
    assert result["loaded"] == []


def test_eval_is_byte_identical_across_hash_seeds_and_parallelism(tmp_path):
    """The CI's all-``llm`` eval, run in fresh interpreters under
    ``PYTHONHASHSEED`` 0 and 1 at ``--parallelism`` 1 and 8, writes the same
    report and the same per-instance log every time."""
    data = _ROOT / "tests" / "data"
    outputs = set()
    for seed in ("0", "1"):
        for parallelism in ("1", "8"):
            log = tmp_path / f"logs-{seed}-{parallelism}.jsonl"
            proc = subprocess.run(
                [sys.executable, "-m", "flowsra.cli", "eval",
                 "--dataset", str(data / "eval10.jsonl"),
                 "--mock-script", str(data / "mock10_llm.json"), "--router", "llm",
                 "--relation-backend", "llm", "--judge", "llm", "--report", "markdown",
                 "--parallelism", parallelism, "--log-file", str(log)],
                env={**os.environ, "PYTHONPATH": str(_ROOT / "src"), "PYTHONHASHSEED": seed},
                capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.add((proc.stdout, log.read_bytes()))
    [(report, logs)] = outputs
    assert report.startswith(b"| Run | Overall | TP1 |")
    assert logs.count(b"\n") == 10


def _cli_outputs(python, tmp_path):
    """Exit code and stdout bytes of a mock eval with every LLM stage and of
    a convert, run by the interpreter ``python``."""
    data = _ROOT / "tests" / "data"
    chart = tmp_path / "chart.mmd"
    with open(data / "eval10.jsonl", encoding="utf-8") as handle:
        chart.write_text(json.loads(handle.readline())["source"], encoding="utf-8")
    commands = [
        ["eval", "--dataset", str(data / "eval10.jsonl"), "--mock-script",
         str(data / "mock10.json"), "--router", "llm", "--relation-backend", "llm",
         "--judge", "llm", "--report", "markdown"],
        ["convert", str(chart), "--to", "dot"],
    ]
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    outputs = []
    for argv in commands:
        proc = subprocess.run(
            [python, "-c", "from flowsra.cli import entrypoint; entrypoint()", *argv],
            env=env, capture_output=True, timeout=120)
        outputs.append((proc.returncode, proc.stdout))
    return outputs


def _runs_as(python, version) -> bool:
    probe = subprocess.run(
        [python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
        capture_output=True, text=True, timeout=60)
    return probe.returncode == 0 and probe.stdout.strip() == version


def _interpreter(version):
    """A working ``python<version>``: the one on PATH, else one that pyenv
    installed (PATH may hold a pyenv shim that fails for a version the
    shell has not selected). None when neither runs."""
    python = shutil.which(f"python{version}")
    if python and _runs_as(python, version):
        return python
    if not shutil.which("pyenv"):
        return None
    root = subprocess.run(["pyenv", "root"], capture_output=True, text=True,
                          timeout=60).stdout.strip()
    installed = sorted(Path(root).glob(f"versions/{version}.*/bin/python{version}")) if root else []
    return next((str(python) for python in installed if _runs_as(str(python), version)), None)


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_other_interpreters_print_the_same_bytes(tmp_path, version):
    """pyproject.toml declares Python >= 3.10: each other interpreter on PATH,
    or installed by pyenv, prints what this one prints."""
    python = _interpreter(version)
    if python is None:
        pytest.skip(f"no working python{version} on PATH or under pyenv")
    expected = _cli_outputs(sys.executable, tmp_path)
    assert [code for code, _ in expected] == [0, 0]
    assert _cli_outputs(python, tmp_path) == expected
