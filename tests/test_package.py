"""The package's public surface and import footprint."""

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
