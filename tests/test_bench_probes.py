"""The benchmark's traced mode finds every function it probes, and runs.

``bench/tracing.py`` keys its per-layer spans on the code objects of
flowsra functions and reports a probe that no longer resolves as absent, so
a refactor that renames or drops one would lose that layer's metrics
silently. A probe's hooks also read the probed function's parameters by
name, so a short traced run checks that they still find them. These tests
only read ``bench/``; the run works on a copy.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def test_every_probe_resolves_to_a_code_object(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.PROBES
    missing = [(probe.name, probe.module, probe.qualname) for probe in tracing.PROBES
               if not isinstance(tracing._resolve(probe), types.CodeType)]
    assert missing == []


def test_a_short_traced_eval_cold_run_is_correct(tmp_path):
    # a copy, so that the run's build directory lands under tmp_path
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval-cold", "--seed", "3",
         "--seconds", "0.2", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
