"""The benchmark's traced mode finds every function it probes.

``bench/tracing.py`` keys its per-layer spans on the code objects of
flowsra functions and reports a probe that no longer resolves as absent, so
a refactor that renames or drops one would lose that layer's metrics
silently. This test only reads ``bench/``.
"""

import importlib.util
import sys
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_probe_resolves_to_a_code_object(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.PROBES
    missing = [(probe.name, probe.module, probe.qualname) for probe in tracing.PROBES
               if not isinstance(tracing._resolve(probe), types.CodeType)]
    assert missing == []
