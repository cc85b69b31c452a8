"""Every request a run sends, and what it reports, pinned as digests.

A request's cache key hashes its model, messages and ``max_tokens``, so old
response caches and hash-matched mock scripts stay valid only while the
pipeline sends byte-identical requests. Each case records the sorted cache
keys of every request its transport receives, one run at a time, and the
renders of what it reports; a change that moves the pipeline around must
leave both digests as they are.
"""

import hashlib
import json
from pathlib import Path

import pytest

from flowsra import cli
from flowsra.gateway import ChatGateway, cache_key, load_mock_script
from flowsra.harness import EvalConfig, load_dataset, report_render, run_eval
from flowsra.routing import ROUTE_MODES

from gen import Recording

DATA = Path(__file__).parent / "data"
BACKENDS = ("heuristic", "llm")


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def hash_answers(req) -> dict:
    """A reply that depends on nothing but the request; a third of router
    and judge replies and a quarter of relation replies cannot be used, so
    every retry reminder is sent."""
    text = req.rendered()
    pick = hashlib.sha256(text.encode("utf-8")).digest()[0]
    if "Node A (source):" in text:
        tag = ("Contrast", "Conditionality", "Causality", "Sequentiality")[pick % 4]
        content = f"analysis\nRELATION: {tag}"
    elif "Straight or Complicated" in text:
        content = ("CLASS: Straight", "CLASS: Complicated", "unsure")[pick % 3]
    elif "Gold answer:" in text:
        content = ("VERDICT: CORRECT", "VERDICT: INCORRECT", "maybe")[pick % 3]
    else:
        content = f"answer {pick % 3}"
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def eval_digests(dataset: str, inner, router_mode: str, backend: str):
    transport = Recording(inner)
    run = run_eval(load_dataset(DATA / dataset).instances,
                   EvalConfig(router_mode=router_mode, relation_backend=backend,
                              judge_mode="llm"),
                   ChatGateway(transport, parallelism=1))
    renders = [report_render(run.report, fmt) for fmt in ("json", "csv", "markdown")]
    renders += [json.dumps(log.to_dict(), sort_keys=True) for log in run.logs]
    return digest(sorted(map(cache_key, transport.calls))), digest(renders)


# (router mode, relation backend) -> (request digest, report and log digest)
MOCK10 = {
    ('llm', 'heuristic'): ('c8dcc3583ecaa68a', '19f3bcf7e66e2161'),
    ('llm', 'llm'): ('a0c1131c09276771', '0e7956a6f6bd4cab'),
    ('heuristic', 'heuristic'): ('2f53632b4dd8f65e', '69f1bf43382085e1'),
    ('heuristic', 'llm'): ('5e1c8198422e1175', '58e6d4fb323e86bf'),
    ('oracle', 'heuristic'): ('2f53632b4dd8f65e', 'bae82a5c0e1fdd20'),
    ('oracle', 'llm'): ('5e1c8198422e1175', 'ffcf7cba189e0a6a'),
    ('always-shallow', 'heuristic'): ('aac45e403c66a1c7', '4c886f55c5e8bd72'),
    ('always-shallow', 'llm'): ('aac45e403c66a1c7', 'c8544ee2c9cf8db0'),
    ('always-deep', 'heuristic'): ('5d0383abb95749e1', '0593370f6b4024f6'),
    ('always-deep', 'llm'): ('f9a102b71bd123d9', '4471c88464d1ef20'),
}

HASHED20 = {
    ('llm', 'heuristic'): ('1e86f4da8ec98abe', '97ede793187094e4'),
    ('llm', 'llm'): ('62a2dc13da0279f1', '707fd567852d6a04'),
    ('heuristic', 'heuristic'): ('f68207da6f364ded', '52254e06b05e1cab'),
    ('heuristic', 'llm'): ('84a1434caa121596', '5ab7484dfb10b9e3'),
    ('oracle', 'heuristic'): ('f68207da6f364ded', '0cdd4d68044d81b9'),
    ('oracle', 'llm'): ('84a1434caa121596', '8f77eaabb9f9a277'),
    ('always-shallow', 'heuristic'): ('dd1cc7e2a8755b7d', '2149f8aa0d6c8b94'),
    ('always-shallow', 'llm'): ('dd1cc7e2a8755b7d', 'e0a29a873a1a5402'),
    ('always-deep', 'heuristic'): ('e2a9c10eac9ead04', '35d8d641b31e7347'),
    ('always-deep', 'llm'): ('81de5cf7ed3ef4a1', 'b9377e394d770ce1'),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("router_mode", ROUTE_MODES)
def test_eval10_requests_and_reports(router_mode, backend):
    got = eval_digests("eval10.jsonl", load_mock_script(DATA / "mock10.json"),
                       router_mode, backend)
    assert got == MOCK10[(router_mode, backend)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("router_mode", ROUTE_MODES)
def test_flowvqa_like_requests_and_reports(router_mode, backend):
    got = eval_digests("flowvqa_like_20.jsonl", hash_answers, router_mode, backend)
    assert got == HASHED20[(router_mode, backend)]


HOMEWORK = load_dataset(DATA / "eval10.jsonl").instances[0].source
ASK_QUESTIONS = ("How many nodes are in the flowchart?",
                 "If the homework is not finished, what should I do next?")

# (mode, router, relation backend) -> (request digest, digest of exit codes,
# stdout and stderr)
ASK = {
    ('shallow', 'heuristic', 'heuristic'): ('b028e01d06808e7e', '261b4f4ceb7b458c'),
    ('shallow', 'heuristic', 'llm'): ('b028e01d06808e7e', '261b4f4ceb7b458c'),
    ('shallow', 'llm', 'heuristic'): ('b028e01d06808e7e', '261b4f4ceb7b458c'),
    ('shallow', 'llm', 'llm'): ('b028e01d06808e7e', '261b4f4ceb7b458c'),
    ('deep', 'heuristic', 'heuristic'): ('baaf9ac1c35191fe', 'e8059301c8eae04f'),
    ('deep', 'heuristic', 'llm'): ('444d9e2c2924c7f2', '275258709772440e'),
    ('deep', 'llm', 'heuristic'): ('baaf9ac1c35191fe', 'e8059301c8eae04f'),
    ('deep', 'llm', 'llm'): ('444d9e2c2924c7f2', '275258709772440e'),
    ('controlled', 'heuristic', 'heuristic'): ('490a1758b76c29c3', 'cdcb1a12da56780a'),
    ('controlled', 'heuristic', 'llm'): ('6e34c2d8e79b82ae', '7f115ed072dd867c'),
    ('controlled', 'llm', 'heuristic'): ('a6a9af19a4265329', 'e8059301c8eae04f'),
    ('controlled', 'llm', 'llm'): ('0dde23e509994b60', '275258709772440e'),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("router", ("heuristic", "llm"))
@pytest.mark.parametrize("mode", ("shallow", "deep", "controlled"))
def test_ask_requests_and_payloads(mode, router, backend, tmp_path, capsys, monkeypatch):
    transports = []

    def recording_script(path):
        transports.append(Recording(load_mock_script(path)))
        return transports[-1]

    monkeypatch.setattr(cli, "load_mock_script", recording_script)
    chart = tmp_path / "chart.mmd"
    chart.write_text(HOMEWORK)
    keys, outcomes = [], []
    for question in ASK_QUESTIONS:
        code = cli.main(["ask", str(chart), "--question", question, "--mode", mode,
                         "--router", router, "--relation-backend", backend,
                         "--parallelism", "1",
                         "--mock-script", str(DATA / "mock10.json")])
        keys += map(cache_key, transports[-1].calls)
        captured = capsys.readouterr()
        outcomes += [str(code), captured.out, captured.err]
    assert (digest(sorted(keys)), digest(outcomes)) == ASK[(mode, router, backend)]
