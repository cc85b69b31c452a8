"""Every request a run sends, and what it reports, pinned as digests.

A request's cache key hashes its model, messages and ``max_tokens``, so old
response caches and hash-matched mock scripts stay valid only while the
pipeline sends byte-identical requests. Each case records the sorted cache
keys of every request its transport receives, one run at a time, and the
renders of what it reports: one digest over the JSON and markdown reports
and the logs, one over the CSV report. A change that moves the pipeline
around must leave every digest as it is.
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
    renders = [report_render(run.report, fmt) for fmt in ("json", "markdown")]
    renders += [json.dumps(log.to_dict(), sort_keys=True) for log in run.logs]
    return (digest(sorted(map(cache_key, transport.calls))), digest(renders),
            digest([report_render(run.report, "csv")]))


# (router mode, relation backend) -> (request digest, digest of the JSON and
# markdown reports and the logs, digest of the CSV report)
MOCK10 = {
    ('llm', 'heuristic'): ('c8dcc3583ecaa68a', '0665c9a9e01c276a', '6b1ec6f7a1d638d0'),
    ('llm', 'llm'): ('a0c1131c09276771', '06ca6d851d6219d3', 'b994c45a2fdc680e'),
    ('heuristic', 'heuristic'): ('2f53632b4dd8f65e', '8691b1380600f74e', '290a1e5b4e5e1260'),
    ('heuristic', 'llm'): ('5e1c8198422e1175', '32e2b2bfb0b22025', '5ab2f2a889a530e6'),
    ('oracle', 'heuristic'): ('2f53632b4dd8f65e', '6c4092938af533f5', 'bf2f79d9fffca387'),
    ('oracle', 'llm'): ('5e1c8198422e1175', '8c0e40f2cf6892b6', 'a42f998bcc1bea8e'),
    ('always-shallow', 'heuristic'): ('aac45e403c66a1c7', '3518e396911a1a2e', '45536fdb32e53d8f'),
    ('always-shallow', 'llm'): ('aac45e403c66a1c7', '1ee2c0caac83702e', 'a6fc2272beaf3c17'),
    ('always-deep', 'heuristic'): ('5d0383abb95749e1', '06e512dc5ce23b22', 'f6e497a69e1c6815'),
    ('always-deep', 'llm'): ('f9a102b71bd123d9', 'f227e53a69b45efd', '3b5d361259d907a2'),
}

HASHED20 = {
    ('llm', 'heuristic'): ('1e86f4da8ec98abe', '8eb3ce7c014311eb', 'fe6b565c63dcf8f3'),
    ('llm', 'llm'): ('62a2dc13da0279f1', '2422c668d08723f3', '2430c437c46f2785'),
    ('heuristic', 'heuristic'): ('f68207da6f364ded', '3ceb2bb6567539df', 'a8f25fc5c1e56eb0'),
    ('heuristic', 'llm'): ('84a1434caa121596', 'c4499849d76777b7', 'ddb7b1fea63f1723'),
    ('oracle', 'heuristic'): ('f68207da6f364ded', '98819111ccacf8a3', 'c2b5b884d035f602'),
    ('oracle', 'llm'): ('84a1434caa121596', 'de287f7842261834', '12c1749d7bc42c0f'),
    ('always-shallow', 'heuristic'): ('dd1cc7e2a8755b7d', '0eb8631f2f318551', 'f87b039d2f821db1'),
    ('always-shallow', 'llm'): ('dd1cc7e2a8755b7d', 'fb576e5e3589061b', '579338777c34abd9'),
    ('always-deep', 'heuristic'): ('e2a9c10eac9ead04', '49134e42caa767ef', 'b2aa51227e9937b9'),
    ('always-deep', 'llm'): ('81de5cf7ed3ef4a1', 'b263576f00313327', '3e94e83f3af0eec5'),
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

# (router, relation backend) -> (request digest, digest of exit codes, stdout
# and stderr)
ASK = {
    ('heuristic', 'heuristic'): ('490a1758b76c29c3', 'cdcb1a12da56780a'),
    ('heuristic', 'llm'): ('6e34c2d8e79b82ae', '7f115ed072dd867c'),
    ('llm', 'heuristic'): ('a6a9af19a4265329', 'e8059301c8eae04f'),
    ('llm', 'llm'): ('0dde23e509994b60', '275258709772440e'),
    ('always-shallow', 'heuristic'): ('b028e01d06808e7e', '261b4f4ceb7b458c'),
    ('always-shallow', 'llm'): ('b028e01d06808e7e', '261b4f4ceb7b458c'),
    ('always-deep', 'heuristic'): ('baaf9ac1c35191fe', 'e8059301c8eae04f'),
    ('always-deep', 'llm'): ('444d9e2c2924c7f2', '275258709772440e'),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("router", [mode for mode in ROUTE_MODES if mode != "oracle"])
def test_ask_requests_and_payloads(router, backend, tmp_path, capsys, monkeypatch):
    transports = []

    def recording_script(path):
        transports.append(Recording(load_mock_script(path)))
        return transports[-1]

    monkeypatch.setattr(cli, "load_mock_script", recording_script)
    chart = tmp_path / "chart.mmd"
    chart.write_text(HOMEWORK)
    keys, outcomes = [], []
    for question in ASK_QUESTIONS:
        code = cli.main(["ask", str(chart), "--question", question,
                         "--router", router, "--relation-backend", backend,
                         "--parallelism", "1",
                         "--mock-script", str(DATA / "mock10.json")])
        keys += map(cache_key, transports[-1].calls)
        captured = capsys.readouterr()
        outcomes += [str(code), captured.out, captured.err]
    assert (digest(sorted(keys)), digest(outcomes)) == ASK[(router, backend)]
