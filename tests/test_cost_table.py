"""What the benchmark's eval set costs per prompt kind, pinned, and the
layout of its prompts.

The bench eval set (seed 7: 15 charts, 300 questions) runs through
``run_eval`` with the llm router, recognizer and judge over the bench's
scripted transport, with no transport delay. Requests issued are read from
``ChatGateway.requests``; transport calls and prompt words (whitespace
words of the rendered request, as the mock transports count prompt tokens)
from a transport that records each request by its kind. Fresh words count
each kind's prompts as a prefix tree of word lists would: the words that no
other prompt of the kind shares as a prefix. Real endpoints that cache
prompt prefixes cache whole blocks above a minimum length, so fresh words
are a lower bound on what they bill. A change that moves a figure updates
``COSTS`` and says why. These tests only read ``bench/``.
"""

import re
import threading
from collections import Counter
from pathlib import Path
from pprint import pformat
from types import SimpleNamespace

import pytest

from flowsra.gateway import ChatGateway, PromptKind
from flowsra.harness import EvalConfig, load_dataset, run_eval

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 7

# prompt kind: (requests issued, transport calls, prompt words, fresh words)
COSTS = {
    "router": (300, 300, 43444, 4240),
    "relation": (430, 430, 150814, 15426),
    "relation_retry": (42, 42, 15828, 5304),
    "shallow": (225, 225, 52331, 5143),
    "deep": (75, 75, 52803, 9919),
    "judge": (120, 103, 7264, 1932),
    "judge_retry": (39, 29, 2568, 1134),
    "total": (1231, 1204, 325052, 43098),
}

# the line before which every prompt of a kind on one chart is the same
QUESTION = re.compile(r"^Question:", re.MULTILINE)
LAYOUT_ANCHORS = {
    PromptKind.ROUTER: QUESTION,
    PromptKind.RELATION: re.compile(r"^Node A \(source\):", re.MULTILINE),
    PromptKind.SHALLOW: QUESTION,
    PromptKind.DEEP: QUESTION,
}
# distinct prefixes: one per chart, or one for the run where no chart is shown
LAYOUT_PREFIXES = {PromptKind.ROUTER: 1, PromptKind.RELATION: 15, PromptKind.SHALLOW: 15,
                   PromptKind.DEEP: 15}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        import evalset

    tmp = tmp_path_factory.mktemp("cost")
    data = evalset.build(SEED)
    data.write(tmp / "dataset.jsonl")
    transport = evalset.ScriptedTransport(data.script, 0.0)
    sent, lock = [], threading.Lock()

    def recording(request):
        with lock:
            sent.append(request)
        return transport(request)

    gateway = ChatGateway(recording, cache_dir=tmp / "cache", parallelism=2)
    config = EvalConfig(router_mode="llm", relation_backend="llm", judge_mode="llm")
    result = run_eval(load_dataset(tmp / "dataset.jsonl").instances, config, gateway)
    # sent: every request the transport received
    return SimpleNamespace(evalset=evalset, gateway=gateway, sent=sent, report=result.report)


def test_the_run_answers_every_question(run):
    assert (run.report.total, run.report.failed_count) == (300, 0)


def test_every_request_carries_the_kind_its_prompt_shows(run):
    assert None not in run.gateway.requests
    # (kind, the kind the bench reads from the prompt text) per request sent
    pairs = Counter((request.kind.value, run.evalset.prompt_kind(request.rendered()))
                    for request in run.sent)
    assert {pair: n for pair, n in pairs.items() if pair[0] != pair[1]} == {}


def fresh_words(prompts):
    """The words of ``prompts`` (word lists) less the longest common prefix
    of each adjacent pair in sorted order: the node count of their prefix
    tree, whatever order they came in."""
    prompts = sorted(prompts)
    shared = 0
    for a, b in zip(prompts, prompts[1:]):
        n = 0
        for x, y in zip(a, b):
            if x != y:
                break
            n += 1
        shared += n
    return sum(map(len, prompts)) - shared


def test_cost_per_prompt_kind_is_pinned(run):
    issued, calls, words = run.gateway.requests, Counter(), Counter()
    prompts = {kind: [] for kind in PromptKind}
    for request in run.sent:
        calls[request.kind] += 1
        prompt = request.rendered().split()
        words[request.kind] += len(prompt)
        prompts[request.kind].append(prompt)
    fresh = Counter({kind: fresh_words(prompts[kind]) for kind in PromptKind})
    measured = {kind.value: (issued[kind], calls[kind], words[kind], fresh[kind])
                for kind in PromptKind if issued[kind] or calls[kind]}
    measured["total"] = (issued.total(), calls.total(), words.total(), fresh.total())
    assert measured == COSTS, f"measured:\nCOSTS = {pformat(measured, sort_dicts=False)}"


def test_per_request_text_comes_last_in_each_prompt(run):
    prefixes = {kind: set() for kind in LAYOUT_ANCHORS}
    for request in run.sent:
        anchor = LAYOUT_ANCHORS.get(request.kind)
        if anchor is not None:
            rendered = request.rendered()
            found = anchor.search(rendered)
            assert found is not None, (request.kind, rendered[:200])
            prefixes[request.kind].add(rendered[:found.start()])
    assert {kind: len(texts) for kind, texts in prefixes.items()} == LAYOUT_PREFIXES
