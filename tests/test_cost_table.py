"""What the benchmark's eval set costs per prompt kind, pinned, and the
layout of its prompts.

The bench eval set (seed 7: 15 charts, 300 questions) runs through
``run_eval`` with the llm router, recognizer and judge over the bench's
scripted transport, with no transport delay. Requests issued are read from
``ChatGateway.requests``, and those served without the transport from
``ChatGateway.cache_hits``; transport calls and prompt words (whitespace
words of the rendered request, as the mock transports count prompt tokens)
from a transport that records each request by its kind. Fresh words count
each kind's prompts as a prefix tree of word lists would: the words that no
other prompt of the kind shares as a prefix. Real endpoints that cache
prompt prefixes cache whole blocks above a minimum length, so fresh words
are a lower bound on what they bill. ``GRID`` prices routing: requests,
relation requests and prompt words of the same set by question mix, router
and ``--dialect``. A change that moves a figure updates ``COSTS`` or
``GRID`` and says why. These tests only read ``bench/``.
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
from flowsra.parsing import Dialect
from flowsra.routing import QuestionType

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
    PromptKind.JUDGE: re.compile(r"^Gold answer:", re.MULTILINE),
}
# distinct prefixes: one per chart, or one for the run where no chart is shown
LAYOUT_PREFIXES = {PromptKind.ROUTER: 1, PromptKind.RELATION: 15, PromptKind.SHALLOW: 15,
                   PromptKind.DEEP: 15, PromptKind.JUDGE: 1}


@pytest.fixture(scope="module")
def bench_set(tmp_path_factory):
    """The bench's ``evalset`` module, its eval set and the set's instances."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        import evalset

    path = tmp_path_factory.mktemp("evalset") / "dataset.jsonl"
    data = evalset.build(SEED)
    data.write(path)
    return SimpleNamespace(evalset=evalset, data=data, instances=load_dataset(path).instances)


@pytest.fixture(scope="module")
def run(bench_set, tmp_path_factory):
    transport = bench_set.evalset.ScriptedTransport(bench_set.data.script, 0.0)
    sent, lock = [], threading.Lock()

    def recording(request):
        with lock:
            sent.append(request)
        return transport(request)

    gateway = ChatGateway(recording, cache_dir=tmp_path_factory.mktemp("cost") / "cache",
                          parallelism=2)
    config = EvalConfig(router_mode="llm", relation_backend="llm", judge_mode="llm")
    result = run_eval(bench_set.instances, config, gateway)
    # sent: every request the transport received
    return SimpleNamespace(evalset=bench_set.evalset, gateway=gateway, sent=sent,
                           report=result.report)


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


def test_requests_not_served_from_the_cache_are_the_transport_calls(run):
    # within one run, the cache and single-flight serve each repeat of a
    # request, however the threads interleave; only judge prompts repeat
    misses = {kind.value: run.gateway.requests[kind] - run.gateway.cache_hits[kind]
              for kind in PromptKind}
    assert misses == {kind: COSTS.get(kind, (0, 0))[1] for kind in misses}
    assert {kind.value: n for kind, n in run.gateway.cache_hits.items()} == {
        "judge": 17, "judge_retry": 10}


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


def test_each_prompt_carries_its_text_before_the_anchor_as_its_head(run):
    # a re-ask only appends to the prompt it repeats, so it keeps the head
    # and its token budget
    max_tokens = {PromptKind.ROUTER: 64, PromptKind.JUDGE: 64, PromptKind.RELATION: 512,
                  PromptKind.SHALLOW: 256, PromptKind.DEEP: 256}
    checked = Counter()
    for request in run.sent:
        kind = PromptKind(request.kind.value.removesuffix("_retry"))
        message = request.messages[-1]
        found = LAYOUT_ANCHORS[kind].search(message.content)
        assert found is not None, (request.kind, message.content[:200])
        assert message.head == message.content[:found.start()], request.kind
        assert request.max_tokens == max_tokens[kind], request.kind
        checked[kind] += 1
    assert set(checked) == set(LAYOUT_ANCHORS)


def first_per_chart(instances):
    firsts = {}
    for instance in instances:
        firsts.setdefault(instance.source, instance)
    return list(firsts.values())


# (questions, router, --dialect): (requests issued, relation requests and
# their retries, prompt words), over the same set with the llm recognizer and
# judge exact, so only the system's own requests are counted; "TP1" is the
# run with ``filter_type`` TP1, "first" the first question on each chart
GRID = {
    ("all", "heuristic", None): (772, 472, 271776),
    ("all", "llm", None): (1072, 472, 315220),
    ("all", "always-deep", None): (772, 472, 376566),
    ("TP1", "heuristic", None): (75, 0, 17340),
    ("TP1", "llm", None): (150, 0, 27990),
    ("TP1", "always-deep", None): (547, 472, 218912),
    ("first", "heuristic", None): (15, 0, 3468),
    ("first", "llm", None): (30, 0, 5598),
    ("first", "always-deep", None): (487, 472, 177096),
    ("all", "heuristic", "mermaid"): (772, 472, 272477),
    ("all", "heuristic", "dot"): (772, 472, 325949),
    ("all", "heuristic", "plantuml"): (772, 472, 226332),
    ("all", "always-shallow", "mermaid"): (300, 0, 70504),
    ("all", "always-shallow", "dot"): (300, 0, 89224),
    ("all", "always-shallow", "plantuml"): (300, 0, 52924),
}


@pytest.mark.parametrize("questions, router, dialect", GRID)
def test_cost_by_question_set_router_and_dialect_is_pinned(bench_set, questions, router,
                                                           dialect):
    transport = bench_set.evalset.ScriptedTransport(bench_set.data.script, 0.0)
    words = []  # per request sent; list.append is atomic

    def counting(request):
        words.append(len(request.rendered().split()))
        return transport(request)

    gateway = ChatGateway(counting, parallelism=2)
    config = EvalConfig(router_mode=router, relation_backend="llm", judge_mode="exact",
                        dialect=dialect and Dialect(dialect),
                        filter_type=QuestionType.FACT_RETRIEVAL if questions == "TP1" else None)
    instances = bench_set.instances
    report = run_eval(first_per_chart(instances) if questions == "first" else instances,
                      config, gateway).report
    assert report.failed_count == 0
    issued = gateway.requests
    relation = issued[PromptKind.RELATION] + issued[PromptKind.RELATION_RETRY]
    assert (issued.total(), relation, sum(words)) == GRID[(questions, router, dialect)]
