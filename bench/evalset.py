"""The FlowVQA-shaped eval dataset, the scripted transport that answers it,
and the report those two imply.

Every chart gets the same number of questions of each type (TP1..TP4).
The transport's answers depend only on the prompt text, so a cold run and a
replay give the same answers. By construction, fixed shares of the relation
answers are unparseable (so the retry and the heuristic fallback run) and
fixed shares of the reasoner answers miss the judge's tier 1 (so the LLM
judge runs, and sometimes has to be asked twice).
"""

from __future__ import annotations

import json
import random
import re
import threading
import time
import zlib
from dataclasses import dataclass, field

import charts

TYPES = ("TP1", "TP2", "TP3", "TP4")
RELATIONS = ("Causality", "Instantiation", "Sequentiality")
CHARTS = 15               # a multiple of 3, so the dialects share the sizes evenly
PER_TYPE = 5              # questions of each type per chart
MIN_NODES, MAX_NODES = 10, 40

# Prompt kinds, recognised by phrases of the prompt templates.
ROUTER, RELATION, RELATION_RETRY = "router", "relation", "relation_retry"
SHALLOW, DEEP, JUDGE, JUDGE_RETRY = "shallow", "deep", "judge", "judge_retry"
PROMPT_KINDS = (ROUTER, RELATION, RELATION_RETRY, SHALLOW, DEEP, JUDGE, JUDGE_RETRY)
_RETRY_MARK = "Your previous answer could not be parsed."
_KIND_MARKS = (
    ("You classify a question about a flowchart", ROUTER),
    ("You label the semantic relation between two connected", RELATION),
    ("semantic-relation annotated form", DEEP),
    ("structured text that lists its nodes", SHALLOW),
    ("You verify answers to questions about flowcharts", JUDGE),
)


def prompt_kind(rendered: str) -> str | None:
    for mark, kind in _KIND_MARKS:
        if mark in rendered:
            if _RETRY_MARK in rendered:
                return {RELATION: RELATION_RETRY, JUDGE: JUDGE_RETRY}.get(kind, kind)
            return kind
    return None


@dataclass
class Script:
    """What the transport answers, keyed by text found in the prompt."""

    route: dict[str, str] = field(default_factory=dict)        # question -> class
    answer: dict[str, str] = field(default_factory=dict)       # question -> prediction
    bad_relation: set = field(default_factory=set)             # unparseable first ask
    bad_relation_retry: set = field(default_factory=set)       # ... and on the retry
    bad_judge: set = field(default_factory=set)                # (gold, prediction)


@dataclass
class Expected:
    """Report figures the dataset and the script imply."""

    total: int = 0
    correct: int = 0
    per_type: dict[str, list[int]] = field(default_factory=dict)  # type -> [correct, n]
    triples: int = 0
    fallbacks: int = 0


@dataclass
class EvalSet:
    records: list[dict]
    script: Script
    expected: Expected

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def _questions(chart: charts.Chart, cid: str, rng: random.Random):
    """(type, question, gold answer) triples; question texts name the chart,
    so they are unique across the dataset."""
    by_id = {nid: (kind, text) for nid, kind, text in chart.nodes}
    outs: dict[str, list] = {nid: [] for nid in by_id}
    for src, dst, label in chart.edges:
        outs[src].append((dst, label))

    def shown(nid: str) -> str:
        kind, text = by_id[nid]
        return text or kind

    steps = [nid for nid, kind, _ in chart.nodes if kind == "Process"]
    singles = [nid for nid in steps if len(outs[nid]) == 1]
    branches = [(nid, dst, label) for nid, kind, _ in chart.nodes if kind == "Decision"
                for dst, label in outs[nid]]
    kinds = [kind for _, kind, _ in chart.nodes]
    counts = [
        ("nodes", len(chart.nodes)),
        ("decision nodes", kinds.count("Decision")),
        ("edges", len(chart.edges)),
        ("process steps", kinds.count("Process")),
        ("end nodes", kinds.count("End")),
    ]
    out = []
    for nid in rng.sample(steps, PER_TYPE):
        out.append(("TP1", f"In chart {cid}, what does step {steps.index(nid) + 1} say?",
                    shown(nid)))
    for nid, dst, label in rng.sample(branches, PER_TYPE):
        out.append(("TP2", f"Suppose the answer to '{shown(nid)}' is {label.title()} "
                    f"in chart {cid}. What happens next?", shown(dst)))
    for nid in rng.sample(singles, PER_TYPE):
        out.append(("TP3", f"In chart {cid}, which step comes right after "
                    f"'{shown(nid)}'?", shown(outs[nid][0][0])))
    for what, value in rng.sample(counts, PER_TYPE):
        out.append(("TP4", f"How many {what} does chart {cid} have?", str(value)))
    # interleave the types, as a dataset mixing them would
    return [out[t * PER_TYPE + i] for i in range(PER_TYPE) for t in range(4)]


def build(seed: int) -> EvalSet:
    """``CHARTS`` charts with sizes spread evenly over [MIN_NODES,
    MAX_NODES]. Dialects rotate over the sizes in order, so each dialect
    gets a like share of the nodes whatever the seed (parse cost per node
    differs by dialect); the seed shuffles the chart order."""
    rng = random.Random(f"eval-{seed}")
    sizes = [(MIN_NODES + (MAX_NODES - MIN_NODES) * i // (CHARTS - 1),
              charts.DIALECTS[i % 3]) for i in range(CHARTS)]
    rng.shuffle(sizes)
    script = Script()
    expected = Expected(per_type={t: [0, 0] for t in TYPES})
    records: list[dict] = []
    for index, (size, dialect) in enumerate(sizes):
        cid = f"c{index:02d}"
        while True:  # redraw until the chart has enough of each question subject
            chart = charts.sized_chart(rng, cid, size)
            kinds = [kind for _, kind, _ in chart.nodes]
            single = sum(1 for nid, kind, _ in chart.nodes if kind == "Process"
                         and sum(1 for e in chart.edges if e[0] == nid) == 1)
            if kinds.count("Decision") * 2 >= PER_TYPE and single >= PER_TYPE:
                break
        source = charts.RENDERERS[dialect](chart)
        texts = {nid: text for nid, _, text in chart.nodes}

        edge_keys = [(texts[s], texts[d], lb or "none") for s, d, lb in chart.edges]
        bad = rng.sample(edge_keys, max(1, round(len(edge_keys) / 10)))
        script.bad_relation.update(bad)
        script.bad_relation_retry.update(bad[: (len(bad) + 2) // 3])
        deep_fallbacks = len(bad[: (len(bad) + 2) // 3])

        questions = _questions(chart, cid, rng)
        # 60% exact answers (judge tier 1), 30% paraphrases and 10% wrong
        # answers (both go to the LLM judge); a quarter of the judge's first
        # answers cannot be parsed
        n = len(questions)
        fates = (["exact"] * (n * 6 // 10) + ["wrong"] * (n // 10))
        fates += ["paraphrase"] * (n - len(fates))
        rng.shuffle(fates)
        tier2 = [i for i, fate in enumerate(fates) if fate != "exact"]
        bad_judge = set(rng.sample(tier2, len(tier2) // 4))
        for j, ((qtype, question, gold), fate) in enumerate(zip(questions, fates)):
            script.route[question] = "Complicated" if qtype == "TP2" else "Straight"
            prediction = {"exact": gold, "paraphrase": f"The answer is: {gold}",
                          "wrong": "The chart does not say."}[fate]
            script.answer[question] = prediction
            if j in bad_judge:
                script.bad_judge.add((gold, prediction))
            records.append({"id": f"{cid}-q{j:02d}", "dialect": dialect,
                            "source": source, "question": question,
                            "answer": gold, "type": qtype})
            ok = fate != "wrong"
            expected.total += 1
            expected.correct += ok
            expected.per_type[qtype][0] += ok
            expected.per_type[qtype][1] += 1
            if qtype == "TP2":
                expected.triples += len(chart.edges)
                expected.fallbacks += deep_fallbacks
    return EvalSet(records, script, expected)


# --- the scripted transport ----------------------------------------------------

_QUESTION = re.compile(r"^Question: (.*)$", re.MULTILINE)
_NODE_A = re.compile(r"^Node A \(source\): (.*)$", re.MULTILINE)
_NODE_B = re.compile(r"^Node B \(target\): (.*)$", re.MULTILINE)
_LABEL = re.compile(r"^(Edge label: (\w+)|The edge carries no label\.)", re.MULTILINE)
_GOLD = re.compile(r"^Gold answer: (.*)$", re.MULTILINE)
_PREDICTED = re.compile(r"^Predicted answer: (.*)$", re.MULTILINE)


class ScriptError(RuntimeError):
    """The prompt is not one the script covers."""


def _last(pattern: re.Pattern[str], text: str) -> str:
    found = pattern.findall(text)
    if not found:
        raise ScriptError(f"prompt lacks {pattern.pattern!r}")
    return found[-1]


def respond(script: Script, kind: str | None, rendered: str) -> str:
    """The scripted answer to one rendered request."""
    if kind == ROUTER:
        route = script.route.get(_last(_QUESTION, rendered))
        if route is None:
            raise ScriptError("router prompt for an unknown question")
        return f"The question is about the chart.\nCLASS: {route}"
    if kind in (RELATION, RELATION_RETRY):
        label = _LABEL.search(rendered)
        if label is None:
            raise ScriptError("relation prompt without a label line")
        key = (_last(_NODE_A, rendered), _last(_NODE_B, rendered),
               (label.group(2) or "none").casefold())
        if key in (script.bad_relation if kind == RELATION else script.bad_relation_retry):
            return "The two steps are related somehow."
        if key[2] in ("yes", "no"):
            tag = "Conditionality"
        else:
            tag = RELATIONS[zlib.crc32("|".join(key).encode("utf-8")) % 3]
        return f"Node B follows from node A.\nRELATION: {tag}"
    if kind in (SHALLOW, DEEP):
        answer = script.answer.get(_last(_QUESTION, rendered))
        if answer is None:
            raise ScriptError("reasoner prompt for an unknown question")
        return answer
    if kind in (JUDGE, JUDGE_RETRY):
        gold, predicted = _last(_GOLD, rendered), _last(_PREDICTED, rendered)
        if kind == JUDGE and (gold, predicted) in script.bad_judge:
            return "Hard to say."
        verdict = "CORRECT" if gold.casefold() in predicted.casefold() else "INCORRECT"
        return f"Compared the two answers.\nVERDICT: {verdict}"
    raise ScriptError("prompt of an unknown kind")


class ScriptedTransport:
    """Chat transport that sleeps ``delay`` seconds per call, modelling a
    remote endpoint, then answers from the script. Its usage counts prompt
    tokens as whitespace-separated words of the rendered request, as
    flowsra's MockTransport does. ``waits`` are the time during which at
    least one call was in flight and the time during which one would have
    been if every call took exactly ``delay`` (the modelled endpoint's
    latency, without this host's oversleeping or the script's own work)."""

    is_network = False

    def __init__(self, script: Script, delay: float, tracer=None):
        self.script = script
        self.delay = delay
        self.tracer = tracer
        self.calls = 0
        self.waiting = self.modelled = 0.0
        self._in_flight = 0
        self._since = self._modelled_until = 0.0
        self._lock = threading.Lock()

    def __call__(self, request) -> dict:
        with self._lock:
            if not self._in_flight:
                self._since = time.perf_counter()
            self._in_flight += 1
        if self.tracer is not None:
            self.tracer.begin("transport")
        try:
            rendered = request.rendered()
            content = respond(self.script, prompt_kind(rendered), rendered)
            tokens = len(rendered.split())
            with self._lock:  # calls of equal delay, in order of start
                start = time.perf_counter()
                self.modelled += start + self.delay - max(start, self._modelled_until)
                self._modelled_until = start + self.delay
            time.sleep(self.delay)
        finally:
            if self.tracer is not None:
                self.tracer.end()
            with self._lock:
                self._in_flight -= 1
                if not self._in_flight:
                    self.waiting += time.perf_counter() - self._since
        with self._lock:
            self.calls += 1
        return {
            "choices": [{"message": {"role": "assistant", "content": content}}],
            "usage": {"prompt_tokens": tokens, "completion_tokens": len(content.split())},
        }

    @property
    def waits(self) -> tuple[float, float]:
        return self.waiting, self.modelled
