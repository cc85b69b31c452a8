"""Dataset ingestion, answer judging, and accuracy/routing reports.

Datasets are line-delimited JSON records (``id``, ``dialect``, ``source``,
``question``, ``answer``, ``type``). Judging is tiered: cheap textual
normalization first, an LLM judge only for pairs normalization cannot
settle. Reports carry no wall-clock data, so identical runs render
byte-identical output; each names its run by a hash of its ``EvalConfig``.

``run_eval`` answers each question on the engine's one path
(:func:`flowsra.engine.route`, then :func:`flowsra.engine.answer_routed`).
It parses and upgrades each distinct chart once per run, however many
questions ask about it, and the graph and its upgrade each render their
prompt texts once (see :func:`flowsra.ir.derived`). Without a response
cache, a chart's relation calls are made once per run, not per deep question.
The report's ``discriminator_confusion`` counts each routed question's gold
type against the class ``route`` gave it, so a router failure counts as
Complicated, the class the question was answered under.

The gateway's ``parallelism`` P is the size of its transport executor,
whose threads make its transport calls, so at most P calls are in flight.
It also sizes the thread pools of eval instances and, inside the ``llm``
recognizer, of a chart's edges (see :func:`flowsra.gateway.map_in_order`
and :class:`flowsra.relations.LlmRelationBackend`). A run is one gateway
scope: its transport executor is made on its first transport call and
shut down when it ends. The pools start only once a run reaches the
transport. Until then (a warm cache) instances run one at a time in the
caller's thread and no thread starts; from then on each pool has 2P
workers, one waiting on a transport worker and one preparing its next
request per transport slot, with up to 8P items queued ahead, so a slow
instance (a chart's first deep question, running its upgrade) does not
hold back the ones after it. Results are assembled in input order, so
logs and reports do not depend on it.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from .engine import Question, Route, answer_routed, route
from .gateway import (ChatGateway, PromptKind, SetupError, ask_twice, last_tagged_line,
                      map_in_order, prompt_request)
from .ir import UpgradedGraph
from .parsing import Dialect, ParseResult, parse_text
from .relations import make_relation_backend, upgrade_graph
from .routing import QuestionClass, QuestionType, make_router


@dataclass(frozen=True)
class EvalConfig:
    """One pipeline variant, each field set by a ``flowsra eval`` option."""

    router_mode: str = "heuristic"       # one of routing.ROUTE_MODES
    relation_backend: str = "heuristic"  # one of relations.RELATION_BACKENDS
    judge_mode: str = "exact"            # one of JUDGE_MODES
    dialect: Dialect | None = None       # None: keep each instance's dialect
    filter_type: QuestionType | None = None
    reasoner_model: str = "reasoner"
    recognizer_model: str = "recognizer"
    router_model: str = "router"
    judge_model: str = "judge"

    def fingerprint(self) -> str:
        """Hash of every field, each of which can change a report."""
        encoded = json.dumps(_field_values(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()


@dataclass(frozen=True)
class EvalInstance:
    flowchart_id: str
    dialect: Dialect
    source: str
    question: Question
    gold_answer: str
    gold_type: QuestionType

    def __post_init__(self) -> None:
        # routing reads the gold type off the question (oracle routing)
        if self.question.gold_type is not self.gold_type:
            object.__setattr__(self, "question",
                               replace(self.question, gold_type=self.gold_type))


@dataclass(frozen=True)
class LoadDiagnostic:
    line: int
    message: str

    def __str__(self) -> str:
        return f"record {self.line}: {self.message}"


@dataclass
class DatasetLoad:
    instances: list[EvalInstance]
    diagnostics: list[LoadDiagnostic]


_REQUIRED_FIELDS = ("id", "dialect", "source", "question", "answer", "type")
_NOT_TEXT = {type(None): "null", bool: "boolean", list: "array", dict: "object"}
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")  # no request can carry one


def _text_field(record: dict, name: str) -> str:
    value = record[name]
    if type(value) is str:
        if value.isascii() or not _LONE_SURROGATE.search(value):
            return value
        raise ValueError(f"field {name!r} is not UTF-8 text")
    if type(value) in _NOT_TEXT:
        raise ValueError(f"field {name!r} must be a string, not {_NOT_TEXT[type(value)]}")
    return str(value)


def load_dataset(path: str | Path) -> DatasetLoad:
    """Read JSON Lines records; malformed ones become diagnostics.

    A record ends at a line break, ``\n``, ``\r\n`` or ``\r``, and record N
    is the Nth line. U+0085, U+2028 and U+2029, which JSON strings may hold
    unescaped, are no line breaks here, as they are to ``str.splitlines``.
    Every field must be a JSON string or number, read as its text; a field
    that is null, a boolean, an array or an object makes the record
    malformed, and so does text with a lone surrogate, such as the JSON
    escape ``\\ud800``. Each line loses one leading U+FEFF, a byte order
    mark, so the file's own mark is record 1's, and a file made by joining
    files that each begin with one keeps every record.

    Raises OSError when the file cannot be read. A file with no valid
    record gives a load with no instances, whose diagnostics say why.
    """
    text = Path(path).read_text(encoding="utf-8")
    instances: list[EvalInstance] = []
    diagnostics: list[LoadDiagnostic] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.removeprefix("\ufeff").strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
            diagnostics.append(LoadDiagnostic(lineno, f"invalid JSON: {getattr(exc, 'msg', exc)}"))
            continue
        except RecursionError:
            diagnostics.append(LoadDiagnostic(lineno, "invalid JSON: nested too deeply"))
            continue
        if not isinstance(record, dict):
            diagnostics.append(LoadDiagnostic(lineno, "not a JSON object"))
            continue
        missing = [f for f in _REQUIRED_FIELDS if f not in record]
        if missing:
            diagnostics.append(LoadDiagnostic(lineno, f"missing fields: {missing}"))
            continue
        try:
            values = {name: _text_field(record, name) for name in _REQUIRED_FIELDS}
            dialect = Dialect(values["dialect"].casefold())
            qtype = QuestionType.from_code(values["type"])
            question = Question(values["question"], gold_type=qtype)
        except ValueError as exc:
            diagnostics.append(LoadDiagnostic(lineno, str(exc)))
            continue
        instances.append(EvalInstance(
            flowchart_id=values["id"],
            dialect=dialect,
            source=values["source"],
            question=question,
            gold_answer=values["answer"],
            gold_type=qtype,
        ))
    return DatasetLoad(instances, diagnostics)


# --- judging -----------------------------------------------------------------

_NUMBER_WORDS = {
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "ten": "10", "eleven": "11", "twelve": "12", "thirteen": "13",
    "fourteen": "14", "fifteen": "15", "sixteen": "16", "seventeen": "17",
    "eighteen": "18", "nineteen": "19", "twenty": "20",
}


_TERMINAL_PUNCTUATION = re.compile(r"[.!?]+$")


def normalize_answer(text: str) -> str:
    """Lowercase, trim, drop terminal punctuation, spell small numbers as digits."""
    cleaned = _TERMINAL_PUNCTUATION.sub("", text.strip().lower()).strip()
    tokens = [_NUMBER_WORDS.get(tok, tok) for tok in cleaned.split()]
    return " ".join(tokens)


JUDGE_MODES = ("exact", "llm")  # tier 1 only, or an LLM judge for tier 2
_VERDICT_LINE = re.compile(r"verdict\s*[:\-]\s*(correct|incorrect)", re.IGNORECASE)

_JUDGE_RETRY = "with exactly one line: VERDICT: CORRECT or VERDICT: INCORRECT."


@dataclass(frozen=True)
class JudgeResult:
    correct: bool
    tier: int           # 1 = normalization, 2 = LLM judge
    judge_failed: bool = False


def _parse_verdict(text: str) -> bool | None:
    found = last_tagged_line(text, _VERDICT_LINE)
    return None if found is None else found[1].group(1).casefold() == "correct"


def judge(prediction: str, gold: str, gateway: ChatGateway | None = None,
          model: str = EvalConfig.judge_model) -> JudgeResult:
    """Tier 1: normalized textual equality, no LLM involved. Tier 2, only
    with a gateway: ``model`` decides, re-asked once for an unreadable
    verdict (see ``ask_twice``); a verdict still unreadable counts as
    incorrect, and as a judge failure."""
    if normalize_answer(prediction) == normalize_answer(gold):
        return JudgeResult(correct=True, tier=1)
    if gateway is None:
        return JudgeResult(correct=False, tier=1)
    request = prompt_request(model, PromptKind.JUDGE, prediction=prediction, gold=gold)
    verdict = ask_twice(gateway, request, _parse_verdict, _JUDGE_RETRY)
    if verdict is None:
        return JudgeResult(correct=False, tier=2, judge_failed=True)
    return JudgeResult(correct=verdict, tier=2)


# --- evaluation --------------------------------------------------------------

def _field_values(record) -> dict:
    """A dataclass's fields by name, in order, each enum by its value."""
    values = {f.name: getattr(record, f.name) for f in fields(record)}
    return {name: v.value if isinstance(v, Enum) else v for name, v in values.items()}


@dataclass
class InstanceLog:
    """Audit record for one instance; always emitted."""

    flowchart_id: str
    question: str
    gold_answer: str
    gold_type: QuestionType
    skipped: bool = False
    error: str | None = None
    route: Route | None = None
    predicted: str | None = None
    correct: bool | None = None
    judge_tier: int | None = None
    judge_failed: bool = False
    prompt_fingerprint: str | None = None
    fallbacks_used: int = 0
    edge_count: int = 0

    def to_dict(self) -> dict:
        return _field_values(self)


@dataclass
class EvalReport:
    """Accuracy and routing figures of one run. ``to_dict`` is the one
    list of its fields: it is the JSON, and the CSV and markdown read it.
    A CSV row is a scalar, named by its key, or a nested entry, named
    ``<group>_<key>`` with ``/`` as ``_``. A figure with nothing to count
    is None: ``null`` in JSON, an empty CSV cell, ``-`` in markdown.
    ``fallback_rate`` is fallback relations over relations, summed over deep
    questions: a chart's upgrade counts once per deep question that used it."""

    overall_acc: float | None  # None when no instance was scored
    per_type_acc: dict[QuestionType, float | None]
    route_counts: dict[tuple[QuestionType, Route], int]
    discriminator_confusion: dict[tuple[QuestionType, QuestionClass], int]
    fallback_rate: float
    skipped_count: int
    failed_count: int
    judge_failures: int
    total: int
    correct: int
    run_config_fingerprint: str

    def to_dict(self) -> dict:
        return {
            "overall_acc": self.overall_acc,
            "total": self.total,
            "correct": self.correct,
            "per_type_acc": {t.value: self.per_type_acc.get(t)
                             for t in QuestionType},
            "route_counts": {
                f"{t.value}/{r.value}": self.route_counts.get((t, r), 0)
                for t in QuestionType for r in Route
            },
            "discriminator_confusion": {
                f"{t.value}/{c.value}": self.discriminator_confusion.get((t, c), 0)
                for t in QuestionType for c in QuestionClass
            },
            "fallback_rate": self.fallback_rate,
            "skipped_count": self.skipped_count,
            "failed_count": self.failed_count,
            "judge_failures": self.judge_failures,
            "run_config_fingerprint": self.run_config_fingerprint,
        }


@dataclass
class EvalRun:
    report: EvalReport
    logs: list[InstanceLog] = field(default_factory=list)


@dataclass
class _Chart:
    """Per-run work on one chart source, shared by every question on it.

    The target dialect is fixed by the key's dialect and the run's config,
    so one upgrade suffices. It is made by the first deep question, under
    ``lock``, so concurrent questions wait for its recognizer calls rather
    than repeat them; one that raised leaves None and is retried. The
    emitted texts need no slot: the graph and the upgrade each keep their
    own (see :func:`flowsra.ir.derived`).
    """

    result: ParseResult
    upgraded: UpgradedGraph | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)


def run_eval(instances: Iterable[EvalInstance], config: EvalConfig,
             gateway: ChatGateway) -> EvalRun:
    """Run the configured pipeline per instance and aggregate the report.

    Each distinct (source, dialect) is parsed once and upgraded at most
    once, and each parsed graph or upgrade renders its texts once; every
    instance still gets its own routing, answer, judge and log.
    Instance-level failures are recorded and the run continues; parse errors
    in the source flag the instance as skipped. A :class:`SetupError` (a
    cache entry that cannot be written, an endpoint no request can be
    prepared for) is the run's, not an instance's: it is raised as is, from
    an upgrade too (the ``llm`` recognizer does not wrap it). Instances
    overlap as the module docstring says; logs keep input order.
    """
    router = make_router(config.router_mode, gateway, config.router_model)
    recognizer = make_relation_backend(config.relation_backend, gateway,
                                       config.recognizer_model)
    if config.judge_mode not in JUDGE_MODES:
        raise ValueError(f"unknown judge mode {config.judge_mode!r}")
    judge_gateway = gateway if config.judge_mode == "llm" else None
    charts: dict[tuple[str, Dialect], _Chart] = {}

    def jobs() -> Iterator[tuple[EvalInstance, _Chart]]:
        # drawn in the caller's thread only, so ``charts`` needs no lock
        for instance in instances:
            if config.filter_type and instance.gold_type is not config.filter_type:
                continue
            key = (instance.source, instance.dialect)
            chart = charts.get(key)
            if chart is None:
                chart = charts[key] = _Chart(parse_text(instance.source, instance.dialect)[1])
            yield instance, chart

    def answer(job: tuple[EvalInstance, _Chart]
               ) -> tuple[InstanceLog, QuestionClass | None, UpgradedGraph | None]:
        """The instance's log, its question class once routed, and the
        upgrade its answer used, if any."""
        instance, chart = job
        log = InstanceLog(
            flowchart_id=instance.flowchart_id,
            question=instance.question.text,
            gold_answer=instance.gold_answer,
            gold_type=instance.gold_type,
        )
        result = chart.result
        if result.errors():
            log.skipped = True
            log.error = "; ".join(str(d) for d in result.errors())
            return log, None, None
        graph = result.graph
        dialect = config.dialect or instance.dialect
        log.edge_count = len(graph.edges)
        question_class = ug = None

        def upgrade() -> UpgradedGraph:
            nonlocal ug
            with chart.lock:
                if chart.upgraded is None:
                    chart.upgraded = upgrade_graph(graph, recognizer, dialect=dialect)
                ug = chart.upgraded
            return ug

        try:
            question_class = route(router, instance.question)
            reply = answer_routed(
                graph, instance.question, question_class, upgrade, gateway,
                model=config.reasoner_model, dialect=dialect)
            log.route = reply.route
            log.predicted = reply.text
            log.prompt_fingerprint = reply.prompt_fingerprint
            log.fallbacks_used = reply.fallbacks_used
            verdict = judge(reply.text, instance.gold_answer, judge_gateway, config.judge_model)
        except SetupError:
            raise
        except Exception as exc:  # keep the batch alive, record the failure
            log.error = f"{type(exc).__name__}: {exc}"
            return log, question_class, ug
        log.correct = verdict.correct
        log.judge_tier = verdict.tier
        log.judge_failed = verdict.judge_failed
        return log, question_class, ug

    logs: list[InstanceLog] = []
    route_counts: Counter[tuple[QuestionType, Route]] = Counter()
    confusion: Counter[tuple[QuestionType, QuestionClass]] = Counter()
    total_relations = 0
    total_fallbacks = 0
    for log, question_class, ug in map_in_order(answer, jobs(), gateway):
        logs.append(log)
        if question_class is not None:
            confusion[(log.gold_type, question_class)] += 1
        if ug is not None:
            total_relations += len(ug.relations)
            total_fallbacks += ug.fallback_count()
        if log.route is not None:
            route_counts[(log.gold_type, log.route)] += 1

    # a failed instance is scored, as incorrect (its ``correct`` is None)
    scored = [log for log in logs if not log.skipped]
    correct = sum(1 for log in scored if log.correct)
    per_type: dict[QuestionType, float | None] = {}
    for qtype in QuestionType:
        of_type = [log for log in scored if log.gold_type is qtype]
        per_type[qtype] = (sum(1 for log in of_type if log.correct) / len(of_type)
                           if of_type else None)
    report = EvalReport(
        overall_acc=(correct / len(scored)) if scored else None,
        per_type_acc=per_type,
        route_counts=route_counts,
        discriminator_confusion=confusion,
        fallback_rate=(total_fallbacks / total_relations) if total_relations else 0.0,
        skipped_count=len(logs) - len(scored),
        failed_count=sum(1 for log in scored if log.error is not None),
        judge_failures=sum(1 for log in logs if log.judge_failed),
        total=len(logs),
        correct=correct,
        run_config_fingerprint=config.fingerprint(),
    )
    return EvalRun(report=report, logs=logs)


# --- rendering ---------------------------------------------------------------

REPORT_FORMATS = ("json", "csv", "markdown")


# the CSV name of each nested group of ``EvalReport.to_dict``
_CSV_GROUPS = {"per_type_acc": "acc", "route_counts": "route",
               "discriminator_confusion": "confusion"}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def _fmt_acc(value: float | None) -> str:
    return "-" if value is None else f"{100.0 * value:.1f}"


def report_render(report: EvalReport, fmt: str = "json") -> str:
    """Deterministic serialization of a report in one of ``REPORT_FORMATS``."""
    v = report.to_dict()
    if fmt == "json":
        return json.dumps(v, indent=2, ensure_ascii=False) + "\n"
    if fmt == "csv":
        rows = [("metric", "value")]
        for key, value in v.items():
            if isinstance(value, dict):
                rows += [(f"{_CSV_GROUPS[key]}_{name.replace('/', '_')}", _csv_cell(v))
                         for name, v in value.items()]
            else:
                rows.append((key, _csv_cell(value)))
        return "\n".join(",".join(row) for row in rows) + "\n"
    if fmt == "markdown":
        columns = ["Run", "Overall", *v["per_type_acc"]]  # a column per question type
        lines = [
            "| " + " | ".join(columns) + " |",
            "|---" * len(columns) + "|",
            "| " + " | ".join([v["run_config_fingerprint"][:12], *map(
                _fmt_acc, [v["overall_acc"], *v["per_type_acc"].values()])]) + " |",
            "",
            f"- instances: {v['total']} (skipped {v['skipped_count']}, "
            f"failed {v['failed_count']})",
            f"- fallback rate: {v['fallback_rate']:.3f}",
            f"- judge failures: {v['judge_failures']}",
            "- routes: " + ", ".join(f"{k}={n}" for k, n in v["route_counts"].items()),
        ]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
