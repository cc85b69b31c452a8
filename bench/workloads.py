"""The three workloads. Each is a closed loop with one client, this process,
because every flowsra caller waits for its result.

- convert-sweep: ``flowsra convert`` plus ``flowsra upgrade`` on seeded
  charts of 150, 600 and 2400 nodes, plus one PlantUML chart with if/else
  nested 600 deep. No gateway calls.
- eval-replay: ``flowsra eval`` (load_dataset, run_eval, report_render) on a
  FlowVQA-shaped dataset, with the gateway cache filled during set-up, so
  timed passes make no transport calls.
- eval-cold: the same dataset against a fresh, empty cache every pass, with
  a transport that sleeps a fixed time per call.

Output checks run outside the timed region; any failed check empties the
metrics. Every timed unit is scaled to a nominal host speed (see hostspeed).
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import random
import re
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import charts
import evalset
import layers
from hostspeed import NO_WAITS, HostSpeed
from tracing import ATTRS, Tracer

from flowsra.emitting import emit, emit_triples, emit_upgraded
from flowsra.gateway import ChatGateway
from flowsra.harness import EvalConfig, load_dataset, report_render, run_eval
from flowsra.ir import validate
from flowsra.parsing import Dialect, parse_text
from flowsra.relations import HeuristicRelationBackend, upgrade_graph

# set-up runs at least this often and this long; setup_s is the median
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
# convert-sweep mix: (size group, target nodes, charts); each chart is an
# item in each of the three dialects, so the 600-node items hold the 90th
# percentile and the 2400-node items sit above it
SIZES = (("n150", 150, 30), ("n600", 600, 3), ("n2400", 2400, 1))
DEEP_LEVELS = 600          # past the emitter's recursion limit at this size
# a case's latency is the median of its conversions; the cases of the heavy
# groups, which take most of a round, are converted every HEAVY_EVERY-th
# round only, so that the others are converted more often
HEAVY = ("n2400", "deep")
HEAVY_EVERY = 3
MIN_ROUNDS = HEAVY_EVERY + 1
TRANSPORT_DELAY = 0.002    # seconds per call, a remote endpoint's latency
MIN_COLD_PASSES = 3
# eval: charts of the dataset's size range timed with the conversion item,
# and the time spent on them per pass time
CONVERT_CHARTS = 60
CONVERT_SHARE = 0.4
# the paper's configuration; recognition stays sequential (the library's
# default) and the gateway admits at most 2 concurrent calls
EVAL_CONFIG = EvalConfig(router_mode="llm", relation_backend="llm", judge_mode="llm")
GATEWAY_PARALLELISM = 2


class CheckFailed(Exception):
    """An output check failed; the run reports no metrics."""


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, float | None]


# --- shared pieces ------------------------------------------------------------

def _median_setup(build, speed: HostSpeed):
    """Run ``build(speed)`` repeatedly; the last product and the median
    scaled time. ``build`` may cut the open segment or close it early; a
    product's ``waits`` on the transport count as for HostSpeed."""
    times: list[float] = []
    spent = 0.0
    product = None
    while len(times) < SETUP_REPEATS or spent < SETUP_SECONDS:
        if product is not None and hasattr(product, "close"):
            product.close()
        start = time.perf_counter()
        speed.open()
        product = build(speed)
        speed.close(getattr(product, "waits", NO_WAITS))
        spent += time.perf_counter() - start
        times.append(speed.take())
    return product, statistics.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _alternate(seconds: float, trace: bool, unit, min_units: int = 1):
    """Run ``unit(traced)`` until ``seconds`` have passed and at least
    ``min_units`` ran (with tracing, untraced and traced units alternate and
    each kind runs at least once). Returns the (items, busy seconds) of the
    untraced and of the traced units."""
    plain: list[tuple[int, float]] = []
    traced: list[tuple[int, float]] = []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        gc.collect()
        (traced if use_trace else plain).append(unit(use_trace))
        done = time.perf_counter() - start >= seconds
        if trace:
            done = done and traced and len(traced) == len(plain)
        else:
            done = done and len(plain) >= min_units
        if done:
            return plain, traced


def _rate(units: list[tuple[int, float]]) -> float:
    """Items per second over all units."""
    return sum(n for n, _ in units) / sum(t for _, t in units)


def _overhead(plain, traced) -> float:
    return _rate(plain) / _rate(traced)


def _work_dir(root: Path) -> Path:
    path = root / ".bench_build" / "flowsra"
    path.mkdir(parents=True, exist_ok=True)
    return path


# --- conversions ----------------------------------------------------------------

@dataclass
class Case:
    chart: charts.Chart
    dialect: str
    text: str
    group: str


def convert(text: str):
    """What ``flowsra convert`` and ``flowsra upgrade`` do for one chart."""
    dialect, result = parse_text(text)
    errors = result.errors()
    if errors:
        raise ValueError(f"parse errors: {errors[0]}")
    graph = result.graph
    violations = validate(graph)
    if violations:
        raise ValueError(f"invalid graph: {violations[0]}")
    others = tuple(emit(graph, other).text for other in Dialect if other is not dialect)
    ug = upgrade_graph(graph, HeuristicRelationBackend(), dialect=dialect)
    return dialect, graph, others, ug, emit_upgraded(ug, dialect).text, emit_triples(ug)


@dataclass
class ConvertLog:
    """The scaled time and outcome of every conversion. The first output of
    each case is checked as soon as it appears, outside the timed region, and
    then dropped; later outputs of the case must hash the same."""

    attempted: int = 0
    failed: int = 0
    seconds: dict[int, list[float]] = field(default_factory=dict)  # case -> times
    failing: set[int] = field(default_factory=set)
    keys: dict[int, str] = field(default_factory=dict)
    relations: dict[str, Counter] = field(default_factory=dict)  # chart -> labelled edges
    problems: list[str] = field(default_factory=list)

    def record(self, index: int, case: Case, out, error, seconds: float) -> None:
        self.attempted += 1
        self.seconds.setdefault(index, []).append(seconds)
        if error is not None:
            self.failed += 1
            self.failing.add(index)
            key = f"error {type(error).__name__}"
            if not case.chart.deep:
                self.problems.append(f"{case.chart.name}/{case.dialect} failed: "
                                     f"{type(error).__name__}: {error}")
        else:
            texts = "\0".join((out[0].value, *out[2], out[4], out[5]))
            key = hashlib.sha256(texts.encode("utf-8")).hexdigest()
        if index not in self.keys:
            self.keys[index] = key
            if out is not None:
                self.problems += check_conversion(case, out, self.relations)
        elif self.keys[index] != key:
            self.problems.append(f"{case.chart.name}/{case.dialect}: output changed "
                                 "between repetitions")

    def _medians(self) -> dict[int, float]:
        return {index: statistics.median(ts) for index, ts in self.seconds.items()}

    def rate(self) -> float:
        """Conversions per second over one round of the cases, each at its
        median time; time spent on a failing case counts, the case does not."""
        medians = self._medians()
        return (len(medians) - len(self.failing)) / sum(medians.values())

    def percentile_ms(self, share: float) -> float:
        """Nearest-rank percentile over the cases of each case's median time,
        in ms; failing cases are +inf, so they rank last."""
        ordered = sorted(math.inf if index in self.failing else seconds
                         for index, seconds in self._medians().items())
        return ordered[max(0, math.ceil(share * len(ordered)) - 1)] * 1e3


def run_cases(cases: list[Case], order: list[int], log: ConvertLog, speed: HostSpeed,
              tracer: Tracer | None = None) -> tuple[int, float]:
    """Convert each case once, in ``order``; returns the conversions that
    succeeded and the scaled seconds spent converting. The tracer is on only
    while a conversion runs, not while the host speed is sampled."""
    busy = 0.0
    ok = 0
    try:
        for index in order:
            case = cases[index]
            if tracer is not None:
                tracer.item = (index, case.group, case.chart.deep)
                tracer.install()
            speed.open()
            try:
                out, error = convert(case.text), None
            except Exception as exc:  # counted as failed; non-deep charts fail the check
                out, error = None, exc
            if tracer is not None:
                tracer.settle()
                tracer.uninstall()
            speed.close()
            seconds = speed.take()
            busy += seconds
            ok += error is None
            log.record(index, case, out, error, seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.item = None
    return ok, busy


def _relabel_upgraded(text):
    split = charts.split_relation_label(text)
    return "unparsed" if split is None else split[1]


_TRIPLE_LINE = re.compile(r"^\((.*)\) -\[(\w+)\]-> \((.*)\)$")


def check_conversion(case: Case, out, relations: dict[str, Counter]) -> list[str]:
    """Every emitted text re-parses to the generator's graph up to node ids;
    upgraded texts carry one in-taxonomy relation per edge; the relations
    agree across the renderings of a chart (``relations`` collects them)."""
    problems = []
    where = f"{case.chart.name}/{case.dialect}"
    dialect, graph, others, ug, upgraded, triples = out
    texts = {nid: text for nid, _, text in case.chart.nodes}
    if dialect.value != case.dialect:
        problems.append(f"{where}: detected as {dialect.value}")
    if not charts.same_graph(case.chart, *charts.graph_tuples(graph)):
        problems.append(f"{where}: parsed graph differs from the generator's")
    for text in others:
        target, result = parse_text(text)
        if not result.ok or not charts.same_graph(case.chart,
                                                  *charts.graph_tuples(result.graph)):
            problems.append(f"{where}: emitted {target.value} does not re-parse "
                            "to the same graph")
    tags = [t.relation.value for t in ug.triples]
    if [(t.src, t.dst) for t in ug.triples] != [(e.src, e.dst) for e in graph.edges]:
        problems.append(f"{where}: triples do not follow the edges")
    kinds = {n.id: n.kind.value for n in graph.nodes}
    if any(kinds[t.src] == "Decision" and t.relation.value != "Conditionality"
           for t in ug.triples):
        problems.append(f"{where}: a decision edge is not Conditionality")
    _, result = parse_text(upgraded)
    if not result.ok:
        problems.append(f"{where}: upgraded text does not re-parse")
    elif case.dialect == "plantuml":
        # structured PlantUML drops labels it cannot place: compare shape only
        nodes, edges = charts.graph_tuples(result.graph, relabel=lambda _: None)
        bare = charts.Chart(case.chart.name, [], case.chart.nodes,
                            [(s, d, None) for s, d, _ in case.chart.edges])
        if not charts.same_graph(bare, nodes, edges):
            problems.append(f"{where}: upgraded text has another shape")
    else:
        nodes, edges = charts.graph_tuples(result.graph, relabel=_relabel_upgraded)
        shown = [charts.split_relation_label(e.label.render()) for e in result.graph.edges]
        if (not charts.same_graph(case.chart, nodes, edges)
                or [s[0] if s else None for s in shown] != tags):
            problems.append(f"{where}: upgraded text does not carry the relations")
    lines = triples.splitlines()
    listed = Counter()
    for line, tag in zip(lines, tags):
        m = _TRIPLE_LINE.match(line)
        if m is None or m.group(2) != tag:
            break
        listed[(m.group(1), m.group(3))] += 1
    if (len(lines) != len(tags)
            or listed != Counter((texts[s], texts[d]) for s, d, _ in case.chart.edges)):
        problems.append(f"{where}: triple listing does not match the edges")
    names = {n.id: n.text for n in graph.nodes}
    labelled = Counter((names[t.src], names[t.dst], e.label.render(), t.relation.value)
                       for t, e in zip(ug.triples, graph.edges))
    if relations.setdefault(case.chart.name, labelled) != labelled:
        problems.append(f"{where}: relations differ from another rendering")
    return problems


# --- convert-sweep --------------------------------------------------------------

def convert_setup(seed: int) -> list[Case]:
    rng = random.Random(f"convert-{seed}")
    cases = []
    for group, nodes, count in SIZES:
        for i in range(count):
            chart = charts.sized_chart(rng, f"{group}-{i}", nodes)
            cases += [Case(chart, dialect, charts.RENDERERS[dialect](chart), group)
                      for dialect in charts.DIALECTS]
    # deep nesting is a PlantUML construct; one such item is enough to count
    deep = charts.deep_chart(rng, "deep", DEEP_LEVELS)
    cases.append(Case(deep, "plantuml", charts.render_plantuml(deep), "deep"))
    return cases


def convert_sweep(seed: int, seconds: float, trace: bool, root: Path) -> Outcome:
    speed = HostSpeed()
    if trace:
        cases = convert_setup(seed)
    else:
        cases, setup_s = _median_setup(lambda _: convert_setup(seed), speed)
    gc.freeze()
    log = ConvertLog()
    tracer = Tracer() if trace else None
    rng = random.Random(f"convert-order-{seed}")
    rounds = itertools.count()

    def round_(traced: bool):
        heavy = trace or next(rounds) % HEAVY_EVERY == 0
        chosen = [i for i, case in enumerate(cases) if heavy or case.group not in HEAVY]
        return run_cases(cases, rng.sample(chosen, len(chosen)), log, speed,
                         tracer if traced else None)

    plain, traced = _alternate(seconds, trace, round_, min_units=MIN_ROUNDS)
    if log.problems:
        raise CheckFailed(log.problems)
    if trace:
        tracer.write(_work_dir(root) / f"spans-convert-sweep-{seed}.jsonl")
        return Outcome(log.attempted, log.failed, layers.compute(
            tracer.spans, len(cases) * len(traced), tracer.present,
            overhead_ratio=_overhead(plain, traced), failed_ratio=log.failed / log.attempted,
            cache_writes=0))
    return Outcome(log.attempted, log.failed, {
        "setup_s": setup_s,
        "items_per_s": log.rate(),
        "convert_ms_p50": log.percentile_ms(0.5),
        "convert_ms_p90": log.percentile_ms(0.9),
        "peak_rss_mb": _peak_rss_mb(),
    })


# --- eval workloads ---------------------------------------------------------------

class TracedGateway(ChatGateway):
    """flowsra's gateway with a span around ``complete`` that records the
    prompt kind, its size in tokens, and whether the cache served it (the
    response says so)."""

    def __init__(self, transport, cache_dir: Path, tracer: Tracer):
        super().__init__(transport, cache_dir=cache_dir, parallelism=GATEWAY_PARALLELISM)
        self.tracer = tracer

    def complete(self, request):
        self.tracer.begin("gateway.complete")
        try:
            response = super().complete(request)
        finally:
            span = self.tracer.end()
        rendered = request.rendered()
        span[ATTRS] = {"kind": evalset.prompt_kind(rendered),
                       "tokens": len(rendered.split()),
                       "cached": response.cached}
        return response


@dataclass
class EvalSetup:
    evalset: evalset.EvalSet
    conversions: list[Case]
    path: Path
    work: Path
    cache: Path | None = None
    report: str | None = None
    waits: tuple[float, float] = NO_WAITS  # on the transport, filling the cache

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


@dataclass
class PassResult:
    instances: int
    failed: int
    report: str
    transport_calls: int
    waits: tuple[float, float]  # the transport's, see ScriptedTransport
    cache_writes: int  # counted in traced passes only


def _cache_files(cache: Path) -> dict[str, tuple[int, int]]:
    """Each file under the cache directory with its inode and mtime, so that
    two snapshots show the files created or replaced between them."""
    files = {}
    if cache.is_dir():
        for path in cache.rglob("*"):
            if path.is_file():
                stat = path.stat()
                files[str(path)] = (stat.st_ino, stat.st_mtime_ns)
    return files


def _cut_between(instances, speed: HostSpeed, transport) -> Iterator:
    """The instances, cutting the speed meter's segment after each, when
    run_eval asks for the next."""
    for instance in instances:
        yield instance
        speed.cut(transport.waits)


def eval_pass(setup: EvalSetup, cache: Path, tracer: Tracer | None = None,
              speed: HostSpeed | None = None) -> PassResult:
    """load_dataset, run_eval and report_render, as ``flowsra eval`` does.
    With ``speed``, the caller has opened a segment; the pass cuts it
    between untraced instances and closes it before the checks."""
    transport = evalset.ScriptedTransport(setup.evalset.script, TRANSPORT_DELAY, tracer)
    if tracer is None:
        gateway = ChatGateway(transport, cache_dir=cache, parallelism=GATEWAY_PARALLELISM)
    else:
        gateway = TracedGateway(transport, cache, tracer)
        before = _cache_files(cache)
        tracer.install()
    try:
        load = load_dataset(setup.path)
        instances = load.instances
        if speed is not None and tracer is None:
            instances = _cut_between(instances, speed, transport)
        run = run_eval(instances, EVAL_CONFIG, gateway)
        report = report_render(run.report, "json")
    finally:
        if tracer is not None:
            tracer.uninstall()
    if speed is not None:
        speed.close(transport.waits)
    writes = 0
    if tracer is not None:
        after = _cache_files(cache)
        writes = sum(1 for path, stamp in after.items() if before.get(path) != stamp)
    problems = check_report(run.report, setup.evalset.expected)
    if setup.report is not None and report != setup.report:
        problems.append("rendered report differs from the first pass's")
    if problems:
        raise CheckFailed(problems)
    return PassResult(len(load.instances), run.report.failed_count + run.report.skipped_count,
                      report, transport.calls, transport.waits, writes)


def check_report(report, expected: evalset.Expected) -> list[str]:
    """Totals and route counts the dataset and the scripted transport imply."""
    got = report.to_dict()
    want_routes, want_confusion, want_acc = {}, {}, {}
    for qtype in evalset.TYPES:
        deep = qtype == "TP2"
        n = expected.per_type[qtype][1]
        want_routes.update({f"{qtype}/shallow": 0 if deep else n, f"{qtype}/deep": n if deep else 0})
        want_confusion.update({f"{qtype}/Straight": 0 if deep else n,
                               f"{qtype}/Complicated": n if deep else 0})
        want_acc[qtype] = expected.per_type[qtype][0] / n
    want = {
        "total": expected.total,
        "correct": expected.correct,
        "overall_acc": expected.correct / expected.total,
        "per_type_acc": want_acc,
        "route_counts": want_routes,
        "discriminator_confusion": want_confusion,
        "fallback_rate": expected.fallbacks / expected.triples,
        "skipped_count": 0,
        "failed_count": 0,
        "judge_failures": 0,
    }
    return [f"report {key}: {got.get(key)!r}, expected {value!r}"
            for key, value in want.items() if got.get(key) != value]


def eval_setup(seed: int, root: Path, prefill: bool,
               speed: HostSpeed | None = None) -> EvalSetup:
    """Dataset, its JSONL file, charts for the conversion item and, for
    replay, a cache filled by one cold pass (which cuts ``speed`` as
    eval_pass says)."""
    work = Path(tempfile.mkdtemp(dir=_work_dir(root), prefix="eval-"))
    rng = random.Random(f"eval-convert-{seed}")
    conversions = []
    span = evalset.MAX_NODES - evalset.MIN_NODES
    for i in range(CONVERT_CHARTS):
        chart = charts.sized_chart(rng, f"e{i:02d}",
                                   evalset.MIN_NODES + span * i // (CONVERT_CHARTS - 1))
        dialect = charts.DIALECTS[i % len(charts.DIALECTS)]
        conversions.append(Case(chart, dialect, charts.RENDERERS[dialect](chart), "eval"))
    setup = EvalSetup(evalset.build(seed), conversions, work / "dataset.jsonl", work)
    setup.evalset.write(setup.path)
    if prefill:
        setup.cache = work / "cache"
        fill = eval_pass(setup, setup.cache, speed=speed)
        setup.report, setup.waits = fill.report, fill.waits
    return setup


def _eval(seed: int, seconds: float, trace: bool, root: Path, cold: bool) -> Outcome:
    build = lambda speed: eval_setup(seed, root, not cold, speed)  # noqa: E731
    speed = HostSpeed()
    setup, setup_s = (build(None), None) if trace else _median_setup(build, speed)
    try:
        return _eval_measure(setup, setup_s, speed, seed, seconds, trace, root, cold)
    finally:
        setup.close()


def _eval_measure(setup: EvalSetup, setup_s, speed: HostSpeed, seed: int, seconds: float,
                  trace: bool, root: Path, cold: bool) -> Outcome:
    gc.freeze()
    tracer = Tracer() if trace else None
    passes: list[PassResult] = []
    caches = itertools.count()
    log = ConvertLog()
    every = list(range(len(setup.conversions)))

    def one_pass(traced: bool):
        cache = setup.cache
        if cold:
            cache = setup.work / f"cold-{next(caches)}"
        speed.open()
        result = eval_pass(setup, cache, tracer if traced else None, speed)
        if setup.report is None:
            setup.report = result.report
        if cold:
            if result.transport_calls == 0:
                raise CheckFailed(["a cold pass made no transport calls"])
            setup.cache = cache  # old caches go with the work dir at the end
        elif result.transport_calls:
            raise CheckFailed([f"a replay pass made {result.transport_calls} transport calls"])
        passes.append(result)
        scaled = speed.take()
        converting = 0.0
        while not trace and converting < CONVERT_SHARE * scaled:
            converting += run_cases(setup.conversions, every, log, speed)[1]
        return result.instances, scaled

    if not cold:
        eval_pass(setup, setup.cache)  # warm-up: the first replays run slow
    plain, traced = _alternate(seconds, trace, one_pass,
                               min_units=MIN_COLD_PASSES if cold else 1)
    if cold:
        # the last cold cache must replay the same report with no calls
        replay = eval_pass(setup, setup.cache)
        if replay.transport_calls:
            raise CheckFailed([f"replaying a cold cache made {replay.transport_calls} calls"])
    if log.problems:
        raise CheckFailed(log.problems)
    attempted = sum(p.instances for p in passes) + log.attempted
    failed = sum(p.failed for p in passes) + log.failed
    if trace:
        workload = "eval-cold" if cold else "eval-replay"
        tracer.write(_work_dir(root) / f"spans-{workload}-{seed}.jsonl")
        return Outcome(attempted, failed, layers.compute(
            tracer.spans, sum(n for n, _ in traced), tracer.present,
            overhead_ratio=_overhead(plain, traced), failed_ratio=failed / attempted,
            cache_writes=sum(p.cache_writes for p in passes)))
    return Outcome(attempted, failed, {
        "setup_s": setup_s,
        "items_per_s": statistics.median(n / t for n, t in plain),
        "convert_ms_p50": log.percentile_ms(0.5),
        "convert_ms_p90": log.percentile_ms(0.9),
        "peak_rss_mb": _peak_rss_mb(),
    })


WORKLOADS = {
    "convert-sweep": convert_sweep,
    "eval-replay": lambda seed, seconds, trace, root: _eval(seed, seconds, trace, root, False),
    "eval-cold": lambda seed, seconds, trace, root: _eval(seed, seconds, trace, root, True),
}
