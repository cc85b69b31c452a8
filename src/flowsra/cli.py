"""Command-line front end: convert, upgrade, ask, route, stats, eval.

stdout carries only the command payload; diagnostics and logs go to stderr.
Exit codes: 0 success, 1 input error, 2 configuration error, 3 backend or
transport error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .emitting import EmitError, emit, emit_triples, emit_upgraded
from .engine import Question, Route, answer_controlled
from .gateway import (
    CacheError,
    ChatGateway,
    HttpTransport,
    PermanentError,
    ProtocolError,
    ScriptedMissError,
    TransportError,
    load_mock_script,
)
from .harness import EvalConfig, load_dataset, report_render, run_eval, EmptyDatasetError
from .ir import GraphValidationError, topology_stats
from .parsing import Dialect, UnknownDialectError, parse_text
from .relations import UpgradeError, make_relation_backend, upgrade_graph
from .routing import ROUTE_MODES, QuestionType, make_router

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3

_ENV_PREFIX = "FLOWSRA_"


@dataclass
class RunConfig:
    """Effective settings; precedence is flags > environment > config file."""

    endpoint: str | None = None
    api_key: str | None = None
    reasoner_model: str = "reasoner"
    recognizer_model: str = "recognizer"
    router_model: str = "router"
    judge_model: str = "judge"
    cache_dir: str | None = None
    parallelism: int = 8
    offline: bool = False
    mock_script: str | None = None

    @classmethod
    def resolve(cls, args: argparse.Namespace) -> "RunConfig":
        config = cls()
        names = [f.name for f in fields(cls)]
        path = getattr(args, "config", None) or os.environ.get(_ENV_PREFIX + "CONFIG")
        if path:
            try:
                data = json.loads(Path(path).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config file {path}: {exc}") from exc
            for name in names:
                if name in data:
                    setattr(config, name, data[name])
        for name in names:
            env = os.environ.get(_ENV_PREFIX + name.upper())
            if env is not None:
                if name == "parallelism":
                    setattr(config, name, int(env))
                elif name == "offline":
                    setattr(config, name, env.casefold() in ("1", "true", "yes"))
                else:
                    setattr(config, name, env)
        for name in names:
            value = getattr(args, name, None)
            if value is not None and value is not False:
                setattr(config, name, value)
        config.parallelism = int(config.parallelism)
        return config


class ConfigError(RuntimeError):
    pass


def _gateway(config: RunConfig) -> ChatGateway:
    transport = None
    if config.mock_script:
        transport = load_mock_script(config.mock_script)
    elif config.endpoint and not config.offline:
        transport = HttpTransport(config.endpoint, config.api_key)
    return ChatGateway(
        transport,
        cache_dir=config.cache_dir,
        offline=config.offline,
        parallelism=config.parallelism,
    )


class InputError(RuntimeError):
    pass


def _not_utf8(path: str, exc: UnicodeDecodeError) -> InputError:
    return InputError(f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})")


def _read_input(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc


def _parse_input(path: str, dialect: str | None) -> tuple[Dialect, object]:
    text = _read_input(path)
    chosen = Dialect(dialect) if dialect else None
    detected, result = parse_text(text, chosen)
    for diag in result.diagnostics:
        print(str(diag), file=sys.stderr)
    if result.errors():
        raise InputError("input has parse errors")
    return detected, result.graph


# --- subcommands ---------------------------------------------------------


def cmd_convert(args: argparse.Namespace, config: RunConfig) -> int:
    _, graph = _parse_input(args.input, args.dialect)
    doc = emit(graph, Dialect(args.to))
    sys.stdout.write(doc.text)
    return EXIT_OK


def cmd_upgrade(args: argparse.Namespace, config: RunConfig) -> int:
    detected, graph = _parse_input(args.input, args.dialect)
    gateway = _gateway(config)
    backend = make_relation_backend(args.relation_backend, gateway,
                                    config.recognizer_model)
    target = Dialect(args.to) if args.to else detected
    ug = upgrade_graph(graph, backend, dialect=target)
    sys.stdout.write(emit_upgraded(ug, target).text)
    triples = emit_triples(ug)
    if triples:
        sys.stdout.write("\n" + triples)
    return EXIT_OK


def cmd_ask(args: argparse.Namespace, config: RunConfig) -> int:
    detected, graph = _parse_input(args.input, args.dialect)
    gateway = _gateway(config)
    question = Question(args.question)
    dialect = Dialect(args.to) if args.to else detected
    backend = make_relation_backend(args.relation_backend, gateway,
                                    config.recognizer_model)
    kind = {"shallow": "always-shallow", "deep": "always-deep"}.get(args.mode, args.router)
    router = make_router(kind, gateway, config.router_model)
    answer = answer_controlled(graph, question, router, backend, gateway,
                               model=config.reasoner_model, dialect=dialect)
    # the deep route upgrades the graph, which recognizes each edge once
    calls = len(graph.edges) if answer.route is Route.DEEP else 0
    print(f"recognizer calls: {calls}", file=sys.stderr)
    payload = {
        "answer": answer.text,
        "route": answer.route.value,
        "prompt_fingerprint": answer.prompt_fingerprint,
        "fallbacks_used": answer.fallbacks_used,
    }
    print(json.dumps(payload, ensure_ascii=False))
    return EXIT_OK


def cmd_route(args: argparse.Namespace, config: RunConfig) -> int:
    gateway = _gateway(config)
    router = make_router(args.router, gateway, config.router_model)
    question_class = router.classify(args.question, None)
    print(json.dumps({"class": question_class.value}))
    return EXIT_OK


def cmd_stats(args: argparse.Namespace, config: RunConfig) -> int:
    _, graph = _parse_input(args.input, args.dialect)
    print(json.dumps(asdict(topology_stats(graph))))
    return EXIT_OK


def cmd_eval(args: argparse.Namespace, config: RunConfig) -> int:
    try:
        load = load_dataset(args.dataset)
    except UnicodeDecodeError as exc:
        raise _not_utf8(args.dataset, exc) from exc
    for diag in load.diagnostics:
        print(str(diag), file=sys.stderr)
    eval_config = EvalConfig(
        router_mode=args.router,
        relation_backend=args.relation_backend,
        judge_mode=args.judge,
        dialect=Dialect(args.dialect) if args.dialect else None,
        filter_type=QuestionType.from_code(args.filter_type) if args.filter_type else None,
        reasoner_model=config.reasoner_model,
        recognizer_model=config.recognizer_model,
        router_model=config.router_model,
        judge_model=config.judge_model,
    )
    gateway = _gateway(config)
    log_file = None
    if args.log_file:  # before the run, so an unopenable path costs no call
        try:
            log_file = open(args.log_file, "w", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot open log file {args.log_file}: {exc.strerror}") from exc
    try:
        run = run_eval(load.instances, eval_config, gateway)
        for log in run.logs:
            print(json.dumps(log.to_dict(), ensure_ascii=False), file=log_file or sys.stderr)
    finally:
        if log_file:
            log_file.close()
    sys.stdout.write(report_render(run.report, args.report))
    return EXIT_OK


# --- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowsra",
        description="Convert, upgrade, and question flowchart interlanguages.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--endpoint", help="chat-completions endpoint URL")
    common.add_argument("--api-key", dest="api_key", help="endpoint API key")
    common.add_argument("--cache-dir", dest="cache_dir", help="response cache directory")
    common.add_argument("--parallelism", type=int, default=None,
                        help="max concurrent transport calls (default 8); once a "
                             "run reaches the transport, eval instances and an "
                             "upgrade's recognizer calls run on 2N worker threads, "
                             "with up to 8N queued ahead")
    common.add_argument("--offline", action="store_true", default=False,
                        help="forbid network; cache and mock only")
    common.add_argument("--mock-script", dest="mock_script",
                        help="JSON mock script replacing the network transport")
    common.add_argument("--model-reasoner", dest="reasoner_model", default=None)
    common.add_argument("--model-recognizer", dest="recognizer_model", default=None)
    common.add_argument("--model-router", dest="router_model", default=None)
    common.add_argument("--model-judge", dest="judge_model", default=None)

    sub = parser.add_subparsers(dest="command", required=True)
    dialects = [d.value for d in Dialect]

    p = sub.add_parser("convert", parents=[common],
                       help="parse a chart and emit it in another dialect")
    p.add_argument("input", help="chart file ('-' for stdin)")
    p.add_argument("--to", required=True, choices=dialects)
    p.add_argument("--dialect", choices=dialects, help="input dialect override")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("upgrade", parents=[common],
                       help="emit the relation-annotated chart plus triples")
    p.add_argument("input")
    p.add_argument("--relation-backend", default="heuristic",
                   choices=["heuristic", "llm"])
    p.add_argument("--to", choices=dialects, help="output dialect (default: input's)")
    p.add_argument("--dialect", choices=dialects)
    p.set_defaults(func=cmd_upgrade)

    p = sub.add_parser("ask", parents=[common], help="answer a question about a chart")
    p.add_argument("input")
    p.add_argument("--question", required=True)
    p.add_argument("--mode", default="controlled",
                   choices=["shallow", "deep", "controlled"])
    p.add_argument("--router", default="heuristic", choices=["llm", "heuristic"])
    p.add_argument("--relation-backend", default="heuristic",
                   choices=["heuristic", "llm"])
    p.add_argument("--to", choices=dialects, help="reasoning dialect (default: input's)")
    p.add_argument("--dialect", choices=dialects)
    p.set_defaults(func=cmd_ask)

    p = sub.add_parser("route", parents=[common],
                       help="classify a question as Straight or Complicated")
    p.add_argument("--question", required=True)
    p.add_argument("--router", default="heuristic", choices=["llm", "heuristic"])
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("stats", parents=[common], help="print topology statistics")
    p.add_argument("input")
    p.add_argument("--dialect", choices=dialects)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", parents=[common], help="run the evaluation harness")
    p.add_argument("--dataset", required=True)
    p.add_argument("--dialect", choices=dialects,
                   help="reason over this dialect instead of each instance's own")
    p.add_argument("--router", default="heuristic", choices=ROUTE_MODES)
    p.add_argument("--relation-backend", default="heuristic",
                   choices=["heuristic", "llm"])
    p.add_argument("--judge", default="exact", choices=["exact", "llm"])
    p.add_argument("--filter-type", choices=[t.value for t in QuestionType])
    p.add_argument("--report", default="json", choices=["json", "csv", "markdown"])
    p.add_argument("--log-file", help="write per-instance logs here instead of stderr")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.resolve(args)
        return args.func(args, config)
    except (InputError, UnknownDialectError, GraphValidationError, EmitError,
            EmptyDatasetError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConfigError, CacheError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TransportError, PermanentError, ProtocolError, ScriptedMissError,
            UpgradeError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
