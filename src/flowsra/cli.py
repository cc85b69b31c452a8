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
from .engine import Question, answer_controlled
from .gateway import (
    ChatGateway,
    HttpTransport,
    PermanentError,
    PromptKind,
    ProtocolError,
    ScriptedMissError,
    SetupError,
    TransportError,
    load_mock_script,
)
from .harness import JUDGE_MODES, REPORT_FORMATS, EmptyDatasetError, EvalConfig
from .harness import load_dataset, report_render, run_eval
from .ir import GraphValidationError, topology_stats
from .parsing import Dialect, UnknownDialectError, parse_text
from .relations import RELATION_BACKENDS, UpgradeError, make_relation_backend
from .relations import upgrade_graph
from .routing import ROUTE_MODES, TEXT_ROUTE_MODES, ClassificationError, QuestionType, make_router

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
        """Each field's type is its default's (``str`` for a None default):
        a config file value must have it, or be null where the default is
        None, and an environment value must convert to it; otherwise
        ConfigError."""
        config = cls()
        data = {}
        path = getattr(args, "config", None) or os.environ.get(_ENV_PREFIX + "CONFIG")
        if path:
            try:
                data = json.loads(Path(path).read_text(encoding="utf-8").removeprefix("\ufeff"))
            except (OSError, ValueError, RecursionError) as exc:
                # ValueError: not UTF-8, or not JSON; RecursionError: nested too deeply
                raise ConfigError(f"cannot read config file {path}: {exc}") from exc
            if not isinstance(data, dict):
                raise ConfigError(f"config file {path} is not a JSON object")
        for f in fields(cls):
            kind = str if f.default is None else type(f.default)
            if f.name in data:
                value = data[f.name]
                if type(value) is not kind and not (value is None and f.default is None):
                    raise ConfigError(f"config file {path}: {f.name} must be of type "
                                      f"{kind.__name__}, not {json.dumps(value)}")
                setattr(config, f.name, value)
            env_name = _ENV_PREFIX + f.name.upper()
            if env_name in os.environ:
                setattr(config, f.name, _env_value(env_name, kind))
            value = getattr(args, f.name, None)
            if value is not None and value is not False:
                setattr(config, f.name, value)
        return config


class ConfigError(RuntimeError):
    pass


_BOOL_TEXT = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False,
              "": False}


def _env_value(name: str, kind: type) -> object:
    """Environment variable ``name`` as a ``kind``: ``str``, ``int``, or
    ``bool`` (1/true/yes or 0/false/no/empty, in any case)."""
    text = os.environ[name]
    try:
        return _BOOL_TEXT[text.casefold()] if kind is bool else kind(text)
    except (KeyError, ValueError):
        raise ConfigError(f"{name}={text!r} is not of type {kind.__name__}") from None


def _gateway(config: RunConfig) -> ChatGateway:
    """The gateway ``config`` asks for. A leading ``~`` in the mock script
    or cache path is the home directory, as in a shell: a config file or
    environment value reaches no shell that would expand it."""
    transport = None
    if config.mock_script:
        try:
            transport = load_mock_script(os.path.expanduser(config.mock_script))
        except ValueError as exc:  # not UTF-8, not JSON, or an entry of the wrong shape
            raise ConfigError(str(exc)) from exc
    elif config.endpoint and not config.offline:
        try:
            transport = HttpTransport(config.endpoint, config.api_key)
        except ValueError as exc:  # a malformed endpoint, or an API key no header can carry
            raise ConfigError(str(exc)) from exc
    cache_dir = config.cache_dir and os.path.expanduser(config.cache_dir)
    return ChatGateway(transport, cache_dir=cache_dir, parallelism=config.parallelism)


class InputError(RuntimeError):
    pass


def _not_utf8(path: str, exc: UnicodeDecodeError) -> InputError:
    return InputError(f"{path} is not UTF-8 text (byte {exc.start}: {exc.reason})")


def _read_input(path: str) -> str:
    """The chart at ``path`` ('-': stdin), without a leading byte-order mark."""
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from exc
    return text.removeprefix("\ufeff")


def _question(text: str) -> Question:
    """``text`` as a question. Argument bytes that are not UTF-8 arrive as
    lone surrogates, which no request can carry, so they are refused here."""
    try:
        text.encode("utf-8")
        return Question(text)
    except UnicodeEncodeError:
        raise InputError("question is not UTF-8 text") from None
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _json_line(value: object) -> str:
    """``value`` as one line of JSON with non-ASCII text verbatim, except that
    a lone surrogate, which UTF-8 cannot carry, is written as its JSON
    escape; so the line can be written to any UTF-8 stream."""
    text = json.dumps(value, ensure_ascii=False)
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


def _print_diagnostics(diagnostics) -> None:
    for diag in diagnostics:
        print(str(diag), file=sys.stderr)


def _parse_input(path: str, dialect: str | None) -> tuple[Dialect, object]:
    text = _read_input(path)
    chosen = Dialect(dialect) if dialect else None
    detected, result = parse_text(text, chosen)
    _print_diagnostics(result.diagnostics)
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
    with _gateway(config) as gateway:
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
    question = _question(args.question)
    dialect = Dialect(args.to) if args.to else detected
    kind = {"shallow": "always-shallow", "deep": "always-deep"}.get(args.mode, args.router)
    with _gateway(config) as gateway:
        backend = make_relation_backend(args.relation_backend, gateway, config.recognizer_model)
        router = make_router(kind, gateway, config.router_model)
        answer = answer_controlled(graph, question, router, backend, gateway,
                                   model=config.reasoner_model, dialect=dialect)
    recognized = gateway.requests[PromptKind.RELATION] + gateway.requests[PromptKind.RELATION_RETRY]
    print(f"recognizer calls: {recognized}", file=sys.stderr)
    payload = {
        "answer": answer.text,
        "route": answer.route.value,
        "prompt_fingerprint": answer.prompt_fingerprint,
        "fallbacks_used": answer.fallbacks_used,
    }
    print(_json_line(payload))
    return EXIT_OK


def cmd_route(args: argparse.Namespace, config: RunConfig) -> int:
    with _gateway(config) as gateway:
        router = make_router(args.router, gateway, config.router_model)
        question_class = router(_question(args.question))
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
    except EmptyDatasetError as exc:  # say why no record was valid, then fail
        _print_diagnostics(exc.diagnostics)
        raise
    _print_diagnostics(load.diagnostics)
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
        with gateway:
            run = run_eval(load.instances, eval_config, gateway)
        for log in run.logs:
            print(_json_line(log.to_dict()), file=log_file or sys.stderr)
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
                        help="max concurrent transport calls, one per transport "
                             "worker thread (default 8); once a run reaches the "
                             "transport, eval instances and an upgrade's recognizer "
                             "calls run on 2N more threads, with up to 8N queued ahead")
    common.add_argument("--offline", action="store_true", default=False,
                        help="never build the HTTP transport; serve requests "
                             "from the cache or a mock script")
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
    p.add_argument("--relation-backend", default="heuristic", choices=RELATION_BACKENDS)
    p.add_argument("--to", choices=dialects, help="output dialect (default: input's)")
    p.add_argument("--dialect", choices=dialects)
    p.set_defaults(func=cmd_upgrade)

    p = sub.add_parser("ask", parents=[common], help="answer a question about a chart")
    p.add_argument("input")
    p.add_argument("--question", required=True)
    p.add_argument("--mode", default="controlled",
                   choices=["shallow", "deep", "controlled"])
    p.add_argument("--router", default="heuristic", choices=TEXT_ROUTE_MODES)
    p.add_argument("--relation-backend", default="heuristic", choices=RELATION_BACKENDS)
    p.add_argument("--to", choices=dialects, help="reasoning dialect (default: input's)")
    p.add_argument("--dialect", choices=dialects)
    p.set_defaults(func=cmd_ask)

    p = sub.add_parser("route", parents=[common],
                       help="classify a question as Straight or Complicated")
    p.add_argument("--question", required=True)
    p.add_argument("--router", default="heuristic", choices=TEXT_ROUTE_MODES)
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
    p.add_argument("--relation-backend", default="heuristic", choices=RELATION_BACKENDS)
    p.add_argument("--judge", default="exact", choices=JUDGE_MODES)
    p.add_argument("--filter-type", choices=[t.value for t in QuestionType])
    p.add_argument("--report", default="json", choices=REPORT_FORMATS)
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
            EmptyDatasetError, OSError, UnicodeEncodeError) as exc:
        # UnicodeEncodeError: text that the output stream cannot carry
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConfigError, SetupError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TransportError, PermanentError, ProtocolError, ScriptedMissError,
            UpgradeError, ClassificationError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
