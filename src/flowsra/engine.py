"""Shallow reasoning, deep reasoning, and the controlled dispatch between them.

Shallow reasoning answers from the link-based chart text, deep reasoning
from the relation-annotated chart plus its triples and taxonomy. Each is one
zero-shot completion of at most 256 tokens, from a prompt fixed per depth.

Every question takes one path: :func:`route` calls the router, a plain
function of the :class:`Question` (see ``routing.make_router``), then
:func:`answer_routed` answers it shallow, or upgrades the graph and answers
it deep, so straight questions cost zero recognition calls.
:func:`answer_controlled` is that path for one graph (``flowsra ask``);
``harness.run_eval`` takes it too, with an upgrade shared by the questions
on a chart.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .emitting import InterlanguageDoc, emit, emit_triples, emit_upgraded
from .gateway import ChatGateway, PromptKind, chat_request
from .ir import FlowGraph, UpgradedGraph, relation_definitions_block, require_valid
from .parsing import Dialect
from .prompts import load_template
from .relations import RelationBackend, upgrade_graph
from .routing import ClassificationError, Question, QuestionClass, Router


class Route(Enum):
    SHALLOW = "shallow"
    DEEP = "deep"


@dataclass(frozen=True)
class Answer:
    text: str
    route: Route
    prompt_fingerprint: str
    fallbacks_used: int = 0


_SYSTEM_PREAMBLE = "You are a careful assistant for flowchart question answering."


def _fingerprint(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def _complete(gateway: ChatGateway, model: str, prompt: str, kind: PromptKind) -> tuple[str, str]:
    request = chat_request(model, prompt, max_tokens=256, system=_SYSTEM_PREAMBLE, kind=kind)
    content = gateway.complete(request).content
    return content.strip(), _fingerprint(request.rendered())


def answer_shallow(doc: InterlanguageDoc, question: Question,
                   gateway: ChatGateway, *, model: str) -> Answer:
    """One zero-shot completion over the basic chart text."""
    prompt = load_template("shallow.txt").format(
        interlanguage=doc.text.rstrip("\n"),
        question=question.text,
    )
    text, fingerprint = _complete(gateway, model, prompt, PromptKind.SHALLOW)
    return Answer(text=text, route=Route.SHALLOW, prompt_fingerprint=fingerprint)


def answer_deep(ug: UpgradedGraph, question: Question, gateway: ChatGateway, *,
                model: str, dialect: Dialect = Dialect.MERMAID) -> Answer:
    """One zero-shot completion over the annotated chart, triples, and
    taxonomy, under perceive-before-answer constraints."""
    prompt = load_template("deep.txt").format(
        upgraded=emit_upgraded(ug, dialect).text.rstrip("\n"),
        triples=emit_triples(ug).rstrip("\n") or "(none)",
        definitions=relation_definitions_block(),
        question=question.text,
    )
    text, fingerprint = _complete(gateway, model, prompt, PromptKind.DEEP)
    return Answer(text=text, route=Route.DEEP, prompt_fingerprint=fingerprint,
                  fallbacks_used=ug.fallback_count())


def route(router: Router, question: Question) -> QuestionClass:
    """The router's class for the question. A router failure falls back to
    Complicated: deep reasoning is the fault-tolerant side."""
    try:
        return router(question)
    except ClassificationError:
        return QuestionClass.COMPLICATED


def answer_routed(graph: FlowGraph, question: Question, question_class: QuestionClass,
                  upgrade: Callable[[], UpgradedGraph], gateway: ChatGateway, *,
                  model: str, dialect: Dialect = Dialect.MERMAID) -> Answer:
    """Answer a Straight question shallow over ``graph``; any other deep
    over ``upgrade()``, which is called on that path only."""
    if question_class is QuestionClass.STRAIGHT:
        return answer_shallow(emit(graph, dialect), question, gateway, model=model)
    return answer_deep(upgrade(), question, gateway, model=model, dialect=dialect)


def answer_controlled(graph: FlowGraph, question: Question, router: Router,
                      recognizer: RelationBackend, gateway: ChatGateway, *,
                      model: str, dialect: Dialect = Dialect.MERMAID) -> Answer:
    """Validate, route and answer one question on one graph, upgrading the
    graph only on the deep path."""
    require_valid(graph)
    return answer_routed(
        graph, question, route(router, question),
        lambda: upgrade_graph(graph, recognizer, dialect=dialect), gateway,
        model=model, dialect=dialect)
