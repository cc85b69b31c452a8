"""Shallow reasoning, deep reasoning, and the controlled dispatch between them.

Shallow reasoning answers from the link-based chart text, deep reasoning
from the relation-annotated chart plus its triples and taxonomy. Each is one
zero-shot completion from a prompt fixed per depth, whose reply budget and
system preamble are its row of ``prompts.ANCHORS``.

Every question takes one path: :func:`route` calls the router, a plain
function of the :class:`Question` (see ``routing.make_router``), then
:func:`answer_routed` answers it shallow, or upgrades the graph and answers
it deep, so straight questions cost zero recognition calls.
:func:`answer_controlled` is that path for one graph (``flowsra ask``);
``harness.run_eval`` takes it too, with an upgrade shared by the questions
on a chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .emitting import InterlanguageDoc, emit, emit_triples, emit_upgraded
from .gateway import (ChatGateway, ChatRequest, PromptKind, prompt_fingerprint, prompt_head,
                      prompt_request)
from .ir import (RELATION_DEFINITIONS_BLOCK, FlowGraph, IdentityEnum, UpgradedGraph, derived,
                 require_valid)
from .parsing import Dialect
from .relations import RelationBackend, upgrade_graph
from .routing import ClassificationError, Question, QuestionClass, Router


class Route(IdentityEnum):
    SHALLOW = "shallow"
    DEEP = "deep"


@dataclass(frozen=True)
class Answer:
    text: str
    route: Route
    prompt_fingerprint: str
    fallbacks_used: int = 0


def _answer(gateway: ChatGateway, request: ChatRequest, route: Route,
            fallbacks_used: int = 0) -> Answer:
    return Answer(gateway.complete(request).content.strip(), route,
                  prompt_fingerprint(request), fallbacks_used)


def answer_shallow(doc: InterlanguageDoc, question: Question,
                   gateway: ChatGateway, *, model: str) -> Answer:
    """One zero-shot completion over the basic chart text."""
    head = derived(doc, "shallow_head", lambda: prompt_head(
        PromptKind.SHALLOW, interlanguage=doc.text.rstrip("\n")))
    return _answer(gateway, prompt_request(model, PromptKind.SHALLOW, head,
                                           question=question.text), Route.SHALLOW)


def answer_deep(ug: UpgradedGraph, question: Question, gateway: ChatGateway, *,
                model: str, dialect: Dialect = Dialect.MERMAID) -> Answer:
    """One zero-shot completion over the annotated chart, triples, and
    taxonomy, under perceive-before-answer constraints."""
    head = derived(ug, ("deep_head", dialect), lambda: prompt_head(
        PromptKind.DEEP, upgraded=emit_upgraded(ug, dialect).text.rstrip("\n"),
        triples=emit_triples(ug).rstrip("\n") or "(none)",
        definitions=RELATION_DEFINITIONS_BLOCK))
    return _answer(gateway, prompt_request(model, PromptKind.DEEP, head, question=question.text),
                   Route.DEEP, ug.fallback_count())


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
