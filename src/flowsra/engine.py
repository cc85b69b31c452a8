"""Shallow reasoning, deep reasoning, and the controlled dispatch between them.

Shallow reasoning answers from the link-based chart text in one zero-shot
completion with no reasoning scaffold. Deep reasoning answers from the
relation-annotated chart plus the full triple listing and taxonomy. The
controlled path classifies the question first and upgrades the graph only
when the deep route is taken, so straight questions cost zero recognition
calls.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

from .emitting import InterlanguageDoc, emit, emit_triples, emit_upgraded
from .gateway import ChatGateway, ChatMessage, ChatRequest
from .ir import FlowGraph, UpgradedGraph, relation_definitions_block, require_valid
from .parsing import Dialect
from .prompts import load_template
from .relations import RelationBackend, upgrade_graph
from .routing import ClassificationError, QuestionClass, QuestionType


class Route(Enum):
    SHALLOW = "shallow"
    DEEP = "deep"


@dataclass(frozen=True)
class Question:
    text: str
    gold_type: QuestionType | None = None

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("question text must be non-empty")


@dataclass(frozen=True)
class Answer:
    text: str
    route: Route
    prompt_fingerprint: str
    fallbacks_used: int = 0


_SYSTEM_PREAMBLE = "You are a careful assistant for flowchart question answering."


def _fingerprint(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def _complete(gateway: ChatGateway, model: str, prompt: str,
              max_tokens: int) -> tuple[str, str]:
    request = ChatRequest(
        model=model,
        messages=(ChatMessage("system", _SYSTEM_PREAMBLE),
                  ChatMessage("user", prompt)),
        max_tokens=max_tokens,
    )
    content = gateway.complete(request).content
    return content.strip(), _fingerprint(request.rendered())


def answer_shallow(doc: InterlanguageDoc, question: Question,
                   gateway: ChatGateway, *, model: str,
                   max_tokens: int = 256) -> Answer:
    """One zero-shot completion over the basic chart text."""
    prompt = load_template("shallow.txt").format(
        interlanguage=doc.text.rstrip("\n"),
        question=question.text,
    )
    text, fingerprint = _complete(gateway, model, prompt, max_tokens)
    return Answer(text=text, route=Route.SHALLOW, prompt_fingerprint=fingerprint)


def answer_deep(ug: UpgradedGraph, question: Question, gateway: ChatGateway, *,
                model: str, dialect: Dialect = Dialect.MERMAID,
                max_tokens: int = 256,
                include_basic: bool = False) -> Answer:
    """One zero-shot completion over the annotated chart, triples, and
    taxonomy, under perceive-before-answer constraints."""
    basic_section = ""
    if include_basic:
        basic = emit(ug.base, dialect)
        basic_section = f"\nThe original un-annotated chart:\n{basic.text.rstrip()}\n"
    prompt = load_template("deep.txt").format(
        upgraded=emit_upgraded(ug, dialect).text.rstrip("\n"),
        triples=emit_triples(ug).rstrip("\n") or "(none)",
        definitions=relation_definitions_block(),
        basic_section=basic_section,
        question=question.text,
    )
    text, fingerprint = _complete(gateway, model, prompt, max_tokens)
    return Answer(text=text, route=Route.DEEP, prompt_fingerprint=fingerprint,
                  fallbacks_used=ug.fallback_count())


def answer_controlled(
    graph: FlowGraph,
    question: Question,
    router,
    recognizer: RelationBackend,
    gateway: ChatGateway,
    *,
    model: str,
    dialect: Dialect = Dialect.MERMAID,
    max_tokens: int = 256,
    include_basic_in_deep: bool = False,
) -> Answer:
    """Route by question class; upgrade the graph only on the deep path.

    A router failure falls back to the Complicated path (deep reasoning is
    the fault-tolerant side).
    """
    require_valid(graph)
    try:
        question_class = router.classify(question.text, question.gold_type)
    except ClassificationError:
        question_class = QuestionClass.COMPLICATED
    if question_class is QuestionClass.STRAIGHT:
        return answer_shallow(emit(graph, dialect), question, gateway,
                              model=model, max_tokens=max_tokens)
    ug = upgrade_graph(graph, recognizer, dialect=dialect)
    return answer_deep(ug, question, gateway, model=model, dialect=dialect,
                       max_tokens=max_tokens, include_basic=include_basic_in_deep)
