"""Classify questions as Straight or Complicated to pick the reasoning depth.

Only applied-scenario questions need reasoning over semantic relations; the
other three kinds read the chart structure directly, so they route to
shallow reasoning. Classifier failures default to Complicated because deep
reasoning tolerates misrouted questions better than shallow reasoning does.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .gateway import ChatGateway, ask_twice, completion_backend, last_tagged_line
from .prompts import load_template


class QuestionType(Enum):
    FACT_RETRIEVAL = "TP1"
    APPLIED_SCENARIO = "TP2"
    FLOW_REFERENCE = "TP3"
    TOPOLOGY = "TP4"

    @classmethod
    def from_code(cls, code: str) -> "QuestionType":
        try:
            return _QUESTION_TYPES_BY_CODE[code.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown question type {code!r}") from None


_QUESTION_TYPES_BY_CODE = {member.value: member for member in QuestionType}


class QuestionClass(Enum):
    STRAIGHT = "Straight"
    COMPLICATED = "Complicated"


class ClassificationError(RuntimeError):
    """Classifier output stayed unparseable after the retry."""


def type_to_class(question_type: QuestionType) -> QuestionClass:
    """Only applied-scenario questions need deep relation reasoning."""
    if question_type is QuestionType.APPLIED_SCENARIO:
        return QuestionClass.COMPLICATED
    return QuestionClass.STRAIGHT


_SCENARIO_CUES = re.compile(
    r"^(if|when|suppose)\b|what happens|in the scenario|should i\b",
    re.IGNORECASE,
)
_STRUCTURAL_CUES = re.compile(
    r"how many|count|which node|next step after|directly connected",
    re.IGNORECASE,
)


def heuristic_classify(question: str) -> QuestionClass:
    """Cue-based stand-in for the learned discriminator.

    Scenario cues say Complicated, structural/reference cues say Straight;
    when both or neither fire, Straight wins.
    """
    text = question.strip()
    scenario = bool(_SCENARIO_CUES.search(text))
    structural = bool(_STRUCTURAL_CUES.search(text))
    if scenario and not structural:
        return QuestionClass.COMPLICATED
    return QuestionClass.STRAIGHT


_CLASSES = "|".join(c.value for c in QuestionClass)
_CLASS_LINE = re.compile(r"class\s*[:\-]\s*(" + _CLASSES + ")", re.IGNORECASE)
_CLASS_BY_NAME = {c.value.casefold(): c for c in QuestionClass}

_RETRY_REMINDER = ("with exactly one line: "
                   + " or ".join(f"CLASS: {c.value}" for c in QuestionClass) + ".")


def _parse_class(text: str) -> QuestionClass | None:
    found = last_tagged_line(text, _CLASS_LINE)
    return None if found is None else _CLASS_BY_NAME[found[1].group(1).casefold()]


def classify(question: str, backend: Callable[[str], str]) -> QuestionClass:
    """Run a prompt-based classifier backend and normalize its output.

    ``backend`` maps a rendered prompt to raw response text. One retry with
    an explicit format reminder; after that ClassificationError.
    """
    if not question.strip():
        raise ValueError("question must be non-empty")
    prompt = load_template("router.txt").format(question=question, classes=_CLASSES)
    parsed = ask_twice(backend, prompt, _parse_class, _RETRY_REMINDER)
    if parsed is None:
        raise ClassificationError(f"unparseable class for question {question!r}")
    return parsed


@dataclass
class HeuristicRouter:
    def classify(self, question: str,
                 gold_type: QuestionType | None = None) -> QuestionClass:
        return heuristic_classify(question)


@dataclass
class LlmRouter:
    gateway: ChatGateway
    model: str

    def classify(self, question: str,
                 gold_type: QuestionType | None = None) -> QuestionClass:
        return classify(question,
                        completion_backend(self.gateway, self.model, max_tokens=64))


@dataclass
class OracleRouter:
    """Maps the dataset's gold type through type_to_class, for ablations."""

    def classify(self, question: str,
                 gold_type: QuestionType | None = None) -> QuestionClass:
        if gold_type is None:
            raise ValueError("oracle routing needs a gold question type")
        return type_to_class(gold_type)


@dataclass
class FixedRouter:
    """One class for every question: the always-shallow and always-deep
    ablations."""

    question_class: QuestionClass

    def classify(self, question: str,
                 gold_type: QuestionType | None = None) -> QuestionClass:
        return self.question_class


TEXT_ROUTE_MODES = ("llm", "heuristic")  # the routers that read the question only
ROUTE_MODES = TEXT_ROUTE_MODES + ("oracle", "always-shallow", "always-deep")


def make_router(kind: str, gateway: ChatGateway | None = None, model: str = ""):
    """Selector over ``ROUTE_MODES``."""
    if kind == "heuristic":
        return HeuristicRouter()
    if kind == "oracle":
        return OracleRouter()
    if kind == "always-shallow":
        return FixedRouter(QuestionClass.STRAIGHT)
    if kind == "always-deep":
        return FixedRouter(QuestionClass.COMPLICATED)
    if kind == "llm":
        if gateway is None:
            raise ValueError("the llm router needs a gateway")
        return LlmRouter(gateway, model or "default")
    raise ValueError(f"unknown router {kind!r}")
