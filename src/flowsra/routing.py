"""Classify questions as Straight or Complicated to pick the reasoning depth.

Only applied-scenario questions need reasoning over semantic relations; the
other three kinds read the chart structure directly, so they route to
shallow reasoning. Classifier failures default to Complicated because deep
reasoning tolerates misrouted questions better than shallow reasoning does.

A router is a plain function from a :class:`Question` to its class;
:func:`make_router` builds one per run from a ``ROUTE_MODES`` name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .gateway import ChatGateway, PromptKind, ask_twice, completion_backend, last_tagged_line
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


@dataclass(frozen=True)
class Question:
    text: str
    gold_type: QuestionType | None = None

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("question text must be non-empty")


Router = Callable[[Question], QuestionClass]


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


def oracle_router(question: Question) -> QuestionClass:
    """Maps the dataset's gold type through type_to_class, for ablations."""
    if question.gold_type is None:
        raise ValueError("oracle routing needs a gold question type")
    return type_to_class(question.gold_type)


TEXT_ROUTE_MODES = ("llm", "heuristic")  # the routers that read the question only
ROUTE_MODES = TEXT_ROUTE_MODES + ("oracle", "always-shallow", "always-deep")


def make_router(kind: str, gateway: ChatGateway | None = None, model: str = "") -> Router:
    """Selector over ``ROUTE_MODES``. The always-shallow and always-deep
    ablations give one class for every question."""
    if kind == "heuristic":
        return lambda question: heuristic_classify(question.text)
    if kind == "oracle":
        return oracle_router
    if kind == "always-shallow":
        return lambda question: QuestionClass.STRAIGHT
    if kind == "always-deep":
        return lambda question: QuestionClass.COMPLICATED
    if kind == "llm":
        if gateway is None:
            raise ValueError("the llm router needs a gateway")
        ask = completion_backend(gateway, model or "default", max_tokens=64, kind=PromptKind.ROUTER)
        return lambda question: classify(question.text, ask)
    raise ValueError(f"unknown router {kind!r}")
