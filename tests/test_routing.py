"""Question routing: the type->class mapping and both classifiers."""

import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from flowsra.gateway import ChatGateway
from flowsra.routing import (
    ROUTE_MODES,
    TEXT_ROUTE_MODES,
    ClassificationError,
    Question,
    QuestionClass,
    QuestionType,
    classify,
    heuristic_classify,
    make_router,
    type_to_class,
)

from gen import lookup_outcome, mock_backend, reply_gateway

DESK_SET = Path(__file__).parent / "data" / "desk_set.jsonl"


def load_desk_set():
    rows = []
    for line in DESK_SET.read_text().splitlines():
        record = json.loads(line)
        rows.append((record["question"], QuestionType.from_code(record["type"])))
    return rows


def referee_from_code(code):
    """``QuestionType.from_code`` as a loop over the members."""
    for member in QuestionType:
        if member.value == code.strip().upper():
            return member
    raise ValueError(f"unknown question type {code!r}")


class TestQuestionType:
    def test_codes_are_read_trimmed_in_any_case(self):
        assert QuestionType.from_code(" tp2\n") is QuestionType.APPLIED_SCENARIO
        with pytest.raises(ValueError, match="unknown question type 'TP5'"):
            QuestionType.from_code("TP5")

    @given(st.text()
           | st.from_regex(r"\s*(?i:tp[0-5])\s*", fullmatch=True)
           | st.text(alphabet="TPtp1234\u00df \t", max_size=5))
    def test_from_code_agrees_with_the_member_loop(self, code):
        assert lookup_outcome(QuestionType.from_code, code) == lookup_outcome(
            referee_from_code, code)


class TestTypeToClass:
    def test_applied_scenario_is_the_only_complicated_type(self):
        assert type_to_class(QuestionType.APPLIED_SCENARIO) is QuestionClass.COMPLICATED
        for qtype in (QuestionType.FACT_RETRIEVAL, QuestionType.FLOW_REFERENCE,
                      QuestionType.TOPOLOGY):
            assert type_to_class(qtype) is QuestionClass.STRAIGHT

    def test_total_with_single_complicated_image(self):
        images = [type_to_class(t) for t in QuestionType]
        assert images.count(QuestionClass.COMPLICATED) == 1


class TestHeuristicClassify:
    def test_structural_cues(self):
        assert heuristic_classify("How many edges does the chart contain?") is (
            QuestionClass.STRAIGHT)

    def test_scenario_cues(self):
        assert heuristic_classify("Suppose the test fails, what is the next action?") is (
            QuestionClass.COMPLICATED)
        assert heuristic_classify("If the dough is too dry, what should I do next?") is (
            QuestionClass.COMPLICATED)

    def test_case_insensitive_and_deterministic(self):
        upper = heuristic_classify("SUPPOSE THE PUMP STOPS, WHAT HAPPENS?")
        lower = heuristic_classify("suppose the pump stops, what happens?")
        assert upper is lower is QuestionClass.COMPLICATED

    def test_ties_resolve_straight(self):
        # both cue families fire -> Straight wins
        assert heuristic_classify("If it rains, how many nodes are left?") is (
            QuestionClass.STRAIGHT)

    def test_no_cues_defaults_straight(self):
        assert heuristic_classify("What does the final node say?") is (
            QuestionClass.STRAIGHT)

    def test_desk_set_agreement_at_least_80_percent(self):
        rows = load_desk_set()
        assert len(rows) == 40
        hits = sum(1 for question, gold in rows
                   if heuristic_classify(question) is type_to_class(gold))
        assert hits / len(rows) >= 0.80


class TestClassify:
    def test_scripted_class_line(self):
        result = classify("anything?", reply_gateway(lambda prompt: "CLASS: Complicated"), "m")
        assert result is QuestionClass.COMPLICATED

    def test_prompt_discloses_classes_and_types(self):
        seen = {}

        def reply(prompt):
            seen["prompt"] = prompt
            return "CLASS: Straight"

        classify("How many nodes?", reply_gateway(reply), "m")
        prompt = seen["prompt"]
        for needle in ("Straight", "Complicated", "Fact retrieval",
                       "Applied scenario", "Flow reference", "Topology",
                       "How many nodes?"):
            assert needle in prompt

    def test_retry_then_error(self):
        attempts = []

        def mute(prompt):
            attempts.append(prompt)
            return "no class here"

        with pytest.raises(ClassificationError):
            classify("question?", reply_gateway(mute), "m")
        assert len(attempts) == 2
        assert "could not be parsed" in attempts[1]

    def test_retry_can_succeed(self):
        responses = iter(["garbled", "CLASS: Straight"])
        gateway = reply_gateway(lambda p: next(responses))
        assert classify("q?", gateway, "m") is QuestionClass.STRAIGHT

    def test_empty_question_rejected(self):
        with pytest.raises(ValueError):
            classify("  ", reply_gateway(lambda p: "CLASS: Straight"), "m")


class TestRouters:
    def test_oracle_router_follows_gold_types(self):
        router = make_router("oracle")
        for question, gold in load_desk_set():
            assert router(Question(question, gold)) is type_to_class(gold)

    def test_oracle_router_requires_gold_type(self):
        with pytest.raises(ValueError):
            make_router("oracle")(Question("q?"))

    def test_llm_router_over_mock_gateway(self):
        gateway = ChatGateway(mock_backend([("CLASS", "CLASS: Complicated")]))
        router = make_router("llm", gateway, "router")
        assert router(Question("whatever?")) is QuestionClass.COMPLICATED

    def test_heuristic_router_matches_function(self):
        router = make_router("heuristic")
        for question, _ in load_desk_set():
            assert router(Question(question)) is heuristic_classify(question)


class TestMakeRouter:
    @pytest.mark.parametrize("kind, expected", [
        ("always-shallow", QuestionClass.STRAIGHT),
        ("always-deep", QuestionClass.COMPLICATED),
    ])
    def test_fixed_routers_ignore_the_question(self, kind, expected):
        router = make_router(kind)
        for question, gold in load_desk_set():
            assert router(Question(question, gold)) is expected

    def test_every_route_mode_builds_a_router(self):
        gateway = ChatGateway(mock_backend([("CLASS", "CLASS: Straight")]))
        for kind in ROUTE_MODES:
            router = make_router(kind, gateway, "router")
            assert router(Question("How many nodes?", QuestionType.TOPOLOGY)) in QuestionClass

    @pytest.mark.parametrize("kind", TEXT_ROUTE_MODES)
    def test_text_route_modes_classify_without_a_gold_type(self, kind):
        # what `ask` and `route` offer: routers that read the question only
        assert kind in ROUTE_MODES
        gateway = ChatGateway(mock_backend([("CLASS", "CLASS: Complicated")]))
        router = make_router(kind, gateway, "router")
        assert router(Question("If it rains, what should I do?")) is (
            QuestionClass.COMPLICATED)

    @pytest.mark.parametrize("kind,gateway,message", [
        ("always-sideways", None, "^unknown router 'always-sideways'$"),
        ("llm", None, "^the llm router needs a gateway$"),
        ("llm", ChatGateway(mock_backend([])), "^the llm router needs a model$")])
    def test_unknown_kind_or_llm_without_a_gateway_rejected(self, kind, gateway, message):
        with pytest.raises(ValueError, match=message):
            make_router(kind, gateway)
