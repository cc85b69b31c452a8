"""Relation recognition: prompts, response parsing, heuristic, upgrading."""

import itertools
import random
import re
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsra import emitting
from flowsra import gateway as gateway_mod
from flowsra.emitting import emit
from flowsra.gateway import CacheError, ChatGateway, PermanentError, PromptKind
from flowsra.ir import (
    NO,
    UNLABELED,
    YES,
    Edge,
    EdgeLabel,
    FlowGraph,
    Node,
    NodeKind,
    RelationType,
)
from flowsra.parsing import Dialect
from flowsra.relations import (
    RELATION_BACKENDS,
    HeuristicRelationBackend,
    LlmRelationBackend,
    UpgradeError,
    make_relation_backend,
    heuristic_recognize,
    parse_relation_response,
    relation_request,
    upgrade_graph,
)

from gen import mock_backend, rand_flow_graph


def node(text, kind=NodeKind.PROCESS, node_id="x"):
    return Node(node_id, kind, text)


def context_doc():
    graph = FlowGraph(nodes=(Node("A", NodeKind.PROCESS, "one"),
                             Node("B", NodeKind.PROCESS, "two")),
                      edges=(Edge("A", "B"),))
    return emit(graph, Dialect.MERMAID)


def relation_prompt(src, dst, label, context):
    return relation_request("recognizer", src, dst, label, context).messages[-1].content


class TestRelationRequest:
    def test_is_one_user_message_with_the_chart_as_its_head(self):
        doc = context_doc()
        request = relation_request("recognizer", node("a"), node("b"), UNLABELED, doc)
        (message,) = request.messages
        assert (request.kind, request.max_tokens) == (PromptKind.RELATION, 512)
        assert message.head == message.content[:message.content.index("Node A (source): a")]
        assert message.head.endswith(doc.text.rstrip("\n") + "\n\n")

    def test_contains_all_four_definitions(self):
        prompt = relation_prompt(node("a"), node("b"), UNLABELED, context_doc())
        for relation in RelationType:
            assert relation.definition in prompt
        assert "RELATION:" in prompt

    def test_yes_label_mentions_branch_polarity(self):
        prompt = relation_prompt(node("a"), node("b"), YES, context_doc())
        assert "Yes" in prompt
        assert "condition holds" in prompt

    def test_embeds_the_node_pair(self):
        prompt = relation_prompt(
            node("Obtain a new photograph"), node("Selecting the Photograph"),
            UNLABELED, context_doc())
        assert "Obtain a new photograph" in prompt
        assert "Selecting the Photograph" in prompt

    def test_embeds_the_chart_context(self):
        doc = context_doc()
        prompt = relation_prompt(node("a"), node("b"), UNLABELED, doc)
        assert doc.text.rstrip("\n") in prompt


class TestParseRelationResponse:
    def test_plain_final_line(self):
        relation, rationale = parse_relation_response(
            "Some analysis here.\nRELATION: Causality")
        assert relation is RelationType.CAUSALITY
        assert rationale == "Some analysis here."

    def test_out_of_taxonomy_tag_is_rejected(self):
        assert parse_relation_response("RELATION: Contrast") is None

    def test_missing_tag_is_rejected(self):
        assert parse_relation_response("no tag anywhere") is None

    @pytest.mark.parametrize("text,expected", [
        ("relation: sequentiality.", RelationType.SEQUENTIALITY),
        ("**RELATION: Conditionality**", RelationType.CONDITIONALITY),
        ("`RELATION - Instantiation`", RelationType.INSTANTIATION),
        ("thoughts\n> RELATION:   causality  ", RelationType.CAUSALITY),
        ("RELATION: Causality\nwait no\nRELATION: Sequentiality",
         RelationType.SEQUENTIALITY),
    ])
    def test_tolerant_extraction_corpus(self, text, expected):
        relation, _ = parse_relation_response(text)
        assert relation is expected


class TestHeuristicRecognize:
    def test_conditionality_from_decision_source(self):
        relation, _ = heuristic_recognize(
            node("Finish your homework?", NodeKind.DECISION), node("Break"),
            YES)
        assert relation is RelationType.CONDITIONALITY

    def test_conditionality_from_yes_no_label_alone(self):
        relation, _ = heuristic_recognize(node("step"), node("next"),
                                          NO)
        assert relation is RelationType.CONDITIONALITY

    def test_instantiation_from_category_list(self):
        relation, _ = heuristic_recognize(
            node("Citrus Fruits"), node("Orange and Grapefruit"),
            UNLABELED)
        assert relation is RelationType.INSTANTIATION

    def test_instantiation_from_cue_words(self):
        relation, _ = heuristic_recognize(
            node("Pick a tool"), node("for example a hammer"), UNLABELED)
        assert relation is RelationType.INSTANTIATION

    def test_causality_from_acquisition_then_selection(self):
        relation, _ = heuristic_recognize(
            node("Obtain a new photograph"), node("Selecting the Photograph"),
            UNLABELED)
        assert relation is RelationType.CAUSALITY

    def test_causality_from_causal_cue(self):
        relation, _ = heuristic_recognize(
            node("Heating causes expansion"), node("Measure the rod"),
            UNLABELED)
        assert relation is RelationType.CAUSALITY

    def test_sequentiality_default(self):
        relation, _ = heuristic_recognize(
            node("Mix the flour and water"), node("Knead the mixture into a dough"),
            UNLABELED)
        assert relation is RelationType.SEQUENTIALITY

    def test_rule_order_decision_beats_instantiation(self):
        relation, _ = heuristic_recognize(
            node("Citrus Fruits", NodeKind.DECISION),
            node("Orange and Grapefruit"), UNLABELED)
        assert relation is RelationType.CONDITIONALITY


def three_edge_graph():
    return FlowGraph(
        nodes=(
            Node("S", NodeKind.START, "Start"),
            Node("A", NodeKind.PROCESS, "Mix the flour and water"),
            Node("D", NodeKind.DECISION, "Smooth?"),
            Node("E", NodeKind.END, "End"),
        ),
        edges=(Edge("S", "A"), Edge("A", "D"), Edge("D", "E", YES)),
    )


def chain_graph(steps):
    """Start, steps P0..P{steps-1} in a chain, End."""
    nodes = ([Node("S", NodeKind.START, "Start")]
             + [Node(f"P{i}", NodeKind.PROCESS, f"Step {i}") for i in range(steps)]
             + [Node("E", NodeKind.END, "End")])
    ids = [n.id for n in nodes]
    return FlowGraph(nodes=tuple(nodes),
                     edges=tuple(Edge(a, b) for a, b in zip(ids, ids[1:])))


class SlowFirstTransport:
    """Answers a relation prompt on a chain_graph from its edge's index,
    sleeping longer for earlier edges so that concurrent calls finish in
    reverse edge order; records the peak number of calls in flight."""

    TAGS = (RelationType.SEQUENTIALITY, RelationType.CAUSALITY,
            RelationType.INSTANTIATION)

    def __init__(self):
        self.peak = 0
        self._in_flight = 0
        self._lock = threading.Lock()

    @staticmethod
    def edge_index(request):
        m = re.search(r"Node A \(source\): (?:Step (\d+)|Start)", request.rendered())
        return int(m.group(1)) + 1 if m.group(1) else 0

    def __call__(self, request):
        index = self.edge_index(request)
        with self._lock:
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
        time.sleep(0.001 * (14 - index))
        with self._lock:
            self._in_flight -= 1
        tag = self.TAGS[index % 3].value
        return {"choices": [{"message": {"content": f"RELATION: {tag}"}}]}


class TestMakeRelationBackend:
    @pytest.mark.parametrize("kind", RELATION_BACKENDS)
    def test_every_backend_upgrades_every_edge(self, kind):
        graph = three_edge_graph()
        gateway = ChatGateway(mock_backend([("", "analysis\nRELATION: Sequentiality")]))
        ug = upgrade_graph(graph, make_relation_backend(kind, gateway, "recognizer"))
        assert len(ug.triples) == len(graph.edges)
        assert all(isinstance(triple.relation, RelationType) for triple in ug.triples)

    @pytest.mark.parametrize("kind,gateway,message", [
        ("oracle", None, "^unknown relation backend 'oracle'$"),
        ("llm", None, "^the llm relation backend needs a gateway$"),
        ("llm", ChatGateway(mock_backend([])), "^the llm relation backend needs a model$")])
    def test_unknown_kind_or_llm_without_a_gateway_rejected(self, kind, gateway, message):
        with pytest.raises(ValueError, match=message):
            make_relation_backend(kind, gateway)


class TestUpgradeGraph:
    def test_zero_edges_zero_calls(self):
        transport = mock_backend([("", "RELATION: Sequentiality")])
        backend = LlmRelationBackend(ChatGateway(transport), model="recognizer")
        ug = upgrade_graph(FlowGraph(nodes=(Node("S", NodeKind.START, ""),)), backend)
        assert ug.triples == ()
        assert transport.calls == []

    def test_heuristic_backend_matches_per_edge_oracle(self):
        graph = three_edge_graph()
        ug = upgrade_graph(graph, HeuristicRelationBackend())
        by_id = {n.id: n for n in graph.nodes}
        for edge, triple in zip(graph.edges, ug.triples):
            expected, _ = heuristic_recognize(by_id[edge.src], by_id[edge.dst],
                                              edge.label)
            assert triple.relation is expected

    def test_scripted_mock_backend_matches_script(self):
        graph = three_edge_graph()
        transport = mock_backend([
            ("Node A (source): Start", "RELATION: Sequentiality"),
            ("Node A (source): Mix the flour and water", "RELATION: Causality"),
            ("Node A (source): Smooth?", "RELATION: Conditionality"),
        ])
        backend = LlmRelationBackend(ChatGateway(transport), model="recognizer")
        ug = upgrade_graph(graph, backend)
        assert [t.relation for t in ug.triples] == [
            RelationType.SEQUENTIALITY,
            RelationType.CAUSALITY,
            RelationType.CONDITIONALITY,
        ]
        assert ug.fallback_count() == 0

    def test_garbage_responses_fall_back_without_leaking(self):
        graph = three_edge_graph()
        transport = mock_backend([
            ("Node A (source): Start", "RELATION: Contrast"),  # out of taxonomy
            ("", "RELATION: Sequentiality"),
        ])
        backend = LlmRelationBackend(ChatGateway(transport), model="recognizer")
        ug = upgrade_graph(graph, backend)
        assert len(ug.triples) == 3
        assert all(t.relation in RelationType for t in ug.triples)
        assert ug.fallback_count() == 1
        assert ug.triples[0].rationale.startswith("fallback:")
        # retry happened before falling back: initial+retry for edge 1, one each after
        assert len(transport.calls) == 4

    def test_backend_exception_names_the_edge(self):
        def transport(request):
            if "Node A (source): Start" in request.rendered():
                raise PermanentError("boom")
            return {"choices": [{"message": {"content": "RELATION: Sequentiality"}}]}

        backend = LlmRelationBackend(ChatGateway(transport), model="recognizer")
        with pytest.raises(UpgradeError) as excinfo:
            upgrade_graph(three_edge_graph(), backend)
        assert "S -> A" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, PermanentError)

    def test_a_gateway_attribute_on_the_backend_is_not_read(self):
        class ChartLevel:
            gateway = "not a ChatGateway"

            def recognize(self, graph, dialect):
                return HeuristicRelationBackend().recognize(graph, dialect)

        graph = three_edge_graph()
        assert (upgrade_graph(graph, ChartLevel())
                == upgrade_graph(graph, HeuristicRelationBackend()))

    def test_totality_on_random_graphs(self):
        for seed in range(25):
            graph = rand_flow_graph(random.Random(seed))
            ug = upgrade_graph(graph, HeuristicRelationBackend())
            assert len(ug.triples) == len(graph.edges)

    def test_parallel_assembly_is_edge_ordered(self):
        graph = chain_graph(12)
        sequential = SlowFirstTransport()
        parallel = SlowFirstTransport()
        one = upgrade_graph(graph, LlmRelationBackend(
            ChatGateway(sequential, parallelism=1), model="recognizer"))
        four = upgrade_graph(graph, LlmRelationBackend(
            ChatGateway(parallel, parallelism=4), model="recognizer"))
        assert one.triples == four.triples
        assert [t.relation for t in four.triples] == [
            SlowFirstTransport.TAGS[i % 3] for i in range(len(graph.edges))]
        assert sequential.peak == 1
        assert 1 < parallel.peak <= 4

    def test_first_failing_edge_in_edge_order_aborts(self):
        # edge 7 fails at once, edge 3 only after a wait
        def transport(request):
            index = SlowFirstTransport.edge_index(request)
            if index in (3, 7):
                time.sleep(0.03 if index == 3 else 0.0)
                raise PermanentError(f"HTTP 400 for edge {index}")
            return SlowFirstTransport()(request)

        backend = LlmRelationBackend(ChatGateway(transport, parallelism=8),
                                     model="recognizer")
        with pytest.raises(UpgradeError) as excinfo:
            upgrade_graph(chain_graph(12), backend)
        assert excinfo.value.edge == Edge("P2", "P3")

    def test_cache_error_passes_through_unwrapped(self, tmp_path):
        def transport(request):
            return {"choices": [{"message": {"content": "RELATION: Sequentiality"}}]}

        backend = LlmRelationBackend(ChatGateway(transport, cache_dir=tmp_path),
                                     model="recognizer")
        upgrade_graph(three_edge_graph(), backend)
        entry = sorted(tmp_path.glob("*.json"))[1]
        entry.unlink()
        entry.mkdir()  # a miss, whose reply then cannot be written
        with pytest.raises(CacheError, match=re.escape(str(entry))):
            upgrade_graph(three_edge_graph(), backend)

    def test_upgrading_never_alters_base_emission(self):
        for seed in range(10):
            graph = rand_flow_graph(random.Random(seed))
            before = emit(graph, Dialect.MERMAID).text
            ug = upgrade_graph(graph, HeuristicRelationBackend())
            after = emit(ug.base, Dialect.MERMAID).text
            assert before == after


# --- referee -----------------------------------------------------------------
# The rule cascade written plainly, as README states it: a substring test per
# cue, rule 3's words by ``re.findall``, and each whole-word regex searched
# whenever its rule is reached. ``heuristic_recognize`` must give the same
# relation and reason.

_REF_INSTANTIATION_CUES = ("e.g.", "such as", "for example", "for instance")
_REF_CAUSAL_CUES = ("causes", "results in", "leads to")
_REF_ACQUIRE = re.compile(r"\b(obtain|obtains|obtained|get|gets|got|acquire|acquires)\b",
                          re.IGNORECASE)
_REF_SELECT_OR_USE = re.compile(r"\b(select|selects|selecting|selection|use|uses|using|"
                                r"choose|chooses|choosing|chosen|pick|picks|picking)\b",
                                re.IGNORECASE)
_REF_LIST_SHAPE = re.compile(r",|\band\b|\bor\b", re.IGNORECASE)


def _ref_plural_category_heading_list(src_text, dst_text):
    words = re.findall(r"[A-Za-z']+", src_text)
    if not words or len(words) > 4:
        return False
    head = words[-1].lower()
    if not head.endswith("s") or head.endswith("ss"):
        return False
    return bool(_REF_LIST_SHAPE.search(dst_text))


def reference_recognize(src, dst, label):
    if src.kind is NodeKind.DECISION or label.text in ("Yes", "No"):
        return (RelationType.CONDITIONALITY,
                "source is a decision or the edge is a yes/no branch")
    dst_low = dst.text.lower()
    if any(cue in dst_low for cue in _REF_INSTANTIATION_CUES):
        return (RelationType.INSTANTIATION,
                "target text carries an instance-giving cue")
    if _ref_plural_category_heading_list(src.text, dst.text):
        return (RelationType.INSTANTIATION,
                "plural category followed by a list of instances")
    src_low = src.text.lower()
    if any(cue in src_low for cue in _REF_CAUSAL_CUES):
        return (RelationType.CAUSALITY, "source text carries a causal cue")
    if _REF_ACQUIRE.search(src.text) and _REF_SELECT_OR_USE.search(dst.text):
        return (RelationType.CAUSALITY,
                "acquisition step directly enables a selection/use step")
    return (RelationType.SEQUENTIALITY,
            "default: consecutive steps in chronological order")


# words that reach every rule of the cascade: cues, every acquire and
# select/use word, near misses (words that extend or cut one short), case
# variants, plural heads (with apostrophes), list shapes, and characters whose
# lowercase or word boundaries differ from ASCII's: U+017F (long s) matches
# "s" only under IGNORECASE, and "İ" lowercases to two characters, the second
# no letter, so a word after it starts a word only once lowercased. Then what
# the cascade's fast paths could get wrong: an acquire word's stem inside a
# longer word, U+0131 (dotless i), which matches "i" only under IGNORECASE,
# headings of two to five words split by digits, "-" or "_", and heads that
# are one "s", "'s", or end in two of "s" and "S"
_CASCADE_WORDS = [
    "e.g.", "E.G.", "e.g", "eg.", "e g.", "eXgX", "such as", "such-as", "SUCH AS",
    "for example", "For Instance", "causes", "CAUSES", "cause", "results in",
    "leads to", "obtain", "obtains", "OBTAINED", "get", "Gets", "got", "Acquire",
    "acquires", "select", "selects", "selecting", "selection", "use", "uses", "Using",
    "choose", "chooses", "choosing", "chosen", "pick", "picks", "picking",
    "acquired", "gotten", "getter", "acquirer", "obtaining", "user", "useful",
    "selections", "picked", "u\u017fe", "\u017felect", "\u0130use", "\u0130got",
    "Fruits", "Dogs'", "glass", "boxes", "it's", "Kid's Toys", "one two three cats",
    "and", "or", "ORANGE", "a, b", ",", " ", "İ", "\u212a", "ß", "é", "Ω", "\u0130s", "\n",
    "forget", "target", "begotten", "obtainable", "reacquire", "GOTO", "acqu\u0131re",
    "n600-0-4 boxes", "a_b cats", "x2 dogs", "a-b-c cats", "a1b2c3d4 dogs", "s", "'s", "BoSs",
    "bosS"]
_NODE_TEXT = (st.text(max_size=30)
              | st.lists(st.sampled_from(_CASCADE_WORDS) | st.text(max_size=4),
                         max_size=8).map(" ".join)
              | st.lists(st.sampled_from(_CASCADE_WORDS), max_size=6).map("".join))
_LABEL = (st.sampled_from([UNLABELED, YES, NO])
          | _NODE_TEXT.map(lambda text: EdgeLabel(text)))


class TestHeuristicReferee:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(NodeKind), _NODE_TEXT, st.sampled_from(NodeKind), _NODE_TEXT,
           _LABEL)
    def test_matches_the_referee(self, src_kind, src_text, dst_kind, dst_text, label):
        src, dst = Node("a", src_kind, src_text), Node("b", dst_kind, dst_text)
        assert heuristic_recognize(src, dst, label) == reference_recognize(src, dst, label)

    def test_every_pair_of_cascade_words(self):
        for src_text, dst_text in itertools.product(_CASCADE_WORDS, repeat=2):
            for kind, label in ((NodeKind.PROCESS, UNLABELED),
                                (NodeKind.PROCESS, EdgeLabel("and")),
                                (NodeKind.DECISION, UNLABELED),
                                (NodeKind.INPUT_OUTPUT, NO)):
                src, dst = Node("a", kind, src_text), Node("b", NodeKind.PROCESS, dst_text)
                assert (heuristic_recognize(src, dst, label)
                        == reference_recognize(src, dst, label)), (src_text, dst_text)

    @pytest.mark.parametrize("text", [
        "s" * 50_000, "'" * 50_000, "cats" + "-" * 50_000 + "dogs",
        "cats" + " 1" * 25_000 + " dogs", "a " * 25_000 + "cats"],
        ids=["s", "apostrophe", "dash", "digit", "words"])
    def test_50_kb_texts_are_recognized_in_linear_time(self, text):
        src = Node("a", NodeKind.PROCESS, text)
        for dst in (src, Node("b", NodeKind.PROCESS, "a, b")):
            started = time.perf_counter()
            got = heuristic_recognize(src, dst, UNLABELED)
            assert time.perf_counter() - started < 10.0
            assert got == reference_recognize(src, dst, UNLABELED)


class TestLazyContext:
    """The chart is rendered for a backend that reads it, once, and never for
    one that does not."""

    @pytest.mark.parametrize("dialect", list(Dialect))
    def test_heuristic_upgrade_renders_nothing(self, dialect):
        for seed in range(10):
            graph = rand_flow_graph(random.Random(seed), with_terminals=True)
            upgrade_graph(graph, HeuristicRelationBackend(), dialect=dialect)
            assert [key for key in graph._memo if key[0] == "emit"] == []

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_llm_upgrade_renders_once_and_sends_the_same_requests(self, monkeypatch,
                                                                  parallelism):
        graph = chain_graph(12)
        renders = []
        render = emitting._EMITTERS[Dialect.DOT]
        monkeypatch.setitem(emitting._EMITTERS, Dialect.DOT,
                            lambda g, upgraded: renders.append(g) or render(g, upgraded))
        transport = mock_backend([("", "RELATION: Sequentiality")])
        upgrade_graph(graph, LlmRelationBackend(
            ChatGateway(transport, parallelism=parallelism), model="recognizer"),
            dialect=Dialect.DOT)
        assert renders == [graph]
        # the prompts an eagerly rendered context gives
        by_id = {n.id: n for n in graph.nodes}
        context = emit(graph, Dialect.DOT)
        expected = sorted(relation_prompt(by_id[e.src], by_id[e.dst], e.label, context)
                          for e in graph.edges)
        assert sorted(req.messages[-1].content for req in transport.calls) == expected

    def test_backend_that_reads_no_context_leaves_it_unrendered(self):
        dialects = []

        class Spy:
            def recognize(self, graph, dialect):
                dialects.append(dialect)
                return [(RelationType.SEQUENTIALITY, "")] * len(graph.edges)

        graph = three_edge_graph()
        upgrade_graph(graph, Spy(), dialect=Dialect.DOT)
        assert dialects == [Dialect.DOT]
        assert ("emit", Dialect.DOT) not in graph._memo

    def test_chart_without_a_rendering_passes_through_unwrapped(self):
        # PlantUML has no rendering for a decision with one branch
        transport = mock_backend([("", "RELATION: Sequentiality")])
        backend = LlmRelationBackend(ChatGateway(transport), model="recognizer")
        with pytest.raises(emitting.EmitError, match="only binary decisions"):
            upgrade_graph(three_edge_graph(), backend, dialect=Dialect.PLANTUML)
        assert transport.calls == []


class TestKeyEscapingGrowth:
    """An llm upgrade escapes the chart that its prompts share once for
    their cache keys, so what it escapes grows with the chart's size, not
    with its size times its edges."""

    def test_escaped_text_grows_linearly_with_the_chart(self, monkeypatch):
        lengths = []
        encode = gateway_mod._encode_str
        monkeypatch.setattr(gateway_mod, "_encode_str",
                            lambda text: lengths.append(len(text)) or encode(text))
        escaped = {}
        for nodes in (40, 160):
            graph = rand_flow_graph(random.Random(nodes), with_terminals=True, middle=nodes - 2)
            transport = mock_backend([("", "RELATION: Sequentiality")])
            gateway_mod._head_state.cache_clear()  # as a new process starts
            lengths.clear()
            upgrade_graph(graph, LlmRelationBackend(ChatGateway(transport), model="recognizer"))
            assert len(transport.calls) == len(graph.edges) > len(graph.nodes) >= nodes
            escaped[nodes] = sum(lengths)
        # 13.7 when every key escaped the whole chart again
        assert escaped[160] < 6 * escaped[40], escaped
