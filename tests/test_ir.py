"""Core representation: validation, topology counts, and upgrading."""

import copy
import inspect
import pickle
import random
from dataclasses import MISSING, FrozenInstanceError, field, fields, make_dataclass, replace

import pytest
from hypothesis import given, strategies as st

from flowsra.ir import (
    NO,
    RELATION_DEFINITIONS_BLOCK,
    UNLABELED,
    YES,
    Edge,
    EdgeLabel,
    FlowGraph,
    GraphValidationError,
    Node,
    NodeKind,
    RelationTriple,
    RelationType,
    TopologyStats,
    UpgradedGraph,
    Violation,
    _slot_init,
    topology_stats,
    validate,
)

from flowsra.emitting import emit
from flowsra.parsing import Dialect
from flowsra.relations import upgrade_graph

from gen import lookup_outcome, rand_flow_graph, upgrade_by_edge


def n(node_id, kind=NodeKind.PROCESS, text="work"):
    return Node(node_id, kind, text)


@st.composite
def flow_graphs(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return rand_flow_graph(random.Random(seed))


class TestValidate:
    def test_empty_graph_is_valid(self):
        assert validate(FlowGraph()) == []

    def test_dangling_edge_names_the_unknown_id(self):
        graph = FlowGraph(nodes=(n("A"),), edges=(Edge("A", "X"),))
        violations = validate(graph)
        assert len(violations) == 1
        assert violations[0].invariant == "dangling-edge"
        assert violations[0].subject == "X"

    def test_well_formed_three_node_graph(self):
        # hand-built: every invariant checked by construction
        graph = FlowGraph(
            nodes=(n("A", NodeKind.START, "Start"), n("B"), n("C", NodeKind.END, "End")),
            edges=(Edge("A", "B"), Edge("B", "C", YES)),
        )
        assert validate(graph) == []

    def test_duplicate_node_id(self):
        graph = FlowGraph(nodes=(n("A"), n("A")))
        assert [v.invariant for v in validate(graph)] == ["unique-node-id"]

    def test_empty_text_allowed_only_on_terminals(self):
        ok = FlowGraph(nodes=(Node("S", NodeKind.START, ""), Node("E", NodeKind.END, "")))
        assert validate(ok) == []
        bad = FlowGraph(nodes=(Node("P", NodeKind.PROCESS, ""),))
        assert [v.invariant for v in validate(bad)] == ["node-text-required"]

    @pytest.mark.parametrize("text", [" ", "\t", "\u00a0", "\u3000"])
    def test_blank_text_is_empty_text(self, text):
        blank = FlowGraph(
            nodes=(Node("S", NodeKind.START, " "), Node("P", NodeKind.PROCESS, text)),
            edges=(Edge("S", "P"),))
        assert validate(blank) == [Violation(
            "node-text-required", "P", "Process node 'P' has empty text")]
        for dialect in Dialect:
            with pytest.raises(GraphValidationError):
                emit(blank, dialect)

    def test_duplicate_edge_rejected_not_deduplicated(self):
        graph = FlowGraph(
            nodes=(n("A"), n("B")),
            edges=(Edge("A", "B", YES), Edge("A", "B", YES)),
        )
        assert [v.invariant for v in validate(graph)] == ["duplicate-edge"]
        # same endpoints under a different label is a distinct edge
        ok = FlowGraph(
            nodes=(n("A"), n("B")),
            edges=(Edge("A", "B", YES), Edge("A", "B", NO)),
        )
        assert validate(ok) == []

    @pytest.mark.parametrize("text", ["", " yes", "no", "YES", " retry", "retry\n"])
    def test_a_label_not_in_normal_form_fails(self, text):
        """A hand-built label must be what ``from_text`` reads its text as,
        so no emitter writes text that reads back as another graph."""
        graph = FlowGraph((n("A"), n("B")), (Edge("A", "B", EdgeLabel(text)),))
        assert [(v.invariant, v.subject) for v in validate(graph)] == [
            ("label-normal-form", "A->B")]
        for dialect in Dialect:
            with pytest.raises(GraphValidationError):
                emit(graph, dialect)

    @given(st.lists(st.sampled_from(["a", "yes", "No", " ", "\t", "\n", "\u3000"]),
                    max_size=4).map("".join))
    def test_a_label_validates_exactly_when_it_is_in_normal_form(self, text):
        normal = EdgeLabel.from_text(text)
        for label in (normal, EdgeLabel(text)):
            graph = FlowGraph((n("A"), n("B")), (Edge("A", "B", label),))
            assert (validate(graph) == []) == (label == normal)

    @given(flow_graphs())
    def test_validate_is_idempotent(self, graph):
        assert validate(graph) == validate(graph)


_IDS = ["A", "B", "C", "D"]
_ANY_IDS = _IDS + ["X"]  # X is never declared, so its edges dangle


@st.composite
def messy_graphs(draw):
    """Small graphs with duplicate ids, duplicate edges and dangling edges."""
    nodes = draw(st.lists(st.builds(
        Node, st.sampled_from(_IDS), st.sampled_from(list(NodeKind)),
        st.sampled_from(["", "one", "two"])), max_size=6))
    edges = draw(st.lists(st.builds(
        Edge, st.sampled_from(_ANY_IDS), st.sampled_from(_ANY_IDS),
        st.sampled_from([YES, NO, UNLABELED, EdgeLabel("t")])), max_size=10))
    return FlowGraph(nodes=tuple(nodes), edges=tuple(edges))


class TestIndex:
    """Values derived once per graph agree with a fresh graph's."""

    @given(messy_graphs())
    def test_validate_equals_a_fresh_graphs(self, graph):
        expected = validate(FlowGraph(graph.nodes, graph.edges, graph.title))
        assert validate(graph) == expected
        assert validate(graph) == expected

    def test_derived_values_are_not_fields(self):
        graph = FlowGraph(nodes=(n("A"),), edges=(Edge("A", "A"),))
        twin = FlowGraph(nodes=(n("A"),), edges=(Edge("A", "A"),))
        validate(graph)
        assert graph == twin and hash(graph) == hash(twin)
        assert repr(graph) == repr(twin)


class TestTopologyStats:
    def test_empty(self):
        assert topology_stats(FlowGraph()) == TopologyStats(0, 0, 0, 0)

    def test_single_start_node(self):
        graph = FlowGraph(nodes=(Node("S", NodeKind.START, ""),))
        assert topology_stats(graph) == TopologyStats(1, 0, 0, 0)

    def test_hand_built_five_node_graph(self):
        # One decision fanning out two edges; counts enumerated by hand.
        graph = FlowGraph(
            nodes=(
                Node("S", NodeKind.START, "Start"),
                n("A", text="step a"),
                Node("D", NodeKind.DECISION, "ok?"),
                n("B", text="step b"),
                Node("E", NodeKind.END, "End"),
            ),
            edges=(
                Edge("S", "A"),
                Edge("A", "D"),
                Edge("D", "B", YES),
                Edge("D", "E", NO),
            ),
        )
        stats = topology_stats(graph)
        assert stats == TopologyStats(node_count=5, edge_count=4,
                                      decision_count=1, max_out_degree=2)

    def test_invalid_graph_raises(self):
        graph = FlowGraph(nodes=(n("A"),), edges=(Edge("A", "X"),))
        with pytest.raises(GraphValidationError):
            topology_stats(graph)

    @given(flow_graphs())
    def test_node_count_matches_collection_length(self, graph):
        assert topology_stats(graph).node_count == len(graph.nodes)


class TestUpgrade:
    def test_zero_edges(self):
        graph = FlowGraph(nodes=(n("A"),))
        upgraded = upgrade_by_edge(graph, {})
        assert upgraded.triples == ()
        assert upgraded.base is graph

    def test_two_edges_in_edge_order(self):
        graph = FlowGraph(
            nodes=(n("A"), n("B"), n("C")),
            edges=(Edge("A", "B"), Edge("B", "C")),
        )
        upgraded = upgrade_by_edge(graph, {
            Edge("B", "C"): RelationType.CAUSALITY,
            Edge("A", "B"): RelationType.SEQUENTIALITY,
        })
        assert [(t.src, t.relation, t.dst) for t in upgraded.triples] == [
            ("A", RelationType.SEQUENTIALITY, "B"),
            ("B", RelationType.CAUSALITY, "C"),
        ]

    AB_BC = FlowGraph(
        nodes=(n("A"), n("B"), n("C")),
        edges=(Edge("A", "B"), Edge("B", "C")),
    )
    SEQUENCE = (RelationType.SEQUENTIALITY, None)
    CAUSE = (RelationType.CAUSALITY, "why")

    def test_upgraded_graph_refuses_a_relation_count_other_than_the_edge_count(self):
        class OneTooMany:
            def recognize(self, graph, dialect):
                return [TestUpgrade.CAUSE] * (len(graph.edges) + 1)

        assert UpgradedGraph(self.AB_BC, [self.SEQUENCE, self.CAUSE]).relations == (
            self.SEQUENCE, self.CAUSE)
        with pytest.raises(ValueError, match="^upgraded graph has 1 relations for 2 edges$"):
            UpgradedGraph(self.AB_BC, (self.SEQUENCE,))
        # a backend's extra result is refused, not dropped
        with pytest.raises(ValueError, match="^upgraded graph has 3 relations for 2 edges$"):
            upgrade_graph(self.AB_BC, OneTooMany())

    def test_triples_are_the_relations_joined_to_their_edges_once(self):
        upgraded = UpgradedGraph(self.AB_BC, (self.SEQUENCE, self.CAUSE))
        assert upgraded.triples == (
            RelationTriple("A", RelationType.SEQUENTIALITY, "B"),
            RelationTriple("B", RelationType.CAUSALITY, "C", "why"))
        assert upgraded.triples is upgraded.triples

    def test_upgraded_graph_refuses_an_invalid_base(self):
        graph = FlowGraph(nodes=(n("A"),), edges=(Edge("A", "B"),))
        with pytest.raises(GraphValidationError, match="dangling-edge"):
            UpgradedGraph(graph, (self.SEQUENCE,))

    @given(flow_graphs())
    def test_bijection_and_base_untouched(self, graph):
        relations = {edge: RelationType.SEQUENTIALITY for edge in graph.edges}
        upgraded = upgrade_by_edge(graph, relations)
        assert len(upgraded.triples) == len(graph.edges)
        assert upgraded.base == graph


# each value class whose __init__ stores through slot descriptors, with
# values for every field and, for the first field, a second value
_VALUES = {
    Node: ((("id", "a"), ("kind", NodeKind.DECISION), ("text", "Ready?")), "b"),
    Edge: ((("src", "a"), ("dst", "b"), ("label", EdgeLabel("retry"))), "c"),
}


def reference(cls, values):
    """An instance built as the frozen dataclass's own ``__init__`` builds
    one: ``object.__setattr__`` per field, in field order."""
    obj = object.__new__(cls)
    for name, value in values:
        object.__setattr__(obj, name, value)
    return obj


@pytest.mark.parametrize("cls", list(_VALUES), ids=lambda cls: cls.__name__)
class TestValueConstructors:
    """``Node`` and ``Edge`` construct through slot descriptors; they must
    behave as the dataclasses they are."""

    def test_parameters_are_the_fields(self, cls):
        params = inspect.signature(cls).parameters.values()
        assert [(p.name, MISSING if p.default is p.empty else p.default, p.kind)
                for p in params] == [
            (f.name, f.default, inspect.Parameter.POSITIONAL_OR_KEYWORD) for f in fields(cls)]

    def test_instances_stay_frozen(self, cls):
        values, other = _VALUES[cls]
        obj = cls(*(value for _, value in values))
        assert not hasattr(obj, "__dict__")
        for name, _ in values:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, other)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, name)

    def test_instances_match_the_reference(self, cls):
        values, other = _VALUES[cls]
        expected = reference(cls, values)
        for built in (cls(*(value for _, value in values)), cls(**dict(values)),
                      copy.copy(expected), pickle.loads(pickle.dumps(expected))):
            assert built == expected
            assert hash(built) == hash(expected)
            assert repr(built) == repr(expected)
            assert copy.copy(built) == expected
            assert pickle.loads(pickle.dumps(built)) == expected
            first = values[0][0]
            assert replace(built, **{first: other}) == reference(
                cls, ((first, other),) + values[1:])

    def test_defaults_match_the_reference(self, cls):
        values, _ = _VALUES[cls]
        last = fields(cls)[-1]
        built = cls(*(value for _, value in values[:-1]))
        assert built == reference(cls, values[:-1] + ((last.name, last.default),))
        assert getattr(built, last.name) is last.default


@pytest.mark.parametrize("spec", [{"default_factory": list}, {"default": 0, "init": False},
                                  {"default": 0, "kw_only": True}])
def test_slot_init_refuses_fields_it_does_not_generate(spec):
    with pytest.raises(TypeError, match="not a plain field"):
        _slot_init(make_dataclass("C", [("x", int, field(**spec))], frozen=True, slots=True))


# a tag with each letter in either case, or as U+017F (long s) where it is
# an "s", which casefolds to "s" but lowercases to itself; padded with whitespace
_tag_spellings = st.builds(
    lambda pad, letters: pad + "".join(letters) + pad,
    st.sampled_from(["", " ", "\t\n"]),
    st.sampled_from([r.value for r in RelationType]).flatmap(lambda tag: st.tuples(*(
        st.sampled_from([c.lower(), c.upper()] + ["\u017f"] * (c.lower() == "s"))
        for c in tag))))


class TestRelationType:
    def test_exactly_four_variants(self):
        assert [r.value for r in RelationType] == [
            "Conditionality", "Causality", "Instantiation", "Sequentiality"]

    def test_each_variant_carries_a_definition(self):
        for relation in RelationType:
            assert relation.definition.startswith("Node ")
            assert relation.definition.endswith(".")
        block = RELATION_DEFINITIONS_BLOCK
        for relation in RelationType:
            assert block.count(relation.definition) == 1

    def test_from_name_is_case_insensitive(self):
        assert RelationType.from_name("causality") is RelationType.CAUSALITY
        with pytest.raises(ValueError):
            RelationType.from_name("Contrast")

    @given(st.text() | _tag_spellings)
    def test_from_name_agrees_with_the_member_loop(self, name):
        assert lookup_outcome(RelationType.from_name, name) == lookup_outcome(
            referee_from_name, name)


def referee_from_name(name):
    """``RelationType.from_name`` as a loop over the members."""
    low = name.strip().casefold()
    for member in RelationType:
        if member.value.casefold() == low:
            return member
    raise ValueError(f"unknown relation tag: {name!r}")


class TestEdgeLabel:
    def test_case_normalization(self):
        assert EdgeLabel.from_text("yes") == YES
        assert EdgeLabel.from_text("YES") == YES
        assert EdgeLabel.from_text("No") == NO
        assert EdgeLabel.from_text("") == UNLABELED
        assert EdgeLabel.from_text(None) == UNLABELED
        assert EdgeLabel.from_text("retry").render() == "retry"

    def test_a_label_is_its_text(self):
        assert [f.name for f in fields(EdgeLabel)] == ["text"]
        assert (YES.text, NO.text, UNLABELED.text) == ("Yes", "No", None)
        assert EdgeLabel("Yes") == YES and EdgeLabel() == UNLABELED
        assert str(UNLABELED) == "" and str(EdgeLabel("retry")) == "retry"

    def test_yes_no_and_unlabeled_are_the_shared_values(self):
        for raw, shared in (("yes", YES), (" No ", NO), ("", UNLABELED), (None, UNLABELED)):
            assert EdgeLabel.from_text(raw) is shared
