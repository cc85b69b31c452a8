"""Core representation: validation, topology counts, and upgrading."""

import random

import pytest
from hypothesis import given, strategies as st

from flowsra.ir import (
    NO,
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
    TotalityError,
    TopologyStats,
    UpgradedGraph,
    relation_definitions_block,
    topology_stats,
    upgrade,
    validate,
)

from gen import rand_flow_graph


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
            edges=(Edge("A", "B"), Edge("B", "C", EdgeLabel.yes())),
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

    def test_duplicate_edge_rejected_not_deduplicated(self):
        graph = FlowGraph(
            nodes=(n("A"), n("B")),
            edges=(Edge("A", "B", EdgeLabel.yes()), Edge("A", "B", EdgeLabel.yes())),
        )
        assert [v.invariant for v in validate(graph)] == ["duplicate-edge"]
        # same endpoints under a different label is a distinct edge
        ok = FlowGraph(
            nodes=(n("A"), n("B")),
            edges=(Edge("A", "B", EdgeLabel.yes()), Edge("A", "B", EdgeLabel.no())),
        )
        assert validate(ok) == []

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
        st.sampled_from([YES, NO, UNLABELED, EdgeLabel.other("t")])), max_size=10))
    return FlowGraph(nodes=tuple(nodes), edges=tuple(edges))


class TestIndex:
    """node/out_edges/in_edges agree with their linear-scan definitions."""

    @given(messy_graphs())
    def test_index_equals_linear_scans(self, graph):
        for node_id in _ANY_IDS + ["absent"]:
            first = next((node for node in graph.nodes if node.id == node_id), None)
            if first is None:
                with pytest.raises(KeyError):
                    graph.node(node_id)
            else:
                assert graph.node(node_id) is first
            assert graph.out_edges(node_id) == tuple(
                e for e in graph.edges if e.src == node_id)
            assert graph.in_edges(node_id) == tuple(
                e for e in graph.edges if e.dst == node_id)

    @given(messy_graphs())
    def test_validate_equals_a_fresh_graphs(self, graph):
        expected = validate(FlowGraph(graph.nodes, graph.edges, graph.title))
        assert validate(graph) == expected
        assert validate(graph) == expected

    def test_derived_values_are_not_fields(self):
        graph = FlowGraph(nodes=(n("A"),), edges=(Edge("A", "A"),))
        twin = FlowGraph(nodes=(n("A"),), edges=(Edge("A", "A"),))
        graph.out_edges("A")
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
                Edge("D", "B", EdgeLabel.yes()),
                Edge("D", "E", EdgeLabel.no()),
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
        upgraded = upgrade(graph, {})
        assert upgraded.triples == ()
        assert upgraded.base is graph

    def test_two_edges_in_edge_order(self):
        graph = FlowGraph(
            nodes=(n("A"), n("B"), n("C")),
            edges=(Edge("A", "B"), Edge("B", "C")),
        )
        upgraded = upgrade(graph, {
            Edge("B", "C"): RelationType.CAUSALITY,
            Edge("A", "B"): RelationType.SEQUENTIALITY,
        })
        assert [(t.src, t.relation, t.dst) for t in upgraded.triples] == [
            ("A", RelationType.SEQUENTIALITY, "B"),
            ("B", RelationType.CAUSALITY, "C"),
        ]

    def test_missing_edge_raises_totality_error(self):
        graph = FlowGraph(
            nodes=(n("A"), n("B"), n("C")),
            edges=(Edge("A", "B"), Edge("B", "C")),
        )
        with pytest.raises(TotalityError) as excinfo:
            upgrade(graph, {Edge("A", "B"): RelationType.SEQUENTIALITY})
        assert "B -> C" in str(excinfo.value)

    def test_extra_edge_raises_totality_error(self):
        graph = FlowGraph(nodes=(n("A"), n("B")), edges=(Edge("A", "B"),))
        with pytest.raises(TotalityError):
            upgrade(graph, {Edge("A", "B"): RelationType.SEQUENTIALITY,
                            Edge("B", "A"): RelationType.SEQUENTIALITY})

    def test_upgraded_graph_refuses_triples_that_do_not_match_its_edges(self):
        graph = FlowGraph(
            nodes=(n("A"), n("B"), n("C")),
            edges=(Edge("A", "B"), Edge("B", "C")),
        )
        ab = RelationTriple("A", RelationType.SEQUENTIALITY, "B")
        bc = RelationTriple("B", RelationType.CAUSALITY, "C")
        assert UpgradedGraph(graph, [ab, bc]).triples == (ab, bc)
        with pytest.raises(ValueError, match="^upgraded graph has 1 triples for 2 edges$"):
            UpgradedGraph(graph, (ab,))
        with pytest.raises(ValueError, match="^triple C->B does not match edge B->C$"):
            UpgradedGraph(graph, (ab, RelationTriple("C", RelationType.CAUSALITY, "B")))

    @given(flow_graphs())
    def test_bijection_and_base_untouched(self, graph):
        relations = {edge: RelationType.SEQUENTIALITY for edge in graph.edges}
        upgraded = upgrade(graph, relations)
        assert len(upgraded.triples) == len(graph.edges)
        assert upgraded.base == graph


class TestRelationType:
    def test_exactly_four_variants(self):
        assert [r.value for r in RelationType] == [
            "Conditionality", "Causality", "Instantiation", "Sequentiality"]

    def test_each_variant_carries_a_definition(self):
        for relation in RelationType:
            assert relation.definition.startswith("Node ")
            assert relation.definition.endswith(".")
        block = relation_definitions_block()
        for relation in RelationType:
            assert block.count(relation.definition) == 1

    def test_from_name_is_case_insensitive(self):
        assert RelationType.from_name("causality") is RelationType.CAUSALITY
        with pytest.raises(ValueError):
            RelationType.from_name("Contrast")


class TestEdgeLabel:
    def test_case_normalization(self):
        assert EdgeLabel.from_text("yes") == EdgeLabel.yes()
        assert EdgeLabel.from_text("YES") == EdgeLabel.yes()
        assert EdgeLabel.from_text("No") == EdgeLabel.no()
        assert EdgeLabel.from_text("") == EdgeLabel.none()
        assert EdgeLabel.from_text(None) == EdgeLabel.none()
        assert EdgeLabel.from_text("retry").render() == "retry"
