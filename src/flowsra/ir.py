"""Canonical in-memory flowchart representation.

A :class:`FlowGraph` holds typed nodes and labeled directed edges; an
:class:`UpgradedGraph` pairs a graph with one semantic-relation triple per
edge. All values are immutable after construction, so graphs can be shared
freely across threads. A graph's structural problems are reported by
:func:`validate` as data, which lets parsers build partial graphs and still
describe what is wrong with them; an upgraded graph checks its triples when
built.

Because a graph never changes, whatever is derived from it is derived once
per graph object and kept on that object (see :func:`derived`): the
:func:`validate` result, the id/adjacency index behind
:meth:`FlowGraph.node`, :meth:`FlowGraph.out_edges` and
:meth:`FlowGraph.in_edges`, and the emitted texts of
:mod:`flowsra.emitting`. The memo lives and dies with its graph, so it
neither keeps graphs alive nor hashes them by value; a computation that
raises stores nothing and runs again on the next call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping, TypeVar

T = TypeVar("T")


class NodeKind(Enum):
    """The five node shapes every dialect maps onto."""

    START = "Start"
    END = "End"
    PROCESS = "Process"
    DECISION = "Decision"
    INPUT_OUTPUT = "InputOutput"

    @property
    def is_terminal(self) -> bool:
        return self in (NodeKind.START, NodeKind.END)


class LabelKind(Enum):
    YES = "yes"
    NO = "no"
    OTHER = "other"
    NONE = "none"


@dataclass(frozen=True)
class EdgeLabel:
    """Edge annotation: the protogenic Yes/No symbols, free text, or nothing.

    Yes/No are case-normalized at construction ("yes", "YES" -> YES); any
    other non-empty text is preserved as OTHER.
    """

    kind: LabelKind
    text: str | None = None

    @classmethod
    def yes(cls) -> "EdgeLabel":
        return cls(LabelKind.YES)

    @classmethod
    def no(cls) -> "EdgeLabel":
        return cls(LabelKind.NO)

    @classmethod
    def none(cls) -> "EdgeLabel":
        return cls(LabelKind.NONE)

    @classmethod
    def other(cls, text: str) -> "EdgeLabel":
        return cls(LabelKind.OTHER, text)

    @classmethod
    def from_text(cls, raw: str | None) -> "EdgeLabel":
        """Normalize raw label text from any dialect."""
        if raw is None:
            return cls.none()
        stripped = raw.strip()
        if not stripped:
            return cls.none()
        low = stripped.casefold()
        if low == "yes":
            return cls.yes()
        if low == "no":
            return cls.no()
        return cls.other(stripped)

    def render(self) -> str | None:
        """Display text, or None for an unlabeled edge."""
        if self.kind is LabelKind.YES:
            return "Yes"
        if self.kind is LabelKind.NO:
            return "No"
        if self.kind is LabelKind.OTHER:
            return self.text
        return None

    def __str__(self) -> str:
        return self.render() or ""


YES = EdgeLabel.yes()
NO = EdgeLabel.no()
UNLABELED = EdgeLabel.none()


@dataclass(frozen=True)
class Node:
    """A flowchart node: opaque id, shape kind, and textual content."""

    id: str
    kind: NodeKind
    text: str = ""


@dataclass(frozen=True)
class Edge:
    """Directed edge between node ids, optionally labeled."""

    src: str
    dst: str
    label: EdgeLabel = UNLABELED


class _Memoized:
    """Base of the immutable graph types: a per-instance store for
    :func:`derived`, created on first use. It is not a dataclass field, so
    equality, hashing and ``repr`` ignore it."""

    @cached_property
    def _memo(self) -> dict[Hashable, object]:
        return {}


_MISSING = object()


def derived(owner: _Memoized, key: Hashable, compute: Callable[[], T]) -> T:
    """``compute()``, kept on ``owner`` under ``key`` and returned by later
    calls instead of computing again.

    ``compute`` must depend only on the (immutable) owner and the key. If it
    raises, nothing is stored. Threads that race on a first call may each
    compute, and all get the value stored first.
    """
    memo = owner._memo
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo.setdefault(key, compute())
    return value  # type: ignore[return-value]


@dataclass(frozen=True)
class FlowGraph(_Memoized):
    """Ordered nodes and edges; order is parse/insertion order.

    Deterministic emission depends on the stored order, so it is never
    re-sorted. Referential integrity is checked by :func:`validate`, not
    enforced here.
    """

    nodes: tuple[Node, ...] = ()
    edges: tuple[Edge, ...] = ()
    title: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))

    def _index(self) -> tuple[dict[str, Node], dict[str, tuple[Edge, ...]],
                              dict[str, tuple[Edge, ...]]]:
        """Node by id (the first of a duplicated id), and out- and in-edges
        by node id in edge order (dangling endpoints included)."""
        by_id: dict[str, Node] = {}
        for n in self.nodes:
            by_id.setdefault(n.id, n)
        outs: dict[str, list[Edge]] = {}
        ins: dict[str, list[Edge]] = {}
        for e in self.edges:
            outs.setdefault(e.src, []).append(e)
            ins.setdefault(e.dst, []).append(e)
        return (by_id,
                {nid: tuple(es) for nid, es in outs.items()},
                {nid: tuple(es) for nid, es in ins.items()})

    def node(self, node_id: str) -> Node:
        return derived(self, "index", self._index)[0][node_id]

    def out_edges(self, node_id: str) -> tuple[Edge, ...]:
        return derived(self, "index", self._index)[1].get(node_id, ())

    def in_edges(self, node_id: str) -> tuple[Edge, ...]:
        return derived(self, "index", self._index)[2].get(node_id, ())

    @property
    def is_empty(self) -> bool:
        return not self.nodes and not self.edges


class RelationType(Enum):
    """Closed four-way taxonomy of semantic relations between linked nodes.

    Each member carries its canonical one-sentence definition, used verbatim
    in recognition prompts and in upgraded-interlanguage headers.
    """

    CONDITIONALITY = "Conditionality"
    CAUSALITY = "Causality"
    INSTANTIATION = "Instantiation"
    SEQUENTIALITY = "Sequentiality"

    @property
    def definition(self) -> str:
        return _RELATION_DEFINITIONS[self]

    @classmethod
    def from_name(cls, name: str) -> "RelationType":
        """Case-insensitive lookup by tag name; raises ValueError if unknown."""
        low = name.strip().casefold()
        for member in cls:
            if member.value.casefold() == low:
                return member
        raise ValueError(f"unknown relation tag: {name!r}")


_RELATION_DEFINITIONS: dict[RelationType, str] = {
    RelationType.CONDITIONALITY: (
        "Node B describes an outcome that depends on the condition presented in Node A."
    ),
    RelationType.CAUSALITY: (
        "Node A describes the cause or action that directly causes the effect in Node B."
    ),
    RelationType.INSTANTIATION: (
        "Node B provides a specific instance or case of the general concept in Node A."
    ),
    RelationType.SEQUENTIALITY: (
        "Node B describes an event that occurs chronologically after Node A."
    ),
}


def relation_definitions_block() -> str:
    """All four definitions, one per line, in fixed taxonomy order."""
    return "\n".join(f"{r.value}: {r.definition}" for r in RelationType)


@dataclass(frozen=True)
class RelationTriple:
    """(source node, relation, target node) for one edge of the base graph.

    ``rationale`` holds the recognizer's analysis text when available;
    fallback-produced triples carry a rationale starting with ``fallback:``.
    """

    src: str
    relation: RelationType
    dst: str
    rationale: str | None = None

    @property
    def is_fallback(self) -> bool:
        return bool(self.rationale) and self.rationale.startswith("fallback:")


@dataclass(frozen=True)
class UpgradedGraph(_Memoized):
    """A FlowGraph plus exactly one relation triple per edge, in edge order:
    construction raises ValueError unless triple ``i`` joins the endpoints of
    edge ``i``, for every edge and no more."""

    base: FlowGraph
    triples: tuple[RelationTriple, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "triples", tuple(self.triples))
        edges = self.base.edges
        if len(self.triples) != len(edges):
            raise ValueError(
                f"upgraded graph has {len(self.triples)} triples for {len(edges)} edges")
        for edge, triple in zip(edges, self.triples):
            if triple.src != edge.src or triple.dst != edge.dst:
                raise ValueError(
                    f"triple {triple.src}->{triple.dst} does not match edge "
                    f"{edge.src}->{edge.dst}")

    def fallback_count(self) -> int:
        return sum(1 for t in self.triples if t.is_fallback)


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by :func:`validate`."""

    invariant: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.invariant}({self.subject}): {self.message}"


class GraphValidationError(ValueError):
    """Raised by operations that require a valid graph."""

    def __init__(self, violations: Iterable[Violation]):
        self.violations = list(violations)
        detail = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid flow graph: {detail}")


class TotalityError(ValueError):
    """Raised when an edge->relation map does not cover the edges exactly."""

    def __init__(self, edge: Edge, problem: str):
        self.edge = edge
        self.problem = problem
        super().__init__(f"{problem} relation for edge {edge.src} -> {edge.dst} "
                         f"(label {edge.label.render() or 'none'})")


def validate(graph: FlowGraph) -> list[Violation]:
    """Check every FlowGraph invariant; returns an empty list iff all hold.

    Violations are data, not failures: the order is deterministic (nodes in
    graph order, then edges) and repeated calls return equal lists. The
    check runs once per graph; each call returns a fresh list.
    """
    return list(derived(graph, "validate", lambda: _violations(graph)))


def _violations(graph: FlowGraph) -> tuple[Violation, ...]:
    violations: list[Violation] = []
    seen_ids: set[str] = set()
    for node in graph.nodes:
        if node.id in seen_ids:
            violations.append(Violation(
                "unique-node-id", node.id,
                f"node id {node.id!r} declared more than once"))
        seen_ids.add(node.id)
        if not node.text and not node.kind.is_terminal:
            violations.append(Violation(
                "node-text-required", node.id,
                f"{node.kind.value} node {node.id!r} has empty text"))
    known = {n.id for n in graph.nodes}
    seen_edges: set[tuple[str, str, str, str | None]] = set()
    for edge in graph.edges:
        for endpoint in (edge.src, edge.dst):
            if endpoint not in known:
                violations.append(Violation(
                    "dangling-edge", endpoint,
                    f"edge {edge.src!r} -> {edge.dst!r} references unknown node {endpoint!r}"))
        count = len(seen_edges)
        # equal exactly when the Edges are; hashing an Edge would make three
        # Python-level __hash__ calls (Edge, EdgeLabel, LabelKind)
        label = edge.label
        seen_edges.add((edge.src, edge.dst, label.kind.value, label.text))
        if len(seen_edges) == count:
            violations.append(Violation(
                "duplicate-edge", f"{edge.src}->{edge.dst}",
                f"duplicate edge {edge.src!r} -> {edge.dst!r} "
                f"with label {edge.label.render() or 'none'}"))
    return tuple(violations)


def require_valid(graph: FlowGraph) -> None:
    """Raise GraphValidationError unless the graph validates cleanly."""
    violations = validate(graph)
    if violations:
        raise GraphValidationError(violations)


@dataclass(frozen=True)
class TopologyStats:
    node_count: int
    edge_count: int
    decision_count: int
    max_out_degree: int


def topology_stats(graph: FlowGraph) -> TopologyStats:
    """Exact structural counts over the graph collections.

    Raises GraphValidationError when the graph does not validate.
    """
    require_valid(graph)
    out_degrees: dict[str, int] = {}
    for edge in graph.edges:
        out_degrees[edge.src] = out_degrees.get(edge.src, 0) + 1
    return TopologyStats(
        node_count=len(graph.nodes),
        edge_count=len(graph.edges),
        decision_count=sum(1 for n in graph.nodes if n.kind is NodeKind.DECISION),
        max_out_degree=max(out_degrees.values(), default=0),
    )


def upgrade(
    graph: FlowGraph,
    relations: Mapping[Edge, RelationType],
    rationales: Mapping[Edge, str] | None = None,
) -> UpgradedGraph:
    """Attach one relation triple per edge, in edge order.

    ``relations`` must be total over ``graph.edges``: a missing or extra key
    raises :class:`TotalityError` naming the offending edge. The base graph is
    carried through structurally unchanged.
    """
    edge_set = set(graph.edges)
    for edge in graph.edges:
        if edge not in relations:
            raise TotalityError(edge, "missing")
    for edge in relations:
        if edge not in edge_set:
            raise TotalityError(edge, "extraneous")
    rationales = rationales or {}
    triples = tuple(
        RelationTriple(
            src=edge.src,
            relation=relations[edge],
            dst=edge.dst,
            rationale=rationales.get(edge),
        )
        for edge in graph.edges
    )
    return UpgradedGraph(base=graph, triples=triples)
