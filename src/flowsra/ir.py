"""Canonical in-memory flowchart representation.

A :class:`FlowGraph` holds typed nodes and labeled directed edges; an
:class:`UpgradedGraph` pairs a graph with one semantic-relation triple per
edge. All values are immutable after construction, so graphs can be shared
freely across threads. A graph's structural problems are reported by
:func:`validate` as data, which lets parsers build partial graphs and still
describe what is wrong with them; an upgraded graph checks its base and its
triples when built.

Because a graph never changes, whatever is derived from it is derived once
per graph object and kept on that object (see :func:`derived`): the
:func:`validate` result, which a parser stores when it has seen the graph
to be clean, and the emitted texts of :mod:`flowsra.emitting`.
The memo lives and dies with its graph, so it neither keeps graphs alive
nor hashes them by value; a computation that raises stores nothing and runs
again on the next call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Callable, Hashable, Iterable, TypeVar

T = TypeVar("T")


class IdentityEnum(Enum):
    """The base of the package's plain enums: a member hashes by identity,
    in C, as it compares. ``Enum.__hash__`` hashes the member's name in
    Python, which each dict key and memo lookup would pay."""

    __hash__ = object.__hash__


class NodeKind(IdentityEnum):
    """The five node shapes every dialect maps onto."""

    START = "Start"
    END = "End"
    PROCESS = "Process"
    DECISION = "Decision"
    INPUT_OUTPUT = "InputOutput"

    @property
    def is_terminal(self) -> bool:
        return self in (NodeKind.START, NodeKind.END)


class LabelKind(IdentityEnum):
    YES = "yes"
    NO = "no"
    OTHER = "other"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class EdgeLabel:
    """Edge annotation: the protogenic Yes/No symbols, free text, or nothing.

    Yes/No are case-normalized at construction ("yes", "YES" -> YES); any
    other non-empty text is preserved as OTHER. The Yes, No and unlabeled
    forms are the shared values ``YES``, ``NO`` and ``UNLABELED``.
    """

    kind: LabelKind
    text: str | None = None

    @classmethod
    def from_text(cls, raw: str | None) -> "EdgeLabel":
        """Normalize raw label text from any dialect."""
        if raw is None:
            return UNLABELED
        stripped = raw.strip()
        if not stripped:
            return UNLABELED
        low = stripped.casefold()
        if low == "yes":
            return YES
        if low == "no":
            return NO
        return cls(LabelKind.OTHER, stripped)

    def render(self) -> str | None:
        """Display text, or None for an unlabeled edge."""
        return _SHOWN.get(self.kind, self.text)

    def __str__(self) -> str:
        return self.render() or ""


# the display text of each label kind but OTHER, whose labels show their own
# text. ``render`` looks the kind up rather than compare it with members: on
# Python 3.11 each read of a member off its class (``LabelKind.YES``) costs
# ~100 ns
_SHOWN = {LabelKind.YES: "Yes", LabelKind.NO: "No", LabelKind.NONE: None}

YES = EdgeLabel(LabelKind.YES)
NO = EdgeLabel(LabelKind.NO)
UNLABELED = EdgeLabel(LabelKind.NONE)


def _slot_init(cls: type[T]) -> type[T]:
    """Give a frozen, slotted dataclass an ``__init__`` with the same
    parameters that stores each field through its slot's descriptor.

    A frozen dataclass's own ``__init__`` calls ``object.__setattr__`` once
    per field; a slot descriptor's ``__set__`` costs about 0.6 of that, which
    counts for the values built once per node or edge of every chart. The
    class stays frozen: only ``__init__`` changes. Parameters, defaults and
    order are read from :func:`dataclasses.fields`, as the dataclass's own;
    a field with a default factory, ``init=False`` or ``kw_only`` is refused.
    """
    scope: dict[str, object] = {}
    params, body = [], []
    for f in fields(cls):
        if f.default_factory is not MISSING or not f.init or f.kw_only:
            raise TypeError(f"{cls.__name__}.{f.name} is not a plain field")
        scope[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        body.append(f"\n    _set_{f.name}(self, {f.name})")
        if f.default is MISSING:
            params.append(f.name)
        else:
            scope[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
    exec(f"def __init__(self, {', '.join(params)}):{''.join(body)}", scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init  # type: ignore[misc]
    return cls


@_slot_init
@dataclass(frozen=True, slots=True)
class Node:
    """A flowchart node: opaque id, shape kind, and textual content."""

    id: str
    kind: NodeKind
    text: str = ""


@_slot_init
@dataclass(frozen=True, slots=True)
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


def edge_key(src: str, dst: str, label: EdgeLabel) -> tuple[str, str, str, str | None]:
    """Duplicate-edge identity, equal exactly when the Edges are; hashing an
    Edge instead makes two Python-level __hash__ calls, the Edge's and its
    label's. ``_value_`` is the kind's ``value``, read without the property
    call."""
    return src, dst, label.kind._value_, label.text


class RelationType(IdentityEnum):
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
        try:
            return _RELATIONS_BY_NAME[name.strip().casefold()]
        except KeyError:
            raise ValueError(f"unknown relation tag: {name!r}") from None


_RELATIONS_BY_NAME = {member.value.casefold(): member for member in RelationType}


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


_DEFINITIONS_BLOCK = "\n".join(f"{r.value}: {r.definition}" for r in RelationType)


def relation_definitions_block() -> str:
    """All four definitions, one per line, in fixed taxonomy order."""
    return _DEFINITIONS_BLOCK


FALLBACK_MARK = "fallback:"


@_slot_init
@dataclass(frozen=True, slots=True)
class RelationTriple:
    """(source node, relation, target node) for one edge of the base graph.

    ``rationale`` holds the recognizer's analysis text when available;
    fallback-produced triples carry a rationale starting with ``FALLBACK_MARK``.
    """

    src: str
    relation: RelationType
    dst: str
    rationale: str | None = None

    @property
    def is_fallback(self) -> bool:
        return bool(self.rationale) and self.rationale.startswith(FALLBACK_MARK)


@dataclass(frozen=True)
class UpgradedGraph(_Memoized):
    """A valid FlowGraph plus exactly one relation triple per edge, in edge
    order: construction raises GraphValidationError unless the base
    validates, and ValueError unless triple ``i`` joins the endpoints of
    edge ``i``, for every edge and no more."""

    base: FlowGraph
    triples: tuple[RelationTriple, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "triples", tuple(self.triples))
        require_valid(self.base)
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
        """How many triples the fallback produced, counted once per graph."""
        return derived(self, "fallback_count",
                       lambda: sum(1 for t in self.triples if t.is_fallback))


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


def validate(graph: FlowGraph) -> list[Violation]:
    """Check every FlowGraph invariant; returns an empty list iff all hold.

    Violations are data, not failures: the order is deterministic (nodes in
    graph order, then edges) and repeated calls return equal lists. The
    check runs at most once per graph, and not at all for a parsed graph
    that its parser saw to be clean (see :func:`store_violations`); each
    call returns a fresh list.
    """
    return list(_checked(graph))


def _checked(graph: FlowGraph) -> tuple[Violation, ...]:
    return derived(graph, "validate", lambda: _violations(graph))


def store_violations(graph: FlowGraph) -> None:
    """Store an empty :func:`validate` result on ``graph``, for a builder
    that knows the check would find nothing. A graph with some violation
    gets no stored result: the check finds them on first use."""
    graph._memo["validate"] = ()


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
        seen_edges.add(edge_key(edge.src, edge.dst, edge.label))
        if len(seen_edges) == count:
            violations.append(Violation(
                "duplicate-edge", f"{edge.src}->{edge.dst}",
                f"duplicate edge {edge.src!r} -> {edge.dst!r} "
                f"with label {edge.label.render() or 'none'}"))
    return tuple(violations)


def require_valid(graph: FlowGraph) -> None:
    """Raise GraphValidationError unless the graph validates cleanly."""
    violations = _checked(graph)
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
    out_degrees = Counter(edge.src for edge in graph.edges)
    return TopologyStats(
        node_count=len(graph.nodes),
        edge_count=len(graph.edges),
        decision_count=sum(1 for n in graph.nodes if n.kind is NodeKind.DECISION),
        max_out_degree=max(out_degrees.values(), default=0),
    )

