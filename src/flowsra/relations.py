"""Assign one of the four semantic relations to every edge of a graph.

Two interchangeable backends implement the recognition contract: an LLM
backend that analyzes the node pair before committing to a tag, and a
deterministic heuristic for offline runs and tests. Out-of-taxonomy answers
never escape: the LLM backend retries once and then falls back to the
heuristic, marking the triple's rationale with a ``fallback:`` prefix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Protocol

from .emitting import InterlanguageDoc, emit
from .gateway import CacheError, ChatGateway, ask_twice, completion_backend
from .gateway import last_tagged_line, map_in_order
from .ir import (
    Edge,
    EdgeLabel,
    FlowGraph,
    LabelKind,
    Node,
    NodeKind,
    RelationTriple,
    RelationType,
    UpgradedGraph,
    relation_definitions_block,
    require_valid,
)
from .parsing import Dialect
from .prompts import load_template


class UnparseableRelationError(ValueError):
    """The response carries no usable relation tag."""


class UpgradeError(RuntimeError):
    """Recognition failed for an edge; no partial upgrade is returned."""

    def __init__(self, edge: Edge, cause: Exception):
        self.edge = edge
        super().__init__(
            f"relation recognition failed for edge {edge.src} -> {edge.dst}: {cause}")


class RelationBackend(Protocol):
    """Recognition contract: one node pair in, one in-taxonomy tag out."""

    def recognize(self, src: Node, dst: Node, label: EdgeLabel,
                  context: InterlanguageDoc) -> tuple[RelationType, str]:
        ...


def _label_clause(label: EdgeLabel) -> str:
    if label.kind is LabelKind.YES:
        return "Edge label: Yes (this is the branch taken when the source condition holds)."
    if label.kind is LabelKind.NO:
        return "Edge label: No (this is the branch taken when the source condition fails)."
    if label.kind is LabelKind.OTHER:
        return f"Edge label: {label.text}"
    return "The edge carries no label."


def build_relation_prompt(src: Node, dst: Node, label: EdgeLabel,
                          context: InterlanguageDoc) -> str:
    """Render the recognition prompt: analysis instruction, the four
    definitions, the full chart, the node pair, and the output format."""
    return load_template("relation.txt").format(
        definitions=relation_definitions_block(),
        context=context.text.rstrip("\n"),
        src_text=src.text,
        dst_text=dst.text,
        label_clause=_label_clause(label),
    )


_RELATION_LINE = re.compile(r"relation\s*[:\-]\s*(?P<tag>[A-Za-z]+)", re.IGNORECASE)


def parse_relation_response(text: str) -> tuple[RelationType, str]:
    """Extract the tag from the last RELATION line; the text before it is the
    rationale. Tolerates surrounding markup and casing."""
    found = last_tagged_line(text, _RELATION_LINE)
    if found is None:
        raise UnparseableRelationError("no RELATION line found in response")
    idx, m = found
    tag = m.group("tag")
    try:
        relation = RelationType.from_name(tag)
    except ValueError as exc:
        raise UnparseableRelationError(f"tag {tag!r} is outside the taxonomy") from exc
    return relation, "\n".join(text.splitlines()[:idx]).strip()


def _relation_or_none(text: str) -> tuple[RelationType, str] | None:
    try:
        return parse_relation_response(text)
    except UnparseableRelationError:
        return None


_INSTANTIATION_CUES = ("e.g.", "such as", "for example", "for instance")
_CAUSAL_CUES = ("causes", "results in", "leads to")
_ACQUIRE = re.compile(r"\b(obtain|obtains|obtained|get|gets|got|acquire|acquires)\b",
                      re.IGNORECASE)
_SELECT_OR_USE = re.compile(r"\b(select|selects|selecting|selection|use|uses|using|"
                            r"choose|chooses|choosing|chosen|pick|picks|picking)\b",
                            re.IGNORECASE)
_LIST_SHAPE = re.compile(r",|\band\b|\bor\b", re.IGNORECASE)


def _plural_category_heading_list(src_text: str, dst_text: str) -> bool:
    words = re.findall(r"[A-Za-z']+", src_text)
    if not words or len(words) > 4:
        return False
    head = words[-1].lower()
    if not head.endswith("s") or head.endswith("ss"):
        return False
    return bool(_LIST_SHAPE.search(dst_text))


def heuristic_recognize(src: Node, dst: Node,
                        label: EdgeLabel) -> tuple[RelationType, str]:
    """Deterministic rule cascade; first match wins, total over all inputs."""
    if src.kind is NodeKind.DECISION or label.kind in (LabelKind.YES, LabelKind.NO):
        return (RelationType.CONDITIONALITY,
                "source is a decision or the edge is a yes/no branch")
    dst_low = dst.text.lower()
    if any(cue in dst_low for cue in _INSTANTIATION_CUES):
        return (RelationType.INSTANTIATION,
                "target text carries an instance-giving cue")
    if _plural_category_heading_list(src.text, dst.text):
        return (RelationType.INSTANTIATION,
                "plural category followed by a list of instances")
    src_low = src.text.lower()
    if any(cue in src_low for cue in _CAUSAL_CUES):
        return (RelationType.CAUSALITY, "source text carries a causal cue")
    if _ACQUIRE.search(src.text) and _SELECT_OR_USE.search(dst.text):
        return (RelationType.CAUSALITY,
                "acquisition step directly enables a selection/use step")
    return (RelationType.SEQUENTIALITY,
            "default: consecutive steps in chronological order")


@dataclass
class HeuristicRelationBackend:
    """Pure, order-independent backend wrapping the rule cascade."""

    def recognize(self, src: Node, dst: Node, label: EdgeLabel,
                  context: InterlanguageDoc) -> tuple[RelationType, str]:
        return heuristic_recognize(src, dst, label)


_RETRY_REMINDER = (
    "\n\nYour previous answer could not be parsed. Answer again and finish "
    "with exactly one line: RELATION: <tag>, where <tag> is exactly one of "
    "Conditionality, Causality, Instantiation, Sequentiality."
)


@dataclass
class LlmRelationBackend:
    """Two-phase recognition over a chat gateway.

    One retry on an unparseable response; after that the heuristic answers
    and the rationale is marked ``fallback:`` so batch runs always finish.
    """

    gateway: ChatGateway
    model: str
    max_tokens: int = 512

    def recognize(self, src: Node, dst: Node, label: EdgeLabel,
                  context: InterlanguageDoc) -> tuple[RelationType, str]:
        ask = completion_backend(self.gateway, self.model, max_tokens=self.max_tokens)
        found = ask_twice(ask, build_relation_prompt(src, dst, label, context),
                          _relation_or_none, _RETRY_REMINDER)
        if found is not None:
            return found
        relation, reason = heuristic_recognize(src, dst, label)
        return relation, f"fallback: {reason}"


def upgrade_graph(
    graph: FlowGraph,
    backend: RelationBackend,
    *,
    dialect: Dialect = Dialect.MERMAID,
) -> UpgradedGraph:
    """Recognize a relation for every edge and build the upgraded graph.

    A backend with a ``gateway`` attribute (the LLM one) recognizes edges
    concurrently once its requests reach the transport, up to the gateway's
    parallelism (see ``map_in_order``); any other backend runs inline.
    Triple ``i`` is built from edge ``i``'s result, so the result does not
    depend on completion order and no edge is hashed. The first edge, in
    edge order, whose recognition raises aborts the whole upgrade (no
    partial result) with :class:`UpgradeError`, except that a
    :class:`CacheError` (a cache entry that cannot be written) is the run's,
    not the edge's, and passes through unwrapped.
    """
    require_valid(graph)
    context = emit(graph, dialect)
    by_id = {n.id: n for n in graph.nodes}

    def recognize(edge: Edge) -> tuple[RelationType, str]:
        try:
            return backend.recognize(by_id[edge.src], by_id[edge.dst],
                                     edge.label, context)
        except CacheError:
            raise
        except Exception as exc:
            raise UpgradeError(edge, exc) from exc

    results = list(map_in_order(recognize, graph.edges, getattr(backend, "gateway", None)))
    return UpgradedGraph(base=graph, triples=tuple(
        RelationTriple(edge.src, relation, edge.dst, rationale)
        for edge, (relation, rationale) in zip(graph.edges, results)))


def make_relation_backend(kind: str, gateway: ChatGateway | None = None,
                          model: str = "") -> RelationBackend:
    """CLI-facing selector: ``heuristic`` or ``llm``."""
    if kind == "heuristic":
        return HeuristicRelationBackend()
    if kind == "llm":
        if gateway is None:
            raise ValueError("the llm relation backend needs a gateway")
        return LlmRelationBackend(gateway, model or "default")
    raise ValueError(f"unknown relation backend {kind!r}")
