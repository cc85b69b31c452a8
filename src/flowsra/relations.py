"""Assign one of the four semantic relations to every edge of a graph.

Two interchangeable backends implement the recognition contract, one call
per chart that returns one tag per edge: an LLM backend that analyzes each
node pair before committing to a tag, and a deterministic heuristic for
offline runs and tests. Each backend runs its own edges. Out-of-taxonomy
answers never escape: the LLM backend retries once and then falls back to
the heuristic, marking the rationale with a ``fallback:`` prefix. The
backend's list is the upgrade, kept as ``UpgradedGraph.relations``.

A backend gets the chart and the upgrade's dialect. The LLM backend embeds
the chart rendered in that dialect (see :func:`emit`, memoized per graph) in
every prompt; the heuristic never renders it, so a heuristic upgrade renders
nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Protocol

from .emitting import EmitError, InterlanguageDoc, emit
from .gateway import ChatGateway, ChatRequest, PromptKind, SetupError, ask_twice
from .gateway import last_tagged_line, map_in_order, prompt_head, prompt_request
from .ir import (
    FALLBACK_MARK,
    RELATION_DEFINITIONS_BLOCK,
    Edge,
    EdgeLabel,
    FlowGraph,
    Node,
    NodeKind,
    RelationType,
    UpgradedGraph,
    derived,
    require_valid,
)
from .parsing import Dialect


class UpgradeError(RuntimeError):
    """Recognition failed for an edge; no partial upgrade is returned."""

    def __init__(self, edge: Edge, cause: Exception):
        self.edge = edge
        super().__init__(
            f"relation recognition failed for edge {edge.src} -> {edge.dst}: {cause}")


RELATION_BACKENDS = ("heuristic", "llm")  # the backends make_relation_backend selects


class RelationBackend(Protocol):
    """Recognition contract: one valid chart and the dialect to show it in,
    one in-taxonomy tag and its rationale per edge out, in edge order."""

    def recognize(self, graph: FlowGraph,
                  dialect: Dialect) -> list[tuple[RelationType, str]]:
        ...


def _label_clause(label: EdgeLabel) -> str:
    text = label.text
    if text == "Yes":
        return "Edge label: Yes (this is the branch taken when the source condition holds)."
    if text == "No":
        return "Edge label: No (this is the branch taken when the source condition fails)."
    if text is not None:
        return f"Edge label: {text}"
    return "The edge carries no label."


def relation_request(model: str, src: Node, dst: Node, label: EdgeLabel,
                     context: InterlanguageDoc) -> ChatRequest:
    """The recognition request: analysis instruction, the four definitions
    and the full chart (the head, once per chart text), then the node pair
    and the output format."""
    head = derived(context, "relation_head", lambda: prompt_head(
        PromptKind.RELATION, definitions=RELATION_DEFINITIONS_BLOCK,
        context=context.text.rstrip("\n")))
    return prompt_request(model, PromptKind.RELATION, head, src_text=src.text,
                          dst_text=dst.text, label_clause=_label_clause(label), tags=_TAGS)


# the tag line reads any word, so that an out-of-taxonomy tag is re-asked
_TAGS = "|".join(r.value for r in RelationType)
_RETRY_REMINDER = ("and finish with exactly one line: RELATION: <tag>, where <tag> is "
                   "exactly one of " + ", ".join(r.value for r in RelationType) + ".")
_RELATION_LINE = re.compile(r"relation\s*[:\-]\s*(?P<tag>[A-Za-z]+)", re.IGNORECASE)


def parse_relation_response(text: str) -> tuple[RelationType, str] | None:
    """The tag from the last RELATION line, and the text before that line as
    the rationale; None when no line carries a tag in the taxonomy.
    Tolerates surrounding markup and casing."""
    found = last_tagged_line(text, _RELATION_LINE)
    if found is None:
        return None
    idx, m = found
    try:
        relation = RelationType.from_name(m.group("tag"))
    except ValueError:
        return None
    return relation, "\n".join(text.splitlines()[:idx]).strip()


# rule 3's heading, one to four runs of ASCII letters and ``'`` (the words),
# the last ending in ``s`` or ``S`` but not in two of them: one anchored
# match of the reversed text, which reads the last word first, so that most
# texts fail at their first characters, and none makes the match backtrack
# more than a few times over its length
_REVERSED_PLURAL_HEADING = re.compile(
    r"[^A-Za-z']*[sS](?![sS])[A-Za-z']*(?:[^A-Za-z']+[A-Za-z']+){0,3}[^A-Za-z']*")
# the word sets obtain(s|ed), get(s), got, acquire(s) and select(s|ing|ion),
# use(s), using, choose(s), choosing, chosen, pick(s|ing), factored by their
# common prefixes: an alternation of whole words under IGNORECASE tries
# every word at every position, a factored one mostly fails at the first
# letter
_ACQUIRE = re.compile(r"\b(?:obtain(?:s|ed)?|g(?:ets?|ot)|acquires?)\b", re.IGNORECASE)
_SELECT_OR_USE = re.compile(
    r"\b(?:select(?:s|ing|ion)?|us(?:es?|ing)|cho(?:os(?:es?|ing)|sen)|pick(?:s|ing)?)\b",
    re.IGNORECASE)
_LIST_SHAPE = re.compile(r",|\band\b|\bor\b", re.IGNORECASE)


# the cascade's verdicts, and what its first rule tests, as module names:
# reading a member off an Enum class (``NodeKind.DECISION``) goes through
# EnumType's __getattr__ hook on Python 3.11, about 100 ns a read
_DECISION = NodeKind.DECISION
_YES_OR_NO = ("Yes", "No")
_BRANCH = (RelationType.CONDITIONALITY, "source is a decision or the edge is a yes/no branch")
_INSTANCE_CUE = (RelationType.INSTANTIATION, "target text carries an instance-giving cue")
_INSTANCE_LIST = (RelationType.INSTANTIATION, "plural category followed by a list of instances")
_CAUSAL_CUE = (RelationType.CAUSALITY, "source text carries a causal cue")
_ENABLES = (RelationType.CAUSALITY, "acquisition step directly enables a selection/use step")
_SEQUENCE = (RelationType.SEQUENTIALITY, "default: consecutive steps in chronological order")


def heuristic_recognize(src: Node, dst: Node,
                        label: EdgeLabel) -> tuple[RelationType, str]:
    """Deterministic rule cascade; first match wins, total over all inputs."""
    if src.kind is _DECISION or label.text in _YES_OR_NO:
        return _BRANCH
    # the cues of rules 2 and 4 are substrings of the text lowered once, tested
    # in an ``or`` chain: a compiled alternation of them would try every cue
    # at every position of the text
    dst_low = dst.text.lower()
    if ("e.g." in dst_low or "such as" in dst_low or "for example" in dst_low
            or "for instance" in dst_low):
        return _INSTANCE_CUE
    src_low = src.text.lower()
    # a heading's last word ends in an ``s`` or ``S``, which lowers to "s"
    # only: most texts skip rule 3's match
    if ("s" in src_low and _REVERSED_PLURAL_HEADING.fullmatch(src.text[::-1])
            and _LIST_SHAPE.search(dst.text)):
        return _INSTANCE_LIST
    if "causes" in src_low or "results in" in src_low or "leads to" in src_low:
        return _CAUSAL_CUE
    # an acquire word in ASCII text holds one of these stems once lowered;
    # other text may hold one by Unicode case folding (``ſ`` is ``s`` and
    # ``ı`` is ``i``), so it always takes the regex
    if ((not src.text.isascii() or "obtain" in src_low or "get" in src_low
         or "got" in src_low or "acquire" in src_low)
            and _ACQUIRE.search(src.text) and _SELECT_OR_USE.search(dst.text)):
        return _ENABLES
    return _SEQUENCE


@dataclass
class HeuristicRelationBackend:
    """Pure, order-independent backend wrapping the rule cascade."""

    def recognize(self, graph: FlowGraph,
                  dialect: Dialect) -> list[tuple[RelationType, str]]:
        by_id = {n.id: n for n in graph.nodes}
        return [heuristic_recognize(by_id[edge.src], by_id[edge.dst], edge.label)
                for edge in graph.edges]


@dataclass
class LlmRelationBackend:
    """Two-phase recognition over a chat gateway, one request per edge.

    Each edge asks through ``ask_twice``, so an unparseable response is
    re-asked once; after that the heuristic answers and the rationale is
    marked ``fallback:`` so batch runs always finish.
    Edges run concurrently once their requests reach the transport, up to
    the gateway's parallelism (see ``map_in_order``). The first edge, in
    edge order, whose recognition raises aborts the chart with
    :class:`UpgradeError`, except that a :class:`SetupError` (the run's) and
    an :class:`EmitError` (the chart's) pass through unwrapped.
    """

    gateway: ChatGateway
    model: str

    def recognize(self, graph: FlowGraph,
                  dialect: Dialect) -> list[tuple[RelationType, str]]:
        by_id = {n.id: n for n in graph.nodes}

        def one(edge: Edge) -> tuple[RelationType, str]:
            src, dst = by_id[edge.src], by_id[edge.dst]
            try:
                request = relation_request(self.model, src, dst, edge.label,
                                           emit(graph, dialect))
                found = ask_twice(self.gateway, request, parse_relation_response,
                                  _RETRY_REMINDER)
            except (SetupError, EmitError):
                raise
            except Exception as exc:
                raise UpgradeError(edge, exc) from exc
            if found is None:
                relation, reason = heuristic_recognize(src, dst, edge.label)
                found = relation, f"{FALLBACK_MARK} {reason}"
            return found

        return list(map_in_order(one, graph.edges, self.gateway))


def upgrade_graph(graph: FlowGraph, backend: RelationBackend, *,
                  dialect: Dialect = Dialect.MERMAID) -> UpgradedGraph:
    """Recognize a relation for every edge and build the upgraded graph.

    One backend call gets the validated chart and ``dialect``; a backend
    that shows the chart renders it in that dialect, once per graph (see
    :func:`emit`), and the heuristic never does. The backend's list, one
    (relation, rationale) per edge in edge order, is the upgrade's
    ``relations`` as it stands; whatever the backend raises ends the upgrade.
    """
    require_valid(graph)
    return UpgradedGraph(graph, backend.recognize(graph, dialect))


def make_relation_backend(kind: str, gateway: ChatGateway | None = None,
                          model: str = "") -> RelationBackend:
    """Selector over ``RELATION_BACKENDS``; the llm backend needs a gateway
    and a model."""
    if kind == "heuristic":
        return HeuristicRelationBackend()
    if kind == "llm":
        if gateway is None:
            raise ValueError("the llm relation backend needs a gateway")
        if not model:
            raise ValueError("the llm relation backend needs a model")
        return LlmRelationBackend(gateway, model)
    raise ValueError(f"unknown relation backend {kind!r}")
