"""flowsra: flowchart interlanguage conversion, semantic-relation upgrading,
and intent-routed question answering."""

from .ir import (
    Edge,
    EdgeLabel,
    FlowGraph,
    Node,
    NodeKind,
    RelationTriple,
    RelationType,
    UpgradedGraph,
    topology_stats,
    validate,
)
from .parsing import Dialect, detect_dialect, parse_dot, parse_mermaid, parse_plantuml, parse_text
from .emitting import InterlanguageDoc, emit, emit_triples, emit_upgraded
from .relations import heuristic_recognize, upgrade_graph
from .routing import QuestionClass, QuestionType, heuristic_classify, type_to_class
from .engine import Answer, Question, Route, answer_controlled, answer_deep, answer_shallow
from .gateway import ChatGateway, ChatMessage, ChatRequest, ChatResponse
from .harness import EvalConfig, EvalInstance, EvalReport, judge, load_dataset, run_eval

__version__ = "0.1.0"

__all__ = [
    "Answer",
    "ChatGateway",
    "ChatMessage",
    "ChatRequest",
    "ChatResponse",
    "Dialect",
    "Edge",
    "EdgeLabel",
    "EvalConfig",
    "EvalInstance",
    "EvalReport",
    "FlowGraph",
    "InterlanguageDoc",
    "Node",
    "NodeKind",
    "Question",
    "QuestionClass",
    "QuestionType",
    "RelationTriple",
    "RelationType",
    "Route",
    "UpgradedGraph",
    "answer_controlled",
    "answer_deep",
    "answer_shallow",
    "detect_dialect",
    "emit",
    "emit_triples",
    "emit_upgraded",
    "heuristic_classify",
    "heuristic_recognize",
    "judge",
    "load_dataset",
    "parse_dot",
    "parse_mermaid",
    "parse_plantuml",
    "parse_text",
    "run_eval",
    "topology_stats",
    "type_to_class",
    "upgrade_graph",
    "validate",
]
