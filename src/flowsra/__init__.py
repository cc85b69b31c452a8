"""flowsra: flowchart interlanguage conversion, semantic-relation upgrading,
and intent-routed question answering."""

from types import ModuleType as _ModuleType

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

# the public names are the ones imported above: not a module, nor private
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
