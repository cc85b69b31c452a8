"""Parsers for the three flowchart dialects.

Each parser accepts the grammar subset documented in ``docs/grammars.md``,
recovers from errors by emitting diagnostics and continuing, and returns a
(possibly partial) :class:`~flowsra.ir.FlowGraph`. Input outside the subset
produces diagnostics, never undefined behavior.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .ir import (
    Edge,
    EdgeLabel,
    FlowGraph,
    Node,
    NodeKind,
    UNLABELED,
    YES,
    NO,
)


class Dialect(Enum):
    MERMAID = "mermaid"
    DOT = "dot"
    PLANTUML = "plantuml"


class Severity(Enum):
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    message: str
    severity: Severity = Severity.ERROR

    def __str__(self) -> str:
        return f"line {self.line}: {self.severity.value}: {self.message}"


@dataclass
class ParseResult:
    """A (possibly partial) graph plus whatever went wrong while building it."""

    graph: FlowGraph
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(d.severity is Severity.ERROR for d in self.diagnostics)

    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]


class UnknownDialectError(ValueError):
    """No dialect marker found in the input text."""


def detect_dialect(text: str) -> Dialect:
    """Pick the dialect from the first significant token.

    ``flowchart``/``graph`` open Mermaid, ``digraph`` (or ``graph`` followed
    by ``{`` on the same line) opens DOT, and ``@startuml`` opens PlantUML.
    """
    if not text.strip():
        raise UnknownDialectError("empty input")
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line:
            continue
        first = re.match(r"[@\w]+", line)
        token = first.group(0).casefold() if first else ""
        if token == "@startuml":
            return Dialect.PLANTUML
        if token == "flowchart":
            return Dialect.MERMAID
        if token == "digraph":
            return Dialect.DOT
        if token == "graph":
            rest = line[first.end():]
            if "{" in rest:
                return Dialect.DOT
            return Dialect.MERMAID
        break
    raise UnknownDialectError("no dialect marker found (expected flowchart/graph, digraph, or @startuml)")


class _Builder:
    """Mutable accumulator used by the parsers; insertion order is kept."""

    def __init__(self) -> None:
        self._order: list[str] = []
        self._kinds: dict[str, NodeKind] = {}
        self._texts: dict[str, str] = {}
        self._edges: list[Edge] = []
        self._edge_keys: set[Edge] = set()
        self._starts: set[str] = set()  # ids whose kind is START
        self.title: str | None = None
        self._synth = 0

    def fresh_id(self) -> str:
        nid = f"n{self._synth}"
        self._synth += 1
        return nid

    def has(self, node_id: str) -> bool:
        return node_id in self._kinds

    def kind_of(self, node_id: str) -> NodeKind | None:
        return self._kinds.get(node_id)

    def ensure(self, node_id: str, kind: NodeKind = NodeKind.PROCESS,
               text: str | None = None) -> str:
        if node_id not in self._kinds:
            self._order.append(node_id)
            self._kinds[node_id] = kind
            self._texts[node_id] = node_id if text is None else text
            if kind is NodeKind.START:
                self._starts.add(node_id)
        return node_id

    def define(self, node_id: str, kind: NodeKind, text: str) -> str:
        """Declare or redeclare a node's shape and text (order position kept)."""
        self.ensure(node_id)
        self._kinds[node_id] = kind
        self._texts[node_id] = text
        if kind is NodeKind.START:
            self._starts.add(node_id)
        else:
            self._starts.discard(node_id)
        return node_id

    def add_node(self, kind: NodeKind, text: str) -> str:
        return self.define(self.fresh_id(), kind, text)

    def has_start(self, excluding: str | None = None) -> bool:
        return len(self._starts) > (excluding in self._starts)

    def add_edge(self, src: str, dst: str, label: EdgeLabel = UNLABELED) -> bool:
        """Record an edge; returns False for a duplicate (kept, so validate()
        flags it too, but the parser should diagnose it where it happened)."""
        edge = Edge(src, dst, label)
        seen = len(self._edge_keys)
        self._edge_keys.add(edge)
        self._edges.append(edge)
        return len(self._edge_keys) != seen

    def build(self) -> FlowGraph:
        nodes = tuple(Node(nid, self._kinds[nid], self._texts[nid]) for nid in self._order)
        return FlowGraph(nodes=nodes, edges=tuple(self._edges), title=self.title)


def _strip_quotes(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text.startswith('"') and text.endswith('"'):
        return text[1:-1].replace("#quot;", '"')
    return text


_START_CUES = re.compile(r"\b(start|begin)\b", re.IGNORECASE)
_END_CUES = re.compile(r"\b(end|stop|finish|finished|done|complete|completed)\b", re.IGNORECASE)


def _terminal_kind(text: str, builder: _Builder, node_id: str) -> NodeKind:
    """Classify a terminal-shaped node as Start or End by text cues, then position."""
    if _START_CUES.search(text):
        return NodeKind.START
    if _END_CUES.search(text):
        return NodeKind.END
    existing = builder.kind_of(node_id)
    if existing in (NodeKind.START, NodeKind.END):
        return existing
    return NodeKind.END if builder.has_start(excluding=node_id) else NodeKind.START


# --- Mermaid ---------------------------------------------------------------

_MERMAID_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_MERMAID_HEADER = re.compile(r"^(flowchart|graph)\b\s*(TD|TB|BT|LR|RL)?\s*$", re.IGNORECASE)

# Shape patterns, most specific first; each has a quoted-content variant so
# delimiter characters may appear inside quoted text.
_MERMAID_SHAPES: list[tuple[re.Pattern[str], str]] = [
    (re.compile(r'\(\("((?:[^"]|#quot;)*)"\)\)'), "terminal"),
    (re.compile(r"\(\(([^)]*)\)\)"), "terminal"),
    (re.compile(r'\(\["((?:[^"]|#quot;)*)"\]\)'), "terminal"),
    (re.compile(r"\(\[(.*?)\]\)"), "terminal"),
    (re.compile(r'\[/"((?:[^"]|#quot;)*)"/\]'), "io"),
    (re.compile(r"\[/(.*?)/\]"), "io"),
    (re.compile(r'\{"((?:[^"]|#quot;)*)"\}'), "decision"),
    (re.compile(r"\{([^}]*)\}"), "decision"),
    (re.compile(r'\["((?:[^"]|#quot;)*)"\]'), "process"),
    (re.compile(r"\[([^]]*)\]"), "process"),
]

_MERMAID_ARROWS: list[re.Pattern[str]] = [
    re.compile(r"-->\s*\|([^|]*)\|"),   # -->|label|
    re.compile(r"--\s*([^->][^-]*?)\s*-->"),  # --label-->
    re.compile(r"-->"),
]


def _strip_mermaid_comments(line: str) -> str:
    idx = line.find("%%")
    return line if idx < 0 else line[:idx]


def _mermaid_node_ref(builder: _Builder, line: str, pos: int, lineno: int,
                      diagnostics: list[ParseDiagnostic]) -> tuple[str, int] | None:
    """Consume one node reference (id plus optional shape) at ``pos``."""
    m = _MERMAID_ID.match(line, pos)
    if not m:
        return None
    node_id = m.group(0)
    pos = m.end()
    for pattern, shape in _MERMAID_SHAPES:
        sm = pattern.match(line, pos)
        if not sm:
            continue
        text = _strip_quotes(sm.group(1))
        if shape == "terminal":
            builder.ensure(node_id)
            kind = _terminal_kind(text, builder, node_id)
        elif shape == "io":
            kind = NodeKind.INPUT_OUTPUT
        elif shape == "decision":
            kind = NodeKind.DECISION
        else:
            kind = NodeKind.PROCESS
        if not text and not kind.is_terminal:
            diagnostics.append(ParseDiagnostic(
                lineno, f"{kind.value} node {node_id!r} has empty text",
                Severity.ERROR))
        builder.define(node_id, kind, text)
        return node_id, sm.end()
    builder.ensure(node_id)
    return node_id, pos


def parse_mermaid(text: str) -> ParseResult:
    """Parse the Mermaid flowchart subset.

    Malformed lines produce Error diagnostics and are skipped; the graph
    built so far is kept.
    """
    builder = _Builder()
    diagnostics: list[ParseDiagnostic] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_mermaid_comments(raw).strip()
        if not line:
            continue
        if not header_seen:
            if _MERMAID_HEADER.match(line):
                header_seen = True
                continue
            diagnostics.append(ParseDiagnostic(
                lineno, "expected 'flowchart <dir>' header", Severity.ERROR))
            header_seen = True  # recover: treat remaining lines as body
        ref = _mermaid_node_ref(builder, line, 0, lineno, diagnostics)
        if ref is None:
            diagnostics.append(ParseDiagnostic(
                lineno, f"cannot parse statement: {line!r}", Severity.ERROR))
            continue
        node_id, pos = ref
        bad = False
        while pos < len(line):
            while pos < len(line) and line[pos].isspace():
                pos += 1
            if pos >= len(line):
                break
            label: EdgeLabel | None = None
            arrow_end = -1
            for i, pattern in enumerate(_MERMAID_ARROWS):
                am = pattern.match(line, pos)
                if am:
                    label = EdgeLabel.from_text(am.group(1)) if i < 2 else UNLABELED
                    arrow_end = am.end()
                    break
            if arrow_end < 0:
                diagnostics.append(ParseDiagnostic(
                    lineno, f"unbalanced bracket or unexpected text: {line[pos:]!r}",
                    Severity.ERROR))
                bad = True
                break
            pos = arrow_end
            while pos < len(line) and line[pos].isspace():
                pos += 1
            ref = _mermaid_node_ref(builder, line, pos, lineno, diagnostics)
            if ref is None:
                diagnostics.append(ParseDiagnostic(
                    lineno, "arrow without a target node", Severity.ERROR))
                bad = True
                break
            target_id, pos = ref
            if not builder.add_edge(node_id, target_id, label):
                diagnostics.append(ParseDiagnostic(
                    lineno, f"duplicate edge {node_id} --> {target_id}",
                    Severity.ERROR))
            node_id = target_id
        if bad:
            continue
    return ParseResult(builder.build(), diagnostics)


# --- DOT -------------------------------------------------------------------

_DOT_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|\#[^\n]*|/\*.*?\*/)
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<arrow>->|--)
  | (?P<punct>[{}\[\]=;,])
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*|-?\d+(?:\.\d+)?)
    """,
    re.VERBOSE | re.DOTALL,
)

_DOT_SHAPE_KINDS = {
    "box": NodeKind.PROCESS,
    "rect": NodeKind.PROCESS,
    "rectangle": NodeKind.PROCESS,
    "diamond": NodeKind.DECISION,
    "parallelogram": NodeKind.INPUT_OUTPUT,
}
_DOT_TERMINAL_SHAPES = {"oval", "ellipse", "circle"}


class _Tok(NamedTuple):
    kind: str
    value: str
    line: int


def _dot_tokenize(text: str) -> tuple[list[_Tok], list[ParseDiagnostic]]:
    """Tokens without whitespace and comments, and one diagnostic per
    character that starts no token."""
    tokens: list[_Tok] = []
    diagnostics: list[ParseDiagnostic] = []
    pos = 0
    line = 1
    for m in _DOT_TOKEN.finditer(text):
        # the gap before a match holds the characters no token matches at;
        # none is a newline, which whitespace always matches
        for char in text[pos:m.start()]:
            diagnostics.append(ParseDiagnostic(
                line, f"unexpected character {char!r}", Severity.ERROR))
        kind = m.lastgroup
        value = m.group()
        pos = m.end()
        if kind == "ws" or kind == "comment":
            line += value.count("\n")
        else:
            tokens.append(_Tok(kind, value, line))
            if kind == "string":
                line += value.count("\n")
    for char in text[pos:]:
        diagnostics.append(ParseDiagnostic(
            line, f"unexpected character {char!r}", Severity.ERROR))
    return tokens, diagnostics


def _dot_unquote(value: str) -> str:
    if value.startswith('"') and value.endswith('"'):
        return value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    return value


class _DotParser:
    def __init__(self, tokens: list[_Tok], last_line: int):
        self.tokens = tokens
        self.pos = 0
        self.last_line = last_line
        self.builder = _Builder()
        self.diagnostics: list[ParseDiagnostic] = []

    def peek(self) -> _Tok | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Tok | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def error(self, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line, message, Severity.ERROR))

    def warn(self, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line, message, Severity.WARNING))

    def expect_punct(self, value: str) -> bool:
        tok = self.peek()
        if tok and tok.kind == "punct" and tok.value == value:
            self.next()
            return True
        return False

    def parse(self) -> ParseResult:
        tok = self.peek()
        if tok and tok.kind == "name" and tok.value == "strict":
            self.next()
            tok = self.peek()
        if tok and tok.kind == "name" and tok.value in ("digraph", "graph"):
            self.next()
        else:
            self.error(tok.line if tok else 1, "expected 'digraph' or 'graph'")
        tok = self.peek()
        if tok and tok.kind in ("name", "string") and tok.value != "{":
            self.next()  # graph id
        if not self.expect_punct("{"):
            tok = self.peek()
            self.error(tok.line if tok else self.last_line, "expected '{'")
        closed = False
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok.kind == "punct" and tok.value == "}":
                self.next()
                closed = True
                break
            self.statement()
        if not closed:
            self.error(self.last_line, "missing closing '}'")
        return ParseResult(self.builder.build(), self.diagnostics)

    def attr_list(self) -> dict[str, str]:
        attrs: dict[str, str] = {}
        while self.expect_punct("["):
            while True:
                tok = self.peek()
                if tok is None:
                    self.error(self.last_line, "unterminated attribute list")
                    return attrs
                if tok.kind == "punct" and tok.value == "]":
                    self.next()
                    break
                if tok.kind in ("name", "string"):
                    name = _dot_unquote(self.next().value)
                    if self.expect_punct("="):
                        vtok = self.next()
                        if vtok is None or vtok.kind not in ("name", "string"):
                            self.error(tok.line, f"attribute {name!r} has no value")
                            continue
                        attrs[name] = _dot_unquote(vtok.value)
                    self.expect_punct(",")
                else:
                    self.error(tok.line, f"unexpected token {tok.value!r} in attribute list")
                    self.next()
        return attrs

    def apply_node_attrs(self, node_id: str, attrs: dict[str, str], line: int) -> None:
        self.builder.ensure(node_id)
        shape = attrs.get("shape", "").casefold()
        text = attrs.get("label", self.builder._texts.get(node_id, node_id))
        if shape in _DOT_TERMINAL_SHAPES:
            # first-declared terminal shape is the entry point, the rest are exits
            existing = self.builder.kind_of(node_id)
            if existing in (NodeKind.START, NodeKind.END):
                kind = existing
            else:
                kind = NodeKind.END if self.builder.has_start(excluding=node_id) else NodeKind.START
        elif shape in _DOT_SHAPE_KINDS:
            kind = _DOT_SHAPE_KINDS[shape]
        elif shape:
            self.warn(line, f"unsupported shape {shape!r} treated as box")
            kind = NodeKind.PROCESS
        else:
            kind = self.builder.kind_of(node_id) or NodeKind.PROCESS
        if not text and not kind.is_terminal:
            self.error(line, f"{kind.value} node {node_id!r} has empty label")
        self.builder.define(node_id, kind, text)

    def statement(self) -> None:
        tok = self.next()
        if tok is None:
            return
        if tok.kind == "punct" and tok.value == ";":
            return
        if tok.kind == "name" and tok.value in ("node", "edge", "graph"):
            nxt = self.peek()
            if nxt and nxt.kind == "punct" and nxt.value == "[":
                self.attr_list()
                self.warn(tok.line, f"default {tok.value!r} attributes are ignored")
                self.expect_punct(";")
                return
        if tok.kind not in ("name", "string"):
            self.error(tok.line, f"unexpected token {tok.value!r}")
            return
        first_id = _dot_unquote(tok.value)
        nxt = self.peek()
        if nxt and nxt.kind == "punct" and nxt.value == "=":
            self.next()
            self.next()  # value
            self.warn(tok.line, f"graph attribute {first_id!r} is ignored")
            self.expect_punct(";")
            return
        endpoints = [first_id]
        while True:
            nxt = self.peek()
            if nxt and nxt.kind == "arrow":
                self.next()
                target = self.next()
                if target is None or target.kind not in ("name", "string"):
                    self.error(nxt.line, "edge arrow without a target node")
                    return
                endpoints.append(_dot_unquote(target.value))
            else:
                break
        attrs = self.attr_list()
        self.expect_punct(";")
        if len(endpoints) == 1:
            self.apply_node_attrs(first_id, attrs, tok.line)
            return
        label = EdgeLabel.from_text(attrs.get("label"))
        for node_id in endpoints:
            self.builder.ensure(node_id)
        for src, dst in zip(endpoints, endpoints[1:]):
            if not self.builder.add_edge(src, dst, label):
                self.error(tok.line, f"duplicate edge {src} -> {dst}")


def parse_dot(text: str) -> ParseResult:
    """Parse the Graphviz DOT subset (directed graphs, shape/label attributes)."""
    tokens, lex_diags = _dot_tokenize(text)
    last_line = text.count("\n") + 1
    parser = _DotParser(tokens, last_line)
    result = parser.parse()
    result.diagnostics[:0] = lex_diags
    return result


# --- PlantUML --------------------------------------------------------------

_PU_ACTION = re.compile(r"^:(.*);$")
_PU_ARROW_LABEL = re.compile(r"^->\s*(.*?);?$")
_PU_IF = re.compile(r"^if\s*\((?P<cond>.*)\)\s*then(?:\s*\((?P<label>.*)\))?$")
_PU_ELSE = re.compile(r"^else(?:\s*\((?P<label>.*)\))?$")
_PU_REPEAT_WHILE = re.compile(
    r"^repeat\s+while\s*\((?P<cond>.*?)\)"
    r"(?:\s+is\s*\((?P<back>.*?)\))?"
    r"(?:\s+not\s*\((?P<exit>.*?)\))?$"
)
_PU_TITLE = re.compile(r"^title\s+(.*)$")


def _pu_label(raw: str | None, default: EdgeLabel) -> EdgeLabel:
    """then/else/is/not parenthesized labels; absent parens take the default,
    empty parens mean explicitly unlabeled."""
    if raw is None:
        return default
    if not raw.strip():
        return UNLABELED
    return EdgeLabel.from_text(raw)


@dataclass
class _PuFrame:
    kind: str  # "if" | "repeat"
    line: int
    decision: str | None = None
    done_tips: list[tuple[str, EdgeLabel]] = field(default_factory=list)
    saw_else: bool = False
    head: str | None = None  # repeat: first node of the body


class _PlantUmlParser:
    def __init__(self) -> None:
        self.builder = _Builder()
        self.diagnostics: list[ParseDiagnostic] = []
        self.tips: list[tuple[str, EdgeLabel]] = []
        self.pending_label: EdgeLabel | None = None
        self.frames: list[_PuFrame] = []

    def error(self, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line, message, Severity.ERROR))

    def attach(self, node_id: str, line: int = 0) -> None:
        """Connect all dangling outlets to a newly created node."""
        for tip_id, tip_label in self.tips:
            label = self.pending_label if self.pending_label is not None else tip_label
            if not self.builder.add_edge(tip_id, node_id, label):
                self.error(line or 1, f"duplicate edge {tip_id} -> {node_id}")
        self.pending_label = None
        self.tips = [(node_id, UNLABELED)]
        # every still-unheaded repeat frame starts its body here (nested
        # repeats with no statement between them share one head)
        for frame in self.frames:
            if frame.kind == "repeat" and frame.head is None:
                frame.head = node_id

    def statement(self, line: int, stmt: str) -> None:
        if stmt == "start":
            self.attach(self.builder.add_node(NodeKind.START, ""), line)
            return
        if stmt == "stop" or stmt == "end":
            self.attach(self.builder.add_node(NodeKind.END, ""), line)
            self.tips = []
            return
        m = _PU_ACTION.match(stmt)
        if m:
            text = m.group(1).strip()
            if not text:
                self.error(line, "action with empty text")
            self.attach(self.builder.add_node(NodeKind.PROCESS, text), line)
            return
        m = _PU_TITLE.match(stmt)
        if m:
            self.builder.title = m.group(1).strip()
            return
        m = _PU_IF.match(stmt)
        if m:
            cond = m.group("cond").strip()
            if not cond:
                self.error(line, "decision with empty condition")
            decision = self.builder.add_node(NodeKind.DECISION, cond)
            self.attach(decision, line)
            self.frames.append(_PuFrame("if", line, decision=decision))
            self.tips = [(decision, _pu_label(m.group("label"), YES))]
            return
        m = _PU_ELSE.match(stmt)
        if m:
            frame = self.frames[-1] if self.frames and self.frames[-1].kind == "if" else None
            if frame is None:
                self.error(line, "'else' without a matching 'if'")
                return
            if frame.saw_else:
                self.error(line, "duplicate 'else' in one 'if' block")
                return
            frame.saw_else = True
            frame.done_tips.extend(self.tips)
            self.tips = [(frame.decision, _pu_label(m.group("label"), NO))]
            return
        if stmt == "endif":
            frame = self.frames.pop() if self.frames and self.frames[-1].kind == "if" else None
            if frame is None:
                self.error(line, "'endif' without a matching 'if'")
                return
            tips = frame.done_tips + self.tips
            if not frame.saw_else:
                tips.append((frame.decision, NO))
            self.tips = tips
            return
        if stmt == "repeat":
            self.frames.append(_PuFrame("repeat", line))
            return
        m = _PU_REPEAT_WHILE.match(stmt)
        if m:
            frame = self.frames.pop() if self.frames and self.frames[-1].kind == "repeat" else None
            if frame is None:
                self.error(line, "'repeat while' without a matching 'repeat'")
                return
            cond = m.group("cond").strip()
            if not cond:
                self.error(line, "loop decision with empty condition")
            decision = self.builder.add_node(NodeKind.DECISION, cond)
            self.attach(decision, line)
            head = frame.head or decision
            if not self.builder.add_edge(decision, head, _pu_label(m.group("back"), YES)):
                self.error(line, f"duplicate edge {decision} -> {head}")
            self.tips = [(decision, _pu_label(m.group("exit"), NO))]
            return
        m = _PU_ARROW_LABEL.match(stmt)
        if m:
            self.pending_label = EdgeLabel.from_text(m.group(1))
            return
        self.error(line, f"statement outside the supported subset: {stmt!r}")

    def finish(self, line: int) -> None:
        for frame in self.frames:
            what = "if" if frame.kind == "if" else "repeat"
            self.error(frame.line, f"unmatched '{what}' (still open at end of input)")


def parse_plantuml(text: str) -> ParseResult:
    """Parse the PlantUML activity subset (start/stop, actions, if/else, repeat)."""
    parser = _PlantUmlParser()
    in_body = False
    saw_start_marker = False
    last_line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("'"):
            continue
        if line.casefold() == "@startuml":
            in_body = True
            saw_start_marker = True
            continue
        if line.casefold() == "@enduml":
            in_body = False
            continue
        if not in_body:
            parser.error(lineno, f"statement outside @startuml/@enduml: {line!r}")
            continue
        parser.statement(lineno, line)
    if not saw_start_marker:
        parser.error(1, "missing @startuml marker")
    parser.finish(last_line)
    return ParseResult(parser.builder.build(), parser.diagnostics)


# --- dispatch ---------------------------------------------------------------

_PARSERS = {
    Dialect.MERMAID: parse_mermaid,
    Dialect.DOT: parse_dot,
    Dialect.PLANTUML: parse_plantuml,
}


def parse_text(text: str, dialect: Dialect | None = None) -> tuple[Dialect, ParseResult]:
    """Parse ``text``, auto-detecting the dialect unless one is given."""
    if dialect is None:
        dialect = detect_dialect(text)
    return dialect, _PARSERS[dialect](text)
